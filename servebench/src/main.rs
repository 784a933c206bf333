//! `servebench --workload <keystroke|reindex> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Starts a loopback daemon on a fixed-seed artifact, drives it with the
//! workload's seeded traffic for `--seconds`, checks the outputs against
//! the in-process references, and prints a report whose last line is the
//! JSON result. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! puts spans around every client call of the pass, times the in-process
//! replay layer by layer, and reports the per-layer metrics. Exits
//! non-zero when any output is wrong or any request failed.

use mpirical::model::DEFAULT_MAX_BATCH;
use mpirical::{MpiRical, PoolStats, SuggestPoll, VerifyStats};
use mpirical_servebench::loopback::{self, Class, End, Pass, Sent};
use mpirical_servebench::report::{self, metric, Header, Metric};
use mpirical_servebench::rng::Rng;
use mpirical_servebench::stats::{self, Outcome};
use mpirical_servebench::trace::{self, Tracer};
use mpirical_servebench::traffic::{self, Plan, Workload};
use mpirical_servebench::{artifact, check, replay};
use mpirical_server::{
    read_frame, write_frame, Client, Request, Response, Server, ServerConfig, ServerStats,
};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Idle `Stats` round trips timed before the traffic starts.
const STATS_PROBES: usize = 16;
/// Requests of the stream the replay feeds through the layers.
const REPLAY_ITEMS: usize = 16;
/// Replayed outputs the traced run splices and simulates.
const REPLAY_VERIFIES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <keystroke|reindex> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon with its control connection.
struct Daemon {
    server: Server,
    control: Client,
    artifact: Arc<MpiRical>,
}

/// Build the artifact and start a daemon, up to its first `Stats` reply.
fn setup(w: Workload) -> io::Result<(Daemon, f64)> {
    let t = Instant::now();
    let artifact = Arc::new(artifact::build(w.precision()));
    let server = Server::start(Arc::clone(&artifact), ServerConfig::default())?;
    let mut control = Client::connect(server.addr())?;
    control.stats()?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        Daemon {
            server,
            control,
            artifact,
        },
        secs,
    ))
}

impl Daemon {
    /// Final `Stats`, then `Drain`, then stop accepting connections.
    fn finish(mut self) -> io::Result<(ServerStats, PoolStats, Arc<MpiRical>)> {
        let stats = self.control.stats()?;
        let pool = self.control.drain()?;
        drop(self.control);
        self.server.shutdown();
        Ok((stats, pool, self.artifact))
    }
}

/// Seeded reference-check sample size per pass.
fn check_sample(w: Workload) -> usize {
    match w {
        Workload::Keystroke => 16,
        Workload::Reindex => 12,
    }
}

/// Correctness findings of one pass: failure messages and the requests
/// they condemn.
#[derive(Default)]
struct Verdicts {
    problems: Vec<String>,
    failed: HashSet<usize>,
}

impl Verdicts {
    /// Every request that did not end `Done`, plus every sampled `Done`
    /// whose payload differs from the reference.
    fn judge(&mut self, w: Workload, pass: &Pass, artifact: &MpiRical, seed: u64, tag: &str) {
        for (i, s) in pass.requests.iter().enumerate() {
            if !matches!(s.end, End::Done(_)) {
                self.failed.insert(i);
                self.problems
                    .push(format!("{tag} request {i}: {:?}", s.end));
            }
        }
        let picked = check::sample(&pass.requests, check_sample(w), &mut Rng::derive(seed, tag));
        for (i, m) in check::against_reference(artifact, &pass.requests, &picked) {
            self.failed.insert(i);
            self.problems.push(format!("{tag}: {m}"));
        }
    }

    fn drained(&mut self, pool: &PoolStats, tag: &str) {
        self.leaked(pool.pages_live, tag);
    }

    fn leaked(&mut self, pages_live: usize, tag: &str) {
        if pages_live != 0 {
            self.problems
                .push(format!("{tag}: left {pages_live} live KV pages"));
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency outcomes of a pass's Interactive requests; failed ones (and
/// those the correctness gate condemned) count as misses.
fn interactive_outcomes(pass: &Pass, failed: &HashSet<usize>) -> Vec<Outcome> {
    pass.requests
        .iter()
        .enumerate()
        .filter(|(_, s)| s.class == Class::Interactive)
        .map(|(i, s)| match s.latency() {
            Some(d) if !failed.contains(&i) => Outcome::Done(ms(d)),
            _ => Outcome::Failed,
        })
        .collect()
}

/// Mean latency over every request of the pass, Interactive and Bulk, in
/// milliseconds. On `reindex` it is mostly Bulk turnaround, which for a
/// fixed backlog is the backlog over the Bulk throughput.
fn request_mean_ms(pass: &Pass) -> f64 {
    let ms_each: Vec<f64> = pass
        .requests
        .iter()
        .filter_map(|s| s.latency().map(ms))
        .collect();
    stats::mean(&ms_each)
}

/// Generated tokens of Bulk requests redeemed as `Done` inside the
/// window, per second of window.
fn bulk_tokens_per_s(pass: &Pass) -> f64 {
    let tokens: u64 = pass
        .requests
        .iter()
        .filter(|s| s.class == Class::Bulk && pass.done_in_window(s))
        .map(|s| s.decode_steps())
        .sum();
    tokens as f64 / pass.window.as_secs_f64()
}

fn done_payloads(pass: &Pass) -> impl Iterator<Item = &SuggestPoll> {
    pass.requests.iter().filter_map(|s| match &s.end {
        End::Done(p) => Some(p),
        _ => None,
    })
}

/// Median in-memory wire cost of a request: its Submit and its `Done`
/// poll reply through JSON and the frame codec, both ways.
fn codec_us(pass: &Pass) -> f64 {
    let mut per_request = Vec::new();
    for s in &pass.requests {
        let End::Done(done) = &s.end else { continue };
        let submit = Request::Submit {
            source: s.source.to_string(),
            options: s.options,
        };
        let reply = Response::Poll {
            state: done.clone(),
        };
        let t = Instant::now();
        let req_back: Request = round_trip(&submit);
        let reply_back: Response = round_trip(&reply);
        per_request.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            req_back == submit && reply_back == reply,
            "codec round trip"
        );
    }
    stats::median(&per_request)
}

fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("wire types serialize");
    let mut wire = Vec::new();
    write_frame(&mut wire, json.as_bytes()).expect("in-memory write");
    let payload = read_frame(&mut wire.as_slice()).expect("in-memory read");
    serde_json::from_str(std::str::from_utf8(&payload).expect("utf-8")).expect("wire types parse")
}

fn run(args: &Args) -> io::Result<ExitCode> {
    let w = args.workload;
    let root = Path::new(".");
    let window = Duration::from_secs(args.seconds);
    let plan = traffic::plan(w, args.seed, window.as_secs_f64());

    // Keep the last daemon for the pass; drain every other one before the
    // next set-up, so no idle daemon runs beside a timed one.
    let mut daemon = None;
    let mut setup_times = Vec::new();
    let mut verdicts = Verdicts::default();
    for k in 0..SETUP_REPEATS {
        let (d, secs) = setup(w)?;
        setup_times.push(secs);
        if k + 1 < SETUP_REPEATS {
            let (_, pool, _) = d.finish()?;
            verdicts.drained(&pool, &format!("set-up {k} drain"));
        } else {
            daemon = Some(d);
        }
    }
    let mut d = daemon.expect("at least one set-up");

    let header = Header {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        isa: report::isa_flags(),
        shape: d.artifact.model.cfg.clone(),
        precision: w.precision(),
        engine_workers: ServerConfig::default().workers,
        lanes_per_worker: DEFAULT_MAX_BATCH,
        git_rev: report::git_rev(root),
        source_digest: report::source_digest(root, &["crates", "shims", "servebench"]),
    };
    for line in header.lines() {
        println!("# {line}");
    }

    let mut stats_rtts = Vec::with_capacity(STATS_PROBES);
    for _ in 0..STATS_PROBES {
        let t = Instant::now();
        d.control.stats()?;
        stats_rtts.push(ms(t.elapsed()));
    }
    let pass = loopback::run_pass(d.server.addr(), &plan, window, args.trace)?;
    let (final_stats, pool, artifact) = d.finish()?;
    verdicts.judge(w, &pass, &artifact, args.seed, "pass");
    verdicts.drained(&pool, "pass drain");

    // The replay decodes the head of the stream in process; its ids, and
    // those of the daemon's engine run in process, must equal
    // `predict_ids`.
    let items = replay_items(w, &plan);
    let mut replay_tracer = Tracer::new(Instant::now(), args.trace);
    let decoded = replay::decode(&artifact, &items, &mut replay_tracer);
    let engine = check::through_engine(
        &artifact,
        &decoded.requests,
        ServerConfig::default().workers,
        DEFAULT_MAX_BATCH,
    );
    let reference = check::reference_ids(&artifact, &items);
    let all: Vec<usize> = (0..items.len()).collect();
    let mut id_checks =
        check::ids_against_reference("1-lane replay", &decoded.narrow, &all, &reference);
    id_checks.extend(check::ids_against_reference(
        "8-lane replay",
        &decoded.wide,
        &all,
        &reference,
    ));
    id_checks.extend(check::ids_against_reference(
        "sharded engine",
        &engine.ids,
        &engine.of,
        &reference,
    ));
    let id_outputs = decoded.narrow.len() + decoded.wide.len() + engine.ids.len() + engine.not_done;
    let attempted = pass.requests.len() + id_outputs;
    let failed = verdicts.failed.len() + id_checks.len() + engine.not_done;
    verdicts.problems.extend(id_checks);
    if engine.not_done > 0 {
        verdicts.problems.push(format!(
            "sharded engine: {} submissions did not end Done",
            engine.not_done
        ));
    }
    verdicts.leaked(engine.pages_live, "sharded engine shutdown");

    let latency = stats::latency(&interactive_outcomes(&pass, &verdicts.failed));
    let e2e = vec![
        metric("setup_s", stats::median(&setup_times), "s"),
        metric("interactive_p50_ms", latency.p50_ms, "ms"),
        metric("interactive_p90_ms", latency.p90_ms, "ms"),
        metric("request_mean_ms", request_mean_ms(&pass), "ms"),
    ];
    let mut also = vec![
        metric("interactive_n", latency.n as f64, "count"),
        metric("interactive_slo_frac", latency.slo_frac, "frac"),
        metric(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
        metric("check.outputs_compared", id_outputs as f64, "count"),
        metric(
            "check.engine_preemptions",
            engine.preemptions as f64,
            "count",
        ),
        metric(
            "check.engine_prefix_hits",
            (engine.prefix.hits + engine.prefix.partial_hits) as f64,
            "count",
        ),
    ];
    if let Some((p, v)) = latency.tail {
        also.push(metric(&format!("interactive_tail_p{p}_ms"), v, "ms"));
    }
    if w == Workload::Reindex {
        also.push(metric("bulk_tokens_per_s", bulk_tokens_per_s(&pass), "1/s"));
    }

    // A traced run reports the per-layer metrics; the end-to-end ones go
    // to the record only.
    let (reported, extra) = if args.trace {
        let verify = replay::verify(
            &artifact,
            &items,
            &decoded.narrow,
            REPLAY_VERIFIES,
            &mut replay_tracer,
        );
        let layers = layer_metrics(
            w,
            &pass,
            latency.p50_ms,
            &final_stats,
            &stats_rtts,
            &artifact,
            &replay_tracer,
            &verify,
        );
        (layers, e2e.into_iter().chain(also).collect())
    } else {
        (e2e, also)
    };

    let correct = verdicts.problems.is_empty();
    for m in reported.iter().chain(&extra) {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &verdicts.problems {
        println!("! {p}");
    }
    let line = report::result_line(correct, attempted, failed, &reported);
    write_record(args, &header, &line, &extra, &verdicts.problems, &pass);
    println!("{line}");
    Ok(if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the full record (and, for a traced run, the spans) under
/// `servebench/out/`. A write failure is reported, not fatal.
fn write_record(
    args: &Args,
    header: &Header,
    line: &str,
    extra: &[Metric],
    problems: &[String],
    pass: &Pass,
) {
    let dir = Path::new("servebench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let write = || -> io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("{stem}.json")),
            report::record_json(header, line, extra, problems),
        )?;
        std::fs::write(
            dir.join(format!("{stem}-requests.jsonl")),
            requests_jsonl(pass),
        )?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{stem}-spans.jsonl")),
                pass.tracer.to_jsonl(),
            )?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!(
            "servebench: could not write the record under {}: {e}",
            dir.display()
        );
    }
}

/// One JSON line per request of the pass: class, times (ms from the
/// window's opening), polls and generated tokens.
fn requests_jsonl(pass: &Pass) -> String {
    let opt_ms = |d: Option<Duration>| d.map_or("null".to_string(), |d| format!("{}", ms(d)));
    pass.requests
        .iter()
        .map(|s| {
            format!(
                "{{\"class\":\"{:?}\",\"repeat\":{},\"due_ms\":{},\"sent_ms\":{},\"submit_rtt_ms\":{},\
                 \"finished_ms\":{},\"latency_ms\":{},\"polls\":{},\"tokens\":{},\"done\":{}}}\n",
                s.class,
                s.repeat,
                ms(s.due),
                ms(s.sent),
                ms(s.submit_rtt),
                opt_ms(s.finished),
                opt_ms(s.latency()),
                s.polls,
                s.decode_steps(),
                matches!(s.end, End::Done(_))
            )
        })
        .collect()
}

/// The traced run's per-layer metrics: client-side spans of the pass, the
/// daemon's own counters, and the timed replay.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: Workload,
    pass: &Pass,
    interactive_p50_ms: f64,
    final_stats: &ServerStats,
    stats_rtts: &[f64],
    artifact: &MpiRical,
    replay: &Tracer,
    verify: &VerifyStats,
) -> Vec<Metric> {
    let replay_times = replay.durations();
    let pass_times = pass.tracer.durations();
    let med = |map: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str| {
        stats::median(map.get(name).map_or(&[][..], |v| &v[..]))
    };

    let done: Vec<&SuggestPoll> = done_payloads(pass).collect();
    let telemetry: Vec<_> = done
        .iter()
        .filter_map(|p| match p {
            SuggestPoll::Done { telemetry, .. } => Some(*telemetry),
            _ => None,
        })
        .collect();
    let dirty = done
        .iter()
        .filter(|p| matches!(p, SuggestPoll::Done { health, .. } if !health.is_clean()))
        .count();
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let admitted: Vec<&Sent> = pass
        .requests
        .iter()
        .filter(|s| s.ticket.is_some())
        .collect();
    let polls: u64 = admitted.iter().map(|s| u64::from(s.polls)).sum();
    let mut lags: Vec<f64> = pass
        .requests
        .iter()
        .map(|s| ms(s.sent.saturating_sub(s.due)))
        .collect();
    lags.sort_by(f64::total_cmp);
    let repeats = pass.requests.iter().filter(|s| s.repeat).count();
    // The tracer's own cost per request (spans per request times the
    // measured cost of one span) over the traced pass's Interactive p50.
    let overhead = {
        let spans_per_request = ratio(pass.tracer.spans().len(), pass.requests.len());
        spans_per_request * trace::cost_per_span(9, 4000) * 1e3 / interactive_p50_ms
    };

    let mut out = vec![
        metric("server.stats_rtt_ms", stats::median(stats_rtts), "ms"),
        metric("server.codec_us", codec_us(pass), "us"),
        metric(
            "server.polls_per_request",
            ratio(polls as usize, admitted.len()),
            "count",
        ),
        metric("server.sheds", final_stats.counters.sheds as f64, "count"),
        metric("submit.rtt_ms", med(&pass_times, "submit") * 1e3, "ms"),
        metric(
            "frontend.encode_source_us",
            med(&replay_times, "frontend.encode_source") * 1e6,
            "us",
        ),
        metric("frontend.dirty_frac", ratio(dirty, done.len()), "frac"),
        metric(
            "encoder.forward_ms",
            med(&replay_times, "encoder.forward") * 1e3,
            "ms",
        ),
        metric(
            "prefill.cross_kv_us",
            med(&replay_times, "prefill.cross_kv") * 1e6,
            "us",
        ),
        metric(
            "decode.step_us.lanes1",
            med(&replay_times, "decode.step.lanes1") * 1e6,
            "us",
        ),
        metric(
            "decode.step_us.lanes8",
            med(&replay_times, "decode.step.lanes8") * 1e6,
            "us",
        ),
        metric(
            "decode.tokens_per_request",
            stats::mean(
                &telemetry
                    .iter()
                    .map(|t| t.decode_steps as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "decode.weight_bytes_per_step",
            artifact::weight_bytes_per_step(&artifact.model.cfg, w.precision()) as f64,
            "bytes",
        ),
        metric(
            "engine.queue_wait_steps",
            stats::mean(
                &telemetry
                    .iter()
                    .map(|t| t.queue_wait_steps as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "engine.preemptions",
            final_stats.preemptions as f64,
            "count",
        ),
        metric("kv.pages_peak", final_stats.pool.pages_peak as f64, "count"),
        metric("prefix.hit_rate", final_stats.prefix.hit_rate(), "frac"),
        metric(
            "prefix.evictions",
            final_stats.prefix.evictions as f64,
            "count",
        ),
        metric(
            "verify.splice_us",
            med(&replay_times, "verify.splice") * 1e6,
            "us",
        ),
        // A mean: one step-limit run costs as much as a thousand quick ones.
        metric(
            "verify.sim_ms",
            stats::mean(replay_times.get("verify.sim").map_or(&[][..], |v| &v[..])) * 1e3,
            "ms",
        ),
        metric(
            "verify.sim_runs_per_request",
            ratio(verify.sim_runs, verify.hypotheses),
            "count",
        ),
        metric(
            "verify.useful_frac",
            ratio(verify.verified, verify.hypotheses),
            "frac",
        ),
    ];
    for (class, n) in [
        ("verified", verify.verified),
        ("deadlock", verify.deadlock),
        ("rank_crash", verify.rank_crash),
        ("type_mismatch", verify.type_mismatch),
        ("diverged", verify.diverged),
        ("timeout", verify.timeout),
        ("not_executable", verify.not_executable),
        ("unverified", verify.unverified),
    ] {
        out.push(metric(
            &format!("verify.verdict.{class}"),
            n as f64,
            "count",
        ));
    }
    out.extend([
        metric(
            "verify.reference_ms",
            med(&replay_times, "verify.reference") * 1e3,
            "ms",
        ),
        metric(
            "harness.send_lag_p90_ms",
            if lags.is_empty() {
                0.0
            } else {
                stats::percentile(&lags, 90.0)
            },
            "ms",
        ),
        metric(
            "harness.repeat_frac",
            ratio(repeats, pass.requests.len()),
            "frac",
        ),
        metric("tracing.overhead_frac", overhead, "frac"),
    ]);
    out
}

/// The head of the workload's request stream: on `reindex` the first Bulk
/// programs (so the 8-lane replay decodes Bulk work) and then the first
/// Interactive buffers.
fn replay_items(w: Workload, plan: &Plan) -> Vec<replay::Item> {
    let interactive = plan.arrivals.iter().map(|a| replay::Item {
        source: Arc::clone(&a.buffer.source),
        options: traffic::interactive_options(),
    });
    match w {
        Workload::Keystroke => interactive.take(REPLAY_ITEMS).collect(),
        Workload::Reindex => {
            let bulk = plan.bulk.iter().map(|s| replay::Item {
                source: Arc::clone(s),
                options: mpirical::SubmitOptions::bulk(),
            });
            bulk.take(REPLAY_ITEMS / 2)
                .chain(interactive.take(REPLAY_ITEMS / 2))
                .collect()
        }
    }
}
