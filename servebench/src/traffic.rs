//! Seeded traffic: the buffers each workload sends and when it sends them.
//!
//! Everything here is a pure function of the workload seed (and the run
//! length), so the same seed replays the same request stream byte for
//! byte. The daemon only ever sees the buffers generated here.

use crate::rng::Rng;
use mpirical::corpus::{generate_dataset, remove_mpi_calls, CorpusConfig};
use mpirical::cparse::{parse_strict, print_program, standardize};
use mpirical::{benchmark_programs, Precision, SubmitOptions};
use std::sync::Arc;
use std::time::Duration;

/// Share of buffers that resend the previous buffer byte for byte (an IDE
/// retrigger).
pub const REPEAT_P: f64 = 0.25;
/// Generated-token cap of a keystroke-style request.
pub const INTERACTIVE_CAP: usize = 64;
/// Arrival rate of `keystroke`, requests per second.
pub const KEYSTROKE_RATE: f64 = 4.0;
/// Arrival rate of the interactive buffers alongside `reindex`'s backlog:
/// high enough that a 30 s run holds the 100 requests a p90 needs.
pub const REINDEX_INTERACTIVE_RATE: f64 = 4.0;
/// Bulk requests `reindex` keeps outstanding.
pub const BULK_BACKLOG: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Keystroke,
    Reindex,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Keystroke, Workload::Reindex];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Keystroke => "keystroke",
            Workload::Reindex => "reindex",
        }
    }

    /// Decode precision of the workload's artifact.
    pub fn precision(self) -> Precision {
        match self {
            Workload::Reindex => Precision::Int8,
            Workload::Keystroke => Precision::F32,
        }
    }
}

/// One generated buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    pub source: Arc<str>,
    /// Byte-for-byte the same as the buffer sent just before it.
    pub repeat: bool,
}

/// An open-loop arrival: a buffer due at `at` after the window opens.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at: Duration,
    pub buffer: Buffer,
}

/// The whole request stream of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Open-loop Interactive arrivals.
    pub arrivals: Vec<Arrival>,
    /// Bulk programs in submission order (`reindex`): the first
    /// [`BULK_BACKLOG`] open the backlog, the rest top it up.
    pub bulk: Vec<Arc<str>>,
}

/// Submit options of a keystroke-style request.
pub fn interactive_options() -> SubmitOptions {
    SubmitOptions::interactive().with_max_new_tokens(INTERACTIVE_CAP)
}

/// Build the request stream of `workload` for a window of `seconds`.
pub fn plan(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let serial = serial_benchmark_programs();
    match workload {
        Workload::Keystroke => Plan {
            arrivals: open_loop(seed, KEYSTROKE_RATE, seconds, &serial),
            bulk: Vec::new(),
        },
        Workload::Reindex => {
            // Enough distinct programs that the backlog never cycles: the
            // refill rate is bounded by one Submit round trip each.
            let wanted = BULK_BACKLOG + (12.0 * seconds) as usize;
            let mut bulk = corpus_programs(seed, wanted);
            Rng::derive(seed, "bulk-order").shuffle(&mut bulk);
            Plan {
                arrivals: open_loop(seed, REINDEX_INTERACTIVE_RATE, seconds, &serial),
                bulk,
            }
        }
    }
}

/// Poisson arrivals at `rate` over `[0, seconds)`, conditioned on their
/// count: `round(rate * seconds)` arrival times drawn uniformly and
/// sorted. Fixing the count keeps the offered load the same for every
/// seed, so seeds differ in *when* requests arrive, not in how many.
pub fn arrival_times(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<Duration> {
    let n = (rate * seconds).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

fn open_loop(seed: u64, rate: f64, seconds: f64, serial: &[String]) -> Vec<Arrival> {
    let times = arrival_times(&mut Rng::derive(seed, "arrivals"), rate, seconds);
    let buffers = keystroke_buffers(&mut Rng::derive(seed, "buffers"), times.len(), serial);
    times
        .into_iter()
        .zip(buffers)
        .map(|(at, buffer)| Arrival { at, buffer })
        .collect()
}

/// `n` keystroke buffers: each a mid-edit cut of a stripped benchmark11
/// program, or (with probability [`REPEAT_P`]) the previous buffer again.
/// Fresh buffers walk the programs in seeded permutations, so every seed
/// sends the same mix of program lengths; seeds differ in order, cut
/// points and repeats.
pub fn keystroke_buffers(rng: &mut Rng, n: usize, serial: &[String]) -> Vec<Buffer> {
    let mut programs = Permutations::new(serial.len());
    let mut out: Vec<Buffer> = Vec::with_capacity(n);
    for _ in 0..n {
        if let Some(prev) = out.last() {
            if rng.chance(REPEAT_P) {
                let repeat = Buffer {
                    repeat: true,
                    ..prev.clone()
                };
                out.push(repeat);
                continue;
            }
        }
        let program = &serial[programs.next(rng)];
        out.push(Buffer {
            source: mid_edit_cut(rng, program).into(),
            repeat: false,
        });
    }
    out
}

/// Indices `0..n` in back-to-back seeded permutations: every block of `n`
/// draws covers each index once.
struct Permutations {
    order: Vec<usize>,
    at: usize,
}

impl Permutations {
    fn new(n: usize) -> Permutations {
        Permutations {
            order: (0..n).collect(),
            at: n,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.at == self.order.len() {
            rng.shuffle(&mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// The buffer as it stands while someone is typing: the program cut at a
/// seeded byte offset in its second half-ish (`[35%, 100%]` of its
/// length), so the tail of the function and its closing braces are
/// usually missing.
pub fn mid_edit_cut(rng: &mut Rng, program: &str) -> String {
    let len = program.len();
    let lo = len * 35 / 100;
    let mut cut = lo + rng.below(len - lo + 1);
    while !program.is_char_boundary(cut) {
        cut -= 1;
    }
    program[..cut].to_string()
}

/// The eleven benchmark programs with their MPI calls stripped, in
/// canonical (standardized) form — what a user's serial file looks like
/// before the assistant suggests anything.
pub fn serial_benchmark_programs() -> Vec<String> {
    benchmark_programs()
        .iter()
        .map(|p| {
            let parsed = parse_strict(p.source).expect("benchmark11 programs parse");
            let (_, canonical) = standardize(&parsed);
            print_program(&remove_mpi_calls(&canonical).stripped)
        })
        .collect()
}

/// Up to `count` distinct serial programs from a synthetic corpus generated
/// from `seed` (the serial inputs of the corpus pipeline's records).
pub fn corpus_programs(seed: u64, count: usize) -> Vec<Arc<str>> {
    let cfg = CorpusConfig {
        // The pipeline drops a share of raw programs (too long, no MPI).
        programs: count + count / 2 + 8,
        seed: Rng::derive(seed, "corpus").next_u64(),
        max_tokens: 320,
        threads: 1,
    };
    let (_, dataset, _) = generate_dataset(&cfg);
    let mut seen = std::collections::HashSet::new();
    dataset
        .records
        .into_iter()
        .map(|r| r.input_code)
        .filter(|s| seen.insert(s.clone()))
        .take(count)
        .map(Arc::from)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_buffers() {
        for w in Workload::ALL {
            let a = plan(w, 7, 4.0);
            let b = plan(w, 7, 4.0);
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(
                a,
                plan(w, 8, 4.0),
                "{}: another seed, other inputs",
                w.name()
            );
        }
    }

    #[test]
    fn arrivals_are_sorted_inside_the_window_with_fixed_count() {
        for seed in 0..5 {
            let times = arrival_times(&mut Rng::new(seed), 6.0, 20.0);
            assert_eq!(times.len(), 120);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.iter().all(|t| t.as_secs_f64() < 20.0));
        }
    }

    #[test]
    fn repeats_resend_the_previous_buffer_byte_for_byte() {
        let serial = serial_benchmark_programs();
        let buffers = keystroke_buffers(&mut Rng::new(3), 400, &serial);
        let repeats = buffers.iter().filter(|b| b.repeat).count();
        assert!((60..140).contains(&repeats), "about a quarter: {repeats}");
        for pair in buffers.windows(2) {
            if pair[1].repeat {
                assert_eq!(pair[1].source, pair[0].source);
            }
        }
    }

    #[test]
    fn stripped_benchmark_programs_carry_no_mpi_calls() {
        let serial = serial_benchmark_programs();
        assert_eq!(serial.len(), 11);
        assert!(serial.iter().all(|s| !s.contains("MPI_")));
    }

    #[test]
    fn fresh_buffers_cover_every_program_once_per_block() {
        let mut rng = Rng::new(5);
        let mut perm = Permutations::new(11);
        for _ in 0..3 {
            let mut block: Vec<usize> = (0..11).map(|_| perm.next(&mut rng)).collect();
            block.sort_unstable();
            assert_eq!(block, (0..11).collect::<Vec<_>>());
        }
    }
}
