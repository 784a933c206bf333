//! Request-level serving façade over the batched decoder.
//!
//! [`SuggestService`] is the shape a long-running assistance daemon wants:
//! clients `submit` raw C buffers and get back tickets; a driver loop calls
//! `step` (one lockstep decode step for every in-flight request); clients
//! `poll` their ticket until the suggestions are ready. Under the hood every
//! in-flight request shares the weight passes of one [`BatchDecoder`]
//! step, and finished
//! requests retire continuously so a short completion never waits on a long
//! one.
//!
//! # Serving API v2: priorities, streaming polls, cancellation
//!
//! [`submit_with`](SuggestService::submit_with) carries
//! [`SubmitOptions`] — a [`Priority`] class plus an optional generated-token
//! cap — into the scheduler: an [`Interactive`](mpirical_model::Priority::Interactive)
//! keystroke request preempts [`Bulk`](mpirical_model::Priority::Bulk) re-index lanes and
//! starts decoding within one step (the preempted bulk work pauses with its
//! KV pages intact and resumes unchanged). [`poll`](SuggestService::poll)
//! returns a typed [`SuggestPoll`]: queue position, streaming partial
//! suggestions while decoding, the finished suggestions plus scheduling
//! telemetry ([`RequestTelemetry`]: queue-wait steps, decode steps,
//! preemptions), a cancellation marker, or `Unknown` for a ticket the
//! service never issued (so a daemon can detect client-side ticket bugs —
//! the v1 `Option` return conflated all of these). `Done` also carries the
//! buffer's front-end [`ParseHealth`], captured at submit time: an editor
//! can tell a clean-parse result from one produced around broken regions,
//! and suggestions inside dirty line ranges arrive flagged
//! [`Suggestion::degraded`] and sorted last — same contract as
//! [`MpiRical::suggest_report`](crate::MpiRical::suggest_report).
//! [`cancel`](SuggestService::cancel) retires a request from the queue or
//! mid-flight, returning its pages to the pool.
//!
//! The service decodes every request with the artifact's full
//! [`DecodeOptions`](mpirical_model::DecodeOptions) — a beam-configured
//! artifact runs **batched beam search** in the same lockstep loop (each
//! request reserves `beam` lanes; hypotheses fork copy-on-write inside the
//! scheduler's paged KV cache), no sequential fallback.
//!
//! The scheduler allocates every lane's cache from one page pool;
//! [`SuggestService::pool_stats`] surfaces its live/peak/shared page counts
//! so a daemon can export serving-memory telemetry.
//!
//! ```no_run
//! use mpirical::{MpiRical, SuggestPoll, SubmitOptions, SuggestService};
//!
//! let assistant = MpiRical::load("model.json").unwrap();
//! let mut service = SuggestService::new(&assistant);
//! // A background re-index job and a keystroke-triggered request:
//! let reindex = service.submit_with(
//!     "int main() { double local = 0.0; return 0; }",
//!     SubmitOptions::bulk(),
//! );
//! let keystroke = service.submit("int main() { int rank; return 0; }");
//! loop {
//!     if service.step() == 0 { break; }
//!     // Streaming: partial suggestions are visible while decoding.
//!     if let SuggestPoll::Decoding { partial } = service.poll(keystroke) {
//!         println!("so far: {} suggestion(s)", partial.len());
//!     }
//! }
//! match service.poll(keystroke) {
//!     SuggestPoll::Done { suggestions, telemetry, health, verify } => {
//!         for s in &suggestions {
//!             println!("insert {} at line {}", s.function, s.line);
//!         }
//!         println!("queue wait: {} steps", telemetry.queue_wait_steps);
//!         if !health.is_clean() {
//!             println!("buffer was mid-edit: {} dirty range(s)", health.dirty_lines.len());
//!         }
//!         if let Some(stats) = verify {
//!             println!("verified {} of {} hypotheses", stats.verified, stats.hypotheses);
//!         }
//!     }
//!     other => panic!("unexpected state: {other:?}"),
//! }
//! service.cancel(reindex); // the editor closed; stop paying for it
//! println!("peak KV bytes: {}", service.pool_stats().peak_bytes());
//! ```

use crate::assistant::{apply_health, canonical_program, MpiRical, Suggestion};
use crate::verify::VerifyStats;
use mpirical_cparse::{ParseHealth, Program};
use mpirical_model::{
    BatchDecoder, BatchRequest, Engine, EngineConfig, EngineTicket, PollResult, PoolStats,
    PrefixStats, Priority, RequestId, RequestTelemetry, SubmitOptions, DEFAULT_MAX_BATCH,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Typed lifecycle state of a suggestion request — the [`Suggestion`]-level
/// mirror of the scheduler's [`PollResult`] (see
/// [`SuggestService::poll`]). Serializable, so a serving daemon can put the
/// state on the wire verbatim (the `mpirical-server` crate does exactly
/// that).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuggestPoll {
    /// Waiting for lanes; `position` counts requests admitted first
    /// (0 = next). Preempted requests re-enter this state, pages intact.
    Queued { position: usize },
    /// Decoding; `partial` holds the suggestions extractable from the
    /// tokens generated so far. For a greedy artifact the underlying
    /// token prefix is append-only, so partials only grow; for a beam
    /// artifact they track the *current best* hypothesis, which can
    /// switch between polls — treat each poll as a fresh snapshot.
    Decoding { partial: Vec<Suggestion> },
    /// Finished. Redeems once; later polls report `Unknown`.
    ///
    /// `health` is the [`ParseHealth`] of the buffer as submitted: a
    /// mid-edit buffer that parsed around broken regions reports its
    /// error/recovery counts and dirty line ranges here, and any
    /// suggestion landing inside a dirty range arrives with
    /// [`Suggestion::degraded`] set (sorted after the clean ones).
    Done {
        suggestions: Vec<Suggestion>,
        telemetry: RequestTelemetry,
        health: ParseHealth,
        /// Closed-loop verification telemetry for a verifying artifact
        /// (`assistant.verify` set): how many hypotheses were executed and
        /// how they classified. `None` when verification is off. The
        /// per-suggestion verdicts ride on
        /// [`Suggestion::verdict`].
        verify: Option<VerifyStats>,
    },
    /// Retired by [`SuggestService::cancel`]. Redeems once.
    Cancelled,
    /// Not a live ticket: never issued by this service, or already
    /// redeemed.
    Unknown,
}

impl SuggestPoll {
    /// The finished suggestions, if `Done` — the v1 `Option` shape.
    pub fn into_suggestions(self) -> Option<Vec<Suggestion>> {
        match self {
            SuggestPoll::Done { suggestions, .. } => Some(suggestions),
            _ => None,
        }
    }
}

/// Submit/poll scheduler turning an [`MpiRical`] artifact into a shared
/// generation backend (see module docs).
pub struct SuggestService<'m> {
    backend: Backend<'m>,
    /// Front-end parse health per live ticket, captured at submit time and
    /// redeemed with the ticket (`Done` carries it; `Cancelled` drops it).
    health: HashMap<RequestId, ParseHealth>,
    /// Verifying artifacts only: per-ticket splice base (the canonical
    /// serial program) and priority class, captured at submit time.
    tickets: HashMap<RequestId, Ticket>,
    /// Decoded tickets awaiting verification, oldest first. Worked off one
    /// per idle [`step`](SuggestService::step) (bulk semantics: never while
    /// an interactive decode is in flight) or synchronously at
    /// [`poll`](SuggestService::poll).
    verify_queue: Vec<PendingVerify>,
    /// Fully verified tickets awaiting redemption.
    verify_done: HashMap<RequestId, SuggestPoll>,
}

/// The generation backend behind a [`SuggestService`], with the artifact
/// it serves: a borrowed artifact driving one inline [`BatchDecoder`]
/// stepped by the caller (the deterministic, step-precise reference —
/// [`SuggestService::new`]), or an owned (`Arc`) artifact behind a
/// multi-worker [`Engine`] whose workers decode autonomously
/// ([`SuggestService::owned`] — the service is then `'static` and `Send`,
/// so a daemon thread can carry it). Both produce bitwise identical
/// suggestions; they differ only in who drives the decode loop and how
/// many cores it uses.
enum Backend<'m> {
    Inline {
        assistant: &'m MpiRical,
        // Boxed: a BatchDecoder embeds its lane scratch (~700 bytes).
        decoder: Box<BatchDecoder<'m>>,
    },
    Engine {
        assistant: Arc<MpiRical>,
        engine: Engine,
    },
}

impl Backend<'_> {
    fn assistant(&self) -> &MpiRical {
        match self {
            Backend::Inline { assistant, .. } => assistant,
            Backend::Engine { assistant, .. } => assistant,
        }
    }

    fn submit(&mut self, req: BatchRequest) -> RequestId {
        match self {
            // Engine tickets and decoder ids are both dense u64 sequences,
            // so the service can expose one `RequestId` currency for both.
            Backend::Inline { decoder, .. } => decoder.submit(req),
            Backend::Engine { engine, .. } => RequestId::from_raw(engine.submit(req).raw()),
        }
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        match self {
            Backend::Inline { decoder, .. } => decoder.cancel(id),
            Backend::Engine { engine, .. } => engine.cancel(EngineTicket::from_raw(id.raw())),
        }
    }

    fn poll(&mut self, id: RequestId) -> PollResult {
        match self {
            Backend::Inline { decoder, .. } => decoder.poll(id),
            Backend::Engine { engine, .. } => engine.poll(EngineTicket::from_raw(id.raw())),
        }
    }

    fn pending(&self) -> usize {
        match self {
            Backend::Inline { decoder, .. } => decoder.pending(),
            Backend::Engine { engine, .. } => engine.pending(),
        }
    }
}

/// Submit-time context a verifying service keeps per ticket.
struct Ticket {
    base: Program,
    interactive: bool,
}

/// A ticket that finished decoding and now owes a verification pass.
struct PendingVerify {
    id: RequestId,
    base: Program,
    hypotheses: Vec<Vec<usize>>,
    telemetry: RequestTelemetry,
}

impl<'m> SuggestService<'m> {
    /// Service with the default lane count ([`DEFAULT_MAX_BATCH`]
    /// concurrent requests).
    pub fn new(assistant: &'m MpiRical) -> SuggestService<'m> {
        SuggestService::with_max_batch(assistant, DEFAULT_MAX_BATCH)
    }

    /// Service decoding at most `max_batch` lanes concurrently; further
    /// submissions queue and join as lanes free up. A beam-configured
    /// artifact reserves `decode.beam` lanes per request, so the lane count
    /// is raised to at least the beam width. The scheduler serves the
    /// artifact's prepared weights for its precision — an `Int8` artifact
    /// serves every request through the quantized kernels.
    ///
    /// # Panics
    ///
    /// If `max_batch` is 0 (a zero-lane service could never decode — fail
    /// here, not deep inside a step) or the artifact's decode options are
    /// invalid (e.g. `beam = 0`).
    pub fn with_max_batch(assistant: &'m MpiRical, max_batch: usize) -> SuggestService<'m> {
        assert!(
            max_batch >= 1,
            "SuggestService needs at least one lane (got max_batch = 0)"
        );
        let decoder = Box::new(assistant.batch_decoder(max_batch));
        SuggestService::with_backend(Backend::Inline { assistant, decoder })
    }

    /// Service backed by a multi-worker [`Engine`] that **owns** the
    /// artifact: `workers` threads each run a private scheduler, drawing
    /// from one shared page pool and prefix index, so aggregate throughput
    /// scales with cores while `submit`/`poll`/`cancel` stay ordinary
    /// synchronous calls. The service carries an `Arc<MpiRical>`, so its
    /// lifetime is `'static` and it is `Send` — a serving daemon can move
    /// it into a dedicated service thread (the `mpirical-server` daemon
    /// does exactly this). Suggestions are bitwise identical to the inline
    /// service ([`new`](Self::new)) — the engine only changes *where* a
    /// request decodes, never its numerics.
    ///
    /// With an engine backend, [`step`](Self::step) does not advance the
    /// decode (workers run autonomously); it waits briefly and reports how
    /// many requests are still in flight, so existing
    /// `while service.step() > 0 {}` driver loops keep working.
    pub fn owned(assistant: Arc<MpiRical>, workers: usize) -> SuggestService<'static> {
        SuggestService::owned_with(assistant, EngineConfig::with_workers(workers))
    }

    /// [`owned`](Self::owned) with full [`EngineConfig`] control (placement
    /// seed, per-worker lane count, aging bound, soft page limit). The
    /// per-worker `max_batch` is raised to at least the artifact's beam
    /// width so beam requests always fit one worker.
    ///
    /// # Panics
    ///
    /// If `cfg.workers` is 0 or the artifact's decode options are invalid.
    pub fn owned_with(assistant: Arc<MpiRical>, cfg: EngineConfig) -> SuggestService<'static> {
        let engine = assistant.engine(cfg);
        SuggestService::with_backend(Backend::Engine { assistant, engine })
    }

    fn with_backend(backend: Backend<'m>) -> SuggestService<'m> {
        SuggestService {
            backend,
            health: HashMap::new(),
            tickets: HashMap::new(),
            verify_queue: Vec::new(),
            verify_done: HashMap::new(),
        }
    }

    /// Queue a raw (possibly mid-edit) C buffer for suggestion at the
    /// default scheduling options ([`Priority::Interactive`], no token
    /// cap). The front-end work — tolerant parse, standardization, X-SBT,
    /// encoder forward pass — happens here (via
    /// [`MpiRical::encode_source`], the same construction `suggest_batch`
    /// uses); decoding happens across subsequent [`step`](Self::step)
    /// calls. The parse's [`ParseHealth`] is captured per ticket and
    /// redeemed with [`SuggestPoll::Done`].
    pub fn submit(&mut self, c_source: &str) -> RequestId {
        self.submit_with(c_source, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit [`SubmitOptions`]: a
    /// [`Priority`] class (bulk re-index jobs yield their lanes to
    /// interactive keystroke requests) and an optional cap on generated
    /// tokens.
    pub fn submit_with(&mut self, c_source: &str, submit: SubmitOptions) -> RequestId {
        let assistant = self.backend.assistant();
        let enc = assistant.encode_source(c_source);
        let req = assistant.request_from_encoded(&enc, submit);
        let verifying = assistant.verify.is_some();
        let interactive = matches!(submit.priority, Priority::Interactive);
        let id = self.backend.submit(req);
        self.health.insert(id, enc.health);
        if verifying {
            self.tickets.insert(
                id,
                Ticket {
                    base: canonical_program(c_source),
                    interactive,
                },
            );
        }
        id
    }

    /// Cancel a request: removed from the queue or from its lanes
    /// mid-flight, every KV page returned to the pool. Returns `true` if
    /// it was still pending (it will poll [`SuggestPoll::Cancelled`]
    /// once); `false` if already finished, cancelled, or unknown.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let cancelled = self.backend.cancel(id);
        // Inline cancellation is authoritative (single-threaded), so the
        // verification context can be dropped now. An engine cancel can
        // race a concurrent completion — keep the context until poll
        // settles the outcome (its `Cancelled` branch drops it).
        if cancelled && matches!(self.backend, Backend::Inline { .. }) {
            self.tickets.remove(&id);
        }
        cancelled
    }

    /// Advance every in-flight request by one token (admitting queued
    /// requests into free lanes first, priority-first — an interactive
    /// submission may preempt bulk lanes). Returns the number of requests
    /// advanced; `0` means the service is idle.
    ///
    /// On a verifying artifact, finished tickets move into the
    /// verification queue here, and — bulk semantics, mirroring
    /// [`SubmitOptions::bulk`] — one queued verification job runs per step
    /// **only while no interactive decode is in flight**, so the closed
    /// loop never delays keystroke traffic. Remaining jobs complete at
    /// [`poll`](Self::poll) (synchronously) or on later idle steps.
    /// With an engine backend the workers decode autonomously — `step`
    /// waits briefly for progress and returns the number of requests still
    /// in flight instead, so `while service.step() > 0 {}` loops drive
    /// both backends.
    pub fn step(&mut self) -> usize {
        let n = match &mut self.backend {
            Backend::Inline { decoder, .. } => decoder.step(),
            Backend::Engine { engine, .. } => {
                engine.drain_for(Duration::from_millis(1));
                engine.pending()
            }
        };
        if self.backend.assistant().verify.is_some() {
            self.sweep_finished();
            if !self.interactive_in_flight() {
                self.verify_next();
            }
        }
        n
    }

    /// Step until every submitted request has finished (including, on a
    /// verifying artifact, all queued verification work).
    pub fn run(&mut self) {
        match &mut self.backend {
            Backend::Inline { decoder, .. } => decoder.run(),
            Backend::Engine { engine, .. } => engine.drain(),
        }
        if self.backend.assistant().verify.is_some() {
            self.sweep_finished();
            while self.verify_next() {}
        }
    }

    /// Tear the service down and return the final page stats, taken
    /// **after** every decoder has dropped its lanes and the shared
    /// prefix index has been cleared (an engine backend runs one pool
    /// across all workers).
    /// Live pages are zero here no matter what was still queued — the
    /// leak-check hook for tests and graceful daemon exit. Unredeemed
    /// tickets are abandoned.
    pub fn shutdown(self) -> PoolStats {
        match self.backend {
            Backend::Inline { decoder, .. } => {
                let pool = decoder.pool().clone();
                drop(decoder);
                pool.stats()
            }
            // One shared pool: `Engine::shutdown` returns a single entry.
            Backend::Engine { engine, .. } => engine.shutdown()[0],
        }
    }

    /// Move every decoder-finished verifying ticket into the verification
    /// queue (redeeming the scheduler-level `Done` exactly once).
    fn sweep_finished(&mut self) {
        let mut ids: Vec<RequestId> = self.tickets.keys().copied().collect();
        ids.sort_by_key(|id| id.raw());
        for id in ids {
            if let PollResult::Done {
                hypotheses,
                telemetry,
                ..
            } = self.backend.poll(id)
            {
                let ticket = self.tickets.remove(&id).expect("swept ids are tracked");
                self.verify_queue.push(PendingVerify {
                    id,
                    base: ticket.base,
                    hypotheses,
                    telemetry,
                });
            }
        }
    }

    /// True while any interactive-class ticket is still queued or decoding.
    fn interactive_in_flight(&self) -> bool {
        self.tickets.values().any(|t| t.interactive)
    }

    /// Verify the oldest queued ticket, if any. Returns whether one ran.
    fn verify_next(&mut self) -> bool {
        if self.verify_queue.is_empty() {
            return false;
        }
        let pending = self.verify_queue.remove(0);
        self.finish_verified(pending);
        true
    }

    /// Run the closed loop for one decoded ticket and park the finished
    /// poll result for redemption.
    fn finish_verified(&mut self, pending: PendingVerify) {
        let assistant = self.backend.assistant();
        let vopts = assistant
            .verify
            .as_ref()
            .expect("finish_verified only runs on verifying artifacts");
        let (mut suggestions, stats) =
            assistant.verify_and_rank(&pending.base, pending.hypotheses, vopts);
        let health = self.health.remove(&pending.id).unwrap_or_default();
        apply_health(&mut suggestions, &health);
        self.verify_done.insert(
            pending.id,
            SuggestPoll::Done {
                suggestions,
                telemetry: pending.telemetry,
                health,
                verify: Some(stats),
            },
        );
    }

    /// Requests submitted but not yet finished.
    pub fn pending(&self) -> usize {
        self.backend.pending()
    }

    /// Worker threads decoding for this service (1 for the inline backend).
    pub fn workers(&self) -> usize {
        match &self.backend {
            Backend::Inline { .. } => 1,
            Backend::Engine { engine, .. } => engine.workers(),
        }
    }

    /// Bulk lane preemptions performed so far (groups that yielded lanes
    /// to interactive arrivals and later resumed), summed over workers on
    /// an engine backend.
    pub fn preemptions(&self) -> u64 {
        match &self.backend {
            Backend::Inline { decoder, .. } => decoder.preemptions(),
            Backend::Engine { engine, .. } => engine.preemptions(),
        }
    }

    /// Telemetry of the scheduler's page pool: live/peak/shared page
    /// counts, COW copy count, and byte sizes — the serving-memory numbers
    /// a daemon exports. An engine backend allocates all workers' lanes
    /// from one shared pool, so these are already fleet-wide numbers.
    pub fn pool_stats(&self) -> PoolStats {
        match &self.backend {
            Backend::Inline { decoder, .. } => decoder.pool_stats(),
            Backend::Engine { engine, .. } => engine.pool_stats(),
        }
    }

    /// Full prefix-sharing telemetry from the radix index: exact hits
    /// (whole prompt served from a retained prefill — the IDE-retrigger
    /// fast path), partial (page-aligned) hits, misses, rows served from
    /// shared pages vs. freshly prefilled, plus insertion/eviction churn.
    /// An engine backend shares one index across workers, so a prefill
    /// retained on one worker is a hit on any other. The
    /// [`PrefixStats::hit_rate`] is the headline cache-effectiveness
    /// number a daemon exports.
    pub fn prefix_stats(&self) -> PrefixStats {
        match &self.backend {
            Backend::Inline { decoder, .. } => decoder.prefix_stats(),
            Backend::Engine { engine, .. } => engine.prefix_stats(),
        }
    }

    /// Report a request's lifecycle state (see [`SuggestPoll`]). `Done`
    /// and `Cancelled` redeem **once**; `Queued`/`Decoding` polls repeat
    /// freely — a streaming client polls every step and renders the
    /// growing `partial` suggestions.
    pub fn poll(&mut self, id: RequestId) -> SuggestPoll {
        // Verifying artifacts: a finished ticket may already sit in the
        // verification pipeline (its scheduler-level `Done` was redeemed by
        // the sweep). A poll completes its verification synchronously — the
        // client asked for the result now.
        if let Some(i) = self.verify_queue.iter().position(|p| p.id == id) {
            let pending = self.verify_queue.remove(i);
            self.finish_verified(pending);
        }
        if let Some(done) = self.verify_done.remove(&id) {
            return done;
        }
        match self.backend.poll(id) {
            PollResult::Queued { position } => SuggestPoll::Queued { position },
            PollResult::Decoding { tokens_so_far } => {
                let mut partial = self.suggestions_from(&tokens_so_far);
                if let Some(h) = self.health.get(&id) {
                    apply_health(&mut partial, h);
                }
                SuggestPoll::Decoding { partial }
            }
            PollResult::Done {
                ids,
                hypotheses,
                telemetry,
            } => {
                // A verifying ticket landing here finished between the last
                // sweep and this poll: verify it now.
                if let Some(ticket) = self.tickets.remove(&id) {
                    self.finish_verified(PendingVerify {
                        id,
                        base: ticket.base,
                        hypotheses,
                        telemetry,
                    });
                    return self
                        .verify_done
                        .remove(&id)
                        .expect("finish_verified parked the result");
                }
                let mut suggestions = self.suggestions_from(&ids);
                let health = self.health.remove(&id).unwrap_or_default();
                apply_health(&mut suggestions, &health);
                SuggestPoll::Done {
                    suggestions,
                    telemetry,
                    health,
                    verify: None,
                }
            }
            PollResult::Cancelled => {
                self.health.remove(&id);
                self.tickets.remove(&id);
                SuggestPoll::Cancelled
            }
            PollResult::Unknown => SuggestPoll::Unknown,
        }
    }

    fn suggestions_from(&self, ids: &[usize]) -> Vec<Suggestion> {
        self.backend.assistant().suggestions_from(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assistant::MpiRicalConfig;
    use mpirical_corpus::{generate_dataset, CorpusConfig};
    use mpirical_model::ModelConfig;
    use std::sync::OnceLock;

    /// Train once for the whole file (training dominates test wall-clock);
    /// each test clones the shared artifact.
    fn tiny_assistant() -> MpiRical {
        static SHARED: OnceLock<MpiRical> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                let ccfg = CorpusConfig {
                    programs: 40,
                    seed: 33,
                    max_tokens: 320,
                    threads: 1,
                };
                let (_, ds, _) = generate_dataset(&ccfg);
                let splits = ds.split(7);
                let mut cfg = MpiRicalConfig {
                    model: ModelConfig::tiny(),
                    vocab_min_freq: 1,
                    ..Default::default()
                };
                cfg.model.max_enc_len = 256;
                cfg.model.max_dec_len = 230;
                cfg.train.epochs = 1;
                cfg.train.batch_size = 8;
                cfg.train.threads = 1;
                cfg.train.validate = false;
                MpiRical::train(&splits.train, &splits.val, &cfg, |_| {}).0
            })
            .clone()
    }

    /// Redeem a ticket that must be finished.
    fn take(service: &mut SuggestService, id: RequestId) -> Vec<Suggestion> {
        match service.poll(id) {
            SuggestPoll::Done { suggestions, .. } => suggestions,
            other => panic!("{id} not finished: {other:?}"),
        }
    }

    #[test]
    fn service_matches_direct_suggest() {
        let assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int x = 1; if (x", // mid-edit buffer
        ];
        let mut service = SuggestService::with_max_batch(&assistant, 2);
        let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
        assert_eq!(service.pending(), 3);
        service.run();
        for (ticket, buffer) in tickets.into_iter().zip(buffers) {
            let batched = take(&mut service, ticket);
            assert_eq!(batched, assistant.suggest(buffer), "buffer {buffer:?}");
            assert_eq!(service.poll(ticket), SuggestPoll::Unknown, "redeems once");
        }
    }

    #[test]
    fn incremental_stepping_reports_lifecycle_states() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::new(&assistant);
        let t = service.submit("int main() { int rank; return 0; }");
        assert_eq!(
            service.poll(t),
            SuggestPoll::Queued { position: 0 },
            "nothing decoded yet — and the state says why"
        );
        // Drive manually, as a daemon event loop would: poll every step,
        // taking the result the moment it appears (a `Done` poll redeems
        // the ticket, so the client must capture it then).
        let mut saw_decoding = false;
        let mut finished = None;
        while service.step() > 0 {
            match service.poll(t) {
                SuggestPoll::Decoding { .. } => saw_decoding = true,
                SuggestPoll::Done { telemetry, .. } => finished = Some(telemetry),
                other => panic!("unexpected state mid-decode: {other:?}"),
            }
        }
        assert!(saw_decoding, "streaming polls observed the decode");
        let telemetry = finished.expect("the retiring step reported Done");
        assert_eq!(telemetry.queue_wait_steps, 0, "admitted on the first step");
        assert!(telemetry.decode_steps > 0);
        assert_eq!(service.pending(), 0);
        assert_eq!(service.poll(t), SuggestPoll::Unknown, "already redeemed");
    }

    /// A finished ticket stays redeemable while later requests churn
    /// through the same lanes — retirement must not be invalidated by
    /// subsequent scheduling.
    #[test]
    fn poll_after_later_requests_retire() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::with_max_batch(&assistant, 1);
        let early = service.submit("int main() { int rank; return 0; }");
        service.run();
        // Churn two more requests through the single lane before polling.
        let mid = service.submit("int main() { double local = 0.0; return 0; }");
        let late = service.submit("int main() { return 0; }");
        service.run();
        let got = take(&mut service, early);
        assert_eq!(got, assistant.suggest("int main() { int rank; return 0; }"));
        assert!(matches!(service.poll(mid), SuggestPoll::Done { .. }));
        assert!(matches!(service.poll(late), SuggestPoll::Done { .. }));
    }

    /// The poll-ambiguity fix at the service level: unknown tickets report
    /// `Unknown`, redeemed tickets report `Unknown`, pending tickets
    /// report `Queued`/`Decoding` — all distinguishable.
    #[test]
    fn duplicate_and_unknown_polls_are_distinguishable() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::new(&assistant);
        let t = service.submit("int main() { int rank; return 0; }");
        service.run();
        assert!(matches!(service.poll(t), SuggestPoll::Done { .. }));
        assert_eq!(service.poll(t), SuggestPoll::Unknown, "second redemption");
        let bogus = RequestId::from_raw(t.raw() + 1000);
        assert_eq!(service.poll(bogus), SuggestPoll::Unknown, "unknown ticket");
    }

    /// Overflowing the queue (more requests than lanes) never reuses a
    /// live ticket and every ticket redeems exactly once, in any order.
    #[test]
    fn queue_overflow_keeps_tickets_unique_and_redeemable() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::with_max_batch(&assistant, 2);
        let buffers = [
            "int main() { int rank; return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int size; return 0; }",
            "int main() { return 0; }",
            "int main() { int x = 1; if (x",
        ];
        let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
        let unique: std::collections::HashSet<_> = tickets.iter().collect();
        assert_eq!(unique.len(), tickets.len(), "tickets are unique");
        assert_eq!(service.pending(), 5);
        service.run();
        // Redeem out of submission order.
        for &i in &[3usize, 0, 4, 1, 2] {
            let got = take(&mut service, tickets[i]);
            assert_eq!(got, assistant.suggest(buffers[i]), "buffer {i}");
        }
        for t in tickets {
            assert_eq!(service.poll(t), SuggestPoll::Unknown, "all redeemed");
        }
    }

    /// Priorities through the service: a bulk re-index job yields its lane
    /// to a keystroke-triggered request, which starts within one step and
    /// reports zero queue wait; the bulk job resumes and its suggestions
    /// are unchanged.
    #[test]
    fn interactive_submission_preempts_bulk_job() {
        let assistant = tiny_assistant();
        let bulk_buf = "int main() { double local = 0.0; return 0; }";
        let key_buf = "int main() { int rank; return 0; }";
        let mut service = SuggestService::with_max_batch(&assistant, 1);
        let bulk = service.submit_with(bulk_buf, SubmitOptions::bulk());
        for _ in 0..2 {
            service.step();
        }
        assert!(matches!(service.poll(bulk), SuggestPoll::Decoding { .. }));
        let keystroke = service.submit(key_buf);
        service.step();
        assert!(
            matches!(service.poll(keystroke), SuggestPoll::Decoding { .. }),
            "keystroke request decodes on the very next step"
        );
        assert!(
            matches!(service.poll(bulk), SuggestPoll::Queued { .. }),
            "bulk job paused, not lost"
        );
        assert_eq!(service.preemptions(), 1);
        service.run();
        let SuggestPoll::Done {
            suggestions,
            telemetry,
            ..
        } = service.poll(keystroke)
        else {
            panic!("keystroke finished");
        };
        assert_eq!(suggestions, assistant.suggest(key_buf));
        assert_eq!(telemetry.queue_wait_steps, 0);
        let SuggestPoll::Done {
            suggestions,
            telemetry,
            ..
        } = service.poll(bulk)
        else {
            panic!("bulk finished");
        };
        assert_eq!(
            suggestions,
            assistant.suggest(bulk_buf),
            "preempt/resume never changes output"
        );
        assert_eq!(telemetry.preemptions, 1);
        assert_eq!(service.pool_stats().pages_live, 0);
    }

    /// Cancellation through the service: a queued and a mid-flight request
    /// both retire as `Cancelled`, pages drain, and survivors are
    /// unaffected.
    #[test]
    fn cancel_retires_requests_and_survivors_match() {
        let assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int size; return 0; }",
        ];
        let mut service = SuggestService::with_max_batch(&assistant, 1);
        let keep = service.submit(buffers[0]);
        let doomed_mid = service.submit(buffers[1]);
        let doomed_queued = service.submit(buffers[2]);
        service.step();
        assert!(service.cancel(doomed_queued), "queued cancel");
        // Let the first finish so the second starts decoding, then cancel
        // it mid-flight.
        while matches!(service.poll(doomed_mid), SuggestPoll::Queued { .. }) {
            service.step();
        }
        assert!(service.cancel(doomed_mid), "mid-flight cancel");
        service.run();
        assert_eq!(service.poll(doomed_mid), SuggestPoll::Cancelled);
        assert_eq!(service.poll(doomed_queued), SuggestPoll::Cancelled);
        assert_eq!(take(&mut service, keep), assistant.suggest(buffers[0]));
        assert!(!service.cancel(keep), "finished requests refuse cancel");
        assert_eq!(service.pool_stats().pages_live, 0, "no leaked pages");
    }

    /// `max_new_tokens` flows through `submit_with` to the scheduler.
    #[test]
    fn token_cap_flows_through_submit_with() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::new(&assistant);
        let capped = service.submit_with(
            "int main() { int rank; return 0; }",
            SubmitOptions::interactive().with_max_new_tokens(0),
        );
        service.run();
        let SuggestPoll::Done { suggestions, .. } = service.poll(capped) else {
            panic!("finished");
        };
        assert!(
            suggestions.is_empty(),
            "a zero-token cap decodes nothing: {suggestions:?}"
        );
    }

    /// An `Int8` artifact serves through the quantized lockstep kernels:
    /// the service's weights are quantized once at construction and every
    /// ticket's suggestions equal the artifact's own single-request
    /// quantized path.
    #[test]
    fn int8_artifact_serves_quantized_through_the_service() {
        let mut assistant = tiny_assistant();
        assistant.decode = mpirical_model::DecodeOptions {
            beam: 1,
            min_len: 0,
            precision: mpirical_model::Precision::Int8,
        };
        let buffers = [
            "int main() { int rank; return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int x = 1; if (x", // mid-edit buffer
        ];
        let mut service = SuggestService::with_max_batch(&assistant, 2);
        let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
        service.run();
        for (t, b) in tickets.into_iter().zip(buffers) {
            assert_eq!(take(&mut service, t), assistant.suggest(b), "{b:?}");
        }
        assert_eq!(service.pool_stats().pages_live, 0);
    }

    /// The front-end resilience contract at the service level: `Done`
    /// carries the submit-time [`ParseHealth`], a mid-edit buffer's
    /// suggestions match the direct `suggest_report` path (flags, order,
    /// and health all equal), and redeeming or cancelling a ticket drops
    /// its health entry.
    #[test]
    fn done_polls_surface_parse_health() {
        let assistant = tiny_assistant();
        let clean_buf = "int main() { int rank; return 0; }";
        let dirty_buf = "int main() {\n    int rank;\n    = = broken\n    return 0;\n}\n";
        let mut service = SuggestService::new(&assistant);
        let clean = service.submit(clean_buf);
        let dirty = service.submit(dirty_buf);
        let doomed = service.submit(dirty_buf);
        assert!(service.cancel(doomed));
        service.run();
        let SuggestPoll::Done { health, .. } = service.poll(clean) else {
            panic!("clean finished");
        };
        assert!(health.is_clean(), "valid buffer reports a clean parse");
        let SuggestPoll::Done {
            suggestions,
            health,
            ..
        } = service.poll(dirty)
        else {
            panic!("dirty finished");
        };
        let report = assistant.suggest_report(dirty_buf);
        assert!(!health.is_clean(), "mid-edit buffer reports degradation");
        assert_eq!(health, report.health, "service and direct health agree");
        assert_eq!(suggestions, report.suggestions, "parity incl. flags/order");
        assert_eq!(service.poll(doomed), SuggestPoll::Cancelled);
        assert!(
            service.health.is_empty(),
            "redeemed and cancelled tickets drop their health entries"
        );
    }

    /// Verification runs at Bulk cadence: a retired request's hypotheses
    /// wait in the verify queue while Interactive traffic is still
    /// decoding, and only execute once the interactive lanes drain (or the
    /// client polls, which completes its own verification synchronously).
    #[test]
    fn verification_defers_to_interactive_traffic() {
        let mut assistant = tiny_assistant();
        assistant.decode.min_len = 24; // interactive decodes ≥ 24 steps
        assistant.verify = Some(crate::verify::VerifyOptions {
            rank_counts: vec![2],
            timeout_ms: 300,
            step_limit: 100_000,
            ..Default::default()
        });
        let mut service = SuggestService::with_max_batch(&assistant, 2);
        let bulk = service.submit_with(
            "int main() { double local = 0.0; return 0; }",
            SubmitOptions::bulk().with_max_new_tokens(4),
        );
        let interactive = service.submit("int main() { int rank; return 0; }");
        // Step until the bulk decode retires and is swept into the verify
        // queue; `min_len` keeps the interactive request decoding past it.
        while service.verify_queue.is_empty() {
            assert!(service.step() > 0, "bulk request must retire");
        }
        assert!(
            service.tickets.values().any(|t| t.interactive),
            "interactive request still decoding when bulk retires"
        );
        // Deferral: while interactive traffic is in flight, stepping never
        // executes the queued verification.
        while service.tickets.values().any(|t| t.interactive) {
            let queued = service.verify_queue.len();
            service.step();
            if service.tickets.values().any(|t| t.interactive) {
                assert_eq!(service.verify_queue.len(), queued, "deferred");
            }
        }
        // Interactive retired: the queue drains, and both tickets carry
        // verification stats.
        service.run();
        assert!(service.verify_queue.is_empty());
        for ticket in [bulk, interactive] {
            let SuggestPoll::Done { verify, .. } = service.poll(ticket) else {
                panic!("{ticket} finished");
            };
            assert!(verify.is_some(), "{ticket} carries verification stats");
        }
    }

    /// A verifying ticket matches the direct `suggest_report` path:
    /// identical verdict-ranked suggestions and identical stats.
    #[test]
    fn verifying_ticket_matches_direct_report() {
        let mut assistant = tiny_assistant();
        assistant.verify = Some(crate::verify::VerifyOptions {
            rank_counts: vec![2],
            timeout_ms: 300,
            step_limit: 100_000,
            ..Default::default()
        });
        let buffer = "int main() { int rank; return 0; }";
        let want = assistant.suggest_report(buffer);
        let mut service = SuggestService::new(&assistant);
        let ticket = service.submit(buffer);
        service.run();
        let SuggestPoll::Done {
            suggestions,
            verify,
            health,
            ..
        } = service.poll(ticket)
        else {
            panic!("finished");
        };
        assert_eq!(suggestions, want.suggestions);
        assert_eq!(verify, want.verify);
        assert_eq!(health, want.health);
    }

    /// Regression (satellite fix): a zero-lane service and a zero-beam
    /// artifact both fail loudly at construction.
    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_service_is_rejected_with_clear_error() {
        let assistant = tiny_assistant();
        SuggestService::with_max_batch(&assistant, 0);
    }

    #[test]
    #[should_panic(expected = "beam width must be at least 1")]
    fn zero_beam_artifact_is_rejected_at_service_construction() {
        let mut assistant = tiny_assistant();
        assistant.decode.beam = 0;
        SuggestService::with_max_batch(&assistant, 2);
    }

    /// A beam-configured artifact decodes through the service's lockstep
    /// loop (no fallback) and matches the sequential beam path; the pool
    /// telemetry shows the paged cache at work.
    #[test]
    fn beam_artifact_decodes_batched_with_pool_telemetry() {
        let mut assistant = tiny_assistant();
        assistant.decode = mpirical_model::DecodeOptions {
            beam: 2,
            min_len: 0,
            ..Default::default()
        };
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
        ];
        let mut service = SuggestService::with_max_batch(&assistant, 4);
        assert_eq!(service.pool_stats().pages_live, 0, "idle pool is empty");
        let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
        service.run();
        for (t, b) in tickets.into_iter().zip(buffers) {
            assert_eq!(take(&mut service, t), assistant.suggest(b), "{b:?}");
        }
        let stats = service.pool_stats();
        assert!(stats.pages_peak > 0, "beam decoding allocated pages");
        assert_eq!(stats.pages_live, 0, "all lanes retired, pages freed");

        // The IDE-retrigger path: resubmitting an identical buffer shares
        // its prefill instead of re-running it.
        let again = service.submit(buffers[0]);
        service.run();
        assert_eq!(service.prefix_stats().hits, 1);
        assert_eq!(take(&mut service, again), assistant.suggest(buffers[0]));
    }

    /// The multi-worker engine backend returns suggestion-for-suggestion
    /// identical results to the inline single-scheduler service — the
    /// engine changes where requests decode, never what they produce.
    #[test]
    fn sharded_service_matches_inline_service() {
        let assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int x = 1; if (x", // mid-edit buffer
            "int main() { return 0; }",
        ];
        let mut inline = SuggestService::with_max_batch(&assistant, 2);
        let inline_tickets: Vec<_> = buffers.iter().map(|b| inline.submit(b)).collect();
        inline.run();
        let reference: Vec<Vec<Suggestion>> = inline_tickets
            .into_iter()
            .map(|t| take(&mut inline, t))
            .collect();

        let mut sharded = SuggestService::owned(Arc::new(assistant.clone()), 2);
        assert_eq!(sharded.workers(), 2);
        let tickets: Vec<_> = buffers.iter().map(|b| sharded.submit(b)).collect();
        sharded.run();
        assert_eq!(sharded.pending(), 0);
        for ((t, b), want) in tickets.into_iter().zip(buffers).zip(reference) {
            assert_eq!(take(&mut sharded, t), want, "buffer {b:?}");
            assert_eq!(sharded.poll(t), SuggestPoll::Unknown, "redeems once");
        }
    }

    /// An engine-backed service drives the daemon event loop exactly like
    /// the inline one: `step() > 0` while work is in flight, lifecycle
    /// states via `poll`, cancellation included.
    #[test]
    fn sharded_service_step_loop_and_cancel() {
        let assistant = tiny_assistant();
        let mut service = SuggestService::owned(Arc::new(assistant.clone()), 2);
        let keep = service.submit("int main() { int rank; return 0; }");
        let drop_it = service.submit("int main() { double local = 0.0; return 0; }");
        let was_pending = service.cancel(drop_it);
        let mut steps = 0;
        while service.step() > 0 {
            steps += 1;
            assert!(steps < 100_000, "sharded step loop failed to drain");
        }
        match service.poll(drop_it) {
            SuggestPoll::Cancelled => assert!(was_pending),
            SuggestPoll::Done { .. } => {} // finished before the cancel landed
            other => panic!("cancelled ticket resolved as {other:?}"),
        }
        let got = take(&mut service, keep);
        assert_eq!(got, assistant.suggest("int main() { int rank; return 0; }"));
        // A live service may retain prefix-cache snapshot pages; shutdown
        // drops every worker's decoder and must leave nothing behind.
        let stats = service.shutdown();
        assert_eq!(stats.pages_live, 0, "worker leaked KV pages");
    }

    /// The owned service is what a daemon thread carries: `'static`, `Send`,
    /// movable across threads, and suggestion-for-suggestion identical to
    /// the borrowed inline reference.
    #[test]
    fn owned_service_is_send_and_matches_inline() {
        fn assert_send<T: Send>(t: T) -> T {
            t
        }
        let assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main() { int x = 1; if (x", // mid-edit buffer
        ];
        let mut inline = SuggestService::new(&assistant);
        let inline_tickets: Vec<_> = buffers.iter().map(|b| inline.submit(b)).collect();
        inline.run();
        let reference: Vec<Vec<Suggestion>> = inline_tickets
            .into_iter()
            .map(|t| take(&mut inline, t))
            .collect();

        let owned = assert_send(SuggestService::owned(Arc::new(assistant), 2));
        // Drive it from another thread, as the daemon's service thread does.
        let handle = std::thread::spawn(move || {
            let mut service = owned;
            let tickets: Vec<_> = buffers.iter().map(|b| service.submit(b)).collect();
            service.run();
            let got: Vec<Vec<Suggestion>> =
                tickets.into_iter().map(|t| take(&mut service, t)).collect();
            let stats = service.shutdown();
            assert_eq!(stats.pages_live, 0, "owned service leaked KV pages");
            got
        });
        let got = handle.join().expect("service thread");
        assert_eq!(got, reference, "owned engine == borrowed inline");
    }

    /// Every `SuggestPoll` state survives a JSON round-trip unchanged —
    /// the daemon puts these on the wire verbatim.
    #[test]
    fn suggest_poll_serializes_round_trip() {
        let states = vec![
            SuggestPoll::Queued { position: 3 },
            SuggestPoll::Decoding {
                partial: vec![Suggestion {
                    function: "MPI_Send".to_string(),
                    line: 7,
                    degraded: false,
                    verdict: None,
                }],
            },
            SuggestPoll::Done {
                suggestions: vec![Suggestion {
                    function: "MPI_Allreduce".to_string(),
                    line: 12,
                    degraded: true,
                    verdict: None,
                }],
                telemetry: RequestTelemetry {
                    queue_wait_steps: 2,
                    decode_steps: 40,
                    preemptions: 1,
                    evictions: 0,
                },
                health: ParseHealth::default(),
                verify: None,
            },
            SuggestPoll::Cancelled,
            SuggestPoll::Unknown,
        ];
        for state in states {
            let json = serde_json::to_string(&state).expect("serializes");
            let back: SuggestPoll = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(back, state, "round-trip of {json}");
        }
    }
}
