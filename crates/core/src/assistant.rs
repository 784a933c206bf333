//! `MpiRical` — the user-facing assistant (the paper's system, §IV).
//!
//! Train on a corpus dataset; then, given serial-looking C code (no MPI
//! calls yet), [`MpiRical::suggest`] returns the MPI functions to insert and
//! the lines to insert them at, and [`MpiRical::translate`] returns the full
//! predicted parallel program — the two faces of the paper's IDE-assistant
//! deployment. [`MpiRical::suggest_batch`] serves many buffers at once
//! through the batched lockstep decoder; for a long-running daemon, the
//! submit/poll façade is [`SuggestService`](crate::service::SuggestService).
//!
//! ```no_run
//! use mpirical::MpiRical;
//!
//! let assistant = MpiRical::load("model.json")?;
//! // One open buffer…
//! for s in assistant.suggest("int main() { int rank; return 0; }") {
//!     println!("insert {} at line {}", s.function, s.line);
//! }
//! // …or every open buffer at once, decoded concurrently (identical
//! // output, ≥3× aggregate throughput at batch 8).
//! let buffers = ["int main() { return 0; }", "int main() { int rank; }"];
//! let per_buffer = assistant.suggest_batch(&buffers);
//! assert_eq!(per_buffer.len(), buffers.len());
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::encode::{build_vocab, encode_dataset, encode_record, InputFormat};
use crate::tokenize::{calls_from_ids, detokenize, tokenize_code};
use crate::verify::{self, Verdict, VerifyOptions, VerifyStats};
use mpirical_corpus::Dataset;
use mpirical_cparse::{parse_tolerant, print_program, ParseHealth, Program};
use mpirical_metrics::CallSite;
use mpirical_model::decode::encode_source as model_encode;
use mpirical_model::vocab::{EOS, SEP, SOS};
use mpirical_model::{
    decode_encoded_prompted_all, BatchDecoder, BatchRequest, DecodeOptions, DecoderWeights, Engine,
    EngineConfig, EngineModel, EpochStats, ModelConfig, Precision, PrefixStats,
    QuantDecoderWeights, Seq2SeqModel, SubmitOptions, TrainConfig, TrainReport,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One assistance suggestion: insert `function` at `line` of the
/// standardized (predicted) program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suggestion {
    /// MPI function name (e.g. `MPI_Allreduce`).
    pub function: String,
    /// 1-based line of the standardized program to insert the call at.
    pub line: u32,
    /// True when the suggestion's line falls inside a dirty range of a
    /// degraded (mid-edit) parse — the model was looking at an error region,
    /// so the suggestion is demoted behind clean-region ones. Defaults false
    /// so pre-existing serialized artifacts still deserialize.
    #[serde(default)]
    pub degraded: bool,
    /// What the closed verification loop observed when this suggestion's
    /// hypothesis was spliced into the source and executed on the
    /// simulated MPI runtime ([`crate::verify`]); `None` when verification
    /// is off or the hypothesis was past the verification budget. Defaults
    /// `None` so pre-existing serialized artifacts still deserialize.
    #[serde(default)]
    pub verdict: Option<Verdict>,
}

impl From<CallSite> for Suggestion {
    fn from(c: CallSite) -> Suggestion {
        Suggestion {
            function: c.name,
            line: c.line,
            degraded: false,
            verdict: None,
        }
    }
}

/// Encoder ids for one source plus the front-end degradation summary
/// ([`ParseHealth`]) observed while producing them. `health.dirty_lines`
/// is in *canonical* (standardized) line space — the same space suggestion
/// lines refer to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedSource {
    pub ids: Vec<usize>,
    pub health: ParseHealth,
}

/// [`MpiRical::suggest_report`] output: the suggestions (clean-region first)
/// plus the parse health that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuggestReport {
    pub suggestions: Vec<Suggestion>,
    pub health: ParseHealth,
    /// Closed-loop verification telemetry (`None` when verification is
    /// off). Defaults so pre-existing serialized reports still deserialize.
    #[serde(default)]
    pub verify: Option<VerifyStats>,
    /// Prefix-sharing telemetry from the batch scheduler's radix index —
    /// exact hits, page-aligned partial hits, misses, and shared vs.
    /// freshly-prefilled row counts ([`PrefixStats::hit_rate`] is the
    /// headline number). `Some` on the batch path
    /// ([`MpiRical::suggest_batch_reports`], one fleet-wide snapshot
    /// repeated per report); `None` on the single-shot path, which decodes
    /// without a scheduler. Defaults so pre-existing serialized reports
    /// still deserialize.
    #[serde(default)]
    pub prefix: Option<PrefixStats>,
}

/// Flag suggestions that land inside the parse's dirty line ranges and
/// demote them behind clean-region suggestions (stable within each class).
pub(crate) fn apply_health(suggestions: &mut [Suggestion], health: &ParseHealth) {
    if health.is_clean() {
        return;
    }
    for s in suggestions.iter_mut() {
        s.degraded = health.is_dirty_line(s.line);
    }
    suggestions.sort_by_key(|s| s.degraded);
}

/// The canonical (standardized) serial program for a raw source — the same
/// tolerant-parse → print → reparse pipeline as
/// [`MpiRical::encode_source`], so suggestion lines, dirty ranges, and the
/// verifier's splice targets all live in one line space.
pub(crate) fn canonical_program(c_source: &str) -> Program {
    let parsed = parse_tolerant(c_source);
    let std_text = print_program(&parsed.program);
    parse_tolerant(&std_text).program
}

/// The winning (best-scored) hypothesis of a ranked list.
fn winner(hypotheses: Vec<Vec<usize>>) -> Vec<usize> {
    hypotheses.into_iter().next().unwrap_or_default()
}

/// Assistant configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpiRicalConfig {
    /// Transformer shape (layers, widths, window lengths).
    pub model: ModelConfig,
    /// Optimization schedule for [`MpiRical::train`].
    pub train: TrainConfig,
    /// Source encoding: code only, or code + linearized AST (X-SBT).
    pub input_format: InputFormat,
    /// Vocabulary construction knobs.
    pub vocab_min_freq: usize,
    pub vocab_max_size: usize,
    /// Model-init / training seed.
    pub seed: u64,
    /// Inference-time decoding knobs (beam width etc.), carried into the
    /// trained artifact so `suggest`/`translate` use them.
    #[serde(default)]
    pub decode: DecodeOptions,
    /// Closed-loop verification knobs (`Some` turns the loop on: every
    /// suggestion path executes its candidates on the simulated MPI
    /// runtime and re-ranks by observed semantics). Carried into the
    /// trained artifact; defaults off.
    #[serde(default)]
    pub verify: Option<VerifyOptions>,
}

impl Default for MpiRicalConfig {
    fn default() -> Self {
        MpiRicalConfig {
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            input_format: InputFormat::CodeXsbt,
            vocab_min_freq: 2,
            vocab_max_size: 4096,
            seed: 0x5EED,
            decode: DecodeOptions::default(),
            verify: None,
        }
    }
}

/// The trained assistant artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MpiRical {
    /// Transformer weights, configuration, and vocabulary.
    pub model: Seq2SeqModel,
    /// How sources were encoded at training time (code only, or code +
    /// X-SBT); inference must match.
    pub input_format: InputFormat,
    /// Decoding configuration for the suggestion path (KV-cached greedy by
    /// default; beam > 1 trades latency for quality;
    /// `precision: Precision::Int8` serves through the per-channel int8
    /// quantized kernels — ~4× less weight traffic per decoded token).
    /// Defaults on load so artifacts saved before this field existed still
    /// deserialize.
    #[serde(default)]
    pub decode: DecodeOptions,
    /// Decoder weights prepared for serving: one [`EngineModel`] per
    /// [`Precision`], each packed (f32) or quantized (int8) **at most once
    /// per artifact** — for `decode.precision` eagerly at
    /// [`load`](Self::load)/[`train`](Self::train), otherwise on first use.
    /// Every consumer borrows this one set: the single-request int8 decode,
    /// inline schedulers, the sharded [`Engine`], and
    /// [`quant_weights`](Self::quant_weights). Not serialized (always
    /// re-derived from the f32 weights); clones share it through the `Arc`.
    #[serde(skip)]
    prepared: Arc<[OnceLock<Arc<EngineModel>>; 2]>,
    /// Closed-loop verification options; `Some` makes every suggestion
    /// path splice, execute, and re-rank its beam hypotheses (see
    /// [`crate::verify`]). `None` — the default, and what pre-existing
    /// artifacts deserialize to — keeps the fast generate-only path.
    #[serde(default)]
    pub verify: Option<VerifyOptions>,
}

impl MpiRical {
    /// Train from scratch on a dataset's train/val splits.
    /// `on_epoch` receives per-epoch telemetry (the Fig. 5 series).
    pub fn train(
        train_set: &Dataset,
        val_set: &Dataset,
        cfg: &MpiRicalConfig,
        mut on_epoch: impl FnMut(&EpochStats),
    ) -> (MpiRical, TrainReport) {
        let vocab = build_vocab(train_set, cfg.vocab_min_freq, cfg.vocab_max_size);
        let mut model = Seq2SeqModel::new(cfg.model.clone(), vocab, cfg.seed);
        let (train_ex, _) = encode_dataset(train_set, &model.vocab, &model.cfg, cfg.input_format);
        let (val_ex, _) = encode_dataset(val_set, &model.vocab, &model.cfg, cfg.input_format);
        assert!(
            !train_ex.is_empty(),
            "no training example fits the model windows"
        );
        cfg.decode
            .validate()
            .expect("MpiRicalConfig decode options are invalid");
        let report = model.fit(&train_ex, &val_ex, &cfg.train, |s| on_epoch(s));
        let assistant = MpiRical {
            model,
            input_format: cfg.input_format,
            decode: cfg.decode,
            prepared: Arc::default(),
            verify: cfg.verify.clone(),
        };
        assistant.prepared();
        (assistant, report)
    }

    /// Assemble an assistant directly from its parts — the escape hatch
    /// for tests, benches, and callers reconstructing an artifact by hand
    /// ([`train`](Self::train)/[`load`](Self::load) are the ordinary
    /// paths). The prepared-weight cache starts empty and fills lazily on
    /// first use.
    pub fn from_parts(
        model: Seq2SeqModel,
        input_format: InputFormat,
        decode: DecodeOptions,
        verify: Option<VerifyOptions>,
    ) -> MpiRical {
        MpiRical {
            model,
            input_format,
            decode,
            prepared: Arc::default(),
            verify,
        }
    }

    /// The cache slot holding the prepared weights for `precision`.
    fn slot(&self, precision: Precision) -> &OnceLock<Arc<EngineModel>> {
        match precision {
            Precision::F32 => &self.prepared[0],
            Precision::Int8 => &self.prepared[1],
        }
    }

    /// The weights prepared for `precision`, built on first use.
    fn prepared_for(&self, precision: Precision) -> &Arc<EngineModel> {
        self.slot(precision).get_or_init(|| {
            let m = &self.model;
            Arc::new(EngineModel::new(
                m.store.clone(),
                m.params.clone(),
                m.cfg.clone(),
                precision,
            ))
        })
    }

    /// The weights prepared for the artifact's `decode.precision` — the
    /// one place that decides which weight set serves a decode.
    fn prepared(&self) -> &Arc<EngineModel> {
        self.prepared_for(self.decode.precision)
    }

    /// The artifact's int8 decoder weights, quantized on first use and
    /// cached for the artifact's lifetime (an `Int8`-configured artifact
    /// primes this at load/train, so serving never pays it per request).
    /// The same allocation the `Int8` [`engine_model`](Self::engine_model)
    /// serves from.
    pub fn quant_weights(&self) -> &QuantDecoderWeights {
        match self.prepared_for(Precision::Int8).weights() {
            DecoderWeights::Int8(q) => q,
            DecoderWeights::F32(_) => unreachable!("the Int8 slot holds Int8 weights"),
        }
    }

    /// The [`EngineModel`] bundle for the artifact's current precision —
    /// the prepared weight set itself, shared (every call returns the same
    /// `Arc` until `decode.precision` changes; switching back returns the
    /// earlier set, never a rebuilt one).
    pub fn engine_model(&self) -> Arc<EngineModel> {
        Arc::clone(self.prepared())
    }

    /// Lanes per scheduler: `max_batch`, raised to the beam width so a
    /// beam request (which reserves `beam` lanes) always fits one
    /// scheduler.
    fn lanes(&self, max_batch: usize) -> usize {
        max_batch.max(self.decode.beam)
    }

    /// Panic with a descriptive message if the decode options are invalid
    /// (e.g. `beam = 0`) — at scheduler construction, not deep inside a
    /// step.
    fn assert_valid_decode(&self) {
        if let Err(e) = self.decode.validate() {
            panic!("invalid artifact decode options: {e}");
        }
    }

    /// An inline [`BatchDecoder`] over the prepared weights, with
    /// [`lanes`](Self::lanes)`(max_batch)` lanes.
    ///
    /// # Panics
    ///
    /// If the artifact's decode options are invalid.
    pub(crate) fn batch_decoder(&self, max_batch: usize) -> BatchDecoder<'_> {
        self.assert_valid_decode();
        let em = self.prepared();
        BatchDecoder::with_weights(
            &em.store,
            &em.params,
            &em.cfg,
            self.lanes(max_batch),
            Cow::Borrowed(em.weights()),
        )
    }

    /// A sharded [`Engine`] over the prepared weights, `cfg.max_batch`
    /// raised by the same lane rule as [`batch_decoder`](Self::batch_decoder).
    ///
    /// # Panics
    ///
    /// If `cfg.workers` is 0 or the artifact's decode options are invalid.
    pub(crate) fn engine(&self, cfg: EngineConfig) -> Engine {
        self.assert_valid_decode();
        Engine::new(
            self.engine_model(),
            EngineConfig {
                max_batch: self.lanes(cfg.max_batch),
                ..cfg
            },
        )
    }

    /// Encode raw (possibly incomplete) C source into encoder ids:
    /// tolerant-parse → standardize → X-SBT → `<sos> code <sep> xsbt <eos>`.
    ///
    /// The returned [`EncodedSource`] also carries the [`ParseHealth`] of the
    /// front-end pass: error/recovery counts are the worse of the original
    /// parse and the canonical reparse, while the dirty line ranges come from
    /// the reparse so they live in the same canonical line space as
    /// suggestion lines.
    pub fn encode_source(&self, c_source: &str) -> EncodedSource {
        let parsed = parse_tolerant(c_source);
        let std_text = print_program(&parsed.program);
        let reparsed = parse_tolerant(&std_text);
        let mut health = reparsed.health();
        let original = parsed.health();
        health.error_count = health.error_count.max(original.error_count);
        health.recovery_events = health.recovery_events.max(original.recovery_events);
        let code_toks = tokenize_code(&std_text);
        let xsbt_toks: Vec<String> = match self.input_format {
            InputFormat::CodeOnly => vec![],
            InputFormat::CodeXsbt => mpirical_xsbt::xsbt(&reparsed.program),
        };
        let cfg = &self.model.cfg;
        let budget = cfg.max_enc_len.saturating_sub(3);
        let code_take = code_toks.len().min(budget);
        let xsbt_take = xsbt_toks.len().min(budget - code_take);
        let mut src = Vec::with_capacity(code_take + xsbt_take + 3);
        src.push(SOS);
        src.extend(self.model.vocab.encode(&code_toks[..code_take]));
        src.push(SEP);
        src.extend(self.model.vocab.encode(&xsbt_toks[..xsbt_take]));
        src.push(EOS);
        EncodedSource { ids: src, health }
    }

    /// Every beam hypothesis for already-encoded source ids with the
    /// artifact's [`DecodeOptions`], best model score first — the one
    /// single-request generation call every prediction path funnels
    /// through; element 0 is the prediction. An `Int8` artifact decodes
    /// through its prepared quantized weights rather than re-quantizing
    /// per request.
    fn generate(&self, src: &[usize]) -> Vec<Vec<usize>> {
        let m = &self.model;
        let qw = match self.prepared().weights() {
            DecoderWeights::Int8(q) => Some(q),
            DecoderWeights::F32(_) => None,
        };
        let enc_out = model_encode(&m.store, &m.params, &m.cfg, src);
        decode_encoded_prompted_all(
            &m.store,
            &m.params,
            &m.cfg,
            qw,
            &enc_out,
            &[SOS],
            m.cfg.max_dec_len,
            self.decode,
        )
    }

    /// Execute up to `opts.max_hypotheses` hypotheses against the serial
    /// `base` program, attach verdicts, and stably re-rank by verdict class
    /// (`Verified` first, unverified next, observed failures last — pure
    /// model-score order within each class). Returns the winning
    /// hypothesis' suggestions plus the verification telemetry.
    pub(crate) fn verify_and_rank(
        &self,
        base: &Program,
        hypotheses: Vec<Vec<usize>>,
        opts: &VerifyOptions,
    ) -> (Vec<Suggestion>, VerifyStats) {
        let mut stats = VerifyStats::default();
        let ranked: Vec<(Vec<usize>, Option<Verdict>)> = hypotheses
            .into_iter()
            .enumerate()
            .map(|(i, ids)| {
                let verdict = if i < opts.max_hypotheses {
                    let predicted = self.ids_to_source(&ids);
                    let (v, runs) = verify::verify_prediction(base, &predicted, opts);
                    stats.record(v, runs);
                    Some(v)
                } else {
                    stats.unverified += 1;
                    None
                };
                (ids, verdict)
            })
            .collect();
        let (ids, verdict) = verify::rerank(ranked)
            .into_iter()
            .next()
            .unwrap_or_default();
        let suggestions = calls_from_ids(&ids, &self.model.vocab)
            .into_iter()
            .map(|c| Suggestion {
                verdict,
                ..Suggestion::from(c)
            })
            .collect();
        (suggestions, stats)
    }

    /// Decoded ids rendered back to displayable predicted source text (the
    /// same detokenization as [`translate`](Self::translate)).
    pub(crate) fn ids_to_source(&self, ids: &[usize]) -> String {
        detokenize(&self.model.vocab.decode(ids))
    }

    /// Predict the full MPI-parallel program for the given source. Returns
    /// the decoded token ids. Runs the KV-cached incremental decoder with
    /// the artifact's [`DecodeOptions`] (greedy unless `decode.beam > 1`;
    /// int8 projection kernels when `decode.precision` is
    /// [`Precision::Int8`]).
    pub fn predict_ids(&self, c_source: &str) -> Vec<usize> {
        winner(self.generate(&self.encode_source(c_source).ids))
    }

    /// Suggest MPI functions and their insertion lines (paper RQ1 + RQ2).
    /// Suggestions whose lines fall inside a degraded parse's dirty ranges
    /// are flagged [`Suggestion::degraded`] and demoted behind clean-region
    /// ones; use [`suggest_report`](Self::suggest_report) to also see the
    /// parse health itself.
    pub fn suggest(&self, c_source: &str) -> Vec<Suggestion> {
        self.suggest_report(c_source).suggestions
    }

    /// [`suggest`](Self::suggest) plus the front-end [`ParseHealth`], so a
    /// caller can tell a clean-parse suggestion set from one produced around
    /// unparseable mid-edit regions.
    pub fn suggest_report(&self, c_source: &str) -> SuggestReport {
        let src = self.encode_source(c_source);
        let hypotheses = self.generate(&src.ids);
        self.report(c_source, src.health, hypotheses, None)
    }

    /// One source's [`SuggestReport`] from its ranked hypotheses: verified
    /// and re-ranked on a verifying artifact, the winner's calls otherwise;
    /// then the parse health applied. Shared by the single-request and
    /// batch paths so the two cannot drift apart.
    fn report(
        &self,
        c_source: &str,
        health: ParseHealth,
        hypotheses: Vec<Vec<usize>>,
        prefix: Option<PrefixStats>,
    ) -> SuggestReport {
        let (mut suggestions, verify) = match &self.verify {
            Some(vopts) => {
                let base = canonical_program(c_source);
                let (suggestions, stats) = self.verify_and_rank(&base, hypotheses, vopts);
                (suggestions, Some(stats))
            }
            None => (self.suggestions_from(&winner(hypotheses)), None),
        };
        apply_health(&mut suggestions, &health);
        SuggestReport {
            suggestions,
            health,
            verify,
            prefix,
        }
    }

    /// The suggestions extractable from decoded ids, in model order.
    pub(crate) fn suggestions_from(&self, ids: &[usize]) -> Vec<Suggestion> {
        calls_from_ids(ids, &self.model.vocab)
            .into_iter()
            .map(Suggestion::from)
            .collect()
    }

    /// Decode prepared requests on a fresh [`Engine`] and return every
    /// request's ranked hypotheses (winner first) plus the engine's final
    /// [`PrefixStats`] snapshot, taken after the batch drains and before
    /// shutdown clears the index. The engine runs one worker per request,
    /// up to the machine's available parallelism and at most 8 (per-worker
    /// scratch buffers are not free); outputs are bitwise identical at any
    /// worker count (pinned by `tests/parallel_engine_props.rs`).
    fn decode_requests(&self, reqs: Vec<BatchRequest>) -> (Vec<Vec<Vec<usize>>>, PrefixStats) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.min(reqs.len()).clamp(1, 8);
        let engine = self.engine(EngineConfig::with_workers(workers));
        let out = engine.decode_all_hypotheses(reqs);
        let prefix = engine.prefix_stats();
        engine.shutdown();
        (out, prefix)
    }

    /// Build the [`BatchRequest`] for an already-encoded source: run the
    /// encoder and attach the artifact's [`DecodeOptions`] (beam included —
    /// the lockstep scheduler decodes beam requests natively) and the
    /// caller's [`SubmitOptions`] (priority class, optional token cap). The
    /// caller keeps the [`EncodedSource::health`] to interpret the eventual
    /// output. The single construction point shared by
    /// [`suggest_batch`](Self::suggest_batch) and
    /// [`SuggestService`](crate::service::SuggestService), so the one-shot
    /// and daemon serving paths can never drift apart.
    pub fn request_from_encoded(&self, enc: &EncodedSource, submit: SubmitOptions) -> BatchRequest {
        let m = &self.model;
        let enc_out = model_encode(&m.store, &m.params, &m.cfg, &enc.ids);
        BatchRequest {
            enc_out,
            prompt: vec![SOS],
            max_len: m.cfg.max_dec_len,
            opts: self.decode,
            submit,
        }
    }

    /// Batched [`suggest`](Self::suggest): one `Vec<Suggestion>` per source,
    /// in input order, decoded concurrently through the batch scheduler.
    /// Per-source [`ParseHealth`] is applied exactly as in the sequential
    /// path, so degraded-flagging and demotion cannot drift between the two.
    pub fn suggest_batch(&self, sources: &[&str]) -> Vec<Vec<Suggestion>> {
        self.suggest_batch_reports(sources)
            .into_iter()
            .map(|r| r.suggestions)
            .collect()
    }

    /// [`suggest_batch`](Self::suggest_batch) with full per-source
    /// [`SuggestReport`]s: parse health, verification telemetry (on a
    /// verifying artifact), and the batch scheduler's prefix-sharing
    /// telemetry. Every report in the batch carries the same fleet-wide
    /// [`PrefixStats`] snapshot — near-identical buffers (the IDE-retrigger
    /// workload) show up as partial hits and a high
    /// [`hit_rate`](PrefixStats::hit_rate).
    pub fn suggest_batch_reports(&self, sources: &[&str]) -> Vec<SuggestReport> {
        let encoded: Vec<EncodedSource> = sources.iter().map(|s| self.encode_source(s)).collect();
        let reqs: Vec<BatchRequest> = encoded
            .iter()
            .map(|e| self.request_from_encoded(e, SubmitOptions::default()))
            .collect();
        let (all, prefix) = self.decode_requests(reqs);
        all.into_iter()
            .zip(encoded)
            .zip(sources)
            .map(|((hypotheses, enc), source)| {
                self.report(source, enc.health, hypotheses, Some(prefix))
            })
            .collect()
    }

    /// Full translation: predicted parallel program as source text.
    pub fn translate(&self, c_source: &str) -> String {
        let ids = self.predict_ids(c_source);
        let tokens = self.model.vocab.decode(&ids);
        detokenize(&tokens)
    }

    /// Predict for an already-encoded dataset record (evaluation fast path).
    pub fn predict_record_ids(&self, record: &mpirical_corpus::Record) -> Option<Vec<usize>> {
        let ex = encode_record(
            record,
            &self.model.vocab,
            &self.model.cfg,
            self.input_format,
        )?;
        Some(winner(self.generate(&ex.src)))
    }

    /// Save the artifact (model + vocab + input format) as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, serde_json::to_string(self).expect("serializes"))
    }

    /// Load a saved artifact. Rejects artifacts whose decode options are
    /// invalid (e.g. `beam = 0`) instead of letting them panic deep inside
    /// a later decode, and eagerly prepares the decoder weights for the
    /// artifact's precision (packed f32, or quantized for
    /// [`Precision::Int8`]), so the first request pays no preparation cost.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<MpiRical> {
        let text = std::fs::read_to_string(path)?;
        let mut m: MpiRical = serde_json::from_str(&text).map_err(std::io::Error::other)?;
        m.decode.validate().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("artifact decode options: {e}"),
            )
        })?;
        m.model.store.rebuild_index();
        m.model.vocab.rebuild_index();
        m.prepared();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpirical_corpus::{generate_dataset, CorpusConfig};

    /// A deliberately tiny end-to-end training run (seconds, not minutes).
    fn tiny_assistant() -> MpiRical {
        // Trained once for the whole file (training dominates test
        // wall-clock); each test clones the shared artifact.
        static SHARED: std::sync::OnceLock<MpiRical> = std::sync::OnceLock::new();
        SHARED
            .get_or_init(|| {
                let ccfg = CorpusConfig {
                    programs: 40,
                    seed: 21,
                    max_tokens: 320,
                    threads: 1,
                };
                let (_, ds, _) = generate_dataset(&ccfg);
                let splits = ds.split(5);
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
                let (assistant, report) = MpiRical::train(&splits.train, &splits.val, &cfg, |_| {});
                assert_eq!(report.epochs.len(), 1);
                assert!(report.epochs[0].train_loss.is_finite());
                assistant
            })
            .clone()
    }

    #[test]
    fn train_suggest_translate_roundtrip() {
        let assistant = tiny_assistant();
        let serial = "int main(int argc, char **argv) {\n    int rank;\n    printf(\"hi\\n\");\n    return 0;\n}\n";
        // The model is undertrained; we only require well-formed outputs.
        let suggestions = assistant.suggest(serial);
        for s in &suggestions {
            assert!(s.function.starts_with("MPI_"));
            assert!(s.line >= 1);
        }
        let translated = assistant.translate(serial);
        assert!(!translated.is_empty());
    }

    #[test]
    fn save_load_identical_predictions() {
        let assistant = tiny_assistant();
        let dir = std::env::temp_dir().join("mpirical_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        let src = "int main() { int x = 3; return x; }";
        assert_eq!(assistant.predict_ids(src), loaded.predict_ids(src));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn beam_decoding_path_works_end_to_end() {
        let mut assistant = tiny_assistant();
        assistant.decode = DecodeOptions {
            beam: 2,
            min_len: 0,
            ..Default::default()
        };
        let serial = "int main() { int x = 1; return x; }";
        for s in &assistant.suggest(serial) {
            assert!(s.function.starts_with("MPI_"));
            assert!(s.line >= 1);
        }
        // The artifact keeps its decode options across save/load.
        let dir = std::env::temp_dir().join("mpirical_core_beam_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        assert_eq!(loaded.decode, assistant.decode);
        assert_eq!(assistant.predict_ids(serial), loaded.predict_ids(serial));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn suggest_batch_matches_sequential_suggest() {
        let mut assistant = tiny_assistant();
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
            "int main(int argc, char **argv) { int size; return 0; }",
        ];
        let batched = assistant.suggest_batch(&buffers);
        assert_eq!(batched.len(), buffers.len());
        for (got, buf) in batched.iter().zip(&buffers) {
            assert_eq!(got, &assistant.suggest(buf), "greedy batch for {buf:?}");
        }
        // Beam-configured artifacts decode in-batch (no sequential
        // fallback) and must still match the single-request beam path.
        assistant.decode = DecodeOptions {
            beam: 2,
            min_len: 0,
            ..Default::default()
        };
        let beamed = assistant.suggest_batch(&buffers[..2]);
        for (got, buf) in beamed.iter().zip(&buffers[..2]) {
            assert_eq!(got, &assistant.suggest(buf), "batched beam for {buf:?}");
        }
    }

    /// An `Int8` artifact serves through the quantized kernels end to end
    /// — single and batched paths agree with each other, the quantized
    /// weights are primed once at load, and predictions survive a
    /// save/load round trip.
    #[test]
    fn int8_artifact_serves_and_roundtrips() {
        let mut assistant = tiny_assistant();
        assistant.decode = DecodeOptions {
            beam: 1,
            min_len: 0,
            precision: crate::Precision::Int8,
        };
        let buffers = [
            "int main() { int rank; printf(\"a\\n\"); return 0; }",
            "int main() { double local = 0.0; return 0; }",
        ];
        let singles: Vec<_> = buffers.iter().map(|b| assistant.suggest(b)).collect();
        for s in singles.iter().flatten() {
            assert!(s.function.starts_with("MPI_"));
        }
        assert_eq!(
            assistant.suggest_batch(&buffers),
            singles,
            "batched int8 must equal single-request int8"
        );
        let dir = std::env::temp_dir().join("mpirical_core_int8_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let loaded = MpiRical::load(&path).unwrap();
        assert_eq!(loaded.decode.precision, crate::Precision::Int8);
        assert!(
            loaded.slot(crate::Precision::Int8).get().is_some(),
            "Int8 artifact quantizes at load time"
        );
        assert_eq!(
            assistant.predict_ids(buffers[0]),
            loaded.predict_ids(buffers[0])
        );
        std::fs::remove_file(path).ok();
    }

    /// Regression (satellite fix): an artifact whose decode options are
    /// invalid (`beam = 0`) is rejected at load with a clear error rather
    /// than panicking deep inside a later decode.
    #[test]
    fn load_rejects_zero_beam_artifact() {
        let mut assistant = tiny_assistant();
        assistant.decode.beam = 0;
        let dir = std::env::temp_dir().join("mpirical_core_beam0_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("assistant.json");
        assistant.save(&path).unwrap();
        let err = MpiRical::load(&path).expect_err("beam = 0 must not load");
        assert!(
            err.to_string().contains("beam width must be at least 1"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn encode_source_tolerates_incomplete_code() {
        let assistant = tiny_assistant();
        // Mid-edit code with an unterminated block — the IDE scenario.
        let enc = assistant.encode_source("int main() { int x = 1; if (x");
        assert!(enc.ids.len() >= 3);
        assert_eq!(enc.ids[0], SOS);
        assert_eq!(*enc.ids.last().unwrap(), EOS);
        assert!(!enc.health.is_clean(), "mid-edit parse reports degradation");
    }

    #[test]
    fn encode_source_health_clean_on_valid_code() {
        let assistant = tiny_assistant();
        let enc = assistant.encode_source("int main() { int x = 1; return x; }");
        assert!(enc.health.is_clean());
        let report = assistant.suggest_report("int main() { int x = 1; return x; }");
        assert!(report.health.is_clean());
        assert!(report.suggestions.iter().all(|s| !s.degraded));
    }

    /// Degraded suggestions are flagged and demoted behind clean-region
    /// ones, identically in `suggest` and `suggest_batch`.
    #[test]
    fn degraded_suggestions_flagged_and_demoted() {
        let assistant = tiny_assistant();
        let dirty = "int main() {\n    int rank;\n    = = broken\n    return 0;\n}\n";
        let report = assistant.suggest_report(dirty);
        assert!(!report.health.is_clean());
        assert!(report.health.error_count >= 1);
        // Demotion: once a degraded suggestion appears, no clean one after.
        let first_degraded = report
            .suggestions
            .iter()
            .position(|s| s.degraded)
            .unwrap_or(report.suggestions.len());
        assert!(
            report.suggestions[first_degraded..]
                .iter()
                .all(|s| s.degraded),
            "clean suggestions sort first: {:?}",
            report.suggestions
        );
        // Batch path applies the same health transform.
        let batched = assistant.suggest_batch(&[dirty]);
        assert_eq!(batched[0], report.suggestions);
    }

    /// One weight cache: every consumer of an artifact's prepared weights
    /// shares one allocation per precision, built once — no copy for the
    /// engine bundle, no rebuild after a precision round trip.
    #[test]
    fn prepared_weights_are_one_shared_set_per_precision() {
        let mut assistant = tiny_assistant();
        assert_eq!(assistant.decode.precision, crate::Precision::F32);
        let f32_set = assistant.engine_model();
        assert!(
            Arc::ptr_eq(&f32_set, &assistant.engine_model()),
            "repeated engine_model() calls share one bundle"
        );

        assistant.decode.precision = crate::Precision::Int8;
        let int8_set = assistant.engine_model();
        assert_eq!(int8_set.precision(), crate::Precision::Int8);
        assert!(Arc::ptr_eq(&int8_set, &assistant.engine_model()));
        let DecoderWeights::Int8(engine_q) = int8_set.weights() else {
            panic!("an Int8 artifact's engine serves int8 weights");
        };
        assert!(
            std::ptr::eq(assistant.quant_weights(), engine_q),
            "quant_weights() and the engine's Int8 set are one allocation"
        );

        assistant.decode.precision = crate::Precision::F32;
        let back = assistant.engine_model();
        assert_eq!(back.precision(), crate::Precision::F32);
        assert!(
            Arc::ptr_eq(&back, &f32_set),
            "switching back serves the original f32 set, not a rebuild"
        );
        assert!(!Arc::ptr_eq(&back, &int8_set));
        // The int8 set survives the round trip too.
        assert!(std::ptr::eq(assistant.quant_weights(), engine_q));
    }
}
