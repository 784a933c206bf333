//! The in-process replay: the head of the workload's seeded request stream
//! fed through the layers' public functions, one span per call, so each
//! layer gets its own time without any tracing inside the program. Every
//! run replays the decode (its ids feed the correctness gate); only a
//! traced run also replays verification.

use crate::trace::Tracer;
use mpirical::cparse::{parse_tolerant, print_program, standardize};
use mpirical::model::{BatchDecoder, BatchRequest, DecoderCache, DecoderWeights};
use mpirical::verify::{splice_prediction, verify_prediction, verify_program};
use mpirical::{
    benchmark_programs, detokenize, MpiRical, PollResult, SubmitOptions, VerifyOptions, VerifyStats,
};
use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;

/// Lane count of the batch-scale step measurement.
pub const WIDE_LANES: usize = 8;

/// One request of the replayed stream.
#[derive(Debug, Clone)]
pub struct Item {
    pub source: Arc<str>,
    pub options: SubmitOptions,
}

/// What the replay decoded.
pub struct Decoded {
    /// The encoded request of each item, as the daemon builds it.
    pub requests: Vec<BatchRequest>,
    /// Ids of each item from a 1-lane `BatchDecoder`.
    pub narrow: Vec<Vec<usize>>,
    /// Ids of the first [`WIDE_LANES`] items, decoded together by an
    /// 8-lane `BatchDecoder`.
    pub wide: Vec<Vec<usize>>,
}

/// Feed `items` through the front end, encoder, cross-K/V build and a
/// 1-lane decoder, one at a time; then decode the first [`WIDE_LANES`]
/// together for the batch-scale step. Steps run in the artifact's
/// precision.
pub fn decode(artifact: &MpiRical, items: &[Item], tracer: &mut Tracer) -> Decoded {
    let m = &artifact.model;
    let weights = DecoderWeights::for_precision(&m.store, &m.params, artifact.decode.precision);
    let mut narrow =
        BatchDecoder::with_weights(&m.store, &m.params, &m.cfg, 1, Cow::Borrowed(&weights));
    let mut requests = Vec::with_capacity(items.len());
    let mut narrow_ids = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let key = i as u64;
        let enc = tracer.time("frontend.encode_source", key, || {
            artifact.encode_source(&item.source)
        });
        let req = tracer.time("encoder.forward", key, || {
            artifact.request_from_encoded(&enc, item.options)
        });
        tracer.time("prefill.cross_kv", key, || {
            black_box(DecoderCache::new(&m.store, &m.params, &m.cfg, &req.enc_out))
        });
        let id = narrow.submit(req.clone());
        narrow_ids.push(loop {
            tracer.time("decode.step.lanes1", key, || narrow.step());
            if let PollResult::Done { ids, .. } = narrow.poll(id) {
                break ids;
            }
        });
        requests.push(req);
    }

    let mut wide = BatchDecoder::with_weights(
        &m.store,
        &m.params,
        &m.cfg,
        WIDE_LANES,
        Cow::Borrowed(&weights),
    );
    let tickets: Vec<_> = requests
        .iter()
        .take(WIDE_LANES)
        .map(|r| wide.submit(r.clone()))
        .collect();
    while wide.pending() > 0 {
        // Only steps with every lane busy count as 8-lane steps.
        if wide.lanes_in_use() == WIDE_LANES {
            tracer.time("decode.step.lanes8", 0, || wide.step());
        } else {
            wide.step();
        }
    }
    let wide_ids = tickets
        .into_iter()
        .map(|t| match wide.poll(t) {
            PollResult::Done { ids, .. } => ids,
            other => panic!("a drained decoder resolves every request (got {other:?})"),
        })
        .collect();
    Decoded {
        requests,
        narrow: narrow_ids,
        wide: wide_ids,
    }
}

/// Splice and simulate the decoded outputs of the first `n` items with
/// the default verification options, and verify the eleven benchmark
/// reference splices (what a trained model's hypotheses would cost).
/// Returns the verdicts of the replayed outputs.
pub fn verify(
    artifact: &MpiRical,
    items: &[Item],
    ids: &[Vec<usize>],
    n: usize,
    tracer: &mut Tracer,
) -> VerifyStats {
    let opts = VerifyOptions::default();
    let mut stats = VerifyStats::default();
    for (i, (item, ids)) in items.iter().zip(ids).take(n).enumerate() {
        let key = i as u64;
        let base = canonical_program(&item.source);
        let predicted = detokenize(&artifact.model.vocab.decode(ids));
        let patched = tracer.time("verify.splice", key, || {
            splice_prediction(&base, &predicted)
        });
        let (verdict, runs) = tracer.time("verify.sim", key, || verify_program(&patched, &opts));
        stats.record(verdict, runs);
    }
    for (k, p) in benchmark_programs().iter().enumerate() {
        let (canon_text, canon_prog) =
            standardize(&mpirical::cparse::parse_strict(p.source).expect("benchmark11 parses"));
        let stripped = mpirical::corpus::remove_mpi_calls(&canon_prog).stripped;
        let (_, base) = standardize(&stripped);
        tracer.time("verify.reference", k as u64, || {
            verify_prediction(&base, &canon_text, &opts)
        });
    }
    stats
}

/// The canonical serial program the daemon splices into: tolerant parse,
/// print, reparse (the same pipeline as `MpiRical::encode_source`).
fn canonical_program(source: &str) -> mpirical::cparse::Program {
    parse_tolerant(&print_program(&parse_tolerant(source).program)).program
}
