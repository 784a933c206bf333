//! The correctness gate.
//!
//! * `Done` payloads off the wire must equal, bitwise, what the in-process
//!   reference service (`SuggestService::new`, one inline scheduler)
//!   produces for the same buffer on the same artifact.
//! * Decoded ids must equal `MpiRical::predict_ids`, the single-request
//!   reference decode, wherever the benchmark can see them: the replay's
//!   1-lane and 8-lane decoders, and the sharded engine the daemon runs,
//!   driven in process with preemption and prefix sharing.
//!
//! The untrained artifact's outputs carry no MPI calls, so its wire
//! payloads hold no suggestions and cannot reveal a wrong decode; the id
//! checks are what catch one.

use crate::loopback::{End, Sent};
use crate::replay::Item;
use crate::rng::Rng;
use mpirical::model::{BatchRequest, Engine, EngineConfig, PrefixStats, Priority};
use mpirical::{MpiRical, PollResult, SuggestPoll, SuggestService};
use std::collections::HashMap;

/// The fields of a `Done` payload that must not depend on how the request
/// was scheduled: suggestions, parse health and verification stats, as
/// their exact JSON. Scheduling telemetry is excluded — it legitimately
/// differs between the daemon's sharded engine and the inline reference.
fn payload(done: &SuggestPoll) -> Option<String> {
    let SuggestPoll::Done {
        suggestions,
        health,
        verify,
        ..
    } = done
    else {
        return None;
    };
    let part = |r: Result<String, serde_json::Error>| r.expect("wire types serialize");
    Some(format!(
        "{}|{}|{}",
        part(serde_json::to_string(suggestions)),
        part(serde_json::to_string(health)),
        part(serde_json::to_string(verify)),
    ))
}

/// Indices of up to `n` `Done` requests, chosen with `rng`, distinct
/// sources only (a repeat adds nothing the first copy did not check).
pub fn sample(requests: &[Sent], n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut candidates: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, s) in requests.iter().enumerate() {
        if matches!(s.end, End::Done(_))
            && seen.insert((s.source.clone(), format!("{:?}", s.options)))
        {
            candidates.push(i);
        }
    }
    rng.shuffle(&mut candidates);
    candidates.truncate(n);
    candidates.sort_unstable();
    candidates
}

/// Compare the sampled requests against the reference service. Returns
/// the index of every mismatched request with a message.
pub fn against_reference(
    artifact: &MpiRical,
    requests: &[Sent],
    picked: &[usize],
) -> Vec<(usize, String)> {
    let mut service = SuggestService::new(artifact);
    let tickets: Vec<_> = picked
        .iter()
        .map(|&i| service.submit_with(&requests[i].source, requests[i].options))
        .collect();
    service.run();
    let mut mismatches = Vec::new();
    for (&i, ticket) in picked.iter().zip(tickets) {
        let reference = service.poll(ticket);
        let End::Done(wire) = &requests[i].end else {
            continue;
        };
        if payload(wire) != payload(&reference) {
            mismatches.push((
                i,
                format!(
                    "request {i} (ticket {:?}): wire payload differs from the in-process reference",
                    requests[i].ticket
                ),
            ));
        }
    }
    mismatches
}

/// `predict_ids` of each item, cut to the item's token cap.
pub fn reference_ids(artifact: &MpiRical, items: &[Item]) -> Vec<Vec<usize>> {
    let mut memo: HashMap<(&str, Option<usize>), Vec<usize>> = HashMap::new();
    items
        .iter()
        .map(|item| {
            let cap = item.options.max_new_tokens;
            memo.entry((&item.source, cap))
                .or_insert_with(|| {
                    let mut ids = artifact.predict_ids(&item.source);
                    ids.truncate(cap.unwrap_or(usize::MAX));
                    ids
                })
                .clone()
        })
        .collect()
}

/// One message per decoded output (`got[k]` decodes item `of[k]`) whose
/// ids differ from the reference.
pub fn ids_against_reference(
    label: &str,
    got: &[Vec<usize>],
    of: &[usize],
    reference: &[Vec<usize>],
) -> Vec<String> {
    got.iter()
        .zip(of)
        .enumerate()
        .filter(|(_, (ids, &i))| **ids != reference[i])
        .map(|(k, (_, &i))| {
            format!("{label}: output {k} (replayed item {i}) differs from predict_ids")
        })
        .collect()
}

/// What the in-process run of the daemon's engine produced.
pub struct EngineRun {
    /// Ids of every submission that ended `Done`, and the item each one
    /// decodes.
    pub ids: Vec<Vec<usize>>,
    pub of: Vec<usize>,
    /// Submissions that did not end `Done`.
    pub not_done: usize,
    pub preemptions: u64,
    pub prefix: PrefixStats,
    /// Live KV pages after shutdown.
    pub pages_live: usize,
}

/// Decode `requests` on the sharded engine the daemon builds
/// (`SuggestService::owned`: `workers` workers sharing one KV pool and one
/// prefix index, `lanes` lanes each), in two waves. A wave submits every
/// Bulk request twice, enough to fill every lane, then every Interactive
/// one, which preempts Bulk lanes; the second wave resends the first, so
/// its requests find their prefills in the shared prefix index.
pub fn through_engine(
    artifact: &MpiRical,
    requests: &[BatchRequest],
    workers: usize,
    lanes: usize,
) -> EngineRun {
    let engine = Engine::new(
        artifact.engine_model(),
        EngineConfig {
            workers,
            max_batch: lanes,
            ..EngineConfig::default()
        },
    );
    let bulk: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].submit.priority == Priority::Bulk)
        .collect();
    let wave: Vec<usize> = bulk
        .iter()
        .chain(&bulk)
        .copied()
        .chain((0..requests.len()).filter(|i| !bulk.contains(i)))
        .collect();
    let mut ids = Vec::new();
    let mut of = Vec::new();
    let mut not_done = 0;
    for _ in 0..2 {
        let tickets: Vec<_> = wave
            .iter()
            .map(|&i| engine.submit(requests[i].clone()))
            .collect();
        engine.drain();
        for (t, &i) in tickets.into_iter().zip(&wave) {
            match engine.poll(t) {
                PollResult::Done { ids: done, .. } => {
                    ids.push(done);
                    of.push(i);
                }
                _ => not_done += 1,
            }
        }
    }
    let preemptions = engine.preemptions();
    let prefix = engine.prefix_stats();
    let pages_live = engine.shutdown().iter().map(|p| p.pages_live).sum();
    EngineRun {
        ids,
        of,
        not_done,
        preemptions,
        prefix,
        pages_live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_output_is_held_against_its_own_item() {
        let reference = vec![vec![1, 2, 3], vec![4, 5]];
        // Outputs decode items 1, 0, 1; the last one is wrong.
        let got = vec![vec![4, 5], vec![1, 2, 3], vec![4, 6]];
        let m = ids_against_reference("engine", &got, &[1, 0, 1], &reference);
        assert_eq!(m.len(), 1);
        assert!(m[0].contains("output 2 (replayed item 1)"), "{}", m[0]);
        assert!(ids_against_reference("engine", &got[..2], &[1, 0], &reference).is_empty());
    }
}
