//! Client-side spans: name, key (ticket or stream index), start and end.
//! Kept in memory and written out when the run ends.
//!
//! Every span is timed on its own; nothing nests, so a span's duration is
//! its layer's time. With tracing off every call is a no-op, so the
//! untraced run pays only a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub key: u64,
    pub start: Duration,
    pub end: Duration,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `origin`; records nothing unless `on`.
    pub fn new(origin: Instant, on: bool) -> Tracer {
        Tracer {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a span that ran from `start` to `end` (offsets from the
    /// origin), for a call whose key is known only from its reply.
    pub fn record(&mut self, name: &'static str, key: u64, start: Duration, end: Duration) {
        if self.on {
            self.spans.push(Span {
                name,
                key,
                start,
                end,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.record(name, key, start, end);
        out
    }

    /// Append another tracer's spans (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Span durations in seconds, grouped by span name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.end.saturating_sub(s.start).as_secs_f64());
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.key,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

/// The tracer's own cost per span, in seconds: the median over `rounds`
/// rounds of timing `per_round` empty spans on a tracer that is on.
pub fn cost_per_span(rounds: usize, per_round: usize) -> f64 {
    let mut per_span = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut t = Tracer::new(Instant::now(), true);
        let start = Instant::now();
        for k in 0..per_round {
            t.time("probe", k as u64, || std::hint::black_box(k));
        }
        per_span.push(start.elapsed().as_secs_f64() / per_round as f64);
        std::hint::black_box(t.spans.len());
    }
    crate::stats::median(&per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_group_by_name() {
        let mut t = Tracer::new(Instant::now(), true);
        let ms = Duration::from_millis;
        t.record("poll", 1, ms(10), ms(30));
        t.record("poll", 2, ms(40), ms(45));
        t.record("submit", 1, ms(0), ms(10));
        let d = t.durations();
        assert_eq!(d["poll"].len(), 2);
        assert!((d["poll"][0] - 0.020).abs() < 1e-12);
        assert!((d["poll"][1] - 0.005).abs() < 1e-12);
        assert!((d["submit"][0] - 0.010).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        t.record("x", 1, Duration::ZERO, Duration::from_millis(1));
        assert_eq!(t.time("y", 2, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_span_costs_well_under_a_millisecond() {
        let c = cost_per_span(3, 1000);
        assert!(c > 0.0 && c < 1e-3, "{c}");
    }
}
