//! Summary statistics: nearest-rank percentiles, the tail-percentile rule,
//! and the latency-limit (SLO) share.

/// Latency limit of an Interactive request, in milliseconds.
pub const SLO_MS: f64 = 250.0;

/// Percentiles the tail rule chooses from, highest last.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported percentile needs beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at rank `ceil(p/100 * n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding a
    // whole rank up.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted values (nearest-rank); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean of values; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The outcome of one latency-bound request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Reached `Done` after this many milliseconds.
    Done(f64),
    /// Shed, rejected, errored, cancelled or mismatched: it never met the
    /// limit.
    Failed,
}

/// Latency summary of a class of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Requests sent (failures included).
    pub n: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// The tail percentile the rule allows at this `n`, and its value.
    pub tail: Option<(f64, f64)>,
    /// Share of requests sent that reached `Done` within [`SLO_MS`].
    pub slo_frac: f64,
}

/// Summarise outcomes. Failures sort as infinitely late, so they count
/// against every percentile and every limit.
pub fn latency(outcomes: &[Outcome]) -> Latency {
    let mut ms: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            Outcome::Done(ms) => *ms,
            Outcome::Failed => f64::INFINITY,
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    if n == 0 {
        return Latency {
            n,
            p50_ms: 0.0,
            p90_ms: 0.0,
            tail: None,
            slo_frac: 0.0,
        };
    }
    let within = ms.iter().filter(|&&m| m <= SLO_MS).count();
    Latency {
        n,
        p50_ms: percentile(&ms, 50.0),
        p90_ms: percentile(&ms, 90.0),
        tail: tail_percentile(n).map(|p| (p, percentile(&ms, p))),
        slo_frac: within as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "median has 9 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0), "p90 has 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= TAIL_MIN_BEYOND);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_and_sheds_count_as_slo_misses() {
        let mut outcomes = vec![Outcome::Done(100.0); 8];
        outcomes.push(Outcome::Failed);
        outcomes.push(Outcome::Done(SLO_MS + 1.0));
        let l = latency(&outcomes);
        assert_eq!(l.n, 10);
        assert!((l.slo_frac - 0.8).abs() < 1e-12);
        // The failure sorts last: it is the p100, and pushes p90 to the
        // late request.
        assert_eq!(l.p90_ms, SLO_MS + 1.0);
        let all_failed = latency(&[Outcome::Failed; 4]);
        assert_eq!(all_failed.slo_frac, 0.0);
        assert!(all_failed.p50_ms.is_infinite());
    }
}
