//! The benchmark's own arithmetic: percentiles, the tail rule, goodput
//! and open-loop latency. Kept free of I/O so it is unit-tested here.

use std::time::Instant;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, with the
/// number of samples strictly after the chosen rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// Median of `values` (nearest rank); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).0
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, as `(percentile, value)`. Candidates are every whole percentile
/// from 50 to 99 and 99.9; below 11 samples the median is reported.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (50.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let candidates = std::iter::once(99.9).chain((50..=99).rev().map(f64::from));
    for p in candidates {
        let (value, beyond) = nearest_rank(&v, p);
        if beyond >= TAIL_BEYOND {
            return (p, value);
        }
    }
    (50.0, nearest_rank(&v, 50.0).0)
}

/// Geometric mean of positive ratios; 0 for no values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// How one open-loop request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Refused with `Busy` by admission control.
    Busy,
    /// Any other failure, including a wrong result.
    Failed,
}

/// One open-loop request, timed against its schedule.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said the request was due.
    pub due: Instant,
    /// When the generator actually started sending it.
    pub sent: Instant,
    /// When the reply had been read.
    pub done: Instant,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency counted from the due time, so a stalled generator's wait
    /// is charged to the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// How late the generator started this request.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

/// Requests that succeeded within `limit_ms` of their due time; failed
/// and Busy requests are misses whatever their latency.
pub fn good_requests(samples: &[Sample], limit_ms: f64) -> usize {
    samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok && s.latency_ms() <= limit_ms)
        .count()
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 20 samples: p50 is the first with 10 beyond.
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
        // Input order does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), (90.0, 90.0));
    }

    #[test]
    fn tail_falls_back_to_median_on_few_samples() {
        assert_eq!(tail(&ramp(5)), (50.0, 3.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    fn sample(t0: Instant, due: u64, sent: u64, done: u64, outcome: Outcome) -> Sample {
        let at = |ms| t0 + Duration::from_millis(ms);
        Sample {
            due: at(due),
            sent: at(sent),
            done: at(done),
            outcome,
        }
    }

    #[test]
    fn latency_counts_from_due_time() {
        let t0 = Instant::now();
        // Due at 10 ms, sent late at 30 ms, answered at 35 ms: the
        // request waited 20 ms for the generator and took 5 ms to serve.
        let s = sample(t0, 10, 30, 35, Outcome::Ok);
        assert!((s.latency_ms() - 25.0).abs() < 1e-9);
        assert!((s.late_ms() - 20.0).abs() < 1e-9);
        // Sent on time: latency is the service time.
        let s = sample(t0, 10, 10, 15, Outcome::Ok);
        assert!((s.latency_ms() - 5.0).abs() < 1e-9);
        assert_eq!(s.late_ms(), 0.0);
    }

    #[test]
    fn goodput_counts_failures_and_busy_as_misses() {
        let t0 = Instant::now();
        let samples = [
            sample(t0, 0, 0, 5, Outcome::Ok),
            sample(t0, 0, 0, 50, Outcome::Ok),    // too slow
            sample(t0, 0, 0, 1, Outcome::Busy),   // fast refusal
            sample(t0, 0, 0, 2, Outcome::Failed), // fast failure
            sample(t0, 0, 20, 25, Outcome::Ok),   // late start counts
            sample(t0, 0, 0, 10, Outcome::Ok),    // exactly at the limit
        ];
        assert_eq!(good_requests(&samples, 10.0), 2);
    }
}
