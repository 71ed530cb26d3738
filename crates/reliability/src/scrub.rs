//! Background scrubbing model (Section III-G).
//!
//! A scrubber walks memory on a fixed period, reading every block and
//! correcting single-device errors before a second independent error
//! can accumulate. The paper's mitigation for ITESP's Case 4 regression
//! is *scrub-on-detect*: any detected (and corrected) error immediately
//! triggers a full scrub, shrinking the multi-error window from the
//! scrub period to the detection-plus-scrub reaction time.
//!
//! Besides the analytical window parameters (seconds), the scrubber
//! tracks *simulated* windows: callers report detection and scrub-pass
//! events with the cycle at which they happened, and the scrubber
//! records the worst and mean gap between consecutive scrub passes —
//! the measured analogue of the vulnerability window Table II bounds.

use itesp_snap::Persist;
use serde::Serialize;

/// Scrubber configuration and bookkeeping. The snapshot carries the
/// window parameters plus the simulated-gap bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Persist)]
#[persist(section = "SCRB", version = 1)]
pub struct Scrubber {
    /// Periodic scrub interval, seconds.
    pub period_s: f64,
    /// Time to detect an error and complete the triggered scrub,
    /// seconds. Every rank is touched within ~1 us, so detection is
    /// fast; the scrub pass itself dominates.
    pub reaction_s: f64,
    /// Whether scrub-on-detect is enabled.
    pub scrub_on_detect: bool,
    scrubs_run: u64,
    errors_cleared: u64,
    /// Cycle of the most recent scrub pass (None before the first).
    last_scrub_cycle: Option<u64>,
    /// Largest observed gap between consecutive scrub passes, cycles.
    worst_gap_cycles: u64,
    /// Sum and count of observed gaps, for the mean.
    gap_sum_cycles: u64,
    gap_count: u64,
}

impl Scrubber {
    /// Hourly scrubbing without scrub-on-detect (Table II baseline).
    pub fn hourly() -> Self {
        Scrubber {
            period_s: 3600.0,
            reaction_s: 3.6,
            scrub_on_detect: false,
            scrubs_run: 0,
            errors_cleared: 0,
            last_scrub_cycle: None,
            worst_gap_cycles: 0,
            gap_sum_cycles: 0,
            gap_count: 0,
        }
    }

    /// Enable the scrub-on-detect mitigation.
    pub fn with_scrub_on_detect(mut self) -> Self {
        self.scrub_on_detect = true;
        self
    }

    /// The window (seconds) during which a second independent error can
    /// defeat correction.
    pub fn vulnerability_window_s(&self) -> f64 {
        if self.scrub_on_detect {
            self.reaction_s
        } else {
            self.period_s
        }
    }

    /// Factor by which scrub-on-detect shrinks double-error rates.
    pub fn window_improvement(&self) -> f64 {
        self.period_s / self.vulnerability_window_s()
    }

    /// Close the window that ended with a scrub pass at `cycle`.
    fn record_scrub(&mut self, cycle: u64) {
        self.scrubs_run += 1;
        if let Some(last) = self.last_scrub_cycle {
            let gap = cycle.saturating_sub(last);
            self.worst_gap_cycles = self.worst_gap_cycles.max(gap);
            self.gap_sum_cycles += gap;
            self.gap_count += 1;
        }
        self.last_scrub_cycle = Some(cycle);
    }

    /// Record an error detected (and corrected) at simulated `cycle`;
    /// returns `true` if this triggers an immediate scrub pass.
    pub fn on_error_detected(&mut self, cycle: u64) -> bool {
        self.errors_cleared += 1;
        if self.scrub_on_detect {
            self.record_scrub(cycle);
            true
        } else {
            false
        }
    }

    /// Record a periodic scrub pass completing at simulated `cycle`.
    pub fn on_periodic_scrub(&mut self, cycle: u64) {
        self.record_scrub(cycle);
    }

    pub fn scrubs_run(&self) -> u64 {
        self.scrubs_run
    }

    pub fn errors_cleared(&self) -> u64 {
        self.errors_cleared
    }

    /// Cycle of the most recent scrub pass, if any has run.
    pub fn last_scrub_cycle(&self) -> Option<u64> {
        self.last_scrub_cycle
    }

    /// Worst observed gap between consecutive scrub passes, in cycles —
    /// the measured vulnerability window.
    pub fn worst_gap_cycles(&self) -> u64 {
        self.worst_gap_cycles
    }

    /// Mean observed inter-scrub gap, cycles (0 before two passes).
    pub fn mean_gap_cycles(&self) -> f64 {
        if self.gap_count == 0 {
            0.0
        } else {
            self.gap_sum_cycles as f64 / self.gap_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_window_is_the_period() {
        let s = Scrubber::hourly();
        assert_eq!(s.vulnerability_window_s(), 3600.0);
        assert_eq!(s.window_improvement(), 1.0);
    }

    #[test]
    fn scrub_on_detect_shrinks_window_by_three_orders() {
        let s = Scrubber::hourly().with_scrub_on_detect();
        assert_eq!(s.vulnerability_window_s(), 3.6);
        assert!((s.window_improvement() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn detection_triggers_scrub_only_when_enabled() {
        let mut base = Scrubber::hourly();
        assert!(!base.on_error_detected(100));
        assert_eq!(base.scrubs_run(), 0);
        assert_eq!(base.errors_cleared(), 1);
        assert_eq!(base.last_scrub_cycle(), None);

        let mut sod = Scrubber::hourly().with_scrub_on_detect();
        assert!(sod.on_error_detected(100));
        assert_eq!(sod.scrubs_run(), 1);
        assert_eq!(sod.last_scrub_cycle(), Some(100));
    }

    #[test]
    fn periodic_scrubs_are_counted() {
        let mut s = Scrubber::hourly();
        s.on_periodic_scrub(1_000);
        s.on_periodic_scrub(3_000);
        assert_eq!(s.scrubs_run(), 2);
    }

    #[test]
    fn window_accounting_tracks_simulated_cycles() {
        let mut s = Scrubber::hourly();
        s.on_periodic_scrub(1_000);
        // First pass opens the window; no gap yet.
        assert_eq!(s.worst_gap_cycles(), 0);
        s.on_periodic_scrub(5_000); // gap 4000
        s.on_periodic_scrub(6_000); // gap 1000
        assert_eq!(s.worst_gap_cycles(), 4_000);
        assert!((s.mean_gap_cycles() - 2_500.0).abs() < 1e-9);
        assert_eq!(s.last_scrub_cycle(), Some(6_000));
    }

    #[test]
    fn scrub_on_detect_closes_the_window_early() {
        let mut s = Scrubber::hourly().with_scrub_on_detect();
        s.on_periodic_scrub(10_000);
        // A detection at 12k triggers a scrub, so the next periodic pass
        // at 20k measures an 8k gap, not 10k.
        assert!(s.on_error_detected(12_000));
        s.on_periodic_scrub(20_000);
        assert_eq!(s.worst_gap_cycles(), 8_000);
    }
}
