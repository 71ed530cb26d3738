//! Closed-form SDC/DUE model (Section III-G, Table II).
//!
//! Reproduces the paper's four cases for both Synergy and ITESP from the
//! Sridharan-Liberty field data: per-device FIT rate 66.1, 288 devices,
//! 9-device ranks, and a 1-hour scrub window bounding the chance of
//! concurrent independent errors.

use serde::Serialize;

/// Parameters of the analytical model (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReliabilityParams {
    /// Failures in time (per 1e9 device-hours) per DRAM device.
    pub device_fit: f64,
    /// DRAM devices in the memory system.
    pub devices: u32,
    /// Devices per rank (x8 ECC DIMM: 8 data + 1 ECC).
    pub rank_devices: u32,
    /// Scrub interval in hours: two errors only interact if they land
    /// within the same window.
    pub scrub_hours: f64,
    /// MAC width in bits (collision probability 2^-width).
    pub mac_bits: u32,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        ReliabilityParams {
            device_fit: 66.1,
            devices: 288,
            rank_devices: 9,
            scrub_hours: 1.0,
            mac_bits: 64,
        }
    }
}

/// Which design's sharing domain applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Design {
    /// Parity per rank: double errors matter only within a rank.
    Synergy,
    /// Parity shared across ranks: double errors matter anywhere in the
    /// memory system.
    Itesp,
}

/// All four Table II rates for one design, per billion hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TableIiRates {
    /// Case 1: SDC — corrupted block with matching MAC during detection.
    pub case1_sdc: f64,
    /// Case 2: SDC — multi-device error "corrected" to a wrong value.
    pub case2_sdc: f64,
    /// Case 3: DUE — multiple valid MACs during single-error correction.
    pub case3_due: f64,
    /// Case 4: DUE — multi-chip error, no matching MAC.
    pub case4_due: f64,
}

/// Probability of a MAC collision.
fn mac_collision(p: &ReliabilityParams) -> f64 {
    2f64.powi(-(p.mac_bits as i32))
}

/// Number of *other* devices whose concurrent failure defeats
/// correction: rank peers for Synergy, the whole system for ITESP.
fn sharing_peers(p: &ReliabilityParams, d: Design) -> f64 {
    match d {
        Design::Synergy => f64::from(p.rank_devices - 1),
        Design::Itesp => f64::from(p.devices - 1),
    }
}

/// Compute the Table II rates (events per 1e9 hours of operation).
pub fn table_ii(p: &ReliabilityParams, design: Design) -> TableIiRates {
    let fit = p.device_fit;
    let n = f64::from(p.devices);
    let collide = mac_collision(p);
    let peers = sharing_peers(p, design);

    // Case 1: any device error whose corrupted block happens to match
    // its MAC: devices x FIT x P(collision).
    let case1_sdc = n * fit * collide;

    // Concurrent double-error rate: first error (n x FIT), second error
    // on one of the `peers` devices within the scrub window.
    // FIT x hours/1e9 is the per-device window probability.
    let window_prob = fit * (p.scrub_hours / 1e9);
    let double_rate = n * fit * peers * window_prob;

    // Case 2: double error, and one of the 9 trial MACs collides.
    let case2_sdc = double_rate * f64::from(p.rank_devices) * collide;

    // Case 3: a real single-device error, but a second (wrong) trial
    // also matches: devices x FIT x (rank_devices - 1) x P(collision).
    let case3_due = n * fit * f64::from(p.rank_devices - 1) * collide;

    // Case 4: the common multi-chip DUE — double error, no match.
    let case4_due = double_rate;

    TableIiRates {
        case1_sdc,
        case2_sdc,
        case3_due,
        case4_due,
    }
}

/// Factor by which triggering a scrub immediately on any detected error
/// (shrinking the vulnerability window from `scrub_hours` to
/// `reaction_seconds`) reduces the double-error rates (Section III-G's
/// mitigation).
pub fn scrub_on_detect_improvement(p: &ReliabilityParams, reaction_seconds: f64) -> f64 {
    (p.scrub_hours * 3600.0) / reaction_seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> ReliabilityParams {
        ReliabilityParams::default()
    }

    #[test]
    fn case1_below_1e_15_for_both() {
        let s = table_ii(&defaults(), Design::Synergy);
        let i = table_ii(&defaults(), Design::Itesp);
        // 288 x 66.1 x 2^-64 = 1.03e-15; the paper rounds to "< 1e-15".
        assert!(s.case1_sdc < 1.1e-15);
        assert_eq!(s.case1_sdc, i.case1_sdc, "same MAC, same detection");
        assert!(s.case1_sdc > 1e-16, "order-of-magnitude check");
    }

    #[test]
    fn case2_synergy_below_1e_20_itesp_below_1e_18() {
        let s = table_ii(&defaults(), Design::Synergy);
        let i = table_ii(&defaults(), Design::Itesp);
        assert!(s.case2_sdc < 1e-20, "{}", s.case2_sdc);
        assert!(i.case2_sdc < 1e-18, "{}", i.case2_sdc);
        assert!(i.case2_sdc > s.case2_sdc, "ITESP scales with system size");
    }

    #[test]
    fn case3_below_1e_14_and_identical() {
        let s = table_ii(&defaults(), Design::Synergy);
        let i = table_ii(&defaults(), Design::Itesp);
        assert!(s.case3_due < 1e-14);
        assert_eq!(s.case3_due, i.case3_due);
    }

    #[test]
    fn case4_synergy_below_1e_2_itesp_below_1() {
        let s = table_ii(&defaults(), Design::Synergy);
        let i = table_ii(&defaults(), Design::Itesp);
        // 288 x 66.1 x 8 x 66.1e-9 = 1.007e-2 (paper uses 66 and rounds).
        assert!(s.case4_due < 1.1e-2, "{}", s.case4_due);
        assert!(s.case4_due > 1e-3, "order of magnitude check");
        assert!(i.case4_due < 1.0, "{}", i.case4_due);
        assert!(i.case4_due > 0.1, "order of magnitude check");
    }

    #[test]
    fn case4_ratio_is_peers_ratio() {
        // ITESP's only noticeable regression: 287/8 x the Case 4 rate.
        let s = table_ii(&defaults(), Design::Synergy);
        let i = table_ii(&defaults(), Design::Itesp);
        let ratio = i.case4_due / s.case4_due;
        assert!((ratio - 287.0 / 8.0).abs() < 1e-9);
    }

    /// Exact closed-form pins: each rate reconstructed with the same
    /// floating-point operation order must match bit-for-bit, so any
    /// reformulation of the model is a visible, deliberate change — and
    /// the numeric anchors pin the magnitudes Table II rounds.
    #[test]
    fn table_ii_exact_closed_forms() {
        let p = defaults();
        let collide = 2f64.powi(-64);
        let window = 66.1 * (1.0 / 1e9);
        for (design, peers) in [(Design::Synergy, 8.0), (Design::Itesp, 287.0)] {
            let r = table_ii(&p, design);
            let double = 288.0 * 66.1 * peers * window;
            assert_eq!(r.case1_sdc, 288.0 * 66.1 * collide);
            assert_eq!(r.case2_sdc, double * 9.0 * collide);
            assert_eq!(r.case3_due, 288.0 * 66.1 * 8.0 * collide);
            assert_eq!(r.case4_due, double);
        }
        let rel = |got: f64, want: f64| ((got - want) / want).abs();
        let s = table_ii(&p, Design::Synergy);
        let i = table_ii(&p, Design::Itesp);
        assert!(rel(s.case1_sdc, 1.0320e-15) < 1e-4, "{:e}", s.case1_sdc);
        assert!(rel(s.case3_due, 8.2560e-15) < 1e-4, "{:e}", s.case3_due);
        assert!(rel(s.case4_due, 1.00667e-2) < 1e-4, "{:e}", s.case4_due);
        assert!(rel(i.case4_due, 3.61141e-1) < 1e-4, "{:e}", i.case4_due);
    }

    #[test]
    fn scrub_on_detect_recovers_orders_of_magnitude() {
        // Shrinking the window from 1 hour to ~3.6 seconds recovers the
        // three orders of magnitude the paper claims.
        let f = scrub_on_detect_improvement(&defaults(), 3.6);
        assert!((f - 1000.0).abs() < 1e-9);
        let i = table_ii(&defaults(), Design::Itesp);
        assert!(i.case4_due / f < table_ii(&defaults(), Design::Synergy).case4_due);
    }

    #[test]
    fn shorter_scrub_reduces_double_error_rates() {
        let mut p = defaults();
        let base = table_ii(&p, Design::Itesp);
        p.scrub_hours = 0.1;
        let tighter = table_ii(&p, Design::Itesp);
        assert!((base.case4_due / tighter.case4_due - 10.0).abs() < 1e-6);
        // Single-error cases are unaffected by the scrub interval.
        assert_eq!(base.case1_sdc, tighter.case1_sdc);
        assert_eq!(base.case3_due, tighter.case3_due);
    }

    #[test]
    fn sixty_three_bit_mac_doubles_collision_rates() {
        let mut p = defaults();
        p.mac_bits = 63;
        let wide = table_ii(&defaults(), Design::Synergy);
        let narrow = table_ii(&p, Design::Synergy);
        assert!((narrow.case1_sdc / wide.case1_sdc - 2.0).abs() < 1e-9);
    }
}
