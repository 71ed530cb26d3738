//! The Figure 5 covert channel, replayed against the simulated
//! metadata machinery.
//!
//! The paper demonstrates the channel on SGX v1 hardware; we reproduce
//! the *mechanism* on the simulator: an attacker and a victim enclave
//! whose pages are interleaved share integrity-tree nodes and metadata
//! cache sets, so the victim's activity (touching many pages vs. none)
//! modulates the attacker's probe latency. With isolated trees and
//! partitioned caches the modulation disappears.
//!
//! Protocol per measurement (Section III-B):
//! 1. the attacker touches dummy structure `D` to evict relevant
//!    metadata ("prime");
//! 2. the victim either touches `blocks` blocks of `V` (transmit 1) or
//!    stays idle (transmit 0);
//! 3. the attacker touches its structure `A` — whose pages are
//!    interleaved with `V`'s, so they share upper tree nodes — and
//!    times it ("probe"). If the victim ran, the shared nodes are warm
//!    and the attacker sees *low* latency: "a 1 is transmitted when the
//!    victim is memory-intensive and the attacker experiences low
//!    latencies".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use itesp_core::{EngineConfig, Scheme, SecurityEngine};

/// Simulated latencies per probe access (CPU cycles): an on-chip
/// metadata hit vs. a DRAM fetch per missing level.
const HIT_CYCLES: u64 = 2;
const MISS_CYCLES: u64 = 200;

/// One latency sample range over repeated trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencyRange {
    pub min: u64,
    pub max: u64,
    pub mean: f64,
}

impl LatencyRange {
    fn from_samples(samples: &[u64]) -> Self {
        let min = *samples.iter().min().expect("nonempty");
        let max = *samples.iter().max().expect("nonempty");
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        LatencyRange { min, max, mean }
    }

    /// Ranges overlap when neither is strictly above the other.
    pub fn overlaps(&self, other: &LatencyRange) -> bool {
        self.min <= other.max && other.min <= self.max
    }
}

/// Result of one covert-channel experiment at a given block count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChannelPoint {
    /// Blocks touched per measurement.
    pub blocks: usize,
    /// Attacker probe latency when the victim transmits 0 (idle).
    pub zero: LatencyRange,
    /// Attacker probe latency when the victim transmits 1 (active).
    pub one: LatencyRange,
}

impl ChannelPoint {
    /// The channel is reliable when the 0- and 1-ranges don't overlap.
    pub fn reliable(&self) -> bool {
        !self.zero.overlaps(&self.one)
    }

    /// Estimated channel bandwidth in bits/s at a 3.2 GHz clock, from
    /// the mean measurement duration (prime + transmit + probe ~ 3
    /// structure sweeps).
    pub fn bandwidth_bps(&self) -> f64 {
        let cycles_per_bit = 3.0 * self.zero.mean.max(self.one.mean).max(1.0);
        3.2e9 / cycles_per_bit
    }
}

/// Configuration of the covert-channel experiment.
#[derive(Debug, Clone, Copy)]
pub struct CovertConfig {
    /// Secure-memory design under attack.
    pub scheme: Scheme,
    /// Measurement trials per point.
    pub trials: usize,
    /// RNG seed for page placement noise.
    pub seed: u64,
}

impl Default for CovertConfig {
    fn default() -> Self {
        CovertConfig {
            scheme: Scheme::Vault,
            trials: 10,
            seed: 42,
        }
    }
}

/// Engine wrapper exposing prime/touch/probe in terms of enclave pages.
struct Harness {
    engine: SecurityEngine,
    /// Physical page of (enclave, page-index): interleaved or separated.
    interleaved: bool,
}

const ATTACKER: usize = 0;
const VICTIM: usize = 1;
/// 4 KB pages; one block per page touched.
const PAGE: u64 = 4096;

impl Harness {
    fn new(scheme: Scheme, interleaved: bool) -> Self {
        let cfg = EngineConfig {
            enclaves: 2,
            // Small metadata cache, as in the paper's MEE-like setup.
            metadata_cache_bytes: 16 << 10,
            ..EngineConfig::paper_default(scheme)
        };
        Harness {
            engine: SecurityEngine::new(cfg),
            interleaved,
        }
    }

    /// Physical address of `enclave`'s page `i`: interleaved placement
    /// alternates attacker/victim pages, separated placement gives each
    /// a contiguous region.
    fn paddr(&self, enclave: usize, page: u64) -> u64 {
        if self.interleaved {
            (page * 2 + enclave as u64) * PAGE
        } else {
            (enclave as u64) * (1 << 30) + page * PAGE
        }
    }

    /// Touch `n` pages of `enclave` starting at page index `base`;
    /// returns simulated latency.
    fn touch(&mut self, enclave: usize, base: u64, n: usize) -> u64 {
        let mut lat = 0;
        for i in 0..n as u64 {
            let page = base + i;
            let paddr = self.paddr(enclave, page);
            let eb = page * (PAGE / 64);
            let out = self.engine.on_access(enclave, paddr, eb, false);
            lat += if out.mem.is_empty() {
                HIT_CYCLES
            } else {
                HIT_CYCLES + MISS_CYCLES * out.mem.len() as u64
            };
        }
        lat
    }
}

/// Run the experiment of Figure 5A (interleaved pages, shared design)
/// or 5B (separated pages / isolated design) at the given block counts.
///
/// When `cfg.scheme` is isolated (e.g. [`Scheme::ItVault`]), partitioned
/// caches and private trees make placement irrelevant — that is the
/// defense.
pub fn run_channel(
    cfg: CovertConfig,
    interleaved: bool,
    block_counts: &[usize],
) -> Vec<ChannelPoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    block_counts
        .iter()
        .map(|&blocks| {
            let mut zero = Vec::with_capacity(cfg.trials);
            let mut one = Vec::with_capacity(cfg.trials);
            for bit in [false, true] {
                for _ in 0..cfg.trials {
                    let mut h = Harness::new(cfg.scheme, interleaved);
                    // Prime: attacker sweeps its dummy structure D,
                    // evicting all relevant metadata.
                    h.touch(ATTACKER, 10_000, 512);
                    // Victim transmits: touching its pages warms the
                    // tree nodes its pages share with the attacker's
                    // (interleaved placement only).
                    if bit {
                        h.touch(VICTIM, 0, blocks);
                    }
                    // Small placement noise: victim touches a few
                    // unrelated pages either way (system activity).
                    let noise = rng.gen_range(0..8);
                    h.touch(VICTIM, 50_000 + noise as u64 * 64, noise);
                    // Probe: attacker touches A cold and times it.
                    let lat = h.touch(ATTACKER, 0, blocks);
                    if bit {
                        one.push(lat);
                    } else {
                        zero.push(lat);
                    }
                }
            }
            ChannelPoint {
                blocks,
                zero: LatencyRange::from_samples(&zero),
                one: LatencyRange::from_samples(&one),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_interleaved_design_leaks() {
        let cfg = CovertConfig::default();
        let pts = run_channel(cfg, true, &[256]);
        assert!(
            pts[0].reliable(),
            "256-block probe should separate 0 from 1: {:?}",
            pts[0]
        );
        // Victim activity warms shared tree nodes: a transmitted 1 must
        // read as *lower* attacker latency (the paper's sign).
        assert!(
            pts[0].one.mean < pts[0].zero.mean,
            "1 should be faster: {:?}",
            pts[0]
        );
    }

    #[test]
    fn isolated_design_closes_the_channel() {
        let cfg = CovertConfig {
            scheme: Scheme::ItVault,
            ..Default::default()
        };
        let pts = run_channel(cfg, true, &[64, 256]);
        for p in &pts {
            assert!(
                p.zero.overlaps(&p.one) || (p.zero.mean - p.one.mean).abs() < 1.0,
                "isolation must collapse the ranges: {p:?}"
            );
        }
    }

    #[test]
    fn separated_pages_reduce_leakage_even_when_shared() {
        // Figure 5B: same shared design, non-interleaved placement.
        let cfg = CovertConfig::default();
        let inter = run_channel(cfg, true, &[256]);
        let sep = run_channel(cfg, false, &[256]);
        let gap = |p: &ChannelPoint| (p.one.mean - p.zero.mean).abs();
        assert!(
            gap(&sep[0]) < gap(&inter[0]),
            "separation should shrink the signal: {} vs {}",
            gap(&sep[0]),
            gap(&inter[0])
        );
    }

    #[test]
    fn more_blocks_improve_fidelity() {
        let cfg = CovertConfig::default();
        let pts = run_channel(cfg, true, &[16, 256]);
        let margin = |p: &ChannelPoint| p.one.mean - p.zero.mean;
        assert!(margin(&pts[1]).abs() > margin(&pts[0]).abs());
    }

    #[test]
    fn bandwidth_is_positive_and_finite() {
        let cfg = CovertConfig::default();
        let pts = run_channel(cfg, true, &[256]);
        let bw = pts[0].bandwidth_bps();
        assert!(bw > 0.0 && bw.is_finite());
    }

    #[test]
    fn latency_range_overlap_logic() {
        let a = LatencyRange {
            min: 0,
            max: 10,
            mean: 5.0,
        };
        let b = LatencyRange {
            min: 11,
            max: 20,
            mean: 15.0,
        };
        assert!(!a.overlaps(&b));
        let c = LatencyRange {
            min: 8,
            max: 12,
            mean: 10.0,
        };
        assert!(a.overlaps(&c) && c.overlaps(&b));
    }
}
