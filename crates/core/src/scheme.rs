//! The secure-memory designs evaluated in the paper.
//!
//! [`Scheme`] enumerates every bar of Figures 8 and 11; [`SchemeSpec`]
//! is the mechanical description the engine executes. The progression
//! mirrors the paper's narrative:
//!
//! 1. `Vault` — separate MAC + counter tree (VAULT baseline);
//! 2. `ItVault` — + isolated trees and metadata caches;
//! 3. `Synergy` — MAC moved into the ECC field, per-block parity;
//! 4. `ItSynergy` — + isolation;
//! 5. `ItSynergyParityCache` — + coalescing parity cache;
//! 6. `ItSynergySharedParity` — parity shared across 8 ranks (RMW);
//! 7. `ItSynergySharedParityCache` — shared parity + parity cache;
//! 8. `Itesp` — shared parity embedded in the tree leaves;
//! 9. `Syn128` / `ItSyn128` / `Itesp64` / `Itesp128` — the Morphable-
//!    counter family of Figure 11.
//!
//! Two related-work baselines extend the matrix beyond the paper's
//! tree-walk lineage (see PAPERS.md):
//!
//! 10. `SecDdr` — link-level authentication at the DDR interface
//!     (arXiv:2209.00685): per-link MAC carried in the ECC transfer
//!     plus on-chip anti-replay counters, no integrity tree at all;
//! 11. `IrOram` — integrity + reliability on Ring ORAM
//!     (arXiv:2012.14318): every access walks an ORAM bucket path,
//!     with parity-based correction over the buckets.
//!
//! Each scheme is executed by one of three [`ModelFamily`] traffic
//! models behind the `SchemeModel` trait (see [`crate::model`]).

use serde::{Deserialize, Serialize};

use crate::tree::TreeGeometry;

/// How error-correction parity is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParityMode {
    /// No separate parity structure (baseline ECC lives in the 9th chip,
    /// transferred inline with data).
    None,
    /// Synergy: one 64-bit parity word per data block, written on every
    /// data write (needs DRAM write masking).
    PerBlock,
    /// Parity XOR-shared by N blocks in different ranks; updates are
    /// read-modify-writes (Section III-C).
    Shared(u64),
    /// Shared parity embedded in the tree leaf (ITESP, Section III-D).
    Embedded,
}

/// Which counter-tree family a scheme uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeKind {
    /// No integrity protection (non-secure baseline).
    None,
    /// VAULT arities 64/32/16.
    Vault,
    /// VAULT-based ITESP: leaf 32 + embedded parity.
    VaultItesp,
    /// Morphable, arity 128 throughout (SYN128).
    Morphable128,
    /// ITESP 64: leaf 64 + embedded parity, 128 above.
    MorphItesp64,
    /// ITESP 128: leaf 128 + embedded parity.
    MorphItesp128,
}

impl TreeKind {
    /// Instantiate the geometry over `data_blocks`.
    pub fn geometry(self, data_blocks: u64) -> Option<TreeGeometry> {
        match self {
            TreeKind::None => None,
            TreeKind::Vault => Some(TreeGeometry::vault(data_blocks)),
            TreeKind::VaultItesp => Some(TreeGeometry::vault_itesp(data_blocks)),
            TreeKind::Morphable128 => Some(TreeGeometry::syn128(data_blocks)),
            TreeKind::MorphItesp64 => Some(TreeGeometry::itesp64(data_blocks)),
            TreeKind::MorphItesp128 => Some(TreeGeometry::itesp128(data_blocks)),
        }
    }
}

/// Mechanical description of a secure-memory design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeSpec {
    pub tree: TreeKind,
    /// Per-enclave trees and metadata-cache partitions (Section III-A).
    pub isolated: bool,
    /// MAC transferred in the ECC field with the data (Synergy) instead
    /// of via a separate MAC structure (VAULT).
    pub mac_inline: bool,
    pub parity: ParityMode,
    /// On-chip coalescing parity cache (never filled by reads).
    pub parity_cached: bool,
}

/// Every evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Non-secure baseline: plain ECC DIMM.
    Unsecure,
    /// VAULT: separate MAC store + VAULT tree, shared across programs.
    Vault,
    /// VAULT with isolated trees and metadata caches.
    ItVault,
    /// VAULT + Synergy: MAC inline, per-block parity, shared tree.
    Synergy,
    /// Synergy with isolation.
    ItSynergy,
    /// Isolated Synergy plus a coalescing parity cache.
    ItSynergyParityCache,
    /// Isolated Synergy with shared parity, no parity cache.
    ItSynergySharedParity,
    /// Isolated Synergy with shared parity and a parity cache.
    ItSynergySharedParityCache,
    /// The proposal: isolated tree with embedded shared parity.
    Itesp,
    /// Morphable-counter Synergy (arity 128), shared.
    Syn128,
    /// Morphable-counter Synergy with isolation.
    ItSyn128,
    /// ITESP on Morphable counters, leaf arity 64.
    Itesp64,
    /// ITESP on Morphable counters, leaf arity 128.
    Itesp128,
    /// SecDDR baseline: link-level MAC in the ECC transfer + on-chip
    /// anti-replay counters at the DDR interface. No tree, no on-chip
    /// metadata cache pressure, detection-only reliability.
    SecDdr,
    /// IRO baseline: integrity + reliability on Ring ORAM — bucket-path
    /// accesses hide the address trace, bucket parity corrects.
    IrOram,
}

/// Which traffic model executes a scheme (the `SchemeModel`
/// implementations in [`crate::model`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelFamily {
    /// Counter-tree walk per access (every scheme of the paper's own
    /// lineage, including the treeless `Unsecure` degenerate case).
    TreeWalk,
    /// Link-level authentication at the memory interface: zero extra
    /// transactions (SecDDR).
    LinkLevel,
    /// ORAM bucket-path accesses with position remapping (IRO).
    Oram,
}

/// What an off-chip observer learns — the x-axis classes of the
/// `figpareto` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LeakageClass {
    /// Shared metadata structures: cross-program cache occupancy and
    /// tree-walk timing leak between tenants (VAULT/Synergy family).
    SharedMetadata,
    /// Per-enclave trees and cache partitions close the metadata side
    /// channel; the address trace itself remains visible.
    IsolatedMetadata,
    /// No off-chip metadata at all — only the data address trace is
    /// observable (Unsecure, SecDDR).
    InterfaceOnly,
    /// ORAM: the address trace is hidden too.
    PatternHidden,
}

impl LeakageClass {
    /// Plot ordering: most leaky first.
    pub fn index(self) -> usize {
        match self {
            LeakageClass::SharedMetadata => 0,
            LeakageClass::IsolatedMetadata => 1,
            LeakageClass::InterfaceOnly => 2,
            LeakageClass::PatternHidden => 3,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            LeakageClass::SharedMetadata => "shared-metadata",
            LeakageClass::IsolatedMetadata => "isolated-metadata",
            LeakageClass::InterfaceOnly => "interface-only",
            LeakageClass::PatternHidden => "pattern-hidden",
        }
    }
}

impl Scheme {
    /// Every design point, in the paper's narrative order, then the
    /// related-work baselines.
    pub const ALL: [Scheme; 15] = [
        Scheme::Unsecure,
        Scheme::Vault,
        Scheme::ItVault,
        Scheme::Synergy,
        Scheme::ItSynergy,
        Scheme::ItSynergyParityCache,
        Scheme::ItSynergySharedParity,
        Scheme::ItSynergySharedParityCache,
        Scheme::Itesp,
        Scheme::Syn128,
        Scheme::ItSyn128,
        Scheme::Itesp64,
        Scheme::Itesp128,
        Scheme::SecDdr,
        Scheme::IrOram,
    ];

    /// Parse a figure label (e.g. `"ITSYN+SP"`) back into a scheme.
    /// Case-insensitive.
    ///
    /// # Errors
    /// [`crate::Error::UnknownScheme`] listing the valid labels.
    pub fn from_label(label: &str) -> Result<Scheme, crate::Error> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(label))
            .ok_or_else(|| crate::Error::UnknownScheme(label.to_owned()))
    }

    /// The eight Figure 8 bars, in plotting order.
    pub const FIGURE_8: [Scheme; 8] = [
        Scheme::Vault,
        Scheme::ItVault,
        Scheme::Synergy,
        Scheme::ItSynergy,
        Scheme::ItSynergyParityCache,
        Scheme::ItSynergySharedParity,
        Scheme::ItSynergySharedParityCache,
        Scheme::Itesp,
    ];

    /// The Figure 11 bars (Morphable-counter family), in plotting order.
    pub const FIGURE_11: [Scheme; 5] = [
        Scheme::Synergy,
        Scheme::Syn128,
        Scheme::ItSyn128,
        Scheme::Itesp64,
        Scheme::Itesp128,
    ];

    /// Mechanical spec for this design point.
    pub fn spec(self) -> SchemeSpec {
        use Scheme::*;
        match self {
            Unsecure => SchemeSpec {
                tree: TreeKind::None,
                isolated: false,
                mac_inline: true,
                parity: ParityMode::None,
                parity_cached: false,
            },
            Vault => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: false,
                mac_inline: false,
                parity: ParityMode::None,
                parity_cached: false,
            },
            ItVault => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: true,
                mac_inline: false,
                parity: ParityMode::None,
                parity_cached: false,
            },
            Synergy => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: false,
                mac_inline: true,
                parity: ParityMode::PerBlock,
                parity_cached: false,
            },
            ItSynergy => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::PerBlock,
                parity_cached: false,
            },
            ItSynergyParityCache => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::PerBlock,
                parity_cached: true,
            },
            ItSynergySharedParity => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::Shared(8),
                parity_cached: false,
            },
            ItSynergySharedParityCache => SchemeSpec {
                tree: TreeKind::Vault,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::Shared(8),
                parity_cached: true,
            },
            Itesp => SchemeSpec {
                tree: TreeKind::VaultItesp,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::Embedded,
                parity_cached: false,
            },
            Syn128 => SchemeSpec {
                tree: TreeKind::Morphable128,
                isolated: false,
                mac_inline: true,
                parity: ParityMode::PerBlock,
                parity_cached: false,
            },
            ItSyn128 => SchemeSpec {
                tree: TreeKind::Morphable128,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::PerBlock,
                parity_cached: false,
            },
            Itesp64 => SchemeSpec {
                tree: TreeKind::MorphItesp64,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::Embedded,
                parity_cached: false,
            },
            Itesp128 => SchemeSpec {
                tree: TreeKind::MorphItesp128,
                isolated: true,
                mac_inline: true,
                parity: ParityMode::Embedded,
                parity_cached: false,
            },
            // Link-level MAC rides the ECC transfer; anti-replay
            // counters stay on chip. Nothing is cached, nothing walks.
            SecDdr => SchemeSpec {
                tree: TreeKind::None,
                isolated: false,
                mac_inline: true,
                parity: ParityMode::None,
                parity_cached: false,
            },
            // The ORAM bucket tree is not a counter tree (TreeKind
            // drives counter-tree geometry only); bucket parity is
            // XOR-shared by 8 blocks, like the paper's shared parity.
            IrOram => SchemeSpec {
                tree: TreeKind::None,
                isolated: false,
                mac_inline: true,
                parity: ParityMode::Shared(8),
                parity_cached: false,
            },
        }
    }

    /// Which `SchemeModel` implementation executes this scheme.
    pub fn family(self) -> ModelFamily {
        match self {
            Scheme::SecDdr => ModelFamily::LinkLevel,
            Scheme::IrOram => ModelFamily::Oram,
            _ => ModelFamily::TreeWalk,
        }
    }

    /// What an off-chip observer learns under this scheme.
    pub fn leakage_class(self) -> LeakageClass {
        use Scheme::*;
        match self {
            Unsecure | SecDdr => LeakageClass::InterfaceOnly,
            Vault | Synergy | Syn128 => LeakageClass::SharedMetadata,
            IrOram => LeakageClass::PatternHidden,
            _ => LeakageClass::IsolatedMetadata,
        }
    }

    /// Off-chip storage overhead as a fraction of protected data — the
    /// `figpareto` y-axis. Tree fraction from the geometry over the
    /// evaluation span, MAC/parity fractions from the spec (one 8 B MAC
    /// or parity word per 64 B block, shared parity amortized over the
    /// group).
    pub fn storage_overhead(self) -> f64 {
        match self.family() {
            ModelFamily::TreeWalk => {
                let spec = self.spec();
                let tree = spec.tree.geometry(1 << 24).map_or(0.0, |g| {
                    g.storage_bytes() as f64 / ((1u64 << 24) * 64) as f64
                });
                let mac = if spec.mac_inline { 0.0 } else { 0.125 };
                let parity = match spec.parity {
                    ParityMode::None => 0.0,
                    ParityMode::PerBlock => 0.125,
                    ParityMode::Shared(share) => 0.125 / share as f64,
                    ParityMode::Embedded => 0.0, // rides in the leaf
                };
                tree + mac + parity
            }
            // MAC displaces the ECC redundancy on the link; counters
            // never leave the chip.
            ModelFamily::LinkLevel => 0.0,
            // The bucket tree doubles the footprint (2N-1 buckets for N
            // blocks of data at the leaves' slots), plus one parity
            // word per 8-bucket group.
            ModelFamily::Oram => 1.0 + 0.125 / 8.0,
        }
    }

    /// Label used by the figure regenerators.
    pub fn label(self) -> &'static str {
        use Scheme::*;
        match self {
            Unsecure => "UNSECURE",
            Vault => "VAULT",
            ItVault => "ITVAULT",
            Synergy => "SYNERGY",
            ItSynergy => "ITSYNERGY",
            ItSynergyParityCache => "ITSYN+P$",
            ItSynergySharedParity => "ITSYN+SP",
            ItSynergySharedParityCache => "ITSYN+SP+P$",
            Itesp => "ITESP",
            Syn128 => "SYN128",
            ItSyn128 => "ITSYN128",
            Itesp64 => "ITESP64",
            Itesp128 => "ITESP128",
            SecDdr => "SECDDR",
            IrOram => "IRORAM",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = crate::Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::from_label(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_8_has_eight_schemes() {
        assert_eq!(Scheme::FIGURE_8.len(), 8);
        assert_eq!(*Scheme::FIGURE_8.last().unwrap(), Scheme::Itesp);
    }

    #[test]
    fn itesp_is_isolated_inline_and_embedded() {
        let s = Scheme::Itesp.spec();
        assert!(s.isolated);
        assert!(s.mac_inline);
        assert_eq!(s.parity, ParityMode::Embedded);
        assert_eq!(s.tree, TreeKind::VaultItesp);
    }

    #[test]
    fn vault_uses_separate_mac() {
        assert!(!Scheme::Vault.spec().mac_inline);
        assert!(Scheme::Synergy.spec().mac_inline);
    }

    #[test]
    fn unsecure_has_no_metadata() {
        let s = Scheme::Unsecure.spec();
        assert_eq!(s.tree, TreeKind::None);
        assert_eq!(s.parity, ParityMode::None);
        assert!(s.tree.geometry(1 << 20).is_none());
    }

    #[test]
    fn isolation_flags_follow_the_narrative() {
        assert!(!Scheme::Vault.spec().isolated);
        assert!(Scheme::ItVault.spec().isolated);
        assert!(!Scheme::Synergy.spec().isolated);
        assert!(Scheme::ItSynergy.spec().isolated);
    }

    #[test]
    fn shared_parity_span() {
        match Scheme::ItSynergySharedParity.spec().parity {
            ParityMode::Shared(n) => assert_eq!(n, 8),
            other => panic!("expected shared parity, got {other:?}"),
        }
    }

    #[test]
    fn geometries_instantiate() {
        for s in Scheme::FIGURE_8.iter().chain(Scheme::FIGURE_11.iter()) {
            let spec = s.spec();
            let g = spec.tree.geometry(1 << 24);
            assert!(g.is_some(), "{s} should have a tree");
        }
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Scheme::ALL.len());
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_label(s.label()).unwrap(), s);
            assert_eq!(s.label().parse::<Scheme>().unwrap(), s);
            // Case-insensitive parse.
            assert_eq!(Scheme::from_label(&s.label().to_lowercase()).unwrap(), s);
        }
        match Scheme::from_label("NOT-A-SCHEME") {
            Err(crate::Error::UnknownScheme(l)) => assert_eq!(l, "NOT-A-SCHEME"),
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
    }

    /// Property: for every scheme, every single-character mutation of
    /// its label (append, truncate, or substitute) either stays a valid
    /// label of the *same* scheme (a case flip) or is rejected with
    /// [`crate::Error::UnknownScheme`] whose message enumerates all 15
    /// valid labels — near-misses never silently alias to a neighbor.
    #[test]
    fn label_near_misses_are_rejected_with_the_full_menu() {
        let check_reject = |cand: &str| match Scheme::from_label(cand) {
            Ok(s) => assert!(
                s.label().eq_ignore_ascii_case(cand),
                "near-miss {cand:?} aliased to {s:?}"
            ),
            Err(e @ crate::Error::UnknownScheme(_)) => {
                let msg = e.to_string();
                assert!(msg.contains(&format!("{cand:?}")), "{msg}");
                for s in Scheme::ALL {
                    assert!(msg.contains(s.label()), "missing {} in: {msg}", s.label());
                }
            }
            Err(other) => panic!("expected UnknownScheme for {cand:?}, got {other:?}"),
        };
        for s in Scheme::ALL {
            let label = s.label();
            // Appends.
            for ch in ['2', 'X', ' ', '$'] {
                check_reject(&format!("{label}{ch}"));
            }
            // Truncation.
            check_reject(&label[..label.len() - 1]);
            // Single-character substitutions at every position.
            for i in 0..label.len() {
                for ch in ['Q', '-', '0'] {
                    let mut cand = label.as_bytes().to_vec();
                    cand[i] = ch as u8;
                    check_reject(std::str::from_utf8(&cand).unwrap());
                }
            }
        }
        // The named near-misses from the issue, explicitly.
        for cand in ["SECDDR2", "IR-ORAM", "ITESP_", "SYNERGY64"] {
            assert!(
                matches!(
                    Scheme::from_label(cand),
                    Err(crate::Error::UnknownScheme(_))
                ),
                "{cand:?} must not parse"
            );
        }
    }

    #[test]
    fn tree_lineage_is_all_minus_the_baselines() {
        assert_eq!(Scheme::ALL.len(), 15);
        for s in &Scheme::ALL[..13] {
            assert_eq!(s.family(), ModelFamily::TreeWalk);
        }
        assert_eq!(Scheme::SecDdr.family(), ModelFamily::LinkLevel);
        assert_eq!(Scheme::IrOram.family(), ModelFamily::Oram);
    }

    #[test]
    fn leakage_classes_follow_the_taxonomy() {
        assert_eq!(Scheme::Vault.leakage_class(), LeakageClass::SharedMetadata);
        assert_eq!(
            Scheme::Itesp.leakage_class(),
            LeakageClass::IsolatedMetadata
        );
        assert_eq!(Scheme::SecDdr.leakage_class(), LeakageClass::InterfaceOnly);
        assert_eq!(
            Scheme::Unsecure.leakage_class(),
            LeakageClass::InterfaceOnly
        );
        assert_eq!(Scheme::IrOram.leakage_class(), LeakageClass::PatternHidden);
    }

    #[test]
    fn storage_overheads_are_ordered_sensibly() {
        // No off-chip metadata at the extremes of the security axis.
        assert_eq!(Scheme::Unsecure.storage_overhead(), 0.0);
        assert_eq!(Scheme::SecDdr.storage_overhead(), 0.0);
        // VAULT pays a separate MAC structure on top of its tree.
        assert!(Scheme::Vault.storage_overhead() > Scheme::Itesp.storage_overhead());
        // Embedding parity in the leaves is far cheaper than a
        // per-block parity region, and lands within a rounding error
        // of the shared-parity region it replaces (the paper's win is
        // parity *traffic*, not raw bytes).
        assert!(Scheme::Itesp.storage_overhead() < Scheme::ItSynergy.storage_overhead());
        let itesp = Scheme::Itesp.storage_overhead();
        let shared = Scheme::ItSynergySharedParity.storage_overhead();
        assert!((itesp - shared).abs() / shared < 0.05);
        // ORAM doubles the footprint.
        assert!(Scheme::IrOram.storage_overhead() > 1.0);
    }
}
