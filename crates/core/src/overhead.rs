//! Metadata memory-capacity overheads (Table I).
//!
//! Computes, for each organization, the fraction of protected memory
//! consumed by (a) the integrity tree and (b) the MAC/parity structures.
//! Synergy's MAC is free (it displaces the ECC bits on the 9th chip),
//! so its MAC/parity column is only the correction parity; ITESP's is
//! zero because the parity lives inside the tree.

use serde::Serialize;

use crate::tree::TreeGeometry;

/// One Table I row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadRow {
    pub organization: String,
    /// Integrity-tree storage / data storage.
    pub tree: f64,
    /// Separate MAC + parity storage / data storage.
    pub mac_parity: f64,
}

impl OverheadRow {
    pub fn total(&self) -> f64 {
        self.tree + self.mac_parity
    }
}

/// Span used to evaluate the asymptotic overheads (large enough that
/// upper-level rounding is negligible).
const EVAL_BLOCKS: u64 = (64u64 << 30) / 64;

/// Compute all Table I rows.
pub fn table_i() -> Vec<OverheadRow> {
    let row = |name: &str, geo: TreeGeometry, mac_parity: f64| OverheadRow {
        organization: name.to_owned(),
        tree: geo.storage_overhead(),
        mac_parity,
    };
    vec![
        // VAULT: 8 B MAC + 8 B of correction metadata rolled into the
        // MAC/parity column as 12.5% (the ECC lives on the 9th chip).
        row("VAULT", TreeGeometry::vault(EVAL_BLOCKS), 0.125),
        // Synergy128: MAC inline (free); 64-bit parity per 64 B block.
        row(
            "Synergy128, x8 chips",
            TreeGeometry::syn128(EVAL_BLOCKS),
            0.125,
        ),
        // x16 chips need twice the parity for chipkill.
        row(
            "Synergy128, x16 chips",
            TreeGeometry::syn128(EVAL_BLOCKS),
            0.25,
        ),
        // ITESP embeds parity in the tree: zero separate storage.
        row("ITESP64", TreeGeometry::itesp64(EVAL_BLOCKS), 0.0),
        row("ITESP128", TreeGeometry::itesp128(EVAL_BLOCKS), 0.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(x: f64) -> f64 {
        (x * 1000.0).round() / 10.0
    }

    #[test]
    fn table_i_matches_paper() {
        let rows = table_i();
        let by_name = |n: &str| rows.iter().find(|r| r.organization == n).unwrap();

        let vault = by_name("VAULT");
        assert!((pct(vault.tree) - 1.6).abs() <= 0.1, "{}", pct(vault.tree));
        assert_eq!(pct(vault.mac_parity), 12.5);
        assert!((pct(vault.total()) - 14.1).abs() <= 0.2);

        let syn8 = by_name("Synergy128, x8 chips");
        assert!((pct(syn8.tree) - 0.8).abs() <= 0.1);
        assert!((pct(syn8.total()) - 13.3).abs() <= 0.2);

        let syn16 = by_name("Synergy128, x16 chips");
        assert!((pct(syn16.total()) - 25.8).abs() <= 0.2);

        let itesp64 = by_name("ITESP64");
        assert!((pct(itesp64.total()) - 1.6).abs() <= 0.1);
        assert_eq!(itesp64.mac_parity, 0.0);

        let itesp128 = by_name("ITESP128");
        assert!((pct(itesp128.total()) - 0.8).abs() <= 0.1);
    }

    /// Exact node counts at the 64 GB (2³⁰-block) evaluation span, so
    /// any drift in the tree-geometry arithmetic is caught to the node,
    /// not hidden inside a percentage tolerance.
    #[test]
    fn table_i_exact_values() {
        assert_eq!(EVAL_BLOCKS, 1 << 30);

        // VAULT: 64-ary leaf level, 32/16/.../16-ary above:
        // 16,777,216 + 524,288 + 32,768 + 2,048 + 128 + 8 nodes.
        let vault = TreeGeometry::vault(EVAL_BLOCKS);
        assert_eq!(vault.total_nodes(), 17_336_456);
        assert_eq!(vault.storage_bytes(), 17_336_456 * 64);
        assert_eq!(vault.storage_overhead(), 17_336_456.0 / EVAL_BLOCKS as f64);

        // 128-ary organizations: 8,388,608 + 65,536 + 512 + 4.
        assert_eq!(TreeGeometry::syn128(EVAL_BLOCKS).total_nodes(), 8_454_660);
        assert_eq!(TreeGeometry::itesp128(EVAL_BLOCKS).total_nodes(), 8_454_660);
        // ITESP64's 64-ary leaf level exactly doubles every level.
        assert_eq!(TreeGeometry::itesp64(EVAL_BLOCKS).total_nodes(), 16_909_320);

        // The MAC/parity columns are exact by construction.
        let rows = table_i();
        let mp = |n: &str| {
            rows.iter()
                .find(|r| r.organization == n)
                .unwrap()
                .mac_parity
        };
        assert_eq!(mp("VAULT"), 0.125);
        assert_eq!(mp("Synergy128, x8 chips"), 0.125);
        assert_eq!(mp("Synergy128, x16 chips"), 0.25);
        assert_eq!(mp("ITESP64"), 0.0);
        assert_eq!(mp("ITESP128"), 0.0);
    }

    #[test]
    fn itesp_is_an_order_of_magnitude_smaller_than_synergy() {
        let rows = table_i();
        let syn = rows
            .iter()
            .find(|r| r.organization.starts_with("Synergy128, x8"))
            .unwrap()
            .total();
        let itesp = rows
            .iter()
            .find(|r| r.organization == "ITESP128")
            .unwrap()
            .total();
        assert!(syn / itesp > 10.0);
    }
}
