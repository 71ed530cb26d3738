//! Address mapping policies (Figure 14 of the paper).
//!
//! The policy decides how the bits of a physical block address are split
//! among channel, rank, bank, row, and column. This controls both
//! row-buffer locality (consecutive blocks in the same row hit in the row
//! buffer) and, for ITESP, metadata-cache locality (blocks sharing a leaf
//! node should be adjacent) and chipkill constraints (blocks sharing a
//! parity must sit in different ranks).
//!
//! The four policies of Figure 14, from least-significant bit upward
//! (after the 6-bit block offset and the channel bits):
//!
//! * **Column** — `| row | rank | bank | column |`: consecutive blocks
//!   fill a row buffer; best row-buffer hit rate, worst parity spread.
//! * **Rank** — `| row | bank | column | rank |`: consecutive blocks
//!   round-robin across ranks; best parity spread, worst row locality.
//! * **RowBufferHit2** — `| row | bank | col_hi | rank | col_lo(1) |`:
//!   2 consecutive blocks share a row, then switch rank.
//! * **RowBufferHit4** — `| row | bank | col_hi | rank | col_lo(2) |`:
//!   4 consecutive blocks share a row, then switch rank. A leaf node in
//!   ITESP holds 4 shared parities, so these 4 blocks also share a leaf.

use itesp_snap::Persist;
use serde::Serialize;

use crate::config::{DramGeometry, BLOCK_SHIFT};

/// How physical addresses map onto DRAM coordinates. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AddressMapping {
    /// Consecutive blocks in one row buffer (baseline Synergy's best).
    Column,
    /// Consecutive blocks across ranks.
    Rank,
    /// Pairs of blocks share a row, then rank-interleave.
    RowBufferHit2,
    /// Quads of blocks share a row, then rank-interleave (ITESP's best).
    RowBufferHit4,
}

impl AddressMapping {
    /// All policies, in the order plotted by Figure 15.
    pub const ALL: [AddressMapping; 4] = [
        AddressMapping::Column,
        AddressMapping::Rank,
        AddressMapping::RowBufferHit2,
        AddressMapping::RowBufferHit4,
    ];

    /// Short display label used by the figure regenerators.
    pub fn label(self) -> &'static str {
        match self {
            AddressMapping::Column => "Column",
            AddressMapping::Rank => "Rank",
            AddressMapping::RowBufferHit2 => "2-RBH",
            AddressMapping::RowBufferHit4 => "4-RBH",
        }
    }
}

/// A physical address decoded into DRAM coordinates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Persist)]
pub struct DecodedAddr {
    pub channel: u32,
    pub rank: u32,
    pub bank: u32,
    pub row: u32,
    pub column: u32,
}

impl DecodedAddr {
    /// Flat bank index within the whole system (channel-major), handy for
    /// indexing per-bank state.
    pub fn flat_bank(&self, g: &DramGeometry) -> usize {
        ((self.channel * g.ranks_per_channel + self.rank) * g.banks_per_rank + self.bank) as usize
    }
}

/// Splits physical byte addresses into DRAM coordinates per a policy.
#[derive(Debug, Clone, Copy)]
pub struct AddressDecoder {
    geometry: DramGeometry,
    mapping: AddressMapping,
}

impl AddressDecoder {
    pub fn new(geometry: DramGeometry, mapping: AddressMapping) -> Self {
        AddressDecoder { geometry, mapping }
    }

    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Decode a physical *byte* address. Addresses beyond the installed
    /// capacity wrap (the simulator treats the address space as folded).
    pub fn decode(&self, phys_addr: u64) -> DecodedAddr {
        let g = &self.geometry;
        let mut a = (phys_addr >> BLOCK_SHIFT) % g.capacity_blocks();

        let mut take = |bits: u32| -> u32 {
            let v = (a & ((1 << bits) - 1)) as u32;
            a >>= bits;
            v
        };

        // Channel interleaving always happens at block granularity.
        let channel = take(g.channel_bits());

        let (rank, bank, row, column) = match self.mapping {
            AddressMapping::Column => {
                let column = take(g.column_bits());
                let bank = take(g.bank_bits());
                let rank = take(g.rank_bits());
                let row = take(g.row_bits());
                (rank, bank, row, column)
            }
            AddressMapping::Rank => {
                let rank = take(g.rank_bits());
                let column = take(g.column_bits());
                let bank = take(g.bank_bits());
                let row = take(g.row_bits());
                (rank, bank, row, column)
            }
            AddressMapping::RowBufferHit2 => self.rbh(&mut take, 1),
            AddressMapping::RowBufferHit4 => self.rbh(&mut take, 2),
        };

        DecodedAddr {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// Shared decode for the row-buffer-hit policies: `lo_bits` column
    /// bits stay below the rank field.
    fn rbh(&self, take: &mut impl FnMut(u32) -> u32, lo_bits: u32) -> (u32, u32, u32, u32) {
        let g = &self.geometry;
        let col_lo = take(lo_bits);
        let rank = take(g.rank_bits());
        let col_hi = take(g.column_bits() - lo_bits);
        let bank = take(g.bank_bits());
        let row = take(g.row_bits());
        (rank, bank, row, (col_hi << lo_bits) | col_lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BLOCK_BYTES;

    fn decoder(m: AddressMapping) -> AddressDecoder {
        AddressDecoder::new(DramGeometry::table_iii(), m)
    }

    #[test]
    fn column_policy_keeps_consecutive_blocks_in_one_row() {
        let d = decoder(AddressMapping::Column);
        let base = d.decode(0);
        for i in 1..128 {
            let a = d.decode(i * BLOCK_BYTES);
            assert_eq!(a.row, base.row);
            assert_eq!(a.bank, base.bank);
            assert_eq!(a.rank, base.rank);
            assert_eq!(a.column, i as u32);
        }
        // Block 128 moves to the next bank.
        let next = d.decode(128 * BLOCK_BYTES);
        assert_ne!(next.bank, base.bank);
    }

    #[test]
    fn rank_policy_rotates_ranks_every_block() {
        let d = decoder(AddressMapping::Rank);
        for i in 0..32 {
            let a = d.decode(i * BLOCK_BYTES);
            assert_eq!(a.rank, (i % 16) as u32);
        }
    }

    #[test]
    fn rbh4_gives_runs_of_four_then_rank_switch() {
        let d = decoder(AddressMapping::RowBufferHit4);
        let first = d.decode(0);
        for i in 0..4 {
            let a = d.decode(i * BLOCK_BYTES);
            assert_eq!(a.rank, first.rank);
            assert_eq!(a.row, first.row);
        }
        let fifth = d.decode(4 * BLOCK_BYTES);
        assert_eq!(fifth.rank, first.rank + 1);
        // After all 16 ranks, we return to rank 0 in the same row.
        let wrap = d.decode(4 * 16 * BLOCK_BYTES);
        assert_eq!(wrap.rank, first.rank);
        assert_eq!(wrap.row, first.row);
        assert_eq!(wrap.bank, first.bank);
        assert_eq!(wrap.column, 4);
    }

    #[test]
    fn rbh2_gives_runs_of_two() {
        let d = decoder(AddressMapping::RowBufferHit2);
        let a0 = d.decode(0);
        let a1 = d.decode(BLOCK_BYTES);
        let a2 = d.decode(2 * BLOCK_BYTES);
        assert_eq!(a0.rank, a1.rank);
        assert_ne!(a0.rank, a2.rank);
    }

    #[test]
    fn decode_is_a_bijection_on_a_sample() {
        // Distinct block addresses must land on distinct coordinates.
        use std::collections::HashSet;
        for m in AddressMapping::ALL {
            let d = decoder(m);
            let mut seen = HashSet::new();
            for i in 0..4096u64 {
                let a = d.decode(i * BLOCK_BYTES);
                assert!(seen.insert(a), "collision under {m:?} at block {i}");
            }
        }
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let d = decoder(AddressMapping::Column);
        let cap = DramGeometry::table_iii().capacity_bytes();
        assert_eq!(d.decode(cap + 64), d.decode(64));
    }

    #[test]
    fn two_channel_interleaves_blocks() {
        let d = AddressDecoder::new(DramGeometry::two_channel(), AddressMapping::RowBufferHit4);
        assert_eq!(d.decode(0).channel, 0);
        assert_eq!(d.decode(64).channel, 1);
        assert_eq!(d.decode(128).channel, 0);
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let g = DramGeometry::table_iii();
        let d = decoder(AddressMapping::Rank);
        let mut seen = std::collections::HashSet::new();
        for i in 0..(16 * 8) {
            // Walk rank-major addresses to touch every (rank, bank) pair.
            let a = d.decode(i * BLOCK_BYTES * 16 + (i % 16) * BLOCK_BYTES);
            seen.insert(a.flat_bank(&g));
        }
        let total = (g.ranks_per_channel * g.banks_per_rank) as usize;
        for fb in seen {
            assert!(fb < total);
        }
    }
}
