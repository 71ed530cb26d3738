//! Trace record types.
//!
//! Traces are LLC-filtered, as in the paper's methodology: each record is
//! one memory access that missed the 8 MB LLC (or a dirty writeback),
//! preceded by `gap` CPU cycles of non-memory work. The ROB model in
//! `itesp-sim` replays these records.

use itesp_snap::Persist;
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize, Persist)]
pub enum MemOp {
    /// A demand read (LLC load miss); blocks retirement at ROB head.
    #[default]
    Read,
    /// A writeback (dirty LLC eviction); retires into the write queue.
    Write,
}

/// One record of a virtual-address trace, before page mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// CPU cycles of non-memory instructions preceding this access.
    pub gap: u32,
    pub op: MemOp,
    /// Virtual byte address (block aligned).
    pub vaddr: u64,
}

/// One record of a physical-address trace, after page mapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize, Persist)]
pub struct PhysRecord {
    /// CPU cycles of non-memory instructions preceding this access.
    pub gap: u32,
    pub op: MemOp,
    /// Physical byte address (block aligned).
    pub paddr: u64,
}

impl PhysRecord {
    pub fn is_write(&self) -> bool {
        self.op == MemOp::Write
    }
}

/// Page size used for virtual-to-physical mapping and leaf-id assignment.
pub const PAGE_BYTES: u64 = 4096;
/// log2 of [`PAGE_BYTES`].
pub const PAGE_SHIFT: u32 = 12;

/// Virtual or physical page number of a byte address.
pub fn page_of(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Byte offset within its page.
pub fn page_offset(addr: u64) -> u64 {
    addr & (PAGE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_of(0), 0);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(page_offset(4096 + 128), 128);
    }

    #[test]
    fn phys_record_is_write() {
        let r = PhysRecord {
            gap: 0,
            op: MemOp::Write,
            paddr: 64,
        };
        assert!(r.is_write());
        let r = PhysRecord {
            op: MemOp::Read,
            ..r
        };
        assert!(!r.is_write());
    }
}
