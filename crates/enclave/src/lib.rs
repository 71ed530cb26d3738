//! # itesp-enclave — multi-tenant enclave lifecycle
//!
//! The paper's isolation story (Section III) gives every enclave its
//! own integrity tree, dense first-touch leaf-ids, and a private
//! metadata-cache partition. The rest of the workspace models those
//! structures statically: trees are sized once at engine construction
//! and leaf-ids only ever grow. Server TEEs are not static — enclaves
//! spawn, outgrow their initial tree, return pages early, and exit —
//! and each transition has a security obligation attached:
//!
//! * **create** — size a private tree from the requested footprint,
//!   carve a metadata-cache share, open a fresh leaf-id namespace
//!   under a per-enclave MAC key;
//! * **grow** — when first-touch allocation exceeds the tree's leaf
//!   capacity, re-root onto a larger geometry, paying migration reads
//!   and re-initialization writes;
//! * **free/shrink** — returned leaf-ids go to a free list only after
//!   their counters are reset in memory and their parity groups are
//!   rebuilt (or broken), so a recycled leaf can never replay the
//!   previous owner's state;
//! * **destroy** — zeroize the enclave's counters and MACs, release
//!   its cache partition, and repartition the survivors
//!   deterministically.
//!
//! [`EnclaveManager`] owns that state machine and charges every
//! transition as real metadata DRAM traffic through
//! [`itesp_core::SecurityEngine`]'s lifecycle entry points.

pub mod alloc;
pub mod manager;

pub use alloc::{LeafAllocator, LeafGrant};
pub use manager::{
    Enclave, EnclaveId, EnclaveManager, EnclaveStats, LifecycleStats, PageInfo, PAGE_BLOCKS,
    PAGE_BYTES,
};
