//! # itesp-trace — synthetic workload substrate
//!
//! The paper drives USIMM with Pin-captured, LLC-filtered traces of 31
//! benchmarks (SPEC2017, GAP, NAS — Table IV) plus page-table dumps that
//! capture how co-scheduled programs intermingle physical pages. Neither
//! Pin traces nor page-table dumps are available here, so this crate
//! provides the substitute:
//!
//! * [`suites`] — the 31 benchmarks with Table IV working sets and
//!   per-family locality/intensity parameters;
//! * [`workload`] — deterministic generative models producing
//!   LLC-filtered virtual traces;
//! * [`pages`] — the simulated OS free list and first-touch physical
//!   page mapping (interleaved across programs, as a real OS free list
//!   would);
//! * [`multiprog`] — 4/8-copy multiprogrammed composition;
//! * [`churn`] — multi-tenant enclave session schedules (Poisson
//!   arrivals, bounded footprints, mid-life page frees) for the
//!   lifecycle experiments.
//!
//! ```
//! use itesp_trace::{suites::benchmark, MultiProgram};
//!
//! let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 1000, 42);
//! assert_eq!(mp.copies(), 4);
//! ```

pub mod churn;
pub mod error;
pub mod multiprog;
pub mod pages;
pub mod record;
pub mod stream;
pub mod suites;
pub mod workload;

pub use churn::{ChurnConfig, ChurnSession, ChurnWorkload, FlatArrival, PageFree};
pub use error::TraceError;
pub use multiprog::MultiProgram;
pub use pages::{FrameAllocator, FreeListModel, PageMapper};
pub use record::{MemOp, PhysRecord, TraceRecord, PAGE_BYTES, PAGE_SHIFT};
pub use stream::{encode_records, StreamDecoder, STREAM_CELL};
pub use suites::{
    benchmark, benchmark_or_err, memory_intensive, AccessPattern, Benchmark, Suite, BENCHMARKS,
};
pub use workload::{WorkloadGen, WorkloadParams};
