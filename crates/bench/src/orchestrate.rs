//! Fault-tolerant job fan-out: the mechanism under the checkpointed
//! campaigns ([`crate::run_campaign`]).
//!
//! The implementation lives in [`itesp_orchestrate`] so the serving
//! side (`itesp-serve`) shares the exact same timeout/retry/backoff
//! machinery as the batch fan-out; this module re-exports it under the
//! historical `itesp_bench::orchestrate` path. Behavior is unchanged:
//! every figure target runs on the same code it always did.

pub use itesp_orchestrate::{run_isolated, run_policied, JobOutcome, JobPolicy};
