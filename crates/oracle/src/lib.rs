//! # itesp-oracle — differential-oracle and fault-injection harness
//!
//! Correctness tooling for the ITESP reproduction, five pillars:
//!
//! 1. [`reference`] — [`ReferenceChannel`], the straight-line FR-FCFS
//!    scheduler that the optimized [`itesp_dram::Channel`] must match
//!    command for command (`tests/scheduler_equivalence.rs`), and
//!    [`workload`], the arrival mixes and the [`Scheduler`] driver both
//!    channels run under.
//! 2. [`protocol`] — an independent DDR3 protocol checker that re-derives
//!    every Table III timing constraint from the raw [`itesp_dram::DramConfig`]
//!    and validates recorded command logs from both channels.
//! 3. [`differential`] — an analytic-vs-functional oracle driving the
//!    `itesp-core` traffic engine and `VerifiedMemory` in lockstep over
//!    randomized access streams.
//! 4. [`faults`] — a randomized chipkill fault-injection campaign whose
//!    outcomes are checked against the Table II analytical classes.
//! 5. [`seed`] — seed printing / replay (`ITESP_TEST_SEED`) and the
//!    checked-in regression corpus (`corpus/seeds.txt`); [`filter`]
//!    narrows any scheme-parameterized test to a label subset via
//!    `ITESP_SCHEME_ONLY` (CI's scheme-matrix job).
//!
//! The security engine has no twin: `tests/engine_pins.rs` pins its
//! per-access output for every scheme.
//!
//! The crate is test support: production crates must not depend on it
//! (it depends on all of them). See EXPERIMENTS.md § "Oracle test
//! harness" for the workflow.

pub mod differential;
pub mod faults;
pub mod filter;
pub mod protocol;
pub mod reference;
pub mod seed;
pub mod workload;

pub use differential::DifferentialHarness;
pub use faults::{
    classify, exhaustive_single_faults, fault_label, random_word, TrialOutcome, TrialWord,
};
pub use filter::{scheme_enabled, schemes_under_test};
pub use protocol::{ProtocolChecker, ProtocolViolation};
pub use reference::ReferenceChannel;
pub use seed::{seeds_for, with_seeds};
pub use workload::{addr_for, run_arrivals, run_stream, Arrival, Scheduler, WorkloadRun};
