//! # itesp-sim — the full-system evaluation driver
//!
//! Glues the substrates together into the paper's methodology
//! (Section IV): synthetic multi-program traces ([`itesp-trace`])
//! replayed through per-core ROB models, filtered by the security
//! metadata engine ([`itesp-core`]), into the cycle-accurate DRAM model
//! ([`itesp-dram`]).
//!
//! * [`system`] — cores, ROBs, metadata/DRAM glue, the main loop;
//! * [`churn`] — the enclave lifecycle driver: session admission,
//!   tree growth, page frees, and secure teardown under churn;
//! * [`ras`] — the online RAS pipeline: fault injection, correction
//!   traffic, patrol scrub, and page retirement;
//! * [`recovery`] — crash restore, on [`itesp_snap`]'s commit and
//!   restore path;
//! * [`stats`] — run results and normalized metrics;
//! * [`experiments`] — canned parameter sets for every figure;
//! * [`covert`] — the Figure 5 covert-channel demonstration.
//!
//! ```
//! use itesp_core::Scheme;
//! use itesp_sim::{run_named, ExperimentParams};
//!
//! let base = run_named("lbm", ExperimentParams::paper_4core(Scheme::Unsecure, 500));
//! let itesp = run_named("lbm", ExperimentParams::paper_4core(Scheme::Itesp, 500));
//! assert!(itesp.normalized_time(&base) >= 1.0);
//! ```

pub mod churn;
pub mod covert;
pub mod experiments;
pub mod ras;
pub mod recovery;
pub mod stats;
pub mod system;

pub use churn::ChurnDriver;
pub use covert::{run_channel, ChannelPoint, CovertConfig, LatencyRange};
pub use experiments::{
    build_churn_ras_system, run_experiment, run_named, run_workload, run_workload_churn,
    run_workload_ras, try_run_named, ExperimentParams,
};
pub use ras::{Drill, RasConfig, RasError, RasStats};
pub use recovery::{recover_system, RestoreError, SnapshotSink};
pub use stats::RunResult;
pub use system::{RunError, System, SystemConfig, CPU_PER_DRAM_CYCLE};
