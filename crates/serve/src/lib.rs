//! `itesp-serve`: the simulator as a long-running traffic endpoint.
//!
//! Batch binaries treat "millions of users" as a trace parameter; this
//! crate treats them as *tenants*: concurrent TCP clients streaming
//! length-prefixed trace records at a daemon that multiplexes them onto
//! sharded [`itesp_sim::System`] instances. The robustness layer is the
//! point — admission control with explicit `Busy` rejections, bounded
//! queues that backpressure the socket, panic-isolated shard workers
//! under a watchdog deadline shared with the batch side via
//! [`itesp_orchestrate`], and a SIGTERM drain that snapshots security
//! state via [`itesp_snap`] so a restarted daemon recovers where it
//! left off.
//!
//! Module map:
//! - [`error`] — typed `ServeError` for every way a connection can fail.
//! - [`protocol`] — the `ITSV` length-prefixed frame codec.
//! - [`tenant`] — per-tenant simulation: streamed records → `RunResult`.
//! - [`registry`] — crash-consistent per-tenant stats, snapshot wire format.
//! - [`shard`] — bounded-queue shard workers with panic isolation.
//! - [`server`] — accept loop, admission control, drain, metrics endpoint.
//! - [`daemon`] — the daemon's environment and entry point.
//! - [`chaos`] — fault injection used by the `figserve` drill.
//! - [`client`] — a well-behaved (and deliberately ill-behaved) test client.

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod error;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod shard;
pub mod tenant;

pub use error::ServeError;
pub use protocol::{Frame, FrameKind, MAX_FRAME};
pub use registry::Registry;
pub use server::{Server, ServerConfig};
pub use tenant::{run_tenant, TenantRequest, TenantStats};
