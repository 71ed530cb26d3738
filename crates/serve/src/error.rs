//! Typed errors for every way a serving connection can fail.
//!
//! The robustness contract of the daemon is that hostile or broken
//! input — truncated frames, oversized lengths, garbage magic,
//! disconnects mid-cell, a panicking shard worker — always surfaces as
//! a [`ServeError`], never a panic, and each variant maps to a stable
//! numeric code carried on the wire in an `ErrorFrame` so clients can
//! branch without parsing prose.

use std::fmt;
use std::io;

use itesp_trace::TraceError;

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (reset, refused, broken pipe, ...).
    Io(io::Error),
    /// The peer stopped sending mid-frame.
    Truncated { needed: usize, got: usize },
    /// Frame header did not start with `ITSV`.
    BadMagic([u8; 4]),
    /// Frame kind byte outside the protocol.
    UnknownKind(u8),
    /// Declared frame length past [`crate::protocol::MAX_FRAME`].
    Oversized { len: usize, max: usize },
    /// A structurally valid frame whose payload does not decode.
    Malformed(String),
    /// Hello spoke a protocol version this build does not.
    BadVersion { got: u16, want: u16 },
    /// Hello named a scheme label not in the matrix.
    UnknownScheme(String),
    /// Streamed trace bytes failed to decode.
    Trace(TraceError),
    /// More records than the per-request cap.
    TooManyRecords { limit: u64 },
    /// `End` total disagreed with the records actually streamed.
    RecordCount { declared: u64, got: u64 },
    /// Admission control rejected the request: the shard's queue is
    /// full. Retry later.
    Busy,
    /// The daemon is draining (SIGTERM received); no new admissions.
    Draining,
    /// The shard worker exceeded its deadline.
    Timeout { ms: u64 },
    /// The shard worker panicked; the shard survives, this request
    /// does not.
    WorkerPanicked { message: String },
    /// The simulation rejected the request parameters.
    Engine(String),
    /// The peer idled past the read deadline (slow-loris defense).
    SlowPeer,
}

impl ServeError {
    /// Stable wire code for `ErrorFrame` payloads.
    pub fn code(&self) -> u16 {
        match self {
            ServeError::Io(_) => 1,
            ServeError::Truncated { .. } => 2,
            ServeError::BadMagic(_) => 3,
            ServeError::UnknownKind(_) => 4,
            ServeError::Oversized { .. } => 5,
            ServeError::Malformed(_) => 6,
            ServeError::BadVersion { .. } => 7,
            ServeError::UnknownScheme(_) => 8,
            ServeError::Trace(_) => 9,
            ServeError::TooManyRecords { .. } => 10,
            ServeError::RecordCount { .. } => 11,
            ServeError::Busy => 12,
            ServeError::Draining => 13,
            ServeError::Timeout { .. } => 14,
            ServeError::WorkerPanicked { .. } => 15,
            ServeError::Engine(_) => 16,
            ServeError::SlowPeer => 17,
        }
    }

    /// Should a well-behaved client retry this failure? `Busy`,
    /// `Draining`, timeouts, and transport errors are transient (the
    /// daemon may have restarted or the queue emptied); protocol and
    /// parameter errors are not — resending the same bytes reproduces
    /// them — and neither is a worker panic, since the simulation is
    /// deterministic and would panic again.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Io(_)
                | ServeError::Busy
                | ServeError::Draining
                | ServeError::Timeout { .. }
                | ServeError::Truncated { .. }
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Truncated { needed, got } => {
                write!(
                    f,
                    "peer disconnected mid-frame: needed {needed} bytes, got {got}"
                )
            }
            ServeError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (want \"ITSV\")"),
            ServeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ServeError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            ServeError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ServeError::BadVersion { got, want } => {
                write!(f, "protocol version {got}, this daemon speaks {want}")
            }
            ServeError::UnknownScheme(s) => write!(f, "unknown scheme label {s:?}"),
            ServeError::Trace(e) => write!(f, "trace stream: {e}"),
            ServeError::TooManyRecords { limit } => {
                write!(f, "record stream exceeds the per-request cap of {limit}")
            }
            ServeError::RecordCount { declared, got } => {
                write!(f, "End declared {declared} records, stream carried {got}")
            }
            ServeError::Busy => write!(f, "busy: shard queue full, retry later"),
            ServeError::Draining => write!(f, "draining: daemon is shutting down"),
            ServeError::Timeout { ms } => write!(f, "request timed out after {ms} ms"),
            ServeError::WorkerPanicked { message } => {
                write!(f, "shard worker panicked: {message}")
            }
            ServeError::Engine(e) => write!(f, "engine rejected request: {e}"),
            ServeError::SlowPeer => write!(f, "peer too slow: read deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        // A read timeout is the slow-loris defense firing, not a
        // generic transport fault; keep the two distinguishable.
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            ServeError::SlowPeer
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<TraceError> for ServeError {
    fn from(e: TraceError) -> Self {
        ServeError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        let errs: Vec<ServeError> = vec![
            ServeError::Io(io::Error::other("x")),
            ServeError::Truncated { needed: 4, got: 1 },
            ServeError::BadMagic(*b"XXXX"),
            ServeError::UnknownKind(99),
            ServeError::Oversized { len: 9, max: 1 },
            ServeError::Malformed("m".into()),
            ServeError::BadVersion { got: 0, want: 1 },
            ServeError::UnknownScheme("z".into()),
            ServeError::Trace(TraceError::EmptyMix),
            ServeError::TooManyRecords { limit: 1 },
            ServeError::RecordCount {
                declared: 2,
                got: 1,
            },
            ServeError::Busy,
            ServeError::Draining,
            ServeError::Timeout { ms: 1 },
            ServeError::WorkerPanicked {
                message: "p".into(),
            },
            ServeError::Engine("e".into()),
            ServeError::SlowPeer,
        ];
        let mut codes: Vec<u16> = errs.iter().map(ServeError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len(), "duplicate error codes");
    }

    #[test]
    fn retryability_separates_transient_from_protocol_errors() {
        assert!(ServeError::Busy.is_retryable());
        assert!(ServeError::Draining.is_retryable());
        assert!(ServeError::Timeout { ms: 1 }.is_retryable());
        assert!(!ServeError::WorkerPanicked {
            message: "p".into()
        }
        .is_retryable());
        assert!(!ServeError::BadMagic(*b"ABCD").is_retryable());
        assert!(!ServeError::UnknownScheme("x".into()).is_retryable());
        assert!(!ServeError::RecordCount {
            declared: 1,
            got: 0
        }
        .is_retryable());
    }

    #[test]
    fn read_timeout_maps_to_slow_peer() {
        let e: ServeError = io::Error::new(io::ErrorKind::WouldBlock, "t").into();
        assert!(matches!(e, ServeError::SlowPeer));
        let e: ServeError = io::Error::new(io::ErrorKind::ConnectionReset, "r").into();
        assert!(matches!(e, ServeError::Io(_)));
    }
}
