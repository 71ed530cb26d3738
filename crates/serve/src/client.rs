//! A tenant client: the well-behaved path with retry, plus the
//! deliberately ill-behaved chaos variants the drills use.
//!
//! The retrying client mirrors production reality: ports change across
//! daemon restarts, so every attempt re-reads the `ports` file; `Busy`
//! and transport failures back off (doubling) and retry; protocol
//! errors, parameter errors and worker panics do not retry — resending
//! identical bytes reproduces them.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Duration;

use itesp_trace::TraceRecord;

use crate::chaos::ChaosMode;
use crate::error::ServeError;
use crate::protocol::{
    decode_error, encode_end, encode_records_frame, read_frame, write_frame, FrameKind, Hello,
    MAGIC,
};

/// Records per `Records` frame — deliberately unaligned with typical
/// socket buffering so frame boundaries and cell boundaries disagree.
pub const CHUNK_RECORDS: usize = 997;

/// A successful reply: the daemon's `Result` JSON, verbatim.
#[derive(Debug, Clone)]
pub struct ClientReply {
    pub stats_json: String,
}

/// Reconstruct a coarse [`ServeError`] from an `ErrorFrame`.
fn error_from_wire(code: u16, msg: String) -> ServeError {
    match code {
        12 => ServeError::Busy,
        13 => ServeError::Draining,
        14 => ServeError::Timeout { ms: 0 },
        15 => ServeError::WorkerPanicked { message: msg },
        _ => ServeError::Malformed(format!("server error {code}: {msg}")),
    }
}

/// Open a traffic connection with `TCP_NODELAY` set, so the small
/// `End` frame that follows the `Records` goes out at once instead of
/// waiting (~40 ms) for the daemon's delayed ACK.
///
/// # Errors
/// Transport failures.
pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Result<TcpStream, ServeError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    Ok(stream)
}

/// Run one request against a known traffic address, no retry.
///
/// # Errors
/// Typed transport, protocol, and server-reported failures.
pub fn run_once(
    addr: SocketAddr,
    hello: &Hello,
    records: &[TraceRecord],
) -> Result<ClientReply, ServeError> {
    let mut stream = connect(addr, Duration::from_secs(300))?;
    write_frame(&mut stream, FrameKind::Hello, &hello.encode())?;
    let Some(reply) = read_frame(&mut stream)? else {
        return Err(ServeError::Truncated { needed: 9, got: 0 });
    };
    match reply.kind {
        FrameKind::Admitted => {}
        FrameKind::Busy => return Err(ServeError::Busy),
        FrameKind::ErrorFrame => {
            let (code, msg) = decode_error(&reply.payload)?;
            return Err(error_from_wire(code, msg));
        }
        other => {
            return Err(ServeError::Malformed(format!(
                "expected Admitted/Busy, got {other:?}"
            )))
        }
    }
    for chunk in records.chunks(CHUNK_RECORDS) {
        write_frame(
            &mut stream,
            FrameKind::Records,
            &encode_records_frame(chunk),
        )?;
    }
    write_frame(
        &mut stream,
        FrameKind::End,
        &encode_end(records.len() as u64),
    )?;
    let Some(reply) = read_frame(&mut stream)? else {
        return Err(ServeError::Truncated { needed: 9, got: 0 });
    };
    match reply.kind {
        FrameKind::Result => Ok(ClientReply {
            stats_json: String::from_utf8_lossy(&reply.payload).into_owned(),
        }),
        FrameKind::ErrorFrame => {
            let (code, msg) = decode_error(&reply.payload)?;
            Err(error_from_wire(code, msg))
        }
        other => Err(ServeError::Malformed(format!(
            "expected Result, got {other:?}"
        ))),
    }
}

/// Run one request against a daemon's *state dir*, retrying transient
/// failures. Each attempt re-reads the ports file, so the client
/// follows the daemon across restarts; the backoff doubles per retry.
///
/// # Errors
/// The last failure once `retries` are exhausted, or immediately for a
/// non-retryable error.
pub fn run_with_retry(
    state_dir: &Path,
    hello: &Hello,
    records: &[TraceRecord],
    retries: u32,
    backoff: Duration,
) -> Result<ClientReply, ServeError> {
    let mut wait = backoff;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let result = read_ports_and_run(state_dir, hello, records);
        match result {
            Ok(reply) => return Ok(reply),
            Err(e) if e.is_retryable() && attempt <= retries => {
                std::thread::sleep(wait);
                wait = wait.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
}

fn read_ports_and_run(
    state_dir: &Path,
    hello: &Hello,
    records: &[TraceRecord],
) -> Result<ClientReply, ServeError> {
    let (traffic, _metrics) = crate::server::read_ports(state_dir)?;
    run_once(SocketAddr::from(([127, 0, 0, 1], traffic)), hello, records)
}

/// A deliberately ill-behaved client for the chaos drills. Every mode
/// returns `Ok(())` when the *daemon* behaved (stayed up, answered
/// with a typed error or closed the socket) — the caller separately
/// asserts the daemon's health and stats.
///
/// # Errors
/// Only unexpected local I/O failures (e.g. could not connect).
pub fn misbehave(
    addr: SocketAddr,
    mode: ChaosMode,
    hello: &Hello,
    records: &[TraceRecord],
) -> Result<(), ServeError> {
    let mut stream = connect(addr, Duration::from_secs(30))?;
    match mode {
        ChaosMode::DisconnectMidFrame => {
            write_frame(&mut stream, FrameKind::Hello, &hello.encode())?;
            let _ = read_frame(&mut stream)?; // Admitted
                                              // Start a Records frame, then vanish mid-payload.
            let payload = encode_records_frame(&records[..records.len().min(100)]);
            let mut partial = Vec::new();
            partial.extend_from_slice(MAGIC);
            partial.push(FrameKind::Records.to_u8());
            partial.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            partial.extend_from_slice(&payload[..payload.len() / 2]);
            stream.write_all(&partial)?;
            stream.flush()?;
            drop(stream); // RST/FIN mid-frame
        }
        ChaosMode::SlowLoris => {
            // Trickle the Hello a byte at a time, slower than the
            // daemon's read deadline can tolerate forever. The daemon
            // must cut us off rather than hold the socket.
            let wire = {
                let mut w = Vec::new();
                write_frame(&mut w, FrameKind::Hello, &hello.encode())?;
                w
            };
            for b in wire.iter().take(6) {
                if stream.write_all(&[*b]).is_err() {
                    return Ok(()); // daemon already hung up — correct
                }
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(400));
            }
            // Stop sending entirely; wait for the daemon to hang up.
            let mut buf = [0u8; 16];
            use std::io::Read;
            let _ = stream.read(&mut buf);
        }
        ChaosMode::Garbage => {
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n")?;
            stream.flush()?;
            let _ = read_frame(&mut stream); // typed error or close
        }
        ChaosMode::Oversized => {
            let mut wire = Vec::new();
            wire.extend_from_slice(MAGIC);
            wire.push(FrameKind::Records.to_u8());
            wire.extend_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&wire)?;
            stream.flush()?;
            let _ = read_frame(&mut stream);
        }
    }
    Ok(())
}
