//! Fault injection for the serve drills.
//!
//! Two halves:
//!
//! * **Server-side** — `ITESP_SERVE_CHAOS` directives, parsed once by
//!   the daemon into [`crate::ServerConfig::panic_tenant`].
//!   `panic-tenant=<id>` makes the shard worker panic instead of
//!   running that tenant's requests, the deliberate worker panic the
//!   drill uses to prove shard isolation. A malformed directive is a
//!   hard error at daemon startup (the repo's `ITESP_*` convention),
//!   not a silent no-op.
//! * **Client-side** — [`ChaosMode`] behaviors a hostile client can
//!   exhibit (disconnect mid-frame, slow-loris, garbage, oversized
//!   declarations) plus a seeded corpus of malformed wire blobs for
//!   the protocol property tests, replayable via `ITESP_TEST_SEED`.

use crate::protocol::{FrameKind, HEADER, MAGIC, MAX_FRAME};

/// Env var the daemon reads chaos directives from.
pub const CHAOS_ENV: &str = "ITESP_SERVE_CHAOS";

/// The panic tenant named by a directive list, or why it is malformed.
///
/// # Errors
/// An unknown directive, or a `panic-tenant` id that is not a u64.
pub(crate) fn parse(spec: &str) -> Result<Option<u64>, String> {
    let mut target = None;
    for directive in spec.split(',').filter(|d| !d.trim().is_empty()) {
        let d = directive.trim();
        let Some(id) = d.strip_prefix("panic-tenant=") else {
            return Err(format!("unknown directive {d:?} (want panic-tenant=<id>)"));
        };
        let id = id
            .parse()
            .map_err(|_| format!("panic-tenant wants a u64, got {id:?}"))?;
        target = Some(id);
    }
    Ok(target)
}

/// Ways a chaotic client misbehaves on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Drop the connection partway through a Records frame.
    DisconnectMidFrame,
    /// Trickle the request a few bytes at a time with long pauses, so
    /// a daemon without read deadlines would hold the socket forever.
    SlowLoris,
    /// Open with bytes that are not a frame at all.
    Garbage,
    /// Declare a frame length past [`MAX_FRAME`].
    Oversized,
}

/// Tiny deterministic generator (xorshift64*) so the chaos corpus
/// depends only on the seed — `vendor/rand` is a dev-dependency and
/// this must run inside the daemon's own tests and drills.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    pub fn new(seed: u64) -> Self {
        // Splitmix-style scramble so adjacent seeds diverge; zero
        // state would be a fixed point of the xorshift, so fall back
        // to an arbitrary odd constant.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ChaosRng(if x == 0 { 0x9E37_79B9_7F4A_7C15 } else { x })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One corpus entry: hostile bytes plus what the daemon must answer.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    pub label: &'static str,
    pub bytes: Vec<u8>,
}

/// A seeded corpus of malformed wire blobs. Every case must yield a
/// typed [`crate::ServeError`] — never a panic, never a hang. The same
/// seed regenerates the same corpus, so a failure report of
/// `ITESP_TEST_SEED=<seed>` plus the case index replays exactly.
pub fn corpus(seed: u64, cases_per_kind: usize) -> Vec<CorpusCase> {
    let mut rng = ChaosRng::new(seed);
    let mut out = Vec::new();
    for _ in 0..cases_per_kind {
        // Pure garbage: random bytes, random length (may start with a
        // byte of the magic by chance — still must not be accepted).
        let n = 1 + rng.below(64) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        out.push(CorpusCase {
            label: "garbage",
            bytes,
        });

        // Valid header, oversized declared length.
        let mut bytes = Vec::with_capacity(HEADER);
        bytes.extend_from_slice(MAGIC);
        bytes.push(FrameKind::Records.to_u8());
        let len = MAX_FRAME as u64 + 1 + rng.below(u32::MAX as u64 - MAX_FRAME as u64);
        bytes.extend_from_slice(&(len as u32).to_le_bytes());
        out.push(CorpusCase {
            label: "oversized",
            bytes,
        });

        // Truncated: a legitimate Hello header + partial payload.
        let declared = 16 + rng.below(64) as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(FrameKind::Hello.to_u8());
        bytes.extend_from_slice(&declared.to_le_bytes());
        let sent = rng.below(u64::from(declared)) as usize;
        bytes.extend((0..sent).map(|_| rng.next_u64() as u8));
        out.push(CorpusCase {
            label: "truncated",
            bytes,
        });

        // Unknown kind with a plausible length.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(100 + rng.below(100) as u8);
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        out.push(CorpusCase {
            label: "unknown-kind",
            bytes,
        });

        // A well-formed frame of the wrong kind to open with, followed
        // by interleaved garbage.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(FrameKind::End.to_u8());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        let n = rng.below(32) as usize;
        bytes.extend((0..n).map(|_| rng.next_u64() as u8));
        out.push(CorpusCase {
            label: "wrong-opening-kind",
            bytes,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = corpus(42, 3);
        let b = corpus(42, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.label, y.label);
        }
        let c = corpus(43, 3);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn rng_is_not_a_fixed_point_at_zero_seed() {
        let mut r = ChaosRng::new(0);
        let vals: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(vals.windows(2).all(|w| w[0] != w[1]));
    }
}
