//! The snapshot wire format: a length-checked binary codec.
//!
//! Every component writes its state through [`SnapWriter`] and restores
//! it through [`SnapReader`]. Two rules keep the format trustworthy:
//!
//! 1. **Deterministic bytes** — hash maps and sets are written in
//!    sorted key order ([`crate::Persist`] does this for every hash
//!    container), so identical state always produces identical bytes
//!    (the SIGKILL drill compares snapshots byte-for-byte).
//! 2. **Tagged sections** — each component frames its state with a
//!    4-byte tag and a version ([`SnapWriter::section`]), so a reader
//!    that drifted out of sync fails with a *named* mismatch instead of
//!    reinterpreting another component's bytes as its own.

use std::fmt;

/// A typed decode failure. Every variant names what was being read, so
/// a corrupt snapshot reports *which* component rejected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before `what` could be read.
    Truncated { what: &'static str, at: usize },
    /// A section tag did not match (reader misaligned or wrong file).
    BadSection {
        expected: [u8; 4],
        found: [u8; 4],
        at: usize,
    },
    /// A section's version is not the one this build reads.
    Version {
        section: [u8; 4],
        expected: u16,
        found: u16,
    },
    /// A decoded value is structurally impossible (e.g. a bool byte
    /// that is neither 0 nor 1, a length beyond the buffer).
    Corrupt { what: &'static str, at: usize },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = |t: &[u8; 4]| String::from_utf8_lossy(t).into_owned();
        match self {
            SnapError::Truncated { what, at } => {
                write!(f, "snapshot truncated reading {what} at byte {at}")
            }
            SnapError::BadSection {
                expected,
                found,
                at,
            } => write!(
                f,
                "snapshot section mismatch at byte {at}: expected {:?}, found {:?}",
                tag(expected),
                tag(found)
            ),
            SnapError::Version {
                section,
                expected,
                found,
            } => write!(
                f,
                "snapshot section {:?} has version {found}, this build reads {expected}",
                tag(section)
            ),
            SnapError::Corrupt { what, at } => {
                write!(f, "snapshot corrupt: invalid {what} at byte {at}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializer: appends little-endian primitives to a growing buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Open a component section: 4-byte tag + format version.
    ///
    /// # Panics
    /// Panics if `tag` is not exactly 4 bytes (a programming error).
    pub fn section(&mut self, tag: &str, version: u16) {
        assert_eq!(tag.len(), 4, "section tags are exactly 4 bytes");
        self.buf.extend_from_slice(tag.as_bytes());
        self.u16(version);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Exact bit pattern; NaN payloads and signed zeros round-trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Reader over a byte slice; every read is bounds-checked.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset (for error reporting by callers).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole buffer was consumed — catches a writer and
    /// reader that silently disagree about a section's contents.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt {
                what: "trailing bytes after the final section",
                at: self.pos,
            })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { what, at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read and check a component section header.
    ///
    /// # Errors
    /// [`SnapError::BadSection`] or [`SnapError::Version`] on mismatch.
    ///
    /// # Panics
    /// Panics if `tag` is not exactly 4 bytes (a programming error).
    pub fn section(&mut self, tag: &str, version: u16) -> Result<(), SnapError> {
        assert_eq!(tag.len(), 4, "section tags are exactly 4 bytes");
        let at = self.pos;
        let found: [u8; 4] = self.take(4, "section tag")?.try_into().expect("4 bytes");
        let expected: [u8; 4] = tag.as_bytes().try_into().expect("4 bytes");
        if found != expected {
            return Err(SnapError::BadSection {
                expected,
                found,
                at,
            });
        }
        let v = self.u16("section version")?;
        if v != version {
            return Err(SnapError::Version {
                section: expected,
                expected: version,
                found: v,
            });
        }
        Ok(())
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn bool(&mut self, what: &'static str) -> Result<bool, SnapError> {
        let at = self.pos;
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt { what, at }),
        }
    }

    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn usize(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let at = self.pos;
        usize::try_from(self.u64(what)?).map_err(|_| SnapError::Corrupt { what, at })
    }

    pub fn f64(&mut self, what: &'static str) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Length-prefixed raw bytes. The length is validated against the
    /// remaining buffer before any allocation.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], SnapError> {
        let at = self.pos;
        let n = self.usize(what)?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt { what, at });
        }
        self.take(n, what)
    }

    pub fn str(&mut self, what: &'static str) -> Result<&'a str, SnapError> {
        let at = self.pos;
        std::str::from_utf8(self.bytes(what)?).map_err(|_| SnapError::Corrupt { what, at })
    }

    /// A sequence length, validated against a per-element lower bound of
    /// one byte so a corrupt length cannot force a huge allocation.
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, SnapError> {
        let at = self.pos;
        let n = self.usize(what)?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt { what, at });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.section("TEST", 3);
        w.u8(0xAB);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(1.5e-300);
        w.put(&None::<u64>);
        w.put(&Some(42u64));
        w.str("hello");
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.section("TEST", 3).unwrap();
        assert_eq!(r.u8("a").unwrap(), 0xAB);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.u16("c").unwrap(), 0xBEEF);
        assert_eq!(r.u32("d").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("e").unwrap(), u64::MAX);
        assert!(r.f64("f").unwrap().is_sign_negative());
        assert_eq!(r.f64("g").unwrap(), 1.5e-300);
        assert_eq!(r.get::<Option<u64>>("h").unwrap(), None);
        assert_eq!(r.get::<Option<u64>>("i").unwrap(), Some(42));
        assert_eq!(r.str("j").unwrap(), "hello");
        assert_eq!(r.get::<Vec<u64>>("k").unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_and_named() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        let err = r.u64("engine stats").unwrap_err();
        assert_eq!(
            err,
            SnapError::Truncated {
                what: "engine stats",
                at: 0
            }
        );
        assert!(err.to_string().contains("engine stats"));
    }

    #[test]
    fn section_mismatch_names_both_tags() {
        let mut w = SnapWriter::new();
        w.section("AAAA", 1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = r.section("BBBB", 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("AAAA") && msg.contains("BBBB"), "{msg}");
    }

    #[test]
    fn version_drift_is_rejected() {
        let mut w = SnapWriter::new();
        w.section("CACH", 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = r.section("CACH", 1).unwrap_err();
        assert!(matches!(err, SnapError::Version { found: 2, .. }));
    }

    #[test]
    fn corrupt_bool_and_length_are_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert!(matches!(r.bool("flag"), Err(SnapError::Corrupt { .. })));

        // A length claiming more bytes than exist must not allocate.
        let mut w = SnapWriter::new();
        w.u64(1 << 60);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bytes("blob"), Err(SnapError::Corrupt { .. })));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8("x").unwrap();
        assert!(r.finish().is_err());
        r.u8("y").unwrap();
        r.finish().unwrap();
    }
}
