//! The migration wire format: blob layout and transfer frames.
//!
//! A migration blob is one `itesp-snap` stream:
//!
//! ```text
//! section "MIGB" v1: tenant id, migration epoch, config fingerprint
//! section "ENCL" v2: the enclave, with its lifecycle counts (no key)
//! section "TLGR" v2: the tenant's functional ledger
//! ```
//!
//! The header rides first so a destination can verify fingerprint and
//! epoch *before* decoding (or trusting) the state behind them. On the
//! simulated wire the blob is chunked into ITSV-style length-prefixed
//! frames — a fixed 16-byte header (`ITMF` magic, frame index, frame
//! count, payload length) per chunk — so a transfer spans many cluster
//! ticks and a crash can land mid-flight.

use itesp_enclave::{Enclave, EnclaveManager};
use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

use crate::error::MigrateError;
use crate::ledger::TenantLedger;

/// Bytes of framing per chunk: magic + index + total + length.
pub const FRAME_HEADER: usize = 16;

const FRAME_MAGIC: [u8; 4] = *b"ITMF";

/// The verified-before-decode prefix of a migration blob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
#[persist(section = "MIGB", version = 1)]
pub struct BlobHeader {
    pub tenant: u64,
    /// Directory epoch at capture time.
    pub epoch: u64,
    /// Source engine's `EngineConfig::fingerprint()`.
    pub fingerprint: u64,
}

/// Decode just the header of a blob (cheap, no state is touched).
///
/// # Errors
/// [`SnapError`] if the prefix does not parse.
pub fn peek_header(blob: &[u8]) -> Result<BlobHeader, SnapError> {
    SnapReader::new(blob).get("blob header")
}

/// Serialize a frozen tenant into a migration blob. The enclave
/// section carries no key material: the key is re-derived from the
/// destination's master.
pub(crate) fn encode_blob(
    header: &BlobHeader,
    mgr: &EnclaveManager,
    slot: usize,
    ledger: &TenantLedger,
) -> Vec<u8> {
    let enc = mgr.enclave(slot).expect("exporting an empty slot");
    assert_eq!(enc.id().0, header.tenant, "slot/tenant mismatch in export");
    let mut w = SnapWriter::new();
    w.put(header);
    w.put(enc);
    w.put(ledger);
    w.into_bytes()
}

/// Decode a whole blob — header, enclave, ledger, and nothing after
/// them — and check that the body belongs to the tenant the header
/// names. Touches no state.
///
/// # Errors
/// [`MigrateError::Decode`] if any section fails to decode or bytes
/// trail the ledger; [`MigrateError::TenantMismatch`] for a body
/// spliced behind another tenant's header.
pub(crate) fn decode_blob(blob: &[u8]) -> Result<(Enclave, TenantLedger), MigrateError> {
    let mut r = SnapReader::new(blob);
    let header: BlobHeader = r.get("blob header")?;
    let enc: Enclave = r.get("migrated enclave")?;
    let ledger: TenantLedger = r.get("tenant ledger")?;
    r.finish()?;
    if enc.id().0 != header.tenant {
        return Err(MigrateError::TenantMismatch {
            header: header.tenant,
            body: enc.id().0,
        });
    }
    Ok((enc, ledger))
}

/// Chunk a blob into transfer frames of at most `payload` bytes each.
pub fn frames(blob: &[u8], payload: usize) -> Vec<Vec<u8>> {
    let payload = payload.max(1);
    let total = blob.len().div_ceil(payload).max(1) as u32;
    let mut out = Vec::with_capacity(total as usize);
    for (i, chunk) in blob.chunks(payload).enumerate() {
        let mut f = Vec::with_capacity(FRAME_HEADER + chunk.len());
        f.extend_from_slice(&FRAME_MAGIC);
        f.extend_from_slice(&(i as u32).to_le_bytes());
        f.extend_from_slice(&total.to_le_bytes());
        f.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        f.extend_from_slice(chunk);
        out.push(f);
    }
    if out.is_empty() {
        // An empty blob still transfers as one empty frame.
        let mut f = Vec::with_capacity(FRAME_HEADER);
        f.extend_from_slice(&FRAME_MAGIC);
        f.extend_from_slice(&0u32.to_le_bytes());
        f.extend_from_slice(&1u32.to_le_bytes());
        f.extend_from_slice(&0u32.to_le_bytes());
        out.push(f);
    }
    out
}

/// Reassemble a blob from its frames, validating magic, ordering, and
/// declared counts.
///
/// # Errors
/// [`MigrateError::BadFrame`] naming the structural violation.
pub fn reassemble(frames: &[Vec<u8>]) -> Result<Vec<u8>, MigrateError> {
    if frames.is_empty() {
        return Err(MigrateError::BadFrame("no frames"));
    }
    let mut blob = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        if f.len() < FRAME_HEADER {
            return Err(MigrateError::BadFrame("short frame"));
        }
        if f[0..4] != FRAME_MAGIC {
            return Err(MigrateError::BadFrame("bad magic"));
        }
        let index = u32::from_le_bytes(f[4..8].try_into().unwrap());
        let total = u32::from_le_bytes(f[8..12].try_into().unwrap());
        let len = u32::from_le_bytes(f[12..16].try_into().unwrap()) as usize;
        if index as usize != i {
            return Err(MigrateError::BadFrame("frame out of order"));
        }
        if total as usize != frames.len() {
            return Err(MigrateError::BadFrame("frame count mismatch"));
        }
        if f.len() != FRAME_HEADER + len {
            return Err(MigrateError::BadFrame("frame length mismatch"));
        }
        blob.extend_from_slice(&f[FRAME_HEADER..]);
    }
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_validate() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let fs = frames(&blob, 96);
        assert_eq!(fs.len(), 1000_usize.div_ceil(96));
        assert_eq!(reassemble(&fs).unwrap(), blob);

        // Dropping a frame breaks the count declaration.
        let dropped: Vec<_> = fs[..fs.len() - 1].to_vec();
        assert!(matches!(
            reassemble(&dropped),
            Err(MigrateError::BadFrame(_))
        ));
        // Reordering breaks the index check.
        let mut swapped = fs.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            reassemble(&swapped),
            Err(MigrateError::BadFrame(_))
        ));
        // Corrupting the magic fails.
        let mut bad = fs;
        bad[0][0] = b'X';
        assert!(matches!(reassemble(&bad), Err(MigrateError::BadFrame(_))));
    }

    #[test]
    fn header_peeks_without_consuming_state() {
        let h = BlobHeader {
            tenant: 9,
            epoch: 3,
            fingerprint: 0xdead_beef,
        };
        let mut w = SnapWriter::new();
        w.put(&h);
        w.u64(12345); // trailing state the peek must not require
        let bytes = w.into_bytes();
        assert_eq!(peek_header(&bytes).unwrap(), h);
    }
}
