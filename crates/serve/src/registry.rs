//! Crash-consistent per-tenant statistics.
//!
//! Two sections with deliberately different guarantees:
//!
//! * **Tenants** — keyed by tenant id, holding the latest
//!   [`TenantStats`] per tenant. Every field is a pure function of the
//!   request bytes, and completion is idempotent on
//!   `(tenant, request_seq)`: a crash-retry that recomputes a request
//!   overwrites identically instead of double-counting. This section's
//!   pretty-printed JSON is the byte-identity artifact the chaos drill
//!   compares.
//! * **Operational counters** — admissions, busy rejects, panics,
//!   timeouts. Honest but *not* deterministic across runs (they depend
//!   on timing and injected faults), so they are reported separately
//!   and excluded from the identity comparison.
//!
//! Snapshots go through [`itesp_snap`]'s one commit and restore path:
//! the tenants section is a [`Persist`] type (`SRVT`), the drain path
//! commits it with [`SnapshotStore::commit`], and a restarted daemon
//! recovers with [`SnapshotStore::restore_head`] — the same
//! crash-safety and anti-rollback machinery the simulator's and the
//! cluster's checkpoints use.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use itesp_snap::{
    Persist, RestoreError, SnapError, SnapReader, SnapWriter, SnapshotMeta, SnapshotStore,
    StoreError,
};
use serde::Serialize;

use crate::tenant::TenantStats;

/// Operational (non-deterministic) counters. Plain totals, reported
/// under the `"counters"` key of the full stats view.
#[derive(Debug, Default, Serialize)]
pub struct OpsCounters {
    pub admitted: u64,
    pub busy_rejects: u64,
    pub drain_rejects: u64,
    pub protocol_errors: u64,
    pub worker_panics: u64,
    pub timeouts: u64,
    pub completed: u64,
    pub snapshots: u64,
    pub recovered_seq: u64,
}

#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    busy_rejects: AtomicU64,
    drain_rejects: AtomicU64,
    protocol_errors: AtomicU64,
    worker_panics: AtomicU64,
    timeouts: AtomicU64,
    completed: AtomicU64,
    snapshots: AtomicU64,
    recovered_seq: AtomicU64,
}

/// The latest stats per tenant, keyed by tenant id. Its snapshot
/// (`SRVT`) is the stats in tenant-id order; each record carries its
/// own id.
#[derive(Debug, Default)]
struct Tenants(BTreeMap<u64, TenantStats>);

impl Persist for Tenants {
    fn save(&self, w: &mut SnapWriter) {
        w.section("SRVT", 1);
        w.usize(self.0.len());
        self.0.values().for_each(|t| w.put(t));
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("SRVT", 1)?;
        let tenants: Vec<TenantStats> = r.get("registry tenants")?;
        self.0 = tenants.into_iter().map(|t| (t.tenant, t)).collect();
        Ok(())
    }
}

/// The daemon's shared stats registry. Cheap to lock: completions are
/// per-request, not per-record.
#[derive(Debug, Default)]
pub struct Registry {
    tenants: Mutex<Tenants>,
    counters: Counters,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed request, idempotently: a stale completion
    /// (an older `request_seq` racing a retry of a newer one) never
    /// overwrites a fresher result, and re-completing the same seq
    /// overwrites with identical bytes.
    pub fn complete(&self, stats: TenantStats) {
        let tenants = &mut self.tenants.lock().expect("registry lock").0;
        let fresh = tenants
            .get(&stats.tenant)
            .is_none_or(|prev| stats.request_seq >= prev.request_seq);
        if fresh {
            tenants.insert(stats.tenant, stats);
        }
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_admitted(&self) {
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count_busy(&self) {
        self.counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count_drain_reject(&self) {
        self.counters.drain_rejects.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count_protocol_error(&self) {
        self.counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    pub fn count_worker_panic(&self) {
        self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
    }
    pub fn count_timeout(&self) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn completed(&self) -> u64 {
        self.counters.completed.load(Ordering::Relaxed)
    }

    fn counters_view(&self) -> OpsCounters {
        let c = &self.counters;
        OpsCounters {
            admitted: c.admitted.load(Ordering::Relaxed),
            busy_rejects: c.busy_rejects.load(Ordering::Relaxed),
            drain_rejects: c.drain_rejects.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
            recovered_seq: c.recovered_seq.load(Ordering::Relaxed),
        }
    }

    /// The deterministic section: per-tenant stats as pretty JSON, in
    /// tenant-id order. Byte-identical across retries, restarts, and
    /// chaos, given the same completed request set.
    pub fn deterministic_json(&self) -> String {
        let tenants = self.tenants.lock().expect("registry lock");
        serde_json::to_string_pretty(&tenants.0).expect("tenant stats serialize")
    }

    /// Everything: tenants plus operational counters. (Spliced by
    /// hand — the vendored serde derive cannot express a borrowed
    /// aggregate struct.)
    pub fn full_json(&self) -> String {
        let tenants = self.deterministic_json();
        let counters =
            serde_json::to_string_pretty(&self.counters_view()).expect("counters serialize");
        format!("{{\n  \"tenants\": {tenants},\n  \"counters\": {counters}\n}}")
    }

    /// Encode the registry's tenants section (`SRVT`).
    pub fn encode(&self) -> Vec<u8> {
        itesp_snap::encode(&*self.tenants.lock().expect("registry lock"))
    }

    /// Replace this registry's tenants with a decoded snapshot payload.
    ///
    /// # Errors
    /// [`SnapError`] on a corrupt or version-skewed payload.
    pub fn restore(&self, payload: &[u8]) -> Result<(), SnapError> {
        let mut fresh = Tenants::default();
        itesp_snap::decode_into(payload, &mut fresh)?;
        *self.tenants.lock().expect("registry lock") = fresh;
        Ok(())
    }

    /// Durably snapshot the registry (the drain path, and every
    /// `snap_every` completions). The tenants are encoded under the
    /// lock; the commit's fsyncs run after it is released.
    ///
    /// # Errors
    /// [`StoreError`] from the underlying store.
    pub fn snapshot_to(&self, store: &SnapshotStore) -> Result<SnapshotMeta, StoreError> {
        let meta = store.commit(self.completed(), &self.encode())?;
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(meta)
    }

    /// Recover from the WAL head, refusing a stale snapshot
    /// (anti-rollback). An empty store is a clean first boot, not an
    /// error.
    ///
    /// # Errors
    /// [`RestoreError::Store`] for a corrupt store or a rollback
    /// attempt, [`RestoreError::Decode`] for a payload that is not a
    /// registry.
    pub fn recover_from(
        &self,
        store: &SnapshotStore,
    ) -> Result<Option<SnapshotMeta>, RestoreError> {
        let mut fresh = Tenants::default();
        let meta = match store.restore_head(&mut fresh) {
            Ok(meta) => meta,
            Err(RestoreError::Store(StoreError::NoSnapshot { .. })) => return Ok(None),
            Err(e) => return Err(e),
        };
        *self.tenants.lock().expect("registry lock") = fresh;
        self.counters
            .recovered_seq
            .store(meta.seq, Ordering::Relaxed);
        Ok(Some(meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(tenant: u64, seq: u64, cycles: u64) -> TenantStats {
        TenantStats {
            tenant,
            request_seq: seq,
            scheme: "ITESP".into(),
            benchmark: "mcf".into(),
            records: 100,
            cycles,
            baseline_cycles: cycles / 2,
            slowdown: 2.0,
            meta_per_access: 0.75,
            metadata_cache_accesses: 9,
            metadata_cache_hits: 6,
            parity_cache_accesses: 3,
            parity_cache_hits: 1,
            ras_faults_injected: 0,
            ras_detections: 0,
            ras_corrections: 0,
            ras_sdc_events: 0,
            ras_due_events: 0,
        }
    }

    #[test]
    fn completion_is_idempotent_and_ordered() {
        let reg = Registry::new();
        reg.complete(stats(1, 1, 1000));
        reg.complete(stats(1, 2, 2000));
        let after_two = reg.deterministic_json();
        // A crash-retry re-delivers seq 2: identical overwrite.
        reg.complete(stats(1, 2, 2000));
        assert_eq!(reg.deterministic_json(), after_two);
        // A stale straggler (seq 1 finishing late) cannot regress.
        reg.complete(stats(1, 1, 1000));
        assert_eq!(reg.deterministic_json(), after_two);
        // But completions *are* all counted operationally.
        assert_eq!(reg.completed(), 4);
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let reg = Registry::new();
        reg.complete(stats(3, 1, 500));
        reg.complete(stats(1, 4, 900));
        let json = reg.deterministic_json();

        let other = Registry::new();
        other.restore(&reg.encode()).unwrap();
        assert_eq!(other.deterministic_json(), json);
    }

    #[test]
    fn store_recovery_enforces_anti_rollback() {
        let dir = std::env::temp_dir().join(format!("itesp-serve-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();

        let reg = Registry::new();
        assert!(reg.recover_from(&store).unwrap().is_none(), "clean boot");
        reg.complete(stats(1, 1, 100));
        reg.snapshot_to(&store).unwrap();
        reg.complete(stats(2, 1, 200));
        reg.snapshot_to(&store).unwrap();

        let fresh = Registry::new();
        let meta = fresh.recover_from(&store).unwrap().unwrap();
        assert_eq!(meta.seq, 2);
        assert_eq!(fresh.deterministic_json(), reg.deterministic_json());

        // Delete the newest snapshot file: recovery must refuse to
        // present the stale survivor as the latest state.
        std::fs::remove_file(dir.join(format!("snap-{:016}.bin", 2u64))).unwrap();
        let err = Registry::new().recover_from(&store).unwrap_err();
        assert!(
            matches!(
                err,
                RestoreError::Store(StoreError::RollbackDetected { wal_seq: 2, .. })
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_in_the_store_is_a_typed_decode_error() {
        let dir = std::env::temp_dir().join(format!("itesp-serve-regbad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let reg = Registry::new();
        reg.complete(stats(1, 1, 100));
        let mut bytes = reg.encode();
        bytes.truncate(bytes.len() - 3);
        // A frame-valid file (its CRC covers the damaged payload), so
        // the store accepts it and the registry decode must refuse it.
        store.append(1, &bytes).unwrap();

        let fresh = Registry::new();
        match fresh.recover_from(&store) {
            Err(RestoreError::Decode(SnapError::Truncated { .. })) => {}
            other => panic!("expected a typed decode error, got {other:?}"),
        }
        assert_eq!(fresh.deterministic_json(), "{}", "nothing was restored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_is_a_typed_error() {
        let reg = Registry::new();
        reg.complete(stats(1, 1, 100));
        // Structural corruption: break the section tag.
        let mut bytes = reg.encode();
        bytes[0] ^= 0xFF;
        assert!(Registry::new().restore(&bytes).is_err());
        // Truncation mid-record.
        let mut bytes = reg.encode();
        bytes.truncate(bytes.len() - 3);
        assert!(Registry::new().restore(&bytes).is_err());
        assert!(Registry::new().restore(b"junk").is_err());
    }
}
