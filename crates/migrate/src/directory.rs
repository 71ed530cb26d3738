//! The cluster directory: who lives where, at which migration epoch.
//!
//! One entry per admitted tenant. The *epoch* starts at 1 on admission
//! and is bumped exactly once per committed migration; a blob carries
//! the epoch current at its capture, so the directory can refuse any
//! blob whose epoch is not exactly current — stale captures (dead
//! nodes, replayed transfers) fail typed, fresh in-flight blobs pass.

use std::collections::BTreeMap;

use itesp_snap::Persist;

use crate::error::MigrateError;
use crate::proto::BlobHeader;

/// Where the directory believes a tenant is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub enum Residence {
    /// Live on one node (the only state that executes ops).
    Live { node: usize },
    /// Frozen at `from`, blob in flight to `to`.
    Migrating { from: usize, to: usize },
    /// Script complete; the enclave was torn down.
    #[default]
    Done,
}

/// One tenant's directory record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub struct DirEntry {
    /// Migration epoch: 1 at admission, +1 per committed migration.
    pub epoch: u64,
    pub residence: Residence,
}

/// The cluster-global tenant directory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Persist)]
#[persist(section = "CDIR", version = 1)]
pub struct Directory {
    entries: BTreeMap<u64, DirEntry>,
}

impl Directory {
    pub fn new() -> Self {
        Directory::default()
    }

    /// Record a tenant's admission onto `node` at epoch 1.
    ///
    /// # Panics
    /// Panics if the tenant was admitted before — cluster-global ids
    /// are never reused.
    pub fn admit(&mut self, tenant: u64, node: usize) {
        let prior = self.entries.insert(
            tenant,
            DirEntry {
                epoch: 1,
                residence: Residence::Live { node },
            },
        );
        assert!(prior.is_none(), "tenant {tenant} admitted twice");
    }

    pub fn entry(&self, tenant: u64) -> Option<DirEntry> {
        self.entries.get(&tenant).copied()
    }

    pub fn epoch(&self, tenant: u64) -> Option<u64> {
        self.entries.get(&tenant).map(|e| e.epoch)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark a migration in flight. The epoch does *not* change yet —
    /// the in-flight blob must verify against the capture-time epoch.
    pub fn begin_migration(&mut self, tenant: u64, from: usize, to: usize) {
        let e = self.entries.get_mut(&tenant).expect("tenant admitted");
        assert_eq!(
            e.residence,
            Residence::Live { node: from },
            "tenant {tenant} is not live at node {from}"
        );
        e.residence = Residence::Migrating { from, to };
    }

    /// Commit a migration: the tenant is now live at `to` and every
    /// blob captured before this instant is permanently stale.
    pub fn commit_migration(&mut self, tenant: u64, to: usize) {
        let e = self.entries.get_mut(&tenant).expect("tenant admitted");
        assert!(
            matches!(e.residence, Residence::Migrating { .. }),
            "tenant {tenant} has no migration in flight"
        );
        e.epoch += 1;
        e.residence = Residence::Live { node: to };
    }

    /// Retire a completed tenant.
    pub fn finish(&mut self, tenant: u64) {
        let e = self.entries.get_mut(&tenant).expect("tenant admitted");
        e.residence = Residence::Done;
    }

    /// The destination-side acceptance check: the blob must name an
    /// admitted tenant, carry exactly the current epoch, and match an
    /// in-flight migration targeting `node`.
    ///
    /// # Errors
    /// [`MigrateError::EpochStale`] for a superseded blob (the
    /// anti-rollback rejection), [`MigrateError::EpochFromFuture`] if
    /// the directory itself lost history, [`MigrateError::UnknownTenant`]
    /// / [`MigrateError::NotInMigration`] for blobs that match no
    /// protocol state.
    pub fn verify_blob(&self, header: &BlobHeader, node: usize) -> Result<(), MigrateError> {
        let tenant = header.tenant;
        let Some(e) = self.entries.get(&tenant) else {
            return Err(MigrateError::UnknownTenant { tenant });
        };
        if header.epoch < e.epoch {
            return Err(MigrateError::EpochStale {
                tenant,
                blob_epoch: header.epoch,
                current_epoch: e.epoch,
            });
        }
        if header.epoch > e.epoch {
            return Err(MigrateError::EpochFromFuture {
                tenant,
                blob_epoch: header.epoch,
                current_epoch: e.epoch,
            });
        }
        match e.residence {
            Residence::Migrating { to, .. } if to == node => Ok(()),
            _ => Err(MigrateError::NotInMigration { tenant, node }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(tenant: u64, epoch: u64) -> BlobHeader {
        BlobHeader {
            tenant,
            epoch,
            fingerprint: 0,
        }
    }

    #[test]
    fn epoch_gates_blob_acceptance() {
        let mut d = Directory::new();
        d.admit(7, 0);
        d.begin_migration(7, 0, 1);
        // The in-flight blob (epoch 1, to node 1) passes.
        d.verify_blob(&header(7, 1), 1).unwrap();
        // Wrong destination fails typed.
        assert!(matches!(
            d.verify_blob(&header(7, 1), 2),
            Err(MigrateError::NotInMigration { tenant: 7, node: 2 })
        ));
        d.commit_migration(7, 1);
        assert_eq!(d.epoch(7), Some(2));
        // The same blob replayed after the commit is stale.
        assert!(matches!(
            d.verify_blob(&header(7, 1), 2),
            Err(MigrateError::EpochStale {
                tenant: 7,
                blob_epoch: 1,
                current_epoch: 2,
            })
        ));
        // A from-the-future epoch means the directory lost history.
        assert!(matches!(
            d.verify_blob(&header(7, 9), 1),
            Err(MigrateError::EpochFromFuture { .. })
        ));
        assert!(matches!(
            d.verify_blob(&header(8, 1), 0),
            Err(MigrateError::UnknownTenant { tenant: 8 })
        ));
    }

    #[test]
    fn directory_round_trips() {
        let mut d = Directory::new();
        d.admit(0, 0);
        d.admit(1, 2);
        d.begin_migration(1, 2, 3);
        d.admit(2, 1);
        d.finish(2);
        let mut w = itesp_snap::SnapWriter::new();
        w.put(&d);
        let bytes = w.into_bytes();
        let mut r = itesp_snap::SnapReader::new(&bytes);
        let back: Directory = r.get("directory").unwrap();
        r.finish().unwrap();
        assert_eq!(back, d);
    }
}
