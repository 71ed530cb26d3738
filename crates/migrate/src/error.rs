//! Typed failures of the migration protocol.

use std::fmt;

use itesp_snap::{RestoreError, SnapError, StoreError};

/// Why a migration step was refused or failed.
#[derive(Debug)]
pub enum MigrateError {
    /// The blob's migration epoch is behind the directory's current
    /// epoch for the tenant: a stale capture (dead node, replayed
    /// transfer) trying to resurrect superseded state. The typed
    /// cross-node anti-rollback rejection.
    EpochStale {
        tenant: u64,
        blob_epoch: u64,
        current_epoch: u64,
    },
    /// The blob's epoch is *ahead* of the directory — the directory
    /// itself lost history (its own durable state was rolled back).
    EpochFromFuture {
        tenant: u64,
        blob_epoch: u64,
        current_epoch: u64,
    },
    /// The blob was produced under a different engine configuration
    /// (scheme, capacity, cache geometry) than the destination runs.
    ConfigMismatch { expected: u64, found: u64 },
    /// The directory has never admitted this tenant.
    UnknownTenant { tenant: u64 },
    /// The blob's epoch matches, but no migration to this node is in
    /// flight for the tenant (wrong destination, or a duplicate
    /// delivery after the commit already landed).
    NotInMigration { tenant: u64, node: usize },
    /// The destination node was drained and retired.
    NodeRetired { node: usize },
    /// The destination node has no empty enclave slot.
    NoFreeSlot { node: usize },
    /// A transfer frame failed structural validation.
    BadFrame(&'static str),
    /// The blob payload did not decode.
    Decode(SnapError),
    /// The blob's body holds a different tenant than its header names
    /// (a body spliced behind another tenant's header).
    TenantMismatch { header: u64, body: u64 },
    /// The cluster's durable snapshot store failed (I/O or rollback).
    Store(StoreError),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::EpochStale {
                tenant,
                blob_epoch,
                current_epoch,
            } => write!(
                f,
                "stale migration blob for tenant {tenant}: blob epoch {blob_epoch} \
                 behind directory epoch {current_epoch} (cross-node rollback rejected)"
            ),
            MigrateError::EpochFromFuture {
                tenant,
                blob_epoch,
                current_epoch,
            } => write!(
                f,
                "migration blob for tenant {tenant} from the future: blob epoch \
                 {blob_epoch} ahead of directory epoch {current_epoch} (directory rolled back?)"
            ),
            MigrateError::ConfigMismatch { expected, found } => write!(
                f,
                "engine config fingerprint mismatch: destination runs {expected:#018x}, \
                 blob was produced under {found:#018x}"
            ),
            MigrateError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} was never admitted to this cluster")
            }
            MigrateError::NotInMigration { tenant, node } => write!(
                f,
                "no migration of tenant {tenant} to node {node} is in flight"
            ),
            MigrateError::NodeRetired { node } => write!(f, "node {node} is retired"),
            MigrateError::NoFreeSlot { node } => {
                write!(f, "node {node} has no free enclave slot")
            }
            MigrateError::BadFrame(what) => write!(f, "bad transfer frame: {what}"),
            MigrateError::Decode(e) => write!(f, "blob decode: {e}"),
            MigrateError::TenantMismatch { header, body } => write!(
                f,
                "blob header names tenant {header} but its body holds tenant {body}"
            ),
            MigrateError::Store(e) => write!(f, "snapshot store: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MigrateError::Decode(e) => Some(e),
            MigrateError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapError> for MigrateError {
    fn from(e: SnapError) -> Self {
        MigrateError::Decode(e)
    }
}

impl From<StoreError> for MigrateError {
    fn from(e: StoreError) -> Self {
        MigrateError::Store(e)
    }
}

impl From<RestoreError> for MigrateError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::Store(e) => MigrateError::Store(e),
            RestoreError::Decode(e) => MigrateError::Decode(e),
        }
    }
}
