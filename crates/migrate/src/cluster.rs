//! The simulated cluster: nodes, the directory, the tick loop, and
//! the live-migration protocol.
//!
//! ## Tick order (fixed — recovery replays it)
//!
//! 1. scripted drains flip nodes to draining
//! 2. scripted migrations are attempted (once each, at their tick)
//! 3. the rebalancer may start one migration (at its cadence)
//! 4. draining nodes push residents off; empty drained nodes retire
//! 5. in-flight transfers advance one frame; finished ones commit
//! 6. pending tenants are admitted FIFO while slots exist
//! 7. every live tenant executes one script op (tenant-id order)
//! 8. the exactly-one-home invariant is checked
//! 9. a crash snapshot is captured if due
//!
//! ## The migration protocol
//!
//! *Freeze*: the tenant stops executing ops (its enclave stays
//! installed at the source — the one live copy). *Capture*: the blob
//! (header, enclave state, ledger) is serialized at the directory's
//! current epoch. *Transfer*: one frame per tick. *Commit*: the
//! destination verifies config fingerprint and epoch, decodes and
//! checks the whole blob, installs the enclave (re-deriving the key,
//! remapping frames), the source destroys its copy (zeroizing tree
//! and MACs, reclaiming leaves), and the directory bumps the epoch —
//! permanently staling every earlier capture of this tenant.
//!
//! The [`Directory`] is the one record of where a tenant is; a tenant
//! it has no entry for is still queued for admission.

use std::collections::BTreeMap;
use std::path::Path;

use itesp_core::Scheme;
use itesp_enclave::PAGE_BLOCKS;
use itesp_snap::{
    Persist, SnapError, SnapReader, SnapWriter, SnapshotMeta, SnapshotSink, StoreError,
};
use itesp_trace::record::page_of;
use itesp_trace::{MemOp, PAGE_BYTES};

use crate::directory::{Directory, Residence};
use crate::error::MigrateError;
use crate::ledger::{counter_checksum, xorshift64, TenantFinal, TenantLedger};
use crate::node::Node;
use crate::proto::{self, BlobHeader};
use crate::workload::ClusterWorkload;

/// Static cluster parameters. Everything that decides behaviour lives
/// here (and in the workload + schedules), so a recovered cluster is
/// rebuilt from the same values and replays deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    pub nodes: usize,
    pub slots_per_node: usize,
    pub scheme: Scheme,
    /// Span of each tenant's private tree, bytes.
    pub enclave_capacity: u64,
    /// Master key material every node derives tenant keys from.
    pub master: u64,
    /// Seed of the per-tenant fault streams.
    pub seed: u64,
    /// Inject one chip fault per ~this many tenant ops (0 = off).
    pub fault_inverse: u64,
    /// Blob bytes per transfer frame — smaller frames stretch a
    /// migration over more ticks (and widen the crash window).
    pub frame_payload: usize,
    /// Rebalancer cadence in ticks (0 = off).
    pub rebalance_every: u64,
    /// Live-page imbalance (max − min) that triggers a migration.
    pub rebalance_threshold: u64,
}

impl ClusterConfig {
    /// A compact configuration for tests and drills: 1 MB private
    /// trees, faults every ~200 ops, 96-byte frames.
    pub fn small(nodes: usize, slots_per_node: usize, scheme: Scheme) -> Self {
        ClusterConfig {
            nodes,
            slots_per_node,
            scheme,
            enclave_capacity: 1 << 20,
            master: 0x17e5_9001,
            seed: 0x17e5_9002,
            fault_inverse: 200,
            frame_payload: 96,
            rebalance_every: 0,
            rebalance_threshold: 0,
        }
    }
}

/// Cluster-wide operational counters (schedule-dependent; excluded
/// from the per-tenant artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, Persist)]
pub struct ClusterStats {
    pub migrations_started: u64,
    pub migrations_committed: u64,
    /// Scripted/rebalance/drain attempts that found no legal move.
    pub migrations_skipped: u64,
    pub drains_completed: u64,
}

/// One in-flight migration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Persist)]
pub struct Transfer {
    pub tenant: u64,
    pub from: usize,
    pub to: usize,
    /// Frames already on the wire.
    pub sent: usize,
    pub blob: Vec<u8>,
}

#[derive(Debug, Persist)]
struct TenantRuntime {
    ledger: TenantLedger,
    /// Set when the script completes.
    fin: Option<TenantFinal>,
}

/// The multi-node simulated cluster.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    workload: ClusterWorkload,
    nodes: Vec<Node>,
    dir: Directory,
    tenants: Vec<TenantRuntime>,
    inflight: Vec<Transfer>,
    tick: u64,
    /// Next workload index awaiting admission (FIFO).
    next_admit: usize,
    stats: ClusterStats,
    /// Scripted migrations, (tick, tenant, to), non-decreasing ticks.
    planned: Vec<(u64, u64, usize)>,
    planned_done: usize,
    /// Scripted drains, (tick, node), non-decreasing ticks.
    drains: Vec<(u64, usize)>,
    drains_done: usize,
    sink: Option<SnapshotSink>,
    /// WAL head we last observed/wrote — the cheap freshness anchor
    /// the epoch-bump check compares against (`latest_seq`).
    last_seq: Option<u64>,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig, workload: ClusterWorkload) -> Self {
        assert!(cfg.nodes > 0 && cfg.slots_per_node > 0);
        let nodes = (0..cfg.nodes).map(|i| Node::new(i, &cfg)).collect();
        let tenants = (0..workload.tenant_count())
            .map(|t| TenantRuntime {
                ledger: TenantLedger::new(cfg.seed, t as u64),
                fin: None,
            })
            .collect();
        Cluster {
            cfg,
            workload,
            nodes,
            dir: Directory::new(),
            tenants,
            inflight: Vec::new(),
            tick: 0,
            next_admit: 0,
            stats: ClusterStats::default(),
            planned: Vec::new(),
            planned_done: 0,
            drains: Vec::new(),
            drains_done: 0,
            sink: None,
            last_seq: None,
        }
    }

    /// Attach durable crash snapshots (`every` in ticks). The current
    /// WAL head becomes the freshness anchor.
    ///
    /// # Errors
    /// Store I/O failures.
    pub fn attach_snapshots(
        &mut self,
        dir: impl AsRef<Path>,
        every: u64,
    ) -> Result<(), StoreError> {
        let sink = SnapshotSink::new(dir.as_ref(), every)?;
        self.last_seq = sink.store().latest_seq()?;
        self.sink = Some(sink);
        Ok(())
    }

    /// Schedule a migration attempt at `tick`. Schedules are inputs,
    /// not state: a recovered cluster must be handed the same calls.
    pub fn schedule_migration(&mut self, tick: u64, tenant: u64, to: usize) {
        assert!(
            self.planned.last().is_none_or(|&(t, _, _)| t <= tick),
            "migration schedule must be tick-ordered"
        );
        self.planned.push((tick, tenant, to));
    }

    /// Schedule a node drain at `tick`.
    pub fn schedule_drain(&mut self, tick: u64, node: usize) {
        assert!(
            self.drains.last().is_none_or(|&(t, _)| t <= tick),
            "drain schedule must be tick-ordered"
        );
        self.drains.push((tick, node));
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    pub fn inflight(&self) -> &[Transfer] {
        &self.inflight
    }

    /// The wire blob of an in-flight migration (for drills that
    /// capture and replay it).
    pub fn inflight_blob(&self, tenant: u64) -> Option<Vec<u8>> {
        self.inflight
            .iter()
            .find(|t| t.tenant == tenant)
            .map(|t| t.blob.clone())
    }

    /// Has every tenant finished and every transfer landed?
    pub fn done(&self) -> bool {
        self.next_admit == self.tenants.len()
            && self.inflight.is_empty()
            && self.tenants.iter().all(|t| t.fin.is_some())
    }

    /// Where the directory places `tenant`; `None` while it is queued.
    fn residence(&self, tenant: u64) -> Option<Residence> {
        self.dir.entry(tenant).map(|e| e.residence)
    }

    /// Per-tenant live-page load, one entry per node (retired nodes
    /// report 0).
    pub fn node_live_pages(&self) -> Vec<u64> {
        self.nodes.iter().map(Node::live_pages).collect()
    }

    /// The deterministic artifact: every completed tenant's
    /// [`TenantFinal`], pretty-printed. Byte-identical across
    /// topologies, migration schedules, and crash recovery.
    pub fn tenants_json(&self) -> String {
        let map: BTreeMap<u64, &TenantFinal> = self
            .tenants
            .iter()
            .enumerate()
            .filter_map(|(t, rt)| Some((t as u64, rt.fin.as_ref()?)))
            .collect();
        let mut s = serde_json::to_string_pretty(&map).expect("serialize tenant finals");
        s.push('\n');
        s
    }

    /// Start a migration now (the scripted/rebalance/drain paths all
    /// funnel here).
    ///
    /// # Errors
    /// Typed refusal when the tenant is not live, the destination
    /// cannot take it, or source equals destination.
    pub fn start_migration(&mut self, tenant: u64, to: usize) -> Result<(), MigrateError> {
        if tenant as usize >= self.tenants.len() {
            return Err(MigrateError::UnknownTenant { tenant });
        }
        let Some(Residence::Live { node: from }) = self.residence(tenant) else {
            return Err(MigrateError::NotInMigration { tenant, node: to });
        };
        if from == to {
            return Err(MigrateError::NotInMigration { tenant, node: to });
        }
        if self.nodes[to].retired() {
            return Err(MigrateError::NodeRetired { node: to });
        }
        if self.nodes[to].draining() || self.nodes[to].free_slot().is_none() {
            return Err(MigrateError::NoFreeSlot { node: to });
        }
        let epoch = self.dir.epoch(tenant).expect("live tenant has an epoch");
        let slot = self.nodes[from].slot_of(tenant).expect("tenant at source");
        let header = BlobHeader {
            tenant,
            epoch,
            fingerprint: self.nodes[from].fingerprint(),
        };
        let blob = proto::encode_blob(
            &header,
            self.nodes[from].mgr(),
            slot,
            &self.tenants[tenant as usize].ledger,
        );
        self.dir.begin_migration(tenant, from, to);
        self.inflight.push(Transfer {
            tenant,
            from,
            to,
            blob,
            sent: 0,
        });
        self.stats.migrations_started += 1;
        // Force a snapshot at the freeze point so a crash anywhere in
        // the transfer recovers into a mid-flight state.
        self.capture_snapshot(true).map_err(MigrateError::Store)?;
        Ok(())
    }

    /// The destination-side acceptance routine — *and* the replay
    /// surface the anti-rollback oracle attacks. Verifies the config
    /// fingerprint and the migration epoch before any state is
    /// decoded, then decodes and checks the whole blob; only then
    /// installs the enclave at `node`, reclaims the source copy, and
    /// bumps the epoch.
    ///
    /// # Errors
    /// [`MigrateError::EpochStale`] for replayed/stale blobs,
    /// [`MigrateError::Decode`] for truncated or padded ones,
    /// [`MigrateError::TenantMismatch`] for spliced ones, plus the
    /// other typed refusals. A refused blob touches no state.
    pub fn deliver_blob(&mut self, node: usize, blob: &[u8]) -> Result<(), MigrateError> {
        let header = proto::peek_header(blob)?;
        if self.nodes[node].retired() {
            return Err(MigrateError::NodeRetired { node });
        }
        let expected = self.nodes[node].fingerprint();
        if header.fingerprint != expected {
            return Err(MigrateError::ConfigMismatch {
                expected,
                found: header.fingerprint,
            });
        }
        self.dir.verify_blob(&header, node)?;
        let Some(slot) = self.nodes[node].free_slot() else {
            return Err(MigrateError::NoFreeSlot { node });
        };
        let (enc, ledger) = proto::decode_blob(blob)?;
        // Every check passed: install, then reclaim the source copy
        // (zeroize its tree, free its leaves).
        let tenant = header.tenant;
        let Some(Residence::Migrating { from, .. }) = self.residence(tenant) else {
            unreachable!("verify_blob admitted a non-migrating tenant");
        };
        self.nodes[node].import(slot, enc);
        let src_slot = self.nodes[from].slot_of(tenant).expect("source copy");
        self.nodes[from].destroy(src_slot);
        self.nodes[from].stats_mut().migrations_out += 1;
        self.dir.commit_migration(tenant, node);
        self.tenants[tenant as usize].ledger = ledger;
        self.stats.migrations_committed += 1;
        Ok(())
    }

    /// Drive the cluster until every tenant completes.
    ///
    /// # Errors
    /// Propagates protocol and store failures.
    ///
    /// # Panics
    /// Panics if the cluster wedges (a schedule bug: e.g. every node
    /// draining while tenants still wait).
    pub fn run_to_completion(&mut self) -> Result<(), MigrateError> {
        let limit = self.tick
            + self.workload.max_arrival()
            + 4 * self.workload.total_ops() as u64
            + 1_000 * self.tenants.len() as u64
            + 100_000;
        while !self.done() {
            self.step()?;
            assert!(
                self.tick < limit,
                "cluster wedged at tick {} ({} tenants pending, {} in flight)",
                self.tick,
                self.tenants.iter().filter(|t| t.fin.is_none()).count(),
                self.inflight.len()
            );
        }
        Ok(())
    }

    /// One cluster tick (see the module docs for the fixed order).
    ///
    /// # Errors
    /// Propagates protocol and store failures.
    pub fn step(&mut self) -> Result<(), MigrateError> {
        self.tick += 1;
        self.apply_drains();
        self.apply_planned_migrations();
        self.apply_rebalance();
        self.push_drained_residents();
        self.advance_transfers()?;
        self.admit_pending();
        self.execute_ops();
        self.check_exactly_one_home()
            .unwrap_or_else(|e| panic!("residency invariant broken: {e}"));
        self.capture_snapshot(false).map_err(MigrateError::Store)?;
        Ok(())
    }

    fn apply_drains(&mut self) {
        while self.drains_done < self.drains.len() && self.drains[self.drains_done].0 <= self.tick {
            let (_, node) = self.drains[self.drains_done];
            self.nodes[node].set_draining();
            self.drains_done += 1;
        }
    }

    fn apply_planned_migrations(&mut self) {
        while self.planned_done < self.planned.len()
            && self.planned[self.planned_done].0 <= self.tick
        {
            let (_, tenant, to) = self.planned[self.planned_done];
            self.planned_done += 1;
            if self.start_migration(tenant, to).is_err() {
                // A scripted move that is illegal *now* (tenant done,
                // destination full) is skipped, not retried: skips are
                // a deterministic function of cluster state.
                self.stats.migrations_skipped += 1;
            }
        }
    }

    fn apply_rebalance(&mut self) {
        if self.cfg.rebalance_every == 0 || !self.tick.is_multiple_of(self.cfg.rebalance_every) {
            return;
        }
        let active: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| !n.retired() && !n.draining())
            .map(Node::id)
            .collect();
        if active.len() < 2 {
            return;
        }
        let heaviest = *active
            .iter()
            .max_by_key(|&&n| (self.nodes[n].live_pages(), usize::MAX - n))
            .unwrap();
        let lightest = *active
            .iter()
            .filter(|&&n| self.nodes[n].free_slot().is_some())
            .min_by_key(|&&n| (self.nodes[n].live_pages(), n))
            .unwrap_or(&heaviest);
        if heaviest == lightest {
            return;
        }
        let gap = self.nodes[heaviest]
            .live_pages()
            .saturating_sub(self.nodes[lightest].live_pages());
        if gap < self.cfg.rebalance_threshold.max(1) {
            return;
        }
        // Move the heaviest *live* (not migrating) resident.
        let candidate = self.nodes[heaviest]
            .residents()
            .into_iter()
            .filter(|&t| matches!(self.residence(t), Some(Residence::Live { .. })))
            .max_by_key(|&t| {
                let pages = self.nodes[heaviest]
                    .slot_of(t)
                    .and_then(|s| self.nodes[heaviest].mgr().enclave(s))
                    .map_or(0, |e| e.live_pages());
                (pages, u64::MAX - t)
            });
        if let Some(tenant) = candidate {
            if self.start_migration(tenant, lightest).is_err() {
                self.stats.migrations_skipped += 1;
            }
        }
    }

    fn push_drained_residents(&mut self) {
        for node in 0..self.nodes.len() {
            if !self.nodes[node].draining() || self.nodes[node].retired() {
                continue;
            }
            for tenant in self.nodes[node].residents() {
                if !matches!(self.residence(tenant), Some(Residence::Live { .. })) {
                    continue; // already on the move
                }
                // Most free slots wins; ties to the lowest id.
                let target = (0..self.nodes.len())
                    .filter(|&n| n != node && self.nodes[n].accepting())
                    .max_by_key(|&n| (self.nodes[n].free_slots(), usize::MAX - n));
                match target {
                    Some(to) => {
                        if self.start_migration(tenant, to).is_err() {
                            self.stats.migrations_skipped += 1;
                        }
                    }
                    None => self.stats.migrations_skipped += 1,
                }
            }
            let empty = self.nodes[node].mgr().live_count() == 0;
            let quiet = !self.inflight.iter().any(|t| t.from == node || t.to == node);
            if empty && quiet {
                self.nodes[node].retire();
                self.stats.drains_completed += 1;
            }
        }
    }

    fn advance_transfers(&mut self) -> Result<(), MigrateError> {
        let mut i = 0;
        while i < self.inflight.len() {
            let frames = proto::frames(&self.inflight[i].blob, self.cfg.frame_payload);
            if self.inflight[i].sent < frames.len() {
                let frame_len = frames[self.inflight[i].sent].len() as u64;
                self.inflight[i].sent += 1;
                let from = self.inflight[i].from;
                self.nodes[from].stats_mut().transfer_bytes += frame_len;
            }
            if self.inflight[i].sent < frames.len() {
                i += 1;
                continue;
            }
            // All frames on the wire: reassemble and commit.
            let t = self.inflight[i].clone();
            let blob = proto::reassemble(&frames)?;
            debug_assert_eq!(blob, t.blob);
            self.check_store_fresh()?;
            match self.deliver_blob(t.to, &blob) {
                Ok(()) => {
                    self.inflight.remove(i);
                }
                Err(MigrateError::NoFreeSlot { .. }) => {
                    // Destination transiently full (a resident hasn't
                    // finished yet): hold the commit, retry next tick.
                    i += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The `latest_seq` freshness check: before an epoch advances, the
    /// durable WAL head must still be exactly where this cluster last
    /// left it — a cheap guard against the store being swapped or
    /// rolled back beneath a live cluster.
    fn check_store_fresh(&self) -> Result<(), MigrateError> {
        let Some(sink) = &self.sink else {
            return Ok(());
        };
        let head = sink.store().latest_seq().map_err(MigrateError::Store)?;
        if head != self.last_seq {
            return Err(MigrateError::Store(StoreError::RollbackDetected {
                snapshot_seq: self.last_seq.unwrap_or(0),
                wal_seq: head.unwrap_or(0),
            }));
        }
        Ok(())
    }

    fn admit_pending(&mut self) {
        while self.next_admit < self.tenants.len() {
            let tenant = self.next_admit as u64;
            if self.workload.tenants[self.next_admit].arrival > self.tick {
                break;
            }
            // Most free slots wins; ties to the lowest node id. FIFO:
            // if the head of the queue cannot be placed, nobody behind
            // it is — placement stays a function of cluster state
            // only.
            let target = (0..self.nodes.len())
                .filter(|&n| self.nodes[n].accepting())
                .max_by_key(|&n| (self.nodes[n].free_slots(), usize::MAX - n));
            let Some(node) = target else { break };
            let slot = self.nodes[node].free_slot().expect("accepting node");
            let footprint = self.workload.tenants[self.next_admit].footprint_pages;
            self.nodes[node].admit(slot, tenant, footprint);
            self.dir.admit(tenant, node);
            self.next_admit += 1;
        }
    }

    fn execute_ops(&mut self) {
        for tenant in 0..self.tenants.len() {
            if let Some(Residence::Live { node }) = self.residence(tenant as u64) {
                self.execute_one(tenant, node);
            }
        }
    }

    /// Run one script op for a live tenant — or finalize it when the
    /// script is exhausted. The enclave manager does the lifecycle
    /// accounting; the ledger counts ops.
    fn execute_one(&mut self, tenant: usize, node: usize) {
        let slot = self.nodes[node]
            .slot_of(tenant as u64)
            .expect("live tenant");
        let script = &self.workload.tenants[tenant];
        let pos = self.tenants[tenant].ledger.next_record as usize;
        if pos >= script.records.len() {
            self.finalize(tenant, node, slot);
            return;
        }
        let rec = script.records[pos];
        let is_write = rec.op == MemOp::Write;
        let n = &mut self.nodes[node];
        let (paddr, block, _) = n.access(slot, rec.vaddr, is_write);
        // The access itself, through the node's engine.
        n.engine_mut().on_access(slot, paddr, block, is_write);
        let ledger = &mut self.tenants[tenant].ledger;
        if is_write {
            ledger.writes += 1;
        } else {
            ledger.reads += 1;
        }
        ledger.ops += 1;
        ledger.next_record += 1;
        self.maybe_inject_fault(tenant, node, slot);
        self.run_due_frees(tenant, node, slot, pos);
    }

    /// The per-tenant RAS stream: a deterministic chip-fault draw per
    /// op. The faulted block is chosen from the tenant's *own* live
    /// pages (leaf space — placement-free); the correction is charged
    /// to the node's engine as a re-read plus a corrected writeback
    /// (operational cost), while the ledger records the functional
    /// counts.
    fn maybe_inject_fault(&mut self, tenant: usize, node: usize, slot: usize) {
        if self.cfg.fault_inverse == 0 {
            return;
        }
        let ledger = &mut self.tenants[tenant].ledger;
        ledger.rng = xorshift64(ledger.rng);
        let draw = ledger.rng;
        if !draw.is_multiple_of(self.cfg.fault_inverse) {
            return;
        }
        let n = &mut self.nodes[node];
        let enc = n.mgr().enclave(slot).expect("live slot");
        let live = enc.live_pages();
        if live == 0 {
            return;
        }
        let pick = ((draw >> 32) % live) as usize;
        let (_vpage, info) = enc.iter_pages().nth(pick).expect("picked a live page");
        let block = info.leaf * PAGE_BLOCKS;
        let paddr = info.ppage * PAGE_BYTES;
        let (part, pblock) = n.engine().locate(slot, paddr, block);
        let parity = n.engine().recovery_parity_addr(part, pblock).is_some();
        // Correction: demand re-read of the faulted block, then the
        // corrected writeback.
        n.engine_mut().on_access(slot, paddr, block, false);
        n.engine_mut().on_access(slot, paddr, block, true);
        let ledger = &mut self.tenants[tenant].ledger;
        ledger.faults_injected += 1;
        ledger.fault_parity_hits += u64::from(parity);
    }

    fn run_due_frees(&mut self, tenant: usize, node: usize, slot: usize, pos: usize) {
        let script = &self.workload.tenants[tenant];
        let mut done = self.tenants[tenant].ledger.frees_done as usize;
        while done < script.frees.len() && script.frees[done].after_record <= pos {
            // An already-freed page is a no-op (the generator guards
            // against it).
            self.nodes[node].free_page(slot, page_of(script.frees[done].vaddr));
            done += 1;
        }
        self.tenants[tenant].ledger.frees_done = done as u64;
    }

    /// Script exhausted: digest the exit-time tree state into the
    /// tenant's [`TenantFinal`], tear the enclave down, and retire the
    /// directory entry.
    fn finalize(&mut self, tenant: usize, node: usize, slot: usize) {
        let n = &self.nodes[node];
        let enc = n.mgr().enclave(slot).expect("live slot");
        let key = n.mgr().key_of(slot).expect("live slot");
        let checksum = counter_checksum(
            &key,
            enc.iter_pages().map(|(vpage, info)| {
                let c = n
                    .mgr()
                    .counter_of(slot, info.leaf)
                    .expect("live leaf has a counter");
                (vpage, info.leaf, c)
            }),
        );
        let l = &self.tenants[tenant].ledger;
        let s = enc.stats();
        let fin = TenantFinal {
            ops: l.ops,
            reads: l.reads,
            writes: l.writes,
            pages_touched: s.pages_touched,
            pages_freed: s.pages_freed,
            grow_events: s.grow_events,
            grow_meta: s.grow_meta,
            free_meta: s.free_meta,
            leaves_recycled: s.leaves_recycled,
            faults_injected: l.faults_injected,
            fault_parity_hits: l.fault_parity_hits,
            tree_pages: enc.tree_pages(),
            leaf_high_water: enc.allocator().high_water(),
            live_pages_at_exit: enc.live_pages(),
            counter_checksum: checksum,
        };
        self.nodes[node].destroy(slot);
        self.dir.finish(tenant as u64);
        self.tenants[tenant].fin = Some(fin);
    }

    /// Verify the headline safety property: every tenant's enclave is
    /// installed on *exactly* the set of nodes its directory residence
    /// implies — one node when live or mid-migration (the frozen
    /// source), zero when queued or done.
    ///
    /// # Errors
    /// A description of the first violation.
    pub fn check_exactly_one_home(&self) -> Result<(), String> {
        for tenant in 0..self.tenants.len() as u64 {
            let residence = self.residence(tenant);
            let homes: Vec<usize> = self
                .nodes
                .iter()
                .filter(|n| n.slot_of(tenant).is_some())
                .map(Node::id)
                .collect();
            let expect: Vec<usize> = match residence {
                None | Some(Residence::Done) => vec![],
                Some(Residence::Live { node }) => vec![node],
                Some(Residence::Migrating { from, .. }) => vec![from],
            };
            if homes != expect {
                return Err(format!(
                    "tenant {tenant} with residence {residence:?} is installed on \
                     nodes {homes:?}, expected {expect:?}"
                ));
            }
        }
        Ok(())
    }

    fn capture_snapshot(&mut self, force: bool) -> Result<(), StoreError> {
        let Some(mut sink) = self.sink.take() else {
            return Ok(());
        };
        let result = if force || sink.due(self.tick) {
            sink.capture(self.tick, &*self)
                .map(|meta| self.last_seq = Some(meta.seq))
        } else {
            Ok(())
        };
        self.sink = Some(sink);
        result
    }

    /// Serialize the full cluster (minus the workload and schedules,
    /// which are inputs the recoverer re-supplies). Hand-written, like
    /// [`Self::load_state`]: node and tenant counts are checked against
    /// the constructed topology and workload.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section("CLUS", 2);
        w.put(&self.tick);
        w.put(&self.next_admit);
        w.put(&self.planned_done);
        w.put(&self.drains_done);
        w.put(&self.stats);
        w.put(&self.dir);
        w.put(self.nodes.as_slice());
        w.put(self.tenants.as_slice());
        w.put(&self.inflight);
    }

    /// Restore into a freshly built cluster (same config + workload;
    /// schedules must be re-registered by the caller).
    ///
    /// # Errors
    /// [`SnapError`] on decode failure or config mismatch.
    pub fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.section("CLUS", 2)?;
        self.tick.load(r, "cluster tick")?;
        self.next_admit.load(r, "cluster next admit")?;
        self.planned_done.load(r, "cluster planned done")?;
        self.drains_done.load(r, "cluster drains done")?;
        self.stats.load(r, "cluster stats")?;
        self.dir.load(r, "cluster directory")?;
        r.load_exact(
            &mut self.nodes,
            "cluster node count (snapshot from a different topology)",
        )?;
        r.load_exact(
            &mut self.tenants,
            "cluster tenant count (snapshot from a different workload)",
        )?;
        self.inflight.load(r, "cluster transfers")
    }

    /// Rebuild a cluster from its durable snapshots: construct the
    /// same topology, load the latest good snapshot, and anchor the
    /// freshness check at the current WAL head. Schedules must be
    /// re-registered before stepping.
    ///
    /// # Errors
    /// Store failures (empty store, rollback) and decode failures.
    pub fn recover(
        cfg: ClusterConfig,
        workload: ClusterWorkload,
        dir: impl AsRef<Path>,
        every: u64,
    ) -> Result<(Self, SnapshotMeta), MigrateError> {
        let sink = SnapshotSink::new(dir.as_ref(), every)?;
        let mut cluster = Cluster::new(cfg, workload);
        let meta = sink.store().restore_latest(&mut cluster)?;
        cluster.last_seq = sink.store().latest_seq()?;
        cluster.sink = Some(sink);
        Ok((cluster, meta))
    }
}

/// A cluster's snapshot is [`Cluster::save_state`]'s bytes.
impl Persist for Cluster {
    fn save(&self, w: &mut SnapWriter) {
        self.save_state(w);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        self.load_state(r)
    }
}
