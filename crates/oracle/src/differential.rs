//! Analytic-vs-functional differential oracle.
//!
//! [`DifferentialHarness`] drives two independent models of the same
//! access stream in lockstep and cross-checks them every access:
//!
//! * the **analytic** [`SecurityEngine`], which predicts the metadata
//!   traffic (tree walk, MAC, parity), miss-case classification, and
//!   counter-overflow stalls of each access without materializing any
//!   data; and
//! * the **functional** [`VerifiedMemory`], which actually stores data,
//!   per-block counters, and MACs, and verifies the integrity-tree path
//!   on every read.
//!
//! Cross-checks, per access:
//!
//! 1. **Tree-walk footprint** — the engine's leading run of tree *reads*
//!    must be exactly the leaf-to-root prefix of
//!    [`TreeGeometry::walk`] for the accessed block, mapped through the
//!    partition's tree base address.
//! 2. **Miss-case agreement** — the reported [`MissCase`] must equal
//!    [`MissCase::classify`] recomputed from the observed traffic.
//! 3. **Scheme conformance** — inline-MAC schemes emit no MAC traffic,
//!    parity-free schemes no parity traffic, the unsecure baseline no
//!    metadata at all; every address lands inside its partition's
//!    declared region.
//! 4. **Overflow agreement** — an independent [`OverflowTracker`] fed
//!    the same (leaf, block) keys must agree with the engine's overflow
//!    count and per-access stall cycles.
//! 5. **Counter agreement** — the functional memory's per-block write
//!    counter must equal the harness's shadow write count, and reads
//!    must return the last written data with the integrity check
//!    passing.
//!
//! The analytic checks dispatch on [`Scheme::family`]:
//!
//! * **Tree-walk** schemes get checks 1–4 above, unchanged from the
//!   original 13-scheme oracle;
//! * **link-level** (SecDDR) schemes must emit *no* traffic at all —
//!   zero transactions, case A, zero stall — every single access;
//! * **ORAM** (IRO) schemes are cross-checked against an
//!   [`OramShadow`] that predicts the exact bucket-path and parity
//!   transaction list of every access, plus containment of every
//!   address in the engine's declared
//!   [`region_span`](SecurityEngine::region_span). The shadow replays
//!   the model's own `OramState::step`, so it checks the model's wiring
//!   (one step per access, traffic passed through unchanged), not the
//!   remap or eviction algorithm.
//!
//! Check 5 (the functional memory) runs for every family: data
//! round-trips and monotone write counters are scheme-independent
//! obligations.

use std::collections::HashMap;

use itesp_core::{
    EngineConfig, MacKey, MetaKind, MissCase, ModelFamily, OramShadow, OverflowTracker, ParityMode,
    Scheme, SchemeSpec, SecurityEngine, TreeGeometry, VerifiedMemory,
};

const BLOCK_BYTES: u64 = 64;

/// Lockstep driver for the analytic engine and the functional memory.
pub struct DifferentialHarness {
    scheme: Scheme,
    spec: SchemeSpec,
    family: ModelFamily,
    engine: SecurityEngine,
    geo: Option<TreeGeometry>,
    /// Independent ORAM state twin (ORAM family only): predicts the
    /// exact transaction list of every access.
    shadow: Option<OramShadow>,
    /// One functional memory per enclave (isolated schemes give each
    /// enclave its own tree; for shared schemes the enclaves still own
    /// disjoint data blocks here, which keeps the counter bookkeeping
    /// per-enclave either way).
    vms: Vec<VerifiedMemory>,
    /// Shadow per-(enclave, block) write counts.
    counts: HashMap<(usize, u64), u64>,
    /// Last written fill byte per (enclave, block).
    data: HashMap<(usize, u64), u8>,
    /// Independent re-derivation of the engine's overflow events.
    overflow: Option<OverflowTracker>,
    accesses: u64,
}

impl DifferentialHarness {
    /// Build the pair of models for `scheme` over `blocks` data blocks
    /// per enclave. Overflow modeling is always on, so the oracle
    /// exercises the counter path for every scheme with a tree.
    pub fn new(scheme: Scheme, blocks: u64) -> Self {
        let mut cfg = EngineConfig::paper_default(scheme);
        cfg.model_overflow = true;
        Self::with_config(scheme, cfg, blocks)
    }

    /// Like [`new`](Self::new) but with a caller-tweaked engine config
    /// (e.g. a rank stride that defeats parity embedding).
    pub fn with_config(scheme: Scheme, cfg: EngineConfig, blocks: u64) -> Self {
        let engine = SecurityEngine::new(cfg);
        let family = scheme.family();
        let geo = engine.geometry().cloned();
        let overflow = geo
            .as_ref()
            .map(|g| OverflowTracker::new(g.local_counter_bits(), g.leaf_arity()));
        let shadow = (family == ModelFamily::Oram).then(|| OramShadow::new(&cfg));
        let vms = (0..cfg.enclaves)
            .map(|e| {
                let key = MacKey {
                    k0: 0x6974_6573_705f_6b30 ^ e as u64,
                    k1: 0x6974_6573_705f_6b31 ^ ((e as u64) << 32),
                };
                VerifiedMemory::new(key, blocks)
            })
            .collect();
        DifferentialHarness {
            scheme,
            spec: scheme.spec(),
            family,
            engine,
            geo,
            shadow,
            vms,
            counts: HashMap::new(),
            data: HashMap::new(),
            overflow,
            accesses: 0,
        }
    }

    pub fn engine(&self) -> &SecurityEngine {
        &self.engine
    }

    /// Metadata partition a given enclave's accesses use.
    fn part_of(&self, enclave: usize) -> usize {
        if self.spec.isolated {
            enclave
        } else {
            0
        }
    }

    /// Drive one access through both models and cross-check them.
    /// Panics with a scheme-and-access annotated message on divergence.
    pub fn access(&mut self, enclave: usize, block: u64, is_write: bool, fill: u8) {
        let label = self.scheme.label();
        let n = self.accesses;
        self.accesses += 1;
        let ctx =
            |what: &str| format!("[{label}] access #{n} block {block} write={is_write}: {what}");

        let part = self.part_of(enclave);
        let paddr = block * BLOCK_BYTES;
        let outcome = self.engine.on_access(enclave, paddr, block, is_write);

        match self.family {
            ModelFamily::TreeWalk => self.check_tree_walk(part, block, is_write, &outcome, &ctx),
            ModelFamily::LinkLevel => {
                // SecDDR's entire claim is *zero* memory-side cost:
                // the MAC rides the ECC pins and the anti-replay
                // counters never leave the chip. Any transaction, any
                // stall, or any classification other than case A is a
                // model bug.
                assert!(
                    outcome.mem.is_empty(),
                    "{}",
                    ctx("link-level scheme emitted memory traffic")
                );
                assert_eq!(outcome.case, MissCase::A, "{}", ctx("link-level case != A"));
                assert_eq!(
                    outcome.stall_cycles,
                    0,
                    "{}",
                    ctx("link-level scheme stalled")
                );
            }
            ModelFamily::Oram => {
                // The shadow twin steps its own position map, stash
                // schedule, and parity state: the engine must emit the
                // byte-exact transaction list the shadow predicts.
                let shadow = self.shadow.as_mut().expect("ORAM family has a shadow");
                let expected_case = shadow.expected_case();
                let expected = shadow.expect_access(block);
                assert_eq!(
                    outcome.mem.as_slice(),
                    expected,
                    "{}",
                    ctx("ORAM traffic diverged from the shadow's prediction")
                );
                assert_eq!(
                    outcome.case,
                    expected_case,
                    "{}",
                    ctx("ORAM miss case diverged from the shadow")
                );
                assert_eq!(
                    outcome.stall_cycles,
                    0,
                    "{}",
                    ctx("ORAM access reported an overflow stall")
                );
                for m in &outcome.mem {
                    self.assert_in_region(m.kind, m.addr, part, &ctx);
                }
            }
        }

        // -- 5. Functional memory ----------------------------------------
        let vm = &mut self.vms[enclave];
        if is_write {
            vm.write(block, [fill; 64]);
            let count = self.counts.entry((enclave, block)).or_insert(0);
            *count += 1;
            self.data.insert((enclave, block), fill);
            assert_eq!(
                vm.snapshot(block).counter,
                *count,
                "{}",
                ctx("functional write counter diverged from shadow count")
            );
        } else if let Some(&expect) = self.data.get(&(enclave, block)) {
            let got = vm
                .read(block)
                .unwrap_or_else(|e| panic!("{}", ctx(&format!("integrity check failed: {e:?}"))));
            assert_eq!(got, [expect; 64], "{}", ctx("read returned stale data"));
        }
    }

    /// Checks 1–4 for the tree-walk family — unchanged from the
    /// original 13-scheme oracle.
    fn check_tree_walk(
        &mut self,
        part: usize,
        block: u64,
        is_write: bool,
        outcome: &itesp_core::AccessOutcome,
        ctx: &dyn Fn(&str) -> String,
    ) {
        // -- 1. Tree-walk footprint --------------------------------------
        // The engine emits the walk's miss prefix as the leading run of
        // tree reads, before any writeback or MAC/parity traffic.
        let walk_misses = outcome
            .mem
            .iter()
            .take_while(|m| m.kind == MetaKind::Tree && !m.is_write)
            .count();
        if let Some(geo) = &self.geo {
            let tree_base = self.engine.tree_base(part);
            let expected: Vec<u64> = geo
                .walk(block)
                .take(walk_misses)
                .map(|node| geo.node_addr(tree_base, node))
                .collect();
            assert_eq!(
                expected.len(),
                walk_misses,
                "{}",
                ctx("more leading tree reads than walk levels")
            );
            let observed: Vec<u64> = outcome.mem[..walk_misses].iter().map(|m| m.addr).collect();
            assert_eq!(
                observed,
                expected,
                "{}",
                ctx("tree-walk footprint diverged from TreeGeometry::walk")
            );
        } else {
            assert!(
                outcome.mem.is_empty(),
                "{}",
                ctx("tree-less scheme emitted metadata traffic")
            );
        }

        // -- 2. Miss-case agreement --------------------------------------
        let mac_reads: Vec<u64> = outcome
            .mem
            .iter()
            .filter(|m| m.kind == MetaKind::Mac && !m.is_write)
            .map(|m| m.addr)
            .collect();
        let mac_missed = !mac_reads.is_empty();
        assert_eq!(
            outcome.case,
            MissCase::classify(mac_missed, walk_misses as u32),
            "{}",
            ctx("miss-case classification disagrees with observed traffic")
        );

        // -- 3. Scheme conformance ---------------------------------------
        if self.spec.mac_inline {
            assert!(
                outcome.mem.iter().all(|m| m.kind != MetaKind::Mac),
                "{}",
                ctx("inline-MAC scheme emitted separate MAC traffic")
            );
        } else {
            let expected_mac = self.engine.mac_base(part) + (block / 8) * BLOCK_BYTES;
            assert!(
                mac_reads.len() <= 1 && mac_reads.iter().all(|&a| a == expected_mac),
                "{}",
                ctx("MAC read does not target the block's MAC line")
            );
        }
        if self.spec.parity == ParityMode::None {
            assert!(
                outcome.mem.iter().all(|m| m.kind != MetaKind::Parity),
                "{}",
                ctx("parity-free scheme emitted parity traffic")
            );
        }
        if !is_write
            && matches!(
                self.spec.parity,
                ParityMode::PerBlock | ParityMode::Shared(_)
            )
        {
            assert!(
                outcome
                    .mem
                    .iter()
                    .all(|m| m.kind != MetaKind::Parity || m.is_write),
                "{}",
                ctx("data read fetched parity (parity is write-path only)")
            );
        }
        for m in &outcome.mem {
            self.assert_in_region(m.kind, m.addr, part, &ctx);
        }

        // -- 4. Overflow agreement ---------------------------------------
        let mut expected_stall = 0;
        if is_write {
            if let (Some(of), Some(geo)) = (self.overflow.as_mut(), self.geo.as_ref()) {
                let node_key = ((part as u64) << 48) | geo.leaf_of(block).index;
                let block_key = ((part as u64) << 48) | block;
                expected_stall = of.on_write(node_key, block_key);
            }
        }
        assert_eq!(
            outcome.stall_cycles,
            expected_stall,
            "{}",
            ctx("overflow stall cycles diverged from the shadow tracker")
        );
    }

    /// `(base, size)` of partition `part`'s region for `kind` — the
    /// size comes straight from the model's own declaration, so the
    /// containment check holds for every family (tree storage bytes,
    /// MAC/parity stripes, ORAM bucket tree, or zero for link-level).
    fn region(&self, kind: MetaKind, part: usize) -> (u64, u64) {
        let base = match kind {
            MetaKind::Tree => self.engine.tree_base(part),
            MetaKind::Mac => self.engine.mac_base(part),
            MetaKind::Parity => self.engine.parity_base(part),
        };
        (base, self.engine.region_span(kind))
    }

    fn in_region(&self, kind: MetaKind, addr: u64, part: usize) -> bool {
        let (base, size) = self.region(kind, part);
        addr >= base && addr < base + size
    }

    fn assert_in_region(
        &self,
        kind: MetaKind,
        addr: u64,
        part: usize,
        ctx: &dyn Fn(&str) -> String,
    ) {
        let (base, size) = self.region(kind, part);
        assert!(
            self.in_region(kind, addr, part),
            "{}",
            ctx(&format!(
                "{kind:?} access at {addr:#x} outside region [{base:#x}, {:#x})",
                base + size
            ))
        );
    }

    /// End-of-stream checks: total overflow agreement, miss-case count
    /// conservation, and a drain whose writebacks all land in declared
    /// metadata regions.
    pub fn finish(mut self) {
        let label = self.scheme.label();
        let stats = self.engine.stats().clone();
        assert_eq!(
            stats.case_counts.iter().sum::<u64>(),
            self.accesses,
            "[{label}] miss-case counts do not sum to the access count"
        );
        if let Some(of) = &self.overflow {
            assert_eq!(
                stats.overflows,
                of.overflows(),
                "[{label}] engine overflow count diverged from the shadow tracker"
            );
        }
        let parts = self.engine.partitions();
        let drained = self.engine.drain();
        for m in &drained {
            assert!(
                (0..parts).any(|p| self.in_region(m.kind, m.addr, p)),
                "[{label}] drained {:?} writeback at {:#x} outside every partition region",
                m.kind,
                m.addr
            );
        }
    }
}
