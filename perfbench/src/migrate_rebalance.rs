//! `migrate-rebalance`: a 4-node x 3-slot ITESP cluster running a
//! churn-derived tenant workload, with the load rebalancer firing often.
//!
//! Migration serialise/verify/install dominates its host time and it
//! has no DRAM timing. It uses the snapshot codec on many small enclave
//! blobs, where `ras-churn` uses it on a few large fsync'd system
//! snapshots.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::Instant;

use itesp_core::Scheme;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

use crate::ras_churn::fixed_arrivals;
use crate::span::Tracer;
use crate::stats::{median, tail};
use crate::{Ctx, Layers, Measured, SetupTimes, Workload};

const NODES: usize = 4;
const SLOTS_PER_NODE: usize = 3;
/// Churn slots x sessions per slot = 32 tenants.
const CHURN_SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 8;
const OPS_PER_SESSION: usize = 5_000;
/// Distinct workloads a run cycles through, each drawn from the seed.
const POOL: usize = 8;
const FOOTPRINT_PAGES: u64 = 256;
const FREE_FRACTION: f64 = 0.25;
const MEAN_ARRIVAL_GAP: f64 = 20_000.0;
/// Arrival cycles are shifted right by this into cluster ticks.
const TICK_SHIFT: u32 = 6;
const REBALANCE_EVERY: u64 = 32;
const REBALANCE_THRESHOLD: u64 = 16;

pub struct MigrateRebalance;

pub struct Inputs {
    /// `(seed, workload)` pairs; cluster run `k` uses entry `k % POOL`.
    pool: Vec<(u64, ClusterWorkload)>,
    /// Each workload's 1-node reference results, computed once, outside
    /// any timed region.
    reference: Vec<OnceCell<Result<String, String>>>,
}

/// Counts come from the first cluster run, whose workload every run of
/// this seed measures; step times from all runs.
#[derive(Default)]
pub struct Run {
    commits: u64,
    steps: u64,
    blob_bytes: Vec<f64>,
    ticks: Vec<f64>,
    step_us_inflight: Vec<f64>,
    step_us_idle: Vec<f64>,
}

fn cluster_config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(NODES, SLOTS_PER_NODE, Scheme::Itesp);
    cfg.master = seed ^ 0x9e37_79b9_7f4a_7c15;
    cfg.seed = seed.rotate_left(17) ^ 0x17e5;
    cfg.rebalance_every = REBALANCE_EVERY;
    cfg.rebalance_threshold = REBALANCE_THRESHOLD;
    cfg
}

/// Same tenants, keys and fault streams on one node: nothing moves.
fn reference_config(seed: u64, tenants: usize) -> ClusterConfig {
    let mut cfg = cluster_config(seed);
    cfg.nodes = 1;
    cfg.slots_per_node = tenants;
    cfg.rebalance_every = 0;
    cfg.rebalance_threshold = 0;
    cfg
}

/// Cluster ticks after which a run counts as wedged.
fn tick_limit(w: &ClusterWorkload) -> u64 {
    w.max_arrival() + 4 * w.total_ops() as u64 + 1_000 * w.tenant_count() as u64 + 100_000
}

impl Workload for MigrateRebalance {
    type Inputs = Inputs;
    type Run = Run;

    fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Inputs {
        let t0 = Instant::now();
        let mcf = benchmark("mcf").expect("Table IV benchmark");
        let pool: Vec<(u64, ClusterWorkload)> = (0..POOL)
            .map(|k| {
                let seed = ctx.sub_seed(k);
                let mut churn = ChurnWorkload::generate(
                    mcf,
                    &ChurnConfig {
                        slots: CHURN_SLOTS,
                        sessions_per_slot: SESSIONS_PER_SLOT,
                        ops_per_session: OPS_PER_SESSION,
                        mean_arrival_gap: MEAN_ARRIVAL_GAP,
                        footprint_pages: FOOTPRINT_PAGES,
                        free_fraction: FREE_FRACTION,
                        seed,
                    },
                );
                fixed_arrivals(&mut churn, MEAN_ARRIVAL_GAP);
                (seed, ClusterWorkload::from_churn(&churn, TICK_SHIFT))
            })
            .collect();
        times.gen_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (seed, w) in &pool {
            drop(Cluster::new(cluster_config(*seed), w.clone()));
        }
        times.build_s = t0.elapsed().as_secs_f64();
        Inputs {
            reference: pool.iter().map(|_| OnceCell::new()).collect(),
            pool,
        }
    }

    fn measure(ctx: &Ctx, inputs: &Inputs, tr: &mut Tracer) -> (Measured, Run) {
        let mut m = Measured::default();
        let mut run = Run::default();
        let mut per_run = Vec::new();
        let mut run_tails = Vec::new();
        // Every workload's 1-node reference, before the clock starts.
        for ((seed, w), reference) in inputs.pool.iter().zip(&inputs.reference) {
            reference.get_or_init(|| {
                tr.span("check.reference", |_| {
                    let cfg = reference_config(*seed, w.tenant_count());
                    let mut cluster = Cluster::new(cfg, w.clone());
                    cluster.run_to_completion().map_err(|e| e.to_string())?;
                    Ok(cluster.tenants_json())
                })
            });
        }
        let start = Instant::now();
        let mut k = 0;
        while ctx.more(start, k) {
            let (seed, w) = &inputs.pool[k % POOL];
            let reference = inputs.reference[k % POOL]
                .get()
                .expect("references are computed before timing");
            let mut cluster = Cluster::new(cluster_config(*seed), w.clone());
            let mut run_s = 0.0;
            let first_op = m.op_ms.len();
            // In-flight transfers by (tenant, from, to): when the step
            // that showed them started, and at which tick.
            let mut open: HashMap<(u64, usize, usize), (Instant, u64)> = HashMap::new();
            let mut seen = 0u64;
            let mut error = None;
            let limit = tick_limit(w);
            tr.span("migrate.run", |_| {
                while !cluster.done() {
                    let before = Instant::now();
                    let busy_before = !cluster.inflight().is_empty();
                    if let Err(e) = cluster.step() {
                        error = Some(e.to_string());
                        break;
                    }
                    let after = Instant::now();
                    let step_s = (after - before).as_secs_f64();
                    run_s += step_s;
                    let live: Vec<(u64, usize, usize)> = cluster
                        .inflight()
                        .iter()
                        .map(|t| (t.tenant, t.from, t.to))
                        .collect();
                    if busy_before || !live.is_empty() {
                        run.step_us_inflight.push(step_s * 1e6);
                    } else {
                        run.step_us_idle.push(step_s * 1e6);
                    }
                    open.retain(|key, (start, tick)| {
                        if live.contains(key) {
                            return true;
                        }
                        m.op_ms.push((after - *start).as_secs_f64() * 1e3);
                        if k == 0 {
                            run.ticks.push((cluster.tick() - *tick) as f64);
                        }
                        false
                    });
                    for key in live {
                        if let std::collections::hash_map::Entry::Vacant(slot) = open.entry(key) {
                            slot.insert((before, cluster.tick()));
                            seen += 1;
                            let blob = cluster.inflight_blob(key.0).map_or(0, |b| b.len());
                            if k == 0 {
                                run.blob_bytes.push(blob as f64);
                            }
                        }
                    }
                    if cluster.tick() >= limit {
                        error = Some(format!("cluster wedged at tick {}", cluster.tick()));
                        break;
                    }
                }
            });
            m.busy_s += run_s;
            per_run.push(w.total_ops() as f64 / run_s);
            run_tails.push(tail(&m.op_ms[first_op..]).1);
            m.attempted += seen + 1;
            let committed = cluster.stats().migrations_committed;
            if k == 0 {
                run.commits = committed;
                run.steps = cluster.tick();
            }

            // Outside the timed steps: residency, placement independence
            // and the migration count.
            let verdict = tr.span("check", |_| {
                if let Some(e) = error {
                    return Err(e);
                }
                cluster.check_exactly_one_home()?;
                let reference = reference
                    .as_ref()
                    .map_err(|e| format!("reference run: {e}"))?;
                if cluster.tenants_json() != *reference {
                    return Err("per-tenant results differ from the 1-node reference".into());
                }
                if seen != committed || !open.is_empty() {
                    return Err(format!(
                        "saw {seen} transfers ({} unfinished), cluster committed {committed}",
                        open.len()
                    ));
                }
                Ok(())
            });
            if let Err(e) = verdict {
                eprintln!("check failed: {e}");
                m.failed += 1;
            }
            k += 1;
        }
        m.ops_per_s = median(&per_run);
        // A host stall during one cluster run delays every migration in
        // flight across it; taking the tail per run and reporting the
        // median keeps one such run from setting the figure.
        m.op_ms_tail = Some(median(&run_tails));
        (m, run)
    }

    fn layers(
        _ctx: &Ctx,
        inputs: &Inputs,
        run: &Run,
        _tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let records = inputs
            .pool
            .iter()
            .map(|(_, w)| w.total_ops())
            .sum::<usize>();
        out.set("trace.records", records as f64);
        out.set("migrate.commits", run.commits as f64);
        out.set("migrate.blob_bytes_mean", mean(&run.blob_bytes));
        out.set("migrate.ticks_mean", mean(&run.ticks));
        out.set("migrate.step_us_inflight", mean(&run.step_us_inflight));
        out.set("migrate.step_us_idle", mean(&run.step_us_idle));
        out.set("migrate.steps", run.steps as f64);
        Ok(())
    }
}
