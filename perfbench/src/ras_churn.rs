//! `ras-churn`: enclave churn with the online RAS pipeline and durable
//! snapshots, under each scheme.
//!
//! This is the path where core parking and bulk advance are off. It
//! drives the chipkill decoder, enclave lifecycle traffic (install,
//! grow, reset) and full-system snapshot encode + fsync, none of which
//! `static-mix` touches.

use std::path::PathBuf;
use std::time::Instant;

use itesp_core::Scheme;
use itesp_sim::{
    build_churn_ras_system, recover_system, run_workload_churn, ExperimentParams, RasConfig,
    RunResult, SnapshotSink,
};
use itesp_snap::{SnapWriter, SnapshotStore};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

use crate::probes::decode_probe;
use crate::span::Tracer;
use crate::static_mix::{sim_layers, SCHEMES};
use crate::stats::median;
use crate::{Ctx, Layers, Measured, SetupTimes, Workload};

const SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 8;
const OPS_PER_SESSION: usize = 500;
const FOOTPRINT_PAGES: u64 = 256;
const FREE_FRACTION: f64 = 0.25;
const MEAN_ARRIVAL_GAP: f64 = 5_000.0;
/// CPU cycles between durable snapshots.
const SNAPSHOT_EVERY: u64 = 500_000;
/// Schedules drawn per second of `--seconds`; each round runs a fresh
/// one under all three schemes until the time is up (about one round a
/// second on a 2-core x86-64 host, so the pool leaves room for a fast
/// one).
const SCHEDULES_PER_S: u64 = 2;
/// Codewords the decoder probe corrects.
const DECODES: usize = 20_000;
/// Repeats of each direct snapshot timing.
const SNAP_PROBES: usize = 5;

const RUN_S: [&str; 3] = [
    "sim.run_s.mcf.unsecure",
    "sim.run_s.mcf.synergy",
    "sim.run_s.mcf.itesp",
];

pub struct RasChurn;

pub struct Run {
    /// Results by round, then scheme.
    results: Vec<Vec<RunResult>>,
    /// Host seconds by round, then scheme.
    run_s: Vec<Vec<f64>>,
    /// The first round's snapshot directory, by scheme.
    dirs: Vec<PathBuf>,
}

fn params(scheme: Scheme, seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(scheme, SESSIONS_PER_SLOT * OPS_PER_SESSION)
    }
}

/// Poisson transient faults plus patrol scrub: `figras`'s "high" rate.
fn ras_config(seed: u64) -> RasConfig {
    let mut cfg = RasConfig::new(seed ^ 0xFA17);
    cfg.patrol_interval = 512;
    cfg.retire_threshold = 2;
    cfg.leak_interval = 1 << 22;
    cfg.halt_on_due = false;
    cfg.fault_rate_per_mcycle = 200.0;
    cfg
}

/// Put every session on a fixed arrival cadence, so each seed offers
/// the same load; the seed still varies the access streams, page frees
/// and faults. Exponential gaps over only eight sessions per slot made
/// the run's length, and so its cost, swing with the seed.
pub fn fixed_arrivals(w: &mut ChurnWorkload, gap: f64) {
    for session in w.slots.iter_mut().flatten() {
        session.arrival_gap = gap as u64;
    }
}

/// The run's outputs that must hold whatever the speed: every session
/// created and destroyed; Synergy corrects every error; ITESP never
/// corrupts silently. ITESP's parity is shared across ranks, so two
/// live faults in one parity group are detected but uncorrectable at
/// this fault rate; those DUEs are reported as `ras.uncorrected`.
fn check(scheme: Scheme, r: &RunResult) -> Result<(), String> {
    let sessions = (SLOTS * SESSIONS_PER_SLOT) as u64;
    if r.churn.created != sessions || r.churn.destroyed != sessions {
        return Err(format!(
            "{scheme:?}: churn created {} destroyed {} (want {sessions})",
            r.churn.created, r.churn.destroyed
        ));
    }
    let broken = match scheme {
        Scheme::Synergy => r.ras.uncorrected() != 0,
        Scheme::Itesp => r.ras.sdc_events != 0,
        _ => false,
    };
    if broken {
        return Err(format!(
            "{scheme:?}: {} uncorrected errors ({} DUE, {} SDC)",
            r.ras.uncorrected(),
            r.ras.due_events,
            r.ras.sdc_events
        ));
    }
    Ok(())
}

impl Workload for RasChurn {
    type Inputs = Vec<ChurnWorkload>;
    type Run = Run;

    fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Vec<ChurnWorkload> {
        let t0 = Instant::now();
        let mcf = benchmark("mcf").expect("Table IV benchmark");
        let pool = (0..(ctx.seconds * SCHEDULES_PER_S) as usize)
            .map(|k| {
                let mut w = ChurnWorkload::generate(
                    mcf,
                    &ChurnConfig {
                        slots: SLOTS,
                        sessions_per_slot: SESSIONS_PER_SLOT,
                        ops_per_session: OPS_PER_SESSION,
                        mean_arrival_gap: MEAN_ARRIVAL_GAP,
                        footprint_pages: FOOTPRINT_PAGES,
                        free_fraction: FREE_FRACTION,
                        seed: ctx.sub_seed(k),
                    },
                );
                fixed_arrivals(&mut w, MEAN_ARRIVAL_GAP);
                w
            })
            .collect();
        times.gen_s = t0.elapsed().as_secs_f64();
        pool
    }

    fn measure(ctx: &Ctx, pool: &Self::Inputs, tr: &mut Tracer) -> (Measured, Run) {
        let mut m = Measured::default();
        let mut results = Vec::new();
        let mut run_s = Vec::new();
        let mut dirs = Vec::new();
        let mut per_round = Vec::new();
        let start = Instant::now();
        for (round, w) in pool.iter().enumerate() {
            if !ctx.more(start, round) {
                break;
            }
            let seed = ctx.sub_seed(round);
            let (mut round_ops, mut round_s) = (0u64, 0.0);
            let mut row = Vec::new();
            let mut times = Vec::new();
            for &scheme in &SCHEMES {
                // The first round's stores are kept for the traced probes.
                let dir = if round == 0 {
                    ctx.scratch(&format!("snap-first-{scheme:?}"))
                } else {
                    ctx.scratch(&format!("snap-{scheme:?}"))
                };
                let t0 = Instant::now();
                let outcome = tr.span("sim.run", |_| {
                    let mut sys = build_churn_ras_system(w, params(scheme, seed), ras_config(seed));
                    let sink =
                        SnapshotSink::new(&dir, SNAPSHOT_EVERY).map_err(|e| e.to_string())?;
                    sys.attach_snapshots(sink);
                    sys.try_run().map_err(|e| e.to_string())
                });
                let dt = t0.elapsed().as_secs_f64();
                m.attempted += 1;
                m.op_ms.push(dt * 1e3);
                m.busy_s += dt;
                round_s += dt;
                times.push(dt);
                if round == 0 {
                    dirs.push(dir);
                }
                match outcome.and_then(|r| check(scheme, &r).map(|()| r)) {
                    Ok(r) => {
                        round_ops += r.engine.data_accesses();
                        row.push(r);
                    }
                    Err(e) => {
                        eprintln!("check failed: round {round}: {e}");
                        m.failed += 1;
                    }
                }
            }
            per_round.push(round_ops as f64 / round_s);
            results.push(row);
            run_s.push(times);
        }
        m.ops_per_s = median(&per_round);
        (
            m,
            Run {
                results,
                run_s,
                dirs,
            },
        )
    }

    fn layers(
        ctx: &Ctx,
        pool: &Self::Inputs,
        run: &Run,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        if run.results.iter().any(|row| row.len() != SCHEMES.len()) {
            return Err("a measured run failed; no per-layer figures".into());
        }
        out.set(
            "trace.records",
            pool.iter().map(ChurnWorkload::total_ops).sum::<usize>() as f64,
        );
        // Counts come from the first round, whose schedule every run of
        // this seed measures; later rounds depend on how many fit.
        let first = &run.results[0];
        sim_layers(std::slice::from_ref(first), &SCHEMES, out);
        let (mut cycles, mut host) = (0.0, 0.0);
        for (s, name) in RUN_S.iter().enumerate() {
            let times: Vec<f64> = run.run_s.iter().map(|t| t[s]).collect();
            out.set(name, median(&times));
            host += times.iter().sum::<f64>();
            cycles += run.results.iter().map(|r| r[s].cycles as f64).sum::<f64>();
        }
        out.set("sim.cycles_per_host_s", cycles / host);
        out.set(
            "sim.slowdown_itesp",
            first[2].cycles as f64 / first[0].cycles as f64,
        );
        for (r, &scheme) in first.iter().zip(&SCHEMES) {
            out.add("ras.corrections", r.ras.corrections as f64);
            out.add("ras.patrol_reads", r.ras.patrol_reads as f64);
            out.add("ras.extra_reads", r.ras.extra_reads() as f64);
            out.add("ras.extra_writes", r.ras.extra_writes() as f64);
            if scheme != Scheme::Unsecure {
                out.add("ras.uncorrected", r.ras.uncorrected() as f64);
            }
        }
        let itesp = &first[2].churn;
        out.set("churn.created", itesp.created as f64);
        out.set("churn.grows", itesp.grows as f64);
        out.set("churn.leaves_recycled", itesp.leaves_recycled as f64);
        out.set(
            "churn.lifecycle_accesses",
            itesp.lifecycle_accesses() as f64,
        );

        // The first round again, without the sink and without RAS.
        let (w, seed) = (&pool[0], ctx.sub_seed(0));
        for (s, &scheme) in SCHEMES.iter().enumerate() {
            let t0 = Instant::now();
            tr.span("sim.run_churn", |_| {
                run_workload_churn(w, params(scheme, seed))
            });
            let plain = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let ras = tr.span("sim.run_ras", |_| {
                build_churn_ras_system(w, params(scheme, seed), ras_config(seed)).try_run()
            });
            let with_ras = t0.elapsed().as_secs_f64();
            let ras = ras.map_err(|e| e.to_string())?;
            if ras.cycles != first[s].cycles {
                return Err(format!("{scheme:?}: the sink changed simulated cycles"));
            }
            out.add("ras.extra_s", with_ras - plain);
            out.add("snap.extra_s", run.run_s[0][s] - with_ras);
        }

        // The stores the measured runs committed to.
        let mut payload_bytes = Vec::new();
        for dir in &run.dirs {
            let store = SnapshotStore::open(dir).map_err(|e| e.to_string())?;
            let head = store.wal_head().map_err(|e| e.to_string())?;
            out.add("snap.commits", head.map_or(0, |h| h.seq) as f64);
            let (_, payload, _) = store.load_latest_good().map_err(|e| e.to_string())?;
            payload_bytes.push(payload.len() as f64);
        }
        out.set(
            "snap.bytes_per_commit",
            payload_bytes.iter().sum::<f64>() / payload_bytes.len() as f64,
        );

        // Direct timings on ITESP's newest snapshot: restore it into a
        // fresh system, encode that mid-run state, append it.
        let probe_dir = ctx.scratch("snap-probe");
        let probe = SnapshotStore::open(&probe_dir).map_err(|e| e.to_string())?;
        let (mut recover_ms, mut encode_ms, mut append_ms) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SNAP_PROBES {
            let mut sys = build_churn_ras_system(w, params(Scheme::Itesp, seed), ras_config(seed));
            let t0 = Instant::now();
            let meta = tr
                .span("snap.recover", |_| recover_system(&mut sys, &run.dirs[2]))
                .map_err(|e| e.to_string())?;
            recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let bytes = tr.span("snap.encode", |_| {
                let mut wr = SnapWriter::new();
                sys.save_state(&mut wr);
                wr.into_bytes()
            });
            encode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            tr.span("snap.append", |_| probe.append(meta.cycle, &bytes))
                .map_err(|e| e.to_string())?;
            append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.set("snap.recover_ms", median(&recover_ms));
        out.set("snap.encode_ms", median(&encode_ms));
        out.set("snap.append_ms", median(&append_ms));

        let ns = tr.span("reliability.decode", |_| decode_probe(ctx.seed, DECODES))?;
        out.set("reliability.ns_per_decode", ns);
        Ok(())
    }
}
