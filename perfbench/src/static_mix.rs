//! `static-mix`: fault-free static runs of the paper's 4-core system.
//!
//! `mcf` and `bc` are memory-bound with large working sets, so the
//! security engine and the DRAM scheduler do most of the work; `namd`
//! is compute-bound, so core stepping dominates. `Unsecure` bypasses
//! the engine on identical traces and is the engine's control. Core
//! parking and bulk advance are on; RAS, churn and snapshots are idle.

use std::time::Instant;

use itesp_core::Scheme;
use itesp_dram::ChannelStats;
use itesp_sim::{run_workload, ExperimentParams, RunResult, CPU_PER_DRAM_CYCLE};
use itesp_trace::{benchmark, MultiProgram};

use crate::probes::{dram_replay, engine_replay};
use crate::span::Tracer;
use crate::stats::geomean;
use crate::{Ctx, Layers, Measured, SetupTimes, Workload};

pub const BENCHES: [&str; 3] = ["mcf", "bc", "namd"];
pub const SCHEMES: [Scheme; 3] = [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp];
const COPIES: usize = 4;
/// Memory operations per program.
const OPS: usize = 10_000;

/// `sim.run_s.<bench>.<scheme>` for every pairing, in
/// `BENCHES` x `SCHEMES` order.
const RUN_S: [[&str; 3]; 3] = [
    [
        "sim.run_s.mcf.unsecure",
        "sim.run_s.mcf.synergy",
        "sim.run_s.mcf.itesp",
    ],
    [
        "sim.run_s.bc.unsecure",
        "sim.run_s.bc.synergy",
        "sim.run_s.bc.itesp",
    ],
    [
        "sim.run_s.namd.unsecure",
        "sim.run_s.namd.synergy",
        "sim.run_s.namd.itesp",
    ],
];

pub struct StaticMix;

pub struct Run {
    /// First round's results, `[bench][scheme]`.
    results: Vec<Vec<RunResult>>,
    /// Host seconds of every run, `[bench][scheme]`.
    run_s: Vec<Vec<Vec<f64>>>,
}

impl Workload for StaticMix {
    type Inputs = Vec<MultiProgram>;
    type Run = Run;

    fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Self::Inputs {
        let t0 = Instant::now();
        let mps = BENCHES
            .iter()
            .map(|b| {
                let bench = benchmark(b).expect("Table IV benchmark");
                MultiProgram::homogeneous(bench, COPIES, OPS, ctx.seed)
            })
            .collect();
        times.gen_s = t0.elapsed().as_secs_f64();
        mps
    }

    fn measure(ctx: &Ctx, mps: &Self::Inputs, tr: &mut Tracer) -> (Measured, Run) {
        let mut m = Measured::default();
        let mut results: Vec<Vec<RunResult>> = Vec::new();
        let mut run_s = vec![vec![Vec::new(); SCHEMES.len()]; BENCHES.len()];
        let mut per_round = Vec::new();
        let start = Instant::now();
        let mut round = 0;
        while ctx.more(start, round) {
            let (mut round_ops, mut round_s) = (0u64, 0.0);
            for (b, mp) in mps.iter().enumerate() {
                if round == 0 {
                    results.push(Vec::new());
                }
                for (s, &scheme) in SCHEMES.iter().enumerate() {
                    let t0 = Instant::now();
                    let r = tr.span("sim.run", |_| {
                        run_workload(mp, ExperimentParams::paper_4core(scheme, OPS))
                    });
                    let dt = t0.elapsed().as_secs_f64();
                    m.attempted += 1;
                    m.op_ms.push(dt * 1e3);
                    m.busy_s += dt;
                    round_s += dt;
                    run_s[b][s].push(dt);
                    round_ops += r.engine.data_accesses();
                    let want = (COPIES * OPS) as u64;
                    let same = results[b]
                        .get(s)
                        .is_none_or(|first| first.cycles == r.cycles);
                    if r.engine.data_accesses() != want || !same {
                        eprintln!(
                            "check failed: {} {scheme:?} round {round}: {} data accesses (want {want}), cycles {}",
                            BENCHES[b],
                            r.engine.data_accesses(),
                            r.cycles
                        );
                        m.failed += 1;
                    }
                    if round == 0 {
                        results[b].push(r);
                    }
                }
            }
            per_round.push(round_ops as f64 / round_s);
            round += 1;
        }
        m.ops_per_s = crate::stats::median(&per_round);
        (m, Run { results, run_s })
    }

    fn layers(
        _ctx: &Ctx,
        mps: &Self::Inputs,
        run: &Run,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        out.set(
            "trace.records",
            mps.iter().map(MultiProgram::total_ops).sum::<usize>() as f64,
        );
        sim_layers(&run.results, &SCHEMES, out);
        let (mut cycles, mut host) = (0.0, 0.0);
        for (b, times) in run.run_s.iter().enumerate() {
            for (s, t) in times.iter().enumerate() {
                out.set(RUN_S[b][s], crate::stats::median(t));
                cycles += run.results[b][s].cycles as f64 * t.len() as f64;
                host += t.iter().sum::<f64>();
            }
        }
        out.set("sim.cycles_per_host_s", cycles / host);
        let slowdowns: Vec<f64> = run
            .results
            .iter()
            .map(|r| r[2].cycles as f64 / r[0].cycles as f64)
            .collect();
        out.set("sim.slowdown_itesp", geomean(&slowdowns));

        // Standalone replays of the secured runs' traces: the engine
        // alone, then the DRAM model alone on the engine's stream.
        let (mut accesses, mut engine_s) = (0u64, 0.0);
        let (mut requests, mut dram_s, mut retries) = (0u64, 0.0, 0u64);
        let mut secured_run_s = 0.0;
        for (b, mp) in mps.iter().enumerate() {
            for (s, &scheme) in SCHEMES.iter().enumerate().skip(1) {
                let e = tr.span("core.replay", |_| engine_replay(mp, scheme));
                if e.accesses != run.results[b][s].engine.data_accesses() {
                    return Err(format!(
                        "{} {scheme:?}: engine replay saw {} accesses, the run {}",
                        BENCHES[b],
                        e.accesses,
                        run.results[b][s].engine.data_accesses()
                    ));
                }
                let d = tr.span("dram.replay", |_| dram_replay(&e.stream));
                accesses += e.accesses;
                engine_s += e.seconds;
                requests += d.requests;
                dram_s += d.seconds;
                retries += d.queue_full_retries;
                secured_run_s += crate::stats::median(&run.run_s[b][s]);
            }
        }
        out.set("core.ns_per_access", engine_s * 1e9 / accesses as f64);
        out.set("dram.ns_per_request", dram_s * 1e9 / requests as f64);
        out.set("dram.queue_full_retries", retries as f64);
        // An estimate: the replays do not reproduce the simulator's
        // interleaving of engine, DRAM and core work exactly.
        out.set("sim.self_s", secured_run_s - engine_s - dram_s);
        Ok(())
    }
}

/// Counters the simulator reports in [`RunResult`], summed over one
/// round: simulated cycles and throughput, engine traffic and cache
/// behaviour of the secured runs, DRAM behaviour of every run.
pub fn sim_layers(results: &[Vec<RunResult>], schemes: &[Scheme], out: &mut Layers) {
    let mut dram = ChannelStats::default();
    let (mut cycles, mut dram_cycles) = (0u64, 0u64);
    let (mut meta, mut data, mut stalls) = (0u64, 0u64, 0u64);
    let (mut md_hits, mut md_acc, mut par_hits, mut par_acc) = (0u64, 0u64, 0u64, 0u64);
    for row in results {
        for (r, scheme) in row.iter().zip(schemes) {
            cycles += r.cycles;
            dram_cycles += r.cycles / CPU_PER_DRAM_CYCLE;
            dram.merge(&r.dram);
            if *scheme == Scheme::Unsecure {
                continue;
            }
            meta += r.engine.meta_accesses();
            data += r.engine.data_accesses();
            stalls += r.engine.overflow_stall_cycles;
            md_hits += r.metadata_cache.hits;
            md_acc += r.metadata_cache.accesses;
            par_hits += r.parity_cache.hits;
            par_acc += r.parity_cache.accesses;
        }
    }
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("sim.cycles", cycles as f64);
    out.set("core.meta_per_access", share(meta, data));
    out.set("core.metadata_cache_hit_rate", share(md_hits, md_acc));
    out.set("core.parity_cache_hit_rate", share(par_hits, par_acc));
    out.set("core.overflow_stall_cycles", stalls as f64);
    out.set("dram.row_hit_rate", dram.row_hit_rate());
    out.set("dram.avg_read_latency_cycles", dram.avg_read_latency());
    out.set(
        "dram.bus_busy_share",
        share(dram.bus_busy_cycles, dram_cycles),
    );
}
