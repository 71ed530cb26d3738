//! One shared set of fault-free runs, simulated once per distinct key.
//!
//! The paper-grid figures (see [`crate::grid`]) read overlapping runs:
//! Figure 12's 4-core rows and Figure 13's 16 KB/core rows are Figure
//! 8's runs, Figure 9 and 10 re-read Figure 8's top 15, and so on. Each
//! figure lists the runs it reads as [`RunKey`]s; a [`RunSet`]
//! simulates every distinct key once and the figure folds over it.
//!
//! The set is filled through [`run_campaign_with`], one job per trace
//! (benchmark, program copies): a job builds its `MultiProgram` once
//! and runs each distinct parameter set of that trace in first-request
//! order. Job rows are whole [`RunResult`]s, which round-trip
//! byte-exactly through the checkpoint, so `--resume`, `--timeout`
//! and panic isolation behave as for any campaign. The set itself
//! lives in memory only.

use std::collections::HashMap;

use itesp_sim::{run_workload, ExperimentParams, RunResult};
use itesp_trace::{benchmark, MultiProgram};

use crate::campaign::{run_campaign_with, CampaignOptions};
use crate::TRACE_SEED;

/// One fault-free run: a benchmark name and the run's parameters.
pub type RunKey = (&'static str, ExperimentParams);

/// One campaign job: a benchmark's trace at one copy count and length,
/// and the distinct parameter sets to run on it.
#[derive(Debug, Clone)]
pub struct TraceGroup {
    pub benchmark: &'static str,
    pub copies: usize,
    pub ops: usize,
    pub params: Vec<ExperimentParams>,
}

/// Group `keys` by trace, dropping repeats. Groups and the parameter
/// sets within each keep first-request order, so the job list is fixed
/// by the key list alone.
pub fn trace_groups(keys: &[RunKey]) -> Vec<TraceGroup> {
    let mut groups: Vec<TraceGroup> = Vec::new();
    for &(name, p) in keys {
        let same_trace =
            |g: &TraceGroup| g.benchmark == name && g.copies == p.copies && g.ops == p.ops;
        match groups.iter_mut().find(|g| same_trace(g)) {
            Some(g) if g.params.contains(&p) => {}
            Some(g) => g.params.push(p),
            None => groups.push(TraceGroup {
                benchmark: name,
                copies: p.copies,
                ops: p.ops,
                params: vec![p],
            }),
        }
    }
    groups
}

/// Fault-free run results keyed by (benchmark, parameters).
#[derive(Debug)]
pub struct RunSet {
    runs: HashMap<RunKey, RunResult>,
}

impl RunSet {
    /// Simulate every distinct key of `keys` once, as the checkpointed
    /// campaign `target` with one job per [`TraceGroup`]. `None` when a
    /// job failed or was skipped; the campaign has already reported
    /// which, and completed jobs stay checkpointed for `--resume`.
    pub fn run(target: &str, keys: &[RunKey], opts: &CampaignOptions) -> Option<Self> {
        let groups = trace_groups(keys);
        let jobs = groups.clone();
        let rows = run_campaign_with(target, groups.len(), opts, move |j| {
            let g = &jobs[j];
            let b = benchmark(g.benchmark).expect("run keys name known benchmarks");
            let mp = MultiProgram::homogeneous(b, g.copies, g.ops, TRACE_SEED);
            let runs: Vec<RunResult> = g.params.iter().map(|&p| run_workload(&mp, p)).collect();
            eprintln!("[{} x{}: done]", g.benchmark, g.copies);
            runs
        })
        .into_rows()?;
        let set = groups
            .iter()
            .zip(rows)
            .flat_map(|(g, results)| {
                assert_eq!(
                    g.params.len(),
                    results.len(),
                    "one result per parameter set"
                );
                g.params.iter().map(|&p| (g.benchmark, p)).zip(results)
            })
            .collect();
        Some(set)
    }

    /// The run of `benchmark` under `params`.
    ///
    /// # Panics
    /// If that run was not among the keys the set was filled with — a
    /// figure's key list and its fold disagree.
    pub fn get(&self, benchmark: &'static str, params: ExperimentParams) -> &RunResult {
        self.runs
            .get(&(benchmark, params))
            .unwrap_or_else(|| panic!("run {benchmark} {params:?} is not in the run set"))
    }
}

impl FromIterator<(RunKey, RunResult)> for RunSet {
    fn from_iter<I: IntoIterator<Item = (RunKey, RunResult)>>(iter: I) -> Self {
        RunSet {
            runs: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::Scheme;
    use itesp_sim::{run_workload_churn, run_workload_ras, Drill, RasConfig};
    use itesp_trace::{ChurnConfig, ChurnWorkload};

    const OPS: usize = 400;

    fn energy_bits(r: &RunResult) -> [u64; 5] {
        let e = &r.energy;
        [
            e.activate_nj,
            e.read_nj,
            e.write_nj,
            e.refresh_nj,
            e.background_nj,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn trace_groups_dedupe_in_first_request_order() {
        let p4 = |s| ExperimentParams::paper_4core(s, OPS);
        let p8 = |s| ExperimentParams::paper_8core(s, OPS);
        let keys = [
            ("mcf", p4(Scheme::Unsecure)),
            ("mcf", p4(Scheme::Itesp)),
            ("lbm", p4(Scheme::Unsecure)),
            ("mcf", p8(Scheme::Unsecure)),
            ("mcf", p4(Scheme::Unsecure)),
            ("lbm", p4(Scheme::Synergy)),
        ];
        let groups = trace_groups(&keys);
        let shape: Vec<(&str, usize, Vec<Scheme>)> = groups
            .iter()
            .map(|g| {
                (
                    g.benchmark,
                    g.copies,
                    g.params.iter().map(|p| p.scheme).collect(),
                )
            })
            .collect();
        assert_eq!(
            shape,
            [
                ("mcf", 4, vec![Scheme::Unsecure, Scheme::Itesp]),
                ("lbm", 4, vec![Scheme::Unsecure, Scheme::Synergy]),
                ("mcf", 8, vec![Scheme::Unsecure]),
            ]
        );
    }

    /// The grid's checkpoint rows are whole `RunResult`s: a RAS
    /// chip-kill drill and an enclave-churn run, so every nested stats
    /// struct is nonzero, must come back from a checkpoint with the
    /// same serialized bytes and bit-identical floats.
    #[test]
    fn run_results_round_trip_through_a_checkpoint() {
        let mcf = benchmark("mcf").unwrap();
        let drill = {
            let mp = MultiProgram::homogeneous(mcf, 4, OPS, TRACE_SEED);
            let ras = RasConfig::new(7).with_drill(Drill {
                at_dram_cycle: 2_000,
                channel: 0,
                rank: 1,
                chip: 3,
            });
            let p = ExperimentParams::paper_4core(Scheme::ItSynergySharedParityCache, OPS);
            run_workload_ras(&mp, p, ras).expect("a dead chip is correctable")
        };
        let churn = {
            let cfg = ChurnConfig {
                slots: 4,
                sessions_per_slot: 2,
                ops_per_session: 200,
                mean_arrival_gap: 2_000.0,
                footprint_pages: 64,
                free_fraction: 0.3,
                seed: 7,
            };
            let w = ChurnWorkload::generate(mcf, &cfg);
            run_workload_churn(&w, ExperimentParams::paper_4core(Scheme::Itesp, OPS))
        };
        for r in [&drill, &churn] {
            assert!(r.engine.data_reads > 0 && r.metadata_cache.accesses > 0);
            assert!(r.dram.reads > 0 && r.energy.total_nj() > 0.0);
        }
        assert!(drill.parity_cache.accesses > 0, "{:?}", drill.parity_cache);
        assert!(drill.ras.drills_executed == 1 && drill.ras.corrections > 0);
        assert!(churn.churn.created > 0 && churn.churn.leaves_recycled > 0);

        let dir = std::env::temp_dir().join(format!("itesp-runset-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = CampaignOptions::for_tests(&dir, OPS);
        let runs = [drill, churn];
        let fresh = runs.clone();
        let first = run_campaign_with("rt", 2, &opts, move |j| vec![fresh[j].clone()]);
        assert!(first.is_complete());
        opts.resume = true;
        let revived = run_campaign_with("rt", 2, &opts, |_| -> Vec<RunResult> {
            unreachable!("every job is checkpointed")
        })
        .into_rows()
        .expect("resumed from the checkpoint");
        for (r, back) in runs.iter().zip(revived.iter().flatten()) {
            assert_eq!(
                serde_json::to_string(back).unwrap(),
                serde_json::to_string(r).unwrap()
            );
            assert_eq!(energy_bits(back), energy_bits(r));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
