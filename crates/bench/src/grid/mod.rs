//! The paper-grid figures: a key list plus a fold over one [`RunSet`].
//!
//! Figures 8, 9, 10, 12, 13 and 15, the Pareto sweep and the RAS
//! sweep's fault-free baselines all read 4-core runs of the Figure 8
//! configuration (or a variant of it); Figures 11 and 12 read 8-core
//! runs. Each figure is a [`GridFigure`]: the runs it reads, in request
//! order and with repeats, and a report that folds the set into the
//! figure's table and JSON. Folds accumulate in benchmark order,
//! so the output does not depend on how the set was filled.
//!
//! A figure binary runs just its own keys ([`run_standalone`]);
//! `run_all` runs the union of all nine ([`union_keys`]) once and
//! reports every figure from that one set.

pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod figpareto;
pub mod figras;

use itesp_sim::{ExperimentParams, RunResult};
use itesp_trace::memory_intensive;

use crate::campaign::CampaignOptions;
use crate::runset::{RunKey, RunSet};

/// One figure that folds over the shared run set.
pub struct GridFigure {
    /// Binary, JSON and checkpoint name.
    pub name: &'static str,
    /// Every run the figure reads, in request order with repeats (Figure
    /// 13 lists each benchmark's baseline once per cache size and
    /// scheme).
    pub keys: fn(usize) -> Vec<RunKey>,
    /// Fold the set at the given ops, print the table and save the
    /// JSON. `None` when the figure's own campaign (the RAS sweep's
    /// faulty runs) is incomplete.
    pub report: fn(&RunSet, usize) -> Option<()>,
}

/// The nine grid figures, in `run_all` order.
pub const FIGURES: [&GridFigure; 9] = [
    &fig08::FIGURE,
    &fig09::FIGURE,
    &fig10::FIGURE,
    &fig11::FIGURE,
    &fig12::FIGURE,
    &fig13::FIGURE,
    &fig15::FIGURE,
    &figras::FIGURE,
    &figpareto::FIGURE,
];

/// Every run the nine figures read, figure by figure.
pub fn union_keys(ops: usize) -> Vec<RunKey> {
    FIGURES.iter().flat_map(|f| (f.keys)(ops)).collect()
}

/// A figure binary's `main`: simulate the figure's own runs (each
/// distinct run once, checkpointed under the figure's name), then
/// report. Exits nonzero if a job failed.
pub fn run_standalone(fig: &GridFigure) {
    let ops = crate::ops_from_env();
    let opts = CampaignOptions::from_env(ops);
    let Some(set) = RunSet::run(fig.name, &(fig.keys)(ops), &opts) else {
        std::process::exit(1);
    };
    if (fig.report)(&set, ops).is_none() {
        std::process::exit(1);
    }
}

/// Top-15 geomeans of `params` normalized to `baseline`, per benchmark:
/// (execution time, memory energy, system EDP).
fn top15_norms(
    set: &RunSet,
    baseline: ExperimentParams,
    params: ExperimentParams,
) -> (f64, f64, f64) {
    let (mut t, mut e, mut d) = (Vec::new(), Vec::new(), Vec::new());
    for b in memory_intensive() {
        let base = set.get(b.name, baseline);
        let r = set.get(b.name, params);
        t.push(r.normalized_time(base));
        e.push(r.normalized_memory_energy(base));
        d.push(r.normalized_system_edp(base, params.copies));
    }
    (
        RunResult::geomean(&t),
        RunResult::geomean(&e),
        RunResult::geomean(&d),
    )
}

/// The keys [`top15_norms`] reads.
fn top15_keys(baseline: ExperimentParams, params: ExperimentParams) -> Vec<RunKey> {
    memory_intensive()
        .flat_map(|b| [(b.name, baseline), (b.name, params)])
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use itesp_core::Scheme;
    use itesp_sim::RunResult;
    use itesp_trace::BENCHMARKS;

    use super::*;
    use crate::runset::trace_groups;

    /// Key sets do not depend on the operation count.
    const OPS: usize = 1234;

    fn distinct(keys: &[RunKey]) -> HashSet<RunKey> {
        keys.iter().copied().collect()
    }

    fn keys_of(fig: &GridFigure) -> HashSet<RunKey> {
        distinct(&(fig.keys)(OPS))
    }

    /// A distinct nonzero stand-in result for run `i`.
    fn synthetic(i: usize) -> RunResult {
        let mut r = RunResult {
            cycles: 1_000 + i as u64,
            core_finish: Vec::new(),
            engine: Default::default(),
            metadata_cache: Default::default(),
            parity_cache: Default::default(),
            dram: Default::default(),
            energy: Default::default(),
            drained_writes: 0,
            ras: Default::default(),
            churn: Default::default(),
        };
        r.engine.data_reads = 100 + i as u64;
        r.energy.read_nj = 1.0 + i as f64;
        r
    }

    #[test]
    fn the_grid_requests_1104_runs_of_555_distinct_keys_in_46_traces() {
        let keys = union_keys(OPS);
        assert_eq!(keys.len(), 1104);
        assert_eq!(distinct(&keys).len(), 555);
        let groups = trace_groups(&keys);
        assert_eq!(groups.len(), 46);
        assert_eq!(groups.iter().filter(|g| g.copies == 4).count(), 31);
        assert_eq!(groups.iter().filter(|g| g.copies == 8).count(), 15);
        assert_eq!(groups.iter().map(|g| g.params.len()).sum::<usize>(), 555);
        // Standalone fig08 keeps one job per benchmark, in table order.
        let fig08_jobs: Vec<&str> = trace_groups(&(fig08::FIGURE.keys)(OPS))
            .iter()
            .map(|g| g.benchmark)
            .collect();
        let names: Vec<&str> = BENCHMARKS.iter().map(|b| b.name).collect();
        assert_eq!(fig08_jobs, names);
    }

    #[test]
    fn figures_share_the_runs_the_paper_shares() {
        let union = distinct(&union_keys(OPS));
        for fig in FIGURES {
            assert!(keys_of(fig).is_subset(&union), "{}", fig.name);
        }
        let fig08 = keys_of(&fig08::FIGURE);
        let fig08_where = |f: &dyn Fn(&RunKey) -> bool| -> HashSet<RunKey> {
            fig08.iter().copied().filter(|k| f(k)).collect()
        };
        let top15_syn_itesp = fig08_where(&|(b, p)| {
            itesp_trace::benchmark(b).unwrap().memory_intensive
                && [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp].contains(&p.scheme)
        });
        let fig13_16kb: HashSet<RunKey> = keys_of(&fig13::FIGURE)
            .into_iter()
            .filter(|(_, p)| p.metadata_cache_bytes == 16 * 1024 * 4)
            .collect();
        assert_eq!(fig13_16kb, top15_syn_itesp);
        let fig12_4core: HashSet<RunKey> = keys_of(&fig12::FIGURE)
            .into_iter()
            .filter(|(_, p)| p.copies == 4)
            .collect();
        assert_eq!(fig12_4core, top15_syn_itesp);

        let fig08_mcf = fig08_where(&|(b, _)| *b == "mcf");
        assert!(keys_of(&figras::FIGURE).is_subset(&fig08_mcf));
        let pareto_figure_8: HashSet<RunKey> = keys_of(&figpareto::FIGURE)
            .into_iter()
            .filter(|(_, p)| p.scheme == Scheme::Unsecure || Scheme::FIGURE_8.contains(&p.scheme))
            .collect();
        assert_eq!(pareto_figure_8, fig08_mcf);
    }

    /// Every fold reads only its own figure's keys, so a standalone
    /// figure binary never asks its set for a run it did not simulate.
    #[test]
    fn each_fold_reads_only_its_own_keys() {
        let set_for = |fig: &GridFigure| -> RunSet {
            keys_of(fig)
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, synthetic(i)))
                .collect()
        };
        assert_eq!(fig08::fold(&set_for(&fig08::FIGURE), OPS).len(), 31);
        assert_eq!(fig09::fold(&set_for(&fig09::FIGURE), OPS).len(), 8);
        assert_eq!(fig10::fold(&set_for(&fig10::FIGURE), OPS).len(), 8);
        assert_eq!(fig11::fold(&set_for(&fig11::FIGURE), OPS).len(), 5);
        assert_eq!(fig12::fold(&set_for(&fig12::FIGURE), OPS).len(), 4);
        assert_eq!(fig13::fold(&set_for(&fig13::FIGURE), OPS).len(), 8);
        assert_eq!(fig15::fold(&set_for(&fig15::FIGURE), OPS).len(), 4);
        let pareto = figpareto::fold(&set_for(&figpareto::FIGURE), OPS);
        assert_eq!(pareto.len(), 15);
        let faulty: Vec<RunResult> = (0..15).map(synthetic).collect();
        assert_eq!(
            figras::fold(&set_for(&figras::FIGURE), OPS, &faulty).len(),
            15
        );
    }
}
