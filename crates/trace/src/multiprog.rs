//! Multi-program workload composition.
//!
//! The paper's main experiments run 4 (or 8) instances of the same
//! benchmark, each with its own address space, and capture traces of five
//! million memory operations per program. [`MultiProgram`] reproduces
//! that setup: N generator instances with distinct seeds, plus a shared
//! [`PageMapper`] whose first-touch allocation interleaves their physical
//! pages exactly as co-scheduled first-touch allocation would.

use crate::error::TraceError;
use crate::pages::{FreeListModel, PageMapper};
use crate::record::{MemOp, PhysRecord, TraceRecord};
use crate::suites::Benchmark;
use crate::workload::WorkloadGen;

/// A composed multi-program physical trace, ready for replay.
#[derive(Debug, Clone)]
pub struct MultiProgram {
    /// One physical trace per program.
    pub traces: Vec<Vec<PhysRecord>>,
    /// Benchmark name, for reporting.
    pub name: String,
}

impl MultiProgram {
    /// Build `copies` instances of `bench`, each `ops` records long.
    ///
    /// Virtual traces are generated per program with seeds derived from
    /// `seed`, then page-mapped in round-robin record order through a
    /// *fragmented* free list (the realistic OS model), so first-touch
    /// allocation both scatters each program's pages across the span
    /// and intermingles the programs — the baseline behavior the paper
    /// captures with page-table dumps.
    pub fn homogeneous(bench: &Benchmark, copies: usize, ops: usize, seed: u64) -> Self {
        // Mean extent of 4 pages: a well-aged, fragmented free list.
        Self::homogeneous_with_model(
            bench,
            copies,
            ops,
            seed,
            FreeListModel::Fragmented {
                mean_extent_pages: 4.0,
                seed: 0x9A6E_5EED,
            },
        )
    }

    /// [`Self::homogeneous`] with an explicit OS free-list model (the
    /// Figure 2/3 "Small" configuration uses a pristine single-tenant
    /// machine, i.e. [`FreeListModel::Sequential`]).
    pub fn homogeneous_with_model(
        bench: &Benchmark,
        copies: usize,
        ops: usize,
        seed: u64,
        model: FreeListModel,
    ) -> Self {
        let virt: Vec<Vec<TraceRecord>> = (0..copies)
            .map(|i| {
                WorkloadGen::for_benchmark(
                    bench,
                    seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(i as u64 + 1),
                )
                .take(ops)
                .collect()
            })
            .collect();
        Self::map_round_robin(virt, bench.name, bench.working_set_mb, copies, model)
    }

    /// Build a heterogeneous mix: one instance of each named benchmark,
    /// co-scheduled (the generalization of the paper's homogeneous runs).
    ///
    /// # Panics
    /// Panics if any name is not in Table IV; see [`Self::try_mixed`]
    /// for the non-panicking variant.
    pub fn mixed(names: &[&str], ops: usize, seed: u64) -> Self {
        Self::try_mixed(names, ops, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::mixed`], rejecting unknown names with a typed error.
    ///
    /// # Errors
    /// [`TraceError::UnknownBenchmark`] or [`TraceError::EmptyMix`].
    pub fn try_mixed(names: &[&str], ops: usize, seed: u64) -> Result<Self, TraceError> {
        use crate::suites::benchmark_or_err;
        if names.is_empty() {
            return Err(TraceError::EmptyMix);
        }
        let benches: Vec<_> = names
            .iter()
            .map(|n| benchmark_or_err(n).copied())
            .collect::<Result<_, _>>()?;
        let virt: Vec<Vec<TraceRecord>> = benches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                WorkloadGen::for_benchmark(
                    b,
                    seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(i as u64 + 1),
                )
                .take(ops)
                .collect()
            })
            .collect();
        let max_ws = benches.iter().map(|b| b.working_set_mb).max().unwrap_or(1);
        Ok(Self::map_round_robin(
            virt,
            &names.join("+"),
            max_ws,
            names.len(),
            FreeListModel::Fragmented {
                mean_extent_pages: 4.0,
                seed: 0x9A6E_5EED,
            },
        ))
    }

    /// Page-map externally supplied virtual traces — the serving path,
    /// where tenants *stream* their records instead of naming a Table
    /// IV generator. Uses the same fragmented free-list model as
    /// [`Self::homogeneous`], so a streamed copy of a generated trace
    /// lands on byte-identical physical addresses.
    ///
    /// # Errors
    /// [`TraceError::EmptyMix`] when `virt` holds no programs.
    pub fn from_virtual(
        virt: Vec<Vec<TraceRecord>>,
        name: &str,
        working_set_mb: u64,
    ) -> Result<Self, TraceError> {
        if virt.is_empty() {
            return Err(TraceError::EmptyMix);
        }
        let copies = virt.len();
        Ok(Self::map_round_robin(
            virt,
            name,
            working_set_mb,
            copies,
            FreeListModel::Fragmented {
                mean_extent_pages: 4.0,
                seed: 0x9A6E_5EED,
            },
        ))
    }

    /// Page-map pre-generated virtual traces with interleaved first touch.
    fn map_round_robin(
        virt: Vec<Vec<TraceRecord>>,
        name: &str,
        working_set_mb: u64,
        copies: usize,
        model: FreeListModel,
    ) -> Self {
        // Allow all copies' working sets, with slack for wrapping.
        let phys_bytes = (working_set_mb * 1024 * 1024)
            .saturating_mul(copies as u64)
            .max(1 << 30);
        let mut mapper = PageMapper::with_model(copies, phys_bytes, model);
        let mut traces: Vec<Vec<PhysRecord>> = (0..copies)
            .map(|i| Vec::with_capacity(virt[i].len()))
            .collect();
        let longest = virt.iter().map(Vec::len).max().unwrap_or(0);
        for idx in 0..longest {
            for (prog, vtrace) in virt.iter().enumerate() {
                if let Some(r) = vtrace.get(idx) {
                    traces[prog].push(PhysRecord {
                        gap: r.gap,
                        op: r.op,
                        paddr: mapper.translate(prog, r.vaddr),
                    });
                }
            }
        }
        MultiProgram {
            traces,
            name: name.to_owned(),
        }
    }

    /// Number of programs.
    pub fn copies(&self) -> usize {
        self.traces.len()
    }

    /// Total records across all programs.
    pub fn total_ops(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }

    /// Fraction of writes across all programs, for sanity checks.
    pub fn write_fraction(&self) -> f64 {
        let writes: usize = self
            .traces
            .iter()
            .flatten()
            .filter(|r| r.op == MemOp::Write)
            .count();
        writes as f64 / self.total_ops().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PAGE_BYTES;
    use crate::suites::benchmark;

    #[test]
    fn homogeneous_builds_requested_shape() {
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 1000, 42);
        assert_eq!(mp.copies(), 4);
        assert_eq!(mp.total_ops(), 4000);
        assert_eq!(mp.name, "mcf");
    }

    #[test]
    fn copies_have_different_access_streams() {
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 2, 500, 42);
        assert_ne!(mp.traces[0], mp.traces[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MultiProgram::homogeneous(benchmark("pr").unwrap(), 2, 500, 7);
        let b = MultiProgram::homogeneous(benchmark("pr").unwrap(), 2, 500, 7);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn physical_pages_are_disjoint_across_programs() {
        use std::collections::HashSet;
        let mp = MultiProgram::homogeneous(benchmark("lbm").unwrap(), 4, 2000, 1);
        let mut owner: std::collections::HashMap<u64, usize> = Default::default();
        let mut clash = false;
        for (prog, trace) in mp.traces.iter().enumerate() {
            let pages: HashSet<u64> = trace.iter().map(|r| r.paddr / PAGE_BYTES).collect();
            for p in pages {
                if let Some(&o) = owner.get(&p) {
                    if o != prog {
                        clash = true;
                    }
                }
                owner.insert(p, prog);
            }
        }
        assert!(!clash, "two programs mapped to the same physical page");
    }

    #[test]
    fn physical_pages_interleave_across_programs() {
        // Count how often adjacent physical pages belong to different
        // programs — the property that pollutes shared tree nodes.
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 4000, 3);
        let mut owner: std::collections::HashMap<u64, usize> = Default::default();
        for (prog, trace) in mp.traces.iter().enumerate() {
            for r in trace {
                owner.entry(r.paddr / PAGE_BYTES).or_insert(prog);
            }
        }
        let max_page = *owner.keys().max().unwrap();
        let mut cross = 0;
        let mut total = 0;
        for p in 0..max_page {
            if let (Some(a), Some(b)) = (owner.get(&p), owner.get(&(p + 1))) {
                total += 1;
                if a != b {
                    cross += 1;
                }
            }
        }
        assert!(total > 100);
        assert!(
            cross as f64 / total as f64 > 0.5,
            "pages not interleaved: {cross}/{total}"
        );
    }

    #[test]
    fn from_virtual_matches_homogeneous_mapping() {
        // A tenant that streams the same virtual records a local
        // generator would produce must land on the same physical trace
        // — the property the serve-mode byte-identity drill rests on.
        let b = benchmark("mcf").unwrap();
        let local = MultiProgram::homogeneous(b, 1, 800, 42);
        let virt: Vec<TraceRecord> =
            crate::workload::WorkloadGen::for_benchmark(b, 42 ^ 0x9E37_79B9_7F4A_7C15u64)
                .take(800)
                .collect();
        let streamed = MultiProgram::from_virtual(vec![virt], "mcf", b.working_set_mb).unwrap();
        assert_eq!(streamed.traces, local.traces);
        assert!(matches!(
            MultiProgram::from_virtual(vec![], "x", 1),
            Err(TraceError::EmptyMix)
        ));
    }

    #[test]
    fn mixed_workloads_compose() {
        let mp = MultiProgram::mixed(&["mcf", "lbm", "pr", "gcc"], 500, 9);
        assert_eq!(mp.copies(), 4);
        assert_eq!(mp.name, "mcf+lbm+pr+gcc");
        // Different benchmarks produce visibly different trace shapes.
        assert_ne!(mp.traces[0], mp.traces[1]);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn mixed_rejects_unknown_names() {
        let _ = MultiProgram::mixed(&["not-a-benchmark"], 10, 0);
    }

    #[test]
    fn write_fraction_in_expected_range() {
        let mp = MultiProgram::homogeneous(benchmark("lbm").unwrap(), 2, 10_000, 5);
        let wf = mp.write_fraction();
        assert!((wf - 0.48).abs() < 0.05, "lbm write fraction {wf}");
    }
}
