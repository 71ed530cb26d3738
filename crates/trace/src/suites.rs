//! The 31 benchmarks of Table IV: 15 from SPEC2017, 6 from GAP, 10 from
//! NAS, with their working-set sizes and our generative-model parameters.
//!
//! The paper drives its simulator with Pin traces of the real programs;
//! we substitute parameterized synthetic models (see `workload.rs`) whose
//! working sets come straight from Table IV and whose memory intensity,
//! spatial locality, and read/write mix are chosen per benchmark family
//! so the *relative* behavior (which benchmarks are memory-bound, which
//! stream, which pointer-chase) matches the published characterization.

use serde::Serialize;

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Suite {
    Spec2017,
    Gap,
    Nas,
}

impl Suite {
    pub fn label(self) -> &'static str {
        match self {
            Suite::Spec2017 => "SPEC2017",
            Suite::Gap => "GAP",
            Suite::Nas => "NAS",
        }
    }
}

/// Broad access-pattern family, which sets the locality defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AccessPattern {
    /// Long unit-stride runs (stencils, dense linear algebra).
    Streaming,
    /// Short runs with a reused hot region (irregular graph analytics).
    Irregular,
    /// Single-block accesses, pointer chasing.
    PointerChase,
    /// Mixed: moderate runs plus a hot set.
    Mixed,
}

/// Static description of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Benchmark {
    pub name: &'static str,
    pub suite: Suite,
    /// Working set in megabytes (Table IV).
    pub working_set_mb: u64,
    /// Mean CPU cycles between LLC misses (memory intensity knob).
    pub avg_gap: u32,
    /// Fraction of accesses that are reads.
    pub read_fraction: f64,
    pub pattern: AccessPattern,
    /// Bold in Table IV: one of the 15 most memory-intensive benchmarks
    /// that the paper's averages report on.
    pub memory_intensive: bool,
}

/// Every benchmark in Table IV, in the paper's order.
pub const BENCHMARKS: &[Benchmark] = &[
    // SPEC2017.
    bm(
        "perlbench",
        Suite::Spec2017,
        48,
        2600,
        0.75,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "gcc",
        Suite::Spec2017,
        6425,
        700,
        0.72,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "bwaves",
        Suite::Spec2017,
        10763,
        14,
        0.60,
        AccessPattern::Streaming,
        true,
    ),
    bm(
        "mcf",
        Suite::Spec2017,
        1760,
        18,
        0.62,
        AccessPattern::PointerChase,
        true,
    ),
    bm(
        "cactuBSSN",
        Suite::Spec2017,
        6476,
        40,
        0.58,
        AccessPattern::Mixed,
        true,
    ),
    bm(
        "namd",
        Suite::Spec2017,
        239,
        2200,
        0.70,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "lbm",
        Suite::Spec2017,
        42,
        12,
        0.52,
        AccessPattern::Streaming,
        true,
    ),
    bm(
        "omnetpp",
        Suite::Spec2017,
        3210,
        40,
        0.63,
        AccessPattern::PointerChase,
        true,
    ),
    bm(
        "xalancbmk",
        Suite::Spec2017,
        156,
        900,
        0.78,
        AccessPattern::PointerChase,
        false,
    ),
    bm(
        "cam4",
        Suite::Spec2017,
        168,
        1500,
        0.68,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "deepsjeng",
        Suite::Spec2017,
        6976,
        1100,
        0.74,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "imagick",
        Suite::Spec2017,
        3245,
        1900,
        0.66,
        AccessPattern::Streaming,
        false,
    ),
    bm(
        "fotonik3d",
        Suite::Spec2017,
        310,
        18,
        0.60,
        AccessPattern::Streaming,
        true,
    ),
    bm(
        "roms",
        Suite::Spec2017,
        76,
        30,
        0.58,
        AccessPattern::Mixed,
        true,
    ),
    bm(
        "xz",
        Suite::Spec2017,
        7370,
        650,
        0.60,
        AccessPattern::Mixed,
        false,
    ),
    // GAP (all six are memory-intensive graph kernels).
    bm(
        "bc",
        Suite::Gap,
        12654,
        16,
        0.66,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "bfs",
        Suite::Gap,
        8179,
        18,
        0.68,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "cc",
        Suite::Gap,
        6326,
        16,
        0.66,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "sssp",
        Suite::Gap,
        1884,
        22,
        0.64,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "pr",
        Suite::Gap,
        6530,
        14,
        0.70,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "tc",
        Suite::Gap,
        9746,
        120,
        0.88,
        AccessPattern::Irregular,
        false,
    ),
    // NAS.
    bm(
        "bt",
        Suite::Nas,
        2600,
        500,
        0.65,
        AccessPattern::Streaming,
        false,
    ),
    bm(
        "cg",
        Suite::Nas,
        9000,
        18,
        0.65,
        AccessPattern::Irregular,
        true,
    ),
    bm(
        "ep",
        Suite::Nas,
        24,
        4000,
        0.70,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "lu",
        Suite::Nas,
        2700,
        300,
        0.66,
        AccessPattern::Streaming,
        false,
    ),
    bm(
        "ua",
        Suite::Nas,
        4200,
        400,
        0.68,
        AccessPattern::Mixed,
        false,
    ),
    bm(
        "is",
        Suite::Nas,
        1000,
        150,
        0.60,
        AccessPattern::Irregular,
        false,
    ),
    bm(
        "mg",
        Suite::Nas,
        15000,
        16,
        0.58,
        AccessPattern::Streaming,
        true,
    ),
    bm("sp", Suite::Nas, 2700, 25, 0.57, AccessPattern::Mixed, true),
    bm(
        "ft",
        Suite::Nas,
        137,
        800,
        0.62,
        AccessPattern::Streaming,
        false,
    ),
    bm(
        "dc",
        Suite::Nas,
        100,
        1200,
        0.72,
        AccessPattern::Mixed,
        false,
    ),
];

const fn bm(
    name: &'static str,
    suite: Suite,
    working_set_mb: u64,
    avg_gap: u32,
    read_fraction: f64,
    pattern: AccessPattern,
    memory_intensive: bool,
) -> Benchmark {
    Benchmark {
        name,
        suite,
        working_set_mb,
        avg_gap,
        read_fraction,
        pattern,
        memory_intensive,
    }
}

/// Look up a benchmark by name.
pub fn benchmark(name: &str) -> Option<&'static Benchmark> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

/// Look up a benchmark by name, with a typed error for reporting.
///
/// # Errors
/// [`TraceError::UnknownBenchmark`] when the name is not in Table IV.
pub fn benchmark_or_err(name: &str) -> Result<&'static Benchmark, crate::TraceError> {
    benchmark(name).ok_or_else(|| crate::TraceError::UnknownBenchmark(name.to_owned()))
}

/// The 15 memory-intensive benchmarks the paper's averages report on.
pub fn memory_intensive() -> impl Iterator<Item = &'static Benchmark> {
    BENCHMARKS.iter().filter(|b| b.memory_intensive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_one_benchmarks() {
        assert_eq!(BENCHMARKS.len(), 31);
    }

    #[test]
    fn suite_counts_match_table_iv() {
        let count = |s: Suite| BENCHMARKS.iter().filter(|b| b.suite == s).count();
        assert_eq!(count(Suite::Spec2017), 15);
        assert_eq!(count(Suite::Gap), 6);
        assert_eq!(count(Suite::Nas), 10);
    }

    #[test]
    fn fifteen_memory_intensive() {
        assert_eq!(memory_intensive().count(), 15);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = BENCHMARKS.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31);
    }

    #[test]
    fn lookup_by_name() {
        let b = benchmark("mcf").unwrap();
        assert_eq!(b.working_set_mb, 1760);
        assert!(benchmark("nonexistent").is_none());
    }

    #[test]
    fn intensive_benchmarks_have_small_gaps() {
        for b in memory_intensive() {
            assert!(
                b.avg_gap <= 200,
                "{} marked intensive but gap {}",
                b.name,
                b.avg_gap
            );
        }
    }

    #[test]
    fn working_sets_match_table_iv_spot_checks() {
        assert_eq!(benchmark("bwaves").unwrap().working_set_mb, 10763);
        assert_eq!(benchmark("bc").unwrap().working_set_mb, 12654);
        assert_eq!(benchmark("mg").unwrap().working_set_mb, 15000);
        assert_eq!(benchmark("ep").unwrap().working_set_mb, 24);
        assert_eq!(benchmark("lbm").unwrap().working_set_mb, 42);
    }
}
