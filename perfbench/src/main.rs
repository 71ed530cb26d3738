//! The repository benchmark: four workloads driven through the crates'
//! public functions, one JSON result line per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` measures the same work untraced and then traced, prints
//! the per-layer metrics, and writes the spans to
//! `.perfbench-out/spans-<workload>-<seed>.json`. Every output is
//! checked; a failed check counts as a failed operation and makes
//! `correct` false. `NOTES.md` beside this file maps each per-layer
//! metric to the end-to-end metric it should move.

mod migrate_rebalance;
mod probes;
mod ras_churn;
mod serve_open;
mod span;
mod static_mix;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use span::Tracer;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("trace.gen_s", "s"),
    ("trace.records", "count"),
    ("core.ns_per_access", "ns"),
    ("core.meta_per_access", "ratio"),
    ("core.metadata_cache_hit_rate", "share"),
    ("core.parity_cache_hit_rate", "share"),
    ("core.overflow_stall_cycles", "cycles"),
    ("dram.ns_per_request", "ns"),
    ("dram.queue_full_retries", "count"),
    ("dram.row_hit_rate", "share"),
    ("dram.avg_read_latency_cycles", "cycles"),
    ("dram.bus_busy_share", "share"),
    ("sim.run_s.mcf.unsecure", "s"),
    ("sim.run_s.mcf.synergy", "s"),
    ("sim.run_s.mcf.itesp", "s"),
    ("sim.run_s.bc.unsecure", "s"),
    ("sim.run_s.bc.synergy", "s"),
    ("sim.run_s.bc.itesp", "s"),
    ("sim.run_s.namd.unsecure", "s"),
    ("sim.run_s.namd.synergy", "s"),
    ("sim.run_s.namd.itesp", "s"),
    ("sim.cycles_per_host_s", "1/s"),
    ("sim.self_s", "s"),
    ("sim.slowdown_itesp", "ratio"),
    ("sim.cycles", "cycles"),
    ("ras.extra_s", "s"),
    ("ras.corrections", "count"),
    ("ras.patrol_reads", "count"),
    ("ras.extra_reads", "count"),
    ("ras.extra_writes", "count"),
    ("ras.uncorrected", "count"),
    ("reliability.ns_per_decode", "ns"),
    ("churn.created", "count"),
    ("churn.grows", "count"),
    ("churn.leaves_recycled", "count"),
    ("churn.lifecycle_accesses", "count"),
    ("snap.commits", "count"),
    ("snap.bytes_per_commit", "bytes"),
    ("snap.extra_s", "s"),
    ("snap.encode_ms", "ms"),
    ("snap.append_ms", "ms"),
    ("snap.recover_ms", "ms"),
    ("snap.registry_ms", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_tail", "ms"),
    ("serve.late_ms_max", "ms"),
    ("serve.admitted", "count"),
    ("serve.busy", "count"),
    ("serve.limit_ms", "ms"),
    ("migrate.commits", "count"),
    ("migrate.blob_bytes_mean", "bytes"),
    ("migrate.ticks_mean", "ticks"),
    ("migrate.step_us_inflight", "us"),
    ("migrate.step_us_idle", "us"),
    ("migrate.steps", "count"),
    ("op.samples", "count"),
    ("op.tail_pct", "%"),
    ("tracing.overhead_s", "s"),
    ("tracing.spans", "count"),
    ("self_s.bench", "s"),
    ("self_s.trace", "s"),
    ("self_s.core", "s"),
    ("self_s.dram", "s"),
    ("self_s.sim", "s"),
    ("self_s.reliability", "s"),
    ("self_s.snap", "s"),
    ("self_s.serve", "s"),
    ("self_s.migrate", "s"),
    ("self_s.check", "s"),
    ("setup.build_s", "s"),
    ("setup.warm_s", "s"),
];

/// Layers with a `self_s.<layer>` metric; a span's layer is its name up
/// to the first `.`.
const SPAN_LAYERS: [&str; 10] = [
    "bench",
    "trace",
    "core",
    "dram",
    "sim",
    "reliability",
    "snap",
    "serve",
    "migrate",
    "check",
];

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 5;

/// Run-wide settings every workload sees.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// Scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    /// The seed of the `k`-th independent input set of this run.
    pub fn sub_seed(&self, k: usize) -> u64 {
        self.seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Whether a measured loop that started at `start` and has finished
    /// `done` segments should run another: at least one, then until
    /// `--seconds` have passed, so a slow host shortens the work rather
    /// than the run growing past its time.
    pub fn more(&self, start: Instant, done: usize) -> bool {
        done == 0 || start.elapsed().as_secs_f64() < self.seconds as f64
    }

    /// A fresh, empty scratch subdirectory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// Per-layer values reported by a workload. Names must be in
/// [`PER_LAYER`]; anything else is a bug in the benchmark.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let now = self.0.get(name).copied().unwrap_or(0.0);
        self.set(name, now + value);
    }
}

/// Timings of one set-up, split by phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Trace and workload generation.
    pub gen_s: f64,
    /// System, server or cluster construction.
    pub build_s: f64,
    pub warm_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.gen_s + self.build_s + self.warm_s
    }
}

/// What the measured part of a run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Work completed per second, in the workload's unit of work.
    pub ops_per_s: f64,
    /// Host milliseconds per operation.
    pub op_ms: Vec<f64>,
    /// Tail of `op_ms` when the workload computes it its own way; by
    /// default [`stats::tail`] over every operation.
    pub op_ms_tail: Option<f64>,
    /// Host seconds the measured operations took; the traced run's
    /// excess over the untraced one is the tracing overhead.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One workload: set-up, the measured part, and the traced probes.
pub trait Workload {
    type Inputs;
    /// State the probes read back from the measured part.
    type Run;
    /// Build the inputs from the seed; the crates get only these.
    fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Self::Inputs;
    fn measure(ctx: &Ctx, inputs: &Self::Inputs, tr: &mut Tracer) -> (Measured, Self::Run);
    /// Per-layer metrics of the traced run, plus standalone probes.
    fn layers(
        ctx: &Ctx,
        inputs: &Self::Inputs,
        run: &Self::Run,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of one benchmark invocation.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run<W: Workload>(ctx: &Ctx, trace: bool, out_dir: &Path, name: &str) -> Outcome {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous inputs first so peak memory reflects one set.
        drop(inputs.take());
        let mut t = SetupTimes::default();
        inputs = Some(W::setup(ctx, &mut t));
        times.push(t);
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_s = stats::median(&times.iter().map(SetupTimes::total).collect::<Vec<_>>());

    let mut untraced = Tracer::new(false);
    let (m, run) = W::measure(ctx, &inputs, &mut untraced);
    if !trace {
        let tail = m.op_ms_tail.unwrap_or_else(|| stats::tail(&m.op_ms).1);
        return Outcome {
            correct: m.failed == 0,
            attempted: m.attempted,
            failed: m.failed,
            metrics: vec![
                ("setup_s", setup_s, "s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
                ("ops_per_s", m.ops_per_s, "1/s"),
                ("op_ms_p50", stats::median(&m.op_ms), "ms"),
                ("op_ms_tail", tail, "ms"),
            ],
        };
    }
    drop(run);

    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let (traced, check) = tr.span("bench", |tr| {
        let (traced, run) = W::measure(ctx, &inputs, tr);
        let check = W::layers(ctx, &inputs, &run, tr, &mut layers);
        (traced, check)
    });
    let (tail_pct, _) = stats::tail(&traced.op_ms);
    layers.set("op.samples", traced.op_ms.len() as f64);
    layers.set("op.tail_pct", tail_pct);
    layers.set("tracing.overhead_s", traced.busy_s - m.busy_s);
    layers.set("tracing.spans", tr.spans().len() as f64);
    let self_s = span::layer_self_s(tr.spans());
    for layer in SPAN_LAYERS {
        let key = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("self_s.") == Some(layer))
            .expect("every span layer has a self_s metric");
        layers.set(key, self_s.get(layer).copied().unwrap_or(0.0));
    }
    for layer in self_s.keys() {
        assert!(
            SPAN_LAYERS.contains(layer),
            "span layer {layer} is not declared"
        );
    }
    let median_of =
        |f: fn(&SetupTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    layers.set("setup.build_s", median_of(|t| t.build_s));
    layers.set("setup.warm_s", median_of(|t| t.warm_s));
    layers.set("trace.gen_s", median_of(|t| t.gen_s));

    let spans_path = out_dir.join(format!("spans-{name}-{}.json", ctx.seed));
    if let Err(e) = std::fs::write(&spans_path, tr.to_json()) {
        eprintln!("error: writing {}: {e}", spans_path.display());
    }
    if let Err(e) = &check {
        eprintln!("error: traced-run check failed: {e}");
    }
    let failed = m.failed + traced.failed + u64::from(check.is_err());
    Outcome {
        correct: failed == 0,
        attempted: m.attempted + traced.attempted + 1,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(n, unit)| (n, layers.0.get(n).copied().unwrap_or(0.0), unit))
            .collect(),
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <static-mix|ras-churn|serve-open|migrate-rebalance> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench-out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tmp: out_dir.join(format!("tmp-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("error: creating {}: {e}", ctx.tmp.display());
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    let name = args.workload.as_str();
    let outcome = match name {
        "static-mix" => run::<static_mix::StaticMix>(&ctx, args.trace, &out_dir, name),
        "ras-churn" => run::<ras_churn::RasChurn>(&ctx, args.trace, &out_dir, name),
        "serve-open" => run::<serve_open::ServeOpen>(&ctx, args.trace, &out_dir, name),
        "migrate-rebalance" => {
            run::<migrate_rebalance::MigrateRebalance>(&ctx, args.trace, &out_dir, name)
        }
        other => {
            eprintln!("error: unknown workload {other}");
            let _ = std::fs::remove_dir_all(&ctx.tmp);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    eprintln!(
        "[perfbench: {name} seed {} trace {} took {:.1} s]",
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    println!("{}", json_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(|v| v.items())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let get = |k| m.field(k).and_then(|v| v.as_str()).expect(k).to_owned();
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let want = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("op_ms_p50", f64::NAN, "ms")],
        };
        let line = json_line(&o);
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.field("correct"), Ok(&serde_json::Value::Bool(true)));
        assert_eq!(v.field("attempted").and_then(|a| a.as_u64()), Ok(3));
        let metric = |name, key| {
            v.field("metrics")
                .and_then(|m| m.field(name))
                .and_then(|m| m.field(key))
        };
        assert_eq!(
            metric("setup_s", "value").and_then(|x| x.as_f64()),
            Ok(0.25)
        );
        // A non-finite value is printed as 0, never as invalid JSON.
        assert_eq!(
            metric("op_ms_p50", "value").and_then(|x| x.as_f64()),
            Ok(0.0)
        );
        assert_eq!(
            metric("op_ms_p50", "unit").and_then(|x| x.as_str()),
            Ok("ms")
        );
    }
}
