//! # itesp-bench — figure/table regenerators and microbenchmarks
//!
//! One binary per table and figure of the paper (see DESIGN.md's
//! experiment index): `fig02`, `fig03`, `fig05`, `fig08`, `fig09`,
//! `fig10`, `fig11`, `fig12`, `fig13`, `fig15`, `tab01`, `tab02`, plus
//! Criterion microbenchmarks of the core data structures in `benches/`.
//!
//! Each regenerator prints the paper-style rows and writes a JSON dump
//! under `results/`. The nine grid figures (see [`grid`]) fold over one
//! shared [`RunSet`] of fault-free runs, each distinct run simulated
//! once. Trace length defaults keep a full figure under a few minutes;
//! set `ITESP_OPS` to raise it (the paper uses 5 M operations per
//! program — relative results are stable far below that).

pub mod campaign;
pub mod checkpoint;
pub mod drill;
pub mod grid;
pub mod runset;

pub use campaign::{run_campaign, run_campaign_with, Campaign, CampaignOptions, FailureRecord};
pub use checkpoint::Checkpoint;
pub use runset::{RunKey, RunSet};

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

use serde::Serialize;

use itesp_core::{CacheStats, EngineConfig, EngineStats, SecurityEngine};
use itesp_trace::{MultiProgram, PAGE_BYTES};

/// Memory operations per program for quick regeneration runs.
pub const DEFAULT_OPS: usize = 20_000;

const USAGE: &str = "[ops] [--jobs N] [--resume] [--recover] [--timeout SECONDS] [--job-only I] \
                     [--target-timeout SECONDS]";

/// Command-line arguments shared by every regenerator binary: an
/// optional positional operation count plus the orchestration flags.
/// `target_timeout` only matters to `run_all` (per-child subprocess
/// deadlines); the others apply to any figure binary.
#[derive(Default)]
struct CliArgs {
    ops: Option<String>,
    jobs: Option<String>,
    resume: bool,
    recover: bool,
    timeout: Option<String>,
    job_only: Option<String>,
    target_timeout: Option<String>,
}

/// Parse the command line once; every `*_from_env` accessor reads the
/// same parse. Unit-test binaries carry libtest's own flags, so under
/// `cfg(test)` the CLI is inert and only env vars apply.
fn cli() -> &'static CliArgs {
    static CLI: OnceLock<CliArgs> = OnceLock::new();
    #[cfg(test)]
    {
        CLI.get_or_init(CliArgs::default)
    }
    #[cfg(not(test))]
    {
        CLI.get_or_init(parse_cli)
    }
}

#[cfg_attr(test, allow(dead_code))]
fn parse_cli() -> CliArgs {
    let mut out = CliArgs::default();
    let mut args = std::env::args().skip(1);
    let value_of = |flag: &str, next: Option<String>| -> String {
        next.unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        if a == "--jobs" || a == "-j" {
            out.jobs = Some(value_of(&a, args.next()));
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            out.jobs = Some(v.to_owned());
        } else if a == "--resume" {
            out.resume = true;
        } else if a == "--recover" {
            out.recover = true;
        } else if a == "--timeout" {
            out.timeout = Some(value_of(&a, args.next()));
        } else if let Some(v) = a.strip_prefix("--timeout=") {
            out.timeout = Some(v.to_owned());
        } else if a == "--job-only" {
            out.job_only = Some(value_of(&a, args.next()));
        } else if let Some(v) = a.strip_prefix("--job-only=") {
            out.job_only = Some(v.to_owned());
        } else if a == "--target-timeout" {
            out.target_timeout = Some(value_of(&a, args.next()));
        } else if let Some(v) = a.strip_prefix("--target-timeout=") {
            out.target_timeout = Some(v.to_owned());
        } else if out.ops.is_none() && !a.starts_with('-') {
            out.ops = Some(a);
        } else {
            eprintln!("error: unexpected argument {a:?} (usage: {USAGE})");
            std::process::exit(2);
        }
    }
    out
}

/// Read an env var, distinguishing "unset" (a fallback) from "set but
/// garbage" (a hard error naming the variable — a campaign must never
/// silently run with different parameters than the operator asked for).
fn env_var(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!("error: {name} is set but not valid UTF-8 ({raw:?})");
            std::process::exit(2);
        }
    }
}

/// `value` as a positive integer, or the error line naming `what` and
/// its `source` (the command line or an env var).
fn positive(value: &str, what: &str, source: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        Ok(_) => Err(format!(
            "{what} from {source} must be greater than zero (got {value:?})"
        )),
        Err(_) => Err(format!(
            "invalid {what} from {source}: {value:?} is not a positive integer"
        )),
    }
}

fn parse_positive(value: &str, what: &str, source: &str) -> usize {
    positive(value, what, source).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn parse_count(value: &str, what: &str, source: &str) -> usize {
    match value.parse::<usize>() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: invalid {what} from {source}: {value:?} is not an integer");
            std::process::exit(2);
        }
    }
}

/// Trace length per program: first CLI arg, `ITESP_OPS` env var, or
/// [`DEFAULT_OPS`]. Exits with a clear error on non-numeric, zero, or
/// non-unicode input rather than silently falling back.
pub fn ops_from_env() -> usize {
    if let Some(v) = &cli().ops {
        return parse_positive(v, "operation count", "the command line");
    }
    match env_var("ITESP_OPS") {
        Some(v) => parse_positive(&v, "operation count", "ITESP_OPS"),
        None => DEFAULT_OPS,
    }
}

/// Worker threads for a campaign's fan-out: `--jobs`/`-j` CLI flag,
/// `ITESP_JOBS` env var, or the machine's available parallelism. Exits
/// with a clear error on non-numeric or zero input.
pub fn jobs_from_env() -> usize {
    if let Some(v) = &cli().jobs {
        return parse_positive(v, "job count", "the command line");
    }
    match env_var("ITESP_JOBS") {
        Some(v) => parse_positive(&v, "job count", "ITESP_JOBS"),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Whether to resume from checkpoints: `--resume` or `ITESP_RESUME=1`.
pub fn resume_from_env() -> bool {
    if cli().resume {
        return true;
    }
    match env_var("ITESP_RESUME").as_deref() {
        None | Some("0") | Some("") => false,
        Some("1") => true,
        Some(v) => {
            eprintln!("error: invalid ITESP_RESUME {v:?} (expected 0 or 1)");
            std::process::exit(2);
        }
    }
}

/// Resume a crash-recovery-enabled run from the snapshots in
/// `ITESP_SNAPSHOT_DIR` instead of starting from cycle zero: the
/// `--recover` flag or `ITESP_RECOVER=1`. Consumed by the binaries
/// that support durable checkpoints (see `figrecover`).
pub fn recover_from_env() -> bool {
    if cli().recover {
        return true;
    }
    match env_var("ITESP_RECOVER").as_deref() {
        None | Some("0") | Some("") => false,
        Some("1") => true,
        Some(v) => {
            eprintln!("error: invalid ITESP_RECOVER {v:?} (expected 0 or 1)");
            std::process::exit(2);
        }
    }
}

/// Resolve a CLI-flag-then-env-var setting to its value and source.
fn flag_or_env(flag: &Option<String>, var: &'static str) -> Option<(String, &'static str)> {
    match (flag, env_var(var)) {
        (Some(v), _) => Some((v.clone(), "the command line")),
        (None, Some(v)) => Some((v, var)),
        (None, None) => None,
    }
}

fn parse_timeout(value: &str, what: &str, source: &str) -> Duration {
    match value.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs > 0.0 => Duration::from_secs_f64(secs),
        _ => {
            eprintln!(
                "error: invalid {what} from {source}: {value:?} is not a positive \
                 number of seconds"
            );
            std::process::exit(2);
        }
    }
}

/// Per-job watchdog deadline: `--timeout SECONDS` or
/// `ITESP_JOB_TIMEOUT` (fractional seconds allowed). Unset = no
/// deadline.
pub fn job_timeout_from_env() -> Option<Duration> {
    flag_or_env(&cli().timeout, "ITESP_JOB_TIMEOUT")
        .map(|(v, src)| parse_timeout(&v, "job timeout", src))
}

/// Per-target subprocess deadline for `run_all`: `--target-timeout
/// SECONDS` or `ITESP_TARGET_TIMEOUT`. Unset = no deadline.
pub fn target_timeout_from_env() -> Option<Duration> {
    flag_or_env(&cli().target_timeout, "ITESP_TARGET_TIMEOUT")
        .map(|(v, src)| parse_timeout(&v, "target timeout", src))
}

/// Replay filter: `--job-only I` or `ITESP_JOB_ONLY` — run only this
/// job index, leaving the rest to a later `--resume`.
pub fn job_only_from_env() -> Option<usize> {
    flag_or_env(&cli().job_only, "ITESP_JOB_ONLY").map(|(v, src)| parse_count(&v, "job index", src))
}

/// Where results (and `.ckpt/` checkpoints) are written:
/// `ITESP_RESULTS_DIR` or `results/`.
pub fn results_dir_from_env() -> PathBuf {
    env_var("ITESP_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// Shared RNG seed so every figure sees the same traces.
pub const TRACE_SEED: u64 = 0xC0FFEE;

/// Replay a workload through just the security engine (no DRAM timing):
/// fast path for the metadata-only figures (2 and 3).
pub fn engine_replay(mp: &MultiProgram, cfg: EngineConfig) -> EngineReplay {
    let copies = mp.copies();
    let mut engine = SecurityEngine::new(cfg);
    let mut leaf_maps: Vec<HashMap<u64, u64>> = vec![HashMap::new(); copies];
    let longest = mp.traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (prog, leaf_map) in leaf_maps.iter_mut().enumerate() {
            let Some(r) = mp.traces[prog].get(i) else {
                continue;
            };
            let page = r.paddr / PAGE_BYTES;
            let next = leaf_map.len() as u64;
            let leaf = *leaf_map.entry(page).or_insert(next);
            let eb = leaf * (PAGE_BYTES / 64) + (r.paddr % PAGE_BYTES) / 64;
            engine.on_access(prog, r.paddr, eb, r.is_write());
        }
    }
    EngineReplay {
        stats: engine.stats().clone(),
        metadata_cache: engine.metadata_cache_stats(),
        parity_cache: engine.parity_cache_stats(),
    }
}

/// Results of an engine-only replay.
#[derive(Debug, Clone, Serialize)]
pub struct EngineReplay {
    pub stats: EngineStats,
    pub metadata_cache: CacheStats,
    pub parity_cache: CacheStats,
}

/// Print a fixed-width table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        println!("{s}");
    };
    line(headers.iter().map(|s| (*s).to_owned()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Write a JSON result dump under `<results-dir>/<name>.json`
/// (crash-safe: temp file + atomic rename, so a kill mid-save leaves
/// the previous dump intact, never a truncated one).
///
/// After a durable save the target's checkpoints (and those of any
/// `<name>.<sub>` campaign, such as `figras.ras`) are cleared — they
/// have served their purpose.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir_from_env();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("[warning: could not create {}: {e}]", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => match itesp_snap::write_atomic(&path, s.as_bytes()) {
            Ok(()) => {
                eprintln!("[saved {}]", path.display());
                clear_checkpoints(&dir, name);
            }
            Err(e) => eprintln!("[json dump failed for {}: {e}]", path.display()),
        },
        Err(e) => eprintln!("[json dump failed: {e}]"),
    }
}

/// Remove the checkpoints belonging to `name` once the final results
/// are durably saved: its row directory, its failure manifest, and
/// those of any `name.<sub>` campaign.
fn clear_checkpoints(results_dir: &Path, name: &str) {
    let Ok(entries) = fs::read_dir(checkpoint::ckpt_dir(results_dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let owned_by_target = file_name
            .strip_prefix(name)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'));
        if owned_by_target {
            let path = entry.path();
            let _ = if path.is_dir() {
                fs::remove_dir_all(&path)
            } else {
                fs::remove_file(&path)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::Scheme;
    use itesp_trace::benchmark;

    #[test]
    fn engine_replay_counts_every_access() {
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 2, 500, 1);
        let r = engine_replay(&mp, EngineConfig::paper_default(Scheme::Vault));
        assert_eq!(r.stats.data_accesses(), 1000);
        assert!(r.stats.meta_accesses() > 0);
    }
}
