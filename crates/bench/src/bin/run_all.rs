//! Regenerate every table and figure, resiliently.
//!
//! Run: `cargo run --release -p itesp-bench --bin run_all [ops] [--jobs N]
//!        [--resume] [--timeout S] [--target-timeout S]`
//!
//! First the grid step runs in-process: the union of the nine grid
//! figures' runs (see `itesp_bench::grid`) is simulated once, as the
//! checkpointed campaign `run_all.grid`, and each figure is folded from
//! that one run set and saved. `--timeout` applies to its jobs; the
//! grid checkpoint is cleared once all nine figures are saved.
//!
//! Then the other targets run once each as child processes, given all
//! arguments except `--target-timeout`, under an optional wall-clock
//! deadline (`--target-timeout` / `ITESP_TARGET_TIMEOUT`). A failing
//! step does not stop the campaign — the run continues, the failure
//! lands in `results/run_all_summary.json`, and the process exits
//! nonzero at the end; rerunning with `--resume` then skips the jobs
//! every target already checkpointed.

use std::fmt;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use itesp_bench::{
    grid, jobs_from_env, ops_from_env, results_dir_from_env, save_json, target_timeout_from_env,
    CampaignOptions, Checkpoint, RunSet,
};
use serde::Serialize;

/// The targets that run as child processes, after the grid step.
const CHILD_TARGETS: &[&str] = &[
    "tab01",
    "tab02",
    "fig02",
    "fig03",
    "fig05",
    "figchurn",
    "figrecover",
    "figserve",
    "figmigrate",
];

/// The grid step's campaign (and checkpoint) name. A failed job's
/// replay line names the part before the dot: `run_all`.
const GRID_TARGET: &str = "run_all.grid";

/// The serve and migrate drills run live processes with kills and
/// drains; when no explicit `--target-timeout` is set, cap them so a
/// wedged daemon, a client stuck in a retry loop, or a frozen drill
/// child cannot hang the whole regeneration.
const DRILL_DEADLINE: Duration = Duration::from_secs(600);
const DRILL_TARGETS: &[&str] = &["figserve", "figmigrate"];

#[derive(Serialize)]
struct TargetReport {
    target: String,
    seconds: f64,
    status: String,
}

#[derive(Serialize)]
struct Summary {
    targets: Vec<TargetReport>,
    failures: Vec<String>,
}

/// One appended line of the committed perf trajectory
/// (`BENCH_run_all.json`): enough context to compare runs across
/// revisions at equal parameters.
#[derive(Serialize)]
struct BenchLogEntry {
    /// Unix seconds when the campaign finished.
    timestamp: u64,
    /// `git rev-parse --short HEAD`, with `+dirty` when the tree has
    /// uncommitted changes ("unknown" outside a git checkout).
    git_rev: String,
    jobs: usize,
    ops: usize,
    /// The machine the campaign ran on: timings from different hosts
    /// are not comparable. Entries written before this field existed
    /// lack it.
    host: Host,
    /// Wall-clock seconds per target, in campaign order.
    targets: Vec<TargetSeconds>,
    total_seconds: f64,
    failures: Vec<String>,
}

#[derive(Serialize)]
struct TargetSeconds {
    target: String,
    seconds: f64,
}

#[derive(Serialize)]
struct Host {
    /// The first `model name` in `/proc/cpuinfo` ("unknown" without one).
    cpu: String,
    /// `std::thread::available_parallelism` (0 when unknown).
    parallelism: usize,
}

impl Host {
    fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| cpu_model(&text))
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            cpu,
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
        }
    }
}

/// The first `model name` value of a `/proc/cpuinfo` text.
fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

fn git_rev() -> String {
    let out = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let Some(rev) = out(&["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_owned();
    };
    match out(&["status", "--porcelain"]) {
        Some(s) if !s.is_empty() => format!("{rev}+dirty"),
        _ => rev,
    }
}

/// Split the text of a JSON array into its top-level element slices.
/// The vendored serde_json parses but cannot re-serialize values, so
/// editing the log means carrying each surviving entry's original text
/// verbatim and splicing around it.
fn split_array_elements(text: &str) -> Option<Vec<String>> {
    let inner = text.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut elems = Vec::new();
    let (mut depth, mut start) = (0i64, None::<usize>);
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in inner.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        if start.is_none() && !c.is_whitespace() && c != ',' {
            start = Some(i);
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                if let Some(s) = start.take() {
                    elems.push(inner[s..i].trim_end().to_owned());
                }
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        elems.push(inner[s..].trim_end().to_owned());
    }
    Some(elems)
}

/// The dedupe key of one log entry.
type EntryKey = (String, u64, Vec<String>, Option<(String, u64)>);

/// The dedupe key of one log entry: `(git rev, jobs, sorted target
/// set, host)`, with host `(cpu, parallelism)` or `None` for entries
/// written before hosts were recorded. Entries that fail to expose the
/// key are kept as-is.
fn entry_key(text: &str) -> Option<EntryKey> {
    let v = serde_json::from_str(text).ok()?;
    let host = v.field("host").ok().and_then(|h| {
        let cpu = h.field("cpu").ok()?.as_str().ok()?.to_owned();
        Some((cpu, h.field("parallelism").ok()?.as_u64().ok()?))
    });
    let git = v.field("git_rev").ok()?.as_str().ok()?.to_owned();
    let jobs = v.field("jobs").ok()?.as_u64().ok()?;
    let mut targets: Vec<String> = v
        .field("targets")
        .ok()?
        .items()
        .ok()?
        .iter()
        .map(|t| Some(t.field("target").ok()?.as_str().ok()?.to_owned()))
        .collect::<Option<_>>()?;
    targets.sort_unstable();
    Some((git, jobs, targets, host))
}

/// Why the perf-trajectory log was not updated.
#[derive(Debug)]
enum BenchLogError {
    /// The existing log could not be read; it is left untouched.
    Read(String, std::io::Error),
    /// The existing log is not a JSON array; it is left untouched.
    Corrupt(String),
    /// The updated log could not be written durably.
    Write(String, std::io::Error),
}

impl fmt::Display for BenchLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchLogError::Read(path, e) => write!(f, "could not read bench log {path}: {e}"),
            BenchLogError::Corrupt(path) => write!(
                f,
                "bench log {path} is not a JSON array; left untouched \
                 (repair or move it, then rerun)"
            ),
            BenchLogError::Write(path, e) => write!(f, "could not write bench log {path}: {e}"),
        }
    }
}

/// Add `entry` to the perf-trajectory log at `path` (a JSON array of
/// [`BenchLogEntry`]; a missing file starts one). An entry with the
/// same `(git rev, jobs, target set, host)` is *replaced* rather than
/// appended, so rerunning a campaign at one revision does not grow the
/// trajectory. The file is rewritten atomically, and an existing log
/// that cannot be read or parsed is never overwritten. Returns how many
/// entries were replaced.
fn update_bench_log(path: &str, entry: &BenchLogEntry) -> Result<usize, BenchLogError> {
    let mut parts = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .ok()
            .and_then(|_| split_array_elements(&text))
            .ok_or_else(|| BenchLogError::Corrupt(path.to_owned()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(BenchLogError::Read(path.to_owned(), e)),
    };
    let mut key_targets: Vec<String> = entry.targets.iter().map(|t| t.target.clone()).collect();
    key_targets.sort_unstable();
    let key = (
        entry.git_rev.clone(),
        entry.jobs as u64,
        key_targets,
        Some((entry.host.cpu.clone(), entry.host.parallelism as u64)),
    );
    let before = parts.len();
    parts.retain(|e| entry_key(e).is_none_or(|k| k != key));
    let superseded = before - parts.len();
    parts.push(serde_json::to_string_pretty(entry).expect("entry serializes"));
    let body = format!("[\n{}\n]\n", parts.join(",\n"));
    itesp_snap::write_atomic(Path::new(path), body.as_bytes())
        .map_err(|e| BenchLogError::Write(path.to_owned(), e))?;
    Ok(superseded)
}

/// Record this run's per-target seconds in `BENCH_run_all.json` (or
/// `ITESP_BENCH_LOG`).
fn append_bench_log(reports: &[TargetReport], failures: &[String]) -> Result<(), BenchLogError> {
    let path = std::env::var("ITESP_BENCH_LOG").unwrap_or_else(|_| "BENCH_run_all.json".to_owned());
    let entry = BenchLogEntry {
        timestamp: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        git_rev: git_rev(),
        jobs: jobs_from_env(),
        ops: ops_from_env(),
        host: Host::current(),
        targets: reports
            .iter()
            .map(|r| TargetSeconds {
                target: r.target.clone(),
                seconds: r.seconds,
            })
            .collect(),
        total_seconds: reports.iter().map(|r| r.seconds).sum(),
        failures: failures.to_vec(),
    };
    match update_bench_log(&path, &entry)? {
        0 => println!("[bench trajectory appended to {path}]"),
        n => println!(
            "[bench trajectory updated in {path}: replaced {n} same-key entr{}]",
            if n == 1 { "y" } else { "ies" }
        ),
    }
    Ok(())
}

enum TargetStatus {
    Ok,
    Exit(i32),
    TimedOut(Duration),
    LaunchFailed(String),
    /// An in-process step's campaign did not complete every job.
    Incomplete,
}

impl TargetStatus {
    fn is_ok(&self) -> bool {
        matches!(self, TargetStatus::Ok)
    }

    fn describe(&self) -> String {
        match self {
            TargetStatus::Ok => "ok".to_owned(),
            TargetStatus::Exit(code) => format!("exit {code}"),
            TargetStatus::TimedOut(t) => format!("timed out after {:.0}s", t.as_secs_f64()),
            TargetStatus::LaunchFailed(e) => format!("launch failed: {e}"),
            TargetStatus::Incomplete => "incomplete".to_owned(),
        }
    }
}

/// Run one child to completion, killing it if it overruns `timeout`.
fn run_child(exe: &std::path::Path, args: &[String], timeout: Option<Duration>) -> TargetStatus {
    let mut child = match Command::new(exe).args(args).spawn() {
        Ok(c) => c,
        Err(e) => return TargetStatus::LaunchFailed(format!("{e} (build with --release first)")),
    };
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return TargetStatus::Ok,
            Ok(Some(status)) => return TargetStatus::Exit(status.code().unwrap_or(-1)),
            Ok(None) => {
                if let Some(t) = timeout {
                    if start.elapsed() >= t {
                        let _ = child.kill();
                        let _ = child.wait();
                        return TargetStatus::TimedOut(t);
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return TargetStatus::LaunchFailed(e.to_string());
            }
        }
    }
}

/// The arguments forwarded to children: everything we received except
/// `--target-timeout`, which only steers this orchestrator.
fn forwarded_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--target-timeout" {
            let _ = args.next(); // consume the flag's value
        } else if a.starts_with("--target-timeout=") {
            // flag and value in one token; drop it
        } else {
            out.push(a);
        }
    }
    out
}

/// Close one step: echo its time, record a failure, build its report.
fn finish(
    target: &str,
    start: Instant,
    status: TargetStatus,
    failures: &mut Vec<String>,
) -> TargetReport {
    if !status.is_ok() {
        eprintln!("{target} {}", status.describe());
        failures.push(target.to_owned());
    }
    let seconds = start.elapsed().as_secs_f64();
    println!("[{target}: {seconds:.2}s]");
    TargetReport {
        target: target.to_owned(),
        seconds,
        status: status.describe(),
    }
}

/// The grid step: simulate the union of the grid figures' runs once,
/// then fold and save each figure from that set. The grid checkpoint
/// is kept until every figure is saved, so `--resume` after a failed
/// figure does not re-simulate the grid.
fn run_grid(reports: &mut Vec<TargetReport>, failures: &mut Vec<String>) {
    let ops = ops_from_env();
    println!("\n================ grid ================");
    let start = Instant::now();
    let keys = grid::union_keys(ops);
    let set = RunSet::run(GRID_TARGET, &keys, &CampaignOptions::from_env(ops));
    let status = set
        .as_ref()
        .map_or(TargetStatus::Incomplete, |_| TargetStatus::Ok);
    reports.push(finish("grid", start, status, failures));
    let Some(set) = set else {
        return;
    };
    let mut all_saved = true;
    for fig in grid::FIGURES {
        println!("\n================ {} ================", fig.name);
        let start = Instant::now();
        let saved = (fig.report)(&set, ops).is_some();
        all_saved &= saved;
        let status = if saved {
            TargetStatus::Ok
        } else {
            TargetStatus::Incomplete
        };
        reports.push(finish(fig.name, start, status, failures));
    }
    if all_saved {
        let _ = std::fs::remove_dir_all(Checkpoint::dir_for(&results_dir_from_env(), GRID_TARGET));
    }
}

fn main() {
    let forwarded = forwarded_args();
    let timeout = target_timeout_from_env();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe directory");
    let mut reports = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    run_grid(&mut reports, &mut failures);
    for t in CHILD_TARGETS {
        println!("\n================ {t} ================");
        let start = Instant::now();
        let child_timeout = timeout.or_else(|| DRILL_TARGETS.contains(t).then_some(DRILL_DEADLINE));
        let status = run_child(&dir.join(t), &forwarded, child_timeout);
        reports.push(finish(t, start, status, &mut failures));
    }

    println!("\nWall-clock per target:");
    for r in &reports {
        println!("  {:<8} {:>8.2}s  {}", r.target, r.seconds, r.status);
    }
    let total: f64 = reports.iter().map(|r| r.seconds).sum();
    println!("  {:<8} {total:>8.2}s", "total");
    let summary = Summary {
        targets: reports,
        failures: failures.clone(),
    };
    save_json("run_all_summary", &summary);
    let logged = append_bench_log(&summary.targets, &summary.failures);

    if failures.is_empty() {
        println!("\nAll {} targets completed.", summary.targets.len());
    } else {
        eprintln!(
            "\nFailed: {failures:?} — completed jobs are checkpointed; \
             rerun with --resume to finish without recomputing them"
        );
    }
    if let Err(e) = &logged {
        eprintln!("error: {e}");
    }
    if !failures.is_empty() || logged.is_err() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_handles_nesting_strings_and_whitespace() {
        let text = r#"[
            {"a": [1, 2], "s": "br,ack]et \" quote"},
            {"b": {"c": 3}}
        ]"#;
        let elems = split_array_elements(text).unwrap();
        assert_eq!(elems.len(), 2);
        assert!(elems[0].contains("br,ack]et"));
        assert!(elems[1].starts_with('{') && elems[1].ends_with('}'));
        assert_eq!(split_array_elements("[]").unwrap(), Vec::<String>::new());
        assert_eq!(split_array_elements("not json"), None);
    }

    #[test]
    fn entry_key_is_rev_jobs_and_sorted_target_set() {
        let a = r#"{"git_rev": "abc", "jobs": 4,
            "targets": [{"target": "fig08", "seconds": 1.0},
                        {"target": "fig09", "seconds": 2.0}]}"#;
        let b = r#"{"git_rev": "abc", "jobs": 4, "timestamp": 99,
            "targets": [{"target": "fig09", "seconds": 7.5},
                        {"target": "fig08", "seconds": 0.1}]}"#;
        let c = r#"{"git_rev": "abc", "jobs": 8,
            "targets": [{"target": "fig08", "seconds": 1.0}]}"#;
        // Same key regardless of target order, seconds, or extra fields.
        assert_eq!(entry_key(a), entry_key(b));
        assert_ne!(entry_key(a), entry_key(c));
        assert_eq!(entry_key("{}"), None);
    }

    #[test]
    fn entry_key_includes_the_host_when_recorded() {
        let old = r#"{"git_rev": "abc", "jobs": 1,
            "targets": [{"target": "fig08", "seconds": 1.0}]}"#;
        let host = |cpu: &str, n: u64| {
            format!(
                r#"{{"git_rev": "abc", "jobs": 1, "host": {{"cpu": "{cpu}", "parallelism": {n}}},
                "targets": [{{"target": "fig08", "seconds": 1.0}}]}}"#
            )
        };
        let key = |text: &str| entry_key(text).expect("entry keys");
        // An entry from before hosts were recorded still keys, hostless.
        assert_eq!(key(old).3, None);
        assert_eq!(key(&host("Xeon", 2)).3, Some(("Xeon".to_owned(), 2)));
        // The same run on another host is a different entry.
        assert_ne!(key(old), key(&host("Xeon", 2)));
        assert_ne!(key(&host("Xeon", 2)), key(&host("Xeon", 4)));
        assert_ne!(key(&host("Xeon", 2)), key(&host("EPYC", 2)));
    }

    #[test]
    fn cpu_model_reads_the_first_model_name() {
        let text = "processor\t: 0\nvendor_id\t: X\nmodel name\t: Example CPU @ 2.00GHz\n\n\
                    processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(cpu_model(text).as_deref(), Some("Example CPU @ 2.00GHz"));
        assert_eq!(cpu_model("processor\t: 0\n"), None);
    }

    fn entry(git_rev: &str) -> BenchLogEntry {
        BenchLogEntry {
            timestamp: 1,
            git_rev: git_rev.to_owned(),
            jobs: 1,
            ops: 300,
            host: Host {
                cpu: "Example CPU".to_owned(),
                parallelism: 2,
            },
            targets: vec![TargetSeconds {
                target: "grid".to_owned(),
                seconds: 1.5,
            }],
            total_seconds: 1.5,
            failures: Vec::new(),
        }
    }

    fn scratch_log(tag: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("itesp-bench-log-{tag}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path.to_str().expect("utf-8 temp path").to_owned()
    }

    #[test]
    fn a_truncated_log_is_left_byte_for_byte_untouched() {
        let path = scratch_log("torn");
        update_bench_log(&path, &entry("abc")).unwrap();
        update_bench_log(&path, &entry("def")).unwrap();
        let full = std::fs::read(&path).unwrap();
        let torn = &full[..full.len() / 2];
        std::fs::write(&path, torn).unwrap();

        let err = update_bench_log(&path, &entry("ghi")).unwrap_err();
        assert!(matches!(err, BenchLogError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("left untouched"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn updating_a_log_appends_new_keys_and_replaces_same_keys() {
        let path = scratch_log("update");
        assert_eq!(update_bench_log(&path, &entry("abc")).unwrap(), 0);
        assert_eq!(update_bench_log(&path, &entry("def")).unwrap(), 0);
        assert_eq!(update_bench_log(&path, &entry("abc")).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let revs: Vec<String> = split_array_elements(&text)
            .unwrap()
            .iter()
            .map(|e| entry_key(e).unwrap().0)
            .collect();
        assert_eq!(revs, ["def", "abc"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn splitting_then_joining_round_trips_a_log() {
        let log = "[\n{\n  \"git_rev\": \"abc\",\n  \"jobs\": 4\n},\n{\n  \"git_rev\": \"def\",\n  \"jobs\": 4\n}\n]";
        let elems = split_array_elements(log).unwrap();
        let rebuilt = format!("[\n{}\n]", elems.join(",\n"));
        assert_eq!(rebuilt, log);
    }
}
