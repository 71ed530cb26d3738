//! Regenerate every table and figure in sequence, resiliently.
//!
//! Run: `cargo run --release -p itesp-bench --bin run_all [ops] [--jobs N]
//!        [--resume] [--timeout S] [--retries N]
//!        [--target-timeout S] [--target-retries N]`
//!
//! All arguments except the `--target-*` pair are forwarded to each
//! child regenerator. Each child runs under an optional wall-clock
//! deadline (`--target-timeout` / `ITESP_TARGET_TIMEOUT`) and retry
//! budget (`--target-retries` / `ITESP_TARGET_RETRIES`); retried
//! children get `--resume` appended so completed jobs are not
//! recomputed. A failing target does not stop the campaign — the run
//! continues, the failure lands in `results/run_all_summary.json`, and
//! the process exits nonzero at the end.

use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use itesp_bench::{
    jobs_from_env, ops_from_env, save_json, target_retries_from_env, target_timeout_from_env,
};
use serde::Serialize;

const TARGETS: &[&str] = &[
    "tab01",
    "tab02",
    "fig02",
    "fig03",
    "fig05",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig15",
    "figras",
    "figchurn",
    "figpareto",
    "figrecover",
    "figserve",
    "figmigrate",
];

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
    attempts: u32,
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

/// Record this run's per-target seconds in the perf-trajectory log
/// (`BENCH_run_all.json`, or `ITESP_BENCH_LOG`). The log is a JSON
/// array of [`BenchLogEntry`]; a corrupt or missing file starts fresh
/// rather than aborting a finished campaign. Re-running at the same
/// `(git rev, jobs, target set, host)` *replaces* the earlier measurement
/// instead of appending forever — rerunning a campaign at one revision
/// must not make the trajectory grow without bound.
fn append_bench_log(reports: &[TargetReport], failures: &[String]) {
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
    let mut key_targets: Vec<String> = entry.targets.iter().map(|t| t.target.clone()).collect();
    key_targets.sort_unstable();
    let key = (
        entry.git_rev.clone(),
        entry.jobs as u64,
        key_targets,
        Some((entry.host.cpu.clone(), entry.host.parallelism as u64)),
    );
    let rendered = serde_json::to_string_pretty(&entry).expect("entry serializes");

    let mut parts: Vec<String> = std::fs::read_to_string(&path)
        .ok()
        .filter(|s| serde_json::from_str(s).is_ok())
        .and_then(|s| split_array_elements(&s))
        .unwrap_or_default();
    let before = parts.len();
    parts.retain(|e| entry_key(e).is_none_or(|k| k != key));
    let superseded = before - parts.len();
    parts.push(rendered);
    let body = format!("[\n{}\n]", parts.join(",\n"));
    if let Err(e) = std::fs::write(&path, body + "\n") {
        eprintln!("warning: could not append bench log {path}: {e}");
    } else if superseded > 0 {
        println!(
            "[bench trajectory updated in {path}: replaced {superseded} same-key entr{}]",
            if superseded == 1 { "y" } else { "ies" }
        );
    } else {
        println!("[bench trajectory appended to {path}]");
    }
}

enum TargetStatus {
    Ok,
    Exit(i32),
    TimedOut(Duration),
    LaunchFailed(String),
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
/// the `--target-*` flags, which only steer this orchestrator.
fn forwarded_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--target-timeout" || a == "--target-retries" {
            let _ = args.next(); // consume the flag's value
        } else if a.starts_with("--target-timeout=") || a.starts_with("--target-retries=") {
            // flag and value in one token; drop it
        } else {
            out.push(a);
        }
    }
    out
}

fn main() {
    let forwarded = forwarded_args();
    let timeout = target_timeout_from_env();
    let retries = target_retries_from_env();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe directory");
    let mut reports = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for t in TARGETS {
        println!("\n================ {t} ================");
        let start = Instant::now();
        let mut attempts = 0u32;
        let status = loop {
            attempts += 1;
            let mut args = forwarded.clone();
            if attempts > 1 && !args.iter().any(|a| a == "--resume") {
                // Retries pick up the child's checkpoints instead of
                // recomputing completed jobs.
                args.push("--resume".to_owned());
            }
            let child_timeout =
                timeout.or_else(|| DRILL_TARGETS.contains(t).then_some(DRILL_DEADLINE));
            let status = run_child(&dir.join(t), &args, child_timeout);
            if status.is_ok() || attempts > retries {
                break status;
            }
            eprintln!(
                "{t} {} (attempt {attempts} of {}); retrying with --resume",
                status.describe(),
                retries + 1
            );
        };
        if !status.is_ok() {
            eprintln!("{t} {}", status.describe());
            failures.push((*t).to_owned());
        }
        let seconds = start.elapsed().as_secs_f64();
        println!("[{t}: {seconds:.2}s]");
        reports.push(TargetReport {
            target: (*t).to_owned(),
            seconds,
            status: status.describe(),
            attempts,
        });
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
    append_bench_log(&summary.targets, &summary.failures);

    if failures.is_empty() {
        println!("\nAll {} regenerators completed.", TARGETS.len());
    } else {
        eprintln!(
            "\nFailed: {failures:?} — completed jobs are checkpointed; \
             rerun with --resume to finish without recomputing them"
        );
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

    #[test]
    fn splitting_then_joining_round_trips_a_log() {
        let log = "[\n{\n  \"git_rev\": \"abc\",\n  \"jobs\": 4\n},\n{\n  \"git_rev\": \"def\",\n  \"jobs\": 4\n}\n]";
        let elems = split_array_elements(log).unwrap();
        let rebuilt = format!("[\n{}\n]", elems.join(",\n"));
        assert_eq!(rebuilt, log);
    }
}
