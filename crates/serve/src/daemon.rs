//! The daemon's entry point, shared by the `itesp-serve` binary and
//! the `figserve` drill, which re-executes itself as the daemon so it
//! needs no second binary.
//!
//! Environment (all optional; defaults from [`ServerConfig::new`]):
//! `ITESP_SERVE_STATE` (state dir, default `serve-state`),
//! `ITESP_SERVE_SHARDS`, `ITESP_SERVE_QUEUE` (admitted requests per
//! shard), `ITESP_SERVE_SNAP_EVERY` (registry snapshot every N
//! completions; 0 = at drain only), `ITESP_SERVE_TIMEOUT_MS` (worker
//! deadline per request), `ITESP_SERVE_READ_TIMEOUT_MS` (socket read
//! deadline, the slow-loris defense) and `ITESP_SERVE_CHAOS` (see
//! [`crate::chaos`]). A malformed value, or 0 for anything but
//! `SNAP_EVERY`, is refused with the variable's name and exit code 2,
//! per the repo's `ITESP_*` convention.
//!
//! SIGTERM drains: new admissions are refused, in-flight requests
//! finish, the stats registry is snapshotted, and the process exits 0.
//! A restart recovers the registry from the snapshot store.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use crate::chaos;
use crate::server::{install_sigterm_handler, Server, ServerConfig};

/// A daemon environment variable with an unusable value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConfigError {
    /// The variable.
    pub var: &'static str,
    /// Its value.
    pub value: String,
    /// Why the value was refused.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} {:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// `name` parsed as a `T`, or `None` when unset. Zero (`T::default()`)
/// is refused unless `zero_ok`.
fn parse<T: FromStr + Default + PartialEq>(
    var: &impl Fn(&str) -> Option<String>,
    name: &'static str,
    zero_ok: bool,
) -> Result<Option<T>, ConfigError> {
    let Some(value) = var(name) else {
        return Ok(None);
    };
    match value.trim().parse::<T>() {
        Ok(n) if zero_ok || n != T::default() => Ok(Some(n)),
        _ => Err(ConfigError {
            var: name,
            value,
            reason: format!(
                "not a {} integer",
                if zero_ok { "non-negative" } else { "positive" }
            ),
        }),
    }
}

/// The daemon's configuration, with each variable read through `var`
/// (the process environment in the daemon, a map in tests).
///
/// # Errors
/// The first variable whose value is malformed or out of range.
pub(crate) fn config_from(
    var: impl Fn(&str) -> Option<String>,
) -> Result<ServerConfig, ConfigError> {
    let mut cfg =
        ServerConfig::new(var("ITESP_SERVE_STATE").unwrap_or_else(|| "serve-state".into()));
    cfg.shards = parse(&var, "ITESP_SERVE_SHARDS", false)?.unwrap_or(cfg.shards);
    cfg.queue_depth = parse(&var, "ITESP_SERVE_QUEUE", false)?.unwrap_or(cfg.queue_depth);
    cfg.snap_every = parse(&var, "ITESP_SERVE_SNAP_EVERY", true)?.unwrap_or(cfg.snap_every);
    cfg.job_timeout = parse(&var, "ITESP_SERVE_TIMEOUT_MS", false)?
        .map_or(cfg.job_timeout, Duration::from_millis);
    cfg.read_timeout = parse(&var, "ITESP_SERVE_READ_TIMEOUT_MS", false)?
        .map_or(cfg.read_timeout, Duration::from_millis);
    if let Some(spec) = var(chaos::CHAOS_ENV) {
        cfg.panic_tenant = chaos::parse(&spec).map_err(|reason| ConfigError {
            var: chaos::CHAOS_ENV,
            value: spec,
            reason,
        })?;
    }
    Ok(cfg)
}

/// Run the daemon configured from the process environment. Exits 0
/// after a drain, 1 on a fatal listener error, and 2 on a bad variable
/// or a failed start.
pub fn main() -> ! {
    let env = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let cfg = config_from(env).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    install_sigterm_handler();
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("itesp-serve: failed to start: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "[itesp-serve: traffic {} metrics {}]",
        server.traffic_addr(),
        server.metrics_addr()
    );
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("itesp-serve: fatal: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn config(vars: &[(&str, &str)]) -> Result<ServerConfig, ConfigError> {
        config_from(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn unset_variables_keep_the_defaults() {
        let cfg = config(&[]).unwrap();
        let want = ServerConfig::new("serve-state");
        assert_eq!(cfg.state_dir, want.state_dir);
        assert_eq!(cfg.shards, want.shards);
        assert_eq!(cfg.queue_depth, want.queue_depth);
        assert_eq!(cfg.snap_every, want.snap_every);
        assert_eq!(cfg.job_timeout, want.job_timeout);
        assert_eq!(cfg.read_timeout, want.read_timeout);
        assert_eq!(cfg.panic_tenant, None);
    }

    #[test]
    fn every_variable_is_read() {
        let cfg = config(&[
            ("ITESP_SERVE_STATE", "/tmp/s"),
            ("ITESP_SERVE_SHARDS", "3"),
            ("ITESP_SERVE_QUEUE", "5"),
            ("ITESP_SERVE_SNAP_EVERY", "0"),
            ("ITESP_SERVE_TIMEOUT_MS", "250"),
            ("ITESP_SERVE_READ_TIMEOUT_MS", "1000"),
            ("ITESP_SERVE_CHAOS", "panic-tenant=9"),
        ])
        .unwrap();
        assert_eq!(cfg.state_dir, Path::new("/tmp/s"));
        assert_eq!((cfg.shards, cfg.queue_depth, cfg.snap_every), (3, 5, 0));
        assert_eq!(cfg.job_timeout, Duration::from_millis(250));
        assert_eq!(cfg.read_timeout, Duration::from_secs(1));
        assert_eq!(cfg.panic_tenant, Some(9));
    }

    #[test]
    fn bad_values_are_refused_by_name() {
        let cases = [
            ("ITESP_SERVE_SHARDS", "0"),
            ("ITESP_SERVE_SHARDS", "four"),
            ("ITESP_SERVE_SHARDS", "-1"),
            ("ITESP_SERVE_SHARDS", "99999999999999999999"),
            ("ITESP_SERVE_QUEUE", "0"),
            ("ITESP_SERVE_QUEUE", "2.5"),
            ("ITESP_SERVE_SNAP_EVERY", "often"),
            ("ITESP_SERVE_TIMEOUT_MS", "0"),
            ("ITESP_SERVE_TIMEOUT_MS", ""),
            ("ITESP_SERVE_READ_TIMEOUT_MS", "0"),
            ("ITESP_SERVE_CHAOS", "panic-tenant=x"),
            ("ITESP_SERVE_CHAOS", "explode"),
        ];
        for (var, value) in cases {
            let err = config(&[(var, value)]).map(|_| ()).unwrap_err();
            assert_eq!((err.var, err.value.as_str()), (var, value), "{err}");
            assert!(err.to_string().contains(var), "{err}");
        }
    }
}
