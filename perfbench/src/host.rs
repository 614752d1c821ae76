//! Host fingerprint and process memory.

use std::process::Command;

use crate::json::Json;

/// What a measurement depends on besides the code: the machine and the
/// compiler. Results are comparable only when [`Fingerprint::same_host`]
/// holds; the commit is recorded for the reader, since comparing two
/// commits is the point of an A/B.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cores this process may run on (`available_parallelism`, which
    /// honours the affinity mask).
    pub usable_cores: usize,
    /// `processor` entries in `/proc/cpuinfo` (0 when unreadable).
    pub cpuinfo_processors: usize,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl Fingerprint {
    /// Probes the running host.
    pub fn detect() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.trim().to_owned());
        // Only ask git when the checkout itself is a repository: git
        // would otherwise search the parent directories.
        let git_commit = if std::path::Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_owned()
        };
        Fingerprint {
            usable_cores: usable_cores(),
            cpuinfo_processors: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            git_commit,
        }
    }

    /// Whether two results were measured on the same machine with the
    /// same compiler.
    pub fn same_host(&self, other: &Fingerprint) -> bool {
        self.usable_cores == other.usable_cores
            && self.cpuinfo_processors == other.cpuinfo_processors
            && self.cpu_model == other.cpu_model
            && self.rustc == other.rustc
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("usable_cores", Json::Num(self.usable_cores as f64)),
            (
                "cpuinfo_processors",
                Json::Num(self.cpuinfo_processors as f64),
            ),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.git_commit)),
        ])
    }

    /// Reads the JSON form back.
    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64).map(|n| n as usize);
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
        Some(Fingerprint {
            usable_cores: num("usable_cores")?,
            cpuinfo_processors: num("cpuinfo_processors")?,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            git_commit: text("git_commit")?,
        })
    }
}

/// Cores this process may use: the affinity-aware count, never the
/// machine's processor total (a container can list more CPUs in
/// `/proc/cpuinfo` than its mask lets it run on).
pub fn usable_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_and_ignores_commit() {
        let a = Fingerprint::detect();
        let back = Fingerprint::from_json(&Json::parse(&a.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, a);
        let other_commit = Fingerprint {
            git_commit: "0000".to_owned(),
            ..a.clone()
        };
        assert!(a.same_host(&other_commit));
        let other_cpu = Fingerprint {
            cpu_model: "another".to_owned(),
            ..a.clone()
        };
        assert!(!a.same_host(&other_cpu));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
