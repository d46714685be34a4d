//! The host and build fingerprint stamped on every result, and the
//! process's peak resident set.

use ocep_bench::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `nproc`, CPU model, rustc version and commit. The commit is read
/// from git when the checkout is a repository, else from
/// `OCEP_BENCH_COMMIT`, else "unknown".
#[must_use]
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut commit = command_line("git", &["rev-parse", "HEAD"]);
    if commit == "unknown" {
        if let Ok(c) = std::env::var("OCEP_BENCH_COMMIT") {
            commit = c;
        }
    }
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu_model())),
        ("rustc", Json::from(command_line("rustc", &["--version"]))),
        ("commit", Json::from(commit)),
    ])
}

/// Peak resident set (`VmHWM`) of this process, MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
