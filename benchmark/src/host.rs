//! What the benchmark reads about the host it runs on.

use std::process::Command;

use crate::json::Value;

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The fingerprint every result file carries. The revision is `unknown`
/// outside a git checkout.
pub fn fingerprint(seed: u64, seconds: f64, smoke: bool) -> Value {
    let revision = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::from(nproc as u64)),
        ("git_revision", Value::from(revision.as_str())),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("smoke", Value::from(smoke)),
    ])
}
