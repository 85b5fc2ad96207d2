//! Host facts recorded with every result, and process memory.

use std::fs;
use std::path::Path;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning, for verifying a claimed change.
pub const HELD_OUT_SEED: u64 = 2027;
/// Feature-extraction threads the pipeline runs with (`run_batch`).
pub const PIPELINE_JOBS: usize = 1;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit of the checkout, read from `.git` under `root` without running
/// git; `unknown` when the checkout is not a git repository.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Threads in this process (`Threads` in `/proc/self/status`).
pub fn threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(1)
}
