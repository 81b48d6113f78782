//! Host provenance recorded with every result, and the process's peak RSS.

use crate::json::{self, Value};
use std::process::Command;

/// Worker count of the "at W" measurements: `min(nproc, 4)`.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn provenance(bench_dir: &std::path::Path) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    json::obj([
        ("nproc", json::num(nproc() as f64)),
        ("workers", json::num(workers() as f64)),
        ("cpu_model", json::string(cpu_model)),
        (
            "commit",
            json::string(command_line(
                "git",
                &["-C", &bench_dir.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", json::string(command_line("rustc", &["--version"]))),
    ])
}
