//! The host a result was measured on, and the process's memory peak.

use std::process::Command;

/// What every result record names about its host.
#[derive(Debug, Clone)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub rustc: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu_model,
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, or `"unknown"` when it cannot run
/// (a checkout without `.git` has no revision).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the `VmHWM` count, so the peak covers the measured run and
/// not its set-up (whose freed memory the allocator may keep resident).
pub fn reset_peak_rss() {
    // "5" resets the peak resident set size (see proc(5), clear_refs).
    // Without it the peak also covers set-up, which is only less precise.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
