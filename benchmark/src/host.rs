//! Facts about the machine and process the benchmark runs on.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The value of `key:` in a `/proc` status-style file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|value| value.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; zero where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// First line of a command's output, or "unknown" if it cannot be run.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// The commit of the checkout, with `-dirty` when the tree has changes;
/// "unknown" outside a git repository.
pub fn commit() -> String {
    let head = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}
