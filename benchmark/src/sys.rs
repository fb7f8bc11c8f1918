//! What the benchmark reads from the operating system: the noise guard's
//! scheduler counters, memory use, and the machine fingerprint that
//! `compare` insists two runs share. A file that cannot be read yields 0
//! or "unknown": the numbers these feed qualify a result, they never
//! gate it.

use std::fs;
use std::process::Command;

use crate::json::Json;
use crate::obj;

/// The allocator setting every measured process runs under. With glibc's
/// per-thread cache on, a session box freed by one client is handed to the
/// other client's next allocation, and whether the two clients' live boxes
/// then share cache lines is decided by heap layout at start-up:
/// `kv_mixed` ran anywhere from 0.67 M to 1.09 M ops/s from one process to
/// the next. Without the cache every chunk returns to its own arena, and
/// the spread of `ops_per_s` over ten processes fell from 15 % to 6 %.
pub const TUNABLES_VAR: &str = "GLIBC_TUNABLES";
pub const TUNABLES: &str = "glibc.malloc.tcache_count=0";

fn field(path: &str, line_prefix: &str, index: usize) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(line_prefix))?;
    line.split_whitespace().nth(index)?.parse().ok()
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU, so far.
pub fn runq_wait_ns() -> u64 {
    field("/proc/thread-self/schedstat", "", 1).unwrap_or(0)
}

/// Clock ticks the hypervisor has taken from this guest, so far.
pub fn steal_ticks() -> u64 {
    field("/proc/stat", "cpu ", 8).unwrap_or(0)
}

/// Resident set size of this process in MB.
pub fn rss_mb() -> f64 {
    field("/proc/self/status", "VmRSS:", 1).unwrap_or(0) as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn file_line(path: &str) -> String {
    fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Where and with what this run was measured.
pub fn fingerprint() -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj! {
        "git_commit" => command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        "rustc" => command_line("rustc", &["-V"]),
        "profile" => if cfg!(debug_assertions) { "debug" } else { "release" },
        "nproc" => nproc() as u64,
        "cpu_model" => cpu,
        "clocksource" =>
            file_line("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "allocator" => format!("system, {TUNABLES_VAR}={}", std::env::var(TUNABLES_VAR).unwrap_or_default()),
    }
}
