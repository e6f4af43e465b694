//! What the benchmark reads from the host: `/proc` counters around a timed
//! phase, the stamp every result carries, and the fixed arithmetic spin
//! that tells a quiet machine from a disturbed one.

use crate::json::Value;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`. Linux
/// has reported 100 on every architecture since 2.6 (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// How long one [`spin_mops`] runs.
const SPIN: Duration = Duration::from_millis(500);

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU consumed so far as `(user seconds, system seconds)`, in clock
/// ticks: by the whole process (threads live and reaped), or with
/// `this_thread` by the calling thread alone.
pub fn cpu_seconds(this_thread: bool) -> (f64, f64) {
    let stat = read(if this_thread {
        "/proc/thread-self/stat"
    } else {
        "/proc/self/stat"
    });
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = rest.split(' ').skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (next(), next());
    (utime / TICKS_PER_SEC, stime / TICKS_PER_SEC)
}

fn schedstat_ns(path: &str) -> u64 {
    read(path)
        .split(' ')
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds the calling thread has spent on a CPU (`schedstat`: exact,
/// where `stat` counts 10 ms ticks).
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Nanoseconds the live threads of the process have spent on a CPU.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| schedstat_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| {
            v.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Resident set size of the process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_field(&read("/proc/self/status"), "VmRSS") * 1024
}

/// `(voluntary, involuntary)` context switches summed over the live
/// threads of the process. A voluntary switch is a sleep (empty socket,
/// contended lock); an involuntary one is the host taking the core away.
pub fn context_switches() -> (u64, u64) {
    let mut total = (0, 0);
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let status = read(&format!("{}/status", task.path().display()));
            total.0 += status_field(&status, "voluntary_ctxt_switches");
            total.1 += status_field(&status, "nonvoluntary_ctxt_switches");
        }
    }
    total
}

/// A fixed dependent-multiply loop for [`SPIN`]; returns millions of
/// iterations per second. Touches no memory, so it measures only how much
/// of a core this process is getting right now.
pub fn spin_mops() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut iters = 0u64;
    loop {
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        iters += 10_000;
        let elapsed = start.elapsed();
        if elapsed >= SPIN {
            std::hint::black_box(x);
            return iters as f64 / elapsed.as_secs_f64() / 1e6;
        }
    }
}

/// The commit a checkout is at, read from `.git` without running git
/// (`unknown` in an exported tree).
fn git_sha() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => {
            let direct = read(&format!(".git/{r}"));
            if direct.trim().is_empty() {
                read(".git/packed-refs")
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|s| s.trim().to_string()))
                    .unwrap_or_default()
            } else {
                direct.trim().to_string()
            }
        }
        None => head.to_string(),
    };
    if sha.is_empty() {
        "unknown".to_string()
    } else {
        sha
    }
}

/// The stamp every result file carries: enough to tell whether two files
/// were measured on comparable hosts and commits.
pub fn stamp() -> Value {
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(model)),
        (
            "kernel",
            Value::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("git_sha", Value::Str(git_sha())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(rss_bytes() > 0);
        let (thread0, process0) = (thread_cpu_ns(), process_cpu_ns());
        let (u0, s0) = cpu_seconds(false);
        let (tu0, ts0) = cpu_seconds(true);
        assert!(spin_mops() > 0.0);
        let (u1, s1) = cpu_seconds(false);
        let (tu1, ts1) = cpu_seconds(true);
        assert!(
            u1 + s1 > u0 + s0,
            "half a second of spinning shows as CPU time"
        );
        assert!(tu1 + ts1 > tu0 + ts0);
        let spun = thread_cpu_ns() - thread0;
        // Other tests share the cores: a tenth of the spin is proof enough.
        assert!(spun > 50_000_000, "{spun} ns");
        assert!(process0 >= thread0 && process_cpu_ns() >= spun);
        assert_eq!(status_field("VmRSS:\t  123 kB\nx: 9", "VmRSS"), 123);
    }
}
