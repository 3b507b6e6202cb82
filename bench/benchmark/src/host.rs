//! Facts about the host and the checkout the benchmark runs in.

use std::path::PathBuf;

/// Logical cores available to this process; parallel ratios depend on it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The Cargo target directory the benchmark was built into (`run.sh`
/// exports it), which also holds the figure binaries.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// A scratch directory inside the target directory for cache stores,
/// traces and figure-suite working files, created on first use.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set size in MiB: this process's high-water mark
/// (`VmHWM`) or that of the largest child it has waited for, whichever is
/// larger.
pub fn peak_rss_mib() -> f64 {
    let own_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    own_kib.max(children_max_rss_kib()) as f64 / 1024.0
}

/// Largest peak RSS (KiB) among waited-for children, from
/// `getrusage(RUSAGE_CHILDREN)`; 0 where that is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_max_rss_kib() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 x i64 each), then
    // fourteen `long`s of which `ru_maxrss` is the first.
    const RUSAGE_CHILDREN: i32 = -1;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly the size and
    // alignment of `struct rusage` on this target, and getrusage writes
    // nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        u64::try_from(usage[4]).unwrap_or(0)
    } else {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_max_rss_kib() -> u64 {
    0
}

/// The checkout's git revision, or `unknown` outside a git repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
