//! Determinism-under-parallelism at the binary level: every figure binary
//! must emit byte-identical stdout and byte-identical sa-stats documents no
//! matter how many sweep workers (`--jobs` / `SA_JOBS`) it runs with.
//!
//! The binaries are invoked for real via the `CARGO_BIN_EXE_*` paths Cargo
//! provides to integration tests.

use std::process::Command;

/// Run `bin` with `args` (plus `--quick --stats-json <file>`), returning
/// (stdout bytes, stats-file bytes).
fn run_with_stats(
    bin: &str,
    extra: &[&str],
    env: &[(&str, &str)],
    tag: &str,
) -> (Vec<u8>, Vec<u8>) {
    let stats = std::env::temp_dir().join(format!(
        "sa-parallel-determinism-{}-{tag}.json",
        std::process::id()
    ));
    let mut cmd = Command::new(bin);
    cmd.args(extra)
        .arg("--quick")
        .arg("--stats-json")
        .arg(&stats)
        .env_remove("SA_JOBS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read(&stats).expect("stats file written");
    let _ = std::fs::remove_file(&stats);
    (out.stdout, doc)
}

fn assert_jobs_invariant(bin: &str, name: &str) {
    let (base_out, base_doc) = run_with_stats(bin, &["--jobs", "1"], &[], &format!("{name}-j1"));
    for (tag, extra, env) in [
        ("j2", vec!["--jobs", "2"], vec![]),
        ("j8", vec!["--jobs", "8"], vec![]),
        ("env3", vec![], vec![("SA_JOBS", "3")]),
    ] {
        let (out, doc) = run_with_stats(bin, &extra, &env, &format!("{name}-{tag}"));
        assert_eq!(out, base_out, "{name} {tag}: stdout diverged");
        assert_eq!(doc, base_doc, "{name} {tag}: stats document diverged");
    }
}

#[test]
fn fig6_stats_are_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig6"), "fig6");
}

#[test]
fn fig8_stats_are_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig8"), "fig8");
}

#[test]
fn fig9_stats_are_jobs_invariant() {
    // fig9 is the perf-gate workload: its smoke output must not depend on
    // the sweep worker count, or the committed baseline would be unstable.
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig9"), "fig9");
}

#[test]
fn ablate_stats_are_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_ablate"), "ablate");
}

#[test]
fn fig13_stats_are_jobs_invariant() {
    assert_jobs_invariant(env!("CARGO_BIN_EXE_fig13"), "fig13");
}

/// Wall-clock speedup of the parallel sweep on the fig13 smoke workload.
/// Ignored by default (timing-sensitive); CI and `docs/PARALLELISM.md`
/// describe how to run it: `cargo test -p sa-bench --release -- --ignored`.
#[test]
#[ignore = "timing-sensitive; run explicitly with --ignored on a quiet machine"]
fn fig_smoke_sweep_speeds_up_with_jobs() {
    let bin = env!("CARGO_BIN_EXE_fig13");
    let time = |jobs: &str| {
        let start = std::time::Instant::now();
        let out = Command::new(bin)
            .args(["--quick", "--jobs", jobs])
            .env_remove("SA_JOBS")
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        start.elapsed()
    };
    let _warm = time("1");
    let serial = time("1");
    let parallel = time("4");
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "expected >=2x speedup at 4 jobs, measured {speedup:.2}x \
         (serial {serial:?}, parallel {parallel:?})"
    );
}
