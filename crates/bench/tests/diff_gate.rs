//! Golden tests for the binaries' command-line gates:
//!
//! - `analyze --diff`: a document diffed against itself is clean (exit 0);
//!   a +20% perturbation of the canonical scatter workload's p99 latency
//!   fails (exit nonzero) naming the metric;
//! - `analyze --watch -`: a `--progress` stream on stdin is rendered, and
//!   an invalid `sa-probe` snapshot fails it (exit 1);
//! - `fig13 --quick --progress` reports every sweep point as it finishes;
//! - the closed flag set: an unknown or removed flag exits 2, `serve`
//!   rejects the figure binaries' experiment flags, `--cache` without
//!   `--spec` is rejected, and each `explore` subcommand takes only the
//!   flags it reads.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use sa_bench::args::Args;
use sa_bench::cli::{Cli, COMMON_FLAGS};
use sa_bench::telemetry::BenchRun;
use sa_sim::MachineConfig;
use sa_telemetry::{Json, ProbeRegistry};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sa-diff-gate-{}-{name}", std::process::id()));
    p
}

/// Emit a stats document exactly as a figure binary would.
fn export(path: &std::path::Path) -> Json {
    let flag = format!("--stats-json {}", path.display());
    let args = Args::parse(flag.split_whitespace().map(str::to_owned));
    let cli = Cli::try_from_args(args, COMMON_FLAGS).expect("argv parses");
    let bench = BenchRun::from_cli("gate", &MachineConfig::merrimac(), cli);
    bench.finish();
    let text = std::fs::read_to_string(path).expect("document written");
    Json::parse(&text).expect("valid JSON")
}

fn analyze_diff(baseline: &std::path::Path, candidate: &std::path::Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg("--diff")
        .arg(baseline)
        .arg(candidate)
        .output()
        .expect("analyze runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Multiply `latency.canonical.end_to_end.p99` by 1.2 in place.
fn perturb_p99(doc: &mut Json) {
    let path = ["latency", "canonical", "end_to_end", "p99"];
    let mut cur = doc;
    for key in &path[..path.len() - 1] {
        let Json::Obj(pairs) = cur else {
            panic!("{key} parent is not an object")
        };
        cur = &mut pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing {key}"))
            .1;
    }
    let Json::Obj(pairs) = cur else {
        panic!("end_to_end is not an object")
    };
    let p99 = &mut pairs.iter_mut().find(|(k, _)| k == "p99").expect("p99").1;
    let old = p99.as_u64().expect("numeric p99");
    *p99 = Json::UInt(old * 12 / 10 + 5); // +20%, past the absolute slack
}

#[test]
fn self_diff_passes_and_perturbed_p99_fails_naming_the_metric() {
    let base_path = tmp("base.json");
    let mut doc = export(&base_path);

    let (ok, _) = analyze_diff(&base_path, &base_path);
    assert!(
        ok,
        "a document diffed against itself must report no regressions"
    );

    perturb_p99(&mut doc);
    let cand_path = tmp("cand.json");
    std::fs::write(&cand_path, doc.to_string_pretty()).expect("write candidate");
    let (ok, stderr) = analyze_diff(&base_path, &cand_path);
    assert!(!ok, "a +20% p99 must fail the gate");
    assert!(
        stderr.contains("latency.canonical.end_to_end.p99"),
        "the offending metric is named; stderr was:\n{stderr}"
    );

    std::fs::remove_file(&base_path).ok();
    std::fs::remove_file(&cand_path).ok();
}

/// Run `analyze --watch - --plain` with `input` on stdin.
fn watch_stdin(input: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--watch", "-", "--plain"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("analyze runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("analyze exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn watch_reads_a_progress_stream_from_stdin() {
    let snapshot = ProbeRegistry::new()
        .into_snapshot("canonical", 4096, 0)
        .to_string_compact();
    let stream = format!(
        "wrote sa-stats v5 document to x.json\n\
         {{\"kind\":\"heartbeat\",\"elapsed_ms\":3,\"cycle\":4096}}\n\
         {snapshot}\n"
    );
    let (code, stdout) = watch_stdin(&stream);
    assert_eq!(code, Some(0), "stdout was:\n{stdout}");
    assert!(stdout.contains("1 valid snapshot(s)"), "{stdout}");

    let bad = format!("{stream}{{\"schema\":\"sa-probe\",\"version\":1}}\n");
    let (code, _) = watch_stdin(&bad);
    assert_eq!(code, Some(1), "an invalid sa-probe snapshot must fail");
}

#[test]
fn progress_flag_reports_sweep_points() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig13"))
        .args(["--quick", "--progress"])
        .output()
        .expect("fig13 runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let points: Vec<Json> = stderr
        .lines()
        .filter(|l| l.contains("\"kind\":\"point\""))
        .map(|l| Json::parse(l).expect("point event is JSON"))
        .collect();
    // Workers emit concurrently, so the final count need not be the last
    // line.
    let field = |p: &Json, k| p.get(k).and_then(Json::as_u64);
    let last = points
        .iter()
        .max_by_key(|p| field(p, "done"))
        .expect("--progress emits sweep point events");
    assert_eq!(field(last, "done"), Some(points.len() as u64));
    assert_eq!(
        field(last, "done"),
        field(last, "total"),
        "every announced point finishes"
    );
}

#[test]
fn unknown_and_removed_flags_exit_2() {
    let faults = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench/faultplans/smoke.json"
    );
    let table1 = env!("CARGO_BIN_EXE_table1");
    let serve = env!("CARGO_BIN_EXE_serve");
    let explore = env!("CARGO_BIN_EXE_explore");
    let spec_only = "caches --spec jobs only";
    let cases: &[(&str, &[&str], &str)] = &[
        (
            table1,
            &["--stats-jsno", "x.json"],
            "unknown flag --stats-jsno",
        ),
        (
            table1,
            &["--probe-listen", "/tmp/x"],
            "unknown flag --probe-listen",
        ),
        // serve takes only its own flags: the figure binaries' experiment
        // flags are rejected before a socket is bound (no "listening" line).
        (serve, &["--spec", "job.json"], "unknown flag --spec"),
        (serve, &["--faults", faults], "unknown flag --faults"),
        (
            serve,
            &["--stats-json", "x.json"],
            "unknown flag --stats-json",
        ),
        // The result cache serves --spec jobs only; a figure sweep always
        // simulates, so asking it to cache is a usage error.
        (
            env!("CARGO_BIN_EXE_fig7"),
            &["--quick", "--cache=.x"],
            spec_only,
        ),
        (env!("CARGO_BIN_EXE_fig6"), &["--cache"], spec_only),
        // Each explore subcommand takes only the flags it reads.
        (explore, &["rig", "--banks", "4"], "unknown flag --banks"),
        (explore, &["rig", "--banks", "frog"], "unknown flag --banks"),
        (explore, &["scan", "--range", "5"], "unknown flag --range"),
        (
            explore,
            &["histogram", "--nodes", "4"],
            "unknown flag --nodes",
        ),
    ];
    for &(bin, argv, message) in cases {
        let out = Command::new(bin).args(argv).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(message),
            "{bin} {argv:?}: stderr was:\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{bin} {argv:?} must fail before any output"
        );
    }
    // The flags a subcommand does read still parse.
    for argv in [
        &["rig", "--cs", "16", "--latency", "8"][..],
        &["multinode", "--nodes", "2", "--banks", "4", "--n", "256"],
    ] {
        let out = Command::new(explore).args(argv).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "explore {argv:?}");
    }
}
