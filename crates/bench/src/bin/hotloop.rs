//! Hot-loop throughput: simulated cycles per wall-clock second with the
//! event-horizon scheduler (`--fast-forward`) on vs off.
//!
//! ```text
//! hotloop                                # print the table
//! hotloop --out BENCH_hotloop.json       # also record the measurement
//! hotloop --baseline BENCH_hotloop.json  # warn (never fail) on regression
//! hotloop --probe-out BENCH_probe.json        # record probe overhead
//! hotloop --probe-baseline BENCH_probe.json   # warn-only probe compare
//! hotloop --quick                        # smaller inputs, single repeat
//! hotloop --no-trajectory                # skip the trajectory ledger append
//! hotloop --trajectory PATH              # append the ledger elsewhere
//! ```
//!
//! Every run also appends one NDJSON entry per workload to the local
//! perf-trajectory ledger `bench/history/trajectory.ndjson`; inspect it
//! with `analyze trend`.
//!
//! Three workloads cover the simulator's distinct hot loops:
//!
//! * `histogram-fig6` — Figure 6's histogram on the executor path;
//! * `spmv-ebe` — the EBE sparse matrix-vector product;
//! * `rig-stall` — the sensitivity rig at 400-cycle memory latency and a
//!   1-in-8-cycle memory interval: a memory-stall-dominated shape where
//!   almost every cycle is provably idle, so fast-forward must win big
//!   (the acceptance floor is 2x).
//!
//! Both modes must report identical simulated cycle counts — the binary
//! asserts it — so the comparison isolates pure wall-clock cost. Baseline
//! comparison is warn-only: wall-clock numbers depend on the host, so CI
//! publishes them as a tracked metric rather than a hard gate.
//!
//! A second table measures the introspection layer (`docs/OBSERVABILITY.md`):
//! the same driver hot loop with probes off, snapshotting every 4096
//! cycles, streaming those snapshots to a sink, and host-profiling. The
//! disabled path must match the probe-off cycle count exactly (asserted),
//! and `--probe-baseline` warns when a variant's throughput halves.
//!
//! A third table measures the content-addressed result cache
//! (`docs/PERFORMANCE.md`): a Figure-6-shaped sweep with the cache off,
//! cold (every point simulated and stored), and warm (every point replayed
//! without simulating). Hit/miss/store counts are asserted exactly and the
//! three result sets must serialize byte-identically; wall-clock ratios
//! are tracked warn-only like every other host-dependent number here.

use std::time::Instant;

use sa_apps::histogram::{run_hw, HistogramInput};
use sa_apps::mesh::Mesh;
use sa_apps::spmv::run_ebe_hw;
use sa_bench::args::Args;
use sa_bench::sweep::{self, CachedPoint};
use sa_bench::{header, quick_mode, row};
use sa_core::{drive_scatter_probed, NodeMemSys, ScatterKernel, SensitivityRig};
use sa_memo::{Fingerprint, ResultCache};
use sa_sim::{MachineConfig, Rng64, SensitivityConfig};
use sa_telemetry::{HostProfiler, Introspect, Json, ProbeRecorder, Progress};

struct Workload {
    name: &'static str,
    run: Box<dyn Fn() -> u64>,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let cfg = MachineConfig::merrimac();
    let n = if quick { 1024 } else { 8192 };
    let hist = HistogramInput::uniform(n, 2048, 0xF16_0006 + n as u64);
    let mesh = if quick {
        Mesh::generate(60, 8, 220, 14)
    } else {
        Mesh::generate(200, 20, 1040, 14)
    };
    let x = mesh.test_vector(15);
    let rig_n = if quick { 4096 } else { 16_384 };
    let mut rng = Rng64::new(0x407_1007);
    let rig_idx: Vec<u64> = (0..rig_n).map(|_| rng.below(512)).collect();
    vec![
        Workload {
            name: "histogram-fig6",
            run: Box::new(move || run_hw(&cfg, &hist).report.cycles),
        },
        Workload {
            name: "spmv-ebe",
            run: Box::new(move || run_ebe_hw(&cfg, &mesh, &x).report.cycles),
        },
        Workload {
            name: "rig-stall",
            run: Box::new(move || {
                let rig = SensitivityRig::new(SensitivityConfig {
                    cs_entries: 4,
                    fu_latency: 4,
                    mem_latency: 400,
                    mem_interval: 8,
                });
                rig.run_histogram(&rig_idx, 512).cycles
            }),
        },
    ]
}

/// Best-of-`repeats` wall seconds and the (deterministic) simulated cycles.
fn measure(run: &dyn Fn() -> u64, repeats: usize) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..repeats {
        let t0 = Instant::now();
        cycles = run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (cycles, best)
}

/// Warn (never fail) when a run's `key` metric fell below half its
/// baseline value. Returns the number of warnings for the summary line.
fn compare_to_baseline(baseline: &Json, runs: &[Json], key: &str) -> usize {
    let Some(base_runs) = baseline.get("runs").and_then(Json::as_arr) else {
        eprintln!("warning: baseline has no \"runs\" array; skipping comparison");
        return 0;
    };
    let mut warnings = 0;
    for run in runs {
        let name = run.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(base) = base_runs
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("note: {name}: no baseline entry");
            continue;
        };
        let get = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
        if let (Some(now), Some(then)) = (get(run, key), get(base, key)) {
            if now < then * 0.5 {
                eprintln!("warning: {name}: {now:.0} cycles/s vs baseline {then:.0} (>2x slower)");
                warnings += 1;
            }
        }
    }
    warnings
}

/// The introspection variants of the probe-overhead table. Each factory
/// builds a fresh [`Introspect`] so per-repeat state (snapshot cursors,
/// profiler tallies) never leaks between measurements. `interval` is the
/// snapshot cadence — the quick run is short, so it shrinks the interval to
/// keep the snapshot path exercised.
#[allow(clippy::type_complexity)]
fn probe_modes(interval: u64) -> Vec<(&'static str, Box<dyn Fn() -> Introspect>)> {
    vec![
        ("probe-off", Box::new(Introspect::off)),
        (
            "probe-snap",
            Box::new(move || {
                let mut p = Introspect::off();
                p.recorder = ProbeRecorder::every(interval);
                p
            }),
        ),
        (
            "probe-snap-stream",
            Box::new(move || {
                let sink = Progress::to_writer(Box::new(std::io::sink()));
                let mut p = Introspect::off();
                p.recorder = ProbeRecorder::every(interval).with_sink(sink.clone());
                p.progress = sink;
                p
            }),
        ),
        (
            "host-profile",
            Box::new(|| {
                let mut p = Introspect::off();
                p.profiler = HostProfiler::on();
                p
            }),
        ),
    ]
}

/// Measure the driver hot loop under each introspection variant. Probing
/// must never perturb simulated time, so every variant's cycle count is
/// asserted equal to the probe-off run.
fn measure_probe_overhead(quick: bool, repeats: usize) -> Vec<Json> {
    header(
        "Probe overhead",
        "uniform histogram via the single-node driver; introspection variants vs off",
    );
    let n = if quick { 4096 } else { 32_768 };
    let interval = if quick { 256 } else { 4096 };
    let mut rng = Rng64::new(0x9406_0001);
    let kernel = ScatterKernel::histogram(0, (0..n).map(|_| rng.below(4096)).collect());
    let cfg = MachineConfig::merrimac();
    let mut out = Vec::new();
    let mut off = None;
    for (name, mk) in probe_modes(interval) {
        let mut best = f64::INFINITY;
        let mut cycles = 0;
        let mut snapshots = 0;
        for _ in 0..repeats {
            let node = NodeMemSys::new(cfg, 0, false);
            let mut probe = mk();
            let t0 = Instant::now();
            let run = drive_scatter_probed(node, &kernel, false, &mut probe);
            best = best.min(t0.elapsed().as_secs_f64());
            cycles = run.cycles;
            snapshots = probe.recorder.lines().len() as u64;
        }
        let (off_cycles, off_wall) = *off.get_or_insert((cycles, best));
        assert_eq!(cycles, off_cycles, "{name}: probing changed simulated time");
        let overhead = (best / off_wall - 1.0) * 100.0;
        let cps = cycles as f64 / best;
        row(
            name,
            &[
                ("sim cycles", format!("{cycles}")),
                ("snapshots", format!("{snapshots}")),
                ("wall", format!("{:.2}ms", best * 1e3)),
                ("overhead", format!("{overhead:+.1}%")),
                ("cycles/s", format!("{cps:.2e}")),
            ],
        );
        let mut o = Json::obj();
        o.push("name", Json::Str(name.to_owned()));
        o.push("sim_cycles", Json::UInt(cycles));
        o.push("snapshots", Json::UInt(snapshots));
        o.push("wall_ms", Json::Num(best * 1e3));
        o.push("overhead_pct_vs_off", Json::Num(overhead));
        o.push("cycles_per_sec", Json::Num(cps));
        out.push(o);
    }
    out
}

/// Measure the content-addressed result cache on a Figure-6-shaped sweep:
/// cache off, cold (simulate + store), warm (replay, zero simulation). The
/// warm pass's compute closure panics if invoked, so "zero simulation" is
/// asserted structurally, and the exact hit/miss/store counts and
/// byte-identical point payloads are asserted too. Only the wall-clock
/// ratio is host-dependent and therefore warn-only.
fn measure_cache(quick: bool) -> Vec<Json> {
    header(
        "Result cache",
        "fig6-shaped sweep: cache off vs cold (store) vs warm (replay)",
    );
    let cfg = MachineConfig::merrimac();
    let sizes: Vec<usize> = if quick {
        vec![256, 512]
    } else {
        vec![256, 512, 1024, 2048]
    };
    let range = 2048u64;
    let dir = std::env::temp_dir().join(format!("sa-hotloop-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key_of = |&n: &usize| {
        Fingerprint::new("hotloop-cache-bench")
            .u64("n", n as u64)
            .u64("range", range)
    };
    let run = |n: usize| {
        let input = HistogramInput::uniform(n, range, 0xF16_0006 + n as u64);
        let hw = run_hw(&cfg, &input);
        let mut point = CachedPoint::new();
        hw.report.stats.record(&mut point.scope("hw"));
        point.num("hw_us", hw.micros());
        point
    };
    let t0 = Instant::now();
    let off = sweep::map_cached(None, sizes.clone(), key_of, run);
    let wall_off = t0.elapsed().as_secs_f64();
    let cache = ResultCache::open(&dir).expect("hotloop cache dir");
    let t0 = Instant::now();
    let cold = sweep::map_cached(Some(&cache), sizes.clone(), key_of, run);
    let wall_cold = t0.elapsed().as_secs_f64();
    let n = sizes.len() as u64;
    assert_eq!(
        (cache.hits(), cache.misses(), cache.stores()),
        (0, n, n),
        "cold sweep: every point must miss and store"
    );
    let t0 = Instant::now();
    let warm = sweep::map_cached(Some(&cache), sizes.clone(), key_of, |_| {
        panic!("warm sweep must not simulate")
    });
    let wall_warm = t0.elapsed().as_secs_f64();
    assert_eq!(
        (cache.hits(), cache.misses(), cache.stores()),
        (n, n, n),
        "warm sweep: every point must hit"
    );
    for ((o, c), w) in off.iter().zip(&cold).zip(&warm) {
        let bytes = o.to_json().to_string_compact();
        assert_eq!(bytes, c.to_json().to_string_compact(), "cold != off");
        assert_eq!(bytes, w.to_json().to_string_compact(), "warm != off");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = wall_cold / wall_warm;
    if speedup < 1.0 {
        eprintln!(
            "warning: warm sweep slower than cold ({speedup:.2}x) — tiny workload or slow disk"
        );
    }
    row(
        "fig6-sweep",
        &[
            ("points", format!("{n}")),
            ("cache off", format!("{:.2}ms", wall_off * 1e3)),
            ("cold", format!("{:.2}ms", wall_cold * 1e3)),
            ("warm", format!("{:.2}ms", wall_warm * 1e3)),
            ("warm speedup", format!("{speedup:.1}x")),
        ],
    );
    let mut o = Json::obj();
    o.push("name", Json::Str("fig6-sweep".to_owned()));
    o.push("points", Json::UInt(n));
    o.push("wall_ms_cache_off", Json::Num(wall_off * 1e3));
    o.push("wall_ms_cold", Json::Num(wall_cold * 1e3));
    o.push("wall_ms_warm", Json::Num(wall_warm * 1e3));
    o.push("warm_speedup", Json::Num(speedup));
    vec![o]
}

/// Append one NDJSON entry per measured run to the perf-trajectory ledger
/// (`analyze trend` reads it back). Wall-clock data, machine-local by
/// design; any failure warns and never fails the bench. `--no-trajectory`
/// skips the append, `--trajectory <path>` redirects it (tests).
fn append_trajectory(args: &Args, quick: bool, tables: &[(&str, &[Json])]) {
    if args.has("no-trajectory") {
        return;
    }
    let path = args.raw("trajectory").unwrap_or(sa_bench::TRAJECTORY_PATH);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
            return;
        }
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut lines = String::new();
    for (bench, runs) in tables {
        for run in *runs {
            let mut o = Json::obj();
            o.push("schema", Json::Str("sa-trajectory".to_owned()));
            o.push("version", Json::UInt(1));
            o.push("ts", Json::UInt(ts));
            o.push("bench", Json::Str((*bench).to_owned()));
            o.push("quick", Json::Bool(quick));
            for (k, v) in run.as_obj().unwrap_or(&[]) {
                o.push(k, v.clone());
            }
            lines.push_str(&o.to_string_compact());
            lines.push('\n');
        }
    }
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(lines.as_bytes()));
    match appended {
        Ok(()) => eprintln!(
            "appended {} trajectory entries to {path}",
            tables.iter().map(|(_, r)| r.len()).sum::<usize>()
        ),
        Err(e) => eprintln!("warning: could not append to {path}: {e}"),
    }
}

fn main() {
    let args = Args::from_env();
    let quick = quick_mode();
    let repeats = if quick { 1 } else { 3 };
    header(
        "Hot loop",
        "Simulated cycles per wall second; fast-forward on vs off",
    );
    let mut runs = Vec::new();
    for w in workloads(quick) {
        sa_sim::set_fast_forward_default(false);
        let (cycles_off, wall_off) = measure(&*w.run, repeats);
        sa_sim::set_fast_forward_default(true);
        let (cycles_on, wall_on) = measure(&*w.run, repeats);
        assert_eq!(
            cycles_on, cycles_off,
            "{}: fast-forward changed simulated time",
            w.name
        );
        let speedup = wall_off / wall_on;
        let cps = cycles_on as f64 / wall_on;
        row(
            w.name,
            &[
                ("sim cycles", format!("{cycles_on}")),
                ("ff off", format!("{:.2}ms", wall_off * 1e3)),
                ("ff on", format!("{:.2}ms", wall_on * 1e3)),
                ("speedup", format!("{speedup:.2}x")),
                ("cycles/s", format!("{cps:.2e}")),
            ],
        );
        let mut o = Json::obj();
        o.push("name", Json::Str(w.name.to_owned()));
        o.push("sim_cycles", Json::UInt(cycles_on));
        o.push("wall_ms_ff_off", Json::Num(wall_off * 1e3));
        o.push("wall_ms_ff_on", Json::Num(wall_on * 1e3));
        o.push("speedup", Json::Num(speedup));
        o.push("cycles_per_sec_ff_on", Json::Num(cps));
        runs.push(o);
    }
    if let Some(path) = args.raw("baseline") {
        match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => {
                    let warnings = compare_to_baseline(&doc, &runs, "cycles_per_sec_ff_on");
                    if warnings == 0 {
                        println!("\nbaseline {path}: within warn threshold");
                    }
                }
                Err(e) => eprintln!("warning: could not parse baseline {path}: {e}"),
            },
            Err(e) => eprintln!("warning: could not read baseline {path}: {e}"),
        }
    }
    println!();
    let cache_runs = measure_cache(quick);
    if let Some(path) = args.raw("out") {
        let mut doc = Json::obj();
        doc.push("bench", Json::Str("hotloop".to_owned()));
        doc.push("quick", Json::Bool(quick));
        doc.push("repeats", Json::UInt(repeats as u64));
        doc.push("runs", Json::Arr(runs.clone()));
        doc.push("cache", Json::Arr(cache_runs.clone()));
        if let Err(e) = std::fs::write(path, doc.to_string_pretty()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote hot-loop measurement to {path}");
    }

    println!();
    let probe_runs = measure_probe_overhead(quick, repeats);
    if let Some(path) = args.raw("probe-baseline") {
        match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => {
                    let warnings = compare_to_baseline(&doc, &probe_runs, "cycles_per_sec");
                    if warnings == 0 {
                        println!("\nprobe baseline {path}: within warn threshold");
                    }
                }
                Err(e) => eprintln!("warning: could not parse probe baseline {path}: {e}"),
            },
            Err(e) => eprintln!("warning: could not read probe baseline {path}: {e}"),
        }
    }
    if let Some(path) = args.raw("probe-out") {
        let mut doc = Json::obj();
        doc.push("bench", Json::Str("probe-overhead".to_owned()));
        doc.push("quick", Json::Bool(quick));
        doc.push("repeats", Json::UInt(repeats as u64));
        doc.push("runs", Json::Arr(probe_runs.clone()));
        if let Err(e) = std::fs::write(path, doc.to_string_pretty()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote probe-overhead measurement to {path}");
    }
    append_trajectory(
        &args,
        quick,
        &[
            ("hotloop", &runs),
            ("cache", &cache_runs),
            ("probe-overhead", &probe_runs),
        ],
    );
}
