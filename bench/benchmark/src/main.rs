//! The repository benchmark: six workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run. See
//! `bench/benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark suite --out FILE [--runs N] [--seed N] [--seconds S] [--workload NAME]... [--traced]
//! benchmark compare A.json[#N] B.json[#N]
//! ```
//!
//! A run prints every metric by name and unit, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod bench;
mod catalog;
mod compare;
mod host;
mod nodeloop;
mod serve;
mod sim;
mod stats;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sa_telemetry::Json;

use crate::bench::{catalog, timed, Bench, Scale};
use crate::compare::Record;
use crate::stats::{median, quartiles, tail_percentile};
use crate::trace::Spans;

/// The seed whose output digests `digests.json` records.
const DEFAULT_SEED: u64 = 1;

/// A run sets its workload up at least this many times, and until the
/// set-ups took [`SETUP_BUDGET`] (at most [`SETUPS_MAX`] times); `setup_s`
/// is their median, so millisecond set-ups still give a steady number.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Output digests of every workload at [`DEFAULT_SEED`].
const DIGESTS: &str = include_str!("../digests.json");

fn main() -> ExitCode {
    // The seed and the benchmark's sizes are a run's only inputs: drop the
    // process-wide knobs the simulator would read from the environment
    // (figure binaries inherit the cleaned environment too).
    for knob in ["SA_JOBS", "SA_QUICK", "SA_NODE_THREADS", "SA_CACHE_DIR"] {
        std::env::remove_var(knob);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&args[1..]),
        Some("suite") => compare::suite_main(&args[1..]),
        _ => run_main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn usage() -> String {
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]".into()
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, catalog().run_seconds);
    let (mut trace, mut out) = (false, None::<PathBuf>);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(usage);
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| usage())?,
            "--seconds" => seconds = value()?.parse().map_err(|_| usage())?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            _ => return Err(usage()),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !catalog().workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            catalog().workloads
        ));
    }
    let rec = run_workload(
        &workload,
        seed,
        Duration::from_secs(seconds),
        trace,
        Scale::Full,
    )?;
    if seed == DEFAULT_SEED {
        check_digest(&rec);
    }
    if let Some(path) = out {
        std::fs::write(&path, rec.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&rec).to_string_compact());
    Ok(ExitCode::SUCCESS)
}

/// Set a workload up: generate its inputs from `seed` and build what it
/// runs on.
fn setup(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "combine-hot" => Box::new(sim::SessionBench::combine_hot(seed, scale)),
        "scatter-wide" => Box::new(sim::SessionBench::scatter_wide(seed, scale)),
        "multinode-comb" => Box::new(sim::SessionBench::multinode_comb(seed, scale)),
        "md-exec" => Box::new(sim::MdBench::new(seed, scale)),
        "serve-mix" => Box::new(serve::ServeBench::new(seed, scale)?),
        "figsuite-quick" => Box::new(suite::SuiteBench::new()?),
        other => return Err(format!("no such workload: {other}")),
    })
}

/// Set up repeatedly (see [`SETUPS_MIN`]), measure untraced for `budget`,
/// and with `trace` add the traced run; returns the run's record.
fn run_workload(
    name: &str,
    seed: u64,
    budget: Duration,
    trace: bool,
    scale: Scale,
) -> Result<Record, String> {
    let mut setup_s = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    let (min, max) = scale.pick((SETUPS_MIN, SETUPS_MAX), (1, 1));
    let mut spent = Duration::ZERO;
    while setup_s.len() < min || (spent < SETUP_BUDGET && setup_s.len() < max) {
        drop(bench.take());
        let (b, d) = timed(|| setup(name, seed, scale));
        bench = Some(b?);
        setup_s.push(d.as_secs_f64());
        spent += d;
    }
    let mut bench = bench.expect("at least one set-up ran");
    let window = bench.measure(budget);
    let mut rec = Record {
        workload: name.to_string(),
        seed,
        trace,
        attempted: window.attempted,
        failed: window.failed,
        sim_digest: window.digest.clone(),
        ops: window.op_ms.len() as u64,
        metrics: BTreeMap::new(),
    };
    print_window(&rec, &window.op_ms);

    if trace {
        let mut spans = Spans::new();
        let traced = catch_unwind(AssertUnwindSafe(|| {
            spans.span(name, |s| bench.traced(&window, s))
        }));
        let mut layers = window.layers.clone();
        match traced {
            Ok(Ok(l)) => layers.extend(l),
            Ok(Err(e)) => {
                eprintln!("traced run failed: {e}");
                rec.attempted += 1;
                rec.failed += 1;
            }
            Err(_) => {
                rec.attempted += 1;
                rec.failed += 1;
            }
        }
        write_trace(name, &spans)?;
        for m in &catalog().per_layer {
            rec.metrics
                .insert(m.name.clone(), layers.get(&m.name).unwrap_or(0.0));
        }
    } else {
        let e2e = [
            ("op_ms_p50", median(&window.op_ms)),
            ("ops_per_s", window.op_ms.len() as f64 / window.elapsed_s),
            ("peak_rss_mb", host::peak_rss_mib()),
            ("setup_s", median(&setup_s)),
        ];
        for (metric, value) in e2e {
            rec.metrics.insert(metric.to_string(), value);
        }
    }
    for (metric, value) in rec.metrics.iter_mut() {
        if !value.is_finite() {
            eprintln!("{metric} is not a finite number; reporting 0");
            *value = 0.0;
        }
    }
    print_metrics(&rec);
    Ok(rec)
}

fn print_window(rec: &Record, op_ms: &[f64]) {
    println!(
        "benchmark {}: seed {}, {} host cores, {} operations ({} attempted, {} failed)",
        rec.workload,
        rec.seed,
        host::cores(),
        op_ms.len(),
        rec.attempted,
        rec.failed
    );
    let (q1, q3) = quartiles(op_ms);
    let tail = tail_percentile(op_ms).map_or(String::new(), |(p, v)| format!(", p{p} {v:.3}"));
    println!(
        "  operation ms: median {:.3}, q1 {q1:.3}, q3 {q3:.3}{tail} (n={})",
        median(op_ms),
        op_ms.len()
    );
    println!("  sim_digest {}", rec.sim_digest);
}

fn print_metrics(rec: &Record) {
    for (name, value) in &rec.metrics {
        let unit = catalog().metric(name).map_or("", |m| m.unit.as_str());
        println!("  {name:<30} {value:>16.4} {unit}");
    }
}

/// Write the run's spans as a Chrome trace and print their self times.
fn write_trace(name: &str, spans: &Spans) -> Result<(), String> {
    let path = host::scratch_dir()?.join(format!("{name}.trace.json"));
    std::fs::write(&path, spans.chrome_json().to_string_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    println!(
        "  {:<24} {:>6} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (span, (n, total, own)) in spans.self_times() {
        println!(
            "  {span:<24} {n:>6} {:>12.3} {:>12.3}",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    Ok(())
}

/// Compare the digest with the one recorded for the default seed.
fn check_digest(rec: &Record) {
    let recorded = Json::parse(DIGESTS)
        .ok()
        .and_then(|d| d.get(&rec.workload)?.as_str().map(str::to_string));
    match recorded {
        Some(d) if d != rec.sim_digest => println!("MODEL CHANGED: {}", rec.workload),
        Some(_) => {}
        None => println!("  no recorded digest for {}", rec.workload),
    }
}

/// The machine-readable last line of a run.
fn result_line(rec: &Record) -> Json {
    let mut o = Json::obj();
    o.push("correct", Json::Bool(rec.failed == 0));
    o.push("attempted", Json::UInt(rec.attempted.max(1)));
    o.push("failed", Json::UInt(rec.failed));
    o.push("metrics", rec.metrics_json());
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(ms: &[catalog::Metric]) -> BTreeSet<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    /// The catalog and the emitted metrics stay in sync: a quick in-process
    /// run of each workload emits exactly the declared end-to-end metrics,
    /// and the traced runs together measure every declared per-layer
    /// metric (the figure suite's, which need the built binaries, are
    /// checked against its binary table instead).
    #[test]
    fn emitted_metrics_match_the_catalog() {
        let c = catalog();
        let mut measured: BTreeSet<String> =
            suite::BINARIES.iter().map(|(_, m)| m.to_string()).collect();
        for w in c.workloads.iter().filter(|w| *w != "figsuite-quick") {
            let rec = run_workload(w, 7, Duration::from_millis(50), false, Scale::Quick)
                .expect("quick run");
            assert_eq!(rec.failed, 0, "{w}");
            let emitted: BTreeSet<String> = rec.metrics.keys().cloned().collect();
            assert_eq!(emitted, names(&c.end_to_end), "{w}");
            let line = result_line(&rec);
            for m in &c.end_to_end {
                let got = line.get("metrics").and_then(|ms| ms.get(&m.name));
                let unit = got.and_then(|g| g.get("unit")).and_then(Json::as_str);
                assert_eq!(unit, Some(m.unit.as_str()), "{w} {}", m.name);
            }

            let mut b = setup(w, 7, Scale::Quick).expect("quick setup");
            let window = b.measure(Duration::from_millis(50));
            let mut layers = window.layers.clone();
            layers.extend(b.traced(&window, &mut Spans::new()).expect("traced"));
            measured.extend(layers.names().map(str::to_string));
        }
        assert_eq!(measured, names(&c.per_layer));
    }

    #[test]
    fn every_catalog_workload_has_a_setup() {
        for w in &catalog().workloads {
            if let Err(e) = setup(w, 1, Scale::Quick) {
                assert!(!e.contains("no such workload"), "{e}");
            }
        }
    }

    #[test]
    fn recorded_digests_name_catalog_workloads() {
        let doc = Json::parse(DIGESTS).expect("digests.json parses");
        for (w, d) in doc.as_obj().expect("an object") {
            assert!(catalog().workloads.contains(w), "{w}");
            assert_eq!(d.as_str().map(str::len), Some(64), "{w}");
        }
    }
}
