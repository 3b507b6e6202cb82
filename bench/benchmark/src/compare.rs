//! Run sets: `benchmark suite` runs every workload several times (each run
//! in its own process) and writes the records; `benchmark compare` checks
//! one set against another with the catalog's bounds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use sa_telemetry::Json;

use crate::bench::catalog;
use crate::catalog::{Better, Metric};
use crate::host;
use crate::stats::{median, quartiles, spread};

/// One run of one workload, as `--out` writes it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was a traced run (per-layer metrics).
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Digest of the deterministic outputs.
    pub sim_digest: String,
    /// Operations measured.
    pub ops: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// The metrics as `{name: {"value", "unit"}}`, units from the catalog.
    pub fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, &value) in &self.metrics {
            let unit = catalog().metric(name).map_or("", |m| m.unit.as_str());
            let mut m = Json::obj();
            m.push("value", Json::Num(value));
            m.push("unit", Json::Str(unit.to_string()));
            metrics.push(name, m);
        }
        metrics
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("workload", Json::Str(self.workload.clone()));
        o.push("seed", Json::UInt(self.seed));
        o.push("trace", Json::Bool(self.trace));
        o.push("host_cores", Json::UInt(host::cores() as u64));
        o.push("attempted", Json::UInt(self.attempted));
        o.push("failed", Json::UInt(self.failed));
        o.push("ops", Json::UInt(self.ops));
        o.push("sim_digest", Json::Str(self.sim_digest.clone()));
        o.push("metrics", self.metrics_json());
        o
    }

    /// Read a record written by [`Record::to_json`].
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record without '{k}'"))
        };
        let u64_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record without '{k}'"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without 'metrics'")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} without a value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload: str_field("workload")?,
            seed: u64_field("seed")?,
            trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
            attempted: u64_field("attempted")?,
            failed: u64_field("failed")?,
            sim_digest: str_field("sim_digest")?,
            ops: u64_field("ops")?,
            metrics,
        })
    }
}

fn usage() -> String {
    "usage: benchmark suite --out FILE [--runs N] [--seed N] [--seconds S] [--workload NAME]... [--traced]\n       benchmark compare A.json[#N] B.json[#N]".to_string()
}

/// `benchmark suite`: run each workload `--runs` times with consecutive
/// seeds (plus one traced run with `--traced`), each run in a child
/// process, and write the set.
pub fn suite_main(args: &[String]) -> Result<ExitCode, String> {
    let mut out: Option<PathBuf> = None;
    let (mut runs, mut seed, mut seconds) = (10u64, 1u64, catalog().run_seconds);
    let (mut workloads, mut traced) = (Vec::new(), false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(usage);
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value()?)),
            "--runs" => runs = value()?.parse().map_err(|_| usage())?,
            "--seed" => seed = value()?.parse().map_err(|_| usage())?,
            "--seconds" => seconds = value()?.parse().map_err(|_| usage())?,
            "--workload" => workloads.push(value()?),
            "--traced" => traced = true,
            _ => return Err(usage()),
        }
    }
    let out = out.ok_or_else(usage)?;
    if workloads.is_empty() {
        workloads = catalog().workloads.clone();
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = host::scratch_dir()?.join(format!("run-{}.json", std::process::id()));
    let mut records = Vec::new();
    for w in &workloads {
        let plan = (0..runs)
            .map(|i| (seed + i, false))
            .chain(traced.then_some((seed, true)));
        for (s, trace) in plan {
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&tmp)
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{w} seed {s}: benchmark exited with {status}"));
            }
            let rec = read_json(&tmp).and_then(|d| Record::from_json(&d))?;
            eprintln!(
                "{w:<15} seed {s:<4} {}  {}",
                if trace { "traced  " } else { "untraced" },
                summary(&rec)
            );
            records.push(rec);
        }
    }
    let _ = std::fs::remove_file(&tmp);
    let mut doc = Json::obj();
    doc.push("schema", Json::Str("sa-benchmark-runs".into()));
    doc.push("git_rev", Json::Str(host::git_rev()));
    doc.push("host_cores", Json::UInt(host::cores() as u64));
    doc.push("seed", Json::UInt(seed));
    doc.push("seconds", Json::UInt(seconds));
    doc.push(
        "runs",
        Json::Arr(records.iter().map(Record::to_json).collect()),
    );
    std::fs::write(&out, doc.to_string_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    print_spreads(&records);
    Ok(ExitCode::SUCCESS)
}

fn summary(rec: &Record) -> String {
    let shown: Vec<String> = catalog()
        .end_to_end
        .iter()
        .filter_map(|m| Some(format!("{} {:.4}", m.name, rec.metrics.get(&m.name)?)))
        .collect();
    format!(
        "failed {}/{}  {}",
        rec.failed,
        rec.attempted,
        shown.join("  ")
    )
}

/// Untraced values of `metric` on `workload`.
fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The run-to-run spread of every end-to-end metric against its bound,
/// flagged `wide` at a third of the bound or more (set-up time exempt).
fn print_spreads(records: &[Record]) {
    println!(
        "{:<15} {:<12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    for w in &catalog().workloads {
        for m in &catalog().end_to_end {
            let v = values(records, w, &m.name);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&v);
            let bound = m.bound.unwrap_or(0.0);
            let s = spread(&v);
            let flag = if s * 3.0 < bound || !m.spread_bounded() {
                ""
            } else {
                "  wide"
            };
            println!(
                "{w:<15} {:<12} {:>3} {q1:>12.4} {:>12.4} {q3:>12.4} {:>7.2}% {:>5.0}%{flag}",
                m.name,
                v.len(),
                median(&v),
                s * 100.0,
                bound * 100.0
            );
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load a run set: `FILE` holding one set, or `FILE#N` for the `N`th of a
/// baseline file's `sets`.
fn load_set(arg: &str) -> Result<Vec<Record>, String> {
    let (path, index) = match arg.rsplit_once('#') {
        Some((p, i)) => (p, Some(i.parse::<usize>().map_err(|_| usage())?)),
        None => (arg, None),
    };
    let doc = read_json(Path::new(path))?;
    let set = match (doc.get("sets").and_then(Json::as_arr), index) {
        (Some(sets), Some(i)) => sets.get(i).ok_or(format!("{path} has no set #{i}"))?,
        (Some(_), None) => return Err(format!("{path} holds several sets; name one as {path}#N")),
        (None, _) => &doc,
    };
    set.get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{arg}: no 'runs'"))?
        .iter()
        .map(Record::from_json)
        .collect()
}

/// How one metric moved from set A to set B.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Every B run beat every A run.
    Improved,
    /// Within the bound, and both spreads within it.
    Unchanged,
    /// A spread is wider than the bound, so no change can be ruled out.
    Unresolved,
    /// The B median is worse than A's by more than the bound.
    Regressed,
}

fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = match m.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if all_better {
        Verdict::Improved
    } else if m.spread_bounded() && (spread(a) > bound || spread(b) > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// `benchmark compare A B`: one row per workload and end-to-end metric,
/// per-layer deltas of the traced runs, and model-change notices. Exits 1
/// on any regression, including a higher error rate.
pub fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let (a, b) = (load_set(a)?, load_set(b)?);
    let mut regressed = false;
    println!(
        "{:<15} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for w in &catalog().workloads {
        for m in &catalog().end_to_end {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(m, &va, &vb);
            regressed |= v == Verdict::Regressed;
            println!(
                "{w:<15} {:<12} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}%  {v:?}",
                m.name,
                median(&va),
                median(&vb),
                (median(&vb) / median(&va) - 1.0) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
        let errors = |set: &[Record]| {
            let runs = set.iter().filter(|r| r.workload == *w);
            let (f, n) = runs.fold((0, 0), |(f, n), r| (f + r.failed, n + r.attempted));
            f as f64 / n.max(1) as f64
        };
        let (ea, eb) = (errors(&a), errors(&b));
        if eb > ea {
            regressed = true;
            println!("{w:<15} error_rate   {ea:>12.6} {eb:>12.6}  Regressed");
        }
        for ra in a.iter().filter(|r| r.workload == *w && !r.trace) {
            let same_seed = b
                .iter()
                .find(|rb| rb.workload == *w && !rb.trace && rb.seed == ra.seed);
            if same_seed.is_some_and(|rb| rb.sim_digest != ra.sim_digest) {
                println!("MODEL CHANGED: {w} (seed {})", ra.seed);
            }
        }
    }
    print_layer_deltas(&a, &b);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Per-layer medians of the traced runs, A against B.
fn print_layer_deltas(a: &[Record], b: &[Record]) {
    let traced = |set: &[Record], w: &str, name: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w && r.trace)
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    };
    println!("\nper-layer (traced runs; no bounds):");
    for w in &catalog().workloads {
        for m in &catalog().per_layer {
            let (va, vb) = (traced(a, w, &m.name), traced(b, w, &m.name));
            if va.is_empty() || vb.is_empty() || (median(&va) == 0.0 && median(&vb) == 0.0) {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let delta = if ma == 0.0 {
                String::from("n/a")
            } else {
                format!("{:+.1}%", (mb / ma - 1.0) * 100.0)
            };
            println!(
                "{w:<15} {:<28} {ma:>14.4} {mb:>14.4} {delta:>9} {}",
                m.name, m.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bounds_and_spreads() {
        let lower = metric(Better::Lower);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&lower, &a, &[102.0, 101.0, 103.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&lower, &a, &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, &a, &[80.0, 81.0, 79.0]), Verdict::Improved);
        // A wide spread leaves a change within reach unresolved, except for
        // set-up time, which is judged by its median alone.
        assert_eq!(
            verdict(&lower, &a, &[70.0, 100.0, 140.0]),
            Verdict::Unresolved
        );
        let setup = Metric {
            name: "setup_s".into(),
            ..metric(Better::Lower)
        };
        assert_eq!(
            verdict(&setup, &a, &[70.0, 100.0, 140.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&setup, &a, &[70.0, 130.0, 140.0]),
            Verdict::Regressed
        );
        let higher = metric(Better::Higher);
        assert_eq!(
            verdict(&higher, &a, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, &a, &[120.0, 121.0, 119.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn records_round_trip() {
        let rec = Record {
            workload: "combine-hot".into(),
            seed: 3,
            trace: false,
            attempted: 12,
            failed: 0,
            sim_digest: "ab".into(),
            ops: 12,
            metrics: [
                ("op_ms_p50".to_string(), 512.25),
                ("setup_s".to_string(), 0.0125),
            ]
            .into_iter()
            .collect(),
        };
        let text = rec.to_json().to_string_compact();
        assert_eq!(
            Record::from_json(&Json::parse(&text).unwrap()).unwrap(),
            rec
        );
    }
}
