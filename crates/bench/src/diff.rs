//! The perf-regression gate behind `analyze --diff <baseline> <candidate>`.
//!
//! Two sa-stats documents are compared on their timing-relevant content:
//!
//! * every `metrics` counter whose path ends in `.cycles` or
//!   `.drain_cycles` (the per-kernel run lengths);
//! * every per-stage and end-to-end latency percentile (`p50`, `p90`,
//!   `p99`, `max`) of every kernel in the v2 `latency` section.
//!
//! A metric regresses when the candidate exceeds the baseline by more than a
//! relative threshold *and* a small absolute slack (so a 3→4-cycle p50 on a
//! tiny stage does not trip the gate). A compared metric missing from the
//! candidate is itself a regression: silently dropping instrumentation must
//! not pass the gate. The simulator is deterministic, so in CI — same
//! machine configuration, same seed — an honest candidate reproduces the
//! committed baseline exactly and the thresholds only absorb intentional,
//! reviewed drift.

use sa_telemetry::Json;

/// Gate thresholds; [`DiffConfig::default`] matches the CI perf gate.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DiffConfig {
    /// Maximum tolerated relative increase (0.05 = +5%).
    pub threshold: f64,
    /// Increases of at most this many cycles never regress, whatever the
    /// ratio says.
    pub min_abs: f64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            threshold: 0.05,
            min_abs: 4.0,
        }
    }
}

/// One metric that got worse (or disappeared).
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Dotted path of the offending metric, e.g.
    /// `latency.ebe_hw.stages.fu_pipe.p99`.
    pub metric: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value (`None` when the metric vanished).
    pub cand: Option<f64>,
}

impl Regression {
    /// Absolute increase over the baseline (`None` when the metric
    /// vanished).
    pub fn abs_delta(&self) -> Option<f64> {
        self.cand.map(|c| c - self.base)
    }

    /// Relative increase over the baseline (`None` when the metric
    /// vanished); 0.22 = +22%.
    pub fn rel_delta(&self) -> Option<f64> {
        self.cand.map(|c| c / self.base.max(1e-12) - 1.0)
    }

    /// The metric's scope: the dotted path with the final key removed
    /// (`latency.ebe_hw.stages.fu_pipe.p99` → `latency.ebe_hw.stages.fu_pipe`).
    pub fn scope(&self) -> &str {
        self.metric
            .rsplit_once('.')
            .map_or(self.metric.as_str(), |(scope, _)| scope)
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cand {
            Some(c) => write!(
                f,
                "{}: {} -> {} (+{}, +{:.1}%)",
                self.metric,
                self.base,
                c,
                c - self.base,
                (c / self.base.max(1e-12) - 1.0) * 100.0
            ),
            None => write!(f, "{}: {} -> missing in candidate", self.metric, self.base),
        }
    }
}

/// The timing-relevant scalar metrics of a document, as dotted paths.
fn timing_metrics(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (path, value) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let timed = path.ends_with(".cycles") || path.ends_with(".drain_cycles");
        if timed {
            if let Some(v) = value.as_f64() {
                out.push((format!("metrics.{path}"), v));
            }
        }
    }
    for (kernel, report) in doc.get("latency").and_then(Json::as_obj).unwrap_or(&[]) {
        let summaries = report
            .get("stages")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(stage, s)| (format!("stages.{stage}"), s))
            .chain(
                report
                    .get("end_to_end")
                    .map(|s| ("end_to_end".to_owned(), s)),
            );
        for (name, summary) in summaries {
            for field in ["p50", "p90", "p99", "max"] {
                if let Some(v) = summary.get(field).and_then(Json::as_f64) {
                    out.push((format!("latency.{kernel}.{name}.{field}"), v));
                }
            }
        }
    }
    out
}

/// Compare two parsed stats documents; returns every regression, worst
/// relative increase first. An empty vector means the candidate passes.
///
/// # Errors
///
/// Returns a message when the documents are not comparable: different
/// `bench` names or different machine `config` blocks.
pub fn diff_stats(base: &Json, cand: &Json, cfg: &DiffConfig) -> Result<Vec<Regression>, String> {
    let bench_of = |doc: &Json, which: &str| {
        doc.get("bench")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{which} document has no 'bench'"))
    };
    let b = bench_of(base, "baseline")?;
    let c = bench_of(cand, "candidate")?;
    if b != c {
        return Err(format!("comparing different benches: '{b}' vs '{c}'"));
    }
    if base.get("config") != cand.get("config") {
        return Err("machine config blocks differ; re-baseline instead of diffing".to_owned());
    }
    let cand_metrics = timing_metrics(cand);
    let mut regressions = Vec::new();
    for (metric, base_v) in timing_metrics(base) {
        let cand_v = cand_metrics
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|&(_, v)| v);
        let worse = match cand_v {
            None => true,
            Some(v) => v > base_v * (1.0 + cfg.threshold) && v - base_v > cfg.min_abs,
        };
        if worse {
            regressions.push(Regression {
                metric,
                base: base_v,
                cand: cand_v,
            });
        }
    }
    regressions.sort_by(|a, b| {
        let ratio = |r: &Regression| match r.cand {
            None => f64::INFINITY,
            Some(c) => c / r.base.max(1e-12),
        };
        ratio(b).total_cmp(&ratio(a))
    });
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(p99: u64, cycles: u64) -> Json {
        Json::parse(&format!(
            r#"{{
                "schema": "sa-stats", "version": 5, "bench": "fig9",
                "config": {{"ghz": 1.0}},
                "metrics": {{"ebe_hw.cycles": {cycles}, "ebe_hw.flops": 99}},
                "latency": {{"ebe_hw": {{
                    "sample": 64, "issued": 10, "retired": 10,
                    "stages": {{"fu_pipe": {{"count": 10, "total": 640,
                        "p50": 50, "p90": 80, "p99": {p99}, "max": 120}}}}
                }}}},
                "rows": []
            }}"#
        ))
        .expect("literal parses")
    }

    #[test]
    fn self_diff_is_clean() {
        let d = doc(100, 10_000);
        assert_eq!(diff_stats(&d, &d, &DiffConfig::default()).unwrap(), vec![]);
    }

    #[test]
    fn p99_growth_names_the_metric() {
        let r = diff_stats(&doc(100, 10_000), &doc(120, 10_000), &DiffConfig::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].metric, "latency.ebe_hw.stages.fu_pipe.p99");
        assert_eq!(r[0].cand, Some(120.0));
    }

    #[test]
    fn small_absolute_jitter_is_tolerated() {
        // +3 cycles is +30% relative but under the absolute slack.
        let r = diff_stats(&doc(10, 10_000), &doc(13, 10_000), &DiffConfig::default()).unwrap();
        assert_eq!(r, vec![]);
    }

    #[test]
    fn cycle_counters_are_gated() {
        let r = diff_stats(&doc(100, 10_000), &doc(100, 11_000), &DiffConfig::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].metric, "metrics.ebe_hw.cycles");
        // Non-timing counters (flops) are never compared.
    }

    #[test]
    fn every_regression_reports_absolute_and_relative_deltas() {
        // Two independent regressions: the p99 and the cycle counter. Both
        // must be listed, each with its absolute and relative delta, so CI
        // perf-gate logs are actionable without re-running the bench.
        let r = diff_stats(&doc(100, 10_000), &doc(150, 12_000), &DiffConfig::default()).unwrap();
        assert_eq!(r.len(), 2);
        let lines: Vec<String> = r.iter().map(ToString::to_string).collect();
        assert!(lines
            .iter()
            .any(|l| l == "latency.ebe_hw.stages.fu_pipe.p99: 100 -> 150 (+50, +50.0%)"));
        assert!(lines
            .iter()
            .any(|l| l == "metrics.ebe_hw.cycles: 10000 -> 12000 (+2000, +20.0%)"));
        // The worst relative increase sorts first.
        assert_eq!(r[0].metric, "latency.ebe_hw.stages.fu_pipe.p99");
        assert_eq!(r[0].abs_delta(), Some(50.0));
        assert_eq!(r[1].rel_delta().map(|d| (d * 100.0).round()), Some(20.0));
        assert_eq!(r[0].scope(), "latency.ebe_hw.stages.fu_pipe");
    }

    #[test]
    fn vanished_metric_regresses() {
        let mut cand = doc(100, 10_000);
        if let Json::Obj(pairs) = &mut cand {
            pairs.retain(|(k, _)| k != "latency");
        }
        let r = diff_stats(&doc(100, 10_000), &cand, &DiffConfig::default()).unwrap();
        assert!(r
            .iter()
            .any(|x| x.metric.starts_with("latency.") && x.cand.is_none()));
    }

    #[test]
    fn different_benches_do_not_compare() {
        let mut other = doc(100, 10_000);
        if let Json::Obj(pairs) = &mut other {
            for (k, v) in pairs.iter_mut() {
                if k == "bench" {
                    *v = Json::Str("fig10".into());
                }
            }
        }
        assert!(diff_stats(&doc(100, 10_000), &other, &DiffConfig::default()).is_err());
    }
}
