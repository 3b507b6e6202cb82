//! The metric catalog: `BENCHMARK.json` at the repository root, compiled
//! in so the benchmark, `compare`, and the tests all read one definition.

use sa_telemetry::Json;

use crate::stats::{valid_name, valid_unit};

/// `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (rates, speed-ups).
    Higher,
}

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, unique within the catalog.
    pub name: String,
    /// Unit the value is reported in.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (`None` for per-layer).
    pub bound: Option<f64>,
}

impl Metric {
    /// Whether the run-to-run spread is held to the bound. Set-up time is
    /// judged by its median alone: a millisecond set-up is at the mercy of
    /// the scheduler run to run.
    pub fn spread_bounded(&self) -> bool {
        self.name != "setup_s"
    }
}

/// The parsed catalog.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Metrics reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics reported by traced runs.
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    /// The compiled-in catalog.
    ///
    /// # Panics
    ///
    /// Panics if `BENCHMARK.json` is malformed; the catalog test keeps it
    /// valid, so this only fires on a broken edit.
    pub fn load() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is a valid catalog")
    }

    /// Parse and validate a catalog document.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("missing 'run_seconds'")?;
        let end_to_end = metrics(&doc, "end_to_end", true)?;
        let per_layer = metrics(&doc, "per_layer", false)?;
        let mut names: Vec<&str> = workloads
            .iter()
            .map(String::as_str)
            .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))
            .collect();
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("invalid name {bad:?}"));
        }
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name {:?} is used twice", w[0]));
        }
        match end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == Better::Lower => {}
            _ => return Err("end_to_end must declare setup_s in s, lower is better".into()),
        }
        Ok(Catalog {
            workloads,
            run_seconds,
            end_to_end,
            per_layer,
        })
    }

    /// The declared metric called `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(doc: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{key}'"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key}: metric without '{f}'"))
            };
            let name = field("name")?.to_string();
            let unit = field("unit")?.to_string();
            if !valid_unit(&unit) {
                return Err(format!("{name}: invalid unit {unit:?}"));
            }
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{name}: 'better' is {other:?}")),
            };
            let bound = if bounded {
                let b = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: missing bound"))?;
                if !(b > 0.0 && b <= 0.25) {
                    return Err(format!("{name}: bound {b} outside (0, 0.25]"));
                }
                Some(b)
            } else {
                None
            };
            Ok(Metric {
                name,
                unit,
                better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_catalog_is_valid() {
        let c = Catalog::load();
        assert_eq!(c.workloads.len(), 6);
        assert!(c.per_layer.len() <= 128);
        assert!((1..=60).contains(&c.run_seconds));
    }

    /// The unit a metric's name promises: the code computes values in the
    /// unit its name spells (`_us`, `_ms_p50`, `_ns_per_cycle`, ...), so a
    /// catalog unit that disagrees would mislabel every reported number.
    fn unit_named_by(name: &str) -> &'static str {
        if name.contains("ns_per_") {
            return "ns/cycle";
        }
        if name.contains("_ms_p") {
            return "ms";
        }
        let suffixes = [
            ("_per_s", "1/s"),
            ("_us", "us"),
            ("_ms", "ms"),
            ("_s", "s"),
            ("_ratio", "ratio"),
            ("_share", "ratio"),
            ("_speedup", "x"),
            ("_pct", "%"),
            ("_mb", "MiB"),
        ];
        suffixes
            .iter()
            .find(|(suffix, _)| name.ends_with(suffix))
            .map_or("count", |&(_, unit)| unit)
    }

    #[test]
    fn units_agree_with_metric_names() {
        let c = Catalog::load();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert_eq!(m.unit, unit_named_by(&m.name), "{}", m.name);
        }
    }

    #[test]
    fn malformed_catalogs_are_refused() {
        let good = BENCHMARK_JSON;
        let dup = good.replacen("\"ops_per_s\"", "\"op_ms_p50\"", 1);
        assert!(Catalog::parse(&dup).unwrap_err().contains("twice"));
        let no_setup = good.replacen("\"setup_s\"", "\"setup_ms\"", 1);
        assert!(Catalog::parse(&no_setup).unwrap_err().contains("setup_s"));
        let loose = good.replacen("\"bound\": 0.25", "\"bound\": 0.5", 1);
        assert!(Catalog::parse(&loose).unwrap_err().contains("bound"));
        let bad_name = good.replacen("\"combine-hot\"", "\"combine hot\"", 1);
        assert!(Catalog::parse(&bad_name)
            .unwrap_err()
            .contains("invalid name"));
    }
}
