//! Bottleneck attribution: occupancy accounting, bound classification, and
//! analytic what-if speedup modeling.
//!
//! Three pieces:
//!
//! * [`OccupancyStats`] — a per-resource busy/blocked/idle/saturated cycle
//!   account shared by every arbitrated component (scatter-add units, cache
//!   banks, DRAM channels, the crossbar). The tick path and the fast-forward
//!   skip path feed the same counters through the same classification
//!   predicate, so totals are byte-identical with skipping on or off.
//! * shared name tables ([`STAGE_NAMES`], [`STALL_CAUSES`]) — the single
//!   source of truth for request-stage and stall-cause names used by the
//!   stats writer, the attribution tables, and `analyze`.
//! * the attribution engine ([`bottleneck_json`]) — reduces a stats
//!   document's occupancy counters, stage-latency shares, and stall tables
//!   to a per-run `bottleneck` section: a dominant-resource classification
//!   with utilization evidence, a critical-path stage breakdown, and an
//!   Amdahl what-if table of analytic speedup upper bounds.
//!
//! The what-if model is deliberately simple: scaling a resource by `k` can
//! remove at most its serial share `s` of the critical path, so
//! `speedup ≤ 1 / (1 - s·(1 - 1/k))`. It is an *upper bound*, not a
//! prediction of the realized speedup — contention can shift to another
//! resource well before the bound is reached. The root package's
//! `whatif_predictions_bound_measured_speedups` test measures the realized
//! speedup against this bound.

use crate::{Counters, Json, Scope};

// ---------------------------------------------------------------------------
// Occupancy accounting
// ---------------------------------------------------------------------------

/// What a resource did during one cycle (or one fast-forward window).
///
/// Ordered so that a provisional classification can only be *upgraded*
/// (`Idle < Blocked < Busy`) as more happens within the cycle.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OccClass {
    /// Nothing resident and nothing served.
    Idle,
    /// Work outstanding (waiting on another resource) but no progress made.
    Blocked,
    /// Useful work performed this cycle.
    Busy,
}

/// Busy/blocked/idle/saturated cycle account for one arbitrated resource.
///
/// Invariant: `busy + blocked + idle` equals the cycles the resource has
/// been accounted over ([`elapsed`](OccupancyStats::elapsed)), whether those
/// cycles were ticked one at a time ([`cycle`](OccupancyStats::cycle)) or
/// folded in bulk by a fast-forward skip ([`skip`](OccupancyStats::skip)).
/// `saturated` counts cycles the resource was at admission capacity
/// (rejecting new work), independent of the busy/blocked/idle class.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OccupancyStats {
    /// Cycles the resource performed useful work.
    pub busy: u64,
    /// Cycles with work outstanding but no progress (waiting on another
    /// resource or on a fixed latency).
    pub blocked: u64,
    /// Cycles with nothing resident.
    pub idle: u64,
    /// Cycles at admission capacity (would reject new work).
    pub saturated: u64,
}

impl OccupancyStats {
    /// Account one ticked cycle.
    pub fn cycle(&mut self, class: OccClass, at_capacity: bool) {
        self.skip(1, class, at_capacity);
    }

    /// Account `n` fast-forwarded cycles in one fold. The caller guarantees
    /// the resource's state is frozen across the window, so a single
    /// classification covers every cycle in it.
    pub fn skip(&mut self, n: u64, class: OccClass, at_capacity: bool) {
        match class {
            OccClass::Busy => self.busy += n,
            OccClass::Blocked => self.blocked += n,
            OccClass::Idle => self.idle += n,
        }
        if at_capacity {
            self.saturated += n;
        }
    }

    /// Total cycles accounted (`busy + blocked + idle`).
    pub fn elapsed(&self) -> u64 {
        self.busy + self.blocked + self.idle
    }

    /// Record the counters into a telemetry scope as `occ_busy`,
    /// `occ_blocked`, `occ_idle`, `occ_saturated`.
    pub fn record(&self, scope: &mut Scope<'_>) {
        let mut c = *self;
        for (name, v) in c.counters_mut() {
            scope.counter(&format!("occ_{name}"), *v);
        }
    }
}

impl Counters for OccupancyStats {
    fn counters_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        vec![
            ("busy", &mut self.busy),
            ("blocked", &mut self.blocked),
            ("idle", &mut self.idle),
            ("saturated", &mut self.saturated),
        ]
    }
}

// ---------------------------------------------------------------------------
// Shared name tables
// ---------------------------------------------------------------------------

/// Stable snake_case names of the request lifecycle stages, indexed by
/// [`ReqStage`](crate::ReqStage) discriminant (pipeline order). The single
/// source of truth for stage names in stats documents, trace spans, and the
/// `analyze` renderer.
pub const STAGE_NAMES: [&str; 9] = [
    "issued",
    "enqueued",
    "crossbar",
    "bank_arb",
    "mshr",
    "comb_store",
    "fu_pipe",
    "dram",
    "retired",
];

/// One stall cause: the stats-document key and the human-readable label.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StallCause {
    /// Key used in `attribution.<kernel>.<key>` stats sections.
    pub key: &'static str,
    /// Label used by `Display` renderings and `analyze` tables.
    pub label: &'static str,
}

/// The stall causes tracked by attribution tables, in emission order. The
/// single source of truth shared by the stats writer (`StallBreakdown` in
/// `sa-core`) and the `analyze` renderer.
pub const STALL_CAUSES: [StallCause; 4] = [
    StallCause {
        key: "mshr_full",
        label: "MSHR full",
    },
    StallCause {
        key: "bank_conflict",
        label: "bank conflict",
    },
    StallCause {
        key: "cs_full",
        label: "combining-store full",
    },
    StallCause {
        key: "net_credit",
        label: "network credit",
    },
];

/// The bound taxonomy: every value the `bound` field of a bottleneck report
/// can take.
pub const BOUND_KINDS: [&str; 7] = [
    "compute",
    "comb_store",
    "mshr",
    "cache_bank",
    "dram_bandwidth",
    "crossbar",
    "latency",
];

// ---------------------------------------------------------------------------
// Attribution engine
// ---------------------------------------------------------------------------

/// A resource's busy fraction must reach this for a busy-based bound claim.
const BUSY_BOUND_THRESHOLD: f64 = 0.40;

/// A resource's saturated fraction must reach this for a capacity-based
/// bound claim (combining store / MSHR file full). Capacity claims also
/// require [`BUSY_BOUND_THRESHOLD`] busy-dominance: a structure full of
/// entries parked on outstanding memory is a symptom, not the limiter.
const SATURATION_BOUND_THRESHOLD: f64 = 0.25;

/// Per-resource occupancy aggregate harvested from a metrics object.
struct ResAgg {
    name: &'static str,
    busy: u64,
    blocked: u64,
    idle: u64,
    saturated: u64,
    instances: u64,
    queue_enqueued: u64,
    queue_rejected: u64,
}

impl ResAgg {
    fn elapsed(&self) -> u64 {
        self.busy + self.blocked + self.idle
    }

    fn busy_frac(&self) -> f64 {
        frac(self.busy, self.elapsed())
    }

    fn saturated_frac(&self) -> f64 {
        frac(self.saturated, self.elapsed())
    }
}

fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Round to 2 decimals (percentages in the report).
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Round to 4 decimals (speedup factors in the report).
fn round4(x: f64) -> f64 {
    (x * 10000.0).round() / 10000.0
}

fn metric_u64(metrics: &[(String, Json)], key: &str) -> Option<u64> {
    metrics
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
}

/// Sum every metric under `prefix.` whose path ends with `suffix`.
fn sum_suffix(metrics: &[(String, Json)], prefix: &str, suffix: &str) -> u64 {
    let head = format!("{prefix}.");
    metrics
        .iter()
        .filter(|(k, _)| k.starts_with(&head) && k.ends_with(suffix))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

/// Count per-instance occupancy keys under `prefix.` containing `marker`.
fn count_instances(metrics: &[(String, Json)], prefix: &str, marker: &str) -> u64 {
    let head = format!("{prefix}.");
    metrics
        .iter()
        .filter(|(k, _)| k.starts_with(&head) && k.ends_with(".occ_busy") && k.contains(marker))
        .count() as u64
}

/// Whether a scope path segment is a per-node sub-scope (`node<digits>`).
fn is_node_segment(seg: &str) -> bool {
    seg.strip_prefix("node")
        .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

/// The report prefix for a scope that recorded `*.sa.occ_busy`: multi-node
/// documents record per-node stats under `<run>.node<i>`, which group into
/// one report for `<run>`.
fn report_prefix(member: &str) -> &str {
    match member.rsplit_once('.') {
        Some((parent, seg)) if is_node_segment(seg) => parent,
        _ => member,
    }
}

/// Derive the `bottleneck` section from an assembled stats document.
///
/// Scans `metrics` for occupancy counters (`<scope>.sa.occ_busy` with a
/// sibling `<scope>.cycles`, where `<scope>` may have per-node sub-scopes),
/// and produces one report per run scope, keyed by scope name — the same
/// keying as the `latency` and `attribution` sections, which are folded in
/// when present. Returns `None` if the document has no occupancy counters
/// (pre-v5 documents, or components built without accounting).
pub fn bottleneck_json(doc: &Json) -> Option<Json> {
    let metrics = doc.get("metrics").and_then(Json::as_obj)?;
    // Group occupancy-bearing scopes into report prefixes. `metrics` is
    // sorted by path, so discovery order (and the section's key order) is
    // deterministic.
    let mut groups: Vec<String> = Vec::new();
    for (key, _) in metrics {
        if let Some(member) = key.strip_suffix(".sa.occ_busy") {
            let rp = report_prefix(member);
            if metric_u64(metrics, &format!("{rp}.cycles")).is_some()
                && !groups.iter().any(|g| g == rp)
            {
                groups.push(rp.to_string());
            }
        }
    }
    if groups.is_empty() {
        return None;
    }
    let mut out = Json::obj();
    for rp in &groups {
        out.push(
            rp,
            report_for(metrics, rp, doc.get("latency"), doc.get("attribution")),
        );
    }
    Some(out)
}

/// Build one run scope's bottleneck report.
fn report_for(
    metrics: &[(String, Json)],
    rp: &str,
    latency: Option<&Json>,
    attribution: Option<&Json>,
) -> Json {
    // --- resource occupancy aggregates -------------------------------------
    // (resource name, occupancy scope suffix, per-instance scope marker,
    //  queue suffix prefix for pressure counters)
    const FAMILIES: [(&str, &str, &str, Option<&str>); 4] = [
        ("comb_store", "sa", ".sa.unit", None),
        ("cache_bank", "cache", ".cache.bank", Some(".queue.bank_in")),
        ("dram", "dram", ".dram.chan", Some(".queue.dram.chan")),
        ("net", "net", "", None),
    ];
    let mut aggs: Vec<ResAgg> = Vec::new();
    for (name, fam, marker, queue) in FAMILIES {
        let read = |field: &str| sum_suffix(metrics, rp, &format!(".{fam}.{field}"));
        let busy = read("occ_busy");
        let blocked = read("occ_blocked");
        let idle = read("occ_idle");
        if busy + blocked + idle == 0 {
            continue; // resource absent from this document (e.g. no crossbar)
        }
        let per_instance = if marker.is_empty() {
            0
        } else {
            count_instances(metrics, rp, marker)
        };
        // Multi-node documents only carry per-node merged counters; count at
        // least one instance per occupancy-bearing scope.
        let scopes = metrics
            .iter()
            .filter(|(k, _)| {
                k.starts_with(&format!("{rp}.")) && k.ends_with(&format!(".{fam}.occ_busy"))
            })
            .count() as u64;
        let (queue_enqueued, queue_rejected) = match queue {
            Some(".queue.bank_in") => (
                // Exact node-level merged counters; per-bank sub-scopes would
                // double-count.
                sum_suffix(metrics, rp, ".queue.bank_in.enqueued"),
                sum_suffix(metrics, rp, ".queue.bank_in.rejected"),
            ),
            Some(_) => (
                sum_dram_queue(metrics, rp, "enqueued"),
                sum_dram_queue(metrics, rp, "rejected"),
            ),
            None => (0, 0),
        };
        aggs.push(ResAgg {
            name,
            busy,
            blocked,
            idle,
            saturated: read("occ_saturated"),
            instances: per_instance.max(scopes).max(1),
            queue_enqueued,
            queue_rejected,
        });
    }

    // --- stage shares (critical-path breakdown) ----------------------------
    let mut stages = Json::obj();
    let mut stage_shares: Vec<(String, f64)> = Vec::new();
    if let Some(st) = latency
        .and_then(|l| l.get(rp))
        .and_then(|l| l.get("stages"))
        .and_then(Json::as_obj)
    {
        for (name, s) in st {
            if let Some(p) = s.get("share_pct").and_then(Json::as_f64) {
                let mut e = Json::obj();
                e.push("share_pct", Json::Num(round2(p)));
                if let Some(t) = s.get("total").and_then(Json::as_u64) {
                    e.push("total", Json::UInt(t));
                }
                stages.push(name, e);
                stage_shares.push((name.clone(), p));
            }
        }
    }
    let share = |stage: &str| {
        stage_shares
            .iter()
            .find(|(n, _)| n == stage)
            .map_or(0.0, |&(_, p)| p)
    };

    // --- bound classification ----------------------------------------------
    let agg = |name: &str| aggs.iter().find(|a| a.name == name);
    let sat = |name: &str| agg(name).map_or(0.0, ResAgg::saturated_frac);
    let busy = |name: &str| agg(name).map_or(0.0, ResAgg::busy_frac);
    // Saturation alone is not causation: a combining store full of entries
    // parked on outstanding fills is a *symptom* of memory latency, not the
    // limiter. A capacity claim therefore also needs busy-dominance — the
    // resource must be doing work most cycles, not waiting.
    let (bound, evidence) = if sat("comb_store") >= SATURATION_BOUND_THRESHOLD
        && busy("comb_store") >= BUSY_BOUND_THRESHOLD
    {
        (
            "comb_store",
            format!(
                "combining store at capacity {:.1}% of unit-cycles (busy {:.1}%)",
                sat("comb_store") * 100.0,
                busy("comb_store") * 100.0
            ),
        )
    } else if sat("cache_bank") >= SATURATION_BOUND_THRESHOLD
        && busy("cache_bank") >= BUSY_BOUND_THRESHOLD
    {
        (
            "mshr",
            format!(
                "MSHR file at capacity {:.1}% of bank-cycles (banks busy {:.1}%)",
                sat("cache_bank") * 100.0,
                busy("cache_bank") * 100.0
            ),
        )
    } else {
        // Busy-based claims in fixed priority order (ties go to the earlier
        // entry, keeping the classification deterministic).
        let candidates = [
            ("dram_bandwidth", "dram", "DRAM channels busy"),
            ("crossbar", "net", "crossbar moving traffic"),
            ("cache_bank", "cache_bank", "cache banks serving accesses"),
            ("compute", "comb_store", "scatter-add FU pipelines busy"),
        ];
        let best = candidates
            .iter()
            .map(|&(kind, res, verb)| (kind, busy(res), verb))
            .fold(None::<(&str, f64, &str)>, |acc, c| match acc {
                Some(a) if a.1 >= c.1 => Some(a),
                _ => Some(c),
            });
        match best {
            Some((kind, f, verb)) if f >= BUSY_BOUND_THRESHOLD => {
                (kind, format!("{verb} {:.1}% of cycles", f * 100.0))
            }
            _ => {
                let top = stage_shares.iter().filter(|(n, _)| n != "retired").fold(
                    None::<(&str, f64)>,
                    |acc, (n, p)| match acc {
                        Some(a) if a.1 >= *p => Some(a),
                        _ => Some((n, *p)),
                    },
                );
                let ev = match top {
                    Some((stage, p)) => format!(
                        "no resource above {:.0}% busy; dominant latency stage: {stage} ({p:.1}%)",
                        BUSY_BOUND_THRESHOLD * 100.0
                    ),
                    None => format!(
                        "no resource above {:.0}% busy and no latency samples",
                        BUSY_BOUND_THRESHOLD * 100.0
                    ),
                };
                ("latency", ev)
            }
        }
    };

    // --- what-if table ------------------------------------------------------
    let cs_stall_pct = attribution
        .and_then(|a| a.get(rp))
        .and_then(|t| t.get("cs_full"))
        .and_then(|e| e.get("pct"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let whatif_rows = [
        ("2x dram_channels", share("dram"), "amdahl_stage"),
        // Doubling the cache banks also doubles the scatter-add units (the
        // machine pairs one unit with each bank), so every per-bank stage
        // scales: arbitration, MSHRs, combining store, FU pipeline — plus
        // the upstream queueing those stages back-pressure (`enqueued`).
        // Over-attributing queueing keeps this an upper bound.
        (
            "2x cache_banks",
            share("enqueued")
                + share("bank_arb")
                + share("mshr")
                + share("comb_store")
                + share("fu_pipe"),
            "amdahl_stage",
        ),
        ("2x net_bw", share("crossbar"), "amdahl_stage"),
        ("0.5x fu_latency", share("fu_pipe"), "amdahl_stage"),
        ("2x cs_entries", cs_stall_pct, "amdahl_stall"),
    ];
    let mut whatif = Vec::new();
    for (change, share_pct, model) in whatif_rows {
        let s = (share_pct / 100.0).clamp(0.0, 0.99);
        let speedup = 1.0 / (1.0 - s * 0.5);
        let mut row = Json::obj();
        row.push("change", Json::Str(change.to_string()));
        row.push("model", Json::Str(model.to_string()));
        row.push("share_pct", Json::Num(round2(share_pct)));
        row.push("predicted_speedup_max", Json::Num(round4(speedup)));
        row.push(
            "predicted_max_gain_pct",
            Json::Num(round2((speedup - 1.0) * 100.0)),
        );
        whatif.push(row);
    }

    // --- assemble -----------------------------------------------------------
    let mut resources = Json::obj();
    for a in &aggs {
        let el = a.elapsed();
        let mut r = Json::obj();
        r.push("instances", Json::UInt(a.instances));
        r.push("busy", Json::UInt(a.busy));
        r.push("blocked", Json::UInt(a.blocked));
        r.push("idle", Json::UInt(a.idle));
        r.push("saturated", Json::UInt(a.saturated));
        r.push("busy_pct", Json::Num(round2(frac(a.busy, el) * 100.0)));
        r.push(
            "blocked_pct",
            Json::Num(round2(frac(a.blocked, el) * 100.0)),
        );
        r.push("idle_pct", Json::Num(round2(frac(a.idle, el) * 100.0)));
        r.push(
            "saturated_pct",
            Json::Num(round2(frac(a.saturated, el) * 100.0)),
        );
        if a.queue_enqueued != 0 || a.queue_rejected != 0 {
            r.push(
                "queue_reject_pct",
                Json::Num(round2(
                    frac(a.queue_rejected, a.queue_enqueued + a.queue_rejected) * 100.0,
                )),
            );
        }
        resources.push(a.name, r);
    }
    let mut report = Json::obj();
    report.push(
        "cycles",
        Json::UInt(metric_u64(metrics, &format!("{rp}.cycles")).unwrap_or(0)),
    );
    report.push("bound", Json::Str(bound.to_string()));
    report.push("evidence", Json::Str(evidence));
    report.push("resources", resources);
    report.push("stages", stages);
    report.push("whatif", Json::Arr(whatif));
    report
}

/// Sum per-channel DRAM queue counters (`<rp>.*.queue.dram.chan<c>.<field>`).
fn sum_dram_queue(metrics: &[(String, Json)], rp: &str, field: &str) -> u64 {
    let head = format!("{rp}.");
    let tail = format!(".{field}");
    metrics
        .iter()
        .filter(|(k, _)| {
            k.starts_with(&head) && k.contains(".queue.dram.chan") && k.ends_with(&tail)
        })
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

/// Compute the `bottleneck` section for an assembled stats document and
/// insert it after the deterministic sections (before `host_profile` /
/// `rows`). Returns whether a section was attached (documents without
/// occupancy counters are left untouched).
pub fn attach_bottleneck(doc: &mut Json) -> bool {
    let Some(section) = bottleneck_json(doc) else {
        return false;
    };
    match doc {
        Json::Obj(pairs) => {
            let pos = pairs
                .iter()
                .position(|(k, _)| k == "host_profile" || k == "rows")
                .unwrap_or(pairs.len());
            pairs.insert(pos, ("bottleneck".to_string(), section));
            true
        }
        _ => false,
    }
}

/// Structural check of a `bottleneck` section (see [`bottleneck_json`]).
pub fn validate_bottleneck_json(section: &Json) -> Result<(), String> {
    let runs = section.as_obj().ok_or("'bottleneck' is not an object")?;
    for (run, report) in runs {
        report
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("bottleneck '{run}' missing numeric 'cycles'"))?;
        let bound = report
            .get("bound")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("bottleneck '{run}' missing 'bound'"))?;
        if !BOUND_KINDS.contains(&bound) {
            return Err(format!("bottleneck '{run}' has unknown bound '{bound}'"));
        }
        report
            .get("evidence")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("bottleneck '{run}' missing 'evidence'"))?;
        let resources = report
            .get("resources")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("bottleneck '{run}' missing 'resources' object"))?;
        for (res, entry) in resources {
            for field in [
                "instances",
                "busy",
                "blocked",
                "idle",
                "saturated",
                "busy_pct",
                "blocked_pct",
                "idle_pct",
                "saturated_pct",
            ] {
                entry
                    .get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("bottleneck '{run}.{res}' missing numeric '{field}'"))?;
            }
        }
        let stages = report
            .get("stages")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("bottleneck '{run}' missing 'stages' object"))?;
        for (stage, entry) in stages {
            entry
                .get("share_pct")
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    format!("bottleneck '{run}.stages.{stage}' missing numeric 'share_pct'")
                })?;
        }
        let whatif = report
            .get("whatif")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("bottleneck '{run}' missing 'whatif' array"))?;
        for row in whatif {
            let ok = row.get("change").and_then(Json::as_str).is_some()
                && row.get("model").and_then(Json::as_str).is_some()
                && row.get("share_pct").and_then(Json::as_f64).is_some()
                && row
                    .get("predicted_speedup_max")
                    .and_then(Json::as_f64)
                    .is_some()
                && row
                    .get("predicted_max_gain_pct")
                    .and_then(Json::as_f64)
                    .is_some();
            if !ok {
                return Err(format!("bottleneck '{run}' has a malformed whatif row"));
            }
        }
    }
    Ok(())
}

/// Render a `bottleneck` section as the text report `analyze bottleneck`
/// prints.
pub fn render_bottleneck(section: &Json) -> String {
    let mut out = String::new();
    let Some(runs) = section.as_obj() else {
        return out;
    };
    for (run, report) in runs {
        let cycles = report.get("cycles").and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!("== bottleneck: {run} ({cycles} cycles) ==\n"));
        let bound = report.get("bound").and_then(Json::as_str).unwrap_or("?");
        let evidence = report.get("evidence").and_then(Json::as_str).unwrap_or("");
        out.push_str(&format!("bound:    {bound}\n"));
        out.push_str(&format!("evidence: {evidence}\n"));
        if let Some(resources) = report.get("resources").and_then(Json::as_obj) {
            out.push_str(&format!(
                "{:<12} {:>5} {:>8} {:>9} {:>8} {:>10}\n",
                "resource", "inst", "busy%", "blocked%", "idle%", "saturated%"
            ));
            for (name, r) in resources {
                let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "{:<12} {:>5} {:>8.2} {:>9.2} {:>8.2} {:>10.2}\n",
                    name,
                    r.get("instances").and_then(Json::as_u64).unwrap_or(0),
                    f("busy_pct"),
                    f("blocked_pct"),
                    f("idle_pct"),
                    f("saturated_pct"),
                ));
            }
        }
        if let Some(stages) = report.get("stages").and_then(Json::as_obj) {
            if !stages.is_empty() {
                let parts: Vec<String> = stages
                    .iter()
                    .map(|(n, s)| {
                        format!(
                            "{n} {:.1}%",
                            s.get("share_pct").and_then(Json::as_f64).unwrap_or(0.0)
                        )
                    })
                    .collect();
                out.push_str(&format!("critical path: {}\n", parts.join(", ")));
            }
        }
        if let Some(whatif) = report.get("whatif").and_then(Json::as_arr) {
            if !whatif.is_empty() {
                out.push_str("what-if (analytic upper bounds):\n");
                for row in whatif {
                    out.push_str(&format!(
                        "  {:<18} share {:>5.1}%  ->  <= {:.3}x (+{:.1}%)  [{}]\n",
                        row.get("change").and_then(Json::as_str).unwrap_or("?"),
                        row.get("share_pct").and_then(Json::as_f64).unwrap_or(0.0),
                        row.get("predicted_speedup_max")
                            .and_then(Json::as_f64)
                            .unwrap_or(1.0),
                        row.get("predicted_max_gain_pct")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0),
                        row.get("model").and_then(Json::as_str).unwrap_or("?"),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReqStage;

    #[test]
    fn occupancy_cycle_and_skip_agree() {
        let mut ticked = OccupancyStats::default();
        for _ in 0..5 {
            ticked.cycle(OccClass::Blocked, false);
        }
        for _ in 0..3 {
            ticked.cycle(OccClass::Busy, true);
        }
        let mut skipped = OccupancyStats::default();
        skipped.skip(5, OccClass::Blocked, false);
        skipped.skip(3, OccClass::Busy, true);
        assert_eq!(ticked, skipped);
        assert_eq!(ticked.elapsed(), 8);
        assert_eq!(ticked.saturated, 3);
    }

    #[test]
    fn occupancy_merge_sums_fields() {
        let mut a = OccupancyStats {
            busy: 1,
            blocked: 2,
            idle: 3,
            saturated: 1,
        };
        a.add(&OccupancyStats {
            busy: 10,
            blocked: 20,
            idle: 30,
            saturated: 5,
        });
        assert_eq!(a.busy, 11);
        assert_eq!(a.blocked, 22);
        assert_eq!(a.idle, 33);
        assert_eq!(a.saturated, 6);
        assert_eq!(a.elapsed(), 66);
    }

    #[test]
    fn stage_names_match_req_stage() {
        for stage in ReqStage::ALL {
            assert_eq!(STAGE_NAMES[stage as usize], stage.name());
        }
    }

    fn doc_with_metrics(pairs: &[(&str, u64)]) -> Json {
        let mut metrics = Json::obj();
        for (k, v) in pairs {
            metrics.push(k, Json::UInt(*v));
        }
        let mut doc = Json::obj();
        doc.push("metrics", metrics);
        doc.push("rows", Json::Arr(Vec::new()));
        doc
    }

    #[test]
    fn engine_classifies_dram_bound_run() {
        let doc = doc_with_metrics(&[
            ("run.cycles", 100),
            ("run.sa.occ_busy", 20),
            ("run.sa.occ_blocked", 30),
            ("run.sa.occ_idle", 50),
            ("run.sa.occ_saturated", 0),
            ("run.cache.occ_busy", 30),
            ("run.cache.occ_blocked", 40),
            ("run.cache.occ_idle", 30),
            ("run.cache.occ_saturated", 0),
            ("run.dram.occ_busy", 90),
            ("run.dram.occ_blocked", 5),
            ("run.dram.occ_idle", 5),
            ("run.dram.occ_saturated", 60),
        ]);
        let section = bottleneck_json(&doc).expect("section");
        validate_bottleneck_json(&section).expect("valid");
        let report = section.get("run").expect("run report");
        assert_eq!(
            report.get("bound").and_then(Json::as_str),
            Some("dram_bandwidth")
        );
        let busy_pct = report
            .get("resources")
            .and_then(|r| r.get("dram"))
            .and_then(|d| d.get("busy_pct"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((busy_pct - 90.0).abs() < 1e-9);
        assert!(report
            .get("evidence")
            .and_then(Json::as_str)
            .unwrap()
            .contains("90.0%"));
    }

    #[test]
    fn engine_flags_saturated_combining_store() {
        let doc = doc_with_metrics(&[
            ("run.cycles", 100),
            ("run.sa.occ_busy", 50),
            ("run.sa.occ_blocked", 40),
            ("run.sa.occ_idle", 10),
            ("run.sa.occ_saturated", 45),
            ("run.dram.occ_busy", 80),
            ("run.dram.occ_blocked", 10),
            ("run.dram.occ_idle", 10),
            ("run.dram.occ_saturated", 0),
        ]);
        let section = bottleneck_json(&doc).expect("section");
        let report = section.get("run").expect("run report");
        assert_eq!(
            report.get("bound").and_then(Json::as_str),
            Some("comb_store")
        );
    }

    #[test]
    fn engine_groups_per_node_scopes() {
        let doc = doc_with_metrics(&[
            ("mesh.cycles", 200),
            ("mesh.node0.sa.occ_busy", 10),
            ("mesh.node0.sa.occ_blocked", 10),
            ("mesh.node0.sa.occ_idle", 180),
            ("mesh.node0.sa.occ_saturated", 0),
            ("mesh.node1.sa.occ_busy", 30),
            ("mesh.node1.sa.occ_blocked", 10),
            ("mesh.node1.sa.occ_idle", 160),
            ("mesh.node1.sa.occ_saturated", 0),
            ("mesh.net.occ_busy", 150),
            ("mesh.net.occ_blocked", 30),
            ("mesh.net.occ_idle", 20),
            ("mesh.net.occ_saturated", 10),
        ]);
        let section = bottleneck_json(&doc).expect("section");
        let report = section.get("mesh").expect("grouped report");
        assert_eq!(report.get("bound").and_then(Json::as_str), Some("crossbar"));
        let sa = report
            .get("resources")
            .and_then(|r| r.get("comb_store"))
            .expect("merged sa resource");
        assert_eq!(sa.get("busy").and_then(Json::as_u64), Some(40));
        assert_eq!(sa.get("instances").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn engine_returns_none_without_occupancy() {
        let doc = doc_with_metrics(&[("run.cycles", 100), ("run.sa.accepted", 5)]);
        assert!(bottleneck_json(&doc).is_none());
    }

    #[test]
    fn attach_inserts_before_rows() {
        let mut doc = doc_with_metrics(&[
            ("run.cycles", 10),
            ("run.sa.occ_busy", 5),
            ("run.sa.occ_blocked", 0),
            ("run.sa.occ_idle", 5),
            ("run.sa.occ_saturated", 0),
        ]);
        assert!(attach_bottleneck(&mut doc));
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["metrics", "bottleneck", "rows"]);
        // Attaching is idempotent in effect only if called once; callers
        // attach during document assembly. Render smoke check:
        let text = render_bottleneck(doc.get("bottleneck").unwrap());
        assert!(text.contains("== bottleneck: run"));
        assert!(text.contains("what-if"));
    }

    #[test]
    fn whatif_model_is_amdahl_upper_bound() {
        // 50% share halved => 1/(1 - 0.5*0.5) = 1.3333x
        let mut latency = Json::obj();
        let mut run = Json::obj();
        let mut stages = Json::obj();
        let mut dram = Json::obj();
        dram.push("share_pct", Json::Num(50.0));
        dram.push("total", Json::UInt(100));
        stages.push("dram", dram);
        run.push("stages", stages);
        latency.push("run", run);
        let mut doc = doc_with_metrics(&[
            ("run.cycles", 100),
            ("run.sa.occ_busy", 5),
            ("run.sa.occ_blocked", 0),
            ("run.sa.occ_idle", 95),
            ("run.sa.occ_saturated", 0),
        ]);
        doc.push("latency", latency);
        let section = bottleneck_json(&doc).expect("section");
        let report = section.get("run").unwrap();
        let rows = report.get("whatif").and_then(Json::as_arr).unwrap();
        let dram_row = rows
            .iter()
            .find(|r| r.get("change").and_then(Json::as_str) == Some("2x dram_channels"))
            .unwrap();
        let sp = dram_row
            .get("predicted_speedup_max")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((sp - 1.3333).abs() < 1e-9, "{sp}");
    }
}
