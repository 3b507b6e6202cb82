//! Deterministic fault injection for the scatter-add simulator.
//!
//! A [`FaultPlan`] is a seeded, schedule-driven description of transient
//! faults: ECC events on DRAM reads, crossbar injection NACKs and flit
//! drops, and stalled combining-store entries. Every decision is a pure
//! function of `(plan seed, fault site, rule index, per-site event
//! ordinal)` — never wall clock, thread id, or global iteration count — so
//! a faulted run is bit-reproducible under `--jobs N` sweeps and
//! `--fast-forward` cycle skipping alike.
//!
//! Components pull decisions from a per-site [`FaultInjector`] compiled out
//! of the plan; an inert injector ([`FaultInjector::none`]) costs one branch
//! per event, which keeps the fault-free fast path byte-identical to a build
//! without this crate. Recovery bookkeeping lives in [`ResilienceStats`] and
//! retry pacing in [`Backoff`]. See `docs/RESILIENCE.md` for the plan JSON
//! format and the recovery semantics of each fault kind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, OnceLock, RwLock};

use sa_telemetry::{Counters, Json, Reader, Scope};

/// `schema` field of a fault-plan JSON document.
pub const FAULTPLAN_SCHEMA_NAME: &str = "sa-faultplan";

/// Current fault-plan document version.
pub const FAULTPLAN_SCHEMA_VERSION: u64 = 1;

/// Default combining-store stall watchdog timeout (cycles); see
/// [`FaultPlan::cs_timeout`].
pub const DEFAULT_CS_TIMEOUT: u64 = 64;

/// Cap on MSHR fill replays for one line before the error is declared
/// uncorrectable and the (functionally intact) data is accepted anyway.
pub const ECC_REPLAY_LIMIT: u32 = 8;

// ---------------------------------------------------------------------------
// Fault kinds and sites
// ---------------------------------------------------------------------------

/// One injectable fault event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Single-bit DRAM read error: corrected inline by ECC, counted only.
    EccSingle,
    /// Double-bit DRAM read error: detected by ECC, the fill is refused and
    /// replayed from DRAM (MSHR replay).
    EccDouble,
    /// Crossbar injection refused (NACK); the sender retries with backoff.
    NetNack,
    /// Crossbar flit dropped in the fabric; link-level retransmission
    /// redelivers it after another hop latency.
    NetDrop,
    /// A combining-store entry wedges for this many cycles before it may
    /// issue to the FU (the node watchdog can cancel it sooner).
    CsStall {
        /// Stall duration in cycles.
        cycles: u64,
    },
}

impl FaultKind {
    /// The site class this kind of fault strikes.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::EccSingle | FaultKind::EccDouble => FaultSite::DramRead,
            FaultKind::NetNack => FaultSite::NetInject,
            FaultKind::NetDrop => FaultSite::NetDeliver,
            FaultKind::CsStall { .. } => FaultSite::CsEntry,
        }
    }

    /// Stable lowercase name used in plan JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::EccSingle => "ecc_single",
            FaultKind::EccDouble => "ecc_double",
            FaultKind::NetNack => "net_nack",
            FaultKind::NetDrop => "net_drop",
            FaultKind::CsStall { .. } => "cs_stall",
        }
    }
}

/// Where in the machine a fault rule applies. Each simulated component owns
/// one injector per site instance, addressed by `(site, node, unit)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A DRAM channel read completion (`unit` = channel index).
    DramRead,
    /// A crossbar injection port (`unit` = port index).
    NetInject,
    /// Crossbar fabric delivery (one site per crossbar).
    NetDeliver,
    /// A combining-store submission (`unit` = bank index).
    CsEntry,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::DramRead => 1,
            FaultSite::NetInject => 2,
            FaultSite::NetDeliver => 3,
            FaultSite::CsEntry => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// One schedule line of a plan: fire `kind` at its site whenever the seeded
/// hash of the event ordinal lands on `period`, up to `max` times per site
/// instance, skipping the first `after` events.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Average spacing in site events; the hash fires roughly one in
    /// `period` events. Must be at least 1 (1 = every event).
    pub period: u64,
    /// Upper bound on firings per site instance (keeps plans recoverable
    /// and runs terminating by construction).
    pub max: u64,
    /// Number of initial site events exempt from this rule.
    pub after: u64,
}

/// A seeded, deterministic fault schedule.
///
/// An empty plan ([`FaultPlan::empty`]) injects nothing and leaves the
/// simulator byte-identical to a run with no plan installed at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Watchdog timeout (cycles) after which `NodeMemSys` cancels a stalled
    /// combining-store entry and requeues it for FU issue.
    pub cs_timeout: u64,
    /// The schedule.
    pub rules: Vec<FaultRule>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::empty()
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            cs_timeout: DEFAULT_CS_TIMEOUT,
            rules: Vec::new(),
        }
    }

    /// Whether the plan has no rules (injects nothing).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Compile the injector for one site instance. Only rules whose kind
    /// strikes `site` are retained; for a site no rule touches this returns
    /// an inert injector.
    pub fn injector(&self, site: FaultSite, node: u64, unit: u64) -> FaultInjector {
        let rules: Vec<CompiledRule> = self
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind.site() == site)
            .map(|(idx, r)| CompiledRule {
                rule: *r,
                index: idx as u64,
                fired: 0,
            })
            .collect();
        if rules.is_empty() {
            return FaultInjector::none();
        }
        FaultInjector {
            site_key: mix(self.seed, site.tag(), node, unit),
            rules,
            k: 0,
        }
    }

    /// Parse a plan from its JSON document text ([`Json::parse`] then
    /// [`FaultPlan::from_json`]).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        FaultPlan::from_json(&Json::parse(text)?)
    }

    /// Read a plan from its JSON document.
    ///
    /// Strict: an unknown or misspelled key, or a mistyped value, is an
    /// error — a typo must never become a silently-applied default.
    /// `cycles` is accepted only on `cs_stall` rules. Missing optional
    /// fields take defaults (`seed` 0, `cs_timeout` [`DEFAULT_CS_TIMEOUT`],
    /// `faults` empty; per rule `period` 1, `max` unbounded, `after` 0,
    /// `cycles` 32), and `cs_timeout`, `period` and `cycles` are clamped to
    /// at least 1.
    pub fn from_json(doc: &Json) -> Result<FaultPlan, String> {
        let mut r = Reader::new("fault plan", doc)?;
        let schema = r.str("schema")?;
        if schema != FAULTPLAN_SCHEMA_NAME {
            return Err(format!(
                "fault plan: schema is {schema:?}, expected {FAULTPLAN_SCHEMA_NAME:?}"
            ));
        }
        let version = r.u64("version")?;
        if version == 0 || version > FAULTPLAN_SCHEMA_VERSION {
            return Err(format!(
                "fault plan: version {version} unsupported (expected 1..={FAULTPLAN_SCHEMA_VERSION})"
            ));
        }
        let seed = r.opt("seed", Reader::u64)?.unwrap_or(0);
        let cs_timeout = r
            .opt("cs_timeout", Reader::u64)?
            .unwrap_or(DEFAULT_CS_TIMEOUT)
            .max(1);
        let mut rules = Vec::new();
        for (i, f) in r
            .opt("faults", Reader::arr)?
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            rules.push(rule_from_json(f).map_err(|e| format!("fault plan: faults[{i}]: {e}"))?);
        }
        r.finish()?;
        Ok(FaultPlan {
            seed,
            cs_timeout,
            rules,
        })
    }

    /// Load and parse a plan from a file on disk.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("fault plan {}: {e}", path.display()))?;
        FaultPlan::parse(&text)
    }

    /// Serialize back to the plan JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("schema", Json::Str(FAULTPLAN_SCHEMA_NAME.to_string()));
        doc.push("version", Json::UInt(FAULTPLAN_SCHEMA_VERSION));
        doc.push("seed", Json::UInt(self.seed));
        doc.push("cs_timeout", Json::UInt(self.cs_timeout));
        let mut faults = Vec::new();
        for r in &self.rules {
            let mut o = Json::obj();
            o.push("kind", Json::Str(r.kind.name().to_string()));
            if let FaultKind::CsStall { cycles } = r.kind {
                o.push("cycles", Json::UInt(cycles));
            }
            o.push("period", Json::UInt(r.period));
            if r.max != u64::MAX {
                o.push("max", Json::UInt(r.max));
            }
            if r.after != 0 {
                o.push("after", Json::UInt(r.after));
            }
            faults.push(o);
        }
        doc.push("faults", Json::Arr(faults));
        doc
    }
}

fn rule_from_json(f: &Json) -> Result<FaultRule, String> {
    let mut r = Reader::new("fault rule", f)?;
    let kind = match r.str("kind")? {
        "ecc_single" => FaultKind::EccSingle,
        "ecc_double" => FaultKind::EccDouble,
        "net_nack" => FaultKind::NetNack,
        "net_drop" => FaultKind::NetDrop,
        "cs_stall" => FaultKind::CsStall {
            cycles: r.opt("cycles", Reader::u64)?.unwrap_or(32).max(1),
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    let rule = FaultRule {
        kind,
        period: r.opt("period", Reader::u64)?.unwrap_or(1).max(1),
        max: r.opt("max", Reader::u64)?.unwrap_or(u64::MAX),
        after: r.opt("after", Reader::u64)?.unwrap_or(0),
    };
    r.finish()?;
    Ok(rule)
}

// ---------------------------------------------------------------------------
// Process-wide default plan
// ---------------------------------------------------------------------------

fn plan_cell() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static CELL: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(None))
}

/// Install a process-wide default fault plan picked up by newly constructed
/// simulator components (mirrors `sa_sim`'s fast-forward default). Binaries
/// set this once from `--faults` before building anything; library callers
/// should prefer the explicit `set_fault_plan` setters, which override it.
pub fn set_default_plan(plan: Option<FaultPlan>) {
    *plan_cell().write().expect("fault plan lock") = plan.map(Arc::new);
}

/// The process-wide default fault plan, if one is installed.
pub fn default_plan() -> Option<Arc<FaultPlan>> {
    plan_cell().read().expect("fault plan lock").clone()
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct CompiledRule {
    rule: FaultRule,
    index: u64,
    fired: u64,
}

/// The per-site-instance decision stream compiled from a [`FaultPlan`].
///
/// Each call to [`FaultInjector::next`] consumes one site event ordinal and
/// returns the fault to inject there, if any. Decisions depend only on the
/// plan seed, the site identity, and the ordinal — identical regardless of
/// thread count, fast-forwarding, or wall clock.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    site_key: u64,
    rules: Vec<CompiledRule>,
    k: u64,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// An inert injector that never fires. [`FaultInjector::is_active`] is
    /// false, so hot paths can skip fault bookkeeping entirely.
    pub fn none() -> FaultInjector {
        FaultInjector {
            site_key: 0,
            rules: Vec::new(),
            k: 0,
        }
    }

    /// Whether any rule targets this site (false for [`FaultInjector::none`]).
    pub fn is_active(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Consume the next site event and return the fault striking it, if any.
    /// Rules are tried in plan order; the first hit wins.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, side-effecting
    pub fn next(&mut self) -> Option<FaultKind> {
        if self.rules.is_empty() {
            return None;
        }
        let k = self.k;
        self.k += 1;
        for c in &mut self.rules {
            if c.fired >= c.rule.max || k < c.rule.after {
                continue;
            }
            if mix(self.site_key, c.index, k, 0).is_multiple_of(c.rule.period) {
                c.fired += 1;
                return Some(c.rule.kind);
            }
        }
        None
    }

    /// Total faults fired by this injector so far.
    pub fn fired(&self) -> u64 {
        self.rules.iter().map(|c| c.fired).sum()
    }
}

/// SplitMix64 finalizer: the same bijective mixer the simulator's `Rng64`
/// uses, applied to a combination of words. Deterministic and well-spread.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

fn mix(a: u64, b: u64, c: u64, d: u64) -> u64 {
    const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
    mix64(
        a.wrapping_add(GOLDEN)
            .wrapping_mul(GOLDEN)
            .wrapping_add(mix64(b ^ mix64(c.wrapping_add(d.wrapping_mul(GOLDEN))))),
    )
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Bounded exponential backoff schedule for NACKed network requests:
/// delay `min(base << attempt, cap)` cycles, doubling per attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Backoff {
    base: u64,
    cap: u64,
    attempt: u32,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::new(2, 256)
    }
}

impl Backoff {
    /// A schedule starting at `base` cycles and capped at `cap`.
    pub fn new(base: u64, cap: u64) -> Backoff {
        Backoff {
            base: base.max(1),
            cap: cap.max(1),
            attempt: 0,
        }
    }

    /// The delay for the next retry, advancing the attempt counter.
    pub fn next_delay(&mut self) -> u64 {
        let shift = self.attempt.min(62);
        let d = self.base.saturating_shl(shift).min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Retries attempted so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Reset after a successful send.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

// ---------------------------------------------------------------------------
// Resilience counters
// ---------------------------------------------------------------------------

/// Graceful-degradation counters accumulated by the recovery machinery.
///
/// Grouped in one nested struct (rather than loose fields on each report
/// type) and recorded into the metrics registry only when non-zero, so an
/// empty fault plan leaves the sa-stats document byte-identical.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Single-bit DRAM errors corrected inline by ECC.
    pub ecc_corrected: u64,
    /// Double-bit DRAM errors detected by ECC (each triggers a replay).
    pub ecc_detected: u64,
    /// Lines whose replay budget ran out; data accepted, error declared
    /// uncorrectable.
    pub ecc_uncorrected: u64,
    /// MSHR fill replays issued for ECC-detected lines.
    pub mshr_replays: u64,
    /// Crossbar injections refused (NACKed).
    pub net_nacks: u64,
    /// Flits dropped in the crossbar fabric.
    pub net_dropped: u64,
    /// Dropped flits redelivered by link-level retransmission.
    pub net_recovered: u64,
    /// Sender-side backoff retries after a NACK.
    pub net_retries: u64,
    /// Combining-store entries wedged by an injected stall.
    pub cs_stalls: u64,
    /// Stalled entries cancelled and requeued by the node watchdog.
    pub cs_timeouts: u64,
}

impl ResilienceStats {
    /// Whether every counter is zero (nothing to report).
    pub fn is_zero(&self) -> bool {
        *self == ResilienceStats::default()
    }

    /// Accumulate another set of counters into this one.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.add(other);
    }

    /// Record every counter under `scope` (callers gate on
    /// [`ResilienceStats::is_zero`] to preserve empty-plan byte-identity).
    pub fn record(&self, scope: &mut Scope<'_>) {
        self.record_counters(scope);
    }
}

impl Counters for ResilienceStats {
    fn counters_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        vec![
            ("ecc_corrected", &mut self.ecc_corrected),
            ("ecc_detected", &mut self.ecc_detected),
            ("ecc_uncorrected", &mut self.ecc_uncorrected),
            ("mshr_replays", &mut self.mshr_replays),
            ("net_nacks", &mut self.net_nacks),
            ("net_dropped", &mut self.net_dropped),
            ("net_recovered", &mut self.net_recovered),
            ("net_retries", &mut self.net_retries),
            ("cs_stalls", &mut self.cs_stalls),
            ("cs_timeouts", &mut self.cs_timeouts),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_text() -> &'static str {
        r#"{
          "schema": "sa-faultplan",
          "version": 1,
          "seed": 7,
          "cs_timeout": 48,
          "faults": [
            {"kind": "ecc_single", "period": 10, "max": 100},
            {"kind": "ecc_double", "period": 37, "max": 4},
            {"kind": "net_nack", "period": 13},
            {"kind": "net_drop", "period": 31, "max": 8, "after": 5},
            {"kind": "cs_stall", "cycles": 40, "period": 29, "max": 16}
          ]
        }"#
    }

    #[test]
    fn parse_round_trips() {
        let plan = FaultPlan::parse(plan_text()).expect("parse");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.cs_timeout, 48);
        assert_eq!(plan.rules.len(), 5);
        assert_eq!(plan.rules[0].kind, FaultKind::EccSingle);
        assert_eq!(plan.rules[2].max, u64::MAX);
        assert_eq!(plan.rules[3].after, 5);
        assert_eq!(plan.rules[4].kind, FaultKind::CsStall { cycles: 40 });
        let text = plan.to_json().to_string_pretty();
        let again = FaultPlan::parse(&text).expect("reparse");
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(FaultPlan::parse("{}").is_err());
        assert!(FaultPlan::parse(r#"{"schema":"nope","version":1}"#).is_err());
        assert!(FaultPlan::parse(r#"{"schema":"sa-faultplan","version":99}"#).is_err());
        assert!(FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"faults":[{"kind":"zap"}]}"#
        )
        .is_err());
    }

    #[test]
    fn parse_rejects_typos_and_mistyped_values() {
        let plan = |rule: &str| {
            FaultPlan::parse(&format!(
                r#"{{"schema":"sa-faultplan","version":1,"faults":[{rule}]}}"#
            ))
        };
        assert!(plan(r#"{"kind":"ecc_single","period":1000}"#).is_ok());
        let err = plan(r#"{"kind":"ecc_single","perid":1000}"#).unwrap_err();
        assert!(
            err.contains("faults[0]") && err.contains("'perid'"),
            "{err}"
        );
        let err = plan(r#"{"kind":"ecc_single","period":"1000"}"#).unwrap_err();
        assert!(err.contains("'period'"), "{err}");
        // `cycles` belongs to cs_stall only.
        assert!(plan(r#"{"kind":"cs_stall","cycles":8}"#).is_ok());
        assert!(plan(r#"{"kind":"net_drop","cycles":8}"#).is_err());
        assert!(FaultPlan::parse(r#"{"schema":"sa-faultplan","version":1,"sed":3}"#).is_err());
        assert!(FaultPlan::parse(r#"{"schema":"sa-faultplan","version":1,"seed":-3}"#).is_err());
    }

    #[test]
    fn shipped_plans_and_the_documented_example_parse() {
        let smoke = FaultPlan::parse(include_str!("../../../bench/faultplans/smoke.json"))
            .expect("smoke plan");
        assert_eq!((smoke.seed, smoke.rules.len()), (2005, 5));
        let empty = FaultPlan::parse(include_str!("../../../bench/faultplans/empty.json"))
            .expect("empty plan");
        assert!(empty.is_empty());
        let doc = include_str!("../../../docs/RESILIENCE.md");
        let example = doc
            .split("```json")
            .skip(1)
            .map(|block| block.split("```").next().unwrap_or_default())
            .find(|block| block.contains(FAULTPLAN_SCHEMA_NAME))
            .expect("RESILIENCE.md carries a plan example");
        let plan = FaultPlan::parse(example).expect("documented plan parses");
        assert_eq!(plan.rules.len(), 5);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        let mut inj = plan.injector(FaultSite::DramRead, 0, 0);
        assert!(!inj.is_active());
        for _ in 0..1000 {
            assert_eq!(inj.next(), None);
        }
    }

    #[test]
    fn injector_is_deterministic_and_site_keyed() {
        let plan = FaultPlan::parse(plan_text()).expect("parse");
        let decide = |node, unit| {
            let mut inj = plan.injector(FaultSite::DramRead, node, unit);
            (0..500).map(|_| inj.next()).collect::<Vec<_>>()
        };
        // Same site: identical stream. Different site: (almost surely)
        // different stream. Seeds matter.
        assert_eq!(decide(0, 0), decide(0, 0));
        assert_ne!(decide(0, 0), decide(0, 1));
        assert_ne!(decide(0, 0), decide(1, 0));
        let mut other = plan.clone();
        other.seed = 8;
        let mut inj = other.injector(FaultSite::DramRead, 0, 0);
        let stream: Vec<_> = (0..500).map(|_| inj.next()).collect();
        assert_ne!(decide(0, 0), stream);
    }

    #[test]
    fn injector_respects_max_and_after() {
        let plan = FaultPlan {
            seed: 3,
            cs_timeout: DEFAULT_CS_TIMEOUT,
            rules: vec![FaultRule {
                kind: FaultKind::NetDrop,
                period: 1, // every event...
                max: 3,    // ...but only three times...
                after: 10, // ...and not in the first ten.
            }],
        };
        let mut inj = plan.injector(FaultSite::NetDeliver, 0, 0);
        let fired: Vec<usize> = (0..100)
            .filter_map(|i| inj.next().map(|_| i))
            .collect::<Vec<_>>();
        assert_eq!(fired, vec![10, 11, 12]);
        assert_eq!(inj.fired(), 3);
    }

    #[test]
    fn injector_only_compiles_matching_sites() {
        let plan = FaultPlan::parse(plan_text()).expect("parse");
        let mut cs = plan.injector(FaultSite::CsEntry, 0, 2);
        assert!(cs.is_active());
        for _ in 0..2000 {
            if let Some(kind) = cs.next() {
                assert!(matches!(kind, FaultKind::CsStall { cycles: 40 }));
            }
        }
        // A plan with only ECC rules is inert at network sites.
        let ecc_only = FaultPlan {
            rules: plan
                .rules
                .iter()
                .copied()
                .filter(|r| r.kind.site() == FaultSite::DramRead)
                .collect(),
            ..plan
        };
        assert!(!ecc_only.injector(FaultSite::NetInject, 0, 0).is_active());
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let mut b = Backoff::new(2, 256);
        let delays: Vec<u64> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(delays, vec![2, 4, 8, 16, 32, 64, 128, 256, 256, 256]);
        assert_eq!(b.attempts(), 10);
        b.reset();
        assert_eq!(b.next_delay(), 2);
        // Extreme shifts saturate instead of overflowing.
        let mut wide = Backoff::new(u64::MAX / 2, u64::MAX);
        wide.next_delay();
        assert_eq!(wide.next_delay(), u64::MAX);
    }

    #[test]
    fn resilience_stats_merge_and_zero() {
        let mut a = ResilienceStats::default();
        assert!(a.is_zero());
        let b = ResilienceStats {
            ecc_corrected: 2,
            net_nacks: 1,
            ..ResilienceStats::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.ecc_corrected, 4);
        assert_eq!(a.net_nacks, 2);
        assert!(!a.is_zero());
    }

    #[test]
    fn default_plan_round_trips() {
        // Note: tests in this binary run concurrently; use a plan value
        // distinctive enough not to collide with other tests (none of which
        // touch the process default).
        set_default_plan(Some(FaultPlan {
            seed: 0xD00D,
            ..FaultPlan::empty()
        }));
        let got = default_plan().expect("installed");
        assert_eq!(got.seed, 0xD00D);
        set_default_plan(None);
        assert!(default_plan().is_none());
    }
}
