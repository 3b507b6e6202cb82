//! The [`Session`] builder — one front door to the whole simulator.
//!
//! Historically each entry point was a separate free function with its own
//! argument list (`drive_scatter`, `MultiNode::run_trace`, ...), and
//! cross-cutting concerns — probing, fast-forward, fault injection — were
//! configured through per-type setters or process-wide
//! defaults. A `Session` names every knob once and validates the
//! combination before anything runs:
//!
//! ```
//! use scatter_add_repro::{Session, Workload};
//!
//! let report = Session::builder()
//!     .workload(Workload::Histogram {
//!         base_word: 0,
//!         indices: vec![0, 1, 1, 2, 1],
//!     })
//!     .build()
//!     .expect("valid session")
//!     .run();
//! assert_eq!(report.result[..3], [1, 3, 1]);
//! ```
//!
//! A `Session` is a [`SessionSpec`] — the job description, declared once
//! — plus two things that are not part of the job: a progress sink (off
//! unless [`SessionBuilder::progress`] attaches one) and a result cache.
//! [`SessionBuilder::build`] is the one validation every job passes,
//! whether it comes from a builder chain, a `--spec` file or an `sa-serve`
//! request. [`Session::run`] is [`Session::cached`] (the lookup half) else
//! [`Session::simulate`] (the simulate-and-store half); callers that must
//! act between the two, such as the HTTP service choosing its response
//! headers, drive the halves themselves. `Session` is the only code that
//! turns a cache entry into a [`SessionReport`] or a report into an entry.
//!
//! A session installs exactly its own fault plan ([`SessionBuilder::faults`],
//! or the empty plan) on every machine it builds. The process-wide
//! [`sa_faults::default_plan`] never reaches it, so concurrent sessions with
//! different plans do not interfere, and a cached report was simulated under
//! the plan its fingerprint records.

use std::sync::Arc;

use crate::spec::u64_array;
use crate::SessionSpec;
use sa_cache::CacheStats;
use sa_core::{drive_scatter_probed, NodeMemSys, NodeStats, SaStats, ScatterKernel};
use sa_faults::{FaultPlan, ResilienceStats};
use sa_mem::DramStats;
use sa_memo::{Fingerprint, ResultCache};
use sa_multinode::{MultiNode, Topology};
use sa_sim::{Addr, MachineConfig, NetworkConfig, QueueStats};
use sa_telemetry::{Counters, Introspect, Json, MetricsRegistry, Progress, Reader};

/// What a [`Session`] simulates.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// A histogram: every index contributes `+1` (integer scatter-add) to
    /// `base_word + index`.
    Histogram {
        /// First word of the result array.
        base_word: u64,
        /// The index trace.
        indices: Vec<u64>,
    },
    /// An arbitrary single-node scatter kernel (any scalar kind/op).
    Scatter(ScatterKernel),
    /// A floating-point scatter-add trace distributed over several nodes.
    MultiNode {
        /// Node count (a power of two under [`Topology::Hypercube`]).
        nodes: usize,
        /// Inter-node fabric parameters.
        network: NetworkConfig,
        /// Whether remote requests combine in the local cache (sum-back).
        combining: bool,
        /// Sum-back routing topology.
        topology: Topology,
        /// Target word indices.
        trace: Vec<u64>,
        /// One f64 addend per trace entry.
        values: Vec<f64>,
    },
}

/// Most words of simulated memory a job's result array may span: its
/// largest index plus `base_word` plus one (512 MiB of result). A histogram
/// with the single index `1 << 40` would otherwise allocate 8 TiB.
pub const MAX_RESULT_WORDS: u64 = 1 << 26;

/// Most scatter-adds (indices) one job may carry.
pub const MAX_TRACE_LEN: usize = 1 << 24;

/// Most nodes a multinode job may ask for.
pub const MAX_NODES: usize = 64;

/// Check a job's size against [`MAX_TRACE_LEN`] and [`MAX_RESULT_WORDS`]:
/// `indices` address words `base_word + index`.
fn check_size(base_word: u64, indices: &[u64]) -> Result<(), String> {
    if indices.len() > MAX_TRACE_LEN {
        return Err(format!(
            "job too large: {} indices exceed MAX_TRACE_LEN ({MAX_TRACE_LEN})",
            indices.len()
        ));
    }
    let max = indices.iter().copied().max().unwrap_or(0);
    match base_word.checked_add(max).and_then(|w| w.checked_add(1)) {
        Some(words) if words <= MAX_RESULT_WORDS => Ok(()),
        _ => Err(format!(
            "job too large: base_word {base_word} + largest index {max} + 1 exceeds \
             MAX_RESULT_WORDS ({MAX_RESULT_WORDS} words)"
        )),
    }
}

/// Everything a finished session reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionReport {
    /// Simulated cycles to completion.
    pub cycles: u64,
    /// Cycles the scheduler fast-forwarded over (wall-clock accounting
    /// only; every other field is byte-identical with skipping off).
    pub skipped_cycles: u64,
    /// Machine statistics, one entry per node.
    pub node_stats: Vec<NodeStats>,
    /// Merged fault-recovery counters (all zero without a fault plan).
    pub resilience: ResilienceStats,
    /// Raw bits of the result array, `base..base + len` words.
    pub result: Vec<u64>,
    /// Pre-op values returned by fetch-ops, in completion order (empty
    /// unless [`SessionBuilder::fetch`] was set; single-node only).
    pub fetched: Vec<(u64, u64)>,
    /// `sa-probe` snapshot lines (compact JSON, one per cadence point;
    /// empty unless [`SessionBuilder::probe`] set an interval). At a fixed
    /// interval these bytes are identical across fast-forward settings,
    /// except for the `skipped_cycles` field each line carries.
    pub probe_lines: Vec<String>,
    /// Application scatter-add operations performed (the workload length).
    pub adds: u64,
    /// Sum-back lines that crossed the network (multinode combining runs;
    /// 0 otherwise).
    pub sum_back_lines: u64,
}

impl SessionReport {
    /// Simulated execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }

    /// The result array reinterpreted as signed integers (for integer
    /// workloads such as [`Workload::Histogram`]).
    pub fn result_i64(&self) -> Vec<i64> {
        self.result.iter().map(|&b| b as i64).collect()
    }

    /// The result array reinterpreted as doubles (for floating-point
    /// workloads).
    pub fn result_f64(&self) -> Vec<f64> {
        self.result.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Scatter-add throughput in GB/s at `ghz`, the Figure 13 metric: one
    /// word of application data retired per add.
    pub fn throughput_gbps(&self, ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.adds as f64 * sa_sim::WORD_BYTES as f64 * ghz / self.cycles as f64
    }

    /// The run's counters as a metrics registry under the `session` scope:
    /// `cycles`, `adds` and the node statistics, one `node<i>` sub-scope per
    /// node when there are several. [`SessionReport::bottleneck`] and the
    /// served stats document both read it.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        {
            let mut scope = registry.scope("session");
            scope.counter("cycles", self.cycles);
            scope.counter("adds", self.adds);
            if let [only] = self.node_stats.as_slice() {
                only.record(&mut scope);
            } else {
                for (i, ns) in self.node_stats.iter().enumerate() {
                    ns.record(&mut scope.scope(&format!("node{i}")));
                }
            }
        }
        registry
    }

    /// The bottleneck attribution report for this run: per-resource
    /// occupancy (busy / blocked / idle / saturated), the dominant-resource
    /// classification with utilization evidence, and the analytic what-if
    /// table — the `session` entry of a v5 `bottleneck` section (see
    /// `docs/OBSERVABILITY.md`). Render with
    /// [`sa_telemetry::render_bottleneck`]. `None` when the report carries
    /// no node statistics.
    pub fn bottleneck(&self) -> Option<Json> {
        if self.node_stats.is_empty() {
            return None;
        }
        let mut doc = Json::obj();
        doc.push("metrics", self.metrics().to_json());
        sa_telemetry::bottleneck_json(&doc)
    }

    /// Serialize the complete report for the result cache.
    ///
    /// Exact: every field (including raw result bits and probe lines)
    /// round-trips through [`SessionReport::from_json`] to an equal report,
    /// so a cache hit reproduces the original run byte-for-byte. Note that
    /// `skipped_cycles` is part of the payload: a hit replays the *cached*
    /// run's fast-forward accounting, consistent with the byte-identity
    /// contract that already holds only modulo `skipped_cycles`.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.push("cycles", Json::UInt(self.cycles));
        doc.push("skipped_cycles", Json::UInt(self.skipped_cycles));
        doc.push(
            "node_stats",
            Json::Arr(self.node_stats.iter().map(node_stats_json).collect()),
        );
        doc.push("resilience", self.resilience.counters_json());
        doc.push("result", u64_array(&self.result));
        doc.push(
            "fetched",
            Json::Arr(
                self.fetched
                    .iter()
                    .map(|&(a, v)| u64_array(&[a, v]))
                    .collect(),
            ),
        );
        doc.push(
            "probe_lines",
            Json::Arr(
                self.probe_lines
                    .iter()
                    .map(|l| Json::Str(l.clone()))
                    .collect(),
            ),
        );
        doc.push("adds", Json::UInt(self.adds));
        doc.push("sum_back_lines", Json::UInt(self.sum_back_lines));
        doc
    }

    /// Rebuild a report serialized by [`SessionReport::to_json`].
    ///
    /// Strict: a missing, mistyped or unknown key anywhere is an error, so
    /// a cache entry written under another layout is recomputed, never
    /// served.
    pub fn from_json(doc: &Json) -> Result<SessionReport, String> {
        let mut r = Reader::new("report", doc)?;
        let report = SessionReport {
            cycles: r.u64("cycles")?,
            skipped_cycles: r.u64("skipped_cycles")?,
            node_stats: r
                .arr("node_stats")?
                .iter()
                .map(node_stats_from_json)
                .collect::<Result<_, _>>()?,
            resilience: ResilienceStats::read_counters("resilience", r.get("resilience")?)?,
            result: r.u64_array("result")?,
            fetched: r.array("fetched", |pair| match pair.as_arr() {
                Some([a, v]) => a.as_u64().zip(v.as_u64()),
                _ => None,
            })?,
            probe_lines: r.array("probe_lines", |l| l.as_str().map(str::to_string))?,
            adds: r.u64("adds")?,
            sum_back_lines: r.u64("sum_back_lines")?,
        };
        r.finish()?;
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Report (de)serialization helpers. The counter records walk their
// `Counters` tables; the bank input queue keeps its own field list because
// its occupancy histogram is an array.
// ---------------------------------------------------------------------------

fn node_stats_json(ns: &NodeStats) -> Json {
    let q = &ns.bank_in;
    let mut bank_in = Json::obj();
    bank_in.push("enqueued", Json::UInt(q.enqueued));
    bank_in.push("rejected", Json::UInt(q.rejected));
    bank_in.push("peak_occupancy", Json::UInt(q.peak_occupancy));
    bank_in.push("occ_sum", Json::UInt(q.occ_sum));
    bank_in.push("capacity", Json::UInt(q.capacity));
    bank_in.push("occ_hist", u64_array(&q.occ_hist));
    bank_in.push("created_at", Json::UInt(q.created_at));
    bank_in.push("advanced_to", Json::UInt(q.advanced_to));
    bank_in.push("occ_integral", Json::UInt(q.occ_integral));

    let mut j = Json::obj();
    j.push("sa", ns.sa.counters_json());
    j.push("cache", ns.cache.counters_json());
    j.push("dram", ns.dram.counters_json());
    j.push("bank_in", bank_in);
    j.push("resilience", ns.resilience.counters_json());
    j
}

fn node_stats_from_json(doc: &Json) -> Result<NodeStats, String> {
    let mut r = Reader::new("node_stats", doc)?;
    let mut q = Reader::new("bank_in", r.get("bank_in")?)?;
    let bank_in = QueueStats {
        enqueued: q.u64("enqueued")?,
        rejected: q.u64("rejected")?,
        peak_occupancy: q.u64("peak_occupancy")?,
        occ_sum: q.u64("occ_sum")?,
        capacity: q.u64("capacity")?,
        occ_hist: q
            .u64_array("occ_hist")?
            .try_into()
            .map_err(|_| "bank_in: occ_hist bucket count mismatch")?,
        created_at: q.u64("created_at")?,
        advanced_to: q.u64("advanced_to")?,
        occ_integral: q.u64("occ_integral")?,
    };
    q.finish()?;
    let ns = NodeStats {
        sa: SaStats::read_counters("sa", r.get("sa")?)?,
        cache: CacheStats::read_counters("cache", r.get("cache")?)?,
        dram: DramStats::read_counters("dram", r.get("dram")?)?,
        bank_in,
        resilience: ResilienceStats::read_counters("resilience", r.get("resilience")?)?,
    };
    r.finish()?;
    Ok(ns)
}

/// Staged configuration for a [`Session`]: a [`SessionSpec`] filled in
/// field by field, plus the progress sink and cache handle that are not
/// part of the job description. See the module docs.
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    spec: SessionSpec,
    progress: Progress,
    cache: Option<Arc<ResultCache>>,
}

impl Default for SessionBuilder {
    /// No workload yet (an empty histogram, which [`SessionBuilder::build`]
    /// rejects) on the default machine.
    fn default() -> SessionBuilder {
        SessionBuilder::from_spec(SessionSpec::new(Workload::Histogram {
            base_word: 0,
            indices: Vec::new(),
        }))
    }
}

impl SessionBuilder {
    /// A builder carrying every field of `spec`, with progress off and no
    /// cache.
    pub(crate) fn from_spec(spec: SessionSpec) -> SessionBuilder {
        SessionBuilder {
            spec,
            progress: Progress::off(),
            cache: None,
        }
    }

    /// The machine configuration (defaults to
    /// [`MachineConfig::merrimac`], the paper's Table 1 machine).
    pub fn config(mut self, cfg: MachineConfig) -> SessionBuilder {
        self.spec.config = cfg;
        self
    }

    /// What to simulate. Required.
    pub fn workload(mut self, workload: Workload) -> SessionBuilder {
        self.spec.workload = workload;
        self
    }

    /// Inject faults from `plan` (see `docs/RESILIENCE.md`). An empty plan
    /// is equivalent to no plan: the run is byte-identical to fault-free.
    pub fn faults(mut self, plan: FaultPlan) -> SessionBuilder {
        self.spec.faults = Some(plan);
        self
    }

    /// Force event-horizon fast-forward on or off (default: the
    /// process-wide setting, see [`sa_sim::set_fast_forward_default`]).
    pub fn fast_forward(mut self, enabled: bool) -> SessionBuilder {
        self.spec.exec.fast_forward = Some(enabled);
        self
    }

    /// Returns the builder unchanged; the thread count is ignored. Kept
    /// only for the benchmark package under `bench/benchmark`.
    pub fn node_threads(self, _: usize) -> SessionBuilder {
        self
    }

    /// Take an `sa-probe` component snapshot every `interval` simulated
    /// cycles (0, the default, disables probing). The snapshot lines land
    /// in [`SessionReport::probe_lines`] and stream to the progress sink
    /// when one is attached.
    pub fn probe(mut self, interval: u64) -> SessionBuilder {
        self.spec.probe_interval = interval;
        self
    }

    /// Attach a live progress sink for heartbeats and probe streaming
    /// (default: off).
    pub fn progress(mut self, progress: Progress) -> SessionBuilder {
        self.progress = progress;
        self
    }

    /// Make every scatter request a fetch-op (§3.3): the pre-op value of
    /// each target word is returned in [`SessionReport::fetched`].
    /// Single-node workloads only.
    pub fn fetch(mut self, enabled: bool) -> SessionBuilder {
        self.spec.fetch = enabled;
        self
    }

    /// Memoize this session's run in `cache` (see `docs/PERFORMANCE.md`).
    ///
    /// Deterministic outputs make the cache *exact*: a hit returns a report
    /// equal to what the simulation would produce, for zero simulated work.
    /// The key is [`SessionSpec::fingerprint`], which covers every
    /// execution-relevant input (workload, config, fault plan, fetch mode,
    /// probe cadence) and deliberately excludes knobs the byte-identity
    /// contract proves irrelevant (`fast_forward`, progress sinks).
    /// `skipped_cycles` replays the cached run's value.
    pub fn cache(mut self, cache: Arc<ResultCache>) -> SessionBuilder {
        self.cache = Some(cache);
        self
    }

    /// Validate the combination and produce a runnable [`Session`]. This
    /// is the one semantic check of a job, whether it comes from a builder
    /// chain, a `--spec` file or an `sa-serve` request.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: no workload (an empty
    /// histogram), mismatched trace/values lengths, a zero node count, a
    /// non-power-of-two hypercube, fetch-ops on a multinode workload, or a
    /// job over a size limit ([`MAX_RESULT_WORDS`], [`MAX_TRACE_LEN`],
    /// [`MAX_NODES`]; the error names the limit). Nothing is simulated or
    /// allocated for a rejected job.
    pub fn build(self) -> Result<Session, String> {
        match &self.spec.workload {
            Workload::Histogram { base_word, indices } => {
                if indices.is_empty() {
                    return Err("no workload: the histogram has no indices".into());
                }
                check_size(*base_word, indices)?;
            }
            Workload::Scatter(kernel) => {
                if kernel.indices.len() != kernel.values.len() {
                    return Err(format!(
                        "scatter kernel length mismatch: {} indices vs {} values",
                        kernel.indices.len(),
                        kernel.values.len()
                    ));
                }
                check_size(kernel.base_word, &kernel.indices)?;
            }
            Workload::MultiNode {
                nodes,
                topology,
                trace,
                values,
                ..
            } => {
                if *nodes == 0 {
                    return Err("multinode workload needs at least one node".into());
                }
                if *nodes > MAX_NODES {
                    return Err(format!(
                        "job too large: {nodes} nodes exceed MAX_NODES ({MAX_NODES})"
                    ));
                }
                check_size(0, trace)?;
                if *topology == Topology::Hypercube && !nodes.is_power_of_two() {
                    return Err(format!(
                        "hypercube needs a power-of-two node count, got {nodes}"
                    ));
                }
                if trace.len() != values.len() {
                    return Err(format!(
                        "trace length mismatch: {} indices vs {} values",
                        trace.len(),
                        values.len()
                    ));
                }
                if self.spec.fetch {
                    return Err("fetch-ops are single-node only (§3.3)".into());
                }
            }
        }
        // The key is computed once, and only when a cache will use it.
        let cache = self.cache.map(|cache| (cache, self.spec.fingerprint()));
        Ok(Session {
            spec: self.spec,
            progress: self.progress,
            cache,
        })
    }
}

/// A validated, runnable simulation; built by [`Session::builder`].
#[derive(Clone, Debug)]
pub struct Session {
    spec: SessionSpec,
    progress: Progress,
    /// The attached result cache and this session's key in it.
    cache: Option<(Arc<ResultCache>, Fingerprint)>,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The serializable job description of this session.
    /// `session.spec().to_builder().build()` reproduces an equivalent
    /// session, and the spec's canonical form is this session's cache
    /// fingerprint input.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The canonical cache key for this session, [`SessionSpec::fingerprint`]:
    /// every execution-relevant input in a fixed field order, with large
    /// index/value arrays folded in as SHA-256 digests. Execution-irrelevant
    /// knobs (fast-forward, progress sinks) are excluded — the byte-identity
    /// contract proves they cannot change the report.
    pub fn fingerprint(&self) -> Fingerprint {
        match &self.cache {
            Some((_, fp)) => fp.clone(),
            None => self.spec.fingerprint(),
        }
    }

    /// Run the workload to completion: [`Session::cached`], else
    /// [`Session::simulate`].
    ///
    /// Deterministic: the report is a pure function of the session's
    /// configuration — identical across repeated runs and fast-forward
    /// settings (modulo `skipped_cycles`, which is wall-clock accounting).
    ///
    /// # Panics
    ///
    /// Panics if the simulated machine deadlocks (cycle-limit guard), which
    /// indicates a simulator bug, not bad input.
    pub fn run(self) -> SessionReport {
        match self.cached() {
            Some(report) => report,
            None => self.simulate(),
        }
    }

    /// The lookup half of [`Session::run`]: this session's report from the
    /// attached [`SessionBuilder::cache`], simulating nothing. `None`
    /// without a cache, or on a miss. An entry that does not decode as a
    /// [`SessionReport`] (written under another layout) is evicted and
    /// counted as a miss, so the cache's counters say what was served.
    pub fn cached(&self) -> Option<SessionReport> {
        let (cache, fp) = self.cache.as_ref()?;
        cache.lookup_as(fp, |payload| SessionReport::from_json(&payload).ok())
    }

    /// The simulate-and-store half of [`Session::run`]: simulate the
    /// workload and, with a cache attached, store the report under this
    /// session's fingerprint. A failed store (say, a full disk) degrades to
    /// "no cache", never to a failed run.
    ///
    /// # Panics
    ///
    /// As [`Session::run`].
    pub fn simulate(self) -> SessionReport {
        let report = self.run_uncached();
        if let Some((cache, fp)) = &self.cache {
            let _ = cache.store(fp, &report.to_json());
        }
        report
    }

    fn run_uncached(&self) -> SessionReport {
        let spec = &self.spec;
        match &spec.workload {
            Workload::Histogram { base_word, indices } => {
                self.run_kernel(ScatterKernel::histogram(*base_word, indices.clone()))
            }
            Workload::Scatter(kernel) => self.run_kernel(kernel.clone()),
            Workload::MultiNode {
                nodes,
                network,
                combining,
                topology,
                trace,
                values,
            } => {
                let mut mn =
                    MultiNode::with_topology(spec.config, *nodes, *network, *combining, *topology);
                if let Some(ff) = spec.exec.fast_forward {
                    mn.set_fast_forward(ff);
                }
                // Exactly this session's plan, replacing the process-wide
                // default the constructors applied.
                mn.set_fault_plan(spec.faults.as_ref().unwrap_or(&FaultPlan::empty()));
                let mut probe = self.introspect("multinode");
                let r = mn.run_trace_probed(trace, values, &mut probe);
                let len = trace.iter().copied().max().map_or(0, |m| m as usize + 1);
                let result = (0..len as u64)
                    .map(|w| mn.read_word(Addr::from_word_index(w)))
                    .collect();
                SessionReport {
                    cycles: r.cycles,
                    skipped_cycles: r.skipped_cycles,
                    node_stats: r.node_stats,
                    resilience: r.resilience,
                    result,
                    fetched: Vec::new(),
                    probe_lines: probe.recorder.take_lines(),
                    adds: r.adds,
                    sum_back_lines: r.sum_back_lines,
                }
            }
        }
    }

    /// The introspection bundle for a run: the spec's probe cadence, the
    /// session's progress sink, and no host profiler (profiling is a
    /// bench-binary concern).
    fn introspect(&self, label: &str) -> Introspect {
        Introspect::new(
            label,
            self.spec.probe_interval,
            self.progress.clone(),
            false,
        )
    }

    fn run_kernel(&self, kernel: ScatterKernel) -> SessionReport {
        let spec = &self.spec;
        let mut node = NodeMemSys::new(spec.config, 0, false);
        if let Some(ff) = spec.exec.fast_forward {
            node.set_fast_forward(ff);
        }
        node.set_fault_plan(spec.faults.as_ref().unwrap_or(&FaultPlan::empty()));
        let len = kernel.indices.iter().copied().max().map_or(0, |m| m + 1);
        let base = kernel.base_word;
        let adds = kernel.indices.len() as u64;
        let mut probe = self.introspect("kernel");
        let run = drive_scatter_probed(node, &kernel, spec.fetch, &mut probe);
        let resilience = run.stats.resilience;
        let result = (0..len)
            .map(|w| run.node.store().read_word(Addr::from_word_index(base + w)))
            .collect();
        SessionReport {
            cycles: run.cycles,
            skipped_cycles: run.skipped_cycles,
            node_stats: vec![run.stats],
            resilience,
            result,
            fetched: run.fetched,
            probe_lines: probe.recorder.take_lines(),
            adds,
            sum_back_lines: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_telemetry::OccupancyStats;

    fn plan(json: &str) -> FaultPlan {
        FaultPlan::parse(json).expect("valid plan")
    }

    #[test]
    fn builder_requires_a_workload() {
        assert!(Session::builder().build().unwrap_err().contains("workload"));
    }

    fn build_err(workload: Workload) -> String {
        Session::builder()
            .workload(workload)
            .build()
            .map(|_| ())
            .expect_err("the job is rejected")
    }

    #[test]
    fn oversized_jobs_are_rejected_naming_the_limit() {
        let err = build_err(Workload::Histogram {
            base_word: 0,
            indices: vec![1 << 40],
        });
        assert!(err.contains("MAX_RESULT_WORDS"), "{err}");
        let err = build_err(Workload::Histogram {
            base_word: u64::MAX,
            indices: vec![1],
        });
        assert!(err.contains("MAX_RESULT_WORDS"), "wrapping sum: {err}");
        let err = build_err(Workload::MultiNode {
            nodes: 1_000_000,
            network: NetworkConfig::low(),
            combining: true,
            topology: Topology::Flat,
            trace: vec![0],
            values: vec![1.0],
        });
        assert!(err.contains("MAX_NODES"), "{err}");
        let err = build_err(Workload::Scatter(ScatterKernel::histogram(
            0,
            vec![0; MAX_TRACE_LEN + 1],
        )));
        assert!(err.contains("MAX_TRACE_LEN"), "{err}");
    }

    #[test]
    fn size_limits_admit_the_benchmark_jobs() {
        // The largest benchmark jobs: 1M adds, a 2^22-word range, 8 nodes.
        let indices = vec![(1 << 22) - 1; 1 << 20];
        Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: indices.clone(),
            })
            .build()
            .expect("histogram fits");
        Session::builder()
            .workload(Workload::MultiNode {
                nodes: 8,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Flat,
                values: vec![1.0; indices.len()],
                trace: indices,
            })
            .build()
            .expect("multinode fits");
    }

    #[test]
    fn report_json_round_trip_is_exact() {
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 3,
                indices: (0..700u64).map(|i| (i * 17) % 96).collect(),
            })
            .probe(256)
            .fetch(true)
            .build()
            .expect("valid")
            .run();
        assert!(!report.probe_lines.is_empty());
        assert!(!report.fetched.is_empty());
        let doc = report.to_json();
        let back = SessionReport::from_json(&doc).expect("round trip");
        assert_eq!(back, report);
        // And through actual bytes.
        let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(SessionReport::from_json(&reparsed).unwrap(), report);
    }

    /// `read_counters(counters_json(x)) == x` and `default.add(x) == x`. A
    /// field missing from the record's table fails one of the two.
    fn assert_table_covers_every_field<T: Counters + PartialEq + std::fmt::Debug>(x: T) {
        assert_eq!(T::read_counters("t", &x.counters_json()), Ok(x));
        let mut sum = T::default();
        sum.add(&x);
        assert_eq!(sum, x);
    }

    // Struct literals without `..Default::default()`: a new field breaks the
    // compile here until it gets a distinct value (and a table entry).
    fn occ(base: u64) -> OccupancyStats {
        OccupancyStats {
            busy: base,
            blocked: base + 1,
            idle: base + 2,
            saturated: base + 3,
        }
    }

    #[test]
    fn occupancy_counter_table_is_complete() {
        assert_table_covers_every_field(occ(1));
    }

    #[test]
    fn sa_counter_table_is_complete() {
        assert_table_covers_every_field(SaStats {
            accepted: 1,
            combined: 2,
            reads_issued: 3,
            writes_issued: 4,
            chained: 5,
            stalled_full: 6,
            fetch_ops: 7,
            occupancy_integral: 8,
            occ: occ(9),
        });
    }

    #[test]
    fn cache_counter_table_is_complete() {
        assert_table_covers_every_field(CacheStats {
            read_hits: 1,
            read_misses: 2,
            read_merges: 3,
            write_hits: 4,
            write_arounds: 5,
            write_merges: 6,
            zero_allocs: 7,
            evictions: 8,
            write_backs: 9,
            sum_backs: 10,
            blocked: 11,
            mshr_full: 12,
            occ: occ(13),
        });
    }

    #[test]
    fn dram_counter_table_is_complete() {
        assert_table_covers_every_field(DramStats {
            reads: 1,
            writes: 2,
            row_hits: 3,
            row_misses: 4,
            words_transferred: 5,
            total_latency: 6,
            occ: occ(7),
        });
    }

    #[test]
    fn resilience_counter_table_is_complete() {
        assert_table_covers_every_field(ResilienceStats {
            ecc_corrected: 1,
            ecc_detected: 2,
            ecc_uncorrected: 3,
            mshr_replays: 4,
            net_nacks: 5,
            net_dropped: 6,
            net_recovered: 7,
            net_retries: 8,
            cs_stalls: 9,
            cs_timeouts: 10,
        });
    }

    #[test]
    fn stale_cache_entry_is_recomputed_not_served() {
        let dir = std::env::temp_dir().join(format!("sa-session-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        let build = || {
            Session::builder().workload(Workload::Histogram {
                base_word: 0,
                indices: (0..300u64).map(|i| (i * 7) % 40).collect(),
            })
        };
        let fresh = build().build().expect("valid").run();
        let fp = build().build().expect("valid").fingerprint();
        let text = fresh.to_json().to_string_compact();
        let stale = text.replacen("\"sa\":{", "\"sa\":{\"retired\":1,", 1);
        assert_ne!(stale, text);
        cache
            .store(&fp, &Json::parse(&stale).unwrap())
            .expect("store");
        let served = build()
            .cache(Arc::clone(&cache))
            .build()
            .expect("valid")
            .run();
        assert_eq!(served, fresh);
        assert_eq!(
            (cache.hits(), cache.misses(), cache.stores()),
            (0, 1, 2),
            "a recomputed stale entry is a miss, and it is replaced"
        );
        let entry = cache.lookup(&fp).expect("fresh entry");
        assert_eq!(entry.to_string_compact(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_session_reproduces_the_run_without_simulating() {
        let dir = std::env::temp_dir().join(format!("sa-session-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).expect("cache dir"));
        let build = || {
            Session::builder()
                .workload(Workload::MultiNode {
                    nodes: 2,
                    network: NetworkConfig::low(),
                    combining: true,
                    topology: Topology::Flat,
                    trace: (0..400u64).map(|i| (i * 29) % 128).collect(),
                    values: (0..400).map(|i| 0.5 + (i % 5) as f64).collect(),
                })
                .cache(Arc::clone(&cache))
                .build()
                .expect("valid")
        };
        let cold = build().run();
        assert_eq!((cache.hits(), cache.misses(), cache.stores()), (0, 1, 1));
        let warm = build().run();
        assert_eq!(warm, cold, "a hit must reproduce the run exactly");
        assert_eq!((cache.hits(), cache.misses(), cache.stores()), (1, 1, 1));
        // Uncached run agrees byte-for-byte, proving the cache is exact.
        let uncached = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Flat,
                trace: (0..400u64).map(|i| (i * 29) % 128).collect(),
                values: (0..400).map(|i| 0.5 + (i % 5) as f64).collect(),
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(uncached, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_excludes_execution_irrelevant_knobs() {
        let workload = Workload::Histogram {
            base_word: 0,
            indices: vec![1, 2, 3],
        };
        let base = Session::builder()
            .workload(workload.clone())
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        let unskipped = Session::builder()
            .workload(workload.clone())
            .fast_forward(false)
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_eq!(base, unskipped, "the ff knob must not change the key");
        let other = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: vec![1, 2, 4],
            })
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_ne!(base, other, "workload bytes must change the key");
        let fetched = Session::builder()
            .workload(workload)
            .fetch(true)
            .build()
            .unwrap()
            .fingerprint()
            .digest();
        assert_ne!(base, fetched, "fetch mode changes the report, so the key");
    }

    #[test]
    fn builder_validates_lengths_and_topology() {
        let err = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 3,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Hypercube,
                trace: vec![0],
                values: vec![1.0],
            })
            .build()
            .unwrap_err();
        assert!(err.contains("power-of-two"), "{err}");
        let err = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: false,
                topology: Topology::Flat,
                trace: vec![0, 1],
                values: vec![1.0],
            })
            .build()
            .unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn histogram_session_matches_reference() {
        let indices = vec![0, 1, 1, 2, 1, 4, 4];
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices,
            })
            .build()
            .expect("valid")
            .run();
        assert_eq!(report.result, [1, 3, 1, 0, 2]);
        assert!(report.resilience.is_zero());
        assert!(report.cycles > 0);
    }

    #[test]
    fn report_exposes_bottleneck_attribution() {
        // Single node: the report groups under one "session" scope.
        let report = Session::builder()
            .workload(Workload::Histogram {
                base_word: 0,
                indices: (0..2048u64).map(|i| (i * 11) % 64).collect(),
            })
            .build()
            .expect("valid")
            .run();
        let section = report.bottleneck().expect("occupancy counters present");
        let run = section.get("session").expect("one report per session");
        let bound = run
            .get("bound")
            .and_then(sa_telemetry::Json::as_str)
            .expect("classified");
        assert!(sa_telemetry::BOUND_KINDS.contains(&bound), "{bound}");
        assert!(run.get("resources").is_some());

        // Multi node: per-node scopes fold into the same single report.
        let report = Session::builder()
            .workload(Workload::MultiNode {
                nodes: 2,
                network: NetworkConfig::low(),
                combining: false,
                topology: Topology::Flat,
                trace: (0..600u64).map(|i| (i * 13) % 128).collect(),
                values: vec![1.0; 600],
            })
            .build()
            .expect("valid")
            .run();
        let section = report.bottleneck().expect("multinode occupancy");
        assert!(section.get("session").is_some());
        assert_eq!(
            section.as_obj().map(<[_]>::len),
            Some(1),
            "node scopes must group into one session report"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_none() {
        let workload = Workload::Histogram {
            base_word: 0,
            indices: (0..512u64).map(|i| (i * 7) % 97).collect(),
        };
        let run = |faults: Option<FaultPlan>| {
            let mut b = Session::builder().workload(workload.clone());
            if let Some(p) = faults {
                b = b.faults(p);
            }
            b.build().expect("valid").run()
        };
        let none = run(None);
        let empty = run(Some(FaultPlan::empty()));
        assert_eq!(
            none, empty,
            "empty plan must cost nothing and change nothing"
        );
    }

    #[test]
    fn recoverable_faults_leave_results_bit_identical() {
        let workload = Workload::MultiNode {
            nodes: 4,
            network: NetworkConfig::low(),
            combining: false,
            topology: Topology::Flat,
            trace: (0..1500u64).map(|i| (i * 13) % 256).collect(),
            values: (0..1500).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect(),
        };
        let run = |faults: Option<FaultPlan>, ff: bool| {
            let mut b = Session::builder()
                .workload(workload.clone())
                .fast_forward(ff);
            if let Some(p) = faults {
                b = b.faults(p);
            }
            b.build().expect("valid").run()
        };
        let p = plan(
            r#"{"schema":"sa-faultplan","version":1,"seed":5,"cs_timeout":32,"faults":[
                {"kind":"net_nack","period":4,"max":30},
                {"kind":"net_drop","period":9,"max":15},
                {"kind":"ecc_single","period":6}
            ]}"#,
        );
        let clean = run(None, true);
        let faulty = run(Some(p.clone()), true);
        assert!(faulty.resilience.net_nacks > 0);
        assert!(faulty.resilience.net_dropped > 0);
        assert_eq!(
            clean.result, faulty.result,
            "recoverable faults must not change application results"
        );
        assert!(faulty.cycles > clean.cycles, "recovery costs cycles");
        // And the faulty run itself is identical with fast-forward off
        // (modulo the skipped-cycle accounting).
        let mut stepped = run(Some(p), false);
        assert_eq!(stepped.skipped_cycles, 0);
        stepped.skipped_cycles = faulty.skipped_cycles;
        assert_eq!(faulty, stepped);
    }
}
