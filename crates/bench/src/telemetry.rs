//! Shared `--stats-json` / `--trace` plumbing for the figure binaries.
//!
//! Every binary builds a [`BenchRun`] at startup, mirrors its printed rows
//! into it, records machine statistics under named scopes, and calls
//! [`BenchRun::finish`] last:
//!
//! ```text
//! fig6 --stats-json fig6.json          # versioned sa-stats v1 document
//! fig6 --trace fig6.trace.json         # Chrome trace_event file (Perfetto)
//! fig6 --sample-interval 16 --trace t  # denser cycle sampling
//! fig6 --fast-forward off              # disable event-horizon skipping
//! ```
//!
//! `--fast-forward` (default `on`) controls the event-horizon scheduler: a
//! wall-clock optimization that jumps the simulated clock over provably-idle
//! stretches. Simulated cycle counts, statistics, and figure outputs are
//! byte-identical either way (CI enforces this); `off` exists for debugging
//! and for measuring the speedup itself.
//!
//! With neither flag the run does no extra work. With either flag, `finish`
//! replays a small deterministic histogram — the *canonical workload* — on
//! the binary's machine configuration with tracing and cycle sampling
//! enabled. That run guarantees the stats document always carries
//! scatter-unit, cache, DRAM and queue metrics (under the `canonical.`
//! prefix) regardless of which experiment the binary sweeps, and it is the
//! workload whose timeline `--trace` captures.

use std::fmt::Display;
use std::sync::Arc;

use sa_core::{drive_scatter_probed, NodeMemSys, ScatterKernel, StallBreakdown};
use sa_faults::FaultPlan;
use sa_memo::{Fingerprint, ResultCache};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{
    global_progress, progress_enabled, stats_json_full, validate_stats_json, ChromeTrace,
    HostProfiler, Introspect, Json, MetricsRegistry, ProbeRecorder, ReqTracer, Scope, SeriesSet,
};

use crate::args::Args;
use crate::cli::Cli;

/// Elements in the canonical histogram workload replayed by [`BenchRun::finish`].
pub const CANONICAL_ELEMENTS: u64 = 4096;
/// Index range of the canonical histogram workload.
pub const CANONICAL_RANGE: u64 = 512;
const CANONICAL_SEED: u64 = 0x7E1E_0001;

/// Default request-lifecycle sampling interval when stats or trace output is
/// requested: one in this many requests gets a full stage-by-stage timeline.
/// Override with `--req-sample N` (0 disables request tracing).
pub const DEFAULT_REQ_SAMPLE: u64 = 64;

/// Machine parameters as a JSON object — the `config` block of the stats
/// document. Covers every knob the experiments sweep, so two documents with
/// equal `config` blocks came from identically-configured machines.
pub fn machine_config_json(cfg: &MachineConfig) -> Json {
    let mut o = Json::obj();
    o.push("ghz", Json::Num(cfg.ghz));
    o.push("cache_banks", Json::UInt(cfg.cache.banks as u64));
    o.push("cache_bytes", Json::UInt(cfg.cache.total_bytes));
    o.push("cache_line_bytes", Json::UInt(cfg.cache.line_bytes));
    o.push("cache_ways", Json::UInt(cfg.cache.ways as u64));
    o.push(
        "mshrs_per_bank",
        Json::UInt(cfg.cache.mshrs_per_bank as u64),
    );
    o.push("cs_entries", Json::UInt(cfg.sa.cs_entries as u64));
    o.push("fu_latency", Json::UInt(u64::from(cfg.sa.fu_latency)));
    o.push("dram_channels", Json::UInt(cfg.dram.channels as u64));
    o.push("ag_count", Json::UInt(cfg.ag.count as u64));
    o.push("ag_width", Json::UInt(u64::from(cfg.ag.width)));
    o.push("clusters", Json::UInt(cfg.compute.clusters as u64));
    o
}

/// Per-binary stats/trace collector; see the module docs for the protocol.
#[derive(Debug)]
pub struct BenchRun {
    bench: String,
    cfg: MachineConfig,
    registry: MetricsRegistry,
    rows: Vec<Json>,
    stats_path: Option<String>,
    trace_path: Option<String>,
    sample_interval: u64,
    req_sample: u64,
    latency: Vec<(String, Json)>,
    attribution: Vec<(String, Json)>,
    probe_interval: u64,
    host_profile: bool,
    profiler: HostProfiler,
    cache: Option<Arc<ResultCache>>,
    /// The installed fault plan as JSON (or `Null`) — part of every cache
    /// key, because the plan changes what the simulations compute.
    fault_key: Json,
}

/// What [`BenchRun::finish`] needs from the canonical run regardless of
/// whether it was simulated or replayed from the result cache.
struct CanonicalArtifacts {
    series: SeriesSet,
    trace_json: String,
    trace_events: u64,
}

impl BenchRun {
    /// A collector reading `--stats-json`, `--trace` and `--sample-interval`
    /// from the process arguments. Also installs the process-wide run
    /// controls (`--fast-forward`, `--faults`) via [`Cli`].
    pub fn from_env(bench: &str, cfg: &MachineConfig) -> BenchRun {
        BenchRun::from_cli(bench, cfg, &Cli::from_env())
    }

    /// A collector reading its flags from pre-parsed `args` (routed through
    /// [`Cli`], which installs the process-wide run controls).
    pub fn from_args(bench: &str, cfg: &MachineConfig, args: &Args) -> BenchRun {
        BenchRun::from_cli(bench, cfg, &Cli::from_args(args.clone()))
    }

    /// A collector reading its flags from an already-parsed [`Cli`].
    pub fn from_cli(bench: &str, cfg: &MachineConfig, cli: &Cli) -> BenchRun {
        let args = cli.args();
        let sample_interval = args
            .get_or("sample-interval", sa_core::DEFAULT_SAMPLE_INTERVAL)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
        let req_sample = args
            .get_or("req-sample", DEFAULT_REQ_SAMPLE)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
        let cache = match cli.cache_dir() {
            None => None,
            Some(dir) if cli.probe_interval() > 0 => {
                // Live probe snapshots stream *during* a simulation; a cache
                // hit skips the simulation, so there would be nothing to
                // stream. Disable caching rather than silently going dark.
                eprintln!(
                    "note: result cache at {dir} disabled for this run \
                     (live probing cannot replay from cache)"
                );
                None
            }
            Some(dir) => match ResultCache::open(dir) {
                Ok(c) => Some(Arc::new(c)),
                Err(e) => {
                    eprintln!("warning: cannot open result cache at {dir}: {e}; caching off");
                    None
                }
            },
        };
        BenchRun {
            bench: bench.to_owned(),
            cfg: *cfg,
            registry: MetricsRegistry::new(),
            rows: Vec::new(),
            stats_path: args.raw("stats-json").map(str::to_owned),
            trace_path: args.raw("trace").map(str::to_owned),
            sample_interval,
            req_sample,
            latency: Vec::new(),
            attribution: Vec::new(),
            probe_interval: cli.probe_interval(),
            host_profile: cli.host_profile(),
            profiler: HostProfiler::enabled(cli.host_profile()),
            cache,
            fault_key: cli.fault_plan().map_or(Json::Null, FaultPlan::to_json),
        }
    }

    /// Probe snapshot cadence for this run's simulations (`--probe-interval`,
    /// 0 = off); binaries pass it to their own [`Introspect`] bundles.
    pub fn probe_interval(&self) -> u64 {
        self.probe_interval
    }

    /// Whether the `host_profile` sidecar was requested (`--host-profile`).
    pub fn host_profile_enabled(&self) -> bool {
        self.host_profile
    }

    /// Fold a run's host-time phase attribution into this binary's
    /// `host_profile` sidecar.
    pub fn absorb_host_profile(&mut self, other: &HostProfiler) {
        self.profiler.absorb(other);
    }

    /// The content-addressed result cache, when `--cache`/`SA_CACHE_DIR`
    /// enabled one (and live probing did not veto it). Binaries pass this
    /// to [`crate::sweep::map_cached`].
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_deref()
    }

    /// A cache fingerprint for one of this binary's sweep points. Carries
    /// everything shared by every point — bench name, full machine
    /// configuration, fault plan — plus the caller's point description;
    /// extend it with the point's own parameters (sizes, seeds, input
    /// digests) via the [`Fingerprint`] builder methods. Knobs that cannot
    /// change simulated results (`--jobs`, `--fast-forward`) are
    /// deliberately excluded.
    pub fn point_key(&self, point: &str) -> Fingerprint {
        Fingerprint::new("bench-point")
            .str("bench", &self.bench)
            .str("point", point)
            .field("config", self.cfg.fingerprint_json())
            .field("faults", self.fault_key.clone())
    }

    /// Merge a sweep point's metrics into this binary's registry (counters
    /// add, gauges overwrite, histograms merge element-wise) — replaying
    /// cached points in item order reproduces direct recording exactly.
    pub fn absorb_metrics(&mut self, metrics: &MetricsRegistry) {
        self.registry.merge(metrics);
    }

    /// An [`Introspect`] bundle for one of the binary's own simulations:
    /// the `--probe-interval` cadence (labelled `label`, streaming to the
    /// process-wide progress sink), the progress sink itself, and a
    /// profiler when `--host-profile` was given. Fold the profiler back
    /// with [`BenchRun::absorb_host_profile`] after the run.
    pub fn introspect(&self, label: &str) -> Introspect {
        let progress = global_progress();
        Introspect {
            recorder: ProbeRecorder::every(self.probe_interval)
                .with_label(label)
                .with_sink(progress.clone()),
            progress,
            profiler: HostProfiler::enabled(self.host_profile),
        }
    }

    /// The request-lifecycle sampling interval the binary should run its
    /// kernels with (`MachineConfig::req_sample`): the `--req-sample` flag,
    /// or [`DEFAULT_REQ_SAMPLE`] when any output file was requested and 0
    /// (off) otherwise — disabled runs must not pay for tracing.
    pub fn req_sample(&self) -> u64 {
        if self.enabled() {
            self.req_sample
        } else {
            0
        }
    }

    /// Whether any telemetry consumer exists: an output file, or a live
    /// probe cadence (`--probe-interval`/`--probe-listen`) — a watcher
    /// with no snapshots to look at would defeat the point, so the
    /// canonical run in [`BenchRun::finish`] fires for probes too.
    pub fn enabled(&self) -> bool {
        self.stats_path.is_some() || self.trace_path.is_some() || self.probe_interval > 0
    }

    /// Print one table row (like [`crate::row`]) and mirror it into the
    /// stats document's `rows` array as `{"label": ..., "cells": {...}}`.
    pub fn row(&mut self, label: impl Display, cells: &[(&str, String)]) {
        crate::row(&label, cells);
        let mut obj = Json::obj();
        obj.push("label", Json::Str(label.to_string()));
        let mut c = Json::obj();
        for (name, value) in cells {
            c.push(name, Json::Str(value.clone()));
        }
        obj.push("cells", c);
        // Every finished table row doubles as a progress event, so any
        // binary that prints rows reports liveness with no per-binary code.
        if progress_enabled() {
            let mut ev = Json::obj();
            ev.push("kind", Json::Str("row".to_owned()));
            ev.push("bench", Json::Str(self.bench.clone()));
            ev.push("row", obj.clone());
            global_progress().emit(&ev);
        }
        self.rows.push(obj);
    }

    /// A metrics scope rooted at `path` for recording experiment counters.
    pub fn scope(&mut self, path: &str) -> Scope<'_> {
        self.registry.scope(path)
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Record a kernel's per-stage latency report (`latency.<kernel>` in the
    /// v2 document). No-op when the tracer recorded nothing, so untraced
    /// runs emit no empty sections.
    pub fn record_latency(&mut self, kernel: &str, tracer: &ReqTracer) {
        if tracer.issued_len() > 0 {
            self.latency
                .push((kernel.to_owned(), tracer.latency_json()));
        }
    }

    /// Record a kernel's stall-attribution table (`attribution.<kernel>` in
    /// the v2 document).
    pub fn record_attribution(&mut self, kernel: &str, stalls: &StallBreakdown) {
        self.attribution.push((kernel.to_owned(), stalls.to_json()));
    }

    /// Run the canonical workload if needed, write the requested files, and
    /// consume the collector. Prints a note per file written; exits nonzero
    /// on I/O failure so scripts notice.
    pub fn finish(mut self) {
        if !self.enabled() {
            // Sweep points may still have hit the cache — report that even
            // though there are no files to write.
            self.emit_cache_counts();
            return;
        }
        let art = self.run_canonical();
        if let Some(path) = self.trace_path.clone() {
            if let Err(e) = std::fs::write(&path, art.trace_json.as_bytes()) {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote Chrome trace ({} events) to {path}", art.trace_events);
        }
        if let Some(path) = self.stats_path.clone() {
            let section = |entries: Vec<(String, Json)>| {
                if entries.is_empty() {
                    None
                } else {
                    Some(Json::Obj(entries))
                }
            };
            let latency = section(std::mem::take(&mut self.latency));
            let attribution = section(std::mem::take(&mut self.attribution));
            let host_profile = if self.host_profile {
                let mut hp = self.profiler.to_json();
                // Cache effectiveness rides on the nondeterministic sidecar
                // only — the deterministic document body must stay
                // byte-identical between cached and fresh runs.
                if let Some(counts) = self.cache_counts_json() {
                    hp.push("cache", counts);
                }
                Some(hp)
            } else {
                None
            };
            let mut doc = stats_json_full(
                &self.bench,
                machine_config_json(&self.cfg),
                &self.registry,
                Some(&art.series),
                latency,
                attribution,
                host_profile,
                Json::Arr(std::mem::take(&mut self.rows)),
            );
            sa_telemetry::attach_bottleneck(&mut doc);
            validate_stats_json(&doc).expect("internal error: stats document must validate");
            if let Err(e) = std::fs::write(&path, doc.to_string_pretty()) {
                eprintln!("error: could not write stats to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote sa-stats v{} document to {path}",
                sa_telemetry::STATS_SCHEMA_VERSION
            );
        }
        self.emit_cache_counts();
    }

    /// Hit/miss/store counters as a JSON object, or `None` without a cache.
    fn cache_counts_json(&self) -> Option<Json> {
        let cache = self.cache.as_ref()?;
        let mut o = Json::obj();
        o.push("dir", Json::Str(cache.dir().display().to_string()));
        o.push("hits", Json::UInt(cache.hits()));
        o.push("misses", Json::UInt(cache.misses()));
        o.push("stores", Json::UInt(cache.stores()));
        Some(o)
    }

    /// Report cache effectiveness on the nondeterministic channels: a
    /// `{"kind":"cache"}` progress event plus a stderr note.
    fn emit_cache_counts(&self) {
        let Some(counts) = self.cache_counts_json() else {
            return;
        };
        let cache = self.cache.as_ref().expect("counts imply a cache");
        eprintln!(
            "result cache: {} hits, {} misses, {} stores in {}",
            cache.hits(),
            cache.misses(),
            cache.stores(),
            cache.dir().display()
        );
        if progress_enabled() {
            let mut ev = Json::obj();
            ev.push("kind", Json::Str("cache".to_owned()));
            ev.push("bench", Json::Str(self.bench.clone()));
            ev.push("cache", counts);
            global_progress().emit(&ev);
        }
    }

    /// The canonical-run cache fingerprint: the workload constants, the
    /// full machine configuration, the fault plan, and the two telemetry
    /// knobs that shape the recorded document (`--sample-interval`,
    /// `--req-sample`). Execution-irrelevant knobs are excluded — a cached
    /// replay answers for any `--jobs`/`--fast-forward` combination.
    fn canonical_key(&self) -> Fingerprint {
        Fingerprint::new("bench-canonical")
            .u64("elements", CANONICAL_ELEMENTS)
            .u64("range", CANONICAL_RANGE)
            .u64("seed", CANONICAL_SEED)
            .field("config", self.cfg.fingerprint_json())
            .field("faults", self.fault_key.clone())
            .u64("sample_interval", self.sample_interval)
            .u64("req_sample", self.req_sample())
    }

    /// The canonical workload's artifacts — replayed from the result cache
    /// when possible, simulated (and stored) otherwise. Either path leaves
    /// the registry, latency, and attribution sections in the same state,
    /// so the finished document is byte-identical.
    fn run_canonical(&mut self) -> CanonicalArtifacts {
        let Some(cache) = self.cache.clone() else {
            return self.compute_canonical().0;
        };
        let key = self.canonical_key();
        if let Some(payload) = cache.lookup(&key) {
            if let Some(art) = self.adopt_canonical(&payload) {
                return art;
            }
        }
        let (art, payload) = self.compute_canonical();
        let _ = cache.store(&key, &payload);
        art
    }

    /// Simulate the deterministic canonical histogram on this binary's
    /// machine configuration, traced and cycle-sampled; record its metrics
    /// under the `canonical.` scope and build the cache payload.
    fn compute_canonical(&mut self) -> (CanonicalArtifacts, Json) {
        let mut rng = Rng64::new(CANONICAL_SEED);
        let indices: Vec<u64> = (0..CANONICAL_ELEMENTS)
            .map(|_| rng.below(CANONICAL_RANGE))
            .collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let mut node = NodeMemSys::with_tracer(self.cfg, 0, false, ChromeTrace::new());
        node.set_sample_interval(self.sample_interval);
        node.set_req_sample(self.req_sample());
        let mut probe = self.introspect("canonical");
        let run = drive_scatter_probed(node, &kernel, false, &mut probe);
        self.profiler.absorb(&probe.profiler);
        let mut canon = MetricsRegistry::new();
        {
            let mut scope = canon.scope("canonical");
            run.node.record_metrics(&mut scope);
            scope.counter("cycles", run.cycles);
            scope.counter("drain_cycles", run.drain_cycles);
            scope.counter("skipped_cycles", run.skipped_cycles);
        }
        self.registry.merge(&canon);
        let tracer = run.node.req_tracer();
        let latency = if tracer.issued_len() > 0 {
            Some(tracer.latency_json())
        } else {
            None
        };
        if let Some(l) = &latency {
            self.latency.push(("canonical".to_owned(), l.clone()));
        }
        let attribution = run.stall_breakdown().to_json();
        self.attribution
            .push(("canonical".to_owned(), attribution.clone()));
        let series = run.node.series().clone();
        let trace = run.node.into_tracer();
        let trace_json = trace.to_json_string();
        let trace_events = trace.event_count() as u64;
        let mut payload = Json::obj();
        payload.push("metrics", canon.to_json());
        payload.push("series", series.to_json());
        payload.push("latency", latency.unwrap_or(Json::Null));
        payload.push("attribution", attribution);
        payload.push("trace_events", Json::UInt(trace_events));
        payload.push("trace", Json::Str(trace_json.clone()));
        (
            CanonicalArtifacts {
                series,
                trace_json,
                trace_events,
            },
            payload,
        )
    }

    /// Replay a cached canonical payload into this collector; `None` when
    /// the payload is malformed (the caller recomputes).
    fn adopt_canonical(&mut self, payload: &Json) -> Option<CanonicalArtifacts> {
        let canon = MetricsRegistry::from_json(payload.get("metrics")?).ok()?;
        let series = SeriesSet::from_json(payload.get("series")?).ok()?;
        let latency = payload.get("latency")?;
        let attribution = payload.get("attribution")?.clone();
        let trace_events = payload.get("trace_events")?.as_u64()?;
        let trace_json = payload.get("trace")?.as_str()?.to_owned();
        self.registry.merge(&canon);
        if !matches!(latency, Json::Null) {
            self.latency.push(("canonical".to_owned(), latency.clone()));
        }
        self.attribution.push(("canonical".to_owned(), attribution));
        Some(CanonicalArtifacts {
            series,
            trace_json,
            trace_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn disabled_without_flags() {
        let b = BenchRun::from_args("t", &MachineConfig::merrimac(), &parse("--quick"));
        assert!(!b.enabled());
        b.finish(); // must be a no-op, not a crash
    }

    #[test]
    fn flags_are_parsed() {
        let a = parse("--stats-json out.json --trace t.json --sample-interval 16");
        let b = BenchRun::from_args("t", &MachineConfig::merrimac(), &a);
        assert!(b.enabled());
        assert_eq!(b.stats_path.as_deref(), Some("out.json"));
        assert_eq!(b.trace_path.as_deref(), Some("t.json"));
        assert_eq!(b.sample_interval, 16);
    }

    #[test]
    fn canonical_run_populates_required_scopes() {
        let a = parse("--stats-json x.json");
        let mut b = BenchRun::from_args("t", &MachineConfig::merrimac(), &a);
        let art = b.run_canonical();
        assert!(!art.series.is_empty());
        assert!(art.trace_events > 0);
        for needle in [
            "canonical.sa.",
            "canonical.cache.",
            "canonical.dram.",
            "canonical.queue.",
        ] {
            assert!(
                b.metrics().iter().any(|(p, _)| p.contains(needle)),
                "missing {needle}"
            );
        }
    }

    #[test]
    fn cached_canonical_replays_byte_identically() {
        let dir =
            std::env::temp_dir().join(format!("sa-benchrun-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let argv = format!("--stats-json x.json --cache {}", dir.display());
        let run = |expect_counts: (u64, u64, u64)| {
            let mut b = BenchRun::from_args("t", &MachineConfig::merrimac(), &parse(&argv));
            let art = b.run_canonical();
            let cache = b.cache().expect("cache enabled");
            assert_eq!(
                (cache.hits(), cache.misses(), cache.stores()),
                expect_counts
            );
            (
                b.metrics().to_json().to_string_compact(),
                art.series.to_json().to_string_compact(),
                art.trace_json,
                art.trace_events,
                b.latency.len(),
                b.attribution.len(),
            )
        };
        let cold = run((0, 1, 1));
        let warm = run((1, 0, 0));
        assert_eq!(cold, warm, "warm canonical replay must be byte-identical");

        // No cache at all: same bytes again.
        let mut plain = BenchRun::from_args(
            "t",
            &MachineConfig::merrimac(),
            &parse("--stats-json x.json"),
        );
        let art = plain.run_canonical();
        assert!(plain.cache().is_none());
        assert_eq!(plain.metrics().to_json().to_string_compact(), cold.0);
        assert_eq!(art.trace_json, cold.2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_probing_disables_the_cache() {
        let b = BenchRun::from_args(
            "t",
            &MachineConfig::merrimac(),
            &parse("--cache /tmp/never-created-sa-cache --probe-interval 64"),
        );
        assert!(b.cache().is_none());
        assert!(!std::path::Path::new("/tmp/never-created-sa-cache").exists());
    }

    #[test]
    fn rows_mirror_cells() {
        let mut b = BenchRun::from_args("t", &MachineConfig::merrimac(), &parse(""));
        b.row("n=4", &[("time", "1.00us".to_owned())]);
        assert_eq!(b.rows.len(), 1);
        let label = b.rows[0].get("label").and_then(Json::as_str);
        assert_eq!(label, Some("n=4"));
        let cell = b.rows[0]
            .get("cells")
            .and_then(|c| c.get("time"))
            .and_then(Json::as_str);
        assert_eq!(cell, Some("1.00us"));
    }

    #[test]
    fn config_json_reflects_machine() {
        let mut cfg = MachineConfig::merrimac();
        cfg.sa.cs_entries = 32;
        let j = machine_config_json(&cfg);
        assert_eq!(j.get("cs_entries").and_then(Json::as_u64), Some(32));
        assert_eq!(j.get("cache_banks").and_then(Json::as_u64), Some(8));
    }
}
