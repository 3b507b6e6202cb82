//! Shared `--stats-json` / `--trace` plumbing for the figure binaries.
//!
//! Every binary builds a [`BenchRun`] at startup — it owns the binary's one
//! parsed [`Cli`] — runs its sweeps through [`BenchRun::map`], mirrors its
//! printed rows into it, records machine statistics under named scopes, and
//! calls [`BenchRun::finish`] last:
//!
//! ```text
//! fig6 --stats-json fig6.json          # versioned sa-stats document
//! fig6 --trace fig6.trace.json         # Chrome trace_event file (Perfetto)
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
//! simulates a small deterministic histogram — the *canonical workload* —
//! on the binary's machine configuration with tracing on, cycle series
//! sampled every [`sa_core::DEFAULT_SAMPLE_INTERVAL`] cycles and 1 in
//! [`DEFAULT_REQ_SAMPLE`] requests traced. That run guarantees the stats
//! document always carries scatter-unit, cache, DRAM and queue metrics
//! (under the `canonical.` prefix) regardless of which experiment the
//! binary sweeps, and it is the workload whose timeline `--trace` captures.

use std::fmt::Display;

use sa_core::{drive_scatter_probed, NodeMemSys, ScatterKernel, StallBreakdown};
use sa_sim::{MachineConfig, Rng64};
use sa_telemetry::{
    stats_json, validate_stats_json, ChromeTrace, HostProfiler, Introspect, Json, MetricsRegistry,
    ReqTracer, Scope, SeriesSet,
};

use crate::args::Args;
use crate::cli::{Cli, COMMON_FLAGS, USAGE};

/// Elements in the canonical histogram workload replayed by [`BenchRun::finish`].
pub const CANONICAL_ELEMENTS: u64 = 4096;
/// Index range of the canonical histogram workload.
pub const CANONICAL_RANGE: u64 = 512;
const CANONICAL_SEED: u64 = 0x7E1E_0001;

/// Request-lifecycle sampling interval when stats or trace output is
/// requested: one in this many requests gets a full stage-by-stage timeline.
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

/// Per-binary stats/trace collector and owner of the binary's parsed
/// command line; see the module docs for the protocol.
#[derive(Debug)]
pub struct BenchRun {
    bench: String,
    cfg: MachineConfig,
    cli: Cli,
    registry: MetricsRegistry,
    rows: Vec<Json>,
    latency: Vec<(String, Json)>,
    attribution: Vec<(String, Json)>,
    profiler: HostProfiler,
}

impl BenchRun {
    /// A collector for a binary that takes only the common flags: parses
    /// the process arguments, installs the process-wide run controls and
    /// dispatches `--spec` (see [`Cli::from_args`]).
    pub fn from_env(bench: &str, cfg: &MachineConfig) -> BenchRun {
        let cli = Cli::from_args(Args::from_env(), COMMON_FLAGS, USAGE);
        BenchRun::from_cli(bench, cfg, cli)
    }

    /// A collector owning an already-parsed [`Cli`].
    pub fn from_cli(bench: &str, cfg: &MachineConfig, cli: Cli) -> BenchRun {
        BenchRun {
            bench: bench.to_owned(),
            cfg: *cfg,
            registry: MetricsRegistry::new(),
            rows: Vec::new(),
            latency: Vec::new(),
            attribution: Vec::new(),
            profiler: HostProfiler::enabled(cli.host_profile()),
            cli,
        }
    }

    /// The binary's parsed command line.
    pub fn cli(&self) -> &Cli {
        &self.cli
    }

    /// Whether a reduced-size smoke run was requested (`--quick`).
    pub fn quick(&self) -> bool {
        self.cli.quick()
    }

    /// Run `f` over every sweep point on `--jobs` worker threads and return
    /// the results in item order, with `--progress` point events (see
    /// [`crate::sweep::map_jobs`]).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        crate::sweep::map_jobs(self.cli.jobs(), &self.cli.progress(), items, f)
    }

    /// Fold a run's host-time phase attribution into this binary's
    /// `host_profile` sidecar.
    pub fn absorb_host_profile(&mut self, other: &HostProfiler) {
        self.profiler.absorb(other);
    }

    /// An [`Introspect`] bundle for one of the binary's own simulations:
    /// the `--probe-interval` cadence (labelled `label`, streaming to the
    /// `--progress` sink), that sink itself, and a profiler when
    /// `--host-profile` was given. Fold the profiler back with
    /// [`BenchRun::absorb_host_profile`] after the run.
    pub fn introspect(&self, label: &str) -> Introspect {
        Introspect::new(
            label,
            self.cli.probe_interval(),
            self.cli.progress(),
            self.cli.host_profile(),
        )
    }

    /// The request-lifecycle sampling interval the binary should run its
    /// kernels with (`MachineConfig::req_sample`): [`DEFAULT_REQ_SAMPLE`]
    /// when any telemetry consumer exists and 0 (off) otherwise — disabled
    /// runs must not pay for tracing.
    pub fn req_sample(&self) -> u64 {
        if self.enabled() {
            DEFAULT_REQ_SAMPLE
        } else {
            0
        }
    }

    /// Whether any telemetry consumer exists: an output file, or a live
    /// probe cadence (`--probe-interval`) — a watcher
    /// with no snapshots to look at would defeat the point, so the
    /// canonical run in [`BenchRun::finish`] fires for probes too.
    pub fn enabled(&self) -> bool {
        let args = self.cli.args();
        args.raw("stats-json").is_some()
            || args.raw("trace").is_some()
            || self.cli.probe_interval() > 0
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
        let progress = self.cli.progress();
        if progress.is_on() {
            let mut ev = Json::obj();
            ev.push("kind", Json::Str("row".to_owned()));
            ev.push("bench", Json::Str(self.bench.clone()));
            ev.push("row", obj.clone());
            progress.emit(&ev);
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
            return;
        }
        let (series, trace) = self.run_canonical();
        if let Some(path) = self.cli.args().raw("trace") {
            if let Err(e) = std::fs::write(path, trace.to_json_string()) {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "wrote Chrome trace ({} events) to {path}",
                trace.event_count()
            );
        }
        if let Some(path) = self.cli.args().raw("stats-json").map(str::to_owned) {
            let section = |entries: Vec<(String, Json)>| {
                if entries.is_empty() {
                    None
                } else {
                    Some(Json::Obj(entries))
                }
            };
            let latency = section(std::mem::take(&mut self.latency));
            let attribution = section(std::mem::take(&mut self.attribution));
            let host_profile = self.cli.host_profile().then(|| self.profiler.to_json());
            let mut doc = stats_json(
                &self.bench,
                machine_config_json(&self.cfg),
                &self.registry,
                Some(&series),
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
    }

    /// Simulate the deterministic canonical histogram on this binary's
    /// machine configuration, traced and cycle-sampled, and record its
    /// metrics, latency and attribution under `canonical`. Returns the
    /// run's cycle series and Chrome trace.
    fn run_canonical(&mut self) -> (SeriesSet, ChromeTrace) {
        let mut rng = Rng64::new(CANONICAL_SEED);
        let indices: Vec<u64> = (0..CANONICAL_ELEMENTS)
            .map(|_| rng.below(CANONICAL_RANGE))
            .collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let cfg = MachineConfig {
            req_sample: self.req_sample(),
            ..self.cfg
        };
        let node = NodeMemSys::with_tracer(cfg, 0, false, ChromeTrace::new());
        let mut probe = self.introspect("canonical");
        let run = drive_scatter_probed(node, &kernel, false, &mut probe);
        self.profiler.absorb(&probe.profiler);
        {
            let mut scope = self.registry.scope("canonical");
            run.node.record_metrics(&mut scope);
            scope.counter("cycles", run.cycles);
            scope.counter("drain_cycles", run.drain_cycles);
            scope.counter("skipped_cycles", run.skipped_cycles);
        }
        self.record_latency("canonical", run.node.req_tracer());
        self.record_attribution("canonical", &run.stall_breakdown());
        let series = run.node.series().clone();
        (series, run.node.into_tracer().expect("traced node"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &str) -> BenchRun {
        let args = Args::parse(argv.split_whitespace().map(str::to_owned));
        let cli = Cli::try_from_args(args, COMMON_FLAGS).expect("argv parses");
        BenchRun::from_cli("t", &MachineConfig::merrimac(), cli)
    }

    #[test]
    fn disabled_without_flags() {
        let b = run("--quick");
        assert!(b.quick());
        assert!(!b.enabled());
        b.finish(); // must be a no-op, not a crash
    }

    #[test]
    fn flags_are_parsed() {
        let b = run("--trace t.json");
        assert!(b.enabled());
        assert_eq!(b.req_sample(), DEFAULT_REQ_SAMPLE);
        assert!(run("--stats-json out.json").enabled());
        assert!(run("--probe-interval 64").enabled());
    }

    #[test]
    fn canonical_run_populates_required_scopes() {
        let mut b = run("--stats-json x.json");
        let (series, trace) = b.run_canonical();
        assert!(!series.is_empty());
        assert!(trace.event_count() > 0);
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
        assert_eq!((b.latency.len(), b.attribution.len()), (1, 1));
    }

    #[test]
    fn jobs_flag_reaches_the_sweep_executor() {
        let caller = std::thread::current().id();
        let on_caller = |b: &BenchRun| {
            b.map((0..8).collect(), |_: u32| {
                std::thread::current().id() == caller
            })
        };
        assert!(on_caller(&run("--jobs 1")).iter().all(|&same| same));
        assert!(on_caller(&run("--jobs 2")).iter().all(|&same| !same));
    }

    #[test]
    fn rows_mirror_cells() {
        let mut b = run("");
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
