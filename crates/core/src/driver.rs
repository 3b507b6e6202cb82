//! A minimal driver that runs one scatter kernel on a [`NodeMemSys`].
//!
//! The full stream-program executor (gather → kernel → scatter pipelines,
//! address generators, compute overlap) lives in the `sa-proc` crate; this
//! driver issues a bare scatter-add stream at address-generator bandwidth
//! and measures its completion, which is exactly what the scatter-add-only
//! experiments (§4.4, §4.5) need, and what unit/property tests use to check
//! atomicity end to end.

use std::collections::VecDeque;
use std::fmt;

use sa_sim::{Addr, Clock, Cycle, MachineConfig, MemOp, MemRequest, Origin, ScalarKind, ScatterOp};
use sa_telemetry::{Introspect, Json, NullTrace, ProbeRegistry, TraceSink};

use crate::node::{NodeMemSys, NodeStats};

/// A data-parallel scatter operation: `a[b[i]] ∘= c[i]` for all `i`
/// (the paper's `scatterAdd(a, b, c)` with `a` starting at `base_word`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScatterKernel {
    /// First word index of the target array `a`.
    pub base_word: u64,
    /// The index array `b` (word offsets into `a`).
    pub indices: Vec<u64>,
    /// The value array `c` as raw bits; must be the same length as
    /// `indices`.
    pub values: Vec<u64>,
    /// Interpretation of the words.
    pub kind: ScalarKind,
    /// Reduction to apply (the paper's scatter-add is [`ScatterOp::Add`]).
    pub op: ScatterOp,
}

impl ScatterKernel {
    /// A histogram kernel: every index contributes `+1` (integer).
    pub fn histogram(base_word: u64, indices: Vec<u64>) -> ScatterKernel {
        let n = indices.len();
        ScatterKernel {
            base_word,
            indices,
            values: vec![1u64; n],
            kind: ScalarKind::I64,
            op: ScatterOp::Add,
        }
    }

    /// A floating-point accumulation kernel (superposition): `a[b[i]] += c[i]`.
    pub fn superposition(base_word: u64, indices: Vec<u64>, values: &[f64]) -> ScatterKernel {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        ScatterKernel {
            base_word,
            indices,
            values: values.iter().map(|v| v.to_bits()).collect(),
            kind: ScalarKind::F64,
            op: ScatterOp::Add,
        }
    }
}

/// Where a contended run lost cycles, as stall *events* normalized by run
/// length. Event counters are a proxy for blocked cycles: each rejected
/// attempt costs the rejecting requester (at least) one retry cycle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles the run took (the normalization base).
    pub cycles: u64,
    /// Cache-bank rejections because the MSHR file or an MSHR's target list
    /// was full.
    pub mshr_full: u64,
    /// Bank input-queue rejections (hot-bank conflicts back-pressuring the
    /// address generators).
    pub bank_conflict: u64,
    /// Scatter-add submissions rejected because the combining store was full.
    pub cs_full: u64,
    /// Network ejection-port stalls (zero on a single node).
    pub net_credit: u64,
}

impl StallBreakdown {
    /// Derive the breakdown from a node's aggregated statistics.
    pub fn from_stats(stats: &NodeStats, cycles: u64) -> StallBreakdown {
        StallBreakdown {
            cycles,
            mshr_full: stats.cache.mshr_full,
            bank_conflict: stats.bank_in.rejected,
            cs_full: stats.sa.stalled_full,
            net_credit: 0,
        }
    }

    /// Add network-credit stalls (multi-node runs).
    pub fn with_net_credit(mut self, net_credit: u64) -> StallBreakdown {
        self.net_credit = net_credit;
        self
    }

    /// `events` as a percentage of run cycles, capped at 100.
    pub fn pct(&self, events: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (events as f64 * 100.0 / self.cycles as f64).min(100.0)
        }
    }

    /// Event count for a canonical stall-cause key from
    /// [`sa_telemetry::STALL_CAUSES`].
    ///
    /// # Panics
    ///
    /// Panics on a key outside the canonical table (programming error).
    pub fn events_for(&self, key: &str) -> u64 {
        match key {
            "mshr_full" => self.mshr_full,
            "bank_conflict" => self.bank_conflict,
            "cs_full" => self.cs_full,
            "net_credit" => self.net_credit,
            other => panic!("unknown stall cause key {other:?}"),
        }
    }

    /// As the `attribution.<kernel>` object of a v2 stats document:
    /// `{"cycles": N, "<cause>": {"events": E, "pct": P}, ...}`, causes in
    /// [`sa_telemetry::STALL_CAUSES`] order.
    pub fn to_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("cycles", Json::UInt(self.cycles));
        for cause in &sa_telemetry::STALL_CAUSES {
            let events = self.events_for(cause.key);
            let mut e = Json::obj();
            e.push("events", Json::UInt(events));
            e.push("pct", Json::Num(self.pct(events)));
            o.push(cause.key, e);
        }
        o
    }
}

impl fmt::Display for StallBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stall breakdown over {} cycles:", self.cycles)?;
        let mut causes = sa_telemetry::STALL_CAUSES.iter().peekable();
        while let Some(cause) = causes.next() {
            let events = self.events_for(cause.key);
            write!(
                f,
                "  {:<22}{:>6.1}%  ({} events)",
                format!("{}:", cause.label),
                self.pct(events),
                events
            )?;
            if causes.peek().is_some() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Outcome of [`drive_scatter`].
#[derive(Debug)]
pub struct RunResult<T: TraceSink = NullTrace> {
    /// Cycles until the last scatter request was acknowledged by a
    /// scatter-add unit (the paper's completion point — the processor may
    /// proceed once all acks arrive).
    pub cycles: u64,
    /// Cycles until every final sum reached memory (drain time).
    pub drain_cycles: u64,
    /// Cycles the run loop fast-forwarded over instead of ticking (0 with
    /// fast-forward off; wall-clock accounting only — every other field is
    /// byte-identical either way).
    pub skipped_cycles: u64,
    /// Aggregated machine statistics.
    pub stats: NodeStats,
    /// Old values returned by fetch-ops, in completion order
    /// (empty unless `fetch` was set).
    pub fetched: Vec<(u64, u64)>,
    /// The node, for inspecting the final memory image.
    pub node: NodeMemSys<T>,
    /// Base word of the result array (copied from the kernel).
    pub base_word: u64,
}

impl<T: TraceSink> RunResult<T> {
    /// Where this run's cycles went (stall attribution).
    pub fn stall_breakdown(&self) -> StallBreakdown {
        StallBreakdown::from_stats(&self.stats, self.drain_cycles)
    }

    /// Print the stall-breakdown summary to stdout.
    pub fn print_stall_summary(&self) {
        println!("{}", self.stall_breakdown());
    }
}

impl<T: TraceSink> RunResult<T> {
    /// The result array as `n` integers.
    pub fn result_i64(&self, n: usize) -> Vec<i64> {
        self.node
            .store()
            .extract_i64(Addr::from_word_index(self.base_word), n)
    }

    /// The result array as `n` doubles.
    pub fn result_f64(&self, n: usize) -> Vec<f64> {
        self.node
            .store()
            .extract_f64(Addr::from_word_index(self.base_word), n)
    }

    /// Execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        Cycle(self.cycles).as_micros(1.0)
    }
}

/// Sequential reference semantics of a [`ScatterKernel`] — what a scalar
/// loop would compute. Hardware reordering must produce the same integer
/// results and, for floating point, the same value up to reassociation.
pub fn scatter_reference(kernel: &ScatterKernel, result_len: usize) -> Vec<u64> {
    let mut out = vec![0u64; result_len];
    for (i, &idx) in kernel.indices.iter().enumerate() {
        let slot = &mut out[idx as usize];
        *slot = sa_sim::combine(*slot, kernel.values[i], kernel.kind, kernel.op);
    }
    out
}

/// Run `kernel` on a fresh [`NodeMemSys`] with configuration `cfg`,
/// issuing requests at full address-generator bandwidth
/// (`ag.count × ag.width` per cycle), and measure completion.
///
/// With `fetch` set, every request is a fetch-op and the pre-op values are
/// collected in [`RunResult::fetched`] (the §3.3 extension).
///
/// # Panics
///
/// Panics if `indices` and `values` lengths differ.
pub fn drive_scatter(cfg: &MachineConfig, kernel: &ScatterKernel, fetch: bool) -> RunResult {
    drive_scatter_with(NodeMemSys::new(*cfg, 0, false), kernel, fetch)
}

/// [`drive_scatter`] over a caller-built node — the entry point for traced
/// runs (`NodeMemSys::with_tracer`) or custom sampling intervals.
///
/// # Panics
///
/// Panics if `indices` and `values` lengths differ.
pub fn drive_scatter_with<T: TraceSink>(
    node: NodeMemSys<T>,
    kernel: &ScatterKernel,
    fetch: bool,
) -> RunResult<T> {
    drive_scatter_probed(node, kernel, fetch, &mut Introspect::off())
}

/// [`drive_scatter_with`] with live introspection attached: probe snapshots
/// at the recorder's cadence (the event-horizon skip is clamped so due
/// cycles are always ticked — snapshot bytes are identical with
/// fast-forward on or off), wall-clock-throttled progress heartbeats, and
/// host-time attribution of the inject/tick/drain/skip phases. With
/// [`Introspect::off`] (what [`drive_scatter_with`] passes) every
/// introspection site reduces to one branch.
///
/// # Panics
///
/// Panics if `indices` and `values` lengths differ.
pub fn drive_scatter_probed<T: TraceSink>(
    mut node: NodeMemSys<T>,
    kernel: &ScatterKernel,
    fetch: bool,
    probe: &mut Introspect,
) -> RunResult<T> {
    assert_eq!(
        kernel.indices.len(),
        kernel.values.len(),
        "index/value length mismatch"
    );
    let cfg = *node.config();
    let mut clock = Clock::with_limit(4_000_000_000);
    let n = kernel.indices.len();
    let issue_per_cycle = (cfg.ag.count as u32 * cfg.ag.width) as usize;

    let mut pending: VecDeque<MemRequest> = kernel
        .indices
        .iter()
        .zip(&kernel.values)
        .enumerate()
        .map(|(i, (&idx, &bits))| MemRequest {
            id: i as u64,
            addr: Addr::from_word_index(kernel.base_word + idx),
            op: MemOp::Scatter {
                bits,
                kind: kernel.kind,
                op: kernel.op,
                fetch,
            },
            origin: Origin::AddrGen {
                node: 0,
                ag: i % cfg.ag.count,
            },
        })
        .collect();

    let mut acked = 0usize;
    let mut fetched = Vec::new();
    let mut ack_time = 0u64;
    let mut skipped_cycles = 0u64;
    let fast_forward = node.fast_forward();

    loop {
        let now = clock.advance();
        probe.profiler.time("inject", || {
            let mut issued = 0;
            while issued < issue_per_cycle {
                let Some(req) = pending.pop_front() else {
                    break;
                };
                match node.inject_traced(req, now) {
                    Ok(()) => issued += 1,
                    Err(req) => {
                        pending.push_front(req);
                        break;
                    }
                }
            }
        });
        probe.profiler.time("tick", || node.tick(now));
        probe.profiler.time("drain", || {
            while let Some(c) = node.pop_completion() {
                acked += 1;
                if fetch {
                    fetched.push((c.id, c.bits));
                }
                if acked == n {
                    ack_time = c.at.raw();
                }
            }
        });
        if probe.recorder.due(now.raw()) {
            let mut reg = ProbeRegistry::new();
            reg.register("node0", &node);
            probe.recorder.record(reg, now.raw(), skipped_cycles);
        }
        if probe.progress.is_on() && now.raw() & 0x3FFF == 0 {
            let elapsed = probe.progress.elapsed().as_secs_f64();
            probe.progress.heartbeat(|o| {
                o.push("cycle", Json::UInt(now.raw()));
                o.push("acked", Json::UInt(acked as u64));
                o.push("total", Json::UInt(n as u64));
                o.push("skipped_cycles", Json::UInt(skipped_cycles));
                let rate = if elapsed > 0.0 {
                    now.raw() as f64 / elapsed
                } else {
                    0.0
                };
                o.push("sim_cycles_per_sec", Json::Num(rate));
                let ff = if now.raw() > 0 {
                    skipped_cycles as f64 / now.raw() as f64
                } else {
                    0.0
                };
                o.push("ff_ratio", Json::Num(ff));
            });
        }
        if pending.is_empty() && node.is_idle() {
            break;
        }
        // Event-horizon fast-forward: once everything is issued, jump to the
        // cycle before the node's next event. While requests are still
        // pending, every cycle retries injection (mutating queue-rejection
        // counters), so the loop must tick through those cycles. The horizon
        // is clamped to the next due probe cycle so snapshot cadence sees
        // every due cycle ticked regardless of skipping.
        if fast_forward && pending.is_empty() {
            if let Some(mut h) = node.next_event(now) {
                if let Some(due) = probe.recorder.next_due() {
                    h = h.min(Cycle(due.max(now.raw() + 1)));
                }
                if h > now + 1 {
                    let k = h.raw() - now.raw() - 1;
                    probe.profiler.time("skip", || {
                        node.skip_cycles(now, k);
                    });
                    clock.skip_to(Cycle(h.raw() - 1));
                    skipped_cycles += k;
                }
            }
        }
    }

    // Materialize the coherent memory image for result extraction.
    node.flush_to_store();

    let startup = u64::from(cfg.ag.startup_cycles);
    RunResult {
        cycles: ack_time + startup,
        drain_cycles: clock.now().raw() + startup,
        skipped_cycles,
        stats: node.stats(),
        fetched,
        base_word: kernel.base_word,
        node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merrimac() -> MachineConfig {
        MachineConfig::merrimac()
    }

    #[test]
    fn histogram_matches_reference() {
        let mut rng = sa_sim::Rng64::new(42);
        let indices: Vec<u64> = (0..500).map(|_| rng.below(128)).collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let run = drive_scatter(&merrimac(), &kernel, false);
        let reference = scatter_reference(&kernel, 128);
        let got = run.result_i64(128);
        let expect: Vec<i64> = reference.iter().map(|&b| b as i64).collect();
        assert_eq!(got, expect);
        assert!(run.cycles > 0 && run.drain_cycles >= run.cycles);
    }

    #[test]
    fn superposition_f64_sums_match_to_reassociation() {
        let mut rng = sa_sim::Rng64::new(7);
        let n = 300;
        let indices: Vec<u64> = (0..n).map(|_| rng.below(32)).collect();
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let kernel = ScatterKernel::superposition(64, indices, &values);
        let run = drive_scatter(&merrimac(), &kernel, false);
        let got = run.result_f64(32);
        let reference: Vec<f64> = scatter_reference(&kernel, 32)
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        for (g, r) in got.iter().zip(&reference) {
            assert!(
                (g - r).abs() < 1e-9 * (1.0 + r.abs()),
                "reordered sum {g} deviates from reference {r}"
            );
        }
    }

    #[test]
    fn fetch_mode_returns_unique_slots() {
        // Parallel queue allocation: fetch-add of 1 on one counter hands out
        // distinct, dense slot numbers.
        let kernel = ScatterKernel {
            base_word: 0,
            indices: vec![0; 40],
            values: vec![1; 40],
            kind: ScalarKind::I64,
            op: ScatterOp::Add,
        };
        let run = drive_scatter(&merrimac(), &kernel, true);
        let mut slots: Vec<i64> = run.fetched.iter().map(|&(_, b)| b as i64).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..40).collect::<Vec<i64>>());
        assert_eq!(run.result_i64(1), vec![40]);
    }

    #[test]
    fn narrow_range_is_slower_than_wide_range() {
        // The Figure 7 hot-bank/serialization effect at small index ranges.
        let mut rng = sa_sim::Rng64::new(3);
        let n = 2048;
        let narrow: Vec<u64> = (0..n).map(|_| rng.below(2)).collect();
        let wide: Vec<u64> = (0..n).map(|_| rng.below(4096)).collect();
        let run_n = drive_scatter(&merrimac(), &ScatterKernel::histogram(0, narrow), false);
        let run_w = drive_scatter(&merrimac(), &ScatterKernel::histogram(0, wide), false);
        assert!(
            run_n.cycles > 2 * run_w.cycles,
            "2 bins ({}) must be slower than 4096 bins ({})",
            run_n.cycles,
            run_w.cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        // §3.3: the hardware ordering "is consistent in the hardware and
        // repeatable for each run of the program".
        let mut rng = sa_sim::Rng64::new(9);
        let indices: Vec<u64> = (0..256).map(|_| rng.below(64)).collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let a = drive_scatter(&merrimac(), &kernel, false);
        let b = drive_scatter(&merrimac(), &kernel, false);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.result_i64(64), b.result_i64(64));
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        let mut rng = sa_sim::Rng64::new(11);
        let indices: Vec<u64> = (0..2048).map(|_| rng.below(4096)).collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let mut on = NodeMemSys::new(merrimac(), 0, false);
        on.set_fast_forward(true);
        let mut off = NodeMemSys::new(merrimac(), 0, false);
        off.set_fast_forward(false);
        let a = drive_scatter_with(on, &kernel, false);
        let b = drive_scatter_with(off, &kernel, false);
        assert_eq!(b.skipped_cycles, 0, "ff off must tick every cycle");
        assert!(a.skipped_cycles > 0, "drain phase should fast-forward");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.drain_cycles, b.drain_cycles);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.result_i64(4096), b.result_i64(4096));
    }

    #[test]
    fn contended_kernel_shows_stalls() {
        // Every add targets the same two words: one hot bank, so the bank
        // input queue rejects injections and the combining store backs up.
        let indices: Vec<u64> = (0..2048).map(|i| i % 2).collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let run = drive_scatter(&merrimac(), &kernel, false);
        let sb = run.stall_breakdown();
        assert_eq!(sb.cycles, run.drain_cycles);
        assert!(
            sb.bank_conflict > 0,
            "hot-bank kernel must reject injections: {sb:?}"
        );
        assert!(
            sb.bank_conflict + sb.cs_full + sb.mshr_full > sb.cycles / 10,
            "a contended run should be visibly stalled: {sb:?}"
        );
        assert_eq!(sb.net_credit, 0, "single node has no network stalls");
        let text = sb.to_string();
        for needle in [
            "stall breakdown",
            "MSHR full",
            "bank conflict",
            "combining-store full",
            "network credit",
        ] {
            assert!(text.contains(needle), "summary missing '{needle}':\n{text}");
        }
        // An uncontended spread kernel stalls far less on bank conflicts.
        let spread: Vec<u64> = (0..2048u64).map(|i| (i * 97) % 4096).collect();
        let calm = drive_scatter(&merrimac(), &ScatterKernel::histogram(0, spread), false);
        let calm_sb = calm.stall_breakdown();
        assert!(
            calm_sb.pct(calm_sb.bank_conflict) < sb.pct(sb.bank_conflict),
            "spread kernel ({calm_sb:?}) should stall less than hot kernel ({sb:?})"
        );
    }

    #[test]
    fn traced_run_samples_series_and_tracks() {
        use sa_telemetry::{ChromeTrace, Json};
        let indices: Vec<u64> = (0..1024u64).map(|i| (i * 13) % 512).collect();
        let kernel = ScatterKernel::histogram(0, indices);
        let node = NodeMemSys::with_tracer(merrimac(), 0, false, ChromeTrace::new());
        let run = drive_scatter_with(node, &kernel, false);
        let series = run.node.series();
        assert!(!series.is_empty(), "sampling must produce series");
        assert!(series.iter().any(|(n, _)| n.contains("sa.cs_residency")));
        assert!(series.iter().any(|(n, _)| n.contains("dram.bus_util")));
        let trace = run.node.tracer();
        assert!(trace.event_count() > 0);
        let doc = Json::parse(&trace.to_json_string()).expect("valid trace JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let tracks: std::collections::BTreeSet<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        let cfg = merrimac();
        let bank_tracks = tracks.iter().filter(|t| t.contains(".cache.bank")).count();
        let chan_tracks = tracks.iter().filter(|t| t.contains(".dram.chan")).count();
        assert_eq!(bank_tracks, cfg.cache.banks, "one track per cache bank");
        assert_eq!(chan_tracks, cfg.dram.channels, "one track per DRAM channel");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let kernel = ScatterKernel {
            base_word: 0,
            indices: vec![0, 1],
            values: vec![1],
            kind: ScalarKind::I64,
            op: ScatterOp::Add,
        };
        let _ = drive_scatter(&merrimac(), &kernel, false);
    }
}
