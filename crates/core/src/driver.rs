//! A minimal driver that runs one scatter kernel on a [`NodeMemSys`].
//!
//! The full stream-program executor (gather → kernel → scatter pipelines,
//! address generators, compute overlap) lives in the `sa-proc` crate; this
//! driver issues a bare scatter-add stream at address-generator bandwidth
//! and measures its completion, which is exactly what the scatter-add-only
//! experiments (§4.4, §4.5) need, and what unit/property tests use to check
//! atomicity end to end.

use std::fmt;

use sa_sim::{
    Addr, Cycle, Machine, MachineConfig, MemOp, MemRequest, Origin, ScalarKind, ScatterOp,
};
use sa_telemetry::{HostProfiler, Introspect, Json, ProbeRegistry};

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
pub struct RunResult {
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
    pub node: NodeMemSys,
    /// Base word of the result array (copied from the kernel).
    pub base_word: u64,
}

impl RunResult {
    /// Where this run's cycles went (stall attribution).
    pub fn stall_breakdown(&self) -> StallBreakdown {
        StallBreakdown::from_stats(&self.stats, self.drain_cycles)
    }

    /// Print the stall-breakdown summary to stdout.
    pub fn print_stall_summary(&self) {
        println!("{}", self.stall_breakdown());
    }
}

impl RunResult {
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
    drive_scatter_probed(
        NodeMemSys::new(*cfg, 0, false),
        kernel,
        fetch,
        &mut Introspect::off(),
    )
}

/// [`drive_scatter`] over a caller-built node (traced runs via
/// `NodeMemSys::with_tracer`, custom sampling intervals, a fast-forward
/// override) with live introspection attached (see [`sa_sim::run`]):
/// probe snapshots, heartbeats, and host-time attribution of the
/// inject/tick/drain/skip phases.
///
/// # Panics
///
/// Panics if `indices` and `values` lengths differ.
pub fn drive_scatter_probed(
    node: NodeMemSys,
    kernel: &ScatterKernel,
    fetch: bool,
    probe: &mut Introspect,
) -> RunResult {
    assert_eq!(
        kernel.indices.len(),
        kernel.values.len(),
        "index/value length mismatch"
    );
    let cfg = *node.config();
    let fast_forward = node.fast_forward();
    let mut m = Driver {
        node,
        kernel,
        next: 0,
        ag_count: cfg.ag.count,
        issue_per_cycle: (cfg.ag.count as u32 * cfg.ag.width) as usize,
        fetch,
        acked: 0,
        fetched: Vec::new(),
        ack_time: 0,
    };
    let end = sa_sim::run(&mut m, fast_forward, probe);

    // Materialize the coherent memory image for result extraction.
    m.node.flush_to_store();

    let startup = u64::from(cfg.ag.startup_cycles);
    RunResult {
        cycles: m.ack_time + startup,
        drain_cycles: end.cycles + startup,
        skipped_cycles: end.skipped_cycles,
        stats: m.node.stats(),
        fetched: m.fetched,
        base_word: kernel.base_word,
        node: m.node,
    }
}

/// The scatter driver's run state: the node and a cursor into the kernel.
/// Requests are built as they are injected; a rejected one is rebuilt, with
/// the same id, on the next cycle.
struct Driver<'k> {
    node: NodeMemSys,
    kernel: &'k ScatterKernel,
    /// Index of the next request to inject (every earlier one was accepted).
    next: usize,
    ag_count: usize,
    issue_per_cycle: usize,
    fetch: bool,
    acked: usize,
    fetched: Vec<(u64, u64)>,
    ack_time: u64,
}

impl Driver<'_> {
    /// The kernel's `i`-th scatter request.
    fn request(&self, i: usize) -> MemRequest {
        let k = self.kernel;
        MemRequest {
            id: i as u64,
            addr: Addr::from_word_index(k.base_word + k.indices[i]),
            op: MemOp::Scatter {
                bits: k.values[i],
                kind: k.kind,
                op: k.op,
                fetch: self.fetch,
            },
            origin: Origin::AddrGen {
                node: 0,
                ag: i % self.ag_count,
            },
        }
    }

    fn total(&self) -> usize {
        self.kernel.indices.len()
    }

    fn all_injected(&self) -> bool {
        self.next == self.total()
    }
}

impl Machine for Driver<'_> {
    fn step(&mut self, now: Cycle, prof: &mut HostProfiler) {
        prof.time("inject", || {
            let end = self.total().min(self.next + self.issue_per_cycle);
            while self.next < end && self.node.inject(self.request(self.next), now).is_ok() {
                self.next += 1;
            }
        });
        prof.time("tick", || self.node.tick(now));
        prof.time("drain", || {
            while let Some(c) = self.node.pop_completion() {
                self.acked += 1;
                if self.fetch {
                    self.fetched.push((c.id, c.bits));
                }
                if self.acked == self.total() {
                    self.ack_time = c.at.raw();
                }
            }
        });
    }

    fn end_of_cycle(&mut self, _: &mut HostProfiler) -> bool {
        self.all_injected() && self.node.is_idle()
    }

    /// While requests are still pending, every cycle retries injection
    /// (mutating queue-rejection counters), so those cycles are ticked.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        if self.all_injected() {
            self.node.next_event(now)
        } else {
            None
        }
    }

    fn skip(&mut self, now: Cycle, k: u64) {
        self.node.skip_cycles(now, k);
    }

    fn register(&self, reg: &mut ProbeRegistry) {
        reg.register("node0", &self.node);
    }

    fn heartbeat_fields(&self, o: &mut Json) {
        o.push("acked", Json::UInt(self.acked as u64));
        o.push("total", Json::UInt(self.total() as u64));
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
        let a = drive_scatter_probed(on, &kernel, false, &mut Introspect::off());
        let b = drive_scatter_probed(off, &kernel, false, &mut Introspect::off());
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
        let run = drive_scatter_probed(node, &kernel, false, &mut Introspect::off());
        let series = run.node.series();
        assert!(!series.is_empty(), "sampling must produce series");
        assert!(series.iter().any(|(n, _)| n.contains("sa.cs_residency")));
        assert!(series.iter().any(|(n, _)| n.contains("dram.bus_util")));
        let trace = run.node.tracer().expect("traced node");
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
