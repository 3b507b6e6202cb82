//! One node's memory system: address-interleaved cache banks, a scatter-add
//! unit in front of each bank (Figure 4a), and the DRAM channels behind them.
//!
//! Each cycle is stepped serially over per-bank [`lane`](crate::lane)s: the
//! DRAM channels, then every lane's front phase, then every lane's step
//! phase, all in bank order.

use std::collections::VecDeque;

use sa_cache::{CacheBank, CacheStats, SumBack};
use sa_faults::{FaultPlan, FaultSite, ResilienceStats};
use sa_mem::{BackingStore, DramChannel, DramStats};
use sa_sim::{
    Addr, BoundedQueue, Cycle, MachineConfig, MemOp, MemRequest, MemResponse, Origin, QueueStats,
};
use sa_telemetry::{NullTrace, ReqStage, ReqTracer, Scope, SeriesSet, TraceSink};

use crate::lane::{lane_front, step_lane, BankLane, LaneParams};
use crate::unit::{SaStats, ScatterAddUnit};

/// Depth of each bank's input queue (requests from the address generators
/// and, in multi-node runs, the network interface).
const BANK_IN_DEPTH: usize = 8;

/// Sampling interval (cycles) used when a tracer is installed without an
/// explicit [`NodeMemSys::set_sample_interval`] call.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 64;

/// Aggregated statistics of a [`NodeMemSys`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Merged scatter-add unit counters.
    pub sa: SaStats,
    /// Merged cache bank counters.
    pub cache: CacheStats,
    /// Merged DRAM channel counters.
    pub dram: DramStats,
    /// Merged bank input queue statistics.
    pub bank_in: QueueStats,
    /// Merged resilience counters (ECC corrections, MSHR replays, stalls);
    /// all zero unless a fault plan is installed.
    pub resilience: ResilienceStats,
}

impl NodeStats {
    /// Total DRAM words moved (the "Mem References" the paper reports count
    /// word accesses issued by the program; this counts actual DRAM traffic).
    pub fn dram_words(&self) -> u64 {
        self.dram.words_transferred
    }

    /// Record the aggregated counters into a telemetry scope, under the
    /// `sa.*`, `cache.*`, `dram.*`, and `queue.bank_in.*` sub-scopes.
    /// Resilience counters appear under `resilience.*` only when nonzero,
    /// so fault-free runs keep byte-identical stats output.
    pub fn record(&self, scope: &mut Scope<'_>) {
        self.sa.record(&mut scope.scope("sa"));
        self.cache.record(&mut scope.scope("cache"));
        self.dram.record(&mut scope.scope("dram"));
        self.bank_in.record(&mut scope.scope("queue.bank_in"));
        if !self.resilience.is_zero() {
            self.resilience.record(&mut scope.scope("resilience"));
        }
    }
}

/// A single node of the clustered data-parallel machine (Figure 2): the
/// memory-side of one stream processor.
///
/// Requests are injected per cycle by the address generators (or by the
/// simple driver in [`drive_scatter`](crate::drive_scatter)); completions are
/// drained with [`pop_completion`](Self::pop_completion). Scatter requests
/// are acknowledged when their addition is performed inside the scatter-add
/// unit; plain writes are posted (acknowledged on acceptance by the cache);
/// reads complete when data returns.
#[derive(Debug)]
pub struct NodeMemSys<T: TraceSink = NullTrace> {
    cfg: MachineConfig,
    node: usize,
    combining: bool,
    /// Per-bank lanes (bank + scatter-add unit + input queue).
    lanes: Vec<BankLane>,
    channels: Vec<DramChannel>,
    store: BackingStore,
    completions: VecDeque<MemResponse>,
    /// Node count when part of a multi-node machine (`None` = standalone).
    /// With homing installed, combining mode only zero-allocates *remote*
    /// lines — locally-homed scatter-adds (including arriving sum-backs)
    /// read their true memory value (§3.2: "if a remote memory value has to
    /// be brought into the cache, it is simply allocated with a value of
    /// 0"). Without homing, a combining node treats every line as
    /// combinable (the single-node testing configuration).
    n_nodes: Option<usize>,
    tracer: T,
    /// Request-lifecycle tracer (see [`ReqTracer`]); disabled unless
    /// [`MachineConfig::req_sample`] or [`set_req_sample`](Self::set_req_sample)
    /// turns it on. Runtime-gated so the untraced hot loop pays one integer
    /// compare per stamp site.
    req_trace: ReqTracer,
    /// Cycles between occupancy samples; 0 disables sampling entirely, so
    /// the untraced hot loop pays a single integer compare per tick.
    sample_interval: u64,
    next_sample: u64,
    series: SeriesSet,
    /// Per-channel `words_transferred` at the previous sample, for bus
    /// utilization deltas.
    last_dram_words: Vec<u64>,
    /// Whether run loops driving this node may fast-forward over cycles in
    /// which [`NodeMemSys::next_event`] proves nothing can change. Seeded
    /// from [`sa_sim::fast_forward_default`] at construction.
    fast_forward: bool,
    /// Whether a non-empty fault plan is installed (gates the per-tick
    /// watchdog scan so fault-free runs pay one branch).
    faults_active: bool,
    /// Watchdog threshold for fault-injected combining-store stalls.
    cs_timeout: u64,
}

impl NodeMemSys {
    /// Build the memory system of node `node` with configuration `cfg`,
    /// without tracing (the [`NullTrace`] sink).
    ///
    /// `combining` enables the multi-node cache-combining optimization of
    /// §3.2: scatter-add targets are zero-allocated in the local cache and
    /// evictions become [`SumBack`]s. Combining only supports
    /// [`ScatterOp::Add`](sa_sim::ScatterOp::Add) (zero is its identity).
    pub fn new(cfg: MachineConfig, node: usize, combining: bool) -> NodeMemSys {
        NodeMemSys::with_tracer(cfg, node, combining, NullTrace)
    }
}

impl<T: TraceSink> NodeMemSys<T> {
    /// Build the memory system with an event-trace sink attached. Sampling
    /// starts at [`DEFAULT_SAMPLE_INTERVAL`]; tune with
    /// [`set_sample_interval`](Self::set_sample_interval).
    pub fn with_tracer(
        cfg: MachineConfig,
        node: usize,
        combining: bool,
        tracer: T,
    ) -> NodeMemSys<T> {
        let lanes = (0..cfg.cache.banks)
            .map(|b| BankLane {
                index: b,
                bank: CacheBank::new(cfg.cache, node, b),
                sa: ScatterAddUnit::new(cfg.sa),
                bank_in: BoundedQueue::new(BANK_IN_DEPTH),
                rr_sa_first: false,
            })
            .collect();
        let channels = (0..cfg.dram.channels)
            .map(|_| DramChannel::new(cfg.dram))
            .collect();
        let sample_interval = if T::ENABLED {
            DEFAULT_SAMPLE_INTERVAL
        } else {
            0
        };
        let mut sys = NodeMemSys {
            node,
            combining,
            lanes,
            channels,
            store: BackingStore::new(),
            completions: VecDeque::new(),
            n_nodes: None,
            tracer,
            req_trace: ReqTracer::every(cfg.req_sample),
            sample_interval,
            next_sample: 0,
            series: SeriesSet::new(sample_interval),
            last_dram_words: vec![0; cfg.dram.channels],
            fast_forward: sa_sim::fast_forward_default(),
            faults_active: false,
            cs_timeout: sa_faults::DEFAULT_CS_TIMEOUT,
            cfg,
        };
        if let Some(plan) = sa_faults::default_plan() {
            sys.set_fault_plan(&plan);
        }
        sys
    }

    /// Install the fault plan's schedules for this node: per-channel DRAM
    /// ECC faults, per-unit combining-store stalls, and the stall watchdog
    /// threshold. [`NodeMemSys::with_tracer`] applies the process-wide
    /// [`sa_faults::default_plan`] automatically; call this to override it.
    /// Every schedule is keyed by `(plan seed, site, node, component)`, so
    /// fault decisions are reproducible regardless of stepping order or
    /// fast-forward.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (c, ch) in self.channels.iter_mut().enumerate() {
            ch.set_fault_injector(plan.injector(FaultSite::DramRead, self.node as u64, c as u64));
        }
        for (b, lane) in self.lanes.iter_mut().enumerate() {
            lane.sa.set_fault_injector(plan.injector(
                FaultSite::CsEntry,
                self.node as u64,
                b as u64,
            ));
        }
        self.cs_timeout = plan.cs_timeout;
        self.faults_active = !plan.is_empty();
    }

    /// Enable or disable event-horizon fast-forward for run loops driving
    /// this node (wall-clock only; simulated results are identical either
    /// way). Overrides the process-wide default for this instance.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether run loops may fast-forward over provably-idle cycles.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Set the occupancy sampling interval in cycles (0 disables sampling).
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sample_interval = interval;
        self.next_sample = 0;
        self.series = SeriesSet::new(interval);
    }

    /// The cycle-sampled occupancy series gathered so far.
    pub fn series(&self) -> &SeriesSet {
        &self.series
    }

    /// The attached trace sink.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Consume the node and return its trace sink.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Set the request-lifecycle sampling interval: one in `sample` requests
    /// is traced (0 disables). Overrides [`MachineConfig::req_sample`].
    pub fn set_req_sample(&mut self, sample: u64) {
        self.req_trace = ReqTracer::every(sample);
    }

    /// The request-lifecycle records gathered so far.
    pub fn req_tracer(&self) -> &ReqTracer {
        &self.req_trace
    }

    /// Take the request-lifecycle tracer, leaving a disabled one behind
    /// (harvested into run reports at the end of a kernel).
    pub fn take_req_trace(&mut self) -> ReqTracer {
        std::mem::take(&mut self.req_trace)
    }

    /// Declare this node part of an `n`-node machine with line-interleaved
    /// address homing (`home = line mod n`). Affects which lines combining
    /// mode treats as remote.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the node index is out of range.
    pub fn set_nodes(&mut self, n: usize) {
        assert!(n > 0, "need at least one node");
        assert!(self.node < n, "node index {} out of range {n}", self.node);
        self.n_nodes = Some(n);
    }

    /// The home node of an address under line-interleaved homing
    /// (this node when homing is not installed).
    pub fn home_of(&self, addr: Addr) -> usize {
        match self.n_nodes {
            Some(n) => (addr.line_index(self.cfg.cache.line_bytes) % n as u64) as usize,
            None => self.node,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// This node's index.
    pub fn node_index(&self) -> usize {
        self.node
    }

    /// The bank that serves `addr`.
    pub fn bank_of(&self, addr: Addr) -> usize {
        self.cfg
            .cache
            .bank_of_line(addr.line_index(self.cfg.cache.line_bytes))
    }

    /// Functional view of this node's memory (for loading inputs and
    /// checking results).
    pub fn store(&self) -> &BackingStore {
        &self.store
    }

    /// Mutable functional view of this node's memory.
    pub fn store_mut(&mut self) -> &mut BackingStore {
        &mut self.store
    }

    /// The node-level parameters a lane step needs.
    fn lane_params(&self) -> LaneParams {
        LaneParams {
            node: self.node,
            combining: self.combining,
            n_nodes: self.n_nodes,
            line_bytes: self.cfg.cache.line_bytes,
            faults_active: self.faults_active,
            cs_timeout: self.cs_timeout,
        }
    }

    /// Inject one request into its bank's input queue.
    ///
    /// # Errors
    ///
    /// Returns the request back when the bank queue is full (the address
    /// generator stalls).
    ///
    /// # Panics
    ///
    /// Panics if a scatter request uses a non-`Add` reduction while the node
    /// is in combining mode (zero-allocate assumes the additive identity).
    pub fn inject(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if self.combining {
            if let MemOp::Scatter { op, .. } = req.op {
                assert_eq!(
                    op,
                    sa_sim::ScatterOp::Add,
                    "cache combining requires the additive identity"
                );
            }
        }
        let bank = self.bank_of(req.addr);
        self.lanes[bank].bank_in.try_push(req)
    }

    /// [`inject`](Self::inject), recording the request's lifecycle: an
    /// [`ReqStage::Issued`] stamp on the first attempt (idempotent across
    /// stall retries) and an [`ReqStage::Enqueued`] stamp on acceptance.
    ///
    /// # Errors
    ///
    /// Returns the request back when the bank queue is full, exactly as
    /// [`inject`](Self::inject) does.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`inject`](Self::inject).
    pub fn inject_traced(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let id = req.id;
        self.req_trace.issue(id, self.node, now.raw());
        let r = self.inject(req);
        if r.is_ok() {
            self.req_trace.stamp(id, ReqStage::Enqueued, now.raw());
        }
        r
    }

    /// Whether bank `bank`'s input queue can take one more request.
    pub fn can_inject(&self, addr: Addr) -> bool {
        self.lanes[self.bank_of(addr)].bank_in.can_accept()
    }

    /// Free input-queue slots at the bank serving `addr` — all words of one
    /// cache line share a bank, so a caller injecting a whole line (a
    /// sum-back application) must check this against the word count.
    pub fn inject_capacity(&self, addr: Addr) -> usize {
        self.lanes[self.bank_of(addr)].bank_in.free()
    }

    /// Advance the whole memory system by one cycle: DRAM channels first,
    /// then every lane's front phase in bank order, then every lane's step
    /// phase in bank order (see [`lane`](crate::lane) for why this equals
    /// the interleaved per-bank loop).
    pub fn tick(&mut self, now: Cycle) {
        let params = self.lane_params();
        let line_bytes = self.cfg.cache.line_bytes;
        let dram_cfg = self.cfg.dram;
        let NodeMemSys {
            lanes,
            channels,
            store,
            completions,
            req_trace,
            tracer,
            ..
        } = self;

        // 1. DRAM channels produce fills / acknowledgements.
        for ch in channels.iter_mut() {
            if let Some(resp) = ch.tick(now, store) {
                match resp.origin {
                    Origin::CacheBank { bank, .. } => lanes[bank].bank.on_mem_response(resp),
                    other => panic!("unexpected DRAM response origin {other:?}"),
                }
            }
        }

        // 2+3. Front phase: bank tick + DRAM command submission.
        for lane in lanes.iter_mut() {
            lane_front(lane, now, channels, dram_cfg, line_bytes, req_trace);
        }

        // 4-8. Lane-local step phase.
        for lane in lanes.iter_mut() {
            step_lane(lane, now, &params, completions, req_trace, tracer);
        }

        // Occupancy sampling (off unless a sample interval is set).
        if self.sample_interval != 0 && now.raw() >= self.next_sample {
            self.next_sample = now.raw() + self.sample_interval;
            self.sample(now);
        }
    }

    /// Take one occupancy sample: per-bank queue and combining-store levels,
    /// per-channel bus words, and whole-node series.
    fn sample(&mut self, now: Cycle) {
        let node = self.node;
        let cycle = now.raw();
        let mut queue_occ = 0u64;
        let mut cs_residency = 0u64;
        let mut fu_depth = 0u64;
        for (b, lane) in self.lanes.iter().enumerate() {
            let q = lane.bank_in.len() as u64;
            let cs = lane.sa.occupancy() as u64;
            queue_occ += q;
            cs_residency += cs;
            fu_depth += lane.sa.fu_depth() as u64;
            if self.tracer.enabled() {
                let track = format!("node{node}.cache.bank{b}");
                self.tracer
                    .counter(&track, "queue_occupancy", cycle, q as f64);
                self.tracer
                    .counter(&track, "cs_residency", cycle, cs as f64);
            }
        }
        let mut bus_words = 0u64;
        for c in 0..self.channels.len() {
            let words = self.channels[c].stats().words_transferred;
            let delta = words - self.last_dram_words[c];
            self.last_dram_words[c] = words;
            bus_words += delta;
            if self.tracer.enabled() {
                let track = format!("node{node}.dram.chan{c}");
                self.tracer
                    .counter(&track, "bus_words", cycle, delta as f64);
            }
        }
        // Fraction of the node's peak DRAM bandwidth used this interval.
        let peak_words = self.cfg.dram.channel_rate.words_per_cycle()
            * self.channels.len() as f64
            * self.sample_interval as f64;
        let bus_util = if peak_words > 0.0 {
            bus_words as f64 / peak_words
        } else {
            0.0
        };
        let prefix = format!("node{node}");
        self.series.push(
            &format!("{prefix}.queue.bank_in.occupancy"),
            cycle,
            queue_occ as f64,
        );
        self.series.push(
            &format!("{prefix}.sa.cs_residency"),
            cycle,
            cs_residency as f64,
        );
        self.series
            .push(&format!("{prefix}.sa.fu_depth"), cycle, fu_depth as f64);
        self.series
            .push(&format!("{prefix}.dram.bus_util"), cycle, bus_util);
    }

    /// Next completed request (scatter ack, read data, or posted write ack).
    pub fn pop_completion(&mut self) -> Option<MemResponse> {
        self.completions.pop_front()
    }

    /// Next evicted partial-sum line from any bank (combining mode); the
    /// multi-node system forwards these to the home node.
    pub fn pop_sum_back(&mut self) -> Option<(usize, SumBack)> {
        for (b, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(sb) = lane.bank.pop_sum_back() {
                return Some((b, sb));
            }
        }
        None
    }

    /// Flush every partial-sum line from every bank — the final
    /// flush-with-sum-back synchronization step of §3.2.
    pub fn flush_sum_backs(&mut self) -> Vec<SumBack> {
        self.lanes
            .iter_mut()
            .flat_map(|lane| lane.bank.flush_sum_backs())
            .collect()
    }

    /// Write every dirty cache line back into the functional store and
    /// invalidate the cache — the zero-time verification flush used at the
    /// end of a run so [`NodeMemSys::store`] shows the coherent image.
    /// Partial-sum lines (combining mode) are *not* flushed here; use
    /// [`NodeMemSys::flush_sum_backs`] for those.
    pub fn flush_to_store(&mut self) {
        for lane in &mut self.lanes {
            for (base, data) in lane.bank.flush_dirty() {
                self.store.write_line(base, &data);
            }
        }
    }

    /// Coherent read of one word: the cache copy if resident, else memory.
    pub fn read_coherent(&self, addr: Addr) -> u64 {
        let bank = self.bank_of(addr);
        self.lanes[bank]
            .bank
            .probe(addr)
            .unwrap_or_else(|| self.store.read_word(addr))
    }

    /// Whether every queue, bank, unit, and channel is empty (completions
    /// included — drain them first).
    pub fn is_idle(&self) -> bool {
        self.completions.is_empty()
            && self
                .lanes
                .iter()
                .all(|lane| lane.bank_in.is_empty() && lane.bank.is_idle() && lane.sa.is_idle())
            && self.channels.iter().all(|c| c.is_idle())
    }

    /// Earliest future cycle at which this node can change state on its own
    /// (the event horizon). `None` means the node is fully drained and only
    /// external input can wake it; a driver may then fast-forward its clock.
    ///
    /// Conservative by construction — it may report a cycle earlier than the
    /// first real state change, but never later:
    ///
    /// * undrained completions, queued bank inputs, and pending scatter-add
    ///   memory ops are retried (and mutate stall counters) every cycle, so
    ///   any of them pins the horizon to `now + 1`;
    /// * otherwise the horizon is the minimum `next_event` over every
    ///   scatter-add unit, cache bank, and DRAM channel (the units'
    ///   acknowledgement queues need no term: they drain every cycle);
    /// * when occupancy sampling is on, the horizon is clamped to the next
    ///   sample cycle so sampled series stay byte-identical under skipping.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let t = now.raw();
        if !self.completions.is_empty() {
            return Some(now + 1);
        }
        let mut horizon: Option<u64> = None;
        let mut fold = |e: u64| horizon = Some(horizon.map_or(e, |h| h.min(e)));
        for lane in &self.lanes {
            if !lane.bank_in.is_empty() || lane.sa.peek_to_mem().is_some() {
                return Some(now + 1);
            }
            let events = [lane.sa.next_event(now), lane.bank.next_event(now)];
            for e in events.into_iter().flatten() {
                fold(e.raw());
            }
        }
        for c in &self.channels {
            if let Some(e) = c.next_event(now) {
                fold(e.raw());
            }
        }
        if self.sample_interval != 0 {
            fold(self.next_sample.max(t + 1));
        }
        horizon.map(Cycle)
    }

    /// Fold `skipped` provably-idle cycles (fast-forward) into time-weighted
    /// statistics, keeping them byte-identical with per-cycle ticking. The
    /// caller must have verified `now + skipped < next_event(now)` — i.e. no
    /// component changes state and no request is retried during the window.
    pub fn skip_cycles(&mut self, now: Cycle, skipped: u64) {
        debug_assert!(
            self.next_event(now).is_none_or(|e| e > now + skipped),
            "fast-forward skipped past a node event"
        );
        for lane in &mut self.lanes {
            lane.sa.skip_cycles(now, skipped, false);
            lane.bank.skip_cycles(now, skipped);
            lane.bank_in.advance(now.raw() + skipped);
        }
        for c in &mut self.channels {
            c.skip_idle(now, skipped);
        }
    }

    /// Aggregate statistics over all banks, units, and channels.
    pub fn stats(&self) -> NodeStats {
        let mut s = NodeStats::default();
        for lane in &self.lanes {
            s.sa.merge(lane.sa.stats());
            s.resilience.merge(&lane.sa.resilience_stats());
        }
        for lane in &self.lanes {
            s.cache.merge(lane.bank.stats());
            s.resilience.merge(&lane.bank.resilience_stats());
        }
        for c in &self.channels {
            s.dram.merge(c.stats());
            s.resilience.merge(&c.resilience_stats());
        }
        for lane in &self.lanes {
            s.bank_in.merge(lane.bank_in.stats());
        }
        s
    }

    /// Record per-instance metrics into a telemetry scope: one sub-scope per
    /// scatter-add unit / cache bank / DRAM channel / bank input queue, plus
    /// the node-level aggregates from [`NodeMemSys::stats`].
    pub fn record_metrics(&self, scope: &mut Scope<'_>) {
        for (b, lane) in self.lanes.iter().enumerate() {
            lane.sa
                .stats()
                .record(&mut scope.scope(&format!("sa.unit{b}")));
        }
        for (b, lane) in self.lanes.iter().enumerate() {
            lane.bank
                .stats()
                .record(&mut scope.scope(&format!("cache.bank{b}")));
        }
        for (c, ch) in self.channels.iter().enumerate() {
            ch.stats()
                .record(&mut scope.scope(&format!("dram.chan{c}")));
            ch.queue_stats()
                .record(&mut scope.scope(&format!("queue.dram.chan{c}")));
        }
        for (b, lane) in self.lanes.iter().enumerate() {
            lane.bank_in
                .stats()
                .record(&mut scope.scope(&format!("queue.bank_in.bank{b}")));
        }
        self.stats().record(scope);
    }
}

impl<T: TraceSink> sa_telemetry::Inspectable for NodeMemSys<T> {
    fn probe_kind(&self) -> &'static str {
        "node_mem_sys"
    }

    /// The node's snapshot subtree: one child per scatter-add unit, cache
    /// bank, and DRAM channel (same `sa.unitN`/`cache.bankN`/`dram.chanN`
    /// naming as [`NodeMemSys::record_metrics`]), plus bank-input queue
    /// depths and the undrained completion count.
    fn probe_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::{Json, ProbeRegistry};
        let mut o = Json::obj();
        o.push("node", Json::UInt(self.node as u64));
        o.push("completions", Json::UInt(self.completions.len() as u64));
        let bank_in: usize = self.lanes.iter().map(|lane| lane.bank_in.len()).sum();
        o.push("bank_in", Json::UInt(bank_in as u64));
        let mut children = ProbeRegistry::new();
        for (b, lane) in self.lanes.iter().enumerate() {
            children.register(&format!("sa.unit{b}"), &lane.sa);
        }
        for (b, lane) in self.lanes.iter().enumerate() {
            children.register(&format!("cache.bank{b}"), &lane.bank);
        }
        for (c, ch) in self.channels.iter().enumerate() {
            children.register(&format!("dram.chan{c}"), ch);
        }
        o.push("components", children.into_components());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::{ScalarKind, ScatterOp};

    fn sa_req(id: u64, word: u64, val: i64) -> MemRequest {
        MemRequest {
            id,
            addr: Addr::from_word_index(word),
            op: MemOp::Scatter {
                bits: val as u64,
                kind: ScalarKind::I64,
                op: ScatterOp::Add,
                fetch: false,
            },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        }
    }

    fn run_until_idle(
        node: &mut NodeMemSys,
        start: Cycle,
        limit: u64,
    ) -> (Vec<MemResponse>, Cycle) {
        let mut now = start;
        let mut done = Vec::new();
        for _ in 0..limit {
            now += 1;
            node.tick(now);
            while let Some(c) = node.pop_completion() {
                done.push(c);
            }
            if node.is_idle() {
                return (done, now);
            }
        }
        panic!("node did not drain in {limit} cycles");
    }

    #[test]
    fn scatter_adds_land_in_memory() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        // 16 adds spread over 4 words.
        let mut id = 0;
        let mut now = Cycle(0);
        let mut pending: VecDeque<MemRequest> = (0..16)
            .map(|i| {
                id += 1;
                sa_req(id, i % 4, 1)
            })
            .collect();
        let mut completions = Vec::new();
        for _ in 0..100_000 {
            now += 1;
            while let Some(req) = pending.pop_front() {
                if let Err(req) = node.inject(req) {
                    pending.push_front(req);
                    break;
                }
            }
            node.tick(now);
            while let Some(c) = node.pop_completion() {
                completions.push(c);
            }
            if pending.is_empty() && node.is_idle() {
                break;
            }
        }
        assert!(node.is_idle(), "node drained");
        assert_eq!(completions.len(), 16, "one ack per scatter request");
        node.flush_to_store();
        assert_eq!(
            node.store().extract_i64(Addr(0), 4),
            vec![4, 4, 4, 4],
            "all additions applied atomically"
        );
    }

    #[test]
    fn reads_and_writes_bypass_the_unit() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        node.store_mut().write_i64(Addr::from_word_index(3), 42);
        node.inject(MemRequest {
            id: 1,
            addr: Addr::from_word_index(3),
            op: MemOp::Read,
            origin: Origin::AddrGen { node: 0, ag: 0 },
        })
        .unwrap();
        node.inject(MemRequest {
            id: 2,
            addr: Addr::from_word_index(100),
            op: MemOp::Write { bits: 7 },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        })
        .unwrap();
        let (done, _) = run_until_idle(&mut node, Cycle(0), 100_000);
        assert_eq!(done.len(), 2);
        let read = done.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(read.bits as i64, 42);
        assert_eq!(node.store().read_word(Addr::from_word_index(100)), 7);
        let s = node.stats();
        assert_eq!(s.sa.accepted, 0, "no scatter traffic touched the unit");
    }

    #[test]
    fn mixed_traffic_preserves_order_sensitive_results() {
        // Scatter-adds followed by a read of the same word: the read is
        // issued only after completions confirm the adds are done.
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        for i in 0..8 {
            node.inject(sa_req(i, 0, 1)).unwrap();
        }
        let (done, now) = run_until_idle(&mut node, Cycle(0), 100_000);
        assert_eq!(done.len(), 8);
        node.inject(MemRequest {
            id: 100,
            addr: Addr::from_word_index(0),
            op: MemOp::Read,
            origin: Origin::AddrGen { node: 0, ag: 0 },
        })
        .unwrap();
        let (done, _) = run_until_idle(&mut node, now, 100_000);
        assert_eq!(done[0].bits as i64, 8);
    }

    #[test]
    fn hot_word_serializes_but_stays_correct() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        let n = 64;
        let mut pending: VecDeque<MemRequest> = (0..n).map(|i| sa_req(i, 7, 1)).collect();
        let mut now = Cycle(0);
        let mut acked = 0;
        for _ in 0..1_000_000 {
            now += 1;
            while let Some(req) = pending.pop_front() {
                if let Err(req) = node.inject(req) {
                    pending.push_front(req);
                    break;
                }
            }
            node.tick(now);
            while node.pop_completion().is_some() {
                acked += 1;
            }
            if pending.is_empty() && node.is_idle() {
                break;
            }
        }
        assert_eq!(acked, n);
        node.flush_to_store();
        assert_eq!(node.store().read_i64(Addr::from_word_index(7)), n as i64);
        let s = node.stats();
        assert_eq!(s.sa.reads_issued + s.sa.chained, n, "one read, n-1 chains");
        assert!(
            s.sa.reads_issued < 5,
            "combining suppressed nearly all reads"
        );
    }

    #[test]
    fn combining_mode_zero_allocates_and_sums_back() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, true);
        for i in 0..8 {
            node.inject(sa_req(i, i % 2, 1)).unwrap();
        }
        let (_, _) = run_until_idle(&mut node, Cycle(0), 100_000);
        // In combining mode nothing reaches DRAM; the sums sit in the cache
        // as partial lines.
        assert_eq!(node.stats().dram.reads, 0, "zero-alloc avoids fills");
        let sums = node.flush_sum_backs();
        assert_eq!(sums.len(), 1, "both words share one line");
        assert_eq!(sums[0].data[0], 4);
        assert_eq!(sums[0].data[1], 4);
    }

    #[test]
    fn throughput_scales_with_banks() {
        // Uniform random-ish addresses across many lines: 8 banks must beat
        // a single hot bank by a wide margin.
        let cfg = MachineConfig::merrimac();
        let line_words = cfg.cache.words_per_line();
        // Word addresses that all land in bank 0 (hot) vs consecutive lines
        // (spread over all banks).
        let hot_words: Vec<u64> = (0..)
            .filter(|l| cfg.cache.bank_of_line(*l) == 0)
            .take(16)
            .map(|l| l * line_words)
            .collect();
        let spread_words: Vec<u64> = (0..16u64).map(|l| l * line_words).collect();
        let run = |words: &[u64]| {
            let mut node = NodeMemSys::new(cfg, 0, false);
            let n = 256u64;
            let mut pending: VecDeque<MemRequest> = (0..n)
                .map(|i| sa_req(i, words[(i % 16) as usize], 1))
                .collect();
            let mut now = Cycle(0);
            loop {
                now += 1;
                while let Some(req) = pending.pop_front() {
                    if let Err(req) = node.inject(req) {
                        pending.push_front(req);
                        break;
                    }
                }
                node.tick(now);
                while node.pop_completion().is_some() {}
                if pending.is_empty() && node.is_idle() {
                    return now.raw();
                }
            }
        };
        let spread = run(&spread_words);
        let hot = run(&hot_words);
        assert!(
            hot > spread * 3,
            "hot bank ({hot} cycles) should be much slower than spread ({spread} cycles)"
        );
    }

    #[test]
    #[should_panic(expected = "additive identity")]
    fn combining_rejects_non_add() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, true);
        let req = MemRequest {
            id: 1,
            addr: Addr(0),
            op: MemOp::Scatter {
                bits: 0,
                kind: ScalarKind::I64,
                op: ScatterOp::Max,
                fetch: false,
            },
            origin: Origin::AddrGen { node: 0, ag: 0 },
        };
        let _ = node.inject(req);
    }

    #[test]
    fn back_pressure_rejects_when_bank_queue_full() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        // All to one bank (same line), never ticking.
        let mut rejected = false;
        for i in 0..100 {
            if node.inject(sa_req(i, 0, 1)).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "bank input queue must be bounded");
    }

    #[test]
    fn request_lifecycle_traced_end_to_end() {
        let mut cfg = MachineConfig::merrimac();
        cfg.req_sample = 1;
        let mut node = NodeMemSys::new(cfg, 0, false);
        let mut pending: VecDeque<MemRequest> = (0..32).map(|i| sa_req(i, i % 8, 1)).collect();
        let mut now = Cycle(0);
        for _ in 0..100_000 {
            now += 1;
            while let Some(req) = pending.pop_front() {
                if let Err(req) = node.inject_traced(req, now) {
                    pending.push_front(req);
                    break;
                }
            }
            node.tick(now);
            while node.pop_completion().is_some() {}
            if pending.is_empty() && node.is_idle() {
                break;
            }
        }
        assert!(node.is_idle());
        let t = node.req_tracer();
        assert_eq!(t.retired_len(), 32, "every sampled request retired");
        assert_eq!(t.live_len(), 0, "nothing left in flight");
        for rec in t.retired_records() {
            assert_eq!(rec.stamps.first().map(|&(s, _)| s), Some(ReqStage::Issued));
            assert!(rec.is_retired());
            assert!(
                rec.stamps.windows(2).all(|w| w[0].1 <= w[1].1),
                "stage timestamps monotone for request {}: {:?}",
                rec.id,
                rec.stamps
            );
            assert!(
                rec.stamp_at(ReqStage::CombStore).is_some(),
                "scatter request {} passed through the combining store",
                rec.id
            );
        }
        // Chain heads reach DRAM via their current-value read; at least one
        // request per hot word must carry a Dram stamp.
        assert!(
            t.retired_records()
                .any(|r| r.stamp_at(ReqStage::Dram).is_some()),
            "demand fills attributed to originating requests"
        );
    }

    #[test]
    fn untraced_node_records_nothing() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        let mut now = Cycle(0);
        for i in 0..8 {
            node.inject_traced(sa_req(i, i, 1), now).unwrap();
        }
        let mut pending: VecDeque<MemRequest> = VecDeque::new();
        for _ in 0..100_000 {
            now += 1;
            while let Some(req) = pending.pop_front() {
                if let Err(req) = node.inject_traced(req, now) {
                    pending.push_front(req);
                    break;
                }
            }
            node.tick(now);
            while node.pop_completion().is_some() {}
            if node.is_idle() {
                break;
            }
        }
        assert_eq!(node.req_tracer().issued_len(), 0);
    }

    #[test]
    fn recoverable_faults_leave_results_bit_identical() {
        // ECC faults on DRAM reads plus combining-store stalls: the run gets
        // slower and the resilience counters move, but every architectural
        // result (memory image, completion count) matches the clean run.
        let plan = FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":33,"cs_timeout":32,
                "faults":[{"kind":"ecc_single","period":3},
                          {"kind":"ecc_double","period":4},
                          {"kind":"cs_stall","cycles":20,"period":2}]}"#,
        )
        .expect("valid plan");
        let run = |plan: Option<&FaultPlan>| {
            let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
            if let Some(p) = plan {
                node.set_fault_plan(p);
            }
            let mut pending: VecDeque<MemRequest> = (0..96)
                .map(|i| sa_req(i, i % 24, 1 + (i as i64 % 5)))
                .collect();
            let mut now = Cycle(0);
            let mut acked = 0u64;
            for _ in 0..1_000_000 {
                now += 1;
                while let Some(req) = pending.pop_front() {
                    if let Err(req) = node.inject(req) {
                        pending.push_front(req);
                        break;
                    }
                }
                node.tick(now);
                while node.pop_completion().is_some() {
                    acked += 1;
                }
                if pending.is_empty() && node.is_idle() {
                    break;
                }
            }
            assert!(node.is_idle(), "node drained");
            node.flush_to_store();
            let image = node.store().extract_i64(Addr(0), 24);
            (image, acked, now.raw(), node.stats())
        };
        let (image_clean, acked_clean, t_clean, stats_clean) = run(None);
        let (image_fault, acked_fault, t_fault, stats_fault) = run(Some(&plan));
        assert!(stats_clean.resilience.is_zero());
        let res = stats_fault.resilience;
        assert!(res.ecc_corrected > 0, "single-bit faults fired: {res:?}");
        assert!(res.ecc_detected > 0, "double-bit faults fired: {res:?}");
        assert!(
            res.mshr_replays > 0,
            "poisoned fills were replayed: {res:?}"
        );
        assert!(res.cs_stalls > 0, "combining-store stalls fired: {res:?}");
        assert_eq!(image_clean, image_fault, "results must be bit-identical");
        assert_eq!(acked_clean, acked_fault);
        assert!(
            t_fault > t_clean,
            "faulty run ({t_fault}) must be slower than clean ({t_clean})"
        );
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let mut node = NodeMemSys::new(MachineConfig::merrimac(), 0, false);
        for i in 0..32 {
            node.inject(sa_req(i, i, 1)).unwrap();
        }
        let (_, _) = run_until_idle(&mut node, Cycle(0), 100_000);
        let s = node.stats();
        assert_eq!(s.sa.accepted, 32);
        assert_eq!(s.sa.writes_issued, 32);
        assert!(s.dram.reads > 0);
    }
}
