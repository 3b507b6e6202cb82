//! Multi-node scatter-add (§3.2 "Multi-node Scatter-add", evaluated in
//! §4.5 / Figure 13).
//!
//! A [`MultiNode`] machine is 1–8 single-node memory systems joined by the
//! input-queued crossbar of `sa-net`. Global memory is line-interleaved
//! across nodes (`home = line mod nodes`); "the atomicity of each individual
//! addition is guaranteed by the fact that a node can only directly access
//! its own part of the global memory".
//!
//! Two operating modes, matching the paper:
//!
//! * **Direct** (combining off): every scatter-add request to a remote line
//!   crosses the network as a one-word message and is merged with local
//!   requests at the home node's scatter-add units.
//! * **Cache combining** (combining on): nodes first scatter-add into their
//!   *local* cache — remote lines are zero-allocated rather than fetched —
//!   and evicted partial-sum lines travel to their home node as *sum-backs*
//!   where each word is applied as a scatter-add. When a node finishes its
//!   share, a flush-with-sum-back synchronization step pushes out the
//!   remaining partial lines.
//!
//! The experiment of Figure 13 replays application reference traces through
//! this machine and reports scatter-add throughput; see
//! [`MultiNode::run_trace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use sa_cache::SumBack;
use sa_core::{NodeMemSys, NodeStats};
use sa_faults::{Backoff, FaultPlan, ResilienceStats};
use sa_net::{Crossbar, Message, NetStats};
use sa_sim::{
    Addr, Clock, Cycle, MachineConfig, MemOp, MemRequest, NetworkConfig, Origin, ReqId, ScalarKind,
    ScatterOp, WORD_BYTES,
};
use sa_telemetry::{Introspect, Json, ProbeRegistry, Progress, ReqTracer};

/// Messages exchanged between nodes.
#[derive(Clone, Debug)]
enum NetMsg {
    /// A single scatter-add request headed for its home node (1 word).
    Request(MemRequest),
    /// An evicted partial-sum line headed for its home node
    /// (`words_per_line` words).
    SumBack(SumBack),
}

/// Outcome of a multi-node trace replay.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Total execution cycles (including the final flush/synchronization
    /// for combining runs).
    pub cycles: u64,
    /// Cycles the coordinator fast-forwarded over instead of stepping (0
    /// with fast-forward off; wall-clock accounting only — every other
    /// field is byte-identical either way).
    pub skipped_cycles: u64,
    /// Application scatter-add operations performed (the trace length).
    pub adds: u64,
    /// Number of nodes.
    pub nodes: usize,
    /// Sum-back lines that crossed the network (combining runs).
    pub sum_back_lines: u64,
    /// Flush synchronization rounds performed (≤ log₂ n + 1 for the
    /// hypercube topology, ≤ 1 for flat).
    pub flush_rounds: u32,
    /// Per-node machine statistics.
    pub node_stats: Vec<NodeStats>,
    /// Network statistics.
    pub net: NetStats,
    /// Merged resilience counters across the fabric and every node (NACKed
    /// and retried sends, dropped/retransmitted flits, ECC events, stalls);
    /// all zero unless a fault plan is installed.
    pub resilience: ResilienceStats,
    /// Merged request-lifecycle records from every node (empty unless
    /// `MachineConfig::req_sample` enabled tracing). A remote request's
    /// source-side stamps (issue, crossbar entry) and home-side stamps
    /// (bank, DRAM, retire) are combined into one record per id.
    pub req_trace: ReqTracer,
}

impl TraceReport {
    /// Scatter-add throughput in GB/s at `ghz` GHz — the y-axis of
    /// Figure 13 (each addition moves one 8-byte word of payload).
    pub fn throughput_gbps(&self, ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.adds as f64 * WORD_BYTES as f64 * ghz / self.cycles as f64
    }

    /// Additions retired per cycle.
    pub fn adds_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.adds as f64 / self.cycles as f64
        }
    }

    /// Record this run's counters into a telemetry scope: the run summary,
    /// the network, and each node's machine statistics under `node{i}`.
    pub fn record_metrics(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("cycles", self.cycles);
        scope.counter("skipped_cycles", self.skipped_cycles);
        scope.counter("adds", self.adds);
        scope.counter("nodes", self.nodes as u64);
        scope.counter("sum_back_lines", self.sum_back_lines);
        scope.counter("flush_rounds", u64::from(self.flush_rounds));
        self.net.record(&mut scope.scope("net"));
        if !self.resilience.is_zero() {
            self.resilience.record(&mut scope.scope("resilience"));
        }
        for (i, ns) in self.node_stats.iter().enumerate() {
            ns.record(&mut scope.scope(&format!("node{i}")));
        }
    }
}

/// How combining-mode sum-backs travel to their home node.
///
/// The paper's §5 closes with: "We are also considering an optimization to
/// our multi-node cached algorithm that will arrange the nodes in a logical
/// hierarchy and allow the combining across nodes to occur in logarithmic
/// instead of linear complexity." [`Topology::Hypercube`] implements that
/// future-work idea: sum-backs hop one address bit at a time toward home,
/// merging into each intermediate node's combining cache, so a hot line's
/// `n − 1` partials reach home as `log₂ n` merged lines instead of `n − 1`
/// serial applications.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Topology {
    /// Sum-backs go straight to the home node (the paper's evaluated
    /// design).
    #[default]
    Flat,
    /// Sum-backs reduce along hypercube dimensions (the §5 extension).
    /// Requires a power-of-two node count.
    Hypercube,
}

/// A multi-node scatter-add machine (see crate docs).
#[derive(Debug)]
pub struct MultiNode {
    machine: MachineConfig,
    nodes: Vec<NodeMemSys>,
    net: Crossbar<NetMsg>,
    combining: bool,
    topology: Topology,
    /// Whether the coordinator may fast-forward over cycles in which no
    /// node, queue, or fabric element can change state. Seeded from
    /// [`sa_sim::fast_forward_default`] at construction.
    fast_forward: bool,
}

impl MultiNode {
    /// Build an `n`-node machine. Each node gets the full single-node
    /// configuration of `machine` (Table 1); `network` picks the paper's
    /// *low* (1 word/cycle/node) or *high* (8 words/cycle/node) fabric;
    /// `combining` enables the cache-combining optimization.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(
        machine: MachineConfig,
        n: usize,
        network: NetworkConfig,
        combining: bool,
    ) -> MultiNode {
        MultiNode::with_topology(machine, n, network, combining, Topology::Flat)
    }

    /// Build an `n`-node machine with an explicit sum-back [`Topology`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if [`Topology::Hypercube`] is requested
    /// with a non-power-of-two node count.
    pub fn with_topology(
        machine: MachineConfig,
        n: usize,
        network: NetworkConfig,
        combining: bool,
        topology: Topology,
    ) -> MultiNode {
        assert!(n > 0, "need at least one node");
        if topology == Topology::Hypercube {
            assert!(
                n.is_power_of_two(),
                "hypercube needs a power-of-two node count"
            );
        }
        let nodes = (0..n)
            .map(|i| {
                let mut node = NodeMemSys::new(machine, i, combining);
                node.set_nodes(n);
                node
            })
            .collect();
        MultiNode {
            machine,
            nodes,
            net: Crossbar::new(n, network),
            combining,
            topology,
            fast_forward: sa_sim::fast_forward_default(),
        }
    }

    /// Enable or disable event-horizon fast-forward for this machine's
    /// runs (wall-clock only; reports are byte-identical either way),
    /// overriding the process-wide default.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether runs may fast-forward over provably-idle cycles.
    pub fn fast_forward(&self) -> bool {
        self.fast_forward
    }

    /// Install `plan` on every node's memory system and on the fabric,
    /// overriding the process-wide [`sa_faults::default_plan`] applied at
    /// construction. Schedules are keyed by `(seed, site, node, component)`,
    /// so runs stay bit-identical across fast-forward modes.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for node in &mut self.nodes {
            node.set_fault_plan(plan);
        }
        self.net.set_fault_plan(plan);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The home node of a word address.
    pub fn home_of(&self, addr: Addr) -> usize {
        home_of_line(addr, self.machine.cache.line_bytes, self.nodes.len())
    }

    /// Read the coherent global value of one word (for verification).
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.nodes[self.home_of(addr)].read_coherent(addr)
    }

    /// Replay a scatter-add reference trace: word index `trace[i]` receives
    /// `+values[i]` (f64). The trace is block-partitioned across nodes, as
    /// the paper's software would partition its data. Returns timing and
    /// throughput.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the run deadlocks.
    pub fn run_trace(&mut self, trace: &[u64], values: &[f64]) -> TraceReport {
        self.run_trace_probed(trace, values, &mut Introspect::off())
    }

    /// [`MultiNode::run_trace`]; the thread count is ignored. Kept only for
    /// the benchmark package under `bench/benchmark`.
    pub fn run_trace_threads(&mut self, trace: &[u64], values: &[f64], _: usize) -> TraceReport {
        self.run_trace(trace, values)
    }

    /// [`MultiNode::run_trace`] with live introspection attached: probe
    /// snapshots at the recorder's cadence (taken after every node has
    /// stepped and before the sync decision, with the event-horizon skip
    /// clamped to due cycles — snapshot bytes are identical with
    /// fast-forward on or off), wall-clock-throttled heartbeats, and
    /// host-time attribution of the net/step/sync/skip phases. With
    /// [`Introspect::off`] every introspection site reduces to one branch.
    ///
    /// Every cycle ticks the crossbar, then steps each node in index order
    /// through [`step_node`], then runs the quiescence/flush decision.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the run deadlocks.
    pub fn run_trace_probed(
        &mut self,
        trace: &[u64],
        values: &[f64],
        probe: &mut Introspect,
    ) -> TraceReport {
        assert_eq!(trace.len(), values.len(), "trace/value length mismatch");
        let n = self.nodes.len();
        let total = trace.len();
        let params = StepParams {
            n,
            issue_width: (self.machine.ag.count as u32 * self.machine.ag.width) as usize,
            line_words: self.machine.cache.words_per_line() as u32,
            line_bytes: self.machine.cache.line_bytes,
            combining: self.combining,
            topology: self.topology,
        };
        let sample = self.machine.req_sample;

        // Block partition: node i owns trace[lo_i..hi_i]. All mutable
        // per-node run state lives in the node's context.
        let mut ctxs: Vec<NodeCtx> = self
            .nodes
            .drain(..)
            .enumerate()
            .map(|(i, node)| {
                let lo = total * i / n;
                let hi = total * (i + 1) / n;
                NodeCtx {
                    index: i,
                    node,
                    inj: Injector {
                        items: (lo..hi).map(|j| (trace[j], values[j])).collect(),
                        cursor: 0,
                        staged: None,
                    },
                    outbox: VecDeque::new(),
                    tracer: ReqTracer::every(sample),
                    next_seq: 0,
                    app_acks: 0,
                    apply_pending: 0,
                    sum_back_lines: 0,
                    backoff: Backoff::default(),
                    retry_at: Cycle::ZERO,
                    nacked: false,
                    net_retries: 0,
                }
            })
            .collect();

        let mut clock = Clock::with_limit(4_000_000_000);
        let mut flush_rounds = 0u32;
        let mut skipped_cycles = 0u64;
        let fast_forward = self.fast_forward;

        loop {
            let now = clock.advance();
            probe.profiler.time("net", || self.net.tick(now));
            probe.profiler.time("step", || {
                for ctx in &mut ctxs {
                    step_node(ctx, &mut self.net, now, &params);
                }
            });
            if probe.recorder.due(now.raw()) {
                let mut reg = ProbeRegistry::new();
                reg.register("net", &self.net);
                for ctx in &ctxs {
                    reg.register(&format!("node{}", ctx.index), &ctx.node);
                }
                probe.recorder.record(reg, now.raw(), skipped_cycles);
            }
            if probe.progress.is_on() && now.raw() & 0x3FF == 0 {
                emit_trace_heartbeat(&probe.progress, now, skipped_cycles, n);
            }
            if probe.profiler.time("sync", || {
                sync_phase(&self.net, &mut ctxs, total, &params, &mut flush_rounds)
            }) {
                break;
            }
            if fast_forward {
                let cap = probe.recorder.next_due();
                skipped_cycles += probe.profiler.time("skip", || {
                    fast_forward_skip(&mut clock, &mut self.net, &mut ctxs, now, cap)
                });
            }
        }

        // Materialize coherent per-node memory for verification reads, and
        // fold every node's lifecycle records into the run-level tracer in
        // node order: a remote request's source-side stamps (kept in its
        // issuing node's context) and home-side stamps merge into one
        // record keyed by id.
        let mut req_trace = ReqTracer::every(sample);
        let mut sum_back_lines = 0u64;
        let mut net_retries = 0u64;
        for ctx in ctxs {
            sum_back_lines += ctx.sum_back_lines;
            net_retries += ctx.net_retries;
            let mut node = ctx.node;
            node.flush_to_store();
            req_trace.absorb(ctx.tracer);
            req_trace.absorb(node.take_req_trace());
            node.set_req_sample(sample);
            self.nodes.push(node);
        }

        let node_stats: Vec<NodeStats> = self.nodes.iter().map(NodeMemSys::stats).collect();
        let mut resilience = self.net.resilience_stats();
        resilience.net_retries += net_retries;
        for ns in &node_stats {
            resilience.merge(&ns.resilience);
        }

        TraceReport {
            cycles: clock.now().raw(),
            skipped_cycles,
            adds: total as u64,
            nodes: n,
            sum_back_lines,
            flush_rounds,
            node_stats,
            net: self.net.stats(),
            resilience,
            req_trace,
        }
    }
}

/// Read-only per-run parameters shared by every node step.
#[derive(Copy, Clone, Debug)]
struct StepParams {
    n: usize,
    issue_width: usize,
    line_words: u32,
    line_bytes: u64,
    combining: bool,
    topology: Topology,
}

/// The home node of a word address under line interleaving.
fn home_of_line(addr: Addr, line_bytes: u64, n: usize) -> usize {
    (addr.line_index(line_bytes) % n as u64) as usize
}

/// The next hop of a sum-back travelling from `from` toward `home` (see
/// [`MultiNode::with_topology`] / [`Topology`]).
fn hop_toward(topology: Topology, from: usize, home: usize) -> usize {
    match topology {
        Topology::Flat => home,
        Topology::Hypercube => {
            if from == home {
                home
            } else {
                let diff = from ^ home;
                let bit = usize::BITS - 1 - diff.leading_zeros();
                from ^ (1 << bit)
            }
        }
    }
}

/// All mutable state one node owns during a run.
#[derive(Debug)]
struct NodeCtx {
    index: usize,
    node: NodeMemSys,
    inj: Injector,
    outbox: VecDeque<Message<NetMsg>>,
    /// Source-side lifecycle stamps for requests this node sent across the
    /// fabric; merged by id with the home-side records at end of run.
    tracer: ReqTracer,
    next_seq: u64,
    app_acks: usize,
    /// Sum-back word applications in flight at this node.
    apply_pending: usize,
    sum_back_lines: u64,
    /// Exponential backoff for NACKed remote-request sends.
    backoff: Backoff,
    /// Cycle before which a NACKed staged request must not retry.
    retry_at: Cycle,
    /// Whether the currently staged request is waiting out a NACK (as
    /// opposed to ordinary queue back-pressure, which retries next cycle).
    nacked: bool,
    /// Remote-request sends re-attempted after a NACK backoff.
    net_retries: u64,
}

impl NodeCtx {
    /// Mint a request id from this node's private stream. Ids carry the
    /// node index in the high bits so nodes never collide and the id
    /// sequence depends only on the node's own progress — never on
    /// cross-node interleaving — which keeps lifecycle sampling
    /// (`id % sample`) stable.
    fn mint_id(&mut self) -> ReqId {
        self.next_seq += 1;
        ((self.index as u64 + 1) << 40) | self.next_seq
    }
}

/// Advance one node by one cycle: the entire per-node cycle body. The node
/// touches only its own memory system and its own crossbar edge queues
/// (port `ctx.index`).
///
/// # Panics
///
/// Panics if a capacity-checked injection fails.
fn step_node(ctx: &mut NodeCtx, net: &mut Crossbar<NetMsg>, now: Cycle, p: &StepParams) {
    let i = ctx.index;

    // Deliver network messages while the node can take them.
    while let Some(msg) = net.peek_delivered(i) {
        match &msg.payload {
            NetMsg::Request(req) => {
                let req = *req;
                if ctx.node.inject_traced(req, now).is_ok() {
                    let _ = net.pop_delivered(i);
                } else {
                    break;
                }
            }
            NetMsg::SumBack(sb) => {
                // Apply each word of the line as a scatter-add. At the home
                // node this goes through the normal cached path; at a
                // hypercube intermediate node the combining cache
                // zero-allocates and merges it (the address is still remote
                // there). All words of a line share one bank queue, so free
                // capacity must cover every non-zero word.
                let sb = sb.clone();
                let needed = sb.data.iter().filter(|&&b| b != 0).count();
                if ctx.node.inject_capacity(sb.base) < needed {
                    break;
                }
                let _ = net.pop_delivered(i);
                for (w, &bits) in sb.data.iter().enumerate() {
                    if bits == 0 {
                        continue; // additive identity: no work
                    }
                    let req = MemRequest {
                        id: ctx.mint_id(),
                        addr: Addr(sb.base.0 + w as u64 * WORD_BYTES),
                        op: MemOp::Scatter {
                            bits,
                            kind: ScalarKind::F64,
                            op: ScatterOp::Add,
                            fetch: false,
                        },
                        origin: Origin::Remote { node: i },
                    };
                    ctx.node.inject_traced(req, now).expect("room checked");
                    ctx.apply_pending += 1;
                }
            }
        }
    }

    // Inject this node's share of the trace. A request that the node or
    // the fabric rejects stays staged and retries with the *same* id next
    // cycle, so its (idempotent) issue stamp keeps measuring the first
    // attempt.
    for _ in 0..p.issue_width {
        let req = match ctx.inj.staged.take() {
            Some(r) => r,
            None => {
                let Some(&(word, value)) = ctx.inj.items.get(ctx.inj.cursor) else {
                    break;
                };
                MemRequest {
                    id: ctx.mint_id(),
                    addr: Addr::from_word_index(word),
                    op: MemOp::Scatter {
                        bits: value.to_bits(),
                        kind: ScalarKind::F64,
                        op: ScatterOp::Add,
                        fetch: false,
                    },
                    origin: Origin::AddrGen { node: i, ag: 0 },
                }
            }
        };
        let home = home_of_line(req.addr, p.line_bytes, p.n);
        if p.combining || home == i {
            match ctx.node.inject_traced(req, now) {
                Ok(()) => ctx.inj.cursor += 1,
                Err(r) => {
                    ctx.inj.staged = Some(r);
                    break;
                }
            }
        } else {
            // One word of payload (the paper's low-bandwidth network
            // carries one word per cycle per node). A send the fabric NACKs
            // (fault injection) backs off exponentially before retrying;
            // ordinary queue back-pressure still retries next cycle.
            if now < ctx.retry_at {
                ctx.inj.staged = Some(req);
                break;
            }
            if net.can_inject(i) {
                // The request is issued here at node i's address generator
                // even though it executes at its home; stamp the
                // source-side stages into this node's tracer for the merge
                // at end of run.
                ctx.tracer.issue(req.id, i, now.raw());
                if ctx.nacked {
                    ctx.net_retries += 1;
                }
                match net.try_send_traced(
                    Message::new(i, home, 1, NetMsg::Request(req)),
                    now,
                    Some(req.id),
                    &mut ctx.tracer,
                ) {
                    Ok(()) => {
                        ctx.inj.cursor += 1;
                        ctx.nacked = false;
                        ctx.backoff.reset();
                    }
                    Err(e) => {
                        assert!(e.nack, "capacity checked");
                        let NetMsg::Request(r) = e.msg.payload else {
                            unreachable!("request payload sent above");
                        };
                        ctx.inj.staged = Some(r);
                        ctx.nacked = true;
                        ctx.retry_at = now + ctx.backoff.next_delay();
                        break;
                    }
                }
            } else {
                ctx.inj.staged = Some(req);
                break;
            }
        }
    }

    // Forward evicted partial-sum lines toward their homes (one hypercube
    // hop at a time under that topology).
    while let Some((_, sb)) = ctx.node.pop_sum_back() {
        let dst = hop_toward(p.topology, i, home_of_line(sb.base, p.line_bytes, p.n));
        ctx.sum_back_lines += 1;
        ctx.outbox
            .push_back(Message::new(i, dst, p.line_words, NetMsg::SumBack(sb)));
    }
    while let Some(msg) = ctx.outbox.pop_front() {
        if msg.dst == i {
            // Locally-homed sum-back (possible right after the flush):
            // apply without crossing the fabric.
            ctx.outbox.push_front(msg);
            break;
        }
        match net.try_inject(msg) {
            Ok(()) => {}
            Err(m) => {
                ctx.outbox.push_front(m);
                break;
            }
        }
    }
    // Apply locally-homed sum-backs directly.
    while ctx.outbox.front().is_some_and(|m| m.dst == i) {
        let msg = ctx.outbox.pop_front().expect("front checked");
        let Message {
            payload: NetMsg::SumBack(sb),
            ..
        } = msg
        else {
            unreachable!("only sum-backs are self-addressed");
        };
        let needed = sb.data.iter().filter(|&&b| b != 0).count();
        if ctx.node.inject_capacity(sb.base) < needed {
            ctx.outbox
                .push_front(Message::new(i, i, p.line_words, NetMsg::SumBack(sb)));
            break;
        }
        for (w, &bits) in sb.data.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            let req = MemRequest {
                id: ctx.mint_id(),
                addr: Addr(sb.base.0 + w as u64 * WORD_BYTES),
                op: MemOp::Scatter {
                    bits,
                    kind: ScalarKind::F64,
                    op: ScatterOp::Add,
                    fetch: false,
                },
                origin: Origin::Remote { node: i },
            };
            ctx.node.inject_traced(req, now).expect("room checked");
            ctx.apply_pending += 1;
        }
    }

    ctx.node.tick(now);

    while let Some(c) = ctx.node.pop_completion() {
        match c.origin {
            Origin::AddrGen { .. } => ctx.app_acks += 1,
            Origin::Remote { .. } => ctx.apply_pending -= 1,
            _ => {}
        }
    }
}

/// Event-horizon fast-forward for the coordinator: when every node has
/// issued its whole trace share, holds nothing staged or outboxed, and
/// neither the fabric nor any node can change state before cycle `h`, jump
/// the clock to `h - 1` (the next [`Clock::advance`] lands exactly on the
/// horizon). Returns the number of cycles skipped (0 when any retry or
/// state change is possible next cycle).
///
/// Any cycle this skips is one in which `step_node` would only have ticked
/// idle components: delivery queues empty (fabric horizon covers them),
/// nothing to inject or forward (checked here), and no completions pending
/// (node horizon covers them). Per-cycle stall counters cannot advance in
/// such a cycle, and the time-weighted integrals are folded by
/// [`NodeMemSys::skip_cycles`] / [`Crossbar::skip_cycles`], so reports stay
/// byte-identical.
fn fast_forward_skip(
    clock: &mut Clock,
    net: &mut Crossbar<NetMsg>,
    ctxs: &mut [NodeCtx],
    now: Cycle,
    probe_cap: Option<u64>,
) -> u64 {
    if ctxs
        .iter()
        .any(|c| c.inj.staged.is_some() || c.inj.cursor < c.inj.items.len() || !c.outbox.is_empty())
    {
        return 0;
    }
    let mut horizon = net.next_event(now);
    for c in ctxs.iter() {
        if let Some(t) = c.node.next_event(now) {
            horizon = Some(horizon.map_or(t, |h| h.min(t)));
        }
    }
    let Some(mut h) = horizon else { return 0 };
    // Never skip past a due probe cycle: snapshot cadence must see every
    // due cycle ticked regardless of skipping.
    if let Some(due) = probe_cap {
        h = h.min(Cycle(due.max(now.raw() + 1)));
    }
    if h <= now + 1 {
        return 0;
    }
    let k = h.raw() - now.raw() - 1;
    for ctx in ctxs.iter_mut() {
        ctx.node.skip_cycles(now, k);
    }
    net.skip_cycles(now, k);
    clock.skip_to(Cycle(h.raw() - 1));
    k
}

/// Emit one trace-replay heartbeat (wall-clock throttled inside
/// [`Progress::heartbeat`]).
fn emit_trace_heartbeat(progress: &Progress, now: Cycle, skipped_cycles: u64, nodes: usize) {
    let elapsed = progress.elapsed().as_secs_f64();
    progress.heartbeat(|o| {
        o.push("cycle", Json::UInt(now.raw()));
        o.push("nodes", Json::UInt(nodes as u64));
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

/// The end-of-cycle phase: decide quiescence from the summed per-node
/// counters and, when quiescent, run one flush-with-sum-back
/// synchronization round (§3.2). Returns `true` when the run is complete.
fn sync_phase(
    net: &Crossbar<NetMsg>,
    ctxs: &mut [NodeCtx],
    total: usize,
    p: &StepParams,
    flush_rounds: &mut u32,
) -> bool {
    let injected_all = ctxs.iter().all(|c| c.inj.cursor == c.inj.items.len());
    let app_acks: usize = ctxs.iter().map(|c| c.app_acks).sum();
    let apply_pending: usize = ctxs.iter().map(|c| c.apply_pending).sum();
    let quiescent = injected_all
        && app_acks == total
        && apply_pending == 0
        && net.is_idle()
        && ctxs.iter().all(|c| c.outbox.is_empty())
        && ctxs.iter().all(|c| c.node.is_idle());
    if !quiescent {
        return false;
    }

    // Flush-with-sum-back synchronization: every node evicts its remaining
    // partial lines toward their homes. Under the hypercube topology
    // partials move one dimension per round and merge at intermediate
    // nodes, so rounds repeat until no node holds partial lines
    // (≤ log₂ n + 1).
    let mut produced = false;
    for ctx in ctxs.iter_mut() {
        let i = ctx.index;
        for sb in ctx.node.flush_sum_backs() {
            let home = home_of_line(sb.base, p.line_bytes, p.n);
            let dst = hop_toward(p.topology, i, home);
            ctx.sum_back_lines += 1;
            produced = true;
            ctx.outbox
                .push_back(Message::new(i, dst, p.line_words, NetMsg::SumBack(sb)));
        }
    }
    if produced {
        *flush_rounds += 1;
        false
    } else {
        true
    }
}

#[derive(Debug)]
struct Injector {
    items: Vec<(u64, f64)>,
    cursor: usize,
    /// A request already minted for `items[cursor]` that was rejected by a
    /// full queue; retried verbatim so the id is stable across attempts.
    staged: Option<MemRequest>,
}

/// Sequential reference: the expected value of every touched word.
pub fn trace_reference(trace: &[u64], values: &[f64]) -> std::collections::HashMap<u64, f64> {
    let mut out = std::collections::HashMap::new();
    for (&w, &v) in trace.iter().zip(values) {
        *out.entry(w).or_insert(0.0) += v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::Rng64;

    fn machine() -> MachineConfig {
        MachineConfig::merrimac()
    }

    fn uniform_trace(n: usize, range: u64, seed: u64) -> (Vec<u64>, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let trace: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
        let values = vec![1.0; n];
        (trace, values)
    }

    fn verify(mn: &MultiNode, trace: &[u64], values: &[f64]) {
        let reference = trace_reference(trace, values);
        for (&w, &expect) in &reference {
            let got = f64::from_bits(mn.read_word(Addr::from_word_index(w)));
            assert!(
                (got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "word {w}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn single_node_direct_is_correct() {
        let (trace, values) = uniform_trace(2000, 256, 1);
        let mut mn = MultiNode::new(machine(), 1, NetworkConfig::high(), false);
        let r = mn.run_trace(&trace, &values);
        verify(&mn, &trace, &values);
        assert_eq!(r.adds, 2000);
        assert!(r.throughput_gbps(1.0) > 0.0);
    }

    #[test]
    fn four_nodes_direct_is_correct() {
        let (trace, values) = uniform_trace(4000, 4096, 2);
        let mut mn = MultiNode::new(machine(), 4, NetworkConfig::high(), false);
        let r = mn.run_trace(&trace, &values);
        verify(&mn, &trace, &values);
        assert_eq!(r.sum_back_lines, 0, "no combining, no sum-backs");
        assert!(r.net.delivered > 0, "remote requests crossed the fabric");
    }

    #[test]
    fn four_nodes_combining_is_correct() {
        let (trace, values) = uniform_trace(4000, 256, 3);
        let mut mn = MultiNode::new(machine(), 4, NetworkConfig::low(), true);
        let r = mn.run_trace(&trace, &values);
        verify(&mn, &trace, &values);
        assert!(r.sum_back_lines > 0, "combining produces sum-backs");
    }

    #[test]
    fn wide_high_scales_with_nodes() {
        // Figure 13: the wide histogram with a high-bandwidth network is
        // memory-bandwidth limited and scales nearly perfectly.
        let (trace, values) = uniform_trace(16_384, 1 << 17, 4);
        let run = |n: usize| {
            let mut mn = MultiNode::new(machine(), n, NetworkConfig::high(), false);
            mn.run_trace(&trace, &values).throughput_gbps(1.0)
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            t4 > 2.5 * t1,
            "4 nodes should give near-linear speedup: {t1:.2} → {t4:.2} GB/s"
        );
    }

    #[test]
    fn narrow_low_does_not_scale_without_combining() {
        // Figure 13: "no scaling is achieved in the case of the
        // low-bandwidth network" for the narrow histogram.
        let (trace, values) = uniform_trace(8192, 256, 5);
        let run = |n: usize, combining: bool| {
            let mut mn = MultiNode::new(machine(), n, NetworkConfig::low(), combining);
            mn.run_trace(&trace, &values).throughput_gbps(1.0)
        };
        let t1 = run(1, false);
        let t4 = run(4, false);
        assert!(
            t4 < 1.8 * t1,
            "low-bandwidth narrow histogram should not scale: {t1:.2} → {t4:.2}"
        );
        // "Employing the multi-node optimization ... provided a significant
        // speedup": combining must beat direct on the same configuration.
        let t4c = run(4, true);
        assert!(
            t4c > t4,
            "combining ({t4c:.2} GB/s) should beat direct ({t4:.2} GB/s) on a slow network"
        );
    }

    #[test]
    fn traced_run_merges_remote_lifecycles() {
        use sa_telemetry::ReqStage;

        let (trace, values) = uniform_trace(2000, 4096, 11);
        let mut cfg = machine();
        cfg.req_sample = 4;
        let mut mn = MultiNode::new(cfg, 4, NetworkConfig::high(), false);
        let r = mn.run_trace(&trace, &values);
        verify(&mn, &trace, &values);

        let rt = &r.req_trace;
        assert!(rt.retired_len() > 0, "sampled requests were recorded");
        assert_eq!(rt.live_len(), 0, "every sampled request retired");
        let mut crossed = 0u64;
        for rec in rt.retired_records() {
            assert_eq!(
                rec.stamps.first().map(|&(s, _)| s),
                Some(ReqStage::Issued),
                "record {} starts at issue",
                rec.id
            );
            assert!(
                rec.stamps.windows(2).all(|w| w[0].1 <= w[1].1),
                "record {} has non-monotone stamps: {:?}",
                rec.id,
                rec.stamps
            );
            if let Some(x) = rec.stamp_at(ReqStage::Crossbar) {
                crossed += 1;
                // The merge put the source-side issue before fabric entry.
                assert!(rec.stamp_at(ReqStage::Issued).unwrap() <= x);
                assert!(rec.node < 4);
            }
        }
        assert!(crossed > 0, "remote requests stamped the crossbar stage");
    }

    #[test]
    fn untraced_run_records_nothing() {
        let (trace, values) = uniform_trace(500, 256, 12);
        let mut mn = MultiNode::new(machine(), 2, NetworkConfig::high(), false);
        let r = mn.run_trace(&trace, &values);
        assert_eq!(r.req_trace.issued_len(), 0);
    }

    #[test]
    fn deterministic() {
        let (trace, values) = uniform_trace(1000, 128, 6);
        let r1 =
            MultiNode::new(machine(), 2, NetworkConfig::low(), true).run_trace(&trace, &values);
        let r2 =
            MultiNode::new(machine(), 2, NetworkConfig::low(), true).run_trace(&trace, &values);
        assert_eq!(r1.cycles, r2.cycles);
    }

    /// Every observable field of two reports must agree (the req tracers
    /// are compared through their rendered latency documents).
    fn assert_reports_identical(a: &TraceReport, b: &TraceReport, what: &str) {
        assert_eq!(a.cycles, b.cycles, "{what}: cycles");
        assert_eq!(a.skipped_cycles, b.skipped_cycles, "{what}: skipped");
        assert_eq!(a.adds, b.adds, "{what}: adds");
        assert_eq!(a.sum_back_lines, b.sum_back_lines, "{what}: sum-backs");
        assert_eq!(a.flush_rounds, b.flush_rounds, "{what}: flush rounds");
        assert_eq!(a.node_stats, b.node_stats, "{what}: node stats");
        assert_eq!(a.resilience, b.resilience, "{what}: resilience counters");
        assert_eq!(a.net, b.net, "{what}: net stats");
        assert_eq!(
            a.req_trace.retired_len(),
            b.req_trace.retired_len(),
            "{what}: retired records"
        );
        assert_eq!(
            a.req_trace.latency_json(),
            b.req_trace.latency_json(),
            "{what}: latency document"
        );
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        let (trace, values) = uniform_trace(2000, 512, 33);
        let mut any_skipped = false;
        let cases: [(usize, NetworkConfig, bool, Topology); 3] = [
            (4, NetworkConfig::high(), false, Topology::Flat),
            (4, NetworkConfig::low(), true, Topology::Flat),
            (8, NetworkConfig::low(), true, Topology::Hypercube),
        ];
        for (n, net, combining, topo) in cases {
            let run = |ff: bool| {
                let mut mn = MultiNode::with_topology(machine(), n, net, combining, topo);
                mn.set_fast_forward(ff);
                let r = mn.run_trace(&trace, &values);
                verify(&mn, &trace, &values);
                r
            };
            let a = run(true);
            let b = run(false);
            assert_eq!(b.skipped_cycles, 0, "ff off must step every cycle");
            any_skipped |= a.skipped_cycles > 0;
            let mut a_wallclock = a.clone();
            a_wallclock.skipped_cycles = 0;
            assert_reports_identical(
                &a_wallclock,
                &b,
                &format!("ff on/off n={n} combining={combining} topo={topo:?}"),
            );
        }
        assert!(any_skipped, "no case exercised the coordinator skip path");
    }

    #[test]
    fn recoverable_faults_stay_bit_identical_across_schedulers() {
        // The resilience contract end to end: a plan mixing every fault
        // kind must leave application results bit-identical to each other
        // across fast-forward on/off, with the
        // recovery machinery (NACK backoff, flit retransmit, MSHR replay,
        // stall watchdog) visible in the counters.
        let plan = sa_faults::FaultPlan::parse(
            r#"{"schema":"sa-faultplan","version":1,"seed":77,"cs_timeout":48,"faults":[
                {"kind":"net_nack","period":5,"max":40},
                {"kind":"net_drop","period":7,"max":25},
                {"kind":"ecc_single","period":9},
                {"kind":"ecc_double","period":31,"max":20},
                {"kind":"cs_stall","cycles":24,"period":13,"max":30}
            ]}"#,
        )
        .expect("valid plan");
        let bins = 512u64;
        let (trace, values) = uniform_trace(3000, bins, 44);
        let run = |ff: bool, faulty: bool| {
            let mut mn = MultiNode::new(machine(), 4, NetworkConfig::low(), false);
            mn.set_fast_forward(ff);
            if faulty {
                mn.set_fault_plan(&plan);
            }
            let r = mn.run_trace(&trace, &values);
            verify(&mn, &trace, &values);
            let bits: Vec<u64> = (0..bins)
                .map(|w| mn.read_word(Addr::from_word_index(w)))
                .collect();
            (r, bits)
        };

        let (clean, _) = run(false, false);
        assert!(clean.resilience.is_zero(), "no plan leaves counters zero");

        let (faulty, bits) = run(false, true);
        let res = &faulty.resilience;
        assert!(res.net_nacks > 0, "NACKs fired: {res:?}");
        assert!(res.net_retries > 0, "NACKed sends retried: {res:?}");
        assert!(res.net_dropped > 0, "flits dropped: {res:?}");
        assert_eq!(
            res.net_dropped, res.net_recovered,
            "every dropped flit was retransmitted and delivered"
        );
        assert!(res.ecc_corrected > 0, "single-bit ECC corrected: {res:?}");
        assert!(res.cs_stalls > 0, "combining-store stalls fired: {res:?}");
        assert_eq!(res.ecc_uncorrected, 0, "all injected faults recoverable");
        assert!(
            faulty.cycles > clean.cycles,
            "recovery costs cycles: {} vs {}",
            faulty.cycles,
            clean.cycles
        );

        let (r, rbits) = run(true, true);
        assert_eq!(
            bits, rbits,
            "faulty ff on: application results bit-identical"
        );
        let mut a = faulty.clone();
        let mut b = r;
        a.skipped_cycles = 0;
        b.skipped_cycles = 0;
        assert_reports_identical(&a, &b, "faulty ff on/off");
    }

    #[test]
    fn report_metrics() {
        let (trace, values) = uniform_trace(100, 16, 7);
        let mut mn = MultiNode::new(machine(), 2, NetworkConfig::high(), false);
        let r = mn.run_trace(&trace, &values);
        assert_eq!(r.nodes, 2);
        assert!(r.adds_per_cycle() > 0.0);
        assert_eq!(r.node_stats.len(), 2);
        let gbps = r.throughput_gbps(1.0);
        assert!((gbps - r.adds_per_cycle() * 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let mut mn = MultiNode::new(machine(), 1, NetworkConfig::high(), false);
        let _ = mn.run_trace(&[1, 2], &[1.0]);
    }

    #[test]
    fn hypercube_combining_is_correct() {
        let (trace, values) = uniform_trace(4000, 256, 8);
        let mut mn = MultiNode::with_topology(
            machine(),
            8,
            NetworkConfig::low(),
            true,
            Topology::Hypercube,
        );
        let r = mn.run_trace(&trace, &values);
        verify(&mn, &trace, &values);
        assert!(
            r.flush_rounds <= 4,
            "8-node hypercube needs at most log2(8)+1 rounds, took {}",
            r.flush_rounds
        );
        assert!(
            r.flush_rounds >= 2,
            "intermediate merges imply several rounds"
        );
    }

    #[test]
    fn hypercube_reduces_home_ingestion_on_hot_traces() {
        // Every node holds partials for every one of the hot lines; flat
        // combining sends n-1 lines per hot line straight to its home, the
        // hypercube merges en route so homes receive only ~log n.
        let (trace, values) = uniform_trace(8192, 32, 9); // 32 bins = 8 lines
        let run = |topo: Topology| {
            let mut mn = MultiNode::with_topology(machine(), 8, NetworkConfig::low(), true, topo);
            let r = mn.run_trace(&trace, &values);
            verify(&mn, &trace, &values);
            r
        };
        let flat = run(Topology::Flat);
        let hyper = run(Topology::Hypercube);
        assert!(
            hyper.cycles <= flat.cycles * 2,
            "hypercube should be competitive: {} vs {}",
            hyper.cycles,
            flat.cycles
        );
        assert!(hyper.flush_rounds > flat.flush_rounds);
    }

    #[test]
    fn hypercube_flat_equivalence_on_random_traces() {
        let (trace, values) = uniform_trace(2000, 1024, 10);
        for topo in [Topology::Flat, Topology::Hypercube] {
            let mut mn = MultiNode::with_topology(machine(), 4, NetworkConfig::high(), true, topo);
            mn.run_trace(&trace, &values);
            verify(&mn, &trace, &values);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_non_power_of_two() {
        let _ = MultiNode::with_topology(
            machine(),
            3,
            NetworkConfig::low(),
            true,
            Topology::Hypercube,
        );
    }
}
