//! The inter-node network of §4.5: "an input-queued crossbar with
//! back-pressure".
//!
//! Each node has an injection port and an ejection port, both limited to the
//! configured per-node bandwidth (the paper evaluates 1 word/cycle — *low* —
//! and 8 words/cycle — *high*). A message of `w` words therefore occupies its
//! source port for `ceil(w / bw)` cycles, traverses the crossbar with a fixed
//! hop latency, and occupies the destination port for another
//! `ceil(w / bw)` cycles. Delivery queues are bounded; a full queue
//! back-pressures the ejection port, which back-pressures the fabric and
//! eventually the sender.
//!
//! ```
//! use sa_net::{Crossbar, Message};
//! use sa_sim::{Cycle, NetworkConfig};
//!
//! let mut net: Crossbar<&'static str> = Crossbar::new(2, NetworkConfig::high());
//! net.try_inject(Message::new(0, 1, 1, "hello")).unwrap();
//! let mut now = Cycle(0);
//! loop {
//!     now += 1;
//!     net.tick(now);
//!     if let Some(m) = net.pop_delivered(1) {
//!         assert_eq!(m.payload, "hello");
//!         break;
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use sa_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, ResilienceStats};
use sa_sim::{BoundedQueue, Cycle, NetworkConfig, QueueStats, ReqId};
use sa_telemetry::{OccClass, OccupancyStats, ReqStage, ReqTracer};

/// A message travelling between nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Message<T> {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload size in words (data + address overhead as the caller sees
    /// fit); determines port occupancy.
    pub words: u32,
    /// The carried payload.
    pub payload: T,
}

impl<T> Message<T> {
    /// Create a message of `words` words from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(src: usize, dst: usize, words: u32, payload: T) -> Message<T> {
        assert!(words > 0, "zero-word message");
        Message {
            src,
            dst,
            words,
            payload,
        }
    }
}

/// Counters for the whole fabric.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered.
    pub delivered: u64,
    /// Total words moved.
    pub words: u64,
    /// Sum of source-queue-to-delivery latencies.
    pub total_latency: u64,
    /// Cycles an ejection port was stalled by a full delivery queue.
    pub eject_stalls: u64,
    /// Busy/blocked/idle cycle account for the whole fabric (ports moving
    /// words / messages only in hop-latency flight or undrained deliveries /
    /// empty), with `saturated` counting cycles some injection queue was
    /// full.
    pub occ: OccupancyStats,
}

impl NetStats {
    /// Mean message latency in cycles (0 if nothing was delivered).
    pub fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Record these counters into a telemetry scope.
    pub fn record(&self, scope: &mut sa_telemetry::Scope<'_>) {
        scope.counter("delivered", self.delivered);
        scope.counter("words", self.words);
        scope.counter("total_latency", self.total_latency);
        scope.counter("eject_stalls", self.eject_stalls);
        self.occ.record(scope);
        scope.gauge("avg_latency", self.avg_latency());
    }
}

/// Why a send was refused (see [`Crossbar::try_send`]).
#[derive(Debug)]
pub struct SendError<T> {
    /// The message handed back to the caller.
    pub msg: Message<T>,
    /// True when the fabric NACKed an injection it had room for (a fault);
    /// false for ordinary back-pressure (source queue full). NACKed sends
    /// should retry with backoff rather than next cycle.
    pub nack: bool,
}

/// Per-port fault state: the injection NACK schedule and its counters, so
/// the NACK decision stream is port-local.
#[derive(Debug, Default)]
struct PortFaults {
    inj: FaultInjector,
    stats: ResilienceStats,
}

impl PortFaults {
    /// One injection attempt with queue room = one fault-site event.
    fn nacks(&mut self) -> bool {
        if self.inj.is_active() && self.inj.next() == Some(FaultKind::NetNack) {
            self.stats.net_nacks += 1;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct PortTx<T> {
    msg: Message<T>,
    entered: Cycle,
    words_left: u32,
}

/// The input-queued crossbar (see crate docs).
#[derive(Debug)]
pub struct Crossbar<T> {
    cfg: NetworkConfig,
    n: usize,
    in_q: Vec<BoundedQueue<(Message<T>, Cycle)>>,
    tx: Vec<Option<PortTx<T>>>,
    flight: VecDeque<(Cycle, Cycle, bool, Message<T>)>, // (arrive_at, entered, resent, msg)
    rx_wait: Vec<VecDeque<(Cycle, Message<T>)>>,
    rx: Vec<Option<PortTx<T>>>,
    out_q: Vec<BoundedQueue<(Message<T>, Cycle)>>,
    stats: NetStats,
    /// Per-port injection NACK schedules (inert without a fault plan).
    port_faults: Vec<PortFaults>,
    /// Fabric-wide flit-drop schedule, consulted once per flight release
    /// (inert without a fault plan).
    drop_faults: FaultInjector,
    /// Drop/retransmission counters (NACK counters live with the ports).
    resilience: ResilienceStats,
}

impl<T> Crossbar<T> {
    /// A crossbar connecting `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the configured bandwidth is zero.
    pub fn new(n: usize, cfg: NetworkConfig) -> Crossbar<T> {
        assert!(n > 0, "need at least one node");
        assert!(cfg.node_words_per_cycle > 0, "zero network bandwidth");
        let mut net = Crossbar {
            n,
            in_q: (0..n).map(|_| BoundedQueue::new(cfg.queue_depth)).collect(),
            tx: (0..n).map(|_| None).collect(),
            flight: VecDeque::new(),
            rx_wait: (0..n).map(|_| VecDeque::new()).collect(),
            rx: (0..n).map(|_| None).collect(),
            out_q: (0..n).map(|_| BoundedQueue::new(cfg.queue_depth)).collect(),
            stats: NetStats::default(),
            port_faults: (0..n).map(|_| PortFaults::default()).collect(),
            drop_faults: FaultInjector::none(),
            resilience: ResilienceStats::default(),
            cfg,
        };
        if let Some(plan) = sa_faults::default_plan() {
            net.set_fault_plan(&plan);
        }
        net
    }

    /// Install the network faults from `plan`: one injection-NACK schedule
    /// per port (keyed by port index, so decisions are port-local and
    /// independent of stepping order) and one fabric-wide flit-drop
    /// schedule. [`Crossbar::new`] applies the process-wide
    /// [`sa_faults::default_plan`] automatically; call this to override it.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (i, pf) in self.port_faults.iter_mut().enumerate() {
            pf.inj = plan.injector(FaultSite::NetInject, 0, i as u64);
        }
        self.drop_faults = plan.injector(FaultSite::NetDeliver, 0, 0);
    }

    /// Resilience counters: NACKed injections, dropped flits, and
    /// retransmitted deliveries. All zero unless a fault plan is installed.
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.resilience;
        for pf in &self.port_faults {
            s.merge(&pf.stats);
        }
        s
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Whether node `src`'s injection queue can take one more message.
    pub fn can_inject(&self, src: usize) -> bool {
        self.in_q[src].can_accept()
    }

    /// Queue a message at its source port.
    ///
    /// # Errors
    ///
    /// Returns the message back when the source queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    pub fn try_inject(&mut self, msg: Message<T>) -> Result<(), Message<T>> {
        self.try_send(msg).map_err(|e| e.msg)
    }

    /// Queue a message at its source port, distinguishing a fault-injected
    /// NACK from ordinary back-pressure (see [`SendError`]). With no fault
    /// plan installed this is exactly [`Crossbar::try_inject`].
    ///
    /// # Errors
    ///
    /// Returns the message back with `nack: true` when the fabric NACKed
    /// the injection, or `nack: false` when the source queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    pub fn try_send(&mut self, msg: Message<T>) -> Result<(), SendError<T>> {
        assert!(msg.src < self.n && msg.dst < self.n, "port out of range");
        let src = msg.src;
        if self.in_q[src].can_accept() && self.port_faults[src].nacks() {
            return Err(SendError { msg, nack: true });
        }
        self.in_q[src]
            .try_push((msg, Cycle::ZERO))
            .map_err(|(m, _)| SendError {
                msg: m,
                nack: false,
            })
    }

    /// Queue a message at its source port, stamping [`ReqStage::Crossbar`]
    /// on the carried request's lifecycle record when it enters the fabric.
    ///
    /// The crossbar is generic over its payload, so the caller names the
    /// request id (if the message carries one); pass `None` for traffic with
    /// no single originating request, such as evicted partial-sum lines.
    ///
    /// # Errors
    ///
    /// Returns the message back when the source queue is full (nothing is
    /// stamped in that case).
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    pub fn try_inject_traced(
        &mut self,
        msg: Message<T>,
        now: Cycle,
        req: Option<ReqId>,
        tracer: &mut ReqTracer,
    ) -> Result<(), Message<T>> {
        let r = self.try_inject(msg);
        if r.is_ok() {
            if let Some(id) = req {
                tracer.stamp(id, ReqStage::Crossbar, now.raw());
            }
        }
        r
    }

    /// [`Crossbar::try_send`] with the lifecycle stamping of
    /// [`Crossbar::try_inject_traced`].
    ///
    /// # Errors
    ///
    /// Returns the message back (nothing stamped) with `nack` telling a
    /// fault-injected NACK from a full source queue.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range.
    pub fn try_send_traced(
        &mut self,
        msg: Message<T>,
        now: Cycle,
        req: Option<ReqId>,
        tracer: &mut ReqTracer,
    ) -> Result<(), SendError<T>> {
        let r = self.try_send(msg);
        if r.is_ok() {
            if let Some(id) = req {
                tracer.stamp(id, ReqStage::Crossbar, now.raw());
            }
        }
        r
    }

    /// Classify the fabric's state at the start of a cycle for occupancy
    /// accounting: ports that will move words this cycle → busy; messages
    /// only in hop-latency flight or undrained delivery queues → blocked;
    /// empty → idle. At capacity when some injection queue is full. Shared
    /// by the per-cycle tick and the fast-forward fold (whose windows
    /// freeze exactly this state).
    fn occ_state(&self, now: Cycle) -> (OccClass, bool) {
        let moving = self.tx.iter().any(Option::is_some)
            || self.rx.iter().any(Option::is_some)
            || self.rx_wait.iter().any(|q| !q.is_empty())
            || self.in_q.iter().any(|q| !q.is_empty())
            || self
                .flight
                .front()
                .is_some_and(|&(arrive, _, _, _)| arrive <= now);
        let class = if moving {
            OccClass::Busy
        } else if !self.flight.is_empty() || self.out_q.iter().any(|q| !q.is_empty()) {
            OccClass::Blocked
        } else {
            OccClass::Idle
        };
        (class, self.in_q.iter().any(|q| !q.can_accept()))
    }

    /// Advance the fabric one cycle.
    pub fn tick(&mut self, now: Cycle) {
        let (class, at_capacity) = self.occ_state(now);
        self.stats.occ.cycle(class, at_capacity);
        for q in self.in_q.iter_mut().chain(self.out_q.iter_mut()) {
            q.advance(now.raw());
        }
        let bw = self.cfg.node_words_per_cycle;

        // Ejection: move up to `bw` words per port into the delivery queue;
        // several small messages may complete in one cycle on a wide port.
        for d in 0..self.n {
            let mut budget = bw;
            while budget > 0 {
                if self.rx[d].is_none() {
                    // Anything in rx_wait has already arrived (the flight
                    // stage gates on arrival time).
                    match self.rx_wait[d].pop_front() {
                        Some((entered, msg)) => {
                            self.rx[d] = Some(PortTx {
                                entered,
                                words_left: msg.words,
                                msg,
                            });
                        }
                        None => break,
                    }
                }
                let p = self.rx[d].as_mut().expect("filled above");
                let spend = p.words_left.min(budget);
                p.words_left -= spend;
                budget -= spend;
                if p.words_left > 0 {
                    break;
                }
                if self.out_q[d].can_accept() {
                    let p = self.rx[d].take().expect("present");
                    self.stats.delivered += 1;
                    self.stats.words += u64::from(p.msg.words);
                    self.stats.total_latency += now.since(p.entered);
                    self.out_q[d]
                        .try_push((p.msg, now))
                        .ok()
                        .expect("capacity checked");
                } else {
                    self.stats.eject_stalls += 1;
                    break;
                }
            }
        }

        // Flight: release arrivals to their destination wait queues. The
        // fault schedule may drop a released flit; link-level retransmission
        // re-enqueues it for one more hop (arrival `now + hop`, preserving
        // the sorted-by-arrival invariant `next_event` relies on) and the
        // copy that eventually lands is counted as recovered.
        let rehop = u64::from(self.cfg.hop_latency).max(1);
        while self
            .flight
            .front()
            .is_some_and(|(arrive, _, _, _)| *arrive <= now)
        {
            let (_, entered, resent, msg) = self.flight.pop_front().expect("front checked");
            if self.drop_faults.is_active() && self.drop_faults.next() == Some(FaultKind::NetDrop) {
                self.resilience.net_dropped += 1;
                self.flight.push_back((now + rehop, entered, true, msg));
                continue;
            }
            if resent {
                self.resilience.net_recovered += 1;
            }
            let d = msg.dst;
            self.rx_wait[d].push_back((entered, msg));
        }

        // Injection: move up to `bw` words per source port.
        for s in 0..self.n {
            let mut budget = bw;
            while budget > 0 {
                if self.tx[s].is_none() {
                    match self.in_q[s].pop() {
                        Some((msg, _)) => {
                            self.tx[s] = Some(PortTx {
                                entered: now,
                                words_left: msg.words,
                                msg,
                            });
                        }
                        None => break,
                    }
                }
                let p = self.tx[s].as_mut().expect("filled above");
                let spend = p.words_left.min(budget);
                p.words_left -= spend;
                budget -= spend;
                if p.words_left > 0 {
                    break;
                }
                let p = self.tx[s].take().expect("present");
                self.flight.push_back((
                    now + u64::from(self.cfg.hop_latency),
                    p.entered,
                    false,
                    p.msg,
                ));
            }
        }
    }

    /// Next message delivered at node `dst`, if any.
    pub fn pop_delivered(&mut self, dst: usize) -> Option<Message<T>> {
        self.out_q[dst].pop().map(|(m, _)| m)
    }

    /// Peek the next delivered message at `dst` without consuming it, so the
    /// receiver can check its own resources first (leaving it queued
    /// back-pressures the fabric).
    pub fn peek_delivered(&self, dst: usize) -> Option<&Message<T>> {
        self.out_q[dst].front().map(|(m, _)| m)
    }

    /// Earliest future cycle at which the fabric can change state on its own
    /// (the event horizon). `None` means it is completely empty and only new
    /// injections can wake it; a coordinator may then fast-forward.
    ///
    /// Any active port transfer or queued message pins the horizon to
    /// `now + 1`: ports move words every cycle, and undrained delivery
    /// queues wait on the caller (which may consume them next cycle).
    /// Otherwise the only future event is the arrival of the oldest
    /// in-flight message — the hop latency is constant, so the flight queue
    /// is sorted by arrival time and its front is the horizon.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.tx.iter().any(Option::is_some)
            || self.rx.iter().any(Option::is_some)
            || self.rx_wait.iter().any(|q| !q.is_empty())
            || self.in_q.iter().any(|q| !q.is_empty())
            || self.out_q.iter().any(|q| !q.is_empty())
        {
            return Some(now + 1);
        }
        self.flight
            .front()
            .map(|&(arrive, _, _, _)| arrive.max(now + 1))
    }

    /// Fold `skipped` un-ticked cycles (fast-forward) into the fabric's
    /// busy/blocked/idle account. The caller guarantees no port, queue, or
    /// arrival makes progress during the window (see
    /// [`next_event`](Self::next_event)), so the frozen state classifies
    /// every skipped cycle exactly as per-cycle ticking would.
    pub fn skip_cycles(&mut self, now: Cycle, skipped: u64) {
        debug_assert!(
            self.next_event(now).is_none_or(|t| t > now + skipped),
            "fast-forward skipped past a crossbar event"
        );
        let (class, at_capacity) = self.occ_state(now);
        self.stats.occ.skip(skipped, class, at_capacity);
    }

    /// Whether nothing is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.in_q.iter().all(|q| q.is_empty())
            && self.tx.iter().all(|t| t.is_none())
            && self.flight.is_empty()
            && self.rx_wait.iter().all(|q| q.is_empty())
            && self.rx.iter().all(|t| t.is_none())
            && self.out_q.iter().all(|q| q.is_empty())
    }

    /// Fabric counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Merged injection-queue statistics (for stall diagnosis).
    pub fn inject_queue_stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for q in &self.in_q {
            s.merge(q.stats());
        }
        s
    }
}

impl<T> sa_telemetry::Inspectable for Crossbar<T> {
    fn probe_kind(&self) -> &'static str {
        "crossbar"
    }

    /// Aggregate fabric occupancy.
    fn probe_json(&self) -> sa_telemetry::Json {
        use sa_telemetry::Json;
        let mut o = Json::obj();
        o.push("ports", Json::UInt(self.n as u64));
        o.push("in_flight", Json::UInt(self.flight.len() as u64));
        let in_q: usize = self.in_q.iter().map(BoundedQueue::len).sum();
        let out_q: usize = self.out_q.iter().map(BoundedQueue::len).sum();
        let rx_wait: usize = self.rx_wait.iter().map(VecDeque::len).sum();
        o.push("in_q", Json::UInt(in_q as u64));
        o.push("out_q", Json::UInt(out_q as u64));
        o.push("rx_wait", Json::UInt(rx_wait as u64));
        let tx_busy = self.tx.iter().filter(|t| t.is_some()).count();
        let rx_busy = self.rx.iter().filter(|r| r.is_some()).count();
        o.push("tx_busy", Json::UInt(tx_busy as u64));
        o.push("rx_busy", Json::UInt(rx_busy as u64));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low() -> NetworkConfig {
        NetworkConfig::low()
    }

    fn high() -> NetworkConfig {
        NetworkConfig::high()
    }

    fn run_until_delivered<T>(
        net: &mut Crossbar<T>,
        dst: usize,
        start: Cycle,
        limit: u64,
    ) -> (Message<T>, Cycle) {
        let mut now = start;
        for _ in 0..limit {
            now += 1;
            net.tick(now);
            if let Some(m) = net.pop_delivered(dst) {
                return (m, now);
            }
        }
        panic!("no delivery within {limit} cycles");
    }

    #[test]
    fn delivers_in_order_per_pair() {
        let mut net: Crossbar<u32> = Crossbar::new(4, high());
        for i in 0..5 {
            net.try_inject(Message::new(0, 2, 1, i)).unwrap();
        }
        let mut got = Vec::new();
        let mut now = Cycle(0);
        while got.len() < 5 {
            now += 1;
            net.tick(now);
            while let Some(m) = net.pop_delivered(2) {
                got.push(m.payload);
            }
            assert!(now.raw() < 10_000);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(net.is_idle());
    }

    #[test]
    fn traced_injection_stamps_crossbar_entry() {
        let mut net: Crossbar<u32> = Crossbar::new(2, high());
        let mut tracer = ReqTracer::every(1);
        tracer.issue(42, 0, 3);
        net.try_inject_traced(Message::new(0, 1, 1, 7), Cycle(5), Some(42), &mut tracer)
            .unwrap();
        // Traffic without an originating request stamps nothing.
        net.try_inject_traced(Message::new(0, 1, 1, 8), Cycle(6), None, &mut tracer)
            .unwrap();
        let rec = tracer.retire(42, 9).expect("record is live");
        assert_eq!(rec.stamp_at(ReqStage::Crossbar), Some(5));
        assert_eq!(tracer.issued_len(), 1);
    }

    #[test]
    fn latency_includes_hop_and_serialization() {
        let cfg = low(); // 1 word/cycle, hop 50
        let mut net: Crossbar<()> = Crossbar::new(2, cfg);
        net.try_inject(Message::new(0, 1, 4, ())).unwrap();
        let (_, at) = run_until_delivered(&mut net, 1, Cycle(0), 10_000);
        // 4 cycles tx + 50 hop + 4 cycles rx, ±accounting edges.
        assert!(at.raw() >= 56, "too fast: {at}");
        assert!(at.raw() <= 62, "too slow: {at}");
    }

    #[test]
    fn low_bandwidth_serializes_wide_messages() {
        // 64 words at 1 word/cycle must take ≥ 64 cycles of port time;
        // at 8 words/cycle it takes 8.
        let t_low = {
            let mut net: Crossbar<()> = Crossbar::new(2, low());
            net.try_inject(Message::new(0, 1, 64, ())).unwrap();
            run_until_delivered(&mut net, 1, Cycle(0), 10_000).1
        };
        let t_high = {
            let mut net: Crossbar<()> = Crossbar::new(2, high());
            net.try_inject(Message::new(0, 1, 64, ())).unwrap();
            run_until_delivered(&mut net, 1, Cycle(0), 10_000).1
        };
        assert!(
            t_low.raw() >= t_high.raw() + 100,
            "low {t_low} should be ≥ high {t_high} + 2×56"
        );
    }

    #[test]
    fn throughput_respects_per_node_limit() {
        // Saturate one destination from three sources at 1 word/cycle: the
        // ejection port limits aggregate throughput to ~1 word/cycle.
        let mut net: Crossbar<u64> = Crossbar::new(4, low());
        let mut delivered_words = 0u64;
        let total = 3_000u64;
        let mut now = Cycle(0);
        let mut sent = 0u64;
        while delivered_words < total {
            now += 1;
            for s in 0..3 {
                if sent < total && net.can_inject(s) {
                    net.try_inject(Message::new(s, 3, 1, sent)).unwrap();
                    sent += 1;
                }
            }
            net.tick(now);
            while let Some(m) = net.pop_delivered(3) {
                delivered_words += u64::from(m.words);
            }
            assert!(now.raw() < 100_000);
        }
        let rate = delivered_words as f64 / now.raw() as f64;
        assert!(rate <= 1.0 + 1e-9, "ejection exceeded 1 word/cycle: {rate}");
        assert!(rate > 0.8, "should approach the port limit: {rate}");
    }

    #[test]
    fn back_pressure_on_full_delivery_queue() {
        let cfg = NetworkConfig {
            node_words_per_cycle: 8,
            hop_latency: 1,
            queue_depth: 2,
        };
        let mut net: Crossbar<u32> = Crossbar::new(2, cfg);
        // Keep injecting while ticking but never drain: the delivery queue
        // (depth 2) fills and the fabric stalls rather than dropping.
        let mut now = Cycle(0);
        let mut sent = 0;
        for _ in 0..100 {
            now += 1;
            while sent < 6 && net.can_inject(0) {
                net.try_inject(Message::new(0, 1, 1, sent)).unwrap();
                sent += 1;
            }
            net.tick(now);
        }
        assert_eq!(sent, 6);
        assert!(net.stats().eject_stalls > 0, "ejection must have stalled");
        // Drain: every message eventually arrives, in order.
        let mut got = Vec::new();
        for _ in 0..200 {
            now += 1;
            net.tick(now);
            while let Some(m) = net.pop_delivered(1) {
                got.push(m.payload);
            }
        }
        assert_eq!(got.len(), 6, "nothing was dropped");
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn injection_queue_rejects_when_full() {
        let cfg = NetworkConfig {
            node_words_per_cycle: 1,
            hop_latency: 10,
            queue_depth: 2,
        };
        let mut net: Crossbar<u32> = Crossbar::new(2, cfg);
        assert!(net.try_inject(Message::new(0, 1, 8, 0)).is_ok());
        assert!(net.try_inject(Message::new(0, 1, 8, 1)).is_ok());
        assert!(net.try_inject(Message::new(0, 1, 8, 2)).is_err());
        assert!(net.inject_queue_stats().rejected > 0);
    }

    #[test]
    fn distinct_pairs_transfer_concurrently() {
        // 0→1 and 2→3 do not share ports: both complete as fast as one.
        let solo = {
            let mut net: Crossbar<()> = Crossbar::new(4, low());
            net.try_inject(Message::new(0, 1, 32, ())).unwrap();
            run_until_delivered(&mut net, 1, Cycle(0), 10_000).1
        };
        let mut net: Crossbar<()> = Crossbar::new(4, low());
        net.try_inject(Message::new(0, 1, 32, ())).unwrap();
        net.try_inject(Message::new(2, 3, 32, ())).unwrap();
        let mut now = Cycle(0);
        let mut done = 0;
        while done < 2 {
            now += 1;
            net.tick(now);
            if net.pop_delivered(1).is_some() {
                done += 1;
            }
            if net.pop_delivered(3).is_some() {
                done += 1;
            }
            assert!(now.raw() < 10_000);
        }
        assert!(
            now.raw() <= solo.raw() + 2,
            "parallel pairs ({now}) as fast as solo ({solo})"
        );
    }

    #[test]
    fn next_event_tracks_fabric_state() {
        let cfg = NetworkConfig {
            node_words_per_cycle: 8,
            hop_latency: 20,
            queue_depth: 4,
        };
        let mut net: Crossbar<u32> = Crossbar::new(2, cfg);
        assert_eq!(
            net.next_event(Cycle(0)),
            None,
            "empty fabric has no horizon"
        );
        net.try_inject(Message::new(0, 1, 1, 7)).unwrap();
        assert_eq!(
            net.next_event(Cycle(0)),
            Some(Cycle(1)),
            "queued injection pins the horizon to the next cycle"
        );
        // One tick moves the 1-word message through tx into flight; the
        // fabric then waits out the hop latency.
        net.tick(Cycle(1));
        assert_eq!(
            net.next_event(Cycle(1)),
            Some(Cycle(21)),
            "in-flight horizon is the arrival cycle"
        );
        // Never report the past: an overdue arrival is claimed next cycle.
        assert_eq!(net.next_event(Cycle(30)), Some(Cycle(31)));
        // Tick at arrival: the message lands in the destination wait queue
        // (ejection runs before flight release), pinning the horizon.
        net.tick(Cycle(21));
        assert_eq!(net.next_event(Cycle(21)), Some(Cycle(22)));
        // The next tick ejects it into the delivery queue, which waits on
        // the caller and still pins the horizon until drained.
        net.tick(Cycle(22));
        assert_eq!(net.next_event(Cycle(22)), Some(Cycle(23)));
        assert_eq!(net.pop_delivered(1).map(|m| m.payload), Some(7));
        assert_eq!(net.next_event(Cycle(23)), None);
    }

    fn plan(json: &str) -> FaultPlan {
        FaultPlan::parse(json).expect("valid plan")
    }

    #[test]
    fn nacked_sends_follow_the_port_schedule() {
        let nack_plan = plan(
            r#"{"schema":"sa-faultplan","version":1,"seed":11,
                "faults":[{"kind":"net_nack","period":3,"max":4}]}"#,
        );
        // The NACK schedule is port-local state keyed by the plan: the same
        // traffic is NACKed at the same sends on every run, and every
        // accepted message is delivered in order.
        let drive = || {
            let mut net: Crossbar<u64> = Crossbar::new(2, high());
            net.set_fault_plan(&nack_plan);
            let mut got = Vec::new();
            let mut nacks = Vec::new();
            let mut now = Cycle(0);
            for i in 0..40u64 {
                now += 1;
                net.tick(now);
                match net.try_send(Message::new(0, 1, 1, i)) {
                    Ok(()) => {}
                    Err(e) => {
                        assert!(e.nack, "queue never fills at this rate");
                        nacks.push(i);
                    }
                }
                while let Some(m) = net.pop_delivered(1) {
                    got.push(m.payload);
                }
            }
            (got, nacks, net.resilience_stats())
        };
        let (got_a, nacks_a, res_a) = drive();
        let (got_b, nacks_b, res_b) = drive();
        assert_eq!(nacks_a.len(), 4, "the plan caps NACKs at 4: {nacks_a:?}");
        assert!(got_a.iter().all(|m| !nacks_a.contains(m)));
        assert!(got_a.windows(2).all(|w| w[0] < w[1]), "delivered in order");
        assert_eq!(got_a, got_b);
        assert_eq!(nacks_a, nacks_b);
        assert_eq!(res_a, res_b);
        assert_eq!(res_a.net_nacks, 4);
    }

    #[test]
    fn dropped_flit_is_retransmitted_and_counted() {
        let mut net: Crossbar<u32> = Crossbar::new(2, high());
        net.set_fault_plan(&plan(
            r#"{"schema":"sa-faultplan","version":1,"seed":1,
                "faults":[{"kind":"net_drop","period":1,"max":1}]}"#,
        ));
        net.try_inject(Message::new(0, 1, 1, 9)).unwrap();
        let (m, at) = run_until_delivered(&mut net, 1, Cycle(0), 10_000);
        assert_eq!(m.payload, 9);
        let res = net.resilience_stats();
        assert_eq!(res.net_dropped, 1);
        assert_eq!(res.net_recovered, 1);
        assert_eq!(net.stats().delivered, 1);
        // The retransmission costs one extra hop.
        let hop = u64::from(high().hop_latency);
        assert!(
            at.raw() >= 2 * hop,
            "delivery at {at} should include a retransmitted hop of {hop}"
        );
        assert!(net.is_idle());
    }

    #[test]
    fn send_error_distinguishes_nack_from_back_pressure() {
        let cfg = NetworkConfig {
            node_words_per_cycle: 1,
            hop_latency: 10,
            queue_depth: 1,
        };
        let mut net: Crossbar<u32> = Crossbar::new(2, cfg);
        // No plan: filling the queue reports back-pressure, never a NACK.
        assert!(net.try_send(Message::new(0, 1, 8, 0)).is_ok());
        let e = net.try_send(Message::new(0, 1, 8, 1)).unwrap_err();
        assert!(!e.nack, "full queue is ordinary back-pressure");
        assert_eq!(e.msg.payload, 1);
        // An always-NACK plan refuses an injection the queue had room for.
        let mut net: Crossbar<u32> = Crossbar::new(2, cfg);
        net.set_fault_plan(&plan(
            r#"{"schema":"sa-faultplan","version":1,"seed":2,
                "faults":[{"kind":"net_nack","period":1}]}"#,
        ));
        let e = net.try_send(Message::new(0, 1, 1, 7)).unwrap_err();
        assert!(e.nack, "injected NACK is flagged");
        assert_eq!(net.resilience_stats().net_nacks, 1);
    }

    #[test]
    fn empty_plan_leaves_resilience_counters_at_zero() {
        let mut net: Crossbar<u32> = Crossbar::new(2, high());
        net.set_fault_plan(&FaultPlan::empty());
        for i in 0..10 {
            net.try_inject(Message::new(0, 1, 1, i)).unwrap();
        }
        let mut now = Cycle(0);
        for _ in 0..100 {
            now += 1;
            net.tick(now);
            while net.pop_delivered(1).is_some() {}
        }
        assert!(net.resilience_stats().is_zero());
        assert_eq!(net.stats().delivered, 10);
    }

    #[test]
    #[should_panic(expected = "zero-word message")]
    fn zero_word_message_rejected() {
        let _ = Message::new(0, 1, 0, ());
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn out_of_range_port_rejected() {
        let mut net: Crossbar<()> = Crossbar::new(2, high());
        let _ = net.try_inject(Message::new(0, 5, 1, ()));
    }
}
