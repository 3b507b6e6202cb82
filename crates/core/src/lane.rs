//! One *lane* per cache bank: the bank, the scatter-add unit in front of it
//! (Figure 4a), and the bank's input queue, plus the two per-cycle phases a
//! node runs over its lanes.
//!
//! # Phase order
//!
//! Per cycle, a node's state splits into two phases:
//!
//! * a **front** phase (bank tick + DRAM command submission) that arbitrates
//!   for the shared DRAM channels, run in bank order so channel capacity is
//!   consumed in a fixed order; and
//! * a **step** phase (scatter-add ingest, cache port arbitration, unit
//!   tick, response/ack routing) that touches only lane-local state and the
//!   node's completion queue.
//!
//! The step phase of bank `i` never touches the DRAM channels, and the
//! front phase of bank `j > i` never reads state the step phase of bank `i`
//! writes (they are different banks), so running all fronts before all
//! steps is byte-identical to the interleaved per-bank order. Steps run in
//! bank order, so completions reach the node queue in (cycle, bank, FIFO)
//! order.

use std::collections::VecDeque;

use sa_cache::{AccessKind, CacheAccess, CacheBank};
use sa_mem::DramChannel;
use sa_sim::{Addr, BoundedQueue, Cycle, DramConfig, MemOp, MemRequest, MemResponse, Origin};
use sa_telemetry::{ReqStage, ReqTracer, TraceSink};

use crate::unit::{ScatterAddUnit, ToMem};

/// One cache bank's slice of the node: the bank, the scatter-add unit in
/// front of it (Figure 4a), and the bank input queue.
#[derive(Debug)]
pub(crate) struct BankLane {
    /// This lane's bank index within the node.
    pub index: usize,
    /// The stream-cache bank.
    pub bank: CacheBank,
    /// The scatter-add unit in front of the bank.
    pub sa: ScatterAddUnit,
    /// Requests from the address generators (and the network interface).
    pub bank_in: BoundedQueue<MemRequest>,
    /// Round-robin state of the cache-port arbiter (unit vs bypass).
    pub rr_sa_first: bool,
}

/// The node-level parameters a lane step needs.
#[derive(Copy, Clone, Debug)]
pub(crate) struct LaneParams {
    /// This node's index.
    pub node: usize,
    /// Whether cache-combining mode (§3.2) is on.
    pub combining: bool,
    /// Node count when part of a multi-node machine (`None` = standalone).
    pub n_nodes: Option<usize>,
    /// Cache line size, for line-interleaved address homing.
    pub line_bytes: u64,
    /// Whether a non-empty fault plan is installed (gates the watchdog).
    pub faults_active: bool,
    /// Watchdog threshold for fault-injected combining-store stalls.
    pub cs_timeout: u64,
}

impl LaneParams {
    /// Whether combining mode treats `addr` as remote (zero-allocate +
    /// sum-back). A home-owned line is never combined: applying it through
    /// the cache with a real fill is what lets arriving sum-backs terminate.
    pub fn combine_as_remote(&self, addr: Addr) -> bool {
        self.combining
            && match self.n_nodes {
                None => true,
                Some(n) => (addr.line_index(self.line_bytes) % n as u64) as usize != self.node,
            }
    }
}

/// Retire a traced request and stream its per-stage spans into the trace
/// sink (one Perfetto track per request, scoped by node id).
pub(crate) fn retire_req<S: TraceSink>(
    id: u64,
    now: Cycle,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) {
    if let Some(rec) = req_trace.retire(id, now.raw()) {
        sa_telemetry::emit_req_spans(rec, tracer);
    }
}

/// The front phase of one lane for cycle `now`: fold queue time, tick the
/// bank, and move one outgoing DRAM command toward its channel (a single
/// conditional pop: the head stays queued when its channel is busy).
pub(crate) fn lane_front(
    lane: &mut BankLane,
    now: Cycle,
    channels: &mut [DramChannel],
    dram_cfg: DramConfig,
    line_bytes: u64,
    req_trace: &mut ReqTracer,
) {
    lane.bank_in.advance(now.raw());
    lane.bank.tick(now);
    if let Some(cmd) = lane.bank.pop_mem_cmd_if(|cmd| {
        channels[dram_cfg.channel_of_line(cmd.base.line_index(line_bytes))].can_accept()
    }) {
        if let Some(rid) = cmd.req {
            req_trace.stamp(rid, ReqStage::Dram, now.raw());
        }
        let ch = dram_cfg.channel_of_line(cmd.base.line_index(line_bytes));
        channels[ch].try_submit(cmd, now).expect("capacity checked");
    }
}

/// The lane-local step phase of one cycle (scatter-add ingest, cache port
/// arbitration, unit tick, response/ack routing) — steps 4–8 of the
/// per-bank loop. Never touches the DRAM channels. Completions are pushed
/// onto `out`, the node's completion queue.
pub(crate) fn step_lane<S: TraceSink>(
    lane: &mut BankLane,
    now: Cycle,
    p: &LaneParams,
    out: &mut VecDeque<MemResponse>,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) {
    let BankLane {
        index,
        bank,
        sa,
        bank_in,
        rr_sa_first,
    } = lane;
    let b = *index;

    // 4. Ingest a scatter request into the scatter-add unit (does not
    //    consume the cache port; Figure 4a places the unit in front of the
    //    bank). Single conditional pop: the head is consumed exactly when
    //    the unit accepts it.
    bank_in.pop_if(|req| req.op.is_scatter() && sa.try_submit_traced(*req, now, req_trace).is_ok());

    // 5. One cache access per bank per cycle, round-robin between the
    //    scatter-add unit's internal traffic and bypass traffic.
    let sa_first = *rr_sa_first;
    let mut served = false;
    for attempt in 0..2 {
        let serve_sa = sa_first ^ (attempt == 1);
        if serve_sa {
            if try_serve_sa(b, bank, sa, now, p, req_trace) {
                served = true;
                break;
            }
        } else if try_serve_bypass(bank, bank_in, out, now, req_trace, tracer) {
            served = true;
            break;
        }
    }
    if served {
        *rr_sa_first = !sa_first;
    }

    // 6. Advance the scatter-add unit; with faults installed, the watchdog
    //    first expires any stall that outlived its budget.
    if p.faults_active {
        sa.cancel_stalls_older_than(now, p.cs_timeout);
    }
    sa.tick_traced(now, req_trace);

    // 7. Route cache data responses.
    while let Some(r) = bank.pop_ready(now) {
        match r.origin {
            Origin::SaUnit { bank: ob, .. } => {
                debug_assert_eq!(ob, b);
                sa.on_value(r.addr, r.bits);
            }
            _ => {
                retire_req(r.id, now, req_trace, tracer);
                out.push_back(r);
            }
        }
    }

    // 8. Scatter acknowledgements complete their requests.
    while let Some(a) = sa.pop_ack() {
        retire_req(a.id, now, req_trace, tracer);
        out.push_back(a);
    }
}

/// Serve one of the scatter-add unit's memory operations at the lane's
/// cache port. Returns whether the port was used (a single conditional pop:
/// the head op stays queued when the cache port rejects it).
fn try_serve_sa(
    b: usize,
    bank: &mut CacheBank,
    sa: &mut ScatterAddUnit,
    now: Cycle,
    p: &LaneParams,
    req_trace: &mut ReqTracer,
) -> bool {
    let node = p.node;
    sa.pop_to_mem_if(|op| {
        let origin = Origin::SaUnit { node, bank: b };
        let access = match *op {
            ToMem::Read { id, addr } => CacheAccess {
                id,
                addr,
                kind: AccessKind::Read {
                    zero_alloc: p.combine_as_remote(addr),
                },
                origin,
            },
            ToMem::Write { id, addr, bits } => CacheAccess {
                id,
                addr,
                kind: AccessKind::Write {
                    bits,
                    partial_sum: p.combine_as_remote(addr),
                },
                origin,
            },
        };
        bank.try_access_traced(access, now, req_trace).is_ok()
    })
    .is_some()
}

/// Serve one bypass (non-scatter) request at the lane's cache port.
/// Returns whether the port was used (a single conditional pop: the head
/// request stays queued when the cache port rejects it).
fn try_serve_bypass<S: TraceSink>(
    bank: &mut CacheBank,
    bank_in: &mut BoundedQueue<MemRequest>,
    out: &mut VecDeque<MemResponse>,
    now: Cycle,
    req_trace: &mut ReqTracer,
    tracer: &mut S,
) -> bool {
    let served = bank_in.pop_if(|req| {
        let access = match req.op {
            MemOp::Read => CacheAccess {
                id: req.id,
                addr: req.addr,
                kind: AccessKind::Read { zero_alloc: false },
                origin: req.origin,
            },
            MemOp::Write { bits } => CacheAccess {
                id: req.id,
                addr: req.addr,
                kind: AccessKind::Write {
                    bits,
                    partial_sum: false,
                },
                origin: req.origin,
            },
            MemOp::Scatter { .. } => return false,
        };
        bank.try_access_traced(access, now, req_trace).is_ok()
    });
    match served {
        Some(req) => {
            if matches!(req.op, MemOp::Write { .. }) {
                // Posted write: acknowledged on acceptance.
                retire_req(req.id, now, req_trace, tracer);
                out.push_back(MemResponse {
                    id: req.id,
                    addr: req.addr,
                    bits: 0,
                    origin: req.origin,
                    at: now,
                });
            }
            true
        }
        None => false,
    }
}
