//! The executor's incremental scheduler against a naive reference.
//!
//! [`Reference`] is the scoreboard written the obvious way: every cycle it
//! rescans every op and every op's dependency list to decide what may
//! start (and again to decide whether the run may fast-forward), and it
//! maps each request id back to the op that issued it. It drives the same
//! [`NodeMemSys`] through the same run loop, so on any program the
//! [`Executor`] must report exactly its cycles, spans, machine statistics
//! and SRF footprint.

use std::collections::HashMap;

use proptest::prelude::*;
use sa_core::{NodeMemSys, NodeStats};
use sa_proc::{AccessPattern, Executor, OpId, OpSpan, StreamOp, StreamProgram};
use sa_sim::{Cycle, Machine, MachineConfig, MemOp, MemRequest, Origin, ReqId};
use sa_telemetry::{HostProfiler, Introspect};

/// What a scheduler's run is judged by.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    spans: Vec<OpSpan>,
    stats: NodeStats,
    peak_srf: u64,
    srf_overflow: bool,
}

fn executor_outcome(cfg: MachineConfig, prog: &StreamProgram, node: &mut NodeMemSys) -> Outcome {
    let r = Executor::new(cfg).run(prog, node);
    Outcome {
        cycles: r.cycles,
        spans: r.spans,
        stats: r.stats,
        peak_srf: r.srf.peak_words,
        srf_overflow: r.srf.overflow,
    }
}

fn reference_outcome(cfg: MachineConfig, prog: &StreamProgram, node: &mut NodeMemSys) -> Outcome {
    let n_ops = prog.len();
    let fast_forward = node.fast_forward();
    let mut m = Reference {
        exec: Executor::new(cfg),
        cfg,
        prog,
        node,
        state: vec![OpState::Waiting; n_ops],
        spans: vec![OpSpan::default(); n_ops],
        ags: (0..cfg.ag.count).map(|_| None).collect(),
        kernel: None,
        req_owner: HashMap::new(),
        next_id: 0,
        remaining: n_ops,
        live_srf: 0,
        peak_srf: 0,
    };
    let cycles = if m.end_of_cycle(&mut HostProfiler::off()) {
        0
    } else {
        sa_sim::run(&mut m, fast_forward, &mut Introspect::off()).cycles
    };
    m.node.flush_to_store();
    let srf_capacity = cfg.compute.srf_bytes / sa_sim::WORD_BYTES;
    Outcome {
        cycles,
        spans: m.spans,
        stats: m.node.stats(),
        peak_srf: m.peak_srf,
        srf_overflow: m.peak_srf > srf_capacity,
    }
}

fn srf_footprint(op: &StreamOp) -> u64 {
    match op {
        StreamOp::Gather { pattern } => pattern.len(),
        StreamOp::Scatter { pattern, .. } => pattern.len(),
        StreamOp::ScatterAdd { pattern, .. } => pattern.len(),
        StreamOp::Kernel {
            elements,
            srf_words_per_element,
            ..
        } => elements * srf_words_per_element,
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum OpState {
    Waiting,
    Running,
    Done,
}

struct MemRun {
    op: OpId,
    issue_from: u64,
    cursor: u64,
    acked: u64,
    total: u64,
}

struct KernelRun {
    op: OpId,
    end_at: u64,
}

struct Reference<'a> {
    exec: Executor,
    cfg: MachineConfig,
    prog: &'a StreamProgram,
    node: &'a mut NodeMemSys,
    state: Vec<OpState>,
    spans: Vec<OpSpan>,
    ags: Vec<Option<MemRun>>,
    kernel: Option<KernelRun>,
    req_owner: HashMap<ReqId, OpId>,
    next_id: ReqId,
    remaining: usize,
    live_srf: u64,
    peak_srf: u64,
}

impl Machine for Reference<'_> {
    fn step(&mut self, now: Cycle, _: &mut HostProfiler) {
        let t = now.raw();
        let cfg = self.cfg;
        let prog = self.prog;

        // Start ready ops on free resources.
        for id in 0..prog.len() {
            if self.state[id] != OpState::Waiting {
                continue;
            }
            let (op, deps) = prog.op(id);
            if !deps.iter().all(|&d| self.state[d] == OpState::Done) {
                continue;
            }
            match op {
                StreamOp::Kernel {
                    elements,
                    ops_per_element,
                    srf_words_per_element,
                    ..
                } => {
                    if self.kernel.is_none() {
                        let dur = self.exec.kernel_cycles(
                            *elements,
                            *ops_per_element,
                            *srf_words_per_element,
                        );
                        self.kernel = Some(KernelRun {
                            op: id,
                            end_at: t + dur,
                        });
                        self.state[id] = OpState::Running;
                        self.spans[id].start = t;
                        self.live_srf += srf_footprint(op);
                        self.peak_srf = self.peak_srf.max(self.live_srf);
                    }
                }
                _ => {
                    if let Some(slot) = self.ags.iter().position(|a| a.is_none()) {
                        let total = op.mem_refs();
                        self.ags[slot] = Some(MemRun {
                            op: id,
                            issue_from: t + u64::from(cfg.ag.startup_cycles),
                            cursor: 0,
                            acked: 0,
                            total,
                        });
                        self.state[id] = OpState::Running;
                        self.spans[id].start = t;
                        self.live_srf += srf_footprint(op);
                        self.peak_srf = self.peak_srf.max(self.live_srf);
                        if total == 0 {
                            // Degenerate empty stream: completes at once.
                            self.state[id] = OpState::Done;
                            self.spans[id].end = t;
                            self.remaining -= 1;
                            self.ags[slot] = None;
                            self.live_srf -= srf_footprint(op);
                        }
                    }
                }
            }
        }

        // Kernel completion.
        if self.kernel.as_ref().is_some_and(|k| k.end_at <= t) {
            let k = self.kernel.take().expect("checked");
            self.state[k.op] = OpState::Done;
            self.spans[k.op].end = t;
            self.remaining -= 1;
            self.live_srf -= srf_footprint(prog.op(k.op).0);
        }

        // Issue memory requests from each busy AG.
        for (slot, ag) in self.ags.iter_mut().enumerate() {
            let Some(run) = ag.as_mut() else { continue };
            if run.issue_from > t {
                continue;
            }
            let (op, _) = prog.op(run.op);
            for _ in 0..cfg.ag.width {
                if run.cursor >= run.total {
                    break;
                }
                let i = run.cursor;
                let req = match op {
                    StreamOp::Gather { pattern } => MemRequest {
                        id: self.next_id,
                        addr: pattern.addr(i),
                        op: MemOp::Read,
                        origin: Origin::AddrGen { node: 0, ag: slot },
                    },
                    StreamOp::Scatter { pattern, values } => MemRequest {
                        id: self.next_id,
                        addr: pattern.addr(i),
                        op: MemOp::Write {
                            bits: values[i as usize],
                        },
                        origin: Origin::AddrGen { node: 0, ag: slot },
                    },
                    StreamOp::ScatterAdd {
                        pattern,
                        values,
                        kind,
                        op,
                    } => MemRequest {
                        id: self.next_id,
                        addr: pattern.addr(i),
                        op: MemOp::Scatter {
                            bits: values[i as usize],
                            kind: *kind,
                            op: *op,
                            fetch: false,
                        },
                        origin: Origin::AddrGen { node: 0, ag: slot },
                    },
                    StreamOp::Kernel { .. } => unreachable!("kernels don't use AGs"),
                };
                match self.node.inject(req, now) {
                    Ok(()) => {
                        self.req_owner.insert(self.next_id, run.op);
                        self.next_id += 1;
                        run.cursor += 1;
                    }
                    Err(_) => break, // bank queue full: stall this AG
                }
            }
        }

        self.node.tick(now);

        // Completions retire requests and, eventually, their ops.
        while let Some(c) = self.node.pop_completion() {
            let Some(op) = self.req_owner.remove(&c.id) else {
                continue;
            };
            for ag in self.ags.iter_mut() {
                if let Some(run) = ag.as_mut() {
                    if run.op == op {
                        run.acked += 1;
                        if run.acked == run.total {
                            self.state[op] = OpState::Done;
                            self.spans[op].end = t;
                            self.remaining -= 1;
                            *ag = None;
                            self.live_srf -= srf_footprint(prog.op(op).0);
                        }
                        break;
                    }
                }
            }
        }
    }

    fn end_of_cycle(&mut self, _: &mut HostProfiler) -> bool {
        self.remaining == 0 && self.node.is_idle()
    }

    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let t = now.raw();
        let prog = self.prog;
        let can_start = (0..prog.len()).any(|id| {
            self.state[id] == OpState::Waiting && {
                let (op, deps) = prog.op(id);
                deps.iter().all(|&d| self.state[d] == OpState::Done)
                    && match op {
                        StreamOp::Kernel { .. } => self.kernel.is_none(),
                        _ => self.ags.iter().any(|a| a.is_none()),
                    }
            }
        });
        let issuing = self
            .ags
            .iter()
            .flatten()
            .any(|run| run.issue_from <= t && run.cursor < run.total);
        if can_start || issuing {
            return None;
        }
        let kernel = self.kernel.as_ref().map(|k| Cycle(k.end_at));
        let wakeups = self
            .ags
            .iter()
            .flatten()
            .filter(|run| run.issue_from > t && run.cursor < run.total)
            .map(|run| Cycle(run.issue_from));
        kernel
            .into_iter()
            .chain(wakeups)
            .chain(self.node.next_event(now))
            .min()
    }

    fn skip(&mut self, now: Cycle, k: u64) {
        self.node.skip_cycles(now, k);
    }
}

/// One generated op. Streams index a 512-word window at `base` with
/// `stride`, so ops overlap in memory and collide in the banks.
#[derive(Clone, Debug)]
struct GenOp {
    /// 0 kernel, 1 gather, 2 scatter, 3 scatter-add.
    kind: u8,
    /// Stream length (0 for about one stream in five).
    len: u64,
    base: u64,
    stride: u64,
    /// Raw dependency draws, folded onto lower ids.
    deps: Vec<usize>,
    /// Kernel elements, ops per element, SRF words per element.
    kernel: (u64, u64, u64),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    (
        0u8..4,
        0u8..5,
        1u64..48,
        0u64..256,
        1u64..8,
        prop::collection::vec(0usize..64, 0..4),
        (1u64..400, 1u64..24, 0u64..6),
    )
        .prop_map(|(kind, empty, len, base, stride, deps, kernel)| GenOp {
            kind,
            len: if empty == 0 { 0 } else { len },
            base,
            stride,
            deps,
            kernel,
        })
}

fn build(ops: &[GenOp]) -> StreamProgram {
    let mut p = StreamProgram::new();
    for (id, g) in ops.iter().enumerate() {
        let deps: Vec<OpId> = if id == 0 {
            Vec::new()
        } else {
            g.deps.iter().map(|d| d % id).collect()
        };
        let pattern = AccessPattern::Indexed {
            base_word: g.base,
            indices: (0..g.len).map(|k| (k * g.stride) % 512).collect(),
        };
        let (elements, ops_per_element, srf) = g.kernel;
        let op = match g.kind {
            0 => StreamOp::kernel("k", elements, 1, ops_per_element, srf),
            1 => StreamOp::gather(pattern),
            2 => StreamOp::scatter(pattern, (0..g.len).collect()),
            _ => StreamOp::scatter_add_i64(pattern, &vec![1; g.len as usize]),
        };
        p.add(op, &deps);
    }
    p
}

fn both(
    prog: &StreamProgram,
    ags: usize,
    combining: bool,
    fast_forward: bool,
) -> (Outcome, Outcome) {
    let mut cfg = MachineConfig::merrimac();
    cfg.ag.count = ags;
    let node = || {
        let mut n = NodeMemSys::new(cfg, 0, combining);
        n.set_fast_forward(fast_forward);
        n
    };
    (
        executor_outcome(cfg, prog, &mut node()),
        reference_outcome(cfg, prog, &mut node()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random DAGs of kernels, gathers, scatters and scatter-adds (some
    /// zero-length) on 1–4 address generators schedule exactly as the
    /// reference does.
    #[test]
    fn executor_matches_reference_scheduler(
        ops in prop::collection::vec(gen_op(), 1..=40),
        ags in 1usize..=4,
        combining in any::<bool>(),
        fast_forward in any::<bool>(),
    ) {
        let prog = build(&ops);
        let (got, want) = both(&prog, ags, combining, fast_forward);
        prop_assert_eq!(got, want);
    }
}

/// One address generator facing 64 independent ready gathers: the start
/// loop passes over the 63 it cannot start each cycle and the run ends,
/// in the reference's cycle count.
#[test]
fn one_ag_drains_64_ready_gathers() {
    let mut prog = StreamProgram::new();
    for i in 0..64 {
        prog.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: i * 8,
                n: 8,
            }),
            &[],
        );
    }
    for ff in [true, false] {
        let (got, want) = both(&prog, 1, false, ff);
        assert_eq!(got, want);
    }
}
