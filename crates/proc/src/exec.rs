//! Scoreboarded execution of a [`StreamProgram`] on one node.

use fxhash::FxHashMap;
use sa_core::NodeMemSys;
use sa_sim::{Clock, Cycle, MachineConfig, MemOp, MemRequest, Origin, ReqId};

use crate::program::{OpId, StreamOp, StreamProgram};

/// When an operation started and finished (cycles).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpSpan {
    /// Cycle the op acquired its resource.
    pub start: u64,
    /// Cycle the op completed.
    pub end: u64,
}

/// The program's static work counters (the paper's Table 3 metrics),
/// grouped out of [`ExecReport`]'s top level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramCounters {
    /// The program's "FP Operations" metric.
    pub flops: u64,
    /// The program's "Mem References" metric (words accessed).
    pub mem_refs: u64,
}

/// Stream-register-file footprint accounting, grouped out of
/// [`ExecReport`]'s top level.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SrfUsage {
    /// Peak footprint observed: the largest sum of SRF words held by
    /// concurrently-running operations (each memory op stages its stream,
    /// each kernel holds its in/out streams).
    pub peak_words: u64,
    /// Whether the peak footprint exceeded the machine's SRF capacity —
    /// a modeling red flag meaning the program's stages should be split
    /// (the simulator still completes; real double-buffered code could not).
    pub overflow: bool,
}

/// The outcome of running a program.
#[derive(Debug)]
pub struct ExecReport {
    /// Total execution time in cycles.
    pub cycles: u64,
    /// Per-op start/end times.
    pub spans: Vec<OpSpan>,
    /// Machine statistics accumulated during the run.
    pub stats: sa_core::NodeStats,
    /// Static work counters (flops, memory references).
    pub program: ProgramCounters,
    /// SRF footprint accounting.
    pub srf: SrfUsage,
    /// Request-lifecycle records harvested from the node (empty unless
    /// [`MachineConfig::req_sample`](sa_sim::MachineConfig) enabled tracing).
    pub req_trace: sa_telemetry::ReqTracer,
    /// Cycles the executor fast-forwarded over instead of ticking one by
    /// one. Wall-clock accounting only: simulated time (`cycles`), spans,
    /// and stats are identical with skipping on or off.
    pub skipped_cycles: u64,
}

impl ExecReport {
    /// Execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }

    /// The program's "FP Operations" metric (`program.flops`).
    pub fn flops(&self) -> u64 {
        self.program.flops
    }

    /// The program's "Mem References" metric (`program.mem_refs`).
    pub fn mem_refs(&self) -> u64 {
        self.program.mem_refs
    }

    /// Peak SRF footprint in words (`srf.peak_words`).
    pub fn peak_srf_words(&self) -> u64 {
        self.srf.peak_words
    }

    /// Whether the peak SRF footprint exceeded capacity (`srf.overflow`).
    pub fn srf_overflow(&self) -> bool {
        self.srf.overflow
    }
}

/// SRF words a running op holds: a memory op stages its whole stream; a
/// kernel holds its per-element SRF traffic for the elements in flight
/// (conservatively, its declared footprint for one cluster batch).
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
    issue_from: u64, // cycle after AG startup
    cursor: u64,
    acked: u64,
    total: u64,
}

struct KernelRun {
    op: OpId,
    end_at: u64,
}

/// Executes stream programs against a [`NodeMemSys`].
///
/// Resource model (Table 1): `ag.count` concurrent stream memory operations,
/// each issuing up to `ag.width` word requests per cycle after a fixed
/// startup; one kernel at a time on the cluster array.
#[derive(Copy, Clone, Debug)]
pub struct Executor {
    cfg: MachineConfig,
}

impl Executor {
    /// An executor for machines configured as `cfg`.
    pub fn new(cfg: MachineConfig) -> Executor {
        Executor { cfg }
    }

    /// Cycles a kernel of `elements` elements occupies the cluster array.
    ///
    /// Each cluster retires one element every
    /// `max(ceil(ops / ops_rate), ceil(srf_words / srf_rate), 1)` cycles,
    /// where the per-cluster rates derive from Table 1 (128 ops/cycle and 64
    /// SRF words/cycle over 16 clusters).
    pub fn kernel_cycles(
        &self,
        elements: u64,
        ops_per_element: u64,
        srf_words_per_element: u64,
    ) -> u64 {
        let c = self.cfg.compute;
        let ops_rate = u64::from(c.peak_flops_per_cycle) / c.clusters as u64; // 8
        let srf_rate = (u64::from(c.srf_words_per_cycle) / c.clusters as u64).max(1); // 4
        let per_elem = ops_per_element
            .div_ceil(ops_rate.max(1))
            .max(srf_words_per_element.div_ceil(srf_rate))
            .max(1);
        let groups = elements.div_ceil(c.clusters as u64);
        u64::from(c.kernel_startup_cycles) + groups * per_elem
    }

    /// Run `prog` on `node` to completion and report timing and metrics.
    ///
    /// The node's functional store carries the memory image across runs, so
    /// applications can preload inputs, run, and read results.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (cycle limit exceeded) — which
    /// would indicate a bug in the machine model, not in the program.
    pub fn run<T: sa_telemetry::TraceSink>(
        &self,
        prog: &StreamProgram,
        node: &mut NodeMemSys<T>,
    ) -> ExecReport {
        let n_ops = prog.len();
        let mut state = vec![OpState::Waiting; n_ops];
        let mut spans = vec![OpSpan::default(); n_ops];
        let mut ags: Vec<Option<MemRun>> = (0..self.cfg.ag.count).map(|_| None).collect();
        let mut kernel: Option<KernelRun> = None;
        let mut req_owner: FxHashMap<ReqId, OpId> = FxHashMap::default();
        let mut next_id: ReqId = 0;
        let mut clock = Clock::with_limit(8_000_000_000);
        let mut remaining = n_ops;
        let mut live_srf: u64 = 0;
        let mut peak_srf: u64 = 0;
        let fast_forward = node.fast_forward();
        let mut skipped_cycles: u64 = 0;

        while remaining > 0 {
            let now = clock.advance();
            let t = now.raw();

            // Start ready ops on free resources.
            for id in 0..n_ops {
                if state[id] != OpState::Waiting {
                    continue;
                }
                let (op, deps) = prog.op(id);
                if !deps.iter().all(|&d| state[d] == OpState::Done) {
                    continue;
                }
                match op {
                    StreamOp::Kernel {
                        elements,
                        ops_per_element,
                        srf_words_per_element,
                        ..
                    } => {
                        if kernel.is_none() {
                            let dur = self.kernel_cycles(
                                *elements,
                                *ops_per_element,
                                *srf_words_per_element,
                            );
                            kernel = Some(KernelRun {
                                op: id,
                                end_at: t + dur,
                            });
                            state[id] = OpState::Running;
                            spans[id].start = t;
                            live_srf += srf_footprint(op);
                            peak_srf = peak_srf.max(live_srf);
                        }
                    }
                    _ => {
                        if let Some(slot) = ags.iter().position(|a| a.is_none()) {
                            let total = op.mem_refs();
                            ags[slot] = Some(MemRun {
                                op: id,
                                issue_from: t + u64::from(self.cfg.ag.startup_cycles),
                                cursor: 0,
                                acked: 0,
                                total,
                            });
                            state[id] = OpState::Running;
                            spans[id].start = t;
                            live_srf += srf_footprint(op);
                            peak_srf = peak_srf.max(live_srf);
                            if total == 0 {
                                // Degenerate empty stream: completes at once.
                                state[id] = OpState::Done;
                                spans[id].end = t;
                                remaining -= 1;
                                ags[slot] = None;
                                live_srf -= srf_footprint(op);
                            }
                        }
                    }
                }
            }

            // Kernel completion.
            if kernel.as_ref().is_some_and(|k| k.end_at <= t) {
                let k = kernel.take().expect("checked");
                state[k.op] = OpState::Done;
                spans[k.op].end = t;
                remaining -= 1;
                live_srf -= srf_footprint(prog.op(k.op).0);
            }

            // Issue memory requests from each busy AG.
            for (slot, ag) in ags.iter_mut().enumerate() {
                let Some(run) = ag.as_mut() else { continue };
                if run.issue_from > t {
                    continue;
                }
                let (op, _) = prog.op(run.op);
                for _ in 0..self.cfg.ag.width {
                    if run.cursor >= run.total {
                        break;
                    }
                    let i = run.cursor;
                    let req = match op {
                        StreamOp::Gather { pattern } => MemRequest {
                            id: next_id,
                            addr: pattern.addr(i),
                            op: MemOp::Read,
                            origin: Origin::AddrGen { node: 0, ag: slot },
                        },
                        StreamOp::Scatter { pattern, values } => MemRequest {
                            id: next_id,
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
                            id: next_id,
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
                    match node.inject_traced(req, now) {
                        Ok(()) => {
                            req_owner.insert(next_id, run.op);
                            next_id += 1;
                            run.cursor += 1;
                        }
                        Err(_) => break, // bank queue full: stall this AG
                    }
                }
            }

            node.tick(now);

            // Completions retire requests and, eventually, their ops.
            while let Some(c) = node.pop_completion() {
                let Some(op) = req_owner.remove(&c.id) else {
                    continue;
                };
                for ag in ags.iter_mut() {
                    if let Some(run) = ag.as_mut() {
                        if run.op == op {
                            run.acked += 1;
                            if run.acked == run.total {
                                state[op] = OpState::Done;
                                spans[op].end = t;
                                remaining -= 1;
                                *ag = None;
                                live_srf -= srf_footprint(prog.op(op).0);
                            }
                            break;
                        }
                    }
                }
            }

            // Fast-forward: when no op can start next cycle and no AG is
            // actively issuing, nothing on the scoreboard changes until the
            // next kernel/AG wakeup or node event — jump the clock there.
            if fast_forward && remaining > 0 {
                let can_start = (0..n_ops).any(|id| {
                    state[id] == OpState::Waiting && {
                        let (op, deps) = prog.op(id);
                        deps.iter().all(|&d| state[d] == OpState::Done)
                            && match op {
                                StreamOp::Kernel { .. } => kernel.is_none(),
                                _ => ags.iter().any(|a| a.is_none()),
                            }
                    }
                });
                let issuing = ags
                    .iter()
                    .flatten()
                    .any(|run| run.issue_from <= t && run.cursor < run.total);
                if !can_start && !issuing {
                    let mut horizon: Option<u64> = None;
                    let mut fold = |v: u64| horizon = Some(horizon.map_or(v, |h| h.min(v)));
                    if let Some(k) = &kernel {
                        fold(k.end_at); // > t: completion was checked above
                    }
                    for run in ags.iter().flatten() {
                        if run.issue_from > t && run.cursor < run.total {
                            fold(run.issue_from);
                        }
                    }
                    if let Some(e) = node.next_event(now) {
                        fold(e.raw());
                    }
                    if let Some(h) = horizon {
                        if h > t + 1 {
                            let k = h - t - 1;
                            node.skip_cycles(now, k);
                            clock.skip_to(Cycle(h - 1));
                            skipped_cycles += k;
                        }
                    }
                }
            }
        }

        // Drain any in-flight write-backs so the machine is quiescent, then
        // materialize the coherent memory image.
        while !node.is_idle() {
            let now = clock.advance();
            node.tick(now);
            while node.pop_completion().is_some() {}
            if fast_forward {
                if let Some(h) = node.next_event(now) {
                    if h > now + 1 {
                        let k = h.raw() - now.raw() - 1;
                        node.skip_cycles(now, k);
                        clock.skip_to(Cycle(h.raw() - 1));
                        skipped_cycles += k;
                    }
                }
            }
        }
        node.flush_to_store();

        let srf_capacity = self.cfg.compute.srf_bytes / sa_sim::WORD_BYTES;
        ExecReport {
            cycles: clock.now().raw(),
            spans,
            stats: node.stats(),
            program: ProgramCounters {
                flops: prog.total_flops(),
                mem_refs: prog.total_mem_refs(),
            },
            srf: SrfUsage {
                peak_words: peak_srf,
                overflow: peak_srf > srf_capacity,
            },
            req_trace: node.take_req_trace(),
            skipped_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::AccessPattern;
    use sa_sim::Addr;

    fn cfg() -> MachineConfig {
        MachineConfig::merrimac()
    }

    fn node() -> NodeMemSys {
        NodeMemSys::new(cfg(), 0, false)
    }

    #[test]
    fn kernel_cycles_model() {
        let e = Executor::new(cfg());
        // 16 clusters, 8 ops/cycle/cluster: 1600 elements × 8 ops = 100
        // groups × 1 cycle + startup.
        let startup = u64::from(cfg().compute.kernel_startup_cycles);
        assert_eq!(e.kernel_cycles(1600, 8, 1), startup + 100);
        // Ops-bound: 16 ops/elem → 2 cycles per group.
        assert_eq!(e.kernel_cycles(1600, 16, 1), startup + 200);
        // SRF-bound: 12 words/elem at 4 words/cycle → 3 cycles per group.
        assert_eq!(e.kernel_cycles(1600, 1, 12), startup + 300);
        // Minimum one cycle per group.
        assert_eq!(e.kernel_cycles(16, 0, 0), startup + 1);
    }

    #[test]
    fn gather_reads_preloaded_memory() {
        let mut n = node();
        n.store_mut().load_i64(Addr(0), &[7; 64]);
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 64,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.mem_refs(), 64);
        assert!(r.cycles > u64::from(cfg().ag.startup_cycles));
    }

    #[test]
    fn scatter_writes_memory() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: 100,
                    n: 8,
                },
                (1..=8u64).collect(),
            ),
            &[],
        );
        Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(
            n.store().extract_i64(Addr::from_word_index(100), 8),
            (1..=8i64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_add_accumulates() {
        let mut n = node();
        let mut p = StreamProgram::new();
        let idx = vec![0u64, 1, 0, 1, 0];
        p.add(
            StreamOp::scatter_add_i64(
                AccessPattern::Indexed {
                    base_word: 0,
                    indices: idx,
                },
                &[1, 1, 1, 1, 1],
            ),
            &[],
        );
        Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(n.store().extract_i64(Addr(0), 2), vec![3, 2]);
    }

    #[test]
    fn dependencies_serialize() {
        // load → kernel → store: spans must not overlap.
        let mut n = node();
        let mut p = StreamProgram::new();
        let g = p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 256,
            }),
            &[],
        );
        let k = p.add(StreamOp::kernel("f", 256, 2, 2, 2), &[g]);
        p.add(
            StreamOp::scatter(
                AccessPattern::Sequential {
                    base_word: 1000,
                    n: 256,
                },
                vec![0; 256],
            ),
            &[k],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.spans[0].end <= r.spans[1].start);
        assert!(r.spans[1].end <= r.spans[2].start);
    }

    #[test]
    fn independent_ops_overlap() {
        // Two independent cache-resident gathers use both AGs concurrently;
        // a dependent chain of the same work takes roughly twice as long.
        // (Cold gathers would both be DRAM-bandwidth-bound and look alike,
        // so warm the cache first.)
        let run = |chained: bool| {
            let mut n = node();
            let mut p = StreamProgram::new();
            let warm_a = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 4096,
                }),
                &[],
            );
            let warm_b = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 4096,
                    n: 4096,
                }),
                &[warm_a],
            );
            let a = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 4096,
                }),
                &[warm_b],
            );
            let deps: Vec<OpId> = if chained {
                vec![warm_b, a]
            } else {
                vec![warm_b]
            };
            let b = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 4096,
                    n: 4096,
                }),
                &deps,
            );
            let r = Executor::new(cfg()).run(&p, &mut n);
            r.spans[b].end - r.spans[a].start
        };
        let parallel = run(false);
        let serial = run(true);
        assert!(
            serial as f64 > parallel as f64 * 1.5,
            "serial {serial} vs parallel {parallel}"
        );
    }

    #[test]
    fn kernel_overlaps_independent_memory_op() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 2048,
            }),
            &[],
        );
        p.add(StreamOp::kernel("busy", 2048, 8, 8, 1), &[]);
        let r = Executor::new(cfg()).run(&p, &mut n);
        let g = r.spans[0];
        let k = r.spans[1];
        assert!(
            g.start < k.end && k.start < g.end,
            "gather {g:?} and kernel {k:?} should overlap"
        );
    }

    #[test]
    fn report_metrics_match_program() {
        let mut n = node();
        let mut p = StreamProgram::new();
        let g = p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 128,
            }),
            &[],
        );
        p.add(StreamOp::kernel("k", 128, 4, 4, 2), &[g]);
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.flops(), 512);
        assert_eq!(r.mem_refs(), 128);
        assert!((r.micros() - r.cycles as f64 / 1e3).abs() < 1e-12);
    }

    #[test]
    fn srf_footprint_is_tracked() {
        let mut n = node();
        let mut p = StreamProgram::new();
        // Two overlapping 4096-word gathers: peak footprint 8192 words.
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 4096,
            }),
            &[],
        );
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 8192,
                n: 4096,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.peak_srf_words(), 8192);
        assert!(!r.srf_overflow(), "8192 words fit the 128K-word SRF");
    }

    #[test]
    fn srf_overflow_is_flagged() {
        let mut n = node();
        let mut p = StreamProgram::new();
        // A single 200K-word gather exceeds the 1 MB (128K-word) SRF.
        p.add(
            StreamOp::gather(AccessPattern::Sequential {
                base_word: 0,
                n: 200_000,
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.srf_overflow(), "oversized stage must be flagged");
        assert_eq!(r.peak_srf_words(), 200_000);
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        // The same gather → kernel → scatter-add program must produce
        // identical cycles, spans, and machine stats with event-horizon
        // skipping on or off; only wall-clock accounting may differ.
        let run = |ff: bool| {
            let mut n = node();
            n.set_fast_forward(ff);
            n.store_mut().load_i64(Addr(0), &[3; 1024]);
            let mut p = StreamProgram::new();
            let g = p.add(
                StreamOp::gather(AccessPattern::Sequential {
                    base_word: 0,
                    n: 1024,
                }),
                &[],
            );
            let k = p.add(StreamOp::kernel("f", 1024, 8, 2, 2), &[g]);
            let idx: Vec<u64> = (0..1024u64).map(|i| i % 64).collect();
            p.add(
                StreamOp::scatter_add_i64(
                    AccessPattern::Indexed {
                        base_word: 4096,
                        indices: idx,
                    },
                    &[1; 1024],
                ),
                &[k],
            );
            let r = Executor::new(cfg()).run(&p, &mut n);
            let image = n.store().extract_i64(Addr::from_word_index(4096), 64);
            (r, image)
        };
        let (on, img_on) = run(true);
        let (off, img_off) = run(false);
        assert!(on.skipped_cycles > 0, "expected some fast-forwarded cycles");
        assert_eq!(off.skipped_cycles, 0);
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.spans, off.spans);
        assert_eq!(on.stats, off.stats);
        assert_eq!(img_on, img_off);
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let mut n = node();
        let p = StreamProgram::new();
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn empty_stream_op_completes() {
        let mut n = node();
        let mut p = StreamProgram::new();
        p.add(
            StreamOp::gather(AccessPattern::Indexed {
                base_word: 0,
                indices: vec![],
            }),
            &[],
        );
        let r = Executor::new(cfg()).run(&p, &mut n);
        assert!(r.cycles < 10);
    }
}
