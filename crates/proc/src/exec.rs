//! Scoreboarded execution of a [`StreamProgram`] on one node.

use std::collections::BTreeSet;

use sa_core::NodeMemSys;
use sa_sim::{Cycle, Machine, MachineConfig, MemOp, MemRequest, Origin, ReqId, RunEnd};
use sa_telemetry::{HostProfiler, Introspect};

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

/// Waiting ops whose dependencies have all completed, by the resource
/// they need, in id order.
#[derive(Default)]
struct Ready {
    kernels: BTreeSet<OpId>,
    mem: BTreeSet<OpId>,
}

impl Ready {
    fn insert(&mut self, id: OpId, op: &StreamOp) {
        match op {
            StreamOp::Kernel { .. } => self.kernels.insert(id),
            _ => self.mem.insert(id),
        };
    }
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
    /// Panics if the simulation deadlocks (cycle limit exceeded), or if
    /// the node completes a request that no address generator issued —
    /// either would indicate a bug in the machine model, not in the
    /// program.
    pub fn run(&self, prog: &StreamProgram, node: &mut NodeMemSys) -> ExecReport {
        let n_ops = prog.len();
        let fast_forward = node.fast_forward();
        let mut unmet = Vec::with_capacity(n_ops);
        let mut dependents = vec![Vec::new(); n_ops];
        let mut ready = Ready::default();
        for (id, op, deps) in prog.iter() {
            unmet.push(deps.len());
            for &d in deps {
                dependents[d].push(id);
            }
            if deps.is_empty() {
                ready.insert(id, op);
            }
        }
        let mut m = Scoreboard {
            exec: self,
            prog,
            node,
            spans: vec![OpSpan::default(); n_ops],
            unmet,
            dependents,
            ready,
            ags: (0..self.cfg.ag.count).map(|_| None).collect(),
            kernel: None,
            next_id: 0,
            remaining: n_ops,
            live_srf: 0,
            peak_srf: 0,
        };
        // A finished program on a drained node takes no cycles.
        let end = if m.end_of_cycle(&mut HostProfiler::off()) {
            RunEnd::default()
        } else {
            sa_sim::run(&mut m, fast_forward, &mut Introspect::off())
        };
        // The run ends with the machine quiescent; materialize the
        // coherent memory image.
        m.node.flush_to_store();

        let srf_capacity = self.cfg.compute.srf_bytes / sa_sim::WORD_BYTES;
        ExecReport {
            cycles: end.cycles,
            spans: m.spans,
            stats: m.node.stats(),
            program: ProgramCounters {
                flops: prog.total_flops(),
                mem_refs: prog.total_mem_refs(),
            },
            srf: SrfUsage {
                peak_words: m.peak_srf,
                overflow: m.peak_srf > srf_capacity,
            },
            req_trace: m.node.take_req_trace(),
            skipped_cycles: end.skipped_cycles,
        }
    }
}

/// One program run's scoreboard: op readiness, the address generators
/// and the kernel slot, and the node they drive.
struct Scoreboard<'a> {
    exec: &'a Executor,
    prog: &'a StreamProgram,
    node: &'a mut NodeMemSys,
    spans: Vec<OpSpan>,
    /// Per op, the dependencies not yet done.
    unmet: Vec<usize>,
    /// Per op, the ops that depend on it.
    dependents: Vec<Vec<OpId>>,
    ready: Ready,
    ags: Vec<Option<MemRun>>,
    kernel: Option<KernelRun>,
    next_id: ReqId,
    remaining: usize,
    live_srf: u64,
    peak_srf: u64,
}

impl Scoreboard<'_> {
    /// Op `id` completed at cycle `t`: release its SRF footprint and move
    /// each dependent whose last dependency this was into its ready set.
    fn done(&mut self, id: OpId, t: u64) {
        self.spans[id].end = t;
        self.remaining -= 1;
        self.live_srf -= srf_footprint(self.prog.op(id).0);
        for &d in &self.dependents[id] {
            self.unmet[d] -= 1;
            if self.unmet[d] == 0 {
                self.ready.insert(d, self.prog.op(d).0);
            }
        }
    }
}

impl Machine for Scoreboard<'_> {
    fn step(&mut self, now: Cycle, _: &mut HostProfiler) {
        let t = now.raw();
        let cfg = self.exec.cfg;
        let prog = self.prog;

        // Start ready ops on free resources, in ascending id order: an op
        // whose resource is busy is passed over, and a zero-length stream
        // completes at once, so its (higher-id) dependents start this cycle.
        let mut cursor = 0;
        loop {
            let kernel = if self.kernel.is_none() {
                self.ready.kernels.range(cursor..).next().copied()
            } else {
                None
            };
            let free_ag = self.ags.iter().position(Option::is_none);
            let mem = free_ag.and_then(|_| self.ready.mem.range(cursor..).next().copied());
            let Some(id) = kernel.into_iter().chain(mem).min() else {
                break;
            };
            cursor = id + 1;
            let op = prog.op(id).0;
            self.spans[id].start = t;
            self.live_srf += srf_footprint(op);
            self.peak_srf = self.peak_srf.max(self.live_srf);
            match op {
                StreamOp::Kernel {
                    elements,
                    ops_per_element,
                    srf_words_per_element,
                    ..
                } => {
                    self.ready.kernels.remove(&id);
                    let dur = self.exec.kernel_cycles(
                        *elements,
                        *ops_per_element,
                        *srf_words_per_element,
                    );
                    self.kernel = Some(KernelRun {
                        op: id,
                        end_at: t + dur,
                    });
                }
                _ => {
                    self.ready.mem.remove(&id);
                    let total = op.mem_refs();
                    if total == 0 {
                        // Degenerate empty stream: completes at once.
                        self.done(id, t);
                    } else {
                        self.ags[free_ag.expect("checked")] = Some(MemRun {
                            op: id,
                            issue_from: t + u64::from(cfg.ag.startup_cycles),
                            cursor: 0,
                            acked: 0,
                            total,
                        });
                    }
                }
            }
        }

        // Kernel completion.
        if self.kernel.as_ref().is_some_and(|k| k.end_at <= t) {
            let k = self.kernel.take().expect("checked");
            self.done(k.op, t);
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
                        self.next_id += 1;
                        run.cursor += 1;
                    }
                    Err(_) => break, // bank queue full: stall this AG
                }
            }
        }

        self.node.tick(now);

        // Completions retire requests and, eventually, their ops. Each
        // request names the address generator that issued it.
        while let Some(c) = self.node.pop_completion() {
            let Origin::AddrGen { ag, .. } = c.origin else {
                panic!("executor got a completion from {:?}", c.origin);
            };
            let run = self.ags[ag]
                .as_mut()
                .unwrap_or_else(|| panic!("completion for idle address generator {ag}"));
            run.acked += 1;
            if run.acked == run.total {
                let op = run.op;
                self.ags[ag] = None;
                self.done(op, t);
            }
        }
    }

    /// Every op done and every in-flight write-back drained.
    fn end_of_cycle(&mut self, _: &mut HostProfiler) -> bool {
        self.remaining == 0 && self.node.is_idle()
    }

    /// When no op can start next cycle and no AG is actively issuing,
    /// nothing on the scoreboard changes until the next kernel/AG wakeup
    /// or node event.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        let t = now.raw();
        let can_start = (self.kernel.is_none() && !self.ready.kernels.is_empty())
            || (!self.ready.mem.is_empty() && self.ags.iter().any(Option::is_none));
        let issuing = self
            .ags
            .iter()
            .flatten()
            .any(|run| run.issue_from <= t && run.cursor < run.total);
        if can_start || issuing {
            return None;
        }
        // A running kernel ends after `t`: completion was checked in `step`.
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
        assert_eq!(r.srf.peak_words, 8192);
        assert!(!r.srf.overflow, "8192 words fit the 128K-word SRF");
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
        assert!(r.srf.overflow, "oversized stage must be flagged");
        assert_eq!(r.srf.peak_words, 200_000);
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

    fn span(start: u64, end: u64) -> OpSpan {
        OpSpan { start, end }
    }

    fn gather64(base_word: u64) -> StreamOp {
        StreamOp::gather(AccessPattern::Sequential { base_word, n: 64 })
    }

    /// The span of `gather64(base_word)` run alone on a fresh node.
    fn solo_gather(base_word: u64) -> OpSpan {
        let mut p = StreamProgram::new();
        p.add(gather64(base_word), &[]);
        Executor::new(cfg()).run(&p, &mut node()).spans[0]
    }

    #[test]
    fn busy_kernel_slot_passes_over_to_a_later_memory_op() {
        // Kernel 1 waits for kernel 0; gather 2 starts in the first cycle
        // anyway. Kernels never touch memory, so the gather runs exactly as
        // it does alone.
        let e = Executor::new(cfg());
        let mut p = StreamProgram::new();
        p.add(StreamOp::kernel("a", 1600, 8, 8, 1), &[]);
        p.add(StreamOp::kernel("b", 1600, 8, 8, 1), &[]);
        p.add(gather64(0), &[]);
        let r = e.run(&p, &mut node());
        let k = e.kernel_cycles(1600, 8, 1);
        assert_eq!(
            r.spans,
            vec![span(1, 1 + k), span(2 + k, 2 + 2 * k), solo_gather(0)]
        );
    }

    #[test]
    fn busy_address_generators_pass_over_to_a_later_kernel() {
        // Three gathers on two AGs: the third waits for a free AG, and the
        // kernel behind it starts in the first cycle. Without the kernel
        // the gathers run exactly the same.
        let e = Executor::new(cfg());
        let mut p = StreamProgram::new();
        for base in [0, 1024, 2048] {
            p.add(gather64(base), &[]);
        }
        let gathers_alone = e.run(&p, &mut node()).spans;
        p.add(StreamOp::kernel("k", 1600, 8, 8, 1), &[]);
        let r = e.run(&p, &mut node());
        assert_eq!(cfg().ag.count, 2);
        assert_eq!(r.spans[..3], gathers_alone[..]);
        assert!(r.spans[2].start > 1, "third gather must wait for an AG");
        let k = e.kernel_cycles(1600, 8, 1);
        assert_eq!(r.spans[3], span(1, 1 + k));
    }

    #[test]
    fn zero_length_stream_releases_dependents_in_its_cycle() {
        // kernel 0 → empty gather 1 → {kernel 2, gather 3}: the empty
        // stream starts and completes in one cycle, and both dependents
        // start in that same cycle.
        let e = Executor::new(cfg());
        let mut p = StreamProgram::new();
        let k0 = p.add(StreamOp::kernel("a", 1600, 8, 8, 1), &[]);
        let empty = p.add(
            StreamOp::gather(AccessPattern::Indexed {
                base_word: 0,
                indices: vec![],
            }),
            &[k0],
        );
        p.add(StreamOp::kernel("b", 1600, 8, 8, 1), &[empty]);
        p.add(gather64(0), &[empty]);
        let r = e.run(&p, &mut node());
        let k = e.kernel_cycles(1600, 8, 1);
        let at = 2 + k;
        let solo = solo_gather(0);
        assert_eq!(
            r.spans,
            vec![
                span(1, 1 + k),
                span(at, at),
                span(at, at + k),
                span(at, at - 1 + solo.end),
            ]
        );
    }

    #[test]
    fn one_ag_serializes_64_ready_gathers() {
        // Every cycle the start loop passes over the ready gathers it cannot
        // place; each starts the cycle after its predecessor's last ack.
        let mut c = cfg();
        c.ag.count = 1;
        let mut p = StreamProgram::new();
        for i in 0..64 {
            p.add(gather64(i * 64), &[]);
        }
        let r = Executor::new(c).run(&p, &mut NodeMemSys::new(c, 0, false));
        assert_eq!(r.spans[0].start, 1);
        for w in r.spans.windows(2) {
            assert!(w[0].start < w[0].end);
            assert_eq!(w[1].start, w[0].end + 1);
        }
        assert!(r.cycles >= r.spans[63].end);
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
