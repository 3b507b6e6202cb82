//! The simulation workloads: two single-node histograms (one combining-
//! bound, one miss-bound), a multinode combining trace, and the Figure 10
//! water kernel on the stream-program executor.

use std::time::Duration;

use sa_apps::md::{self, WaterSystem};
use sa_core::{scatter_reference, NodeMemSys, ScatterKernel};
use sa_memo::{hash_u64s, sha256_hex};
use sa_multinode::MultiNode;
use sa_net::{Crossbar, Message};
use sa_sim::{Addr, Cycle, MachineConfig, NetworkConfig, Rng64};
use scatter_add_repro::{Session, SessionReport, Topology, Workload};

use crate::bench::{overhead_pct, repeat_ops, timed, Bench, Layers, Op, Scale, Window};
use crate::nodeloop;
use crate::trace::{Call, Spans};

/// Nodes of the multinode workload (Figure 13's largest machine).
const NODES: usize = 8;

/// The digest of a session report: SHA-256 of its JSON form without the
/// result image, which every repetition checks against `scatter_reference`
/// instead (hashing a 4M-word image would cost more than some runs).
pub fn report_digest(report: &mut SessionReport) -> String {
    let result = std::mem::take(&mut report.result);
    let doc = report.to_json();
    report.result = result;
    sha256_hex(doc.to_string_compact().as_bytes())
}

/// A session workload: histogram (single node) or multinode trace.
pub struct SessionBench {
    cfg: MachineConfig,
    workload: Workload,
    reference: Vec<u64>,
}

impl SessionBench {
    /// `combine-hot`: a narrow histogram whose adds nearly all combine.
    pub fn combine_hot(seed: u64, scale: Scale) -> SessionBench {
        SessionBench::histogram(seed, scale.pick(1 << 20, 4096), 256)
    }

    /// `scatter-wide`: random adds over a range far larger than the cache.
    pub fn scatter_wide(seed: u64, scale: Scale) -> SessionBench {
        SessionBench::histogram(
            seed,
            scale.pick(1 << 18, 4096),
            scale.pick(1 << 22, 1 << 16),
        )
    }

    fn histogram(seed: u64, n: usize, range: u64) -> SessionBench {
        let cfg = MachineConfig::merrimac();
        let mut rng = Rng64::new(seed);
        let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
        let kernel = ScatterKernel::histogram(0, indices.clone());
        let reference = scatter_reference(&kernel, result_len(&indices));
        // Machine construction is set-up too (the session repeats it).
        drop(NodeMemSys::new(cfg, 0, false));
        SessionBench {
            cfg,
            workload: Workload::Histogram {
                base_word: 0,
                indices,
            },
            reference,
        }
    }

    /// `multinode-comb`: a Figure-13-style narrow f64 trace on 8 nodes over
    /// the low network, with cache combining.
    pub fn multinode_comb(seed: u64, scale: Scale) -> SessionBench {
        let cfg = MachineConfig::merrimac();
        let mut rng = Rng64::new(seed);
        let n = scale.pick(1 << 19, 4096);
        let trace: Vec<u64> = (0..n).map(|_| rng.below(256)).collect();
        let values = vec![1.0; n];
        let kernel = ScatterKernel::superposition(0, trace.clone(), &values);
        let reference = scatter_reference(&kernel, result_len(&trace));
        drop(MultiNode::new(cfg, NODES, NetworkConfig::low(), true));
        SessionBench {
            cfg,
            workload: Workload::MultiNode {
                nodes: NODES,
                network: NetworkConfig::low(),
                combining: true,
                topology: Topology::Flat,
                trace,
                values,
            },
            reference,
        }
    }

    fn session(&self, node_threads: Option<usize>) -> Session {
        let mut b = Session::builder().workload(self.workload.clone());
        if let Some(t) = node_threads {
            b = b.node_threads(t);
        }
        b.build().expect("the workload is a valid session")
    }

    /// Run the session and check its image against the reference.
    fn run(&self, node_threads: Option<usize>) -> Result<(SessionReport, Duration), String> {
        let session = self.session(node_threads);
        let (report, wall) = timed(|| session.run());
        if report.result != self.reference {
            return Err("result image differs from scatter_reference".into());
        }
        Ok((report, wall))
    }

    /// The word indices, and the multinode trace's addends (empty for a
    /// histogram, whose addends are all 1).
    fn trace(&self) -> (&[u64], &[f64]) {
        match &self.workload {
            Workload::Histogram { indices, .. } => (indices, &[]),
            Workload::MultiNode { trace, values, .. } => (trace, values),
            Workload::Scatter(_) => unreachable!("no workload here is a bare scatter kernel"),
        }
    }
}

fn result_len(indices: &[u64]) -> usize {
    indices.iter().copied().max().map_or(0, |m| m as usize + 1)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Bench for SessionBench {
    fn measure(&mut self, budget: Duration) -> Window {
        repeat_ops(budget, || {
            let (mut report, wall) = self.run(None)?;
            Ok(Op {
                wall,
                attempted: 1,
                failed: 0,
                digest: report_digest(&mut report),
            })
        })
    }

    fn traced(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        match self.workload {
            Workload::MultiNode { .. } => self.traced_multinode(untraced, spans),
            _ => self.traced_node(untraced, spans),
        }
    }
}

impl SessionBench {
    /// Single node: the intra-node lane pool at 2 threads against 1, then
    /// the component loop, checked against the sessions' report.
    fn traced_node(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        // Two alternating pairs, so one disturbed run cannot decide the ratio.
        let mut walls = [Duration::ZERO; 2];
        let mut first: Option<SessionReport> = None;
        spans.span("lane-pool", |s| {
            for _ in 0..2 {
                for (i, threads) in [1, 2].into_iter().enumerate() {
                    let (report, wall) =
                        s.span(&format!("session-nt{threads}"), |_| self.run(Some(threads)))?;
                    walls[i] += wall;
                    match &first {
                        None => first = Some(report),
                        Some(r) if r.cycles != report.cycles => {
                            return Err("node_threads changed simulated cycles".to_string())
                        }
                        Some(_) => {}
                    }
                }
            }
            Ok(())
        })?;
        let reference = first.expect("the lane pool ran");
        let ff = sa_sim::fast_forward_default();
        let run = spans.span("component-loop", |_| {
            nodeloop::run_histogram(&self.cfg, self.trace().0, ff)
        })?;
        if run.cycles != reference.cycles
            || run.result != reference.result
            || vec![run.stats] != reference.node_stats
        {
            return Err(format!(
                "component loop diverged from Session::run ({} vs {} cycles)",
                run.cycles, reference.cycles
            ));
        }
        run.print_calls();

        let st = run.stats;
        let mut l = Layers::default();
        l.set(
            "driver.inject_ns_per_cycle",
            run.call_ns_per_cycle(Call::Inject),
        );
        l.set(
            "driver.drain_ns_per_cycle",
            run.call_ns_per_cycle(Call::Drain),
        );
        l.set(
            "driver.skip_ns_per_cycle",
            run.call_ns_per_cycle(Call::Skip),
        );
        l.set(
            "driver.skipped_ratio",
            ratio(run.skipped_cycles, run.drain_cycles),
        );
        l.set(
            "driver.inject_reject_ratio",
            ratio(run.inject_rejects, run.inject_attempts),
        );
        l.set("unit.ns_per_cycle", run.layer_ns_per_cycle("unit"));
        l.set("unit.submits", st.sa.accepted as f64);
        l.set("unit.combine_ratio", ratio(st.sa.combined, st.sa.accepted));
        l.set(
            "unit.reject_ratio",
            ratio(st.sa.stalled_full, st.sa.accepted + st.sa.stalled_full),
        );
        l.set(
            "unit.busy_ratio",
            ratio(st.sa.occ.busy, st.sa.occ.elapsed()),
        );
        let c = st.cache;
        let granted = c.read_hits
            + c.read_misses
            + c.read_merges
            + c.write_hits
            + c.write_arounds
            + c.write_merges
            + c.zero_allocs;
        l.set("bank.ns_per_cycle", run.layer_ns_per_cycle("bank"));
        l.set("bank.accesses", granted as f64);
        l.set("bank.hit_ratio", ratio(c.read_hits + c.write_hits, granted));
        l.set("bank.reject_ratio", ratio(c.blocked, granted + c.blocked));
        l.set("bank.busy_ratio", ratio(c.occ.busy, c.occ.elapsed()));
        let d = st.dram;
        l.set("dram.ns_per_cycle", run.layer_ns_per_cycle("dram"));
        l.set("dram.cmds", (d.reads + d.writes) as f64);
        l.set(
            "dram.row_hit_ratio",
            ratio(d.row_hits, d.row_hits + d.row_misses),
        );
        l.set("dram.busy_ratio", ratio(d.occ.busy, d.occ.elapsed()));
        l.set("queue.ns_per_cycle", run.layer_ns_per_cycle("queue"));
        l.set(
            "lane.nt2_speedup",
            walls[0].as_secs_f64() / walls[1].as_secs_f64(),
        );
        l.set(
            "trace.overhead_pct",
            overhead_pct(Duration::from_secs_f64(run.wall_s), untraced),
        );
        Ok(l)
    }

    /// Multinode: the machine's own entry point at 1 and 2 stepper threads,
    /// then the trace's remote-message stream replayed through a crossbar.
    fn traced_multinode(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        let Workload::MultiNode {
            nodes,
            network,
            combining,
            ..
        } = self.workload
        else {
            unreachable!("traced_multinode runs the multinode workload");
        };
        let (trace, values) = self.trace();
        let step = |threads: usize, s: &mut Spans| {
            let mut machine = MultiNode::new(self.cfg, nodes, network, combining);
            s.span(&format!("run_trace_threads-st{threads}"), |_| {
                timed(|| machine.run_trace_threads(trace, values, threads))
            })
        };
        let (st1, wall1) = step(1, spans);
        let (st2, wall2) = step(2, spans);
        if st1.cycles != st2.cycles {
            return Err("step_threads changed simulated cycles".into());
        }
        let xbar = spans.span("crossbar-replay", |_| {
            replay_remote_messages(&self.cfg, trace, nodes, network)
        });
        if xbar.delivered != xbar.offered {
            return Err(format!(
                "crossbar delivered {} of {} messages",
                xbar.delivered, xbar.offered
            ));
        }

        let mut l = Layers::default();
        l.set(
            "multinode.ns_per_node_cycle",
            wall1.as_secs_f64() * 1e9 / (st1.cycles * nodes as u64) as f64,
        );
        l.set(
            "multinode.st2_speedup",
            wall1.as_secs_f64() / wall2.as_secs_f64(),
        );
        l.set("multinode.sum_back_lines", st1.sum_back_lines as f64);
        l.set(
            "xbar.ns_per_cycle",
            xbar.wall.as_secs_f64() * 1e9 / xbar.cycles as f64,
        );
        l.set("xbar.msgs", xbar.delivered as f64);
        l.set("xbar.reject_ratio", ratio(xbar.rejects, xbar.attempts));
        l.set("trace.overhead_pct", overhead_pct(wall1, untraced));
        Ok(l)
    }
}

/// What replaying a remote-message stream through a crossbar cost.
struct XbarReplay {
    wall: Duration,
    cycles: u64,
    offered: u64,
    delivered: u64,
    attempts: u64,
    rejects: u64,
}

/// Replay the one-word messages a direct (non-combining) run of `trace`
/// would send — every reference whose line is homed on another node than
/// the one owning its block of the trace — through `Crossbar::new`, each
/// node offering its next message every cycle.
fn replay_remote_messages(
    cfg: &MachineConfig,
    trace: &[u64],
    nodes: usize,
    network: NetworkConfig,
) -> XbarReplay {
    let line_bytes = cfg.cache.line_bytes;
    let outboxes: Vec<Vec<Message<u64>>> = (0..nodes)
        .map(|src| {
            let (lo, hi) = (trace.len() * src / nodes, trace.len() * (src + 1) / nodes);
            trace[lo..hi]
                .iter()
                .filter_map(|&w| {
                    let home =
                        (Addr::from_word_index(w).line_index(line_bytes) % nodes as u64) as usize;
                    (home != src).then(|| Message::new(src, home, 1, w))
                })
                .collect()
        })
        .collect();
    let total = outboxes.iter().map(Vec::len).sum::<usize>() as u64;
    let mut cursors = vec![0usize; nodes];
    let mut net: Crossbar<u64> = Crossbar::new(nodes, network);
    let (mut delivered, mut attempts, mut rejects, mut now) = (0u64, 0u64, 0u64, 0u64);
    let (_, wall) = timed(|| {
        // Every message needs at most a few hundred cycles even under full
        // contention; the limit only stops a wedged fabric from hanging.
        while delivered < total && now < 1_000 * (total + 1_000) {
            now += 1;
            for (src, outbox) in outboxes.iter().enumerate() {
                if let Some(msg) = outbox.get(cursors[src]) {
                    attempts += 1;
                    match net.try_inject(msg.clone()) {
                        Ok(()) => cursors[src] += 1,
                        Err(_) => rejects += 1,
                    }
                }
            }
            net.tick(Cycle(now));
            for dst in 0..nodes {
                while net.pop_delivered(dst).is_some() {
                    delivered += 1;
                }
            }
        }
    });
    XbarReplay {
        wall,
        cycles: now.max(1),
        offered: total,
        delivered,
        attempts,
        rejects,
    }
}

/// `md-exec`: the water kernel as no-SA, software sort&scan, and hardware
/// scatter-add stream programs.
pub struct MdBench {
    cfg: MachineConfig,
    system: WaterSystem,
    reference: Vec<[f64; 3]>,
}

/// Largest force-component deviation accepted against the reference.
const FORCE_TOLERANCE: f64 = 1e-6;

/// One Figure 10 variant: its name, its per-layer metric, and its runner.
type Variant = (
    &'static str,
    &'static str,
    fn(&MachineConfig, &WaterSystem) -> md::MdRun,
);

const VARIANTS: [Variant; 3] = [
    ("nosa", "exec.nosa_ns_per_cycle", md::run_no_sa),
    ("sw", "exec.sw_ns_per_cycle", md::run_sw_default),
    ("hw", "exec.hw_ns_per_cycle", md::run_hw),
];

impl MdBench {
    /// Generate the water box and its reference forces.
    pub fn new(seed: u64, scale: Scale) -> MdBench {
        let system = WaterSystem::generate(scale.pick(100, 24), seed);
        let reference = system.reference_forces();
        MdBench {
            cfg: MachineConfig::merrimac(),
            system,
            reference,
        }
    }

    /// Run one variant and check its forces.
    fn run(&self, variant: &Variant) -> Result<(md::MdRun, Duration), String> {
        let (run, wall) = timed(|| (variant.2)(&self.cfg, &self.system));
        let dev = md::max_force_deviation(&run.forces, &self.reference);
        if dev.is_nan() || dev >= FORCE_TOLERANCE {
            return Err(format!("{} forces deviate by {dev:e}", variant.0));
        }
        Ok((run, wall))
    }
}

impl Bench for MdBench {
    fn measure(&mut self, budget: Duration) -> Window {
        repeat_ops(budget, || {
            let mut wall = Duration::ZERO;
            let mut digest = Vec::new();
            for v in &VARIANTS {
                let (run, w) = self.run(v)?;
                wall += w;
                digest.push(run.report.cycles);
                digest.extend(run.forces.iter().flatten().map(|f| f.to_bits()));
            }
            Ok(Op {
                wall,
                attempted: VARIANTS.len() as u64,
                failed: 0,
                digest: hash_u64s(&digest),
            })
        })
    }

    fn traced(&mut self, untraced: &Window, spans: &mut Spans) -> Result<Layers, String> {
        let mut l = Layers::default();
        let mut walls = Vec::new();
        let (rep, rep_wall) = timed(|| {
            spans.span("repetition", |s| {
                for v in &VARIANTS {
                    let (run, wall) = s.span(v.0, |_| self.run(v))?;
                    l.set(v.1, wall.as_secs_f64() * 1e9 / run.report.cycles as f64);
                    walls.push(wall);
                }
                Ok::<_, String>(())
            })
        });
        rep?;
        let total: Duration = walls.iter().sum();
        l.set(
            "exec.sw_wall_share",
            walls[1].as_secs_f64() / total.as_secs_f64(),
        );
        l.set("trace.overhead_pct", overhead_pct(rep_wall, untraced));
        Ok(l)
    }
}
