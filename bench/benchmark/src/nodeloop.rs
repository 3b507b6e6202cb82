//! The traced single-node loop: `Session::run` of a histogram rebuilt from
//! the public component APIs (`BoundedQueue`, `CacheBank`,
//! `ScatterAddUnit`, `DramChannel`) so the benchmark can time each
//! component call from outside the program.
//!
//! It follows the serial phase order of `sa-core`'s node (`lane.rs`:
//! channels, then every lane's front, then every lane's step) and the
//! driver's inject / drain / event-horizon skip, and must reproduce the
//! session's cycles, memory image and statistics exactly; the caller checks
//! that. This copy of the node loop is temporary: it goes once the program
//! attributes host time to its own layers.

use std::collections::VecDeque;
use std::time::Instant;

use sa_cache::{AccessKind, CacheAccess, CacheBank};
use sa_core::{NodeStats, ScatterAddUnit, ToMem};
use sa_mem::{BackingStore, DramChannel};
use sa_sim::{
    Addr, BoundedQueue, Clock, Cycle, MachineConfig, MemOp, MemRequest, MemResponse, Origin,
    ScalarKind, ScatterOp,
};

use crate::trace::{timer_bias_ns, Call, CallTimer};

/// Depth of each bank's input queue (the node's `BANK_IN_DEPTH`).
const BANK_IN_DEPTH: usize = 8;

/// One cycle in this many is timed; the totals are scaled up.
pub const SAMPLE_EVERY: u64 = 16;

/// What the traced loop measured.
#[derive(Debug)]
pub struct LoopRun {
    /// Simulated cycles to the last acknowledgement (the session's
    /// `cycles`).
    pub cycles: u64,
    /// Simulated cycles until the node drained.
    pub drain_cycles: u64,
    /// Cycles fast-forwarded instead of ticked.
    pub skipped_cycles: u64,
    /// Result words `0..len`, as the session reports them.
    pub result: Vec<u64>,
    /// Aggregated statistics, comparable with the session's.
    pub stats: NodeStats,
    /// Injection attempts and how many the bank queues refused.
    pub inject_attempts: u64,
    /// Refused injection attempts.
    pub inject_rejects: u64,
    /// Per-call timing on the sampled cycles.
    pub timer: CallTimer,
    /// Ticked cycles that were sampled.
    pub sampled_cycles: u64,
    /// Ticked (not skipped) cycles.
    pub ticked_cycles: u64,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    /// What one timed call adds to its own measurement (ns).
    pub timer_bias_ns: f64,
}

impl LoopRun {
    /// Estimated host ns per simulated cycle spent in `layer`'s calls.
    pub fn layer_ns_per_cycle(&self, layer: &str) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| c.names().0 == layer)
            .map(|&c| self.call_ns_per_cycle(c))
            .sum()
    }

    /// Estimated host ns per simulated cycle spent in one call: its sampled
    /// self time less the timer's own cost, scaled from the sampled cycles
    /// to all ticked ones.
    pub fn call_ns_per_cycle(&self, call: Call) -> f64 {
        let scale = self.ticked_cycles as f64 / self.sampled_cycles.max(1) as f64;
        self.timer.net_ns(call, self.timer_bias_ns) * scale / self.drain_cycles.max(1) as f64
    }

    /// Print the (layer, call) table: sampled calls and estimated host ns
    /// per simulated cycle of each.
    pub fn print_calls(&self) {
        println!(
            "component calls ({} of {} ticked cycles sampled, {} simulated; \
             {:.1} ns of timer cost taken off each call):",
            self.sampled_cycles, self.ticked_cycles, self.drain_cycles, self.timer_bias_ns
        );
        for call in Call::ALL {
            let (layer, name) = call.names();
            println!(
                "  {layer:<7}{name:<16}{:>12} calls {:>10.2} ns/cycle",
                self.timer.get(call).0,
                self.call_ns_per_cycle(call)
            );
        }
    }
}

struct Lane {
    bank: CacheBank,
    sa: ScatterAddUnit,
    bank_in: BoundedQueue<MemRequest>,
    rr_sa_first: bool,
}

/// Run the integer histogram `indices` (base word 0) through the component
/// loop, timing one cycle in [`SAMPLE_EVERY`].
///
/// # Errors
///
/// Returns an error if a DRAM response arrives for something other than a
/// cache bank, which would mean the loop no longer matches the node.
pub fn run_histogram(
    cfg: &MachineConfig,
    indices: &[u64],
    fast_forward: bool,
) -> Result<LoopRun, String> {
    let started = Instant::now();
    let timer = CallTimer::default();
    let line_bytes = cfg.cache.line_bytes;
    let mut lanes: Vec<Lane> = (0..cfg.cache.banks)
        .map(|b| Lane {
            bank: CacheBank::new(cfg.cache, 0, b),
            sa: ScatterAddUnit::new(cfg.sa),
            bank_in: BoundedQueue::new(BANK_IN_DEPTH),
            rr_sa_first: false,
        })
        .collect();
    let mut channels: Vec<DramChannel> = (0..cfg.dram.channels)
        .map(|_| DramChannel::new(cfg.dram))
        .collect();
    let mut store = BackingStore::new();
    let mut completions: VecDeque<MemResponse> = VecDeque::new();

    let issue_per_cycle = cfg.ag.count * cfg.ag.width as usize;
    let mut pending: VecDeque<MemRequest> = indices
        .iter()
        .enumerate()
        .map(|(i, &idx)| MemRequest {
            id: i as u64,
            addr: Addr::from_word_index(idx),
            op: MemOp::Scatter {
                bits: 1,
                kind: ScalarKind::I64,
                op: ScatterOp::Add,
                fetch: false,
            },
            origin: Origin::AddrGen {
                node: 0,
                ag: i % cfg.ag.count,
            },
        })
        .collect();
    let n = indices.len();
    let mut clock = Clock::with_limit(4_000_000_000);
    let (mut acked, mut ack_time, mut skipped) = (0usize, 0u64, 0u64);
    let (mut attempts, mut rejects) = (0u64, 0u64);
    let (mut ticked, mut sampled) = (0u64, 0u64);

    loop {
        let now = clock.advance();
        let t = now.raw();
        let sample = ticked % SAMPLE_EVERY == 0;
        timer.set_sampling(sample);
        ticked += 1;
        sampled += u64::from(sample);

        timer.time(Call::Inject, || {
            let mut issued = 0;
            while issued < issue_per_cycle {
                let Some(req) = pending.pop_front() else {
                    break;
                };
                attempts += 1;
                let bank = cfg.cache.bank_of_line(req.addr.line_index(line_bytes));
                match lanes[bank].bank_in.try_push(req) {
                    Ok(()) => issued += 1,
                    Err(req) => {
                        rejects += 1;
                        pending.push_front(req);
                        break;
                    }
                }
            }
        });

        // 1. DRAM channels produce fills / acknowledgements.
        for ch in channels.iter_mut() {
            if let Some(resp) = timer.time(Call::DramTick, || ch.tick(now, &mut store)) {
                let Origin::CacheBank { bank, .. } = resp.origin else {
                    return Err(format!("DRAM response for {:?}", resp.origin));
                };
                timer.time(Call::BankFill, || lanes[bank].bank.on_mem_response(resp));
            }
        }

        // 2+3. Front phase in bank order: bank tick, one DRAM command.
        for lane in lanes.iter_mut() {
            timer.time(Call::QueueAdvance, || lane.bank_in.advance(t));
            timer.time(Call::BankTick, || lane.bank.tick(now));
            let channel_of = |base: Addr| cfg.dram.channel_of_line(base.line_index(line_bytes));
            let cmd = timer.time(Call::BankCmd, || {
                lane.bank.pop_mem_cmd_if(|cmd| {
                    timer.time(Call::DramAccept, || {
                        channels[channel_of(cmd.base)].can_accept()
                    })
                })
            });
            if let Some(cmd) = cmd {
                let ch = channel_of(cmd.base);
                timer
                    .time(Call::DramSubmit, || channels[ch].try_submit(cmd, now))
                    .map_err(|_| "DRAM channel refused a checked command".to_string())?;
            }
        }

        // 4-8. Step phase in bank order.
        for (b, lane) in lanes.iter_mut().enumerate() {
            step_lane(b, lane, now, &timer, &mut completions);
        }

        timer.time(Call::Drain, || {
            while let Some(c) = completions.pop_front() {
                acked += 1;
                if acked == n {
                    ack_time = c.at.raw();
                }
            }
        });

        let done = timer.time(Call::Skip, || {
            let idle = lanes
                .iter()
                .all(|l| l.bank_in.is_empty() && l.bank.is_idle() && l.sa.is_idle())
                && channels.iter().all(DramChannel::is_idle);
            if pending.is_empty() && idle {
                return true;
            }
            if fast_forward && pending.is_empty() {
                if let Some(h) = horizon(&lanes, &channels, now) {
                    if h > now + 1 {
                        let k = h.raw() - t - 1;
                        for lane in lanes.iter_mut() {
                            lane.sa.skip_cycles(now, k, false);
                            lane.bank.skip_cycles(now, k);
                            lane.bank_in.advance(t + k);
                        }
                        for ch in channels.iter_mut() {
                            ch.skip_idle(now, k);
                        }
                        clock.skip_to(Cycle(h.raw() - 1));
                        skipped += k;
                    }
                }
            }
            false
        });
        if done {
            break;
        }
    }

    // The node's end-of-run flush: dirty lines into the functional store.
    for lane in lanes.iter_mut() {
        for (base, data) in lane.bank.flush_dirty() {
            store.write_line(base, &data);
        }
    }
    let len = indices.iter().copied().max().map_or(0, |m| m + 1);
    let result = (0..len)
        .map(|w| store.read_word(Addr::from_word_index(w)))
        .collect();
    let mut stats = NodeStats::default();
    for lane in &lanes {
        stats.sa.merge(lane.sa.stats());
        stats.resilience.merge(&lane.sa.resilience_stats());
        stats.cache.merge(lane.bank.stats());
        stats.resilience.merge(&lane.bank.resilience_stats());
        stats.bank_in.merge(lane.bank_in.stats());
    }
    for ch in &channels {
        stats.dram.merge(ch.stats());
        stats.resilience.merge(&ch.resilience_stats());
    }
    let startup = u64::from(cfg.ag.startup_cycles);
    let wall_s = started.elapsed().as_secs_f64();
    Ok(LoopRun {
        cycles: ack_time + startup,
        drain_cycles: clock.now().raw() + startup,
        skipped_cycles: skipped,
        result,
        stats,
        inject_attempts: attempts,
        inject_rejects: rejects,
        timer,
        sampled_cycles: sampled,
        ticked_cycles: ticked,
        wall_s,
        timer_bias_ns: timer_bias_ns(),
    })
}

/// The lane-local step phase of one cycle (the node's `step_lane` without
/// faults or request tracing): scatter ingest, one cache-port access
/// round-robin between the unit and bypass traffic, unit tick, response and
/// acknowledgement routing.
fn step_lane(
    b: usize,
    lane: &mut Lane,
    now: Cycle,
    timer: &CallTimer,
    completions: &mut VecDeque<MemResponse>,
) {
    let Lane {
        bank,
        sa,
        bank_in,
        rr_sa_first,
    } = lane;

    timer.time(Call::QueuePop, || {
        bank_in.pop_if(|req| {
            req.op.is_scatter() && timer.time(Call::UnitSubmit, || sa.try_submit(*req).is_ok())
        })
    });

    let sa_first = *rr_sa_first;
    for attempt in 0..2 {
        let served = if sa_first ^ (attempt == 1) {
            timer
                .time(Call::UnitToMem, || {
                    sa.pop_to_mem_if(|op| {
                        let origin = Origin::SaUnit { node: 0, bank: b };
                        let (id, addr, kind) = match *op {
                            ToMem::Read { id, addr } => {
                                (id, addr, AccessKind::Read { zero_alloc: false })
                            }
                            ToMem::Write { id, addr, bits } => (
                                id,
                                addr,
                                AccessKind::Write {
                                    bits,
                                    partial_sum: false,
                                },
                            ),
                        };
                        let access = CacheAccess {
                            id,
                            addr,
                            kind,
                            origin,
                        };
                        timer.time(Call::BankAccess, || bank.try_access(access, now).is_ok())
                    })
                })
                .is_some()
        } else {
            let served = timer.time(Call::QueuePop, || {
                bank_in.pop_if(|req| {
                    let kind = match req.op {
                        MemOp::Read => AccessKind::Read { zero_alloc: false },
                        MemOp::Write { bits } => AccessKind::Write {
                            bits,
                            partial_sum: false,
                        },
                        MemOp::Scatter { .. } => return false,
                    };
                    let access = CacheAccess {
                        id: req.id,
                        addr: req.addr,
                        kind,
                        origin: req.origin,
                    };
                    timer.time(Call::BankAccess, || bank.try_access(access, now).is_ok())
                })
            });
            if let Some(req) = served {
                if matches!(req.op, MemOp::Write { .. }) {
                    // Posted write: acknowledged on acceptance.
                    completions.push_back(MemResponse {
                        id: req.id,
                        addr: req.addr,
                        bits: 0,
                        origin: req.origin,
                        at: now,
                    });
                }
            }
            served.is_some()
        };
        if served {
            *rr_sa_first = !sa_first;
            break;
        }
    }

    timer.time(Call::UnitTick, || sa.tick(now));
    while let Some(r) = timer.time(Call::BankReady, || bank.pop_ready(now)) {
        match r.origin {
            Origin::SaUnit { .. } => timer.time(Call::UnitValue, || sa.on_value(r.addr, r.bits)),
            _ => completions.push_back(r),
        }
    }
    while let Some(a) = timer.time(Call::UnitAck, || sa.pop_ack()) {
        completions.push_back(a);
    }
}

/// The node's event horizon on the serial path: pinned to the next cycle
/// while any lane holds queued inputs or outgoing unit traffic, else the
/// earliest unit, bank, or channel event.
fn horizon(lanes: &[Lane], channels: &[DramChannel], now: Cycle) -> Option<Cycle> {
    let mut h: Option<Cycle> = None;
    let mut fold = |e: Option<Cycle>| {
        if let Some(e) = e {
            h = Some(h.map_or(e, |x| x.min(e)));
        }
    };
    for lane in lanes {
        if !lane.bank_in.is_empty() || lane.sa.peek_to_mem().is_some() {
            return Some(now + 1);
        }
        fold(lane.sa.next_event(now));
        fold(lane.bank.next_event(now));
    }
    for ch in channels {
        fold(ch.next_event(now));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::Rng64;
    use scatter_add_repro::{Session, Workload};

    /// The loop's whole reason to exist: it is the session, timed.
    #[test]
    fn component_loop_reproduces_the_session() {
        let cfg = MachineConfig::merrimac();
        let mut rng = Rng64::new(0x5EED);
        for (n, range) in [(3000usize, 64u64), (2000, 1 << 16)] {
            let indices: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
            for ff in [true, false] {
                let report = Session::builder()
                    .workload(Workload::Histogram {
                        base_word: 0,
                        indices: indices.clone(),
                    })
                    .fast_forward(ff)
                    .node_threads(1)
                    .build()
                    .expect("valid session")
                    .run();
                let run = run_histogram(&cfg, &indices, ff).expect("loop runs");
                assert_eq!(run.cycles, report.cycles, "n={n} range={range} ff={ff}");
                assert_eq!(run.result, report.result, "n={n} range={range} ff={ff}");
                assert_eq!(vec![run.stats], report.node_stats, "ff={ff}");
                assert_eq!(run.skipped_cycles, report.skipped_cycles, "ff={ff}");
                let startup = u64::from(cfg.ag.startup_cycles);
                assert_eq!(
                    run.ticked_cycles + run.skipped_cycles + startup,
                    run.drain_cycles
                );
                if !ff {
                    assert_eq!(run.skipped_cycles, 0);
                }
            }
        }
    }
}
