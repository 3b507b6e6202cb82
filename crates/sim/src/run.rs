//! The one event-horizon run loop every simulated machine is stepped by.
//!
//! The sensitivity rig, the scatter driver, the scan engine, the stream
//! executor and the multi-node machine each implement [`Machine`] — their
//! own per-cycle work, exit test and "may I skip?" horizon — and [`run`]
//! owns everything else: the clock and its deadlock cap, probe snapshots,
//! progress heartbeats, and the fast-forward step (see
//! `docs/PERFORMANCE.md`).

use sa_telemetry::{HostProfiler, Introspect, Json, ProbeRegistry};

use crate::{Clock, Cycle};

/// The deadlock cap of every run: a run still going after this many
/// simulated cycles panics with "likely deadlock".
const RUN_CYCLE_LIMIT: u64 = 8_000_000_000;

/// Progress heartbeats are offered once every 1024 simulated cycles (and
/// then throttled by wall-clock inside [`sa_telemetry::Progress`]).
const HEARTBEAT_MASK: u64 = 0x3FF;

/// A simulated machine as [`run`] sees it. Each cycle the loop calls
/// [`step`](Machine::step), takes a due probe snapshot, offers a heartbeat,
/// asks [`end_of_cycle`](Machine::end_of_cycle) whether the run is over,
/// and — with fast-forward on — jumps to the [`horizon`](Machine::horizon).
pub trait Machine {
    /// The machine's own work for cycle `now` (inject, tick, drain),
    /// attributing host time to its named phases through `prof`.
    fn step(&mut self, now: Cycle, prof: &mut HostProfiler);

    /// The exit test after cycle `now`'s step, probe and heartbeat: `true`
    /// ends the run. May act (the multi-node flush round runs here).
    fn end_of_cycle(&mut self, prof: &mut HostProfiler) -> bool;

    /// The next cycle at which the machine can change state without
    /// ticking the cycles before it, or `None` when the next cycle must be
    /// ticked (work to inject, a retry pending, or nothing scheduled).
    fn horizon(&self, now: Cycle) -> Option<Cycle>;

    /// Fold `k` provably-idle cycles after `now` into every component's
    /// counters, as if each had been ticked.
    fn skip(&mut self, now: Cycle, k: u64);

    /// Snapshot the machine's components into a due probe point.
    fn register(&self, _reg: &mut ProbeRegistry) {}

    /// Add the machine's own fields to a progress heartbeat.
    fn heartbeat_fields(&self, _o: &mut Json) {}
}

/// Where a [`run`] stopped.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunEnd {
    /// The cycle on which [`Machine::end_of_cycle`] returned `true`.
    pub cycles: u64,
    /// Cycles fast-forwarded over instead of ticked (0 with fast-forward
    /// off; wall-clock accounting only).
    pub skipped_cycles: u64,
}

/// Step `m` from cycle 1 until its [`Machine::end_of_cycle`] returns
/// `true`. With `fast_forward`, after each cycle the clock jumps to the
/// cycle before the machine's horizon — never past the next due probe
/// cycle — so the next cycle ticked is exactly the horizon.
///
/// # Panics
///
/// Panics with "likely deadlock" once the run passes 8e9 cycles.
pub fn run<M: Machine>(m: &mut M, fast_forward: bool, probe: &mut Introspect) -> RunEnd {
    let mut clock = Clock::with_limit(RUN_CYCLE_LIMIT);
    let mut skipped_cycles = 0u64;
    loop {
        let now = clock.advance();
        m.step(now, &mut probe.profiler);
        if probe.recorder.due(now.raw()) {
            let mut reg = ProbeRegistry::new();
            m.register(&mut reg);
            probe.recorder.record(reg, now.raw(), skipped_cycles);
        }
        if probe.progress.is_on() && now.raw() & HEARTBEAT_MASK == 0 {
            let elapsed = probe.progress.elapsed().as_secs_f64();
            probe.progress.heartbeat(|o| {
                o.push("cycle", Json::UInt(now.raw()));
                m.heartbeat_fields(o);
                o.push("skipped_cycles", Json::UInt(skipped_cycles));
                let rate = if elapsed > 0.0 {
                    now.raw() as f64 / elapsed
                } else {
                    0.0
                };
                o.push("sim_cycles_per_sec", Json::Num(rate));
                o.push(
                    "ff_ratio",
                    Json::Num(skipped_cycles as f64 / now.raw() as f64),
                );
            });
        }
        if m.end_of_cycle(&mut probe.profiler) {
            break;
        }
        if !fast_forward {
            continue;
        }
        let Some(mut h) = m.horizon(now) else {
            continue;
        };
        if let Some(due) = probe.recorder.next_due() {
            h = h.min(Cycle(due.max(now.raw() + 1)));
        }
        if h > now + 1 {
            let k = h.raw() - now.raw() - 1;
            probe.profiler.time("skip", || m.skip(now, k));
            clock.skip_to(Cycle(h.raw() - 1));
            skipped_cycles += k;
        }
    }
    RunEnd {
        cycles: clock.now().raw(),
        skipped_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_telemetry::ProbeRecorder;

    /// A toy machine with one event every `gap` cycles, done after `events`
    /// of them. It logs every cycle it ticks and every skip it folds.
    #[derive(Default)]
    struct Toy {
        gap: u64,
        events: u64,
        seen: u64,
        ticked: Vec<u64>,
        skips: Vec<(u64, u64)>,
        ended: Vec<u64>,
        now: u64,
    }

    impl Toy {
        fn new(gap: u64, events: u64) -> Toy {
            Toy {
                gap,
                events,
                ..Toy::default()
            }
        }
    }

    impl Machine for Toy {
        fn step(&mut self, now: Cycle, _: &mut HostProfiler) {
            self.now = now.raw();
            self.ticked.push(now.raw());
            if now.raw().is_multiple_of(self.gap) {
                self.seen += 1;
            }
        }

        fn end_of_cycle(&mut self, _: &mut HostProfiler) -> bool {
            self.ended.push(self.now);
            self.seen == self.events
        }

        fn horizon(&self, now: Cycle) -> Option<Cycle> {
            Some(Cycle((now.raw() / self.gap + 1) * self.gap))
        }

        fn skip(&mut self, now: Cycle, k: u64) {
            assert_eq!(
                self.ended.last(),
                Some(&now.raw()),
                "end_of_cycle must run before the skip"
            );
            self.skips.push((now.raw(), k));
        }
    }

    #[test]
    fn skips_land_exactly_on_the_horizon() {
        let mut toy = Toy::new(100, 3);
        let end = run(&mut toy, true, &mut Introspect::off());
        assert_eq!(end.cycles, 300);
        assert_eq!(toy.ticked, vec![1, 100, 200, 300]);
        assert_eq!(toy.skips, vec![(1, 98), (100, 99), (200, 99)]);
        assert_eq!(end.skipped_cycles, 98 + 99 + 99);
        assert_eq!(end.cycles, toy.ticked.len() as u64 + end.skipped_cycles);
    }

    #[test]
    fn fast_forward_off_ticks_every_cycle() {
        let mut toy = Toy::new(100, 3);
        let end = run(&mut toy, false, &mut Introspect::off());
        assert_eq!(
            end,
            RunEnd {
                cycles: 300,
                skipped_cycles: 0
            }
        );
        assert_eq!(toy.ticked, (1..=300).collect::<Vec<_>>());
        assert!(toy.skips.is_empty());
    }

    #[test]
    fn skips_are_clamped_to_the_next_due_probe() {
        let mut toy = Toy::new(100, 2);
        let mut probe = Introspect {
            recorder: ProbeRecorder::every(30),
            ..Introspect::off()
        };
        let end = run(&mut toy, true, &mut probe);
        assert_eq!(end.cycles, 200);
        assert_eq!(toy.ticked, vec![1, 30, 60, 90, 100, 120, 150, 180, 200]);
        assert_eq!(end.skipped_cycles, 200 - toy.ticked.len() as u64);
        assert_eq!(
            probe.recorder.lines().len(),
            6,
            "one snapshot per due cycle"
        );
    }

    #[test]
    fn end_of_cycle_runs_before_any_skip() {
        // The toy asserts the order inside `skip`; a machine that is done
        // on its first cycle must never be asked to skip.
        let mut toy = Toy::new(1, 1);
        let end = run(&mut toy, true, &mut Introspect::off());
        assert_eq!(
            end,
            RunEnd {
                cycles: 1,
                skipped_cycles: 0
            }
        );
        assert_eq!(toy.ended, vec![1]);
        assert!(toy.skips.is_empty());
    }

    #[test]
    #[should_panic(expected = "likely deadlock")]
    fn passing_the_cap_panics() {
        // Events beyond the cap: the first skip would jump past it.
        let mut toy = Toy::new(RUN_CYCLE_LIMIT + 10, 1);
        let _ = run(&mut toy, true, &mut Introspect::off());
    }
}
