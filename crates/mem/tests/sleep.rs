//! Sleeping DRAM channels: a channel that is not ticked while idle and is
//! caught up with [`DramChannel::wake`] before its next command must be
//! indistinguishable from one ticked on every cycle — same responses at the
//! same cycles, same counters, same queue statistics.

use proptest::prelude::*;
use sa_mem::{BackingStore, DramChannel, DramCommand, DramKind};
use sa_sim::{Addr, Cycle, DramConfig, Origin};

/// One command: idle cycles before it is offered, its line, and whether it
/// writes.
type Step = (u64, u64, bool);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(((0u64..3, 0u64..60), 0u64..512, any::<bool>()), 1..40).prop_map(|v| {
        v.into_iter()
            // Mostly back-to-back commands, with occasional long gaps.
            .map(|((kind, gap), line, write)| (if kind == 0 { gap } else { 0 }, line, write))
            .collect()
    })
}

fn command(id: u64, line: u64, write: bool) -> DramCommand {
    DramCommand {
        id,
        req: None,
        base: Addr(line * 32),
        words: 4,
        kind: if write {
            DramKind::Write(vec![id; 4])
        } else {
            DramKind::Read
        },
        origin: Origin::CacheBank { node: 0, bank: 0 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_woken_channel_matches_an_eagerly_ticked_one(steps in steps()) {
        let cfg = DramConfig::default();
        let (mut eager, mut lazy) = (DramChannel::new(cfg), DramChannel::new(cfg));
        let (mut store_e, mut store_l) = (BackingStore::new(), BackingStore::new());
        let (mut got_e, mut got_l) = (Vec::new(), Vec::new());
        // The lazy channel's tick count when it fell asleep, and the count.
        let (mut asleep_since, mut ticks) = (None::<u64>, 0u64);
        let (mut next, mut due) = (0usize, steps[0].0);
        let mut now = Cycle(0);
        while next < steps.len() || !eager.is_idle() {
            now += 1;
            prop_assert!(now.raw() < 1_000_000, "runaway");
            ticks += 1;
            if let Some(r) = eager.tick(now, &mut store_e) {
                got_e.push((r.id, r.at, r.data));
            }
            if asleep_since.is_none() {
                if let Some(r) = lazy.tick(now, &mut store_l) {
                    got_l.push((r.id, r.at, r.data));
                }
                if lazy.is_idle() {
                    asleep_since = Some(ticks);
                }
            }
            // Offer the next command once its gap has passed, as a bank's
            // front phase would after the channels tick.
            if next < steps.len() && now.raw() >= due && eager.can_accept() {
                prop_assert!(lazy.can_accept());
                let (_, line, write) = steps[next];
                if let Some(since) = asleep_since.take() {
                    lazy.wake(ticks - since, now);
                }
                let id = next as u64 + 1;
                eager.try_submit(command(id, line, write), now).expect("accepted");
                lazy.try_submit(command(id, line, write), now).expect("accepted");
                next += 1;
                if let Some(&(gap, _, _)) = steps.get(next) {
                    due = now.raw() + gap;
                }
            }
        }
        // A few idle cycles at the end, then catch the sleeper up.
        for _ in 0..5 {
            now += 1;
            ticks += 1;
            prop_assert!(eager.tick(now, &mut store_e).is_none());
        }
        if let Some(since) = asleep_since {
            lazy.wake(ticks - since, now);
        }
        prop_assert_eq!(got_e, got_l);
        prop_assert_eq!(eager.stats(), lazy.stats());
        prop_assert_eq!(eager.queue_stats(), lazy.queue_stats());
    }
}
