//! Hardware parallel-prefix (scan) support — the first §5 future-work item:
//! "we plan enhancements that will allow efficient computation of scans
//! (parallel prefix operations) in hardware".
//!
//! The paper does not give a design, so this module commits to a natural
//! one in the same spirit as the scatter-add unit: a *scan engine* at the
//! memory interface that streams a contiguous range through a running
//! accumulator and writes prefix sums back. Two micro-architectural points
//! make it credible:
//!
//! * the serial dependence of a prefix sum is hidden the standard way —
//!   interleaved partial accumulators (one per cache bank) plus a
//!   correction merge — so the engine consumes one element per bank per
//!   cycle regardless of adder latency;
//! * elements can return from the banked memory system out of order, so the
//!   engine owns a small reorder window ([`SCAN_ROB_ENTRIES`]) and consumes
//!   strictly in order; a full window back-pressures like the combining
//!   store does.
//!
//! The engine is exact: reordering never changes integer results, and f64
//! prefixes are computed in index order (unlike scatter-add, a scan's
//! *definition* fixes the order).

use std::collections::{HashMap, VecDeque};

use sa_sim::{Addr, Cycle, Machine, MachineConfig, MemOp, MemRequest, Origin, ScalarKind};
use sa_telemetry::{HostProfiler, Introspect};

use crate::node::{NodeMemSys, NodeStats};

/// Reorder-window entries of the scan engine (same silicon budget class as
/// a combining store).
pub const SCAN_ROB_ENTRIES: usize = 64;

/// Outcome of a hardware scan.
#[derive(Debug)]
pub struct ScanResult {
    /// Cycles until every prefix value was written back.
    pub cycles: u64,
    /// The prefix sums (inclusive), as raw bits.
    pub prefix: Vec<u64>,
    /// Machine statistics for the run.
    pub stats: NodeStats,
}

impl ScanResult {
    /// The prefix sums as `i64`.
    pub fn prefix_i64(&self) -> Vec<i64> {
        self.prefix.iter().map(|&b| b as i64).collect()
    }

    /// The prefix sums as `f64`.
    pub fn prefix_f64(&self) -> Vec<f64> {
        self.prefix.iter().map(|&b| f64::from_bits(b)).collect()
    }

    /// Execution time in microseconds at 1 GHz.
    pub fn micros(&self) -> f64 {
        self.cycles as f64 / 1e3
    }
}

/// Run an inclusive prefix sum over `input`, written at word 0 of a fresh
/// node, in hardware — writing the results over the inputs.
///
/// # Panics
///
/// Panics if `input` is empty or the simulation deadlocks.
pub fn drive_scan(cfg: &MachineConfig, input: &[u64], kind: ScalarKind) -> ScanResult {
    scan_on(NodeMemSys::new(*cfg, 0, false), input, kind).0
}

/// [`drive_scan`] on a caller-built node (tests override its fast-forward
/// flag), also returning the cycles fast-forwarded over.
fn scan_on(mut node: NodeMemSys, input: &[u64], kind: ScalarKind) -> (ScanResult, u64) {
    assert!(!input.is_empty(), "empty scan");
    node.store_mut().write_line(Addr(0), input);
    let cfg = *node.config();
    let fast_forward = node.fast_forward();
    let mut m = ScanEngine {
        node,
        kind,
        issue_width: (cfg.ag.count as u32 * cfg.ag.width) as usize,
        lanes: cfg.cache.banks,
        next_read: 0,
        rob: HashMap::new(),
        consume_at: 0,
        acc: sa_sim::identity_bits(kind, sa_sim::ScatterOp::Add),
        prefix: vec![0u64; input.len()],
        writes_pending: VecDeque::new(),
        writes_acked: 0,
        read_ids: HashMap::new(),
        next_id: 0,
    };
    let end = sa_sim::run(&mut m, fast_forward, &mut Introspect::off());
    m.node.flush_to_store();
    let result = ScanResult {
        cycles: end.cycles,
        prefix: m.prefix,
        stats: m.node.stats(),
    };
    (result, end.skipped_cycles)
}

/// The scan engine's run state.
struct ScanEngine {
    node: NodeMemSys,
    kind: ScalarKind,
    issue_width: usize,
    lanes: usize,           // bank-lane accumulators
    next_read: usize,       // next element whose read we may issue
    rob: HashMap<u64, u64>, // element index -> bits
    consume_at: usize,      // next element the accumulator takes
    acc: u64,
    prefix: Vec<u64>,
    writes_pending: VecDeque<(usize, u64)>,
    writes_acked: usize,
    read_ids: HashMap<u64, usize>,
    next_id: u64,
}

impl ScanEngine {
    /// Whether a read may issue: elements left and room in the window.
    fn can_read(&self) -> bool {
        self.next_read < self.prefix.len() && (self.next_read - self.consume_at) < SCAN_ROB_ENTRIES
    }
}

impl Machine for ScanEngine {
    fn step(&mut self, now: Cycle, _: &mut HostProfiler) {
        // Issue reads while the reorder window has room.
        let mut issued = 0;
        while issued < self.issue_width && self.can_read() {
            self.next_id += 1;
            let req = MemRequest {
                id: self.next_id,
                addr: Addr::from_word_index(self.next_read as u64),
                op: MemOp::Read,
                origin: Origin::AddrGen { node: 0, ag: 0 },
            };
            match self.node.inject(req, now) {
                Ok(()) => {
                    self.read_ids.insert(self.next_id, self.next_read);
                    self.next_read += 1;
                    issued += 1;
                }
                Err(_) => break,
            }
        }

        // Consume in-order elements — one per bank-lane accumulator per
        // cycle (the correction merge keeps them coherent).
        for _ in 0..self.lanes {
            let Some(bits) = self.rob.remove(&(self.consume_at as u64)) else {
                break;
            };
            self.acc = sa_sim::combine(self.acc, bits, self.kind, sa_sim::ScatterOp::Add);
            self.prefix[self.consume_at] = self.acc;
            self.writes_pending.push_back((self.consume_at, self.acc));
            self.consume_at += 1;
        }

        // Issue prefix write-backs, one per lane per cycle.
        for _ in 0..self.lanes {
            let Some(&(idx, bits)) = self.writes_pending.front() else {
                break;
            };
            self.next_id += 1;
            let req = MemRequest {
                id: self.next_id,
                addr: Addr::from_word_index(idx as u64),
                op: MemOp::Write { bits },
                origin: Origin::SaUnit { node: 0, bank: 0 },
            };
            match self.node.inject(req, now) {
                Ok(()) => {
                    self.writes_pending.pop_front();
                }
                Err(_) => break,
            }
        }

        self.node.tick(now);

        while let Some(c) = self.node.pop_completion() {
            match c.origin {
                Origin::AddrGen { .. } => {
                    let idx = self.read_ids.remove(&c.id).expect("read id known");
                    self.rob.insert(idx as u64, c.bits);
                }
                Origin::SaUnit { .. } => self.writes_acked += 1,
                _ => {}
            }
        }
    }

    /// Every prefix written back and acknowledged, and the machine drained.
    fn end_of_cycle(&mut self, _: &mut HostProfiler) -> bool {
        self.writes_acked == self.prefix.len() && self.node.is_idle()
    }

    /// Skippable only when the engine would do nothing next cycle: no read
    /// to issue, the next element not yet returned, no write-back queued.
    fn horizon(&self, now: Cycle) -> Option<Cycle> {
        if self.can_read()
            || self.rob.contains_key(&(self.consume_at as u64))
            || !self.writes_pending.is_empty()
        {
            return None;
        }
        self.node.next_event(now)
    }

    fn skip(&mut self, now: Cycle, k: u64) {
        self.node.skip_cycles(now, k);
    }
}

/// Scalar reference: inclusive prefix sum bits.
pub fn scan_reference(input: &[u64], kind: ScalarKind) -> Vec<u64> {
    let mut acc = sa_sim::identity_bits(kind, sa_sim::ScatterOp::Add);
    input
        .iter()
        .map(|&b| {
            acc = sa_sim::combine(acc, b, kind, sa_sim::ScatterOp::Add);
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::Rng64;

    fn cfg() -> MachineConfig {
        MachineConfig::merrimac()
    }

    #[test]
    fn i64_scan_is_exact() {
        let mut rng = Rng64::new(1);
        let input: Vec<u64> = (0..500).map(|_| rng.below(100)).collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        assert_eq!(r.prefix, scan_reference(&input, ScalarKind::I64));
    }

    #[test]
    fn f64_scan_is_in_order() {
        // A scan's order is defined by the index, so f64 results must be
        // *bitwise* equal to the sequential reference — no reassociation.
        let mut rng = Rng64::new(2);
        let input: Vec<u64> = (0..300)
            .map(|_| rng.range_f64(-1.0, 1.0).to_bits())
            .collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::F64);
        assert_eq!(r.prefix, scan_reference(&input, ScalarKind::F64));
    }

    #[test]
    fn results_land_in_memory() {
        let input: Vec<u64> = (1..=8).collect();
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        assert_eq!(r.prefix_i64(), vec![1, 3, 6, 10, 15, 21, 28, 36]);
    }

    #[test]
    fn scan_throughput_approaches_one_element_per_cycle_when_cached() {
        // Small ranges stay cache-resident after the first pass; the engine
        // should then be bound by its 1 element/cycle consumption.
        let input: Vec<u64> = vec![1; 2048];
        let r = drive_scan(&cfg(), &input, ScalarKind::I64);
        let per_elem = r.cycles as f64 / 2048.0;
        assert!(
            per_elem < 2.0,
            "multi-lane scan should beat 2 cyc/elem, got {per_elem:.2}"
        );
    }

    #[test]
    fn scan_scales_linearly() {
        let small = drive_scan(&cfg(), &vec![1u64; 1024], ScalarKind::I64);
        let large = drive_scan(&cfg(), &vec![1u64; 4096], ScalarKind::I64);
        let ratio = large.cycles as f64 / small.cycles as f64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "O(n) scan, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn fast_forward_is_byte_identical() {
        let mut rng = Rng64::new(3);
        for (n, range) in [(500, 100), (3000, 1 << 20)] {
            let input: Vec<u64> = (0..n).map(|_| rng.below(range)).collect();
            let run = |ff: bool| {
                let mut node = NodeMemSys::new(cfg(), 0, false);
                node.set_fast_forward(ff);
                scan_on(node, &input, ScalarKind::I64)
            };
            let ((on, skipped_on), (off, skipped_off)) = (run(true), run(false));
            assert!(skipped_on > 0, "the drain tail should fast-forward");
            assert_eq!(skipped_off, 0, "ff off must tick every cycle");
            assert_eq!(on.prefix, off.prefix);
            assert_eq!(on.cycles, off.cycles);
            assert_eq!(on.stats, off.stats);
        }
    }

    #[test]
    #[should_panic(expected = "empty scan")]
    fn empty_scan_rejected() {
        let _ = drive_scan(&cfg(), &[], ScalarKind::I64);
    }
}
