//! Lightweight statistics primitives used by every simulated component.

use sa_telemetry::{HistogramMetric, Scope};

/// Number of occupancy buckets in [`QueueStats::occ_hist`].
pub const QUEUE_OCC_BUCKETS: usize = 8;

/// Occupancy statistics for a [`BoundedQueue`](crate::BoundedQueue).
///
/// Every field is either a sum or a max, so [`QueueStats::merge`] is
/// associative and commutative — aggregating per-bank stats in any grouping
/// yields the same totals.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items successfully enqueued over the queue's lifetime.
    pub enqueued: u64,
    /// Push attempts rejected because the queue was full (stall events).
    pub rejected: u64,
    /// Highest occupancy ever observed.
    pub peak_occupancy: u64,
    /// Sum of post-push occupancies; divide by `enqueued` for the mean
    /// occupancy seen at push time.
    pub occ_sum: u64,
    /// The queue's capacity (max over merged queues).
    pub capacity: u64,
    /// Post-push occupancy histogram: bucket `i` counts pushes that left the
    /// queue in octile `i` of its capacity (bucket 7 = at/near full).
    pub occ_hist: [u64; QUEUE_OCC_BUCKETS],
    /// Cycle the queue was constructed (nonzero for queues created mid-run).
    pub created_at: u64,
    /// Last cycle folded into [`QueueStats::occ_integral`] by
    /// [`QueueStats::advance`] (min over merged queues is `created_at`).
    pub advanced_to: u64,
    /// Time-weighted occupancy integral in item-cycles, maintained by
    /// [`QueueStats::advance`].
    pub occ_integral: u64,
}

impl QueueStats {
    /// Record a successful push that left the queue holding `occupancy` of
    /// `capacity` items.
    #[inline]
    pub fn observe_push(&mut self, occupancy: u64, capacity: u64) {
        self.enqueued += 1;
        self.peak_occupancy = self.peak_occupancy.max(occupancy);
        self.capacity = self.capacity.max(capacity);
        self.occ_sum += occupancy;
        let bucket = if capacity == 0 || occupancy == 0 {
            0
        } else {
            (((occupancy * QUEUE_OCC_BUCKETS as u64) - 1) / capacity)
                .min(QUEUE_OCC_BUCKETS as u64 - 1)
        };
        self.occ_hist[bucket as usize] += 1;
    }

    /// Mean fractional occupancy observed at push time, in `[0, 1]`.
    ///
    /// Returns `0.0` when nothing was enqueued or the capacity is unknown.
    pub fn utilization(&self) -> f64 {
        let denom = self.enqueued * self.capacity;
        if denom == 0 {
            0.0
        } else {
            self.occ_sum as f64 / denom as f64
        }
    }

    /// Fold the elapsed cycles since the last advance (or since
    /// construction, whichever is later) into the occupancy integral, at the
    /// occupancy that held over that interval.
    #[inline]
    pub fn advance(&mut self, occupancy: u64, now: u64) {
        let from = self.advanced_to.max(self.created_at);
        if now > from {
            self.occ_integral += occupancy * (now - from);
            self.advanced_to = now;
        }
    }

    /// Mean fractional occupancy *per cycle since construction*, in `[0, 1]`.
    ///
    /// Unlike the per-run normalization this used to share with every other
    /// queue, the denominator is the cycles the queue actually existed
    /// (`advanced_to - created_at`), so a queue created mid-run is not
    /// diluted by cycles that predate it. Returns `0.0` before the first
    /// [`QueueStats::advance`] or when the capacity is unknown.
    pub fn cycle_utilization(&self) -> f64 {
        let cycles = self.advanced_to.saturating_sub(self.created_at);
        let denom = cycles * self.capacity;
        if denom == 0 {
            0.0
        } else {
            self.occ_integral as f64 / denom as f64
        }
    }

    /// Record this queue's counters into a telemetry scope.
    pub fn record(&self, scope: &mut Scope<'_>) {
        scope.counter("enqueued", self.enqueued);
        scope.counter("rejected", self.rejected);
        scope.gauge("peak_occupancy", self.peak_occupancy as f64);
        scope.gauge("utilization", self.utilization());
        scope.gauge("cycle_utilization", self.cycle_utilization());
        scope.histogram(
            "occupancy",
            &HistogramMetric::from_counts(&self.occ_hist, "octile-of-capacity"),
        );
    }

    /// Merge another queue's statistics into this one (for aggregating over
    /// banks or channels).
    pub fn merge(&mut self, other: QueueStats) {
        self.enqueued += other.enqueued;
        self.rejected += other.rejected;
        self.peak_occupancy = self.peak_occupancy.max(other.peak_occupancy);
        self.occ_sum += other.occ_sum;
        self.capacity = self.capacity.max(other.capacity);
        for (a, b) in self.occ_hist.iter_mut().zip(other.occ_hist.iter()) {
            *a += b;
        }
        self.created_at = self.created_at.min(other.created_at);
        self.advanced_to = self.advanced_to.max(other.advanced_to);
        self.occ_integral += other.occ_integral;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines() {
        let mut a = QueueStats {
            enqueued: 1,
            rejected: 2,
            peak_occupancy: 3,
            ..QueueStats::default()
        };
        let b = QueueStats {
            enqueued: 10,
            rejected: 20,
            peak_occupancy: 2,
            ..QueueStats::default()
        };
        a.merge(b);
        assert_eq!(a.enqueued, 11);
        assert_eq!(a.rejected, 22);
        assert_eq!(a.peak_occupancy, 3);
    }

    #[test]
    fn observe_push_buckets_octiles() {
        let mut s = QueueStats::default();
        // Capacity 8: occupancy k lands in bucket k-1.
        for occ in 1..=8 {
            s.observe_push(occ, 8);
        }
        assert_eq!(s.occ_hist, [1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(s.enqueued, 8);
        assert_eq!(s.peak_occupancy, 8);
        assert_eq!(s.occ_sum, 36);
        // Capacity 2: half-full goes to the low half, full to the top bucket.
        let mut t = QueueStats::default();
        t.observe_push(1, 2);
        t.observe_push(2, 2);
        assert_eq!(t.occ_hist[3], 1, "occ 1/2 lands in bucket 3");
        assert_eq!(t.occ_hist[7], 1, "occ 2/2 lands in bucket 7");
    }

    #[test]
    fn utilization_is_mean_fractional_occupancy() {
        let mut s = QueueStats::default();
        assert_eq!(s.utilization(), 0.0);
        s.observe_push(1, 4);
        s.observe_push(3, 4);
        // (1 + 3) / (2 pushes * capacity 4) = 0.5
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_utilization_normalizes_by_lifetime() {
        // A queue constructed at cycle 1000 that then holds 2 of 4 slots for
        // 100 cycles is 50% utilized — cycles before its construction must
        // not dilute the figure.
        let mut s = QueueStats {
            created_at: 1000,
            advanced_to: 1000,
            capacity: 4,
            ..QueueStats::default()
        };
        s.advance(2, 1100);
        assert!((s.cycle_utilization() - 0.5).abs() < 1e-12);
        // Advancing with a stale cycle is a no-op.
        s.advance(4, 1050);
        assert!((s.cycle_utilization() - 0.5).abs() < 1e-12);
        // An un-advanced queue reports zero rather than dividing by zero.
        let fresh = QueueStats {
            created_at: 7,
            capacity: 4,
            ..QueueStats::default()
        };
        assert_eq!(fresh.cycle_utilization(), 0.0);
    }

    fn sample_stats(seed: u64) -> QueueStats {
        let mut s = QueueStats::default();
        for i in 0..seed {
            s.observe_push(i % 8 + 1, 8);
            if i % 3 == 0 {
                s.rejected += 1;
            }
        }
        s
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample_stats(5), sample_stats(11), sample_stats(17));
        // (a + b) + c
        let mut left = a;
        left.merge(b);
        left.merge(c);
        // a + (b + c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right, "merge is associative");
        // b + a == a + b
        let mut ab = a;
        ab.merge(b);
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba, "merge is commutative");
        // identity
        let mut with_id = a;
        with_id.merge(QueueStats::default());
        assert_eq!(with_id, a, "default is the merge identity");
    }
}
