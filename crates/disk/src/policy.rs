//! Disk head-scheduling policies: FCFS, SSTF, SCAN (elevator) and C-SCAN.
//!
//! The paper uses "the traditional C-SCAN algorithm to minimize total
//! seek time"; `DiskQueue` generalizes the request queue over the
//! classic alternatives so the choice can be ablated (C-SCAN trades a
//! little average seek time for bounded starvation, which is what a
//! real-time queue needs).

use cras_sim::Instant;

use crate::cscan::{CScanQueue, Pending};

/// Head-scheduling policy for one request queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// First come, first served.
    Fcfs,
    /// Shortest seek time first (greedy; can starve edge requests).
    Sstf,
    /// Elevator: sweep inward, then outward.
    Scan,
    /// Circular SCAN: sweep inward, jump back (the paper's choice).
    #[default]
    CScan,
}

impl QueuePolicy {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            QueuePolicy::Fcfs => "FCFS",
            QueuePolicy::Sstf => "SSTF",
            QueuePolicy::Scan => "SCAN",
            QueuePolicy::CScan => "C-SCAN",
        }
    }
}

/// Per-spindle C-SCAN sweep state carried *across* scheduling rounds.
///
/// The device-level `DiskQueue` orders whatever is queued right now;
/// a server planning one batch per interval additionally needs to
/// remember where the previous batch left the head, or every interval
/// restarts its sweep from block 0 and pays a full-stroke seek back.
/// `key` yields a sort key that continues the sweep from the carried
/// position: blocks at or past it first (ascending), wrapped blocks
/// after (C-SCAN's jump back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCursor {
    pos: u64,
}

impl SweepCursor {
    /// A cursor starting at block 0 (a fresh spindle).
    pub fn new() -> SweepCursor {
        SweepCursor::default()
    }

    /// Sort key for `block` relative to the carried sweep position:
    /// ascending from the cursor, wrapped blocks last.
    pub fn key(&self, block: u64) -> (bool, u64) {
        (block < self.pos, block)
    }

    /// Advances the sweep position to `block` — typically the start of
    /// the request just issued. Using the start (not the end) matters:
    /// a stream's next read often begins a block *before* the previous
    /// read's end (chunk boundaries are not block-aligned, so adjacent
    /// reads overlap by one block), and anchoring at the end would make
    /// every follow-on read look like it wrapped.
    pub fn advance(&mut self, block: u64) {
        self.pos = block;
    }
}

/// Total head travel (in blocks) of servicing `blocks` in the given
/// order starting from `start` — the seek-distance model used by tests
/// comparing issue orders.
pub fn modeled_travel(start: u64, blocks: &[u64]) -> u64 {
    let mut pos = start;
    let mut travel = 0u64;
    for &b in blocks {
        travel += pos.abs_diff(b);
        pos = b;
    }
    travel
}

/// A request queue ordered by the configured policy.
#[derive(Clone, Debug)]
pub(crate) struct DiskQueue<T> {
    policy: QueuePolicy,
    /// C-SCAN/SCAN-sorted store (also used for SSTF via nearest search).
    sorted: CScanQueue<T>,
    /// FCFS store.
    fifo: Vec<Pending<T>>,
    /// SCAN direction: true = inward (increasing cylinders).
    inward: bool,
    seq: u64,
}

impl<T> DiskQueue<T> {
    /// Creates an empty queue with the given policy.
    pub(crate) fn new(policy: QueuePolicy) -> DiskQueue<T> {
        DiskQueue {
            policy,
            sorted: CScanQueue::new(),
            fifo: Vec::new(),
            inward: true,
            seq: 0,
        }
    }

    /// Number of pending requests.
    pub(crate) fn len(&self) -> usize {
        match self.policy {
            QueuePolicy::Fcfs => self.fifo.len(),
            _ => self.sorted.len(),
        }
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a request targeting `cyl`.
    pub(crate) fn push(&mut self, cyl: u32, submitted_at: Instant, item: T) {
        match self.policy {
            QueuePolicy::Fcfs => {
                self.seq += 1;
                self.fifo.push(Pending {
                    cyl,
                    seq: self.seq,
                    submitted_at,
                    item,
                });
            }
            _ => self.sorted.push(cyl, submitted_at, item),
        }
    }

    /// Pops the next request given the head position.
    pub(crate) fn pop_next(&mut self, head_cyl: u32) -> Option<Pending<T>> {
        match self.policy {
            QueuePolicy::Fcfs => {
                if self.fifo.is_empty() {
                    None
                } else {
                    Some(self.fifo.remove(0))
                }
            }
            QueuePolicy::CScan => self.sorted.pop_next(head_cyl),
            QueuePolicy::Sstf => {
                // Nearest cylinder to the head, either side.
                let best = self
                    .sorted
                    .iter()
                    .min_by_key(|p| (p.cyl.abs_diff(head_cyl), p.seq))?;
                let (cyl, seq) = (best.cyl, best.seq);
                self.take_exact(cyl, seq)
            }
            QueuePolicy::Scan => {
                // Continue in the current direction; reverse at the end.
                let pick = if self.inward {
                    self.sorted
                        .iter()
                        .filter(|p| p.cyl >= head_cyl)
                        .min_by_key(|p| (p.cyl, p.seq))
                        .map(|p| (p.cyl, p.seq))
                } else {
                    self.sorted
                        .iter()
                        .filter(|p| p.cyl <= head_cyl)
                        .max_by_key(|p| (p.cyl, u64::MAX - p.seq))
                        .map(|p| (p.cyl, p.seq))
                };
                match pick {
                    Some((cyl, seq)) => self.take_exact(cyl, seq),
                    None => {
                        if self.sorted.is_empty() {
                            None
                        } else {
                            self.inward = !self.inward;
                            self.pop_next(head_cyl)
                        }
                    }
                }
            }
        }
    }

    fn take_exact(&mut self, cyl: u32, seq: u64) -> Option<Pending<T>> {
        // Drain-and-rebuild is O(n) but queues are small (tens).
        let mut out = None;
        let entries = self.sorted.drain();
        for p in entries {
            if out.is_none() && p.cyl == cyl && p.seq == seq {
                out = Some(p);
            } else {
                self.sorted.push(p.cyl, p.submitted_at, p.item);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(policy: QueuePolicy, cyls: &[u32], head: u32) -> Vec<u32> {
        let mut q = DiskQueue::new(policy);
        for &c in cyls {
            q.push(c, Instant::ZERO, c);
        }
        let mut h = head;
        let mut out = Vec::new();
        while let Some(p) = q.pop_next(h) {
            h = p.cyl;
            out.push(p.cyl);
        }
        out
    }

    #[test]
    fn fcfs_is_submission_order() {
        assert_eq!(
            drain_order(QueuePolicy::Fcfs, &[50, 10, 90, 30], 40),
            vec![50, 10, 90, 30]
        );
    }

    #[test]
    fn cscan_sweeps_inward_and_wraps() {
        assert_eq!(
            drain_order(QueuePolicy::CScan, &[50, 10, 90, 30], 40),
            vec![50, 90, 10, 30]
        );
    }

    #[test]
    fn sstf_picks_nearest() {
        // Head 40: nearest 50 (d10 vs 30 d10 tie -> seq order: 50 first
        // inserted earlier than 30? cyls order [50,10,90,30]: 50 seq 1,
        // 30 seq 4; distance tie 10 -> min seq wins: 50. Then head 50:
        // nearest 30 (d20) vs 90 (d40) vs 10 (d40) -> 30; then 10; then 90.
        assert_eq!(
            drain_order(QueuePolicy::Sstf, &[50, 10, 90, 30], 40),
            vec![50, 30, 10, 90]
        );
    }

    #[test]
    fn scan_reverses_at_end() {
        // Head 40 inward: 50, 90; reverse: 30, 10.
        assert_eq!(
            drain_order(QueuePolicy::Scan, &[50, 10, 90, 30], 40),
            vec![50, 90, 30, 10]
        );
    }

    #[test]
    fn all_policies_conserve_requests() {
        for policy in [
            QueuePolicy::Fcfs,
            QueuePolicy::Sstf,
            QueuePolicy::Scan,
            QueuePolicy::CScan,
        ] {
            let order = drain_order(policy, &[5, 300, 17, 2999, 1200, 17], 600);
            assert_eq!(order.len(), 6, "{policy:?} lost requests");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![5, 17, 17, 300, 1200, 2999]);
        }
    }

    #[test]
    fn scan_direction_persists_across_refills() {
        let mut q: DiskQueue<u32> = DiskQueue::new(QueuePolicy::Scan);
        // Drain inward past the end to flip direction outward.
        q.push(50, Instant::ZERO, 50);
        q.push(90, Instant::ZERO, 90);
        assert_eq!(q.pop_next(40).unwrap().cyl, 50);
        assert_eq!(q.pop_next(50).unwrap().cyl, 90);
        // New arrivals on both sides of the head: outward request must be
        // chosen first only after the direction flips at the top.
        q.push(95, Instant::ZERO, 95);
        q.push(10, Instant::ZERO, 10);
        assert_eq!(q.pop_next(90).unwrap().cyl, 95, "still sweeping inward");
        assert_eq!(q.pop_next(95).unwrap().cyl, 10, "reversed at the top");
    }

    #[test]
    fn empty_queue_returns_none() {
        for policy in [
            QueuePolicy::Fcfs,
            QueuePolicy::Sstf,
            QueuePolicy::Scan,
            QueuePolicy::CScan,
        ] {
            let mut q: DiskQueue<u32> = DiskQueue::new(policy);
            assert!(q.pop_next(0).is_none());
            assert!(q.is_empty());
        }
    }

    #[test]
    fn label_roundtrip() {
        assert_eq!(QueuePolicy::CScan.label(), "C-SCAN");
        assert_eq!(QueuePolicy::default(), QueuePolicy::CScan);
    }

    #[test]
    fn sweep_cursor_continues_from_carried_position() {
        let mut c = SweepCursor::new();
        assert_eq!(c.pos, 0);
        let mut blocks = vec![500u64, 100, 900, 300];
        blocks.sort_by_key(|&b| c.key(b));
        assert_eq!(blocks, vec![100, 300, 500, 900], "fresh cursor: ascending");
        c.advance(901);
        // Next round: blocks behind the head wrap to the end of the sweep.
        let mut blocks = vec![500u64, 950, 100, 1200];
        blocks.sort_by_key(|&b| c.key(b));
        assert_eq!(blocks, vec![950, 1200, 100, 500], "sweep from 901, wrap");
        c.advance(501);
        assert_eq!(c.pos, 501);
    }

    #[test]
    fn sweep_order_travels_less_than_restarting_at_zero() {
        // Two rounds of far-apart blocks: carrying the sweep position
        // halves the travel versus re-sorting ascending from 0.
        let round1 = [100u64, 400_000];
        let round2 = [200u64, 400_100];
        let naive = modeled_travel(0, &round1) + modeled_travel(400_000, &round2);
        let mut c = SweepCursor::new();
        let mut r1 = round1.to_vec();
        r1.sort_by_key(|&b| c.key(b));
        c.advance(*r1.last().unwrap() + 1);
        let mut r2 = round2.to_vec();
        r2.sort_by_key(|&b| c.key(b));
        let swept = modeled_travel(0, &r1) + modeled_travel(*r1.last().unwrap(), &r2);
        assert_eq!(r2, vec![400_100, 200], "round 2 continues the sweep");
        assert!(
            swept < naive,
            "sweep travel {swept} should beat naive {naive}"
        );
    }

    #[test]
    fn modeled_travel_sums_absolute_moves() {
        assert_eq!(modeled_travel(0, &[]), 0);
        assert_eq!(modeled_travel(10, &[30, 20, 50]), 20 + 10 + 30);
    }
}
