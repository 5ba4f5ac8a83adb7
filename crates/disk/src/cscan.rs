//! C-SCAN request queue.
//!
//! The paper: "Each queue is sorted by using the traditional C-SCAN
//! algorithm to minimize total seek time. The disk arm moves
//! unidirectionally across the disk surface toward the inner track. When
//! there are no more requests for service ahead of the arm it jumps back
//! to service the request nearest the outer track and proceeds inward
//! again."
//!
//! Cylinder numbers increase toward the inner track, so the sweep is in
//! increasing cylinder order with a jump back to the minimum.

use cras_sim::Instant;

/// An entry pending in a C-SCAN queue.
#[derive(Clone, Debug)]
pub struct Pending<T> {
    /// Target cylinder (sort key).
    pub cyl: u32,
    /// FIFO tiebreaker among equal cylinders.
    pub seq: u64,
    /// When the request was enqueued.
    pub submitted_at: Instant,
    /// The queued item.
    pub item: T,
}

/// A C-SCAN-ordered queue of requests.
#[derive(Clone, Debug)]
pub struct CScanQueue<T> {
    // Sorted by (cyl, seq).
    entries: Vec<Pending<T>>,
    seq: u64,
}

impl<T> Default for CScanQueue<T> {
    fn default() -> Self {
        CScanQueue::new()
    }
}

impl<T> CScanQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> CScanQueue<T> {
        CScanQueue {
            entries: Vec::new(),
            seq: 0,
        }
    }

    /// Number of pending requests.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a request targeting `cyl`.
    pub fn push(&mut self, cyl: u32, submitted_at: Instant, item: T) {
        self.seq += 1;
        let entry = Pending {
            cyl,
            seq: self.seq,
            submitted_at,
            item,
        };
        let pos = self
            .entries
            .partition_point(|e| (e.cyl, e.seq) <= (cyl, entry.seq));
        self.entries.insert(pos, entry);
    }

    /// Removes and returns the next request under C-SCAN from head
    /// position `head_cyl`: the nearest request at or ahead of the head in
    /// the inward direction, or — if none — the outermost request (the
    /// "jump back").
    pub fn pop_next(&mut self, head_cyl: u32) -> Option<Pending<T>> {
        if self.entries.is_empty() {
            return None;
        }
        let pos = self.entries.partition_point(|e| e.cyl < head_cyl);
        let idx = if pos < self.entries.len() { pos } else { 0 };
        Some(self.entries.remove(idx))
    }

    /// Peeks at the cylinder the next pop would service.
    #[cfg(test)]
    fn peek_next_cyl(&self, head_cyl: u32) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let pos = self.entries.partition_point(|e| e.cyl < head_cyl);
        let idx = if pos < self.entries.len() { pos } else { 0 };
        Some(self.entries[idx].cyl)
    }

    /// Drains every entry in current sorted order (for shutdown/inspection).
    pub(crate) fn drain(&mut self) -> Vec<Pending<T>> {
        std::mem::take(&mut self.entries)
    }

    /// Iterates over pending entries in sorted order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Pending<T>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q_from(cyls: &[u32]) -> CScanQueue<u32> {
        let mut q = CScanQueue::new();
        for &c in cyls {
            q.push(c, Instant::ZERO, c);
        }
        q
    }

    #[test]
    fn services_inward_then_wraps() {
        let mut q = q_from(&[50, 10, 90, 30]);
        // Head at 40: expect 50, 90, then wrap to 10, 30.
        let mut head = 40;
        let mut order = Vec::new();
        while let Some(p) = q.pop_next(head) {
            head = p.cyl;
            order.push(p.cyl);
        }
        assert_eq!(order, vec![50, 90, 10, 30]);
    }

    #[test]
    fn exact_head_position_is_serviced_first() {
        let mut q = q_from(&[40, 60]);
        assert_eq!(q.pop_next(40).unwrap().cyl, 40);
    }

    #[test]
    fn fifo_among_same_cylinder() {
        let mut q = CScanQueue::new();
        q.push(10, Instant::ZERO, "first");
        q.push(10, Instant::ZERO, "second");
        assert_eq!(q.pop_next(0).unwrap().item, "first");
        assert_eq!(q.pop_next(0).unwrap().item, "second");
    }

    #[test]
    fn wrap_to_outermost() {
        let mut q = q_from(&[5, 7]);
        // Head beyond all requests: jump back to outermost (min cylinder).
        assert_eq!(q.pop_next(100).unwrap().cyl, 5);
        assert_eq!(q.pop_next(100).unwrap().cyl, 7);
    }

    #[test]
    fn empty_queue() {
        let mut q: CScanQueue<u32> = CScanQueue::new();
        assert!(q.pop_next(0).is_none());
        assert!(q.peek_next_cyl(0).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = q_from(&[50, 10, 90]);
        for head in [0, 20, 60, 95] {
            let peeked = q.peek_next_cyl(head);
            let mut clone_entries: Vec<u32> = q.iter().map(|p| p.cyl).collect();
            clone_entries.sort_unstable();
            let popped = q.pop_next(head).unwrap();
            assert_eq!(peeked, Some(popped.cyl));
            q.push(popped.cyl, Instant::ZERO, popped.item);
        }
    }

    #[test]
    fn full_sweep_visits_sorted_order_from_zero() {
        let mut q = q_from(&[30, 10, 20, 40]);
        let mut head = 0;
        let mut order = Vec::new();
        while let Some(p) = q.pop_next(head) {
            head = p.cyl;
            order.push(p.cyl);
        }
        assert_eq!(order, vec![10, 20, 30, 40]);
    }

    #[test]
    fn drain_returns_everything_sorted() {
        let mut q = q_from(&[30, 10, 20]);
        let all: Vec<u32> = q.drain().into_iter().map(|p| p.cyl).collect();
        assert_eq!(all, vec![10, 20, 30]);
        assert!(q.is_empty());
    }
}
