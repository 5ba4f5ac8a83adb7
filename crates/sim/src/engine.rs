//! The discrete-event engine: a monotone virtual clock plus a priority
//! queue of pending events.
//!
//! [`Engine`] is generic over the event payload `E`; the orchestrator crate
//! (`cras-sys`) instantiates it with its global event enum. Components never
//! schedule events themselves — they return "next event at time t" values
//! that the orchestrator turns into [`Engine::schedule`] calls. This keeps
//! every component a pure, unit-testable state machine.
//!
//! Ties are broken by insertion order (FIFO among same-timestamp events), so
//! runs are fully deterministic.
//!
//! The queue is a binary heap plus a held head: an event scheduled strictly
//! earlier than every queued one waits in a slot outside the heap, and a
//! pop takes it from there. A dispatcher that schedules its follow-up a
//! moment ahead (a CPU slice a few microseconds out) mostly never touches
//! the heap. An event at an equal time never takes the slot, since it
//! sorts after the queued ones by insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, Instant};

struct Scheduled<E> {
    at: Instant,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A monotone discrete-event queue over event payloads of type `E`.
///
/// # Examples
///
/// ```
/// use cras_sim::engine::Engine;
/// use cras_sim::time::{Duration, Instant};
///
/// let mut e: Engine<&'static str> = Engine::new();
/// e.schedule_after(Duration::from_millis(2), "b");
/// e.schedule_after(Duration::from_millis(1), "a");
/// assert_eq!(e.pop().map(|(_, p)| p), Some("a"));
/// assert_eq!(e.pop().map(|(_, p)| p), Some("b"));
/// assert_eq!(e.now(), Instant::ZERO + Duration::from_millis(2));
/// assert!(e.pop().is_none());
/// ```
pub struct Engine<E> {
    now: Instant,
    /// An event that sorts before every queued one, held outside the heap.
    head: Option<Scheduled<E>>,
    queue: BinaryHeap<Scheduled<E>>,
    seq: u64,
    dispatched: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at [`Instant::ZERO`].
    pub fn new() -> Engine<E> {
        Engine {
            now: Instant::ZERO,
            head: None,
            queue: BinaryHeap::new(),
            seq: 0,
            dispatched: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of events dispatched so far (diagnostic).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.head.is_some())
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — scheduling backwards in time is a
    /// logic error in the caller.
    pub fn schedule(&mut self, at: Instant, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        self.seq += 1;
        let event = Scheduled {
            at,
            seq: self.seq,
            payload,
        };
        let first = match &self.head {
            Some(head) => at < head.at,
            None => self.queue.peek().is_none_or(|q| at < q.at),
        };
        if first {
            if let Some(old) = self.head.replace(event) {
                self.queue.push(old);
            }
        } else {
            self.queue.push(event);
        }
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_after(&mut self, after: Duration, payload: E) {
        let at = self.now + after;
        self.schedule(at, payload);
    }

    /// Schedules `payload` to fire immediately (at the current time, after
    /// all events already queued for the current time).
    pub fn schedule_now(&mut self, payload: E) {
        self.schedule(self.now, payload);
    }

    /// Pops the earliest pending event, advancing the clock to its time.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let head = self.head.take().or_else(|| self.queue.pop())?;
        debug_assert!(head.at >= self.now, "event queue went backwards");
        self.now = head.at;
        self.dispatched += 1;
        Some((head.at, head.payload))
    }

    /// Pops *every* event due at the earliest pending timestamp into
    /// `buf` (appending, FIFO order preserved) and advances the clock to
    /// that timestamp. Returns the batch's timestamp, or `None` when the
    /// queue is empty.
    ///
    /// This is the deterministic same-tick dispatch batch: a dispatcher
    /// that re-orders the batch by a canonical event key (instead of
    /// insertion order) becomes invariant to the *delivery* order of
    /// same-tick events — the property the sys-layer interleaving fuzzer
    /// asserts, and the property parallel shards will need.
    pub fn pop_batch(&mut self, buf: &mut Vec<E>) -> Option<Instant> {
        let (at, first) = self.pop()?;
        buf.push(first);
        while self.peek_time() == Some(at) {
            let (_, ev) = self.pop().expect("peeked above");
            buf.push(ev);
        }
        Some(at)
    }

    /// Advances the virtual clock to `t` without dispatching anything.
    /// The cluster gateway uses it to bring a shard whose queue ran dry
    /// up to the barrier, so every live shard stands at the same
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past, or if an event earlier than `t` is
    /// still pending (skipping over it would break monotonicity).
    pub fn advance_to(&mut self, t: Instant) {
        assert!(t >= self.now, "advancing into the past");
        if let Some(at) = self.peek_time() {
            assert!(at >= t, "advance_to would skip a pending event");
        }
        self.now = t;
    }

    /// Peeks at the time of the earliest pending event without firing it.
    pub fn peek_time(&self) -> Option<Instant> {
        self.head.as_ref().or(self.queue.peek()).map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut e: Engine<u32> = Engine::new();
        let t = Instant::ZERO + ms(5);
        e.schedule(t, 1);
        e.schedule(t, 2);
        e.schedule(t, 3);
        assert_eq!(e.pop().unwrap().1, 1);
        assert_eq!(e.pop().unwrap().1, 2);
        assert_eq!(e.pop().unwrap().1, 3);
    }

    #[test]
    fn ordering_by_time() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(ms(30), 3);
        e.schedule_after(ms(10), 1);
        e.schedule_after(ms(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), Instant::ZERO + ms(30));
    }

    #[test]
    fn schedule_now_fires_at_current_time() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(ms(10), 1);
        assert_eq!(e.pop().unwrap().1, 1);
        e.schedule_now(2);
        let (t, p) = e.pop().unwrap();
        assert_eq!((t, p), (Instant::ZERO + ms(10), 2));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(ms(10), 1);
        e.pop();
        e.schedule(Instant::ZERO + ms(5), 2);
    }

    mod properties {
        use super::*;
        use crate::rng::Rng;

        /// Events always pop in non-decreasing time order, FIFO among
        /// equal timestamps. Randomized over 200 seeded cases.
        #[test]
        fn pop_order_is_stable_sort() {
            let mut rng = Rng::new(0xE4617E);
            for case in 0..200 {
                let n = rng.range_inclusive(1, 99) as usize;
                let delays: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
                let mut e: Engine<usize> = Engine::new();
                for (i, &d) in delays.iter().enumerate() {
                    e.schedule_after(Duration::from_micros(d), i);
                }
                let mut popped: Vec<(u64, usize)> = Vec::new();
                while let Some((t, i)) = e.pop() {
                    popped.push((t.as_nanos(), i));
                }
                assert_eq!(popped.len(), delays.len(), "case {case}");
                for w in popped.windows(2) {
                    assert!(w[0].0 <= w[1].0, "time went backwards (case {case})");
                    if w[0].0 == w[1].0 {
                        assert!(w[0].1 < w[1].1, "FIFO violated at equal time (case {case})");
                    }
                }
            }
        }
    }

    #[test]
    fn pop_batch_takes_all_equal_timestamps_in_fifo_order() {
        let mut e: Engine<u32> = Engine::new();
        let t = Instant::ZERO + ms(5);
        e.schedule(t, 1);
        e.schedule(t, 2);
        e.schedule_after(ms(9), 9);
        e.schedule(t, 3);
        let mut batch = Vec::new();
        assert_eq!(e.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, vec![1, 2, 3]);
        assert_eq!(e.now(), t);
        batch.clear();
        assert_eq!(e.pop_batch(&mut batch), Some(Instant::ZERO + ms(9)));
        assert_eq!(batch, vec![9]);
        batch.clear();
        assert_eq!(e.pop_batch(&mut batch), None);
    }

    #[test]
    fn advance_to_moves_the_clock_forward() {
        let mut e: Engine<u32> = Engine::new();
        e.advance_to(Instant::ZERO + ms(50));
        assert_eq!(e.now(), Instant::ZERO + ms(50));
        e.schedule_after(ms(1), 1);
        assert_eq!(e.pop().unwrap().0, Instant::ZERO + ms(51));
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn advance_to_refuses_to_skip_pending_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(ms(1), 1);
        e.advance_to(Instant::ZERO + ms(50));
    }

    /// The engine as it was before the held head: every event goes
    /// through the heap. The differential test below checks [`Engine`]
    /// against it.
    struct HeapEngine<E> {
        now: Instant,
        queue: BinaryHeap<Scheduled<E>>,
        seq: u64,
        dispatched: u64,
    }

    impl<E> HeapEngine<E> {
        fn schedule(&mut self, at: Instant, payload: E) {
            assert!(at >= self.now);
            self.seq += 1;
            self.queue.push(Scheduled {
                at,
                seq: self.seq,
                payload,
            });
        }

        fn pop(&mut self) -> Option<(Instant, E)> {
            let head = self.queue.pop()?;
            self.now = head.at;
            self.dispatched += 1;
            Some((head.at, head.payload))
        }

        fn peek_time(&self) -> Option<Instant> {
            self.queue.peek().map(|s| s.at)
        }

        fn pop_batch(&mut self, buf: &mut Vec<E>) -> Option<Instant> {
            let (at, first) = self.pop()?;
            buf.push(first);
            while self.peek_time() == Some(at) {
                buf.push(self.pop().expect("peeked above").1);
            }
            Some(at)
        }
    }

    #[test]
    fn held_head_matches_the_heap_only_engine() {
        use crate::rng::Rng;
        let us = Duration::from_micros;
        // A follow-up a dispatcher schedules for event `p`: often none,
        // else at the same instant or a few microseconds later.
        let follow_up = |p: u64| (!p.is_multiple_of(3)).then(|| (us(p % 4), p * 10 + 1));
        let (mut held, mut displaced, mut batches) = (0u64, 0u64, 0u64);
        for seed in 0..50 {
            let mut rng = Rng::new(seed);
            let mut e: Engine<u64> = Engine::new();
            let mut r: HeapEngine<u64> = HeapEngine {
                now: Instant::ZERO,
                queue: BinaryHeap::new(),
                seq: 0,
                dispatched: 0,
            };
            let mut next = 0u64;
            for op in 0..2_000 {
                let ctx = format!("seed {seed} op {op}");
                match rng.below(12) {
                    // Few distinct times, so equal-`at` ties are common.
                    0..=3 => {
                        next += 1;
                        let at = e.now() + us(rng.below(6));
                        held += u64::from(e.peek_time().is_none_or(|q| at < q));
                        displaced += u64::from(e.head.as_ref().is_some_and(|h| at < h.at));
                        e.schedule(at, next);
                        r.schedule(at, next);
                    }
                    4 => {
                        next += 1;
                        let now = r.now;
                        e.schedule_now(next);
                        r.schedule(now, next);
                    }
                    5..=7 => assert_eq!(e.pop(), r.pop(), "{ctx}: pop"),
                    8 => {
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        assert_eq!(e.pop_batch(&mut a), r.pop_batch(&mut b), "{ctx}");
                        assert_eq!(a, b, "{ctx}: batch");
                        batches += u64::from(a.len() > 1);
                    }
                    9 => {
                        let mut t = e.now() + us(rng.below(4));
                        if let Some(at) = e.peek_time() {
                            t = t.min(at);
                        }
                        e.advance_to(t);
                        r.now = t;
                    }
                    _ => {
                        // Dispatch up to `until` the way a system's run
                        // loop does, each event scheduling its follow-up.
                        let until = e.now() + us(rng.below(5));
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        while e.peek_time().is_some_and(|at| at <= until) {
                            let (t, p) = e.pop().expect("peeked above");
                            a.push((t, p));
                            if let Some((after, q)) = follow_up(p) {
                                e.schedule_after(after, q);
                            }
                        }
                        while r.peek_time().is_some_and(|at| at <= until) {
                            let (t, p) = r.pop().expect("peeked above");
                            b.push((t, p));
                            if let Some((after, q)) = follow_up(p) {
                                r.schedule(t + after, q);
                            }
                        }
                        assert_eq!(a, b, "{ctx}: run loop");
                    }
                }
                assert_eq!(e.peek_time(), r.peek_time(), "{ctx}: peek_time");
                assert_eq!(e.pending(), r.queue.len(), "{ctx}: pending");
                assert_eq!(e.dispatched(), r.dispatched, "{ctx}: dispatched");
                assert_eq!(e.now(), r.now, "{ctx}: now");
            }
        }
        assert!(
            held > 0 && displaced > 0 && batches > 0,
            "held {held}, displaced {displaced}, batches {batches}"
        );
    }

    #[test]
    fn dispatcher_can_chain_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(ms(1), 0);
        let mut count = 0;
        while let Some((_, p)) = e.pop() {
            count += 1;
            if p < 3 {
                e.schedule_after(ms(1), p + 1);
            }
        }
        assert_eq!(count, 4);
        assert_eq!(e.now(), Instant::ZERO + ms(4));
    }
}
