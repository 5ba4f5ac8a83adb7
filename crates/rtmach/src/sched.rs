//! The single-CPU preemptive scheduler.
//!
//! [`Cpu`] is an event-driven state machine: the orchestrator calls
//! [`Cpu::wake`] to hand a thread a burst of CPU work and
//! [`Cpu::slice_end`] when a previously returned slice boundary arrives.
//! Both return at most one `(time, token)` pair for the orchestrator to
//! schedule; stale tokens (invalidated by preemption) are ignored, which
//! is the standard trick for preemption in discrete-event models.
//!
//! Fixed-priority threads preempt anything with lower priority the
//! instant they wake — this is what lets CRAS's request-scheduler
//! thread meet its interval deadlines in Figure 10. Round-robin threads
//! share their level in quantum-sized slices, which is exactly what
//! produces the large delay jitter the paper measures under round-robin.
//!
//! The ready queue has the Mach run-queue shape: one FIFO per priority
//! level plus a bitmap of the non-empty levels, so dispatch takes the
//! front of the highest set bit. A thread entering the queue normally
//! (woken from blocked, more work after a burst, quantum expiry) goes to
//! the back of its level, and a preempted thread to the front, so it
//! resumes before its equal-priority peers. A thread's level is its
//! policy's fixed priority. Each burst carries a `Copy` tag of the
//! caller's type, handed back in [`BurstDone`].

use std::collections::VecDeque;

use cras_sim::{Duration, Instant};

use crate::thread::{Burst, SchedPolicy, ThreadId, ThreadRec, ThreadState};

/// Identifies one scheduled slice; stale tokens are ignored.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SliceToken(u64);

impl SliceToken {
    /// The token's raw issue number (monotone per CPU). Used by the
    /// orchestrator's canonical same-tick event ordering.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What the orchestrator must do after a scheduler operation: schedule the
/// next slice-boundary event, if any.
pub type Resched = Option<(Instant, SliceToken)>;

/// A completed burst report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstDone<T> {
    /// The thread whose burst finished.
    pub tid: ThreadId,
    /// The tag given at [`Cpu::wake`].
    pub tag: T,
}

/// Outcome of a [`Cpu::slice_end`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceOutcome<T> {
    /// Burst that completed at this boundary (empty for quantum expiry or
    /// a stale token).
    pub completed: Option<BurstDone<T>>,
    /// Next slice boundary to schedule.
    pub resched: Resched,
}

impl<T> Default for SliceOutcome<T> {
    fn default() -> Self {
        SliceOutcome {
            completed: None,
            resched: None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Current {
    tid: ThreadId,
    token: SliceToken,
    started: Instant,
    ends: Instant,
    burst_ends: bool,
}

/// Aggregate CPU statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total time the CPU executed any thread.
    pub busy: Duration,
    /// Number of dispatches.
    pub dispatches: u64,
    /// Number of preemptions.
    pub preemptions: u64,
}

/// Ready threads in dispatch order: a FIFO per priority level and a
/// bitmap of the non-empty levels.
struct RunQueue {
    levels: Box<[VecDeque<ThreadId>; 256]>,
    nonempty: [u64; 4],
}

impl RunQueue {
    fn new() -> RunQueue {
        RunQueue {
            levels: Box::new(std::array::from_fn(|_| VecDeque::new())),
            nonempty: [0; 4],
        }
    }

    /// Queues `tid` at `prio`: at the front of its level when `front`,
    /// else at the back.
    fn push(&mut self, prio: u8, tid: ThreadId, front: bool) {
        let level = &mut self.levels[prio as usize];
        if front {
            level.push_front(tid);
        } else {
            level.push_back(tid);
        }
        self.nonempty[prio as usize / 64] |= 1 << (prio % 64);
    }

    /// Takes the front thread of the highest non-empty level.
    fn pop(&mut self) -> Option<ThreadId> {
        let word = (0..4).rev().find(|&w| self.nonempty[w] != 0)?;
        let prio = word * 64 + 63 - self.nonempty[word].leading_zeros() as usize;
        let level = &mut self.levels[prio];
        let tid = level.pop_front().expect("bitmap marks a non-empty level");
        if level.is_empty() {
            self.nonempty[word] &= !(1 << (prio % 64));
        }
        Some(tid)
    }

    /// Every ready thread in dispatch order.
    #[cfg(test)]
    fn order(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.levels.iter().rev().flatten().copied()
    }
}

/// The simulated CPU. Bursts carry tags of type `T`.
pub struct Cpu<T> {
    threads: Vec<ThreadRec<T>>,
    /// Ready threads in dispatch order.
    ready: RunQueue,
    current: Option<Current>,
    next_token: u64,
    stats: CpuStats,
}

impl<T: Copy> Default for Cpu<T> {
    fn default() -> Self {
        Cpu::new()
    }
}

impl<T: Copy> Cpu<T> {
    /// Creates an empty CPU.
    pub fn new() -> Cpu<T> {
        Cpu {
            threads: Vec::new(),
            ready: RunQueue::new(),
            current: None,
            next_token: 0,
            stats: CpuStats::default(),
        }
    }

    /// Creates a thread; it starts [`ThreadState::Blocked`].
    pub fn create(&mut self, name: &str, policy: SchedPolicy) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadRec::new(name.to_string(), policy));
        tid
    }

    /// Current state of a thread.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.threads[tid.0 as usize].state
    }

    /// Name of a thread.
    pub fn name(&self, tid: ThreadId) -> &str {
        &self.threads[tid.0 as usize].name
    }

    /// Total CPU time consumed by a thread so far (not counting the
    /// currently running slice).
    pub fn runtime(&self, tid: ThreadId) -> Duration {
        self.threads[tid.0 as usize].total_cpu
    }

    /// Number of bursts a thread has completed.
    pub fn bursts_completed(&self, tid: ThreadId) -> u64 {
        self.threads[tid.0 as usize].bursts_completed
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// The running thread, if any.
    pub fn running(&self) -> Option<ThreadId> {
        self.current.map(|c| c.tid)
    }

    /// Gives `tid` a burst of `work` CPU time tagged `tag`. The thread
    /// becomes ready (bursts queue FIFO if it already has work).
    ///
    /// Returns the next slice boundary to schedule, when this wake changed
    /// the dispatch decision (idle CPU or preemption).
    ///
    /// # Panics
    ///
    /// Panics if `work` is zero — zero-length bursts would complete
    /// "instantly" and are almost always an orchestrator bug; model cheap
    /// operations with a small positive cost instead.
    pub fn wake(&mut self, tid: ThreadId, work: Duration, tag: T, now: Instant) -> Resched {
        assert!(!work.is_zero(), "zero-length CPU burst");
        let t = &mut self.threads[tid.0 as usize];
        t.work.push_back(Burst {
            remaining: work,
            tag,
        });
        if t.state != ThreadState::Blocked {
            // Extra work queued behind the current burst(s).
            return None;
        }
        self.enqueue(tid, false);
        match self.current {
            None => self.dispatch(now),
            Some(cur) => {
                let cur_prio = self.threads[cur.tid.0 as usize].policy.prio();
                let new_prio = self.threads[tid.0 as usize].policy.prio();
                if new_prio > cur_prio && now < cur.ends {
                    self.preempt_and_dispatch(now)
                } else {
                    // Equal/lower priority waits; if `now == cur.ends` the
                    // already-scheduled slice event will re-dispatch.
                    None
                }
            }
        }
    }

    /// Handles a slice-boundary event for `token`.
    ///
    /// A stale token (the slice was preempted away) yields an empty
    /// outcome. Otherwise the running thread either completed its burst or
    /// exhausted its quantum, and the next thread is dispatched.
    pub fn slice_end(&mut self, token: SliceToken, now: Instant) -> SliceOutcome<T> {
        let Some(cur) = self.current else {
            return SliceOutcome::default();
        };
        if cur.token != token {
            return SliceOutcome::default();
        }
        assert_eq!(cur.ends, now, "slice event fired at the wrong time");
        self.current = None;
        let elapsed = now.since(cur.started);
        let t = &mut self.threads[cur.tid.0 as usize];
        t.total_cpu += elapsed;
        self.stats.busy += elapsed;

        let mut completed = None;
        if cur.burst_ends {
            let burst = t.work.pop_front().expect("running thread without work");
            t.bursts_completed += 1;
            completed = Some(BurstDone {
                tid: cur.tid,
                tag: burst.tag,
            });
            if t.work.is_empty() {
                t.state = ThreadState::Blocked;
            } else {
                self.enqueue(cur.tid, false);
            }
        } else {
            // Quantum expiry: charge the slice against the burst and
            // requeue behind every ready thread.
            let burst = t.work.front_mut().expect("running thread without work");
            burst.remaining = burst.remaining.saturating_sub(elapsed);
            self.enqueue(cur.tid, false);
        }

        SliceOutcome {
            completed,
            resched: self.dispatch(now),
        }
    }

    /// Puts a thread in the ready queue: ahead of every other thread when
    /// `front` (a preempted thread), else behind every other.
    fn enqueue(&mut self, tid: ThreadId, front: bool) {
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Ready;
        self.ready.push(t.policy.prio(), tid, front);
    }

    fn preempt_and_dispatch(&mut self, now: Instant) -> Resched {
        let cur = self.current.take().expect("preempt with idle CPU");
        let elapsed = now.since(cur.started);
        let t = &mut self.threads[cur.tid.0 as usize];
        t.total_cpu += elapsed;
        self.stats.busy += elapsed;
        self.stats.preemptions += 1;
        let burst = t.work.front_mut().expect("running thread without work");
        burst.remaining = burst.remaining.saturating_sub(elapsed);
        // A preempted thread resumes ahead of equal-priority peers.
        self.enqueue(cur.tid, true);
        self.dispatch(now)
    }

    fn dispatch(&mut self, now: Instant) -> Resched {
        debug_assert!(self.current.is_none());
        let tid = self.ready.pop()?;
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Running;
        let burst = t.work.front().expect("ready thread without work");
        let quantum = t.policy.quantum();
        let (slice, burst_ends) = match quantum {
            Some(q) if q < burst.remaining => (q, false),
            _ => (burst.remaining, true),
        };
        self.next_token += 1;
        let token = SliceToken(self.next_token);
        let ends = now + slice;
        self.current = Some(Current {
            tid,
            token,
            started: now,
            ends,
            burst_ends,
        });
        self.stats.dispatches += 1;
        Some((ends, token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1;
    fn ms(v: u64) -> Duration {
        Duration::from_millis(v * MS)
    }
    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    fn fp(prio: u8) -> SchedPolicy {
        SchedPolicy::FixedPriority { prio }
    }
    fn rr(prio: u8, q: u64) -> SchedPolicy {
        SchedPolicy::RoundRobin {
            prio,
            quantum: ms(q),
        }
    }

    /// Drives the CPU to completion from a list of initial wakes,
    /// returning (finish_time_ms, tid, tag) triples in completion order.
    fn drive(
        cpu: &mut Cpu<u64>,
        wakes: Vec<(u64, ThreadId, u64, u64)>,
    ) -> Vec<(u64, ThreadId, u64)> {
        // wakes: (time_ms, tid, work_ms, tag)
        let mut events: Vec<(Instant, SliceToken)> = Vec::new();
        let mut done = Vec::new();
        let mut wakes = wakes;
        wakes.sort_by_key(|w| w.0);
        let mut wi = 0;
        loop {
            // Find next event: earliest of pending wake or slice event.
            let next_wake = wakes.get(wi).map(|w| at(w.0));
            events.sort_by_key(|e| e.0);
            let next_slice = events.first().map(|e| e.0);
            let take_wake = match (next_wake, next_slice) {
                (None, None) => break,
                (Some(tw), Some(ts)) => tw <= ts,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take_wake {
                let (tms, tid, work, tag) = wakes[wi];
                wi += 1;
                if let Some(r) = cpu.wake(tid, ms(work), tag, at(tms)) {
                    events.push(r);
                }
            } else {
                let (t, tok) = events.remove(0);
                let out = cpu.slice_end(tok, t);
                if let Some(b) = out.completed {
                    done.push((t.since(Instant::ZERO).as_millis(), b.tid, b.tag));
                }
                if let Some(r) = out.resched {
                    events.push(r);
                }
            }
        }
        done
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 10, 1)]);
        assert_eq!(done, vec![(10, a, 1)]);
        assert_eq!(cpu.runtime(a), ms(10));
        assert_eq!(cpu.state(a), ThreadState::Blocked);
    }

    #[test]
    fn higher_priority_preempts() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let hi = cpu.create("hi", fp(9));
        // lo starts at 0 (20 ms work); hi wakes at 5 (3 ms work).
        let done = drive(&mut cpu, vec![(0, lo, 20, 1), (5, hi, 3, 2)]);
        assert_eq!(done, vec![(8, hi, 2), (23, lo, 1)]);
        assert_eq!(cpu.stats().preemptions, 1);
    }

    #[test]
    fn equal_priority_fifo_no_preemption() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 10, 1), (2, b, 5, 2)]);
        assert_eq!(done, vec![(10, a, 1), (15, b, 2)]);
    }

    #[test]
    fn round_robin_interleaves() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", rr(5, 10));
        let b = cpu.create("b", rr(5, 10));
        // Both have 20 ms of work; quantum 10 ms: a(0-10) b(10-20)
        // a(20-30 done) b(30-40 done).
        let done = drive(&mut cpu, vec![(0, a, 20, 1), (0, b, 20, 2)]);
        assert_eq!(done, vec![(30, a, 1), (40, b, 2)]);
    }

    #[test]
    fn round_robin_quantum_delays_short_job() {
        // The Figure 10 mechanism: under RR, a short periodic job waits
        // behind hog quanta; under FP it preempts instantly.
        let mut cpu = Cpu::new();
        let hog1 = cpu.create("hog1", rr(5, 100));
        let hog2 = cpu.create("hog2", rr(5, 100));
        let job = cpu.create("job", rr(5, 100));
        let done = drive(
            &mut cpu,
            vec![(0, hog1, 300, 1), (0, hog2, 300, 2), (50, job, 5, 3)],
        );
        let job_done = done.iter().find(|d| d.1 == job).unwrap();
        // job arrives at 50; hog1 runs til 100, hog2 til 200, job at 205.
        assert_eq!(job_done.0, 205);
    }

    #[test]
    fn fixed_priority_job_unaffected_by_hogs() {
        let mut cpu = Cpu::new();
        let hog1 = cpu.create("hog1", fp(1));
        let hog2 = cpu.create("hog2", fp(1));
        let job = cpu.create("job", fp(9));
        let done = drive(
            &mut cpu,
            vec![(0, hog1, 300, 1), (0, hog2, 300, 2), (50, job, 5, 3)],
        );
        let job_done = done.iter().find(|d| d.1 == job).unwrap();
        assert_eq!(job_done.0, 55);
    }

    #[test]
    fn queued_bursts_complete_in_order() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let done = drive(&mut cpu, vec![(0, a, 5, 1), (0, a, 5, 2), (0, a, 5, 3)]);
        assert_eq!(done, vec![(5, a, 1), (10, a, 2), (15, a, 3)]);
        assert_eq!(cpu.bursts_completed(a), 3);
    }

    #[test]
    fn stale_token_is_ignored() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let hi = cpu.create("hi", fp(9));
        let first = cpu.wake(lo, ms(20), 1, at(0)).unwrap();
        // Preemption invalidates `first`.
        let second = cpu.wake(hi, ms(3), 2, at(5)).unwrap();
        let stale = cpu.slice_end(first.1, first.0);
        assert!(stale.completed.is_none());
        assert!(stale.resched.is_none());
        let out = cpu.slice_end(second.1, second.0);
        assert_eq!(out.completed.unwrap().tid, hi);
    }

    #[test]
    fn preempted_thread_resumes_before_equal_peers() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(5));
        let hi = cpu.create("hi", fp(9));
        // a runs 0-10 (work 10), b ready at 1. hi preempts a at 2 for 3 ms.
        // After hi, a should resume (not b), finishing its remaining 8 ms.
        let done = drive(&mut cpu, vec![(0, a, 10, 1), (1, b, 5, 2), (2, hi, 3, 3)]);
        assert_eq!(done, vec![(5, hi, 3), (13, a, 1), (18, b, 2)]);
    }

    #[test]
    fn dispatch_takes_the_highest_level_across_bitmap_words() {
        let mut cpu = Cpu::new();
        let prios = [0u8, 64, 63, 255, 128, 127];
        let tids: Vec<ThreadId> = prios.iter().map(|&p| cpu.create("t", fp(p))).collect();
        let wakes = tids.iter().map(|&t| (0, t, 1, 0)).collect();
        let order: Vec<u8> = drive(&mut cpu, wakes)
            .iter()
            .map(|d| prios[d.1 .0 as usize])
            .collect();
        assert_eq!(order, vec![255, 128, 127, 64, 63, 0]);
    }

    #[test]
    fn busy_time_accounts_everything() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(7));
        drive(&mut cpu, vec![(0, a, 10, 1), (3, b, 4, 2)]);
        assert_eq!(cpu.stats().busy, ms(14));
        assert_eq!(cpu.runtime(a), ms(10));
        assert_eq!(cpu.runtime(b), ms(4));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_burst_panics() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        cpu.wake(a, Duration::ZERO, 1, at(0));
    }

    #[test]
    fn nested_preemption_unwinds_in_priority_order() {
        let mut cpu = Cpu::new();
        let lo = cpu.create("lo", fp(1));
        let mid = cpu.create("mid", fp(5));
        let hi = cpu.create("hi", fp(9));
        // lo starts (30 ms); mid preempts at 5 (10 ms, 3 done by 8); hi
        // preempts mid at 8 (2 ms). Unwind: hi@10, mid resumes 10..17,
        // lo resumes 17..42.
        let done = drive(
            &mut cpu,
            vec![(0, lo, 30, 1), (5, mid, 10, 2), (8, hi, 2, 3)],
        );
        assert_eq!(done, vec![(10, hi, 3), (17, mid, 2), (42, lo, 1)]);
        assert_eq!(cpu.stats().preemptions, 2);
    }

    #[test]
    fn fixed_priority_thread_preempts_round_robin_level() {
        let mut cpu = Cpu::new();
        let rr1 = cpu.create("rr1", rr(5, 50));
        let rr2 = cpu.create("rr2", rr(5, 50));
        let fp_hi = cpu.create("fp", fp(9));
        let done = drive(
            &mut cpu,
            vec![(0, rr1, 100, 1), (0, rr2, 100, 2), (10, fp_hi, 5, 3)],
        );
        let fp_done = done.iter().find(|d| d.1 == fp_hi).unwrap();
        assert_eq!(fp_done.0, 15, "FP preempts the RR level instantly");
        // RR threads still complete all their work afterwards.
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn wake_at_slice_end_does_not_double_dispatch() {
        let mut cpu = Cpu::new();
        let a = cpu.create("a", fp(5));
        let b = cpu.create("b", fp(9));
        let (t1, tok1) = cpu.wake(a, ms(10), 1, at(0)).unwrap();
        // b wakes exactly when a's slice ends: no preemption (the slice
        // event handles the switch).
        let r = cpu.wake(b, ms(5), 2, t1);
        assert!(r.is_none());
        let out = cpu.slice_end(tok1, t1);
        assert_eq!(out.completed.unwrap().tid, a);
        let (t2, tok2) = out.resched.unwrap();
        assert_eq!(cpu.running(), Some(b));
        let out2 = cpu.slice_end(tok2, t2);
        assert_eq!(out2.completed.unwrap().tid, b);
        assert_eq!(t2, at(15));
    }

    /// The scheduler with a plain ready list: a `Vec`
    /// of ready ids, a stable scan for the highest priority,
    /// `Vec::remove` of the winner, and `insert(0, …)` for a preempted
    /// thread. The differential test below checks [`Cpu`] against it.
    struct ListCpu {
        threads: Vec<ThreadRec<u64>>,
        ready: Vec<ThreadId>,
        current: Option<Current>,
        next_token: u64,
        stats: CpuStats,
    }

    impl ListCpu {
        fn new() -> ListCpu {
            ListCpu {
                threads: Vec::new(),
                ready: Vec::new(),
                current: None,
                next_token: 0,
                stats: CpuStats::default(),
            }
        }

        fn create(&mut self, policy: SchedPolicy) -> ThreadId {
            let tid = ThreadId(self.threads.len() as u32);
            self.threads.push(ThreadRec::new(String::new(), policy));
            tid
        }

        fn wake(&mut self, tid: ThreadId, work: Duration, tag: u64, now: Instant) -> Resched {
            let t = &mut self.threads[tid.0 as usize];
            t.work.push_back(Burst {
                remaining: work,
                tag,
            });
            match t.state {
                ThreadState::Blocked => {
                    t.state = ThreadState::Ready;
                    self.ready.push(tid);
                }
                ThreadState::Ready | ThreadState::Running => return None,
            }
            match self.current {
                None => self.dispatch(now),
                Some(cur) => {
                    let cur_prio = self.threads[cur.tid.0 as usize].policy.prio();
                    let new_prio = self.threads[tid.0 as usize].policy.prio();
                    if new_prio > cur_prio && now < cur.ends {
                        self.preempt_and_dispatch(now)
                    } else {
                        None
                    }
                }
            }
        }

        fn slice_end(&mut self, token: SliceToken, now: Instant) -> SliceOutcome<u64> {
            let Some(cur) = self.current else {
                return SliceOutcome::default();
            };
            if cur.token != token {
                return SliceOutcome::default();
            }
            assert_eq!(cur.ends, now, "slice event fired at the wrong time");
            self.current = None;
            let elapsed = now.since(cur.started);
            let t = &mut self.threads[cur.tid.0 as usize];
            t.total_cpu += elapsed;
            self.stats.busy += elapsed;
            let mut completed = None;
            if cur.burst_ends {
                let burst = t.work.pop_front().expect("running thread without work");
                t.bursts_completed += 1;
                completed = Some(BurstDone {
                    tid: cur.tid,
                    tag: burst.tag,
                });
                if t.work.is_empty() {
                    t.state = ThreadState::Blocked;
                } else {
                    t.state = ThreadState::Ready;
                    self.ready.push(cur.tid);
                }
            } else {
                let burst = t.work.front_mut().expect("running thread without work");
                burst.remaining = burst.remaining.saturating_sub(elapsed);
                t.state = ThreadState::Ready;
                self.ready.push(cur.tid);
            }
            SliceOutcome {
                completed,
                resched: self.dispatch(now),
            }
        }

        fn preempt_and_dispatch(&mut self, now: Instant) -> Resched {
            let cur = self.current.take().expect("preempt with idle CPU");
            let elapsed = now.since(cur.started);
            let t = &mut self.threads[cur.tid.0 as usize];
            t.total_cpu += elapsed;
            self.stats.busy += elapsed;
            self.stats.preemptions += 1;
            let burst = t.work.front_mut().expect("running thread without work");
            burst.remaining = burst.remaining.saturating_sub(elapsed);
            t.state = ThreadState::Ready;
            self.ready.insert(0, cur.tid);
            self.dispatch(now)
        }

        fn dispatch(&mut self, now: Instant) -> Resched {
            if self.ready.is_empty() {
                return None;
            }
            let mut best_idx = 0;
            let mut best_prio = self.threads[self.ready[0].0 as usize].policy.prio();
            for (i, &tid) in self.ready.iter().enumerate().skip(1) {
                let p = self.threads[tid.0 as usize].policy.prio();
                if p > best_prio {
                    best_prio = p;
                    best_idx = i;
                }
            }
            let tid = self.ready.remove(best_idx);
            let t = &mut self.threads[tid.0 as usize];
            t.state = ThreadState::Running;
            let burst = t.work.front().expect("ready thread without work");
            let (slice, burst_ends) = match t.policy.quantum() {
                Some(q) if q < burst.remaining => (q, false),
                _ => (burst.remaining, true),
            };
            self.next_token += 1;
            let token = SliceToken(self.next_token);
            let ends = now + slice;
            self.current = Some(Current {
                tid,
                token,
                started: now,
                ends,
                burst_ends,
            });
            self.stats.dispatches += 1;
            Some((ends, token))
        }
    }

    /// Asserts the two schedulers agree on everything observable.
    fn assert_same(cpu: &Cpu<u64>, list: &ListCpu, ctx: &str) {
        assert_eq!(cpu.running(), list.current.map(|c| c.tid), "{ctx}: running");
        assert_eq!(cpu.stats(), list.stats, "{ctx}: stats");
        for (i, t) in list.threads.iter().enumerate() {
            let tid = ThreadId(i as u32);
            assert_eq!(cpu.state(tid), t.state, "{ctx}: thread {i} state");
            assert_eq!(cpu.runtime(tid), t.total_cpu, "{ctx}: thread {i} runtime");
            assert_eq!(
                cpu.bursts_completed(tid),
                t.bursts_completed,
                "{ctx}: thread {i} bursts"
            );
        }
        let ready_order: Vec<ThreadId> = cpu.ready.order().collect();
        let mut list_order = list.ready.clone();
        // The list's dispatch order: a stable sort by descending priority.
        list_order.sort_by_key(|t| std::cmp::Reverse(list.threads[t.0 as usize].policy.prio()));
        assert_eq!(ready_order, list_order, "{ctx}: ready order");
    }

    #[test]
    fn ordered_queue_matches_the_stable_scan_list() {
        use cras_sim::Rng;
        for seed in 0..50u64 {
            let mut rng = Rng::new(seed);
            let mut cpu: Cpu<u64> = Cpu::new();
            let mut list = ListCpu::new();
            let n = 3 + rng.below(8) as u32;
            for _ in 0..n {
                // Few distinct levels, so equal-priority order matters.
                let prio = 1 + rng.below(4) as u8 * 3;
                let policy = if rng.chance(0.5) {
                    fp(prio)
                } else {
                    rr(prio, 1 + rng.below(20))
                };
                assert_eq!(cpu.create("t", policy), list.create(policy));
            }
            let mut now = Instant::ZERO;
            // Pending slice events (stale ones included), as the
            // orchestrator would hold them.
            let mut events: Vec<(Instant, SliceToken)> = Vec::new();
            let mut tag = 0u64;
            for op in 0..2_000 {
                let ctx = format!("seed {seed} op {op}");
                let next = events.iter().map(|e| e.0).min();
                let roll = rng.below(10);
                if roll < 4 && next.is_some() {
                    // Quantum expiry or burst completion (or a stale
                    // token) at the earliest pending boundary.
                    let i = (0..events.len()).min_by_key(|&i| events[i]).unwrap();
                    let (t, tok) = events.swap_remove(i);
                    now = t;
                    let a = cpu.slice_end(tok, t);
                    let b = list.slice_end(tok, t);
                    assert_eq!(a, b, "{ctx}: slice_end");
                    events.extend(a.resched);
                } else {
                    // Anywhere up to the next boundary, and quite often
                    // exactly on it (a wake at `cur.ends`).
                    if let Some(t) = next {
                        now = match rng.below(3) {
                            0 => t,
                            1 => now,
                            _ => {
                                now + Duration::from_micros(rng.below(t.since(now).as_micros() + 1))
                            }
                        };
                    } else {
                        now += ms(rng.below(5));
                    }
                    let tid = ThreadId(rng.below(n as u64) as u32);
                    tag += 1;
                    let work = Duration::from_micros(1 + rng.below(30_000));
                    let a = cpu.wake(tid, work, tag, now);
                    let b = list.wake(tid, work, tag, now);
                    assert_eq!(a, b, "{ctx}: resched");
                    events.extend(a);
                }
                assert_same(&cpu, &list, &ctx);
            }
        }
    }
}
