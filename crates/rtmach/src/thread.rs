//! Thread identities, scheduling policies, and per-thread state.
//!
//! Real-Time Mach schedules threads under selectable policies; the paper's
//! Figure 10 contrasts *fixed priority* (real-time) against *round robin*
//! (time-sharing) for the same workload. Both are modeled here, plus the
//! per-thread bookkeeping the CPU scheduler needs.

use std::collections::VecDeque;

use cras_sim::Duration;

/// Identifies a thread within one [`crate::sched::Cpu`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// The raw index (for display).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Builds an id from a raw index. Only meaningful for ids previously
    /// obtained from the same [`crate::sched::Cpu`]; exists so other
    /// crates can store placeholder ids in tests.
    pub fn from_raw(index: u32) -> ThreadId {
        ThreadId(index)
    }
}

/// Scheduling policy of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Preemptive fixed priority: higher `prio` always runs first; equal
    /// priorities are FIFO and run to completion of their burst.
    FixedPriority {
        /// Priority level; larger is more urgent.
        prio: u8,
    },
    /// Round robin: equal-priority threads share the CPU in `quantum`
    /// slices; a thread exhausting its quantum goes to the tail.
    RoundRobin {
        /// Priority level; larger is more urgent.
        prio: u8,
        /// Time slice length.
        quantum: Duration,
    },
}

impl SchedPolicy {
    /// The base priority level of the policy.
    pub fn prio(&self) -> u8 {
        match *self {
            SchedPolicy::FixedPriority { prio } => prio,
            SchedPolicy::RoundRobin { prio, .. } => prio,
        }
    }

    /// The quantum, if the policy time-slices.
    pub fn quantum(&self) -> Option<Duration> {
        match *self {
            SchedPolicy::FixedPriority { .. } => None,
            SchedPolicy::RoundRobin { quantum, .. } => Some(quantum),
        }
    }
}

/// A unit of CPU work given to a thread by [`crate::sched::Cpu::wake`].
#[derive(Clone, Copy, Debug)]
pub struct Burst<T> {
    /// CPU time still owed.
    pub remaining: Duration,
    /// Caller tag reported back when the burst completes.
    pub tag: T,
}

/// Lifecycle state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// No pending work.
    Blocked,
    /// Has work, waiting for the CPU.
    Ready,
    /// Currently executing.
    Running,
}

/// Internal per-thread record.
#[derive(Clone, Debug)]
pub(crate) struct ThreadRec<T> {
    pub name: String,
    pub policy: SchedPolicy,
    pub state: ThreadState,
    pub work: VecDeque<Burst<T>>,
    pub total_cpu: Duration,
    pub bursts_completed: u64,
}

impl<T> ThreadRec<T> {
    pub fn new(name: String, policy: SchedPolicy) -> ThreadRec<T> {
        ThreadRec {
            name,
            policy,
            state: ThreadState::Blocked,
            work: VecDeque::new(),
            total_cpu: Duration::ZERO,
            bursts_completed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_accessors() {
        let fp = SchedPolicy::FixedPriority { prio: 10 };
        assert_eq!(fp.prio(), 10);
        assert_eq!(fp.quantum(), None);
        let rr = SchedPolicy::RoundRobin {
            prio: 5,
            quantum: Duration::from_millis(100),
        };
        assert_eq!(rr.prio(), 5);
        assert_eq!(rr.quantum(), Some(Duration::from_millis(100)));
    }
}
