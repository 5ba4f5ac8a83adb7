//! `cras-rtmach` — the Real-Time Mach substrate.
//!
//! CRAS is a user-level server whose predictability comes from the
//! microkernel underneath: preemptive fixed-priority scheduling and
//! priority-inversion management. This crate models exactly those
//! mechanisms on one simulated CPU:
//!
//! * [`sched`] — the event-driven preemptive scheduler
//!   ([`sched::Cpu`]) with fixed-priority and round-robin policies
//!   (Figure 10 contrasts the two).
//! * [`sync`] — mutexes with and without priority inheritance (the Unix
//!   server's missing inheritance is the paper's explanation for UFS's
//!   collapse under background load).
//! * [`thread`] — thread ids, policies and states.
//!
//! CRAS's periodic request scheduler is a self-re-arming timer in the
//! orchestrator (`cras-sys`); its interval overruns — the paper's
//! deadline warnings — are counted in the system's metrics and written
//! to its trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{BurstDone, Cpu, CpuStats, Resched, SliceOutcome, SliceToken};
pub use sync::{Acquire, InheritancePolicy, MutexSim, Release};
pub use thread::{SchedPolicy, ThreadId, ThreadState};
