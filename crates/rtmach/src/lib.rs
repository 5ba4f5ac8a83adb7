//! `cras-rtmach` — the Real-Time Mach substrate.
//!
//! CRAS is a user-level server whose predictability comes from the
//! microkernel underneath: preemptive fixed-priority scheduling. This
//! crate models that mechanism on one simulated CPU:
//!
//! * [`sched`] — the event-driven preemptive scheduler
//!   ([`sched::Cpu`]) with fixed-priority and round-robin policies
//!   (Figure 10 contrasts the two).
//! * [`thread`] — thread ids, policies and states.
//!
//! The priority inversion that collapses UFS under background load is
//! not a mutex: it is the Unix server's serialized request queue, which
//! makes a real-time reader wait behind background requests. That queue
//! is modeled in `cras-ufs`.
//!
//! CRAS's periodic request scheduler is a self-re-arming timer in the
//! orchestrator (`cras-sys`); its interval overruns — the paper's
//! deadline warnings — are counted in the system's metrics and written
//! to its trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;
pub mod thread;

pub use sched::{Cpu, SliceToken};
pub use thread::{SchedPolicy, ThreadId};
