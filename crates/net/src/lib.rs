//! `cras-net` — the NPS-style delivery subsystem between the sys layer
//! and the viewers (DESIGN §18).
//!
//! The paper's QtPlay "retrieves movie data through CRAS and transmits
//! it over the network using NPS", the user-level real-time network
//! engine. This crate models that delivery path deterministically:
//!
//! * [`session`] — per-client sessions with bounded playout buffers.
//!   The client consumes by timestamp against a playout anchor; buffer
//!   high/low watermarks generate credit-based backpressure that the
//!   sys layer turns into park/resume of the feeding stream, so a slow
//!   client throttles its own stream instead of bloating server memory.
//! * [`link`] — the paced link scheduler: per-link send queues with
//!   deadline-ordered (EDF by playout time) packet selection, shared
//!   contention across sessions, and queueing/lateness metrics.
//! * [`faults`] — deterministic per-link drop/duplicate/delay fault
//!   injection, same seeded style as `cras-disk`'s injector.
//! * [`delivery`] — [`delivery::NetDelivery`], the pure state machine
//!   tying the above together: multicast fan-out for joined groups
//!   (one transmission per shared link segment with per-member delivery
//!   times), NAK-driven retransmit inside the playout-buffer slack, and
//!   late-frame accounting (a frame that misses its playout deadline is
//!   a counted drop, never a silent one).
//!
//! Like `cras-core`, the crate is I/O- and engine-free: every method
//! takes `now` and pushes [`delivery::NetEffect`] values describing the
//! timers and control transfers it wants. `cras-sys` schedules those
//! as ordinary events, so the interleaving fuzzer covers network
//! delivery like any other subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delivery;
pub mod faults;
pub mod link;
pub mod session;

pub use delivery::{NetDelivery, NetEffect};
pub use faults::NetFaults;
pub use link::{LinkParams, LinkStats, PacedLink};
pub use session::{Session, SessionCfg, SessionStats};
