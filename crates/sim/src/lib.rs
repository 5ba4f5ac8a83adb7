//! `cras-sim` — discrete-event simulation substrate for the CRAS
//! reproduction.
//!
//! The paper evaluates CRAS on real hardware (a P5-100 with a Seagate
//! ST32550N and an AM9513 timer board). This workspace replaces wall-clock
//! hardware with a deterministic discrete-event simulation; this crate is
//! the foundation everything else builds on:
//!
//! * [`time`] — nanosecond-resolution [`time::Instant`] / [`time::Duration`]
//!   newtypes.
//! * [`engine`] — the generic event queue, [`engine::Engine`].
//! * [`idtable`] — [`idtable::IdTable`], a dense table keyed by
//!   never-reused `u32` ids, iterated in ascending id order.
//! * [`rng`] — a seedable, forkable deterministic PRNG.
//! * [`stats`] — online statistics, histograms, time series,
//!   time-weighted averages.
//! * [`json`] — a minimal JSON value/parser for the result artifacts.
//! * [`table`] — plain-text rendering for the experiment harness.
//! * [`trace`] — a bounded event-trace ring for post-mortem debugging.
//!
//! No `unsafe` code and no external dependencies: determinism is a
//! correctness property of every experiment in the repository, so the
//! whole stack is pinned down here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod idtable;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
pub mod trace;

pub use engine::Engine;
pub use idtable::IdTable;
pub use rng::Rng;
pub use time::{Duration, Instant};
pub use trace::Trace;
