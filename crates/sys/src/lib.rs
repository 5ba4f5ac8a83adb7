//! `cras-sys` — the orchestrator: one discrete-event loop binding every
//! substrate into the system the paper evaluates.
//!
//! * [`system`] — [`system::SysState`], every component state machine
//!   and the event handlers, and [`system::System`], which owns the
//!   engine, disks and CPU, pops events and lends those substrates to
//!   the handler it calls.
//! * [`player`] — QtPlay-like clients measuring per-frame delay.
//! * [`bgload`] — the `cat` background readers.
//! * [`config`] — scheduling mode, CPU cost model, priorities.
//! * [`rebuild`] — rate-controlled rebuild after a volume loss: mirror
//!   copies and parity reconstruction.
//! * [`metrics`] — per-interval admission-accuracy accounting.
//! * `placement` — [`MoviePlacement`], a movie's file layout: recorded,
//!   resolved for `crs_open` and rebuilt after a volume loss.
//! * [`tags`] — the global event enum and routing tags.
//!
//! The delivery subsystem (paced links, playout sessions, multicast,
//! loss/retransmit) lives in the `cras-net` crate and plugs into
//! [`system::SysState`] as the `net` field (DESIGN §18).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgload;
pub mod config;
pub mod metrics;
mod placement;
pub mod player;
pub mod rebuild;
pub mod system;
pub mod tags;

pub use config::{prio, IssueMode, SchedMode, SysConfig};
pub use metrics::ShardLoad;
pub use placement::MoviePlacement;
pub use player::{PlayerMode, PlayerStats};
pub use system::System;
pub use tags::{ClientId, DiskTag};
