//! `cras-sys` — the orchestrator: one discrete-event loop binding every
//! substrate into the system the paper evaluates.
//!
//! * [`system`] — [`system::SysState`], the pure transition core
//!   (`(State, Event) → (State', Actions)`), and [`system::System`],
//!   the thin executor that pops events and applies the emitted
//!   [`action::Action`]s against engine, disks and CPU.
//! * [`action`] — the effect vocabulary transitions emit.
//! * [`journal`] — the durable transition journal crash recovery
//!   replays.
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

pub mod action;
pub mod bgload;
pub mod config;
pub mod journal;
pub mod metrics;
mod placement;
pub mod player;
pub mod rebuild;
pub mod system;
pub mod tags;

pub use action::Action;
pub use bgload::BgReader;
pub use config::{prio, CpuCosts, IssueMode, SchedMode, SysConfig};
pub use journal::{Journal, JournalRecord};
pub use metrics::{IntervalIo, IntervalWall, Metrics, ShardLoad, VolumeHealth};
pub use placement::MoviePlacement;
pub use player::{Player, PlayerMode, PlayerStats};
pub use rebuild::{plan_chunks, plan_parity_recon, RebuildChunk, RebuildManager, SrcRead};
pub use system::{AttachError, SysState, System, UOwner, UReq};
pub use tags::{ClientId, CpuTag, DiskTag, Event};
