//! `cras-repro` — a from-scratch reproduction of *Simple Continuous Media
//! Storage Server on Real-Time Mach* (Tezuka & Nakajima, USENIX 1996).
//!
//! This facade re-exports the workspace crates so the repository-level
//! examples and integration tests build against one coherent API:
//!
//! * [`sim`] — deterministic discrete-event engine.
//! * [`disk`] — the calibrated ST32550N disk model with the dual C-SCAN
//!   driver queues.
//! * [`rtmach`] — the Real-Time Mach scheduling substrate.
//! * [`ufs`] — the FFS-like Unix file system baseline.
//! * [`media`] — chunk tables, stream profiles, movie recording.
//! * [`core`] — CRAS itself: admission control, interval scheduler,
//!   time-driven shared buffers; `CrasServer` has one method per
//!   Table 2 `crs_*` call.
//! * [`net`] — the NPS-style delivery subsystem (paced links, playout
//!   sessions, multicast fan-out, loss/retransmit).
//! * [`sys`] — the orchestrated system (disk + CPU + UFS + CRAS +
//!   applications).
//! * [`cluster`] — the sharded multi-system gateway (consistent-hash
//!   placement, replica routing, whole-shard failover).
//! * [`workload`] — the per-figure experiment suite.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]

pub use cras_cluster as cluster;
pub use cras_core as core;
pub use cras_disk as disk;
pub use cras_media as media;
pub use cras_net as net;
pub use cras_rtmach as rtmach;
pub use cras_sim as sim;
pub use cras_sys as sys;
pub use cras_ufs as ufs;
pub use cras_workload as workload;
