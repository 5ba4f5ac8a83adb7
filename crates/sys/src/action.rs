//! The effect vocabulary of the pure transition core.
//!
//! Event handlers on [`crate::system::SysState`] never touch the engine,
//! the disks or the CPU directly — they push
//! [`Action`] values describing the side effects they want, and the thin
//! executor half of [`crate::system::System`] applies them in push order
//! against the real substrates. This is the PHASM shape,
//! `(State, Event) → (State', Actions)`: transitions become replayable
//! and order-auditable, which is what the same-tick interleaving fuzzer
//! is built on.
//!
//! Apply order equals push order, and every deferred effect lands at the
//! same virtual instant the handler ran, so the executor reproduces the
//! exact engine-queue insertion sequence the old inline handlers
//! produced — the refactor is behavior-preserving by construction.

use cras_disk::{DiskRequest, VolumeId};
use cras_rtmach::ThreadId;
use cras_sim::{Duration, Instant};

use crate::tags::{CpuTag, DiskTag, Event};

/// One deferred side effect emitted by a state transition.
#[derive(Debug)]
pub enum Action {
    /// Submit one disk request to volume `vol`.
    SubmitDisk {
        /// Target volume.
        vol: u32,
        /// The request (tag routes the completion).
        req: DiskRequest<DiskTag>,
    },
    /// Submit a whole per-spindle interval batch to `vol` (C-SCAN
    /// ordered by the device).
    SubmitBatch {
        /// Target volume.
        vol: VolumeId,
        /// The interval's requests for that volume.
        reqs: Vec<DiskRequest<DiskTag>>,
    },
    /// Arm a timer: enqueue `ev` at absolute time `at`.
    Schedule {
        /// Fire time.
        at: Instant,
        /// The event to fire.
        ev: Event,
    },
    /// Wake a CPU thread with a `burst` of work. The CPU carries `tag`
    /// with the burst and hands it back at completion.
    WakeCpu {
        /// The thread.
        tid: ThreadId,
        /// Burst length.
        burst: Duration,
        /// Completion tag.
        tag: CpuTag,
    },
    /// Append a record to the post-mortem trace ring. Transitions only
    /// emit this while tracing is enabled, preserving the lazy-format
    /// fast path.
    Trace {
        /// Component label.
        component: &'static str,
        /// Rendered message.
        message: String,
    },
}
