//! `cras-core` — CRAS, the paper's Constant Rate Access Server.
//!
//! "CRAS provides a single function, a constant rate retrieval for
//! playback. This makes the size of CRAS compact." The pieces, one module
//! each:
//!
//! * [`admission`] — the closed-form admission test (paper §2.3,
//!   Appendices B/C) plus a multi-command ablation model.
//! * [`cache`] — the interval cache: trailing streams of a popular
//!   movie are served from the window the leader just read, and can be
//!   admitted against a memory budget when the disk bound is full.
//! * [`cachepolicy`] — the popularity-aware cache manager (DESIGN §16):
//!   Zipf popularity modelling, prefix residency for the hot set, and
//!   the deferred (reserve-at-drain) admission policy built on it.
//! * [`clock`] — per-stream logical clocks (`crs_start/stop/seek`, rate
//!   changes).
//! * [`tdbuffer`] — the time-driven shared memory buffer (§2.4,
//!   Figure 4): timestamp-keyed, auto-discarding, the mechanism behind
//!   dynamic QOS control.
//! * [`stream`] — per-stream state and the byte-range → disk-extent
//!   mapping resolved at `crs_open`.
//! * [`placement`] — movie-to-volume placement over a multi-disk
//!   [`VolumeSet`](cras_disk::VolumeSet): round-robin whole movies or
//!   striped extents, and the per-volume rate shares admission uses.
//! * [`server`] — the five-thread server state machine: interval
//!   scheduling, ≤256 KB cylinder-ordered reads, the I/O-done queue,
//!   deadline warnings.
//! * [`writer`] — the §4 constant-rate *writing* extension.
//! * [`deploy`] — the Figure 5 deployment configurations.
//! * [`fifo`] — the traditional FIFO buffer kept as the §2.4 ablation
//!   baseline.
//!
//! The server is deliberately I/O-free: it plans reads and accepts
//! completions; `cras-sys` wires it to the simulated disk, CPU and
//! clients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod cachepolicy;
pub mod clock;
pub mod deploy;
pub mod fifo;
pub mod placement;
pub mod server;
pub mod stream;
pub mod tdbuffer;
pub mod writer;

pub use admission::{
    Admission, AdmissionError, AdmissionModel, Load, StreamParams, MAX_READ_BYTES,
};
pub use cache::{CacheStats, EvictPolicy, IntervalCache};
pub use cachepolicy::{
    head_share, zipf_cdf, zipf_rank, zipf_weight, CacheManager, PopularityEstimator,
};
pub use clock::LogicalClock;
pub use deploy::DeployMode;
pub use fifo::FifoBuffer;
pub use placement::{
    assert_tiles, on_volume, volume_shares, ParityGeometry, PlacementPolicy, VolumeExtent,
    PARITY_STRIPE_BYTES,
};
pub use server::{
    Admit, CrasServer, IntervalReport, OpenReq, ReadId, ReadReq, ServerConfig, ServerStats,
    VolumeLoad, JITTER,
};
pub use stream::{CacheState, DiskRun, ParityState, Stream, StreamId, VolumeRun};
pub use tdbuffer::{BufferStats, BufferedChunk, TimeDrivenBuffer};
pub use writer::{Recorder, WriteId, WriteReq};
