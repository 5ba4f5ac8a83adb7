//! `cras-media` — the continuous-media substrate: streams, chunk tables,
//! movie files, and the editing/fragmentation model.
//!
//! The paper plays QuickTime movies whose timing lives "in a control file
//! separate from the continuous media data file". This crate generates
//! equivalent content:
//!
//! * [`rates`] — the paper's MPEG-1 (1.5 Mbps) / MPEG-2 (6 Mbps) profiles
//!   plus a JPEG-like VBR profile for the §3.2 buffer-waste ablation.
//! * [`chunk`] — per-chunk timestamp/duration/size tables, kept as two
//!   prefix-sum columns: the information `crs_open` consumes.
//! * [`movie`] — recording movies into the UFS so they occupy real disk
//!   blocks via the real allocator.
//! * [`fragment`] — editing-induced fragmentation and the rearranger the
//!   paper proposes (§3.2).
//! * [`container`] — a QuickTime-flavoured atom container serializing
//!   chunk tables into on-disk control files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod container;
pub mod fragment;
pub mod movie;
pub mod rates;

pub use chunk::{Chunk, ChunkSpan, ChunkTable};
pub use container::encode;
pub use fragment::{fragment_movie, rearrange_movie};
pub use movie::{generate_chunks, record_movie, Movie};
pub use rates::{mbps, StreamProfile};
