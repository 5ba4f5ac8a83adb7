//! `cras-ufs` — the Unix file system substrate and baseline.
//!
//! CRAS deliberately reuses the Unix file system's on-disk layout: "both
//! file systems access the same files, and functionality that does not
//! require real-time constraints ... is processed by the Unix file
//! system." This crate provides that file system:
//!
//! * [`layout`] — FFS geometry: 8 KB blocks, cylinder groups, `tunefs`
//!   parameters (`maxbpg`).
//! * [`alloc`] — the block allocator with the contiguity-versus-spreading
//!   placement policy.
//! * [`inode`] — direct/single/double-indirect block maps.
//! * [`cache`] — the LRU buffer cache (bypassed by CRAS).
//! * [`fs`] — the flat name map, append/remove, extent maps,
//!   cache-aware read planning ([`fs::Ufs`]).
//! * [`server`] — the serialized Lites-style server queue whose
//!   head-of-line blocking produces the priority inversions the paper
//!   measures (Figures 6–7).
//! * [`check`](mod@check) — an `fsck`-style consistency checker used heavily by the
//!   property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cache;
pub mod check;
pub mod fs;
pub mod inode;
pub mod layout;
pub mod server;

pub use check::check;
pub use fs::{Extent, FsError, Ufs};
pub use layout::{FsBlock, Ino, MkfsParams, BSIZE, SECT_PER_FSBLOCK};
pub use server::{FsReq, Step, UnixServer};
