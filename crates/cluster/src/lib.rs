//! `cras-cluster` — a sharded continuous-media cluster built from N
//! independent single-server [`System`](cras_sys::System)s behind one
//! placement gateway.
//!
//! The paper's server tops out at a dozen-odd streams per spindle; the
//! cluster scales *titles and spindles together* by sharding the
//! catalog. Disk load then grows with shards and distinct titles, not
//! with viewers — the interval cache inside each shard absorbs repeat
//! viewers of the titles that shard owns.
//!
//! * [`ring`] — deterministic consistent-hash ring: title → replica
//!   shards, stable under shard addition/removal.
//! * [`gateway`] — [`Cluster`]: placement, least-loaded replica
//!   routing, whole-shard kill + failover, and barrier-synchronous
//!   stepping, by default on every core (the calling thread steps one
//!   shard group, the cluster's persistent workers the rest) with
//!   serial lockstep as the reference.
//!
//! The Zipf popularity model and the online open-count estimator behind
//! popularity-weighted replication are re-exported from
//! [`cras_core::cachepolicy`]: placement here and prefix caching in the
//! server share one notion of "hot".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod ring;

pub use cras_core::cachepolicy::{zipf_cdf, zipf_rank};
pub use gateway::{
    Cluster, ClusterConfig, FailoverReport, RetryStats, Session, SessionId, Stepping,
};
