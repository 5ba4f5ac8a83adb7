//! `cras-workload` — the experiment suite: one module per figure/table of
//! the paper's evaluation, plus the ablations its discussion calls for.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig6`] | Figure 6: CRAS vs UFS throughput, 1–25 streams, ±load |
//! | [`fig7`] | Figure 7: per-frame delay under background disk load |
//! | [`admission_acc`] | Figures 8/9: admission-test accuracy |
//! | [`fig10`] | Figure 10: fixed-priority vs round-robin scheduling |
//! | [`fig12`] | Figure 12 + Table 4: disk calibration (Appendix A) |
//! | [`capacity`] | §3.1 capacity claim + Table 1/3 parameters + §2.1 memory |
//! | [`capacity_scaling`] | §4 multi-disk variation: admitted streams vs volumes |
//! | [`frag`] | §3.2 fragmentation problem + rearranger ablation |
//! | [`vbr`] | §3.2 VBR buffer-waste ablation |
//! | [`ablate`] | admission-model ablation (per-stream vs per-read) |
//! | [`qos`] | §2.4 dynamic QOS rate change scenario |
//! | [`faults`] | transient-fault injection vs the deadline manager |
//! | [`failover`] | mirrored placement: volume loss, degraded reads, rebuild |
//! | [`parity_failover`] | rotating parity: volume loss, reconstruction, capacity vs mirroring |
//! | [`steered_reads`] | §17 coded-read steering: g−1 fan-out around a hot spindle |
//! | [`net_delivery`] | §18 NPS delivery: pacing, playout buffers, multicast, loss/retransmit |
//! | [`cache_sharing`] | interval cache: Zipf arrivals, cache-aware admission |
//! | [`cluster_scaling`] | sharded cluster: Zipf catalog, replica routing, whole-shard kill |
//! | [`catalog_scaling`] | §16 cache manager: prefix residency, batched joins, fixed-spindle viewer scaling |
//! | [`interval_overlap`] | pipelined vs serial cross-volume interval issue |
//! | [`measured_capacity`] | admitted load validated by simulation |
//! | [`deploy`] | Figure 5 deployment-configuration cost ablation |
//! | [`disk_sched`] | head-scheduling ablation (FCFS/SSTF/SCAN/C-SCAN) |
//! | [`multi`] | §2.6 multiple CRAS instances sharing one disk |
//! | [`editing`] | playback vs delayed-write editor traffic |
//! | [`buffer_ablation`] | §2.4 FIFO vs time-driven buffer staleness |
//!
//! [`runner`] holds the shared scenario plumbing and [`result`] the
//! serializable output containers. The modules share their playback
//! steps through [`runner`] instead of repeating them by hand:
//! `runner::admit_until_refused`, `runner::start_all` (optionally a
//! gap apart; returns the latest start), `runner::count_admitted` and
//! [`runner::arrive`] (one viewer arrival), each a fixed sequence of
//! `System` calls, and [`runner::frames_dropped`] reads a run's drops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Experiment setup reads clearer as field-by-field overrides of the
// default configuration.
#![allow(clippy::field_reassign_with_default)]

pub mod ablate;
pub mod admission_acc;
pub mod buffer_ablation;
pub mod cache_sharing;
pub mod capacity;
pub mod capacity_scaling;
pub mod catalog_scaling;
pub mod cluster_scaling;
pub mod deploy;
pub mod disk_sched;
pub mod editing;
pub mod failover;
pub mod faults;
pub mod fig10;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod frag;
pub mod interval_overlap;
pub mod measured_capacity;
pub mod multi;
pub mod net_delivery;
pub mod parity_failover;
pub mod qos;
pub mod result;
pub mod runner;
pub mod steered_reads;
pub mod vbr;

pub use runner::{run_scenario, Scenario, Storage};
