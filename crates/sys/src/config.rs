//! System-level configuration: scheduling mode, CPU cost model, and the
//! pieces assembled from the component crates.

use cras_core::ServerConfig;
use cras_sim::Duration;

/// Which CPU scheduling policy the whole workload runs under (Figure 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Real-Time Mach fixed priorities: CRAS threads above players above
    /// hogs.
    #[default]
    FixedPriority,
    /// Round robin with the given quantum for *every* thread — the
    /// time-sharing baseline of Figure 10.
    RoundRobin {
        /// Time slice.
        quantum: Duration,
    },
}

/// How each interval's reads are issued to the volume set.
///
/// The interval scheduler plans one batch of reads per interval, already
/// partitioned per volume and in each spindle's sweep order. With
/// several spindles the batches can run concurrently — the interval
/// then completes when the *slowest* spindle finishes, so measured
/// interval time tracks `max(per-volume I/O time)`, which is exactly
/// the bound the per-volume admission test enforces. The serial mode
/// chains the volumes one after another (effectively a single logical
/// spindle) and exists as the measured baseline: it makes interval time
/// track the *sum* over volumes instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IssueMode {
    /// Issue every volume's batch at tick time; each spindle drains its
    /// own real-time queue concurrently (the default, and what the
    /// admission bound assumes).
    #[default]
    Pipelined,
    /// Issue one volume's batch at a time, starting the next volume only
    /// when the previous volume's batch fully completes. Baseline for
    /// measuring cross-volume overlap.
    SerialVolumes,
}

/// CPU cost model for the simulated software (representative P5-100
/// figures; only their order of magnitude matters to the results, and the
/// Figure 10 contrast is robust to them). The costs no workload varies
/// — the request scheduler's pass, hog bursts, a background reader's
/// minimum cycle — are constants beside their reader in
/// [`crate::system`]. Unix-server requests cost no simulated CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuCosts {
    /// Player per-frame client cost (fetch + consume). The paper's
    /// multi-stream benchmarks are readers, not software decoders — a
    /// P5-100 could not decode 20 MPEG streams; keep this the cost of
    /// consuming a frame from shared memory.
    pub decode: Duration,
}

impl Default for CpuCosts {
    fn default() -> Self {
        CpuCosts {
            decode: Duration::from_micros(500),
        }
    }
}

/// Full system configuration.
#[derive(Clone, Copy, Debug)]
pub struct SysConfig {
    /// CRAS server configuration.
    pub server: ServerConfig,
    /// CPU scheduling mode.
    pub sched: SchedMode,
    /// CPU cost model.
    pub costs: CpuCosts,
    /// RNG seed for the whole system.
    pub seed: u64,
    /// Number of CPU-hog threads.
    pub hogs: u32,
    /// If false, `open` failures from the admission test are overridden —
    /// the Figure 6 throughput sweep measures *achieved* throughput past
    /// the admitted load.
    pub enforce_admission: bool,
    /// Probability that a disk operation takes a transient retry stall
    /// (fault injection; 0 disables).
    pub disk_fault_prob: f64,
    /// Whether every player keeps each displayed frame's delay in
    /// `PlayerStats::delays` and every delivery session logs each
    /// playout in `SessionStats::playout_log` (16 bytes per frame per
    /// viewer). Off, a player keeps only its first displayed frame and
    /// a session only its playouts up to and including the first on
    /// time; the delay summary covers every frame either way.
    pub frame_trace: bool,
}

impl Default for SysConfig {
    fn default() -> Self {
        SysConfig {
            server: ServerConfig::default(),
            sched: SchedMode::FixedPriority,
            costs: CpuCosts::default(),
            seed: 42,
            hogs: 0,
            enforce_admission: true,
            disk_fault_prob: 0.0,
            frame_trace: false,
        }
    }
}

/// Fixed-priority levels used under [`SchedMode::FixedPriority`].
pub mod prio {
    /// CRAS server threads (request scheduler, I/O done manager).
    pub const CRAS: u8 = 30;
    /// Player (benchmark) threads — "the priority of the benchmark
    /// program is higher than the priorities of `cat` programs".
    pub(crate) const PLAYER: u8 = 20;
    /// CPU hogs.
    pub(crate) const HOG: u8 = 5;
    /// The single round-robin level.
    pub const RR: u8 = 10;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SysConfig::default();
        assert_eq!(c.sched, SchedMode::FixedPriority);
        assert!(c.enforce_admission);
        assert!(!c.frame_trace);
        assert!(c.costs.decode > Duration::ZERO);
        // Constant by design: the priority ladder is a compile-time
        // contract this test documents.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(prio::CRAS > prio::PLAYER);
            assert!(prio::PLAYER > prio::HOG);
        }
    }
}
