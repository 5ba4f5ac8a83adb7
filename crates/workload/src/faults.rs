//! Fault-injection experiment: transient disk retry stalls vs the
//! deadline manager and the time-driven buffer.
//!
//! The paper's deadline-manager thread "executes the recovery action from
//! a missed deadline. Currently, CRAS notifies a warning message." This
//! experiment injects retry stalls into the disk and measures how the
//! warning count and the client experience degrade: double buffering
//! (`B_i = 2·A_i`) should absorb isolated stalls entirely, while heavy
//! fault rates surface as deadline warnings before they surface as
//! dropped frames.

use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

use crate::result::KvTable;
use crate::runner::{frames_dropped, start_all};

/// Outcome at one fault rate.
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// Fault probability per disk operation.
    pub prob: f64,
    /// Faults actually injected.
    pub injected: u64,
    /// Deadline warnings from the server.
    pub overruns: u64,
    /// Frames dropped by the clients.
    pub dropped: u64,
    /// Maximum frame delay (seconds).
    pub max_delay: f64,
}

/// Runs `streams` MPEG-1 players for `measure` at each fault rate.
pub fn sweep(
    probs: &[f64],
    streams: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Vec<FaultOutcome>) {
    let mut out = Vec::new();
    for &prob in probs {
        let mut cfg = SysConfig::default();
        cfg.seed = seed;
        cfg.disk_fault_prob = prob;
        cfg.server.buffer_budget = 64 << 20;
        let mut sys = System::new(cfg);
        let movies: Vec<_> = (0..streams)
            .map(|i| {
                sys.record_movie(
                    &format!("f{i}.mov"),
                    StreamProfile::mpeg1(),
                    measure.as_secs_f64() + 8.0,
                )
            })
            .collect();
        let players: Vec<_> = movies
            .iter()
            .map(|m| sys.add_cras_player(m, 1).expect("within admission"))
            .collect();
        let start = start_all(&mut sys, &players, Duration::ZERO);
        sys.run_until(start + measure);
        let injected = sys
            .disk()
            .fault_injector()
            .map(|f| f.injected())
            .unwrap_or(0);
        let dropped = frames_dropped(&sys);
        let max_delay = sys
            .players
            .values()
            .map(|p| p.delay_summary().1)
            .fold(0.0, f64::max);
        out.push(FaultOutcome {
            prob,
            injected,
            overruns: sys.metrics.overruns,
            dropped,
            max_delay,
        });
    }
    let mut t = KvTable::new(
        "faults",
        &format!("Transient-fault injection ({streams} MPEG1 streams, 25 ms stalls)"),
    );
    for o in &out {
        t.row(
            &format!("p={:.2}", o.prob),
            format!(
                "faults={} warnings={} drops={} max_delay={:.1}ms",
                o.injected,
                o.overruns,
                o.dropped,
                o.max_delay * 1e3
            ),
            "",
        );
    }
    (t, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_buffering_absorbs_rare_faults() {
        let (_t, outs) = sweep(&[0.0, 0.02], 6, Duration::from_secs(12), 0xFA);
        let clean = outs[0];
        let rare = outs[1];
        assert_eq!(clean.injected, 0);
        assert_eq!(clean.dropped, 0);
        assert!(rare.injected > 0, "faults must fire");
        // Isolated 25 ms stalls hide entirely behind the 1 s of
        // double-buffered data.
        assert_eq!(rare.dropped, 0, "rare faults must not drop frames");
        assert!(rare.max_delay < 0.05, "max delay {}", rare.max_delay);
    }

    #[test]
    fn heavy_faults_raise_warnings_before_drops() {
        let (_t, outs) = sweep(&[0.6], 10, Duration::from_secs(12), 0xFB);
        let heavy = outs[0];
        assert!(heavy.injected > 100);
        // The deadline manager notices (warnings), even if the buffer
        // still shields most frames.
        assert!(
            heavy.overruns > 0,
            "deadline manager should warn: {heavy:?}"
        );
    }
}
