//! Failover experiment: a volume dies under mirrored placement, admitted
//! streams keep every deadline, and a rate-controlled rebuild restores
//! the lost replicas.
//!
//! The redundancy argument has three legs, and each is measured here:
//! admission charged the full rate on *both* replica volumes, so a
//! surviving spindle can carry its streams alone; failed reads remap by
//! logical byte range to the surviving replica inside the same interval
//! machinery (degraded reads); and the rebuild runs through the
//! *normal-priority* disk queue, so the dual-queue driver's strict
//! real-time priority keeps the copy traffic invisible to admitted
//! streams. The sweep reports rebuild time against the admitted-stream
//! count: more admitted streams mean more replica bytes on the dead
//! spindle, and a longer (but still harmless) rebuild.

use cras_core::PlacementPolicy;
use cras_media::{Movie, StreamProfile};
use cras_sim::{Duration, Instant};
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};

/// Outcome of one failover run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailoverOutcome {
    /// Streams requested.
    pub requested: usize,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Frames dropped by the admitted players (must stay 0).
    pub dropped: u64,
    /// Deadline warnings from the server (must stay 0).
    pub overruns: u64,
    /// Intervals served from a mirror while the primary was down.
    pub degraded_intervals: u64,
    /// In-flight reads re-issued against the surviving replica.
    pub degraded_reads: u64,
    /// Bytes the rebuild copied onto the replacement volume.
    pub rebuild_bytes: u64,
    /// Rebuild copy time in seconds.
    pub rebuild_secs: f64,
}

/// The configuration both failover experiments run: `volumes` spindles
/// under `placement`, with 64 MB of buffer memory.
pub(crate) fn config(placement: PlacementPolicy, volumes: usize, seed: u64) -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.volumes = volumes;
    cfg.server.placement = placement;
    cfg.server.buffer_budget = 64 << 20;
    cfg
}

/// One run of the failover scenario.
pub(crate) struct Run {
    /// The system after the rebuild drained.
    pub sys: System,
    /// The recorded movies, in `names` order.
    pub movies: Vec<Movie>,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Frames the admitted players dropped.
    pub dropped: u64,
}

/// The failover scenario both placements share: record one
/// `measure + 8 s` MPEG-1 movie per name, admit them in order until the
/// test refuses one, start every admitted player, fail `victim` a third
/// of the way into `measure`, attach a replacement, play to the end of
/// `measure` and drain the rebuild.
pub(crate) fn run(
    cfg: SysConfig,
    names: &[String],
    measure: Duration,
    victim: impl FnOnce(&System) -> u32,
) -> Run {
    let mut sys = System::new(cfg);
    let secs = measure.as_secs_f64() + 8.0;
    let movies: Vec<Movie> = names
        .iter()
        .map(|n| sys.record_movie(n, StreamProfile::mpeg1(), secs))
        .collect();
    let mut players = Vec::new();
    for m in &movies {
        match sys.add_cras_player(m, 1) {
            Ok(c) => players.push(c),
            Err(_) => break,
        }
    }
    let mut start = Instant::ZERO;
    for &p in &players {
        start = sys.start_playback(p).max(start);
    }
    let victim = victim(&sys);
    sys.run_until(start + Duration::from_secs_f64(measure.as_secs_f64() / 3.0));
    sys.fail_volume(victim);
    // Attach the replacement and rebuild while playback continues.
    // Under load the dead spindle's fast-error queue may still be
    // draining through the event loop, so retry until the device is
    // free instead of panicking on the race.
    let mut tries = 0;
    while let Err(e) = sys.try_attach_replacement(victim) {
        tries += 1;
        assert!(tries < 100, "replacement never attached: {e}");
        sys.run_for(Duration::from_millis(100));
    }
    sys.run_until(start + measure);
    let mut guard = 0;
    while sys.rebuild_active() && guard < 3600 {
        sys.run_for(Duration::from_secs(1));
        guard += 1;
    }
    let dropped = players
        .iter()
        .map(|c| sys.players[&c.0].stats.frames_dropped)
        .sum();
    Run {
        sys,
        movies,
        admitted: players.len(),
        dropped,
    }
}

/// Runs the failover scenario at each requested stream count: `volumes`
/// mirrored volumes, kill the first movie's primary a third of the way
/// into the measurement, attach a replacement one second later, and play
/// through the rebuild.
pub fn sweep(
    stream_counts: &[usize],
    volumes: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Figure, Vec<FailoverOutcome>) {
    assert!(volumes >= 2, "failover needs at least two volumes");
    let mut out = Vec::new();
    for &requested in stream_counts {
        let names: Vec<String> = (0..requested).map(|i| format!("fo{i}.mov")).collect();
        let cfg = config(PlacementPolicy::Mirrored, volumes, seed);
        let victim = |sys: &System| sys.placement("fo0.mov").expect("recorded").volume();
        let Run {
            sys,
            admitted,
            dropped,
            ..
        } = run(cfg, &names, measure, victim);
        out.push(FailoverOutcome {
            requested,
            admitted,
            dropped,
            overruns: sys.metrics.overruns,
            degraded_intervals: sys.metrics.degraded_intervals,
            degraded_reads: sys.metrics.degraded_reads,
            rebuild_bytes: sys.metrics.rebuild_bytes,
            rebuild_secs: sys
                .metrics
                .rebuild_time()
                .map(|t| t.as_secs_f64())
                .unwrap_or(f64::NAN),
        });
    }
    let mut t = KvTable::new(
        "failover",
        &format!("Volume failover under mirrored placement ({volumes} volumes)"),
    );
    for o in &out {
        t.row(
            &format!("n={}", o.requested),
            format!(
                "admitted={} drops={} warnings={} degraded_ivals={} degraded_reads={} \
                 rebuild={:.1}s ({:.1} MB)",
                o.admitted,
                o.dropped,
                o.overruns,
                o.degraded_intervals,
                o.degraded_reads,
                o.rebuild_secs,
                o.rebuild_bytes as f64 / (1024.0 * 1024.0)
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "failover_rebuild",
        "Rebuild time vs admitted streams",
        "admitted streams",
        "rebuild time (s)",
    );
    for o in &out {
        f.series_mut("rebuild")
            .push(o.admitted as f64, o.rebuild_secs);
        f.series_mut("degraded intervals")
            .push(o.admitted as f64, o.degraded_intervals as f64);
    }
    (t, f, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_streams_keep_every_deadline_through_failover() {
        let (_t, _f, outs) = sweep(&[2, 6], 4, Duration::from_secs(12), 0xF0);
        for o in &outs {
            assert_eq!(o.admitted, o.requested, "admission rejected {o:?}");
            assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
            assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
            assert!(o.degraded_intervals > 0, "mirror never served: {o:?}");
            assert!(o.rebuild_bytes > 0, "nothing rebuilt: {o:?}");
            assert!(o.rebuild_secs.is_finite(), "rebuild unfinished: {o:?}");
        }
        // More streams leave more replica bytes on the dead spindle.
        assert!(outs[1].rebuild_bytes > outs[0].rebuild_bytes, "{outs:?}");
    }

    #[test]
    fn failover_is_deterministic() {
        let run = || sweep(&[4], 4, Duration::from_secs(10), 0xF1).2;
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
