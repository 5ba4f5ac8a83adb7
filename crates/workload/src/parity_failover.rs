//! Parity failover experiment: a volume dies under rotating-parity
//! placement, admitted streams keep every deadline, and a rate-controlled
//! reconstruction rebuild recovers the lost volume from the survivors.
//!
//! The mirrored failover experiment ([`crate::failover`]) buys its
//! guarantees with 2× storage; this one buys the same guarantees with
//! `g/(g-1)`× — one parity unit per row of `g-1` data units, the parity
//! volume rotating per row. The price moves from capacity to degraded
//! bandwidth: a read of a lost unit becomes `g-1` reads (the row's
//! surviving data+parity units) fanned into the same per-spindle interval
//! batches, which is why admission charges every band volume the
//! worst-case `2/g` share up front. The sweep measures both sides of the
//! trade: the storage factor against an identically-recorded mirrored
//! layout, and drops/overruns through failure, degraded service and
//! reconstruction.

use cras_core::PlacementPolicy;
use cras_media::{Movie, StreamProfile};
use cras_sim::Duration;
use cras_sys::System;

use crate::failover;
use crate::result::{Figure, KvTable};

/// Outcome of one parity failover run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParityFailoverOutcome {
    /// Streams requested.
    pub requested: usize,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Frames dropped by the admitted players (must stay 0).
    pub dropped: u64,
    /// Deadline warnings from the server (must stay 0).
    pub overruns: u64,
    /// Intervals with at least one stream served by reconstruction.
    pub degraded_intervals: u64,
    /// Survivor reads issued in place of reads on the dead volume.
    pub degraded_reads: u64,
    /// Reads whose data was unreconstructible (must stay 0 with a
    /// single failure).
    pub lost_reads: u64,
    /// Bytes the rebuild wrote onto the replacement volume.
    pub rebuild_bytes: u64,
    /// Rebuild time in seconds.
    pub rebuild_secs: f64,
    /// Stored bytes over media bytes under parity placement
    /// (≈ `g/(g-1)`), measured from the recorded files.
    pub storage_factor: f64,
    /// Stored bytes over media bytes for the same movies recorded
    /// mirrored (≈ 2), measured the same way.
    pub mirrored_storage_factor: f64,
}

/// Stored-over-media byte ratio of `movies`, measured from the sizes of
/// the files the recording actually allocated.
fn storage_factor(sys: &System, movies: &[Movie]) -> f64 {
    let media: u64 = movies.iter().map(|m| m.table.total_bytes()).sum();
    let stored: u64 = movies
        .iter()
        .flat_map(|m| sys.placement(&m.name).expect("recorded").files())
        .map(|(v, ino)| sys.ufs_on(v).file_size(ino))
        .sum();
    stored as f64 / media as f64
}

/// Runs the parity failover scenario at each requested stream count:
/// `volumes` volumes in one parity band (`group = volumes`), kill a band
/// volume a third of the way into the measurement, attach a replacement
/// one second later, and play through the reconstruction. Every run also
/// records the same movies under mirrored placement (setup only, no
/// simulation) to measure the capacity the parity layout saves.
pub fn sweep(
    stream_counts: &[usize],
    volumes: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Figure, Vec<ParityFailoverOutcome>) {
    assert!(volumes >= 2, "parity needs at least two volumes");
    let mut out = Vec::new();
    for &requested in stream_counts {
        let names: Vec<String> = (0..requested).map(|i| format!("pf{i}.mov")).collect();
        let cfg = failover::config(PlacementPolicy::Parity { group: volumes }, volumes, seed);
        // Every movie spans the whole band, so any band volume serves as
        // the victim.
        let run = failover::run(cfg, &names, measure, |_| (volumes as u32) / 2);
        // The mirrored yardstick: same movies, same seed, recording only.
        let mirrored_factor = {
            let mut msys = System::new(failover::config(PlacementPolicy::Mirrored, volumes, seed));
            let secs = measure.as_secs_f64() + 8.0;
            let movies: Vec<Movie> = names
                .iter()
                .map(|n| msys.record_movie(n, StreamProfile::mpeg1(), secs))
                .collect();
            storage_factor(&msys, &movies)
        };
        let sys = &run.sys;
        out.push(ParityFailoverOutcome {
            requested,
            admitted: run.admitted,
            dropped: run.dropped,
            overruns: sys.metrics.overruns,
            degraded_intervals: sys.metrics.degraded_intervals,
            degraded_reads: sys.cras.stats().degraded_reads,
            lost_reads: sys.metrics.lost_reads + sys.cras.stats().lost_reads,
            rebuild_bytes: sys.metrics.rebuild_bytes,
            rebuild_secs: sys
                .metrics
                .rebuild_time()
                .map(|t| t.as_secs_f64())
                .unwrap_or(f64::NAN),
            storage_factor: storage_factor(sys, &run.movies),
            mirrored_storage_factor: mirrored_factor,
        });
    }
    let mut t = KvTable::new(
        "parity_failover",
        &format!(
            "Volume failover under rotating-parity placement ({volumes} volumes, group {volumes})"
        ),
    );
    for o in &out {
        t.row(
            &format!("n={}", o.requested),
            format!(
                "admitted={} drops={} warnings={} lost={} degraded_ivals={} \
                 degraded_reads={} rebuild={:.1}s ({:.1} MB) storage={:.3}x (mirrored {:.3}x)",
                o.admitted,
                o.dropped,
                o.overruns,
                o.lost_reads,
                o.degraded_intervals,
                o.degraded_reads,
                o.rebuild_secs,
                o.rebuild_bytes as f64 / (1024.0 * 1024.0),
                o.storage_factor,
                o.mirrored_storage_factor,
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "parity_failover_rebuild",
        "Reconstruction time vs admitted streams",
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
    fn parity_streams_keep_every_deadline_through_failover() {
        // The acceptance scenario: N=4, one volume killed mid-run.
        let (_t, _f, outs) = sweep(&[2, 5], 4, Duration::from_secs(12), 0x9F);
        for o in &outs {
            assert_eq!(o.admitted, o.requested, "admission rejected {o:?}");
            assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
            assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
            assert_eq!(o.lost_reads, 0, "data lost with one failure: {o:?}");
            assert!(o.degraded_intervals > 0, "survivors never served: {o:?}");
            assert!(o.rebuild_bytes > 0, "nothing reconstructed: {o:?}");
            assert!(o.rebuild_secs.is_finite(), "rebuild unfinished: {o:?}");
            // Capacity: ~4/3 against the mirrored 2x. Block rounding and
            // the control file leave a little slack either way.
            assert!(
                (o.storage_factor - 4.0 / 3.0).abs() < 0.05,
                "storage factor {o:?}"
            );
            assert!(
                (o.mirrored_storage_factor - 2.0).abs() < 0.05,
                "mirrored factor {o:?}"
            );
            assert!(
                o.storage_factor < o.mirrored_storage_factor,
                "parity should be cheaper: {o:?}"
            );
        }
        // More streams leave more data+parity bytes on the dead spindle.
        assert!(outs[1].rebuild_bytes > outs[0].rebuild_bytes, "{outs:?}");
    }

    #[test]
    fn parity_failover_is_deterministic() {
        let run = || sweep(&[3], 4, Duration::from_secs(10), 0x9F1).2;
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
