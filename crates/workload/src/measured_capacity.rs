//! Measured capacity: the §3.1 claim validated end-to-end.
//!
//! The closed-form sweep ([`crate::capacity`]) says how many streams the
//! admission test accepts per interval time; this experiment *runs* the
//! admitted load and verifies the guarantee held — zero dropped frames
//! and zero deadline warnings — and also runs one stream beyond the
//! admitted count to show the margin that the test's pessimism leaves.

use cras_core::{Admission, AdmissionModel, StreamParams};
use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

use crate::result::KvTable;
use crate::runner::{frames_dropped, start_all};

/// Outcome of one validated interval point.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredPoint {
    /// Interval time (seconds).
    pub interval: f64,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Dropped frames when running exactly the admitted load.
    pub dropped_at_admitted: u64,
    /// Deadline warnings at the admitted load.
    pub overruns_at_admitted: u64,
    /// Dropped frames when running admitted + extra streams (the
    /// pessimism margin usually absorbs a few).
    pub dropped_beyond: u64,
}

fn run_load(interval: f64, streams: usize, measure: Duration, seed: u64) -> (u64, u64) {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.interval = Duration::from_secs_f64(interval);
    cfg.server.buffer_budget = 256 << 20;
    cfg.enforce_admission = false;
    let mut sys = System::new(cfg);
    let movies: Vec<_> = (0..streams)
        .map(|i| {
            sys.record_movie(
                &format!("c{i}.mov"),
                StreamProfile::mpeg1(),
                measure.as_secs_f64() + 4.0 * interval + 6.0,
            )
        })
        .collect();
    let players: Vec<_> = movies
        .iter()
        .map(|m| sys.add_cras_player(m, 1).expect("admission off"))
        .collect();
    let start = start_all(&mut sys, &players, Duration::ZERO);
    sys.run_until(start + measure);
    let dropped = frames_dropped(&sys);
    (dropped, sys.metrics.overruns)
}

/// Validates the admitted capacity at each interval, plus `extra` streams
/// beyond it.
pub fn validate(
    intervals: &[f64],
    extra: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Vec<MeasuredPoint>) {
    let mut scratch: cras_disk::DiskDevice<u8> = cras_disk::DiskDevice::st32550n();
    let cal = cras_disk::calibrate::calibrate(&mut scratch, 64 * 1024);
    let adm = Admission::new(cal.params, AdmissionModel::Paper);
    let proto = StreamParams::new(187_500.0, 6_250.0);
    let mut points = Vec::new();
    let mut t = KvTable::new(
        "measured-capacity",
        "Admitted load validated by simulation (MPEG1 streams)",
    );
    for &interval in intervals {
        let admitted = adm.capacity(interval, proto, u64::MAX / 4, 100);
        let (dropped_at, overruns_at) = run_load(interval, admitted, measure, seed);
        let (dropped_beyond, _) = run_load(interval, admitted + extra, measure, seed ^ 1);
        points.push(MeasuredPoint {
            interval,
            admitted,
            dropped_at_admitted: dropped_at,
            overruns_at_admitted: overruns_at,
            dropped_beyond,
        });
        t.row(
            &format!("T={interval}s"),
            format!(
                "admitted={admitted} drops@admitted={dropped_at} warnings={overruns_at} drops@+{extra}={dropped_beyond}"
            ),
            "",
        );
    }
    (t, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admitted_load_is_guaranteed() {
        let (_t, points) = validate(&[0.5], 3, Duration::from_secs(12), 0xCAFE);
        let p = points[0];
        assert!((13..=16).contains(&p.admitted), "admitted {}", p.admitted);
        assert_eq!(p.dropped_at_admitted, 0, "guarantee violated: {p:?}");
        assert_eq!(p.overruns_at_admitted, 0, "warnings at admitted load");
        // Beyond admission there is no guarantee; the pessimism margin
        // keeps degradation graceful (a few percent of frame slots), not
        // zero.
        let slots_beyond = ((p.admitted + 3) as u64) * 12 * 30;
        assert!(
            p.dropped_beyond < slots_beyond / 10,
            "beyond-admission degradation should be graceful: {p:?}"
        );
    }
}
