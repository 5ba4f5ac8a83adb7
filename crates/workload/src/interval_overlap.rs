//! Cross-volume interval overlap experiment: does the pipelined issue
//! path make measured interval time track the *slowest spindle* instead
//! of the sum over spindles?
//!
//! The per-volume admission test bounds each interval by
//! `max(per-volume calculated I/O time)` — a bound that is only honest
//! if every spindle drains its batch concurrently. This experiment runs
//! the same striped multi-volume workload under both
//! [`IssueMode::Pipelined`] (each volume's C-SCAN batch issued at tick
//! time, one chain in flight per spindle) and the
//! [`IssueMode::SerialVolumes`] baseline (one volume's batch at a time),
//! and compares each interval's wall-clock span against the *measured*
//! per-volume service times: pipelined spans sit on the slowest
//! spindle, serial spans sit on the sum.

use std::collections::BTreeMap;

use cras_core::PlacementPolicy;
use cras_media::StreamProfile;
use cras_sim::{Duration, Instant};
use cras_sys::{IssueMode, SysConfig, System};

use crate::result::{Figure, KvTable};
use crate::runner::{admit_until_refused, frames_dropped, start_all};

/// First interval index included in the measurements: the initial
/// prefetch intervals issue double batches and would skew the means.
const WARMUP_INTERVALS: u64 = 4;

/// Outcome of one run (one stream count, one issue mode).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlapOutcome {
    /// Volumes in the striped array.
    pub volumes: usize,
    /// Streams requested.
    pub requested: usize,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Issue mode of this run.
    pub mode: IssueMode,
    /// Frames dropped by the admitted players (must stay 0).
    pub dropped: u64,
    /// Deadline warnings from the server (must stay 0).
    pub overruns: u64,
    /// Multi-volume intervals measured (post-warmup, fully completed).
    pub intervals: usize,
    /// Mean wall-clock span of those intervals, seconds.
    pub mean_span: f64,
    /// Mean of span over the *measured* busy time of the interval's
    /// slowest spindle. Pipelined issue sits near 1; serial issue grows
    /// toward the number of loaded volumes.
    pub span_over_max: f64,
    /// Mean of span over the summed service time of all the interval's
    /// reads. Serial issue sits near 1 (the span *is* the sum);
    /// pipelined issue drops toward `1/volumes`.
    pub span_over_sum: f64,
    /// Mean of span over `max(per-volume calculated I/O time)` — the
    /// admission bound. Must stay at or below 1 for pipelined issue.
    pub span_over_calc: f64,
    /// Mean cross-volume overlap factor (summed service time over the
    /// span): 1 = one spindle at a time, `volumes` = all busy throughout.
    pub overlap: f64,
}

/// Runs one striped workload: `requested` streams over `volumes`
/// volumes, issued under `mode`, measured for `measure`.
pub fn run_one(
    requested: usize,
    volumes: usize,
    mode: IssueMode,
    measure: Duration,
    seed: u64,
) -> OverlapOutcome {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.volumes = volumes;
    // Fine stripes: an interval's worth of MPEG1 (~90 KB) spans volumes
    // every interval. Identical movies played in lockstep over coarse
    // stripes would park every stream on the same spindle at once and
    // leave nothing to overlap.
    cfg.server.placement = PlacementPolicy::Striped {
        stripe_bytes: 64 * 1024,
    };
    cfg.server.buffer_budget = 64 << 20;
    let mut sys = System::new(cfg);
    // The serial baseline is an experiment-only knob, deliberately not
    // part of `SysConfig`.
    sys.set_issue_mode(mode);
    let movies: Vec<_> = (0..requested)
        .map(|i| {
            sys.record_movie(
                &format!("ov{i}.mov"),
                StreamProfile::mpeg1(),
                measure.as_secs_f64() + 8.0,
            )
        })
        .collect();
    let players = admit_until_refused(&mut sys, &movies);
    let admitted = players.len();
    // De-lockstep the identical movies: staggered starts spread each
    // interval's reads over the whole array instead of marching every
    // stream along the same stripe front.
    let start = start_all(&mut sys, &players, Duration::from_millis(700));
    sys.run_until(start + measure);
    let dropped = frames_dropped(&sys);
    // Measure from the first interval where every stream is in steady
    // state: past the last start and the prefetch ramp behind it.
    let started_intervals =
        start.since(Instant::ZERO).as_nanos() / cfg.server.interval.as_nanos().max(1);
    let min_index = started_intervals + WARMUP_INTERVALS;

    // Measured per-volume busy time of each interval, from the
    // per-(interval, volume) records.
    let mut per_vol: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in sys.metrics.intervals() {
        if let Some(actual) = r.actual() {
            per_vol.entry(r.index).or_default().push(actual);
        }
    }
    let mut n = 0usize;
    let (mut span_sum, mut over_max, mut over_sum, mut over_calc, mut overlap) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for w in sys.metrics.interval_walls() {
        // Steady-state, fully completed, genuinely multi-volume
        // intervals only: single-volume intervals are identical under
        // both modes and would dilute the contrast.
        if w.index < min_index || w.volumes < 2 {
            continue;
        }
        let (Some(span), Some(ov)) = (w.span(), w.overlap()) else {
            continue;
        };
        let vols = per_vol.get(&w.index).map(Vec::as_slice).unwrap_or(&[]);
        if vols.len() != w.volumes {
            continue; // A per-volume record never completed.
        }
        let measured_max = vols.iter().copied().fold(0.0f64, f64::max);
        if measured_max <= 0.0 || w.service_sum <= 0.0 || w.calc_max <= 0.0 {
            continue;
        }
        n += 1;
        span_sum += span;
        over_max += span / measured_max;
        over_sum += span / w.service_sum;
        over_calc += span / w.calc_max;
        overlap += ov;
    }
    let m = (n as f64).max(1.0);
    OverlapOutcome {
        volumes,
        requested,
        admitted,
        mode,
        dropped,
        overruns: sys.metrics.overruns,
        intervals: n,
        mean_span: span_sum / m,
        span_over_max: over_max / m,
        span_over_sum: over_sum / m,
        span_over_calc: over_calc / m,
        overlap: overlap / m,
    }
}

fn mode_label(mode: IssueMode) -> &'static str {
    match mode {
        IssueMode::Pipelined => "pipelined",
        IssueMode::SerialVolumes => "serial",
    }
}

/// Runs each stream count under both issue modes over a `volumes`-wide
/// striped array.
pub fn sweep(
    stream_counts: &[usize],
    volumes: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Figure, Vec<OverlapOutcome>) {
    assert!(volumes >= 2, "overlap needs at least two volumes");
    let mut out = Vec::new();
    for &requested in stream_counts {
        for mode in [IssueMode::Pipelined, IssueMode::SerialVolumes] {
            out.push(run_one(requested, volumes, mode, measure, seed));
        }
    }
    let mut t = KvTable::new(
        "interval_overlap",
        &format!("Cross-volume interval overlap ({volumes} striped volumes)"),
    );
    for o in &out {
        t.row(
            &format!("n={} {}", o.requested, mode_label(o.mode)),
            format!(
                "admitted={} drops={} warnings={} intervals={} span={:.1}ms \
                 span/max={:.2} span/sum={:.2} span/calc={:.2} overlap={:.2}",
                o.admitted,
                o.dropped,
                o.overruns,
                o.intervals,
                o.mean_span * 1e3,
                o.span_over_max,
                o.span_over_sum,
                o.span_over_calc,
                o.overlap
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "interval_overlap",
        "Interval span over slowest-spindle busy time",
        "admitted streams",
        "span / max(per-volume measured)",
    );
    for o in &out {
        f.series_mut(mode_label(o.mode))
            .push(o.admitted as f64, o.span_over_max);
    }
    (t, f, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_core::ServerConfig;
    use cras_sim::Rng;
    use cras_sys::MoviePlacement;

    use crate::runner::arrive;

    #[test]
    fn pipelined_tracks_the_slowest_spindle_serial_tracks_the_sum() {
        let (_t, _f, outs) = sweep(&[8], 4, Duration::from_secs(12), 0x0E);
        let [pipe, serial] = outs.as_slice() else {
            panic!("expected two outcomes, got {outs:?}");
        };
        assert_eq!(pipe.mode, IssueMode::Pipelined);
        assert_eq!(serial.mode, IssueMode::SerialVolumes);
        for o in [pipe, serial] {
            assert_eq!(o.admitted, o.requested, "admission rejected: {o:?}");
            assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
            assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
            assert!(o.intervals >= 10, "too few measured intervals: {o:?}");
        }
        // The issue mode must not leak into admission.
        assert_eq!(pipe.admitted, serial.admitted);
        // Pipelined: the interval ends with the slowest spindle (within
        // the acceptance margin), well under the admission bound.
        assert!(
            pipe.span_over_max <= 1.15,
            "pipelined not overlapped: {pipe:?}"
        );
        assert!(
            pipe.span_over_calc <= 1.0,
            "admission bound broken: {pipe:?}"
        );
        assert!(pipe.overlap > 1.5, "spindles not concurrent: {pipe:?}");
        // Serial baseline: the interval is the sum of the spindles.
        assert!(
            serial.span_over_sum >= 0.95,
            "serial not near-sum: {serial:?}"
        );
        assert!(serial.overlap <= 1.05, "serial overlapped: {serial:?}");
        assert!(
            serial.span_over_max >= 2.0,
            "baseline contrast too weak: {serial:?}"
        );
        assert!(
            serial.mean_span > 2.0 * pipe.mean_span,
            "pipelined span {} vs serial {}",
            pipe.mean_span,
            serial.mean_span
        );
    }

    #[test]
    fn admission_bound_holds_under_overlap() {
        // Property: with pipelined issue, no completed interval's wall
        // span exceeds max(per-volume calculated) plus modeled overhead
        // — across random multi-volume workloads, including a failed
        // volume mid-run and cache-served followers.
        let bound_ok = |sys: &System, label: &str| {
            for w in sys.metrics.interval_walls() {
                let Some(span) = w.span() else { continue };
                // The initial prefetch intervals batch two intervals of
                // data by design (start-delay buffering); the per-
                // interval bound applies from steady state on.
                if w.index < WARMUP_INTERVALS || w.calc_max <= 0.0 {
                    continue;
                }
                // Margin: per-command overhead under-modeled by the
                // admission test plus the fast-error latency of reads
                // caught on a dying volume.
                assert!(
                    span <= w.calc_max * 1.05 + 0.01,
                    "{label}: interval {} span {span} exceeds calc_max {}",
                    w.index,
                    w.calc_max
                );
            }
        };
        let mut rng = Rng::new(0x0B5D);
        for case in 0..4u64 {
            let volumes = 2 + (rng.next_u64() % 3) as usize;
            let streams = 2 + (rng.next_u64() % 7) as usize;
            let mut cfg = SysConfig::default();
            cfg.seed = 0xA110 + case;
            cfg.server.volumes = volumes;
            cfg.server.placement = PlacementPolicy::Striped {
                stripe_bytes: 64 * 1024,
            };
            cfg.server.buffer_budget = 64 << 20;
            let mut sys = System::new(cfg);
            let movies: Vec<_> = (0..streams)
                .map(|i| sys.record_movie(&format!("p{i}"), StreamProfile::mpeg1(), 14.0))
                .collect();
            let players = admit_until_refused(&mut sys, &movies);
            let start = start_all(&mut sys, &players, Duration::ZERO);
            sys.run_until(start + Duration::from_secs(10));
            bound_ok(
                &sys,
                &format!("striped case {case} v={volumes} s={streams}"),
            );
        }

        // One failed volume: mirrored placement, primary dies mid-run,
        // reads remap to the surviving replica (which admission charged
        // in full), so the bound must survive the failover.
        let mut cfg = SysConfig::default();
        cfg.seed = 0xFA11;
        cfg.server.volumes = 4;
        cfg.server.placement = PlacementPolicy::Mirrored;
        cfg.server.buffer_budget = 64 << 20;
        let mut sys = System::new(cfg);
        let movies: Vec<_> = (0..4)
            .map(|i| sys.record_movie(&format!("f{i}"), StreamProfile::mpeg1(), 16.0))
            .collect();
        let players: Vec<_> = movies
            .iter()
            .map(|m| sys.add_cras_player(m, 1).unwrap())
            .collect();
        let start = start_all(&mut sys, &players, Duration::ZERO);
        sys.run_until(start + Duration::from_secs(4));
        let victim = match sys.placement("f0") {
            Some(MoviePlacement::Mirrored { primary, .. }) => *primary,
            other => panic!("movie 0 is not mirrored: {other:?}"),
        };
        sys.fail_volume(victim);
        sys.run_until(start + Duration::from_secs(12));
        assert!(sys.metrics.degraded_intervals > 0, "mirror never served");
        bound_ok(&sys, "failed volume");

        // Cache-served followers: a trailing stream fed from the
        // interval cache issues no disk reads, so it must not widen any
        // wall span.
        let mut cfg = SysConfig::default();
        cfg.seed = 0xCAC0;
        cfg.server.volumes = 2;
        cfg.server.placement = PlacementPolicy::Striped {
            stripe_bytes: 256 * 1024,
        };
        cfg.server.buffer_budget = 64 << 20;
        cfg.server.cache_budget = 32 << 20;
        cfg.server.max_cache_gap = Duration::from_secs(10);
        let mut sys = System::new(cfg);
        let movie = sys.record_movie("shared", StreamProfile::mpeg1(), 16.0);
        arrive(&mut sys, &movie).expect("leader admitted");
        sys.run_for(Duration::from_secs(3));
        arrive(&mut sys, &movie).expect("follower admitted");
        sys.run_for(Duration::from_secs(10));
        assert!(
            sys.metrics.cache_served_stream_intervals > 0,
            "follower never served from cache"
        );
        bound_ok(&sys, "cache follower");
    }

    #[test]
    fn zero_cache_budget_admission_is_mode_independent() {
        // Acceptance guard: at cache budget 0 (the default
        // [`ServerConfig`]), switching issue modes changes nothing about
        // who gets admitted.
        assert_eq!(ServerConfig::default().cache_budget, 0);
        let admitted = |mode: IssueMode| {
            let mut cfg = SysConfig::default();
            cfg.seed = 0xAD01;
            cfg.server.volumes = 4;
            cfg.server.placement = PlacementPolicy::Striped {
                stripe_bytes: 256 * 1024,
            };
            cfg.server.buffer_budget = 64 << 20;
            let mut sys = System::new(cfg);
            sys.set_issue_mode(mode);
            let movies: Vec<_> = (0..40)
                .map(|i| sys.record_movie(&format!("a{i}"), StreamProfile::mpeg1(), 6.0))
                .collect();
            movies
                .iter()
                .filter(|m| sys.add_cras_player(m, 1).is_ok())
                .count()
        };
        let p = admitted(IssueMode::Pipelined);
        let s = admitted(IssueMode::SerialVolumes);
        assert!(p > 0);
        assert_eq!(p, s, "issue mode leaked into admission");
    }

    #[test]
    fn overlap_sweep_is_deterministic() {
        let run = || sweep(&[4], 2, Duration::from_secs(8), 0x0E0E).2;
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
