//! Coded-read steering experiment (DESIGN §17): under rotating-parity
//! placement, a spindle loaded with non-real-time traffic can be
//! bypassed — the planner reads the row's other `g−1` units (siblings +
//! parity) and XORs the hot spindle's unit back instead of queueing
//! behind the noise.
//!
//! The experiment plays the same parity-placed movies twice with the
//! same seed: once with steering off (every read goes to its home
//! spindle) and once with steering on (the unified load signal — bytes
//! planned this interval, live outstanding queue depth, recent
//! completion lag — decides per run). Background `cat` readers are
//! pinned to one band volume so the load is *skewed*: only steering can
//! route around it. The contrast is the tail of the interval wall span
//! (issue to last completion); the invariant is that delivery is
//! untouched — the same frames and bytes reach every player in both
//! modes, and nothing is dropped.

use cras_core::PlacementPolicy;
use cras_disk::{FaultInjector, VolumeId};
use cras_media::StreamProfile;
use cras_sim::{Duration, Instant};
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};
use crate::runner::{admit_until_refused, frames_dropped, start_all};

/// Retry-stall profile of the hot spindle: about half its operations
/// pay a recalibration-style penalty. Together with the pinned `cat`
/// traffic this is what the unified load signal sees — queue depth from
/// the cats, completion lag from the stalls.
const STALL_PROB: f64 = 0.5;
const STALL_PENALTY: Duration = Duration::from_millis(50);

/// First post-start interval included in the span measurements (the
/// prefetch ramp issues double batches and would skew the tail).
const WARMUP_INTERVALS: u64 = 4;

/// Outcome of one run (one mode).
#[derive(Clone, Debug, PartialEq)]
pub struct SteeredOutcome {
    /// Whether coded-read steering was enabled.
    pub steer: bool,
    /// Streams requested.
    pub requested: usize,
    /// Streams the admission test accepted.
    pub admitted: usize,
    /// Frames dropped by the admitted players (must stay 0 in both
    /// modes — steering is an optimisation, not a correctness valve).
    pub dropped: u64,
    /// Deadline warnings from the server.
    pub overruns: u64,
    /// Reads lost (must stay 0: no volume ever fails here).
    pub lost_reads: u64,
    /// Intervals in which at least one stream was steered.
    pub steered_intervals: u64,
    /// Stream-intervals steered.
    pub steered_stream_intervals: u64,
    /// Completed post-warmup intervals measured.
    pub intervals: usize,
    /// Mean wall span (issue to last completion) of those intervals,
    /// seconds.
    pub mean_span: f64,
    /// 95th-percentile wall span, seconds — the acceptance metric:
    /// steering must cut this below the unsteered run.
    pub tail_span: f64,
    /// Per-player `(frames shown, bytes consumed)`, in player order —
    /// the delivery fingerprint that must be identical across modes.
    pub delivered: Vec<(u64, u64)>,
}

/// Runs one steering scenario: `requested` parity streams over
/// `volumes` volumes (one band, `group = volumes`), with `bg_readers`
/// flat-out 64 KB background readers pinned to the hot volume.
pub fn run_one(
    requested: usize,
    volumes: usize,
    bg_readers: usize,
    steer: bool,
    measure: Duration,
    seed: u64,
) -> SteeredOutcome {
    let mut cfg = SysConfig::default();
    cfg.seed = seed;
    cfg.server.volumes = volumes;
    cfg.server.placement = PlacementPolicy::Parity { group: volumes };
    cfg.server.buffer_budget = 64 << 20;
    cfg.server.steer_reads = steer;
    let mut sys = System::new(cfg);
    let movies: Vec<_> = (0..requested)
        .map(|i| {
            sys.record_movie(
                &format!("sr{i}.mov"),
                StreamProfile::mpeg1(),
                measure.as_secs_f64() + 8.0,
            )
        })
        .collect();
    // Skew one band volume: every `cat` pinned to it (queue depth), and
    // a retry-stall injector on its disk (completion lag). Row 0's
    // parity lands on volume 0 in this layout, so volume 1 is
    // data-heavy early on — the worst spindle to lose to noise.
    let hot = 1u32.min(volumes as u32 - 1);
    for i in 0..bg_readers {
        sys.add_bg_reader_on(hot, &format!("bg{i}"), 32 << 20, 1 << 20, Duration::ZERO);
    }
    sys.disks
        .volume_mut(VolumeId(hot))
        .set_fault_injector(Some(FaultInjector::new(
            STALL_PROB,
            STALL_PENALTY,
            seed ^ 0x57A11,
        )));
    let players = admit_until_refused(&mut sys, &movies);
    let admitted = players.len();
    // De-lockstep the identical movies so each interval's reads spread
    // over the band instead of marching on one stripe front.
    let start = start_all(&mut sys, &players, Duration::from_millis(300));
    sys.start_bg();
    sys.run_until(start + measure);

    let dropped = frames_dropped(&sys);
    let delivered = players
        .iter()
        .map(|c| {
            let s = &sys.players[&c.0].stats;
            (s.frames_shown, s.bytes_consumed)
        })
        .collect();
    let started_intervals =
        start.since(Instant::ZERO).as_nanos() / cfg.server.interval.as_nanos().max(1);
    let min_index = started_intervals + WARMUP_INTERVALS;
    let mut spans: Vec<f64> = sys
        .metrics
        .interval_walls()
        .iter()
        .filter(|w| w.index >= min_index)
        .filter_map(|w| w.span())
        .collect();
    spans.sort_by(f64::total_cmp);
    let n = spans.len();
    let mean = spans.iter().sum::<f64>() / (n as f64).max(1.0);
    let tail = if n == 0 {
        0.0
    } else {
        spans[((n - 1) as f64 * 0.95) as usize]
    };
    SteeredOutcome {
        steer,
        requested,
        admitted,
        dropped,
        overruns: sys.metrics.overruns,
        lost_reads: sys.metrics.lost_reads + sys.cras.stats().lost_reads,
        steered_intervals: sys.metrics.steered_intervals,
        steered_stream_intervals: sys.metrics.steered_stream_intervals,
        intervals: n,
        mean_span: mean,
        tail_span: tail,
        delivered,
    }
}

/// Runs the scenario with steering off then on (same seed, same
/// movies) and renders the contrast.
pub fn contrast(
    requested: usize,
    volumes: usize,
    bg_readers: usize,
    measure: Duration,
    seed: u64,
) -> (KvTable, Figure, Vec<SteeredOutcome>) {
    assert!(volumes >= 2, "steering needs at least two volumes");
    let out: Vec<SteeredOutcome> = [false, true]
        .iter()
        .map(|&steer| run_one(requested, volumes, bg_readers, steer, measure, seed))
        .collect();
    let mut t = KvTable::new(
        "steered_reads",
        &format!(
            "Coded-read steering around a hot spindle \
             ({volumes} volumes, group {volumes}, {bg_readers} cats on one volume)"
        ),
    );
    for o in &out {
        t.row(
            if o.steer { "steered" } else { "direct" },
            format!(
                "admitted={} drops={} warnings={} lost={} steered_ivals={} \
                 steered_stream_ivals={} intervals={} span mean={:.1}ms p95={:.1}ms",
                o.admitted,
                o.dropped,
                o.overruns,
                o.lost_reads,
                o.steered_intervals,
                o.steered_stream_intervals,
                o.intervals,
                o.mean_span * 1e3,
                o.tail_span * 1e3,
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "steered_reads",
        "Interval wall span with and without coded-read steering",
        "mode (0 = direct, 1 = steered)",
        "span (s)",
    );
    for o in &out {
        let x = f64::from(u8::from(o.steer));
        f.series_mut("mean span").push(x, o.mean_span);
        f.series_mut("p95 span").push(x, o.tail_span);
    }
    (t, f, out)
}

/// Hand-rolled JSON for the `BENCH_steered_reads` trajectory artifact:
/// one object per mode with the span and delivery aggregates.
pub fn points_json(outs: &[SteeredOutcome]) -> String {
    let mut s = String::from("{\"points\":[");
    for (i, o) in outs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (frames, bytes) = o
            .delivered
            .iter()
            .fold((0u64, 0u64), |(f, b), (df, db)| (f + df, b + db));
        s.push_str(&format!(
            "{{\"steer\":{},\"admitted\":{},\"dropped\":{},\"lost\":{},\
             \"steered_stream_intervals\":{},\"intervals\":{},\
             \"mean_span\":{:.6},\"tail_span\":{:.6},\
             \"frames\":{frames},\"bytes\":{bytes}}}",
            o.steer,
            o.admitted,
            o.dropped,
            o.lost_reads,
            o.steered_stream_intervals,
            o.intervals,
            o.mean_span,
            o.tail_span,
        ));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_cuts_the_tail_without_changing_delivery() {
        let (_t, _f, outs) = contrast(4, 4, 3, Duration::from_secs(10), 0x57E);
        let [direct, steered] = outs.as_slice() else {
            panic!("expected two outcomes, got {outs:?}");
        };
        assert!(!direct.steer && steered.steer);
        for o in [direct, steered] {
            assert_eq!(o.admitted, o.requested, "admission rejected: {o:?}");
            assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
            assert_eq!(o.lost_reads, 0, "reads lost with no failure: {o:?}");
            assert!(o.intervals >= 10, "too few measured intervals: {o:?}");
        }
        assert_eq!(
            direct.steered_stream_intervals, 0,
            "steering off must never steer: {direct:?}"
        );
        assert!(
            steered.steered_stream_intervals > 0,
            "hot spindle never bypassed: {steered:?}"
        );
        assert!(
            steered.tail_span < direct.tail_span,
            "steered p95 {:.4}s not below direct {:.4}s",
            steered.tail_span,
            direct.tail_span
        );
        // The whole point: routing changed, delivery did not.
        assert_eq!(
            direct.delivered, steered.delivered,
            "steering altered delivered frames/bytes"
        );
    }

    #[test]
    fn steered_reads_is_deterministic() {
        let run = || run_one(2, 4, 2, true, Duration::from_secs(8), 0x57E2);
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
