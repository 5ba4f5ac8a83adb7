//! Interval-cache experiment: Zipf-popular titles, staggered starts,
//! trailing streams served from memory.
//!
//! The scenario the cache exists for: a small catalog where a few
//! titles draw most of the audience, and viewers of the same title
//! arrive seconds apart. Without the cache every admitted stream costs
//! spindle time and the disk bound caps the house; with it, a stream
//! that trails another viewing of the same movie within the configured
//! gap is fed from the leader's just-read window and admitted against
//! the cache memory budget instead. The sweep runs the identical
//! arrival sequence at several cache budgets: budget 0 must reproduce
//! the uncached baseline bit-for-bit, and a real budget must admit
//! strictly more streams at the same disk configuration with zero
//! drops.

use cras_cluster::{zipf_cdf, zipf_rank};
use cras_media::StreamProfile;
use cras_sim::{Duration, Rng};
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};
use crate::runner::{arrive, frames_dropped};

/// Outcome of one cache-budget run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Cache budget in bytes.
    pub budget: u64,
    /// Streams requested (arrival attempts).
    pub requested: usize,
    /// Streams the (disk or cache) admission accepted.
    pub admitted: usize,
    /// Streams admitted against the cache budget, not the disk bound.
    pub cache_admitted: u64,
    /// Trailing candidates the cache budget could not cover.
    pub cache_rejected: u64,
    /// Stream-intervals fed from cache instead of disk.
    pub cache_served_intervals: u64,
    /// Bytes served to followers from cache frames.
    pub hit_bytes: u64,
    /// Bytes a follower wanted but the cache no longer held.
    pub miss_bytes: u64,
    /// Frames dropped by admitted players (must stay 0).
    pub dropped: u64,
    /// Deadline warnings from the server (must stay 0).
    pub overruns: u64,
}

/// Runs the identical Zipf arrival sequence at each cache budget:
/// `requested` viewers arrive `stagger` apart over a `titles`-title
/// catalog on one spindle, then play on for `measure`.
pub fn sweep(
    budgets: &[u64],
    requested: usize,
    titles: usize,
    stagger: Duration,
    measure: Duration,
    seed: u64,
) -> (KvTable, Figure, Vec<CacheOutcome>) {
    assert!(titles >= 1 && requested >= 1);
    // Zipf(0.9) over the catalog, hot titles first.
    let cdf = zipf_cdf(titles, 0.9);
    let movie_secs = stagger.as_secs_f64() * requested as f64 + measure.as_secs_f64() + 8.0;

    let mut out = Vec::new();
    for &budget in budgets {
        let mut cfg = SysConfig::default();
        cfg.seed = seed;
        cfg.server.volumes = 1;
        cfg.server.buffer_budget = 64 << 20;
        cfg.server.cache_budget = budget;
        let mut sys = System::new(cfg);
        let movies: Vec<_> = (0..titles)
            .map(|t| sys.record_movie(&format!("hot{t}.mov"), StreamProfile::mpeg1(), movie_secs))
            .collect();
        // The arrival sequence is a pure function of the seed, so every
        // budget sees the same viewers in the same order.
        let mut arrivals = Rng::new(seed ^ 0x21FF);
        let mut players = Vec::new();
        for _ in 0..requested {
            let title = zipf_rank(&cdf, arrivals.f64_range(0.0, 1.0));
            // A rejected viewer walks away; later viewers of a popular
            // title can still trail a running stream into the cache.
            players.extend(arrive(&mut sys, &movies[title]));
            sys.run_for(stagger);
        }
        sys.run_for(measure);
        let dropped = frames_dropped(&sys);
        let stats = *sys.cras.cache().stats();
        out.push(CacheOutcome {
            budget,
            requested,
            admitted: players.len(),
            cache_admitted: stats.cache_admitted_streams,
            cache_rejected: stats.cache_rejected_streams,
            cache_served_intervals: sys.metrics.cache_served_stream_intervals,
            hit_bytes: stats.hit_bytes,
            miss_bytes: stats.miss_bytes,
            dropped,
            overruns: sys.metrics.overruns,
        });
    }
    let mut t = KvTable::new(
        "cache_sharing",
        &format!("Interval cache: {requested} Zipf arrivals over {titles} titles, one spindle"),
    );
    for o in &out {
        t.row(
            &format!("budget={}MB", o.budget >> 20),
            format!(
                "admitted={} cache_admitted={} cache_rejected={} served_ivals={} \
                 hit={:.1}MB miss={:.1}MB drops={} warnings={}",
                o.admitted,
                o.cache_admitted,
                o.cache_rejected,
                o.cache_served_intervals,
                o.hit_bytes as f64 / (1024.0 * 1024.0),
                o.miss_bytes as f64 / (1024.0 * 1024.0),
                o.dropped,
                o.overruns
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "cache_sharing",
        "Admitted streams vs cache budget",
        "cache budget (MB)",
        "streams",
    );
    for o in &out {
        let mb = (o.budget >> 20) as f64;
        f.series_mut("admitted").push(mb, o.admitted as f64);
        f.series_mut("cache-admitted")
            .push(mb, o.cache_admitted as f64);
    }
    (t, f, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn cache_budget_beats_no_cache_baseline() {
        let (_t, _f, outs) = sweep(
            &[0, 64 << 20],
            24,
            10,
            Duration::from_millis(1500),
            secs(10),
            0xCA5E,
        );
        let (base, cached) = (&outs[0], &outs[1]);
        // The uncached run is the disk-bound baseline.
        assert_eq!(base.cache_admitted, 0);
        assert_eq!(base.hit_bytes, 0);
        assert!(base.admitted < base.requested, "disk bound never hit");
        // The cache admits strictly more viewers at the same disk
        // configuration, and nobody pays for it in deadlines.
        assert!(
            cached.admitted > base.admitted,
            "baseline {base:?} vs cached {cached:?}"
        );
        assert!(cached.cache_admitted > 0, "{cached:?}");
        assert!(cached.hit_bytes > 0, "{cached:?}");
        for o in &outs {
            assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
            assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
        }
    }

    #[test]
    fn admitted_streams_monotone_in_cache_budget() {
        let (_t, _f, outs) = sweep(
            &[0, 16 << 20, 32 << 20, 64 << 20],
            24,
            10,
            Duration::from_millis(1500),
            secs(8),
            0xCA5F,
        );
        for w in outs.windows(2) {
            assert!(
                w[1].admitted >= w[0].admitted && w[1].cache_admitted >= w[0].cache_admitted,
                "not monotone: {outs:?}"
            );
        }
    }

    #[test]
    fn cache_sharing_is_deterministic() {
        let run = || {
            sweep(
                &[0, 32 << 20],
                12,
                6,
                Duration::from_millis(1500),
                secs(6),
                0xCA60,
            )
            .2
        };
        assert_eq!(run(), run(), "same seed must reproduce bit-for-bit");
    }
}
