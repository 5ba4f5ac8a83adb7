//! Catalog-scaling experiment (DESIGN §16): viewers grow, spindles
//! don't.
//!
//! A fixed two-shard, four-spindle cluster serves a Zipf(1) catalog
//! while the total viewer count is swept over three orders of
//! magnitude at a fixed arrival rate. Every §16 mechanism is on:
//! prefix residency keeps the first seconds of the hot set pinned in
//! memory (new viewers of a hot title are admitted *deferred*, holding
//! zero disk shares until their prefix drains), batched joins coalesce
//! near-simultaneous same-title opens onto one leader's read stream,
//! interval-cache chaining picks up drained prefixes, the gateway
//! routes same-title opens to the replica already holding the prefix,
//! and rejected opens wait in the gateway retry queue instead of
//! bouncing.
//!
//! The claim being demonstrated: **admitted viewers grow with the
//! sweep while the peak number of streams holding disk reservations
//! stays pinned near the fixed spindle bound** — the bound is measured
//! by a cold-title calibration run on one shard, and each sweep point
//! reports the peak disk-charged count so the flat line is data, not
//! assertion. Dropped frames must stay zero throughout: memory-served
//! viewers get the same guarantee as disk-served ones.
//!
//! Viewers watch a whole title and leave (`crs_close`), so the
//! steady-state concurrency is set by the arrival rate and title
//! length, not the sweep size — exactly the regime where a
//! popularity-aware cache turns a spindle-bound server into a
//! memory-bound one.

use std::collections::BTreeSet;

use cras_cluster::{Cluster, ClusterConfig, RetryStats};
use cras_core::EvictPolicy;
use cras_media::StreamProfile;
use cras_sim::Duration;
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};
use crate::runner::{count_admitted, title_name, zipf_arrivals, ZIPF_THETA};

/// How long a rejected open waits in the gateway retry queue.
const RETRY_WINDOW: Duration = Duration::from_secs(2);

/// Fixed experiment shape; the total viewer count is swept separately.
#[derive(Clone, Copy, Debug)]
pub struct CatalogParams {
    /// Number of shards (each a complete system).
    pub shards: usize,
    /// Volumes (spindles) per shard — fixed across the sweep.
    pub volumes: usize,
    /// Catalog size (titles are ranked 0 = hottest).
    pub titles: usize,
    /// Length of every title in media seconds; viewers watch it whole
    /// and then leave.
    pub title_secs: f64,
    /// Gap between viewer arrivals (fixed rate: sweeping the viewer
    /// count stretches the run, it does not raise concurrency).
    pub stagger: Duration,
    /// Run time after the last arrival.
    pub measure: Duration,
    /// Prefix-residency window pinned for each hot title.
    pub prefix_secs: Duration,
    /// Hot-set size for prefix residency (and gateway replication).
    pub hot_set: usize,
    /// Batched-join window for near-simultaneous same-title opens.
    pub join_window: Duration,
    /// Base seed for arrivals and per-shard systems.
    pub seed: u64,
}

impl CatalogParams {
    /// The headline shape: 2 shards × 2 volumes, a 64-title catalog of
    /// 60 s features, one arrival every 50 ms.
    pub fn standard() -> CatalogParams {
        CatalogParams {
            shards: 2,
            volumes: 2,
            titles: 64,
            title_secs: 60.0,
            stagger: Duration::from_millis(50),
            measure: Duration::from_secs(20),
            prefix_secs: Duration::from_secs(20),
            hot_set: 16,
            join_window: Duration::from_secs(1),
            seed: 0xCA7A,
        }
    }
}

/// Outcome of one sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogOutcome {
    /// Viewers that arrived.
    pub requested: usize,
    /// Viewers that got a stream (immediately or via the retry queue).
    pub admitted: usize,
    /// Viewers turned away (instant rejection with queueing off, or a
    /// queued open that expired/purged).
    pub rejected: usize,
    /// Peak, over arrival-time samples, of streams holding disk
    /// reservations across live shards — the spindle-bound quantity
    /// ([`spindle_bound`] is the fixed bound it must respect).
    pub peak_disk_streams: usize,
    /// Streams admitted deferred against a resident prefix.
    pub prefix_admitted: u64,
    /// Deferred streams whose prefix drained (each then re-entered
    /// admission for a disk share or a cache window).
    pub deferred_drained: u64,
    /// Streams that coalesced onto a leader via a batched join.
    pub joined: u64,
    /// Streams admitted against cache windows (interval chaining).
    pub cache_admitted: u64,
    /// Gateway retry-queue counters (including parked-viewer resumes).
    pub retry: RetryStats,
    /// Viewers still parked (paused, waiting for a retry sweep to win
    /// them a feed) when the run ended. These hold no reservations and
    /// drop no frames; a nonzero count means the sweep ended mid-storm.
    pub stalled: usize,
    /// Distinct titles actually requested.
    pub distinct_titles: usize,
    /// Frames shown by all sessions, departed ones included.
    pub frames_shown: u64,
    /// Frames dropped by all sessions (must stay 0).
    pub dropped: u64,
    /// Deadline warnings across shards.
    pub overruns: u64,
}

/// The per-shard configuration: every DESIGN §16 mechanism on, viewer
/// decode modeled as a cheap copy-out to remote set-tops.
fn system_config(p: &CatalogParams) -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = p.seed;
    cfg.server.volumes = p.volumes;
    // Memory-served viewers still hold interval buffers, so the host
    // budget — not the spindles — is what bounds concurrency.
    cfg.server.buffer_budget = 1 << 30;
    cfg.server.cache_budget = 512 << 20;
    cfg.server.max_cache_gap = Duration::from_secs(30);
    cfg.server.prefix_secs = p.prefix_secs;
    cfg.server.hot_set = p.hot_set;
    cfg.server.join_window = p.join_window;
    cfg.server.cache_evict = EvictPolicy::FollowersPerByte;
    // Remote set-tops: the shard ships frames onto the wire instead of
    // software-decoding them (see cluster_scaling for the arithmetic).
    cfg.costs.decode = Duration::from_micros(5);
    cfg
}

/// Measures the fixed spindle bound: how many cold distinct titles one
/// shard admits to disk before the admission test refuses, times the
/// shard count. Cold titles never share windows or prefixes, so this
/// is the pure per-spindle capacity of the sweep's hardware.
pub fn spindle_bound(p: &CatalogParams) -> usize {
    let mut sys = System::new(system_config(p));
    let n = count_admitted(&mut sys, 10_000, p.title_secs, |i| format!("cal{i:04}.mov"));
    assert!(n < 10_000, "calibration never hit the admission bound");
    n * p.shards
}

/// Closes every session whose player finished the title, folding its
/// frame counters into the running totals. Returns how many left.
fn depart_finished(cl: &mut Cluster, shown: &mut u64, dropped: &mut u64) -> usize {
    let finished: Vec<_> = cl
        .sessions()
        .filter(|(_, s)| !s.lost && !s.queued)
        .filter(|(_, s)| {
            cl.shards()[s.shard as usize]
                .sys
                .players
                .get(&s.client.0)
                .is_some_and(|pl| pl.done)
        })
        .map(|(sid, _)| sid)
        .collect();
    for sid in &finished {
        if let Some(st) = cl.session_stats(*sid) {
            *shown += st.frames_shown;
            *dropped += st.frames_dropped;
        }
        cl.close(*sid);
    }
    finished.len()
}

/// Runs one sweep point. Returns the outcome and the per-shard
/// canonical metrics (the deterministic-replay unit).
pub fn run_one(p: &CatalogParams, requested: usize) -> (CatalogOutcome, Vec<String>) {
    let ranks = zipf_arrivals(p.titles, p.seed, requested);
    let distinct: BTreeSet<usize> = ranks.iter().copied().collect();
    let profile = StreamProfile::mpeg1();

    let mut ccfg = ClusterConfig::new(p.shards, system_config(p));
    ccfg.replicas = 2.min(p.shards);
    ccfg.hot_titles = p.hot_set;
    ccfg.retry_window = RETRY_WINDOW;
    let mut cl = Cluster::new(ccfg);
    for &rank in &distinct {
        cl.add_title(&title_name(rank), &profile, p.title_secs, rank);
    }

    let mut opened_ok = 0usize;
    let mut refused = 0usize;
    let mut peak_disk = 0usize;
    let mut shown = 0u64;
    let mut dropped = 0u64;
    for &rank in &ranks {
        depart_finished(&mut cl, &mut shown, &mut dropped);
        match cl.open(&title_name(rank)) {
            Ok(_) => opened_ok += 1,
            Err(_) => refused += 1,
        }
        let disk_now: usize = cl
            .shards()
            .iter()
            .filter(|s| s.is_alive())
            .map(|s| s.sys.cras.disk_charged_streams())
            .sum();
        peak_disk = peak_disk.max(disk_now);
        cl.run_for(p.stagger);
    }
    cl.run_for(p.measure);
    depart_finished(&mut cl, &mut shown, &mut dropped);
    shown += cl.live_frames_shown();
    dropped += cl.live_frames_dropped();

    let retry = cl.retry_stats();
    let still_queued = cl.pending_opens();
    let expired = (retry.expired + retry.purged) as usize;
    let admitted = opened_ok - expired - still_queued;
    let (mut prefix_admitted, mut deferred_drained, mut joined, mut cache_admitted) =
        (0u64, 0u64, 0u64, 0u64);
    for sh in cl.shards().iter().filter(|s| s.is_alive()) {
        let st = sh.sys.cras.cache().stats();
        prefix_admitted += st.prefix_admitted_streams;
        deferred_drained += st.deferred_drained_streams;
        joined += st.joined_streams;
        cache_admitted += st.cache_admitted_streams;
    }
    let stalled: usize = cl
        .shards()
        .iter()
        .filter(|s| s.is_alive())
        .map(|s| {
            s.sys
                .players
                .values()
                .filter(|pl| pl.paused && !pl.done)
                .count()
        })
        .sum();
    let overruns: u64 = cl.shards().iter().map(|s| s.sys.metrics.overruns).sum();
    let canon = cl.canonical_metrics();
    let outcome = CatalogOutcome {
        requested,
        admitted,
        rejected: refused + expired + still_queued,
        peak_disk_streams: peak_disk,
        prefix_admitted,
        deferred_drained,
        joined,
        cache_admitted,
        retry,
        stalled,
        distinct_titles: distinct.len(),
        frames_shown: shown,
        dropped,
        overruns,
    };
    (outcome, canon)
}

/// The sweep shape the bench harness runs: the headline parameters and
/// a 10→10k viewer sweep in full mode, a trimmed catalog over a
/// two-point sweep for `--quick` smoke runs.
pub fn bench_shape(quick: bool) -> (CatalogParams, Vec<usize>) {
    if quick {
        let mut p = CatalogParams::standard();
        p.titles = 24;
        p.title_secs = 20.0;
        p.stagger = Duration::from_millis(250);
        p.measure = Duration::from_secs(10);
        p.prefix_secs = Duration::from_secs(8);
        p.hot_set = 8;
        (p, vec![20, 120])
    } else {
        (CatalogParams::standard(), vec![10, 100, 1000, 10000])
    }
}

/// Hand-rolled JSON payload for the committed
/// `BENCH_catalog_scaling.json` artifact (the repo takes no serde
/// dependency): the measured spindle bound plus one object per sweep
/// point.
pub fn points_json(bound: usize, outs: &[CatalogOutcome]) -> String {
    let mut json = format!("{{\"spindle_bound\":{bound},\"points\":[");
    for (i, o) in outs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"viewers\":{},\"admitted\":{},\"rejected\":{},\"peak_disk_streams\":{},\
             \"prefix_admitted\":{},\"joined\":{},\"cache_admitted\":{},\
             \"deferred_drained\":{},\"retry_admitted\":{},\"resumed\":{},\
             \"stalled\":{},\"frames_shown\":{},\
             \"dropped\":{},\"overruns\":{}}}",
            o.requested,
            o.admitted,
            o.rejected,
            o.peak_disk_streams,
            o.prefix_admitted,
            o.joined,
            o.cache_admitted,
            o.deferred_drained,
            o.retry.admitted,
            o.retry.resumed,
            o.stalled,
            o.frames_shown,
            o.dropped,
            o.overruns
        ));
    }
    json.push_str("]}");
    json
}

/// Sweeps the viewer count over the fixed hardware shape. Returns the
/// table, the figure, the [`spindle_bound`] (calibrated once for the
/// whole sweep) and one outcome per viewer count.
pub fn sweep(
    p: &CatalogParams,
    viewer_counts: &[usize],
) -> (KvTable, Figure, usize, Vec<CatalogOutcome>) {
    let bound = spindle_bound(p);
    let outs: Vec<CatalogOutcome> = viewer_counts.iter().map(|&n| run_one(p, n).0).collect();
    let mut t = KvTable::new(
        "catalog_scaling",
        &format!(
            "{} shards x {} volumes fixed, {}-title Zipf({ZIPF_THETA}) catalog, \
             prefix residency + batched joins + retry queue on",
            p.shards, p.volumes, p.titles
        ),
    );
    for o in &outs {
        t.row(
            &format!("viewers={}", o.requested),
            format!(
                "admitted={} rejected={} peak_disk={} bound={} prefix={} \
                 joined={} cache={} drained={} queued={} retried={} \
                 resumed={} stalled={} drops={} warnings={}",
                o.admitted,
                o.rejected,
                o.peak_disk_streams,
                bound,
                o.prefix_admitted,
                o.joined,
                o.cache_admitted,
                o.deferred_drained,
                o.retry.queued,
                o.retry.admitted,
                o.retry.resumed,
                o.stalled,
                o.dropped,
                o.overruns
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "catalog_scaling",
        "Admitted viewers vs peak disk-charged streams on fixed spindles",
        "viewers requested",
        "streams",
    );
    for o in &outs {
        let x = o.requested as f64;
        f.series_mut("admitted-viewers").push(x, o.admitted as f64);
        f.series_mut("peak-disk-streams")
            .push(x, o.peak_disk_streams as f64);
        f.series_mut("spindle-bound").push(x, bound as f64);
    }
    (t, f, bound, outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small shape that keeps the debug-mode test quick.
    fn small() -> CatalogParams {
        CatalogParams {
            shards: 2,
            volumes: 2,
            titles: 16,
            title_secs: 16.0,
            stagger: Duration::from_millis(400),
            measure: Duration::from_secs(8),
            prefix_secs: Duration::from_secs(6),
            hot_set: 8,
            join_window: Duration::from_secs(1),
            seed: 0xCA7B,
        }
    }

    #[test]
    fn viewers_ride_memory_disk_stays_bounded() {
        let p = small();
        let (o, _) = run_one(&p, 60);
        let bound = spindle_bound(&p);
        assert!(o.admitted as f64 >= 0.9 * o.requested as f64, "{o:?}");
        assert!(
            o.peak_disk_streams as f64 <= 1.2 * bound as f64,
            "disk streams past the spindle bound {bound}: {o:?}"
        );
        // The §16 mechanisms actually carried load.
        assert!(
            o.prefix_admitted + o.joined + o.cache_admitted > 0,
            "no memory-served streams: {o:?}"
        );
        assert!(o.frames_shown > 0, "{o:?}");
        assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
    }

    #[test]
    fn replay_is_byte_identical_per_shard() {
        let p = small();
        let a = run_one(&p, 40);
        let b = run_one(&p, 40);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "per-shard canonical metrics diverged");
    }
}
