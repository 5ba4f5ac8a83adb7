//! Cluster-scaling experiment: a sharded gateway serving a 1000-title
//! Zipf catalog through a mid-run whole-shard kill.
//!
//! The single-server experiments cap out at the spindle bound (14
//! streams per volume, 56 on a 4-volume shard) plus whatever the
//! interval cache chains on top. This experiment shards the catalog
//! over N independent systems behind the `cras-cluster` gateway:
//! consistent hashing spreads titles, the hot head of the Zipf
//! distribution is replicated to two shards, and every open routes to
//! the least-loaded live replica. Mid-run, one whole shard (the busiest
//! one) is killed; sessions for replicated titles are re-admitted on
//! the survivors, which keep serving with zero dropped frames.
//!
//! Two yardsticks are reported, both measured, because they answer
//! different questions:
//!
//! * `scale_vs_baseline_run` — versus a real one-shard run given the
//!   same arrival sequence. One shard cannot even *hold* the catalog
//!   (~300 distinct requested titles at ~34 MB outstrip a 4-volume
//!   shard's ~8.8 GB), so its admission is capped by storage and the
//!   spindle bound together.
//! * `scale_vs_baseline_disk` — versus the baseline's disk-admitted
//!   count (admissions holding spindle reservations, the paper's
//!   notion of server capacity). The acceptance bar — the cluster
//!   serves at least 8× one shard's disk-admitted viewers — is
//!   measured against this yardstick: sharding contributes ~4× and
//!   Zipf-concentrated cache chaining the rest.

use std::collections::{BTreeMap, BTreeSet};

use cras_cluster::{zipf_cdf, zipf_rank, Cluster, ClusterConfig, FailoverReport, Stepping};
use cras_disk::DiskGeometry;
use cras_media::StreamProfile;
use cras_sim::{Duration, Rng};
use cras_sys::{SysConfig, System};

use crate::result::{Figure, KvTable};

/// Catalog ranks that count as hot and get replicated to two shards.
const HOT_TITLES: usize = 32;

/// Zipf exponent of the request distribution.
const THETA: f64 = 1.0;

/// Fraction of raw volume capacity the baseline dares to fill (block
/// and inode metadata take the rest).
const FILL: f64 = 0.90;

/// Per-title filesystem overhead allowance on top of media bytes.
const OVERHEAD: f64 = 1.05;

/// Per-shard stream ceiling the gateway enforces. At 100 us/frame of
/// per-stream consumption cost plus the 40 us/stream scheduler charge,
/// a shard's CPU saturates near 1 / (30 fps x 100 us + 40 us) ≈ 320
/// streams; past that the request scheduler starves and every stream
/// degrades at once. 180 leaves the disk, cache and control planes
/// comfortable headroom.
const STREAM_CAP: usize = 180;

/// Fixed experiment shape; the viewer count is swept separately.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Number of shards.
    pub shards: usize,
    /// Volumes per shard.
    pub volumes: usize,
    /// Catalog size (titles are ranked 0 = hottest).
    pub titles: usize,
    /// Gap between viewer arrivals.
    pub stagger: Duration,
    /// Run time after the last arrival.
    pub measure: Duration,
    /// Base seed: arrivals, per-shard systems and placement all derive
    /// from it.
    pub seed: u64,
    /// Shard groups on every core (the default) or the serial
    /// lockstep reference.
    pub stepping: Stepping,
}

impl ClusterParams {
    /// The headline configuration: 4 shards × 4 volumes over a
    /// 1000-title catalog.
    pub fn standard() -> ClusterParams {
        ClusterParams {
            shards: 4,
            volumes: 4,
            titles: 1000,
            stagger: Duration::from_millis(150),
            measure: Duration::from_secs(60),
            seed: 0x5CA1E,
            stepping: Stepping::Parallel,
        }
    }
}

/// Outcome of one viewer-count run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterOutcome {
    /// Viewers that arrived.
    pub requested: usize,
    /// Opens the gateway admitted somewhere.
    pub admitted: usize,
    /// Opens refused (admission full on every live replica, or every
    /// replica dead).
    pub rejected: usize,
    /// Sessions still served by live shards at the end (admitted minus
    /// those lost to the shard kill).
    pub served: usize,
    /// Distinct titles actually requested.
    pub distinct_titles: usize,
    /// Streams admitted against cache budgets on the surviving shards.
    pub cache_admitted: u64,
    /// Sessions the kill moved to a surviving replica.
    pub rerouted: usize,
    /// Sessions lost to the kill (unreplicated title, or survivors
    /// full).
    pub lost: usize,
    /// What the kill did, in full.
    pub failover: FailoverReport,
    /// Frames shown by live sessions (sanity: survivors kept playing).
    pub frames_shown: u64,
    /// Frames dropped by live sessions (must stay 0 through the kill).
    pub dropped: u64,
    /// Deadline warnings on live shards (must stay 0).
    pub overruns: u64,
    /// Observed request share of the 32 hottest titles.
    pub head_share_observed: f64,
    /// One-shard baseline: admitted viewers (same arrivals, same cache).
    pub baseline_admitted: usize,
    /// One-shard baseline: admissions holding disk reservations.
    pub baseline_disk_admitted: usize,
    /// Titles the one-shard baseline could store before running out of
    /// volume capacity.
    pub baseline_titles_held: usize,
    /// `served / baseline_disk_admitted` — the acceptance yardstick.
    pub scale_vs_baseline_disk: f64,
    /// `served / baseline_admitted` — versus the full one-shard run.
    pub scale_vs_baseline_run: f64,
}

/// The per-shard system configuration both the cluster and the
/// baseline use.
fn shard_config(p: &ClusterParams) -> SysConfig {
    let mut cfg = SysConfig::default();
    cfg.seed = p.seed;
    cfg.server.volumes = p.volumes;
    cfg.server.buffer_budget = 64 << 20;
    // The cache is what lets a shard serve more viewers than spindles:
    // repeat viewers of a hot title chain off each other's windows. The
    // 30 s gap covers the arrival spacing of the Zipf head; the budget
    // bounds the chained reservations.
    cfg.server.cache_budget = 512 << 20;
    cfg.server.max_cache_gap = Duration::from_secs(30);
    // Cluster viewers are remote set-tops: a shard ships frames onto
    // the network, it does not software-decode them on its own CPU. The
    // default 500 us/frame models the paper's same-box QtPlay setup and
    // would saturate a shard's CPU near 66 streams, starving the
    // interval scheduler; a copy-out to the wire is far cheaper.
    cfg.costs.decode = Duration::from_micros(100);
    cfg
}

/// The arrival sequence: a pure function of the seed, so the cluster
/// run, the baseline run and every replay see identical viewers.
fn arrival_ranks(p: &ClusterParams, requested: usize) -> Vec<usize> {
    let cdf = zipf_cdf(p.titles, THETA);
    let mut rng = Rng::new(p.seed ^ 0x7A1F);
    (0..requested)
        .map(|_| zipf_rank(&cdf, rng.f64_range(0.0, 1.0)))
        .collect()
}

fn title_name(rank: usize) -> String {
    format!("t{rank:04}.mov")
}

/// Runs the cluster scenario at one viewer count and its one-shard
/// baseline. Returns the outcome and the per-shard canonical metrics
/// (the deterministic-replay unit).
pub fn run_one(p: &ClusterParams, requested: usize) -> (ClusterOutcome, Vec<String>) {
    let ranks = arrival_ranks(p, requested);
    let distinct: BTreeSet<usize> = ranks.iter().copied().collect();
    let movie_secs = p.stagger.as_secs_f64() * requested as f64 + p.measure.as_secs_f64() + 30.0;
    let profile = StreamProfile::mpeg1();

    // ----- cluster run ------------------------------------------------
    let mut ccfg = ClusterConfig::new(p.shards, shard_config(p));
    ccfg.replicas = 2.min(p.shards);
    ccfg.hot_titles = HOT_TITLES;
    ccfg.stream_cap = Some(STREAM_CAP);
    ccfg.stepping = p.stepping;
    let mut cl = Cluster::new(ccfg);
    for &rank in &distinct {
        cl.add_title(&title_name(rank), &profile, movie_secs, rank);
    }
    // The busiest shard dies after 60% of the arrivals: survivors must
    // absorb both the re-routed sessions and the remaining arrivals.
    let kill_at = requested * 3 / 5;
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    let mut failover = FailoverReport::default();
    for (i, &rank) in ranks.iter().enumerate() {
        if i == kill_at {
            let victim = busiest_shard(&cl);
            failover = cl.kill_shard(victim).expect("the busiest shard is live");
        }
        match cl.open(&title_name(rank)) {
            Ok(_) => admitted += 1,
            Err(_) => rejected += 1,
        }
        cl.run_for(p.stagger);
    }
    cl.run_for(p.measure);

    let served = cl.sessions().filter(|(_, s)| !s.lost).count();
    let rerouted = cl.sessions().filter(|(_, s)| s.rerouted).count();
    let lost = cl.sessions().filter(|(_, s)| s.lost).count();
    let cache_admitted: u64 = cl
        .shards()
        .iter()
        .filter(|s| s.is_alive())
        .map(|s| s.sys.cras.cache().stats().cache_admitted_streams)
        .sum();
    let overruns: u64 = cl
        .shards()
        .iter()
        .filter(|s| s.is_alive())
        .map(|s| s.sys.metrics.overruns)
        .sum();
    let head_share_observed = cl.popularity().observed_head_share(HOT_TITLES);
    let canon = cl.canonical_metrics();

    // ----- one-shard baseline -----------------------------------------
    // Same arrivals, same per-shard hardware and cache. The catalog is
    // recorded in rank order until the volumes are full; arrivals for
    // titles that did not fit walk away.
    let mut sys = System::new(shard_config(p));
    let capacity = DiskGeometry::st32550n().capacity_bytes() as f64 * p.volumes as f64 * FILL;
    let per_title = movie_secs * profile.rate * OVERHEAD;
    let mut stored = 0.0;
    let mut movies = BTreeMap::new();
    for &rank in &distinct {
        if stored + per_title > capacity {
            break;
        }
        stored += per_title;
        let m = sys.record_movie(&title_name(rank), profile, movie_secs);
        movies.insert(rank, m);
    }
    let baseline_titles_held = movies.len();
    let mut baseline_admitted = 0usize;
    for &rank in &ranks {
        if let Some(m) = movies.get(&rank) {
            if let Ok(c) = sys.add_cras_player(m, 1) {
                sys.start_playback(c);
                baseline_admitted += 1;
            }
        }
        sys.run_for(p.stagger);
    }
    sys.run_for(p.measure);
    let baseline_cache = sys.cras.cache().stats().cache_admitted_streams as usize;
    let baseline_disk_admitted = baseline_admitted.saturating_sub(baseline_cache);

    let outcome = ClusterOutcome {
        requested,
        admitted,
        rejected,
        served,
        distinct_titles: distinct.len(),
        cache_admitted,
        rerouted,
        lost,
        failover,
        frames_shown: cl.live_frames_shown(),
        dropped: cl.live_frames_dropped(),
        overruns,
        head_share_observed,
        baseline_admitted,
        baseline_disk_admitted,
        baseline_titles_held,
        scale_vs_baseline_disk: served as f64 / baseline_disk_admitted.max(1) as f64,
        scale_vs_baseline_run: served as f64 / baseline_admitted.max(1) as f64,
    };
    (outcome, canon)
}

/// The live shard serving the most sessions (ties to the lowest id) —
/// the worst-case victim for the kill.
fn busiest_shard(cl: &Cluster) -> u32 {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, s) in cl.sessions() {
        if !s.lost {
            *counts.entry(s.shard).or_insert(0) += 1;
        }
    }
    let mut best = cl
        .shards()
        .iter()
        .find(|s| s.is_alive())
        .map(|s| s.id)
        .unwrap_or(0);
    let mut best_count = 0;
    for (&shard, &count) in &counts {
        if count > best_count {
            best = shard;
            best_count = count;
        }
    }
    best
}

/// Sweeps the viewer count over the fixed cluster shape.
pub fn sweep(p: &ClusterParams, viewer_counts: &[usize]) -> (KvTable, Figure, Vec<ClusterOutcome>) {
    let outs: Vec<ClusterOutcome> = viewer_counts.iter().map(|&n| run_one(p, n).0).collect();
    let mut t = KvTable::new(
        "cluster_scaling",
        &format!(
            "{} shards x {} volumes, {}-title Zipf({THETA}) catalog, busiest shard killed mid-run",
            p.shards, p.volumes, p.titles
        ),
    );
    for o in &outs {
        t.row(
            &format!("viewers={}", o.requested),
            format!(
                "admitted={} served={} cache_admitted={} rerouted={} lost={} \
                 drops={} warnings={} baseline={} baseline_disk={} \
                 scale_disk={:.1}x scale_run={:.1}x",
                o.admitted,
                o.served,
                o.cache_admitted,
                o.rerouted,
                o.lost,
                o.dropped,
                o.overruns,
                o.baseline_admitted,
                o.baseline_disk_admitted,
                o.scale_vs_baseline_disk,
                o.scale_vs_baseline_run
            ),
            "",
        );
    }
    let mut f = Figure::new(
        "cluster_scaling",
        "Served viewers vs arrivals: cluster and one-shard baseline",
        "viewers requested",
        "viewers served",
    );
    for o in &outs {
        let x = o.requested as f64;
        f.series_mut("cluster-served").push(x, o.served as f64);
        f.series_mut("one-shard-admitted")
            .push(x, o.baseline_admitted as f64);
        f.series_mut("one-shard-disk-admitted")
            .push(x, o.baseline_disk_admitted as f64);
    }
    (t, f, outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small shape that keeps the debug-mode test quick: 3 shards of
    /// 2 volumes, a 60-title catalog.
    fn small() -> ClusterParams {
        ClusterParams {
            shards: 3,
            volumes: 2,
            titles: 60,
            stagger: Duration::from_millis(400),
            measure: Duration::from_secs(12),
            seed: 0x5CA1F,
            stepping: ClusterParams::standard().stepping,
        }
    }

    #[test]
    fn cluster_outscales_one_shard_and_survives_the_kill() {
        let (o, _) = run_one(&small(), 120);
        // The cluster serves more than one shard's disk bound, with the
        // kill absorbed: re-routed sessions exist, frames kept flowing,
        // and nobody on a live shard dropped a frame or missed a
        // deadline.
        assert!(o.admitted > 0 && o.served > 0, "{o:?}");
        assert!(
            o.served as f64 > 1.5 * o.baseline_disk_admitted as f64,
            "no scaling: {o:?}"
        );
        assert!(o.rerouted > 0, "kill moved nothing: {o:?}");
        assert_eq!(o.failover.rerouted, o.rerouted, "{o:?}");
        assert!(o.frames_shown > 0, "{o:?}");
        assert_eq!(o.dropped, 0, "dropped frames: {o:?}");
        assert_eq!(o.overruns, 0, "deadline warnings: {o:?}");
        // Zipf head concentration is what replication banks on.
        assert!(o.head_share_observed > 0.3, "{o:?}");
    }

    #[test]
    fn replay_is_byte_identical_per_shard() {
        let a = run_one(&small(), 60);
        let b = run_one(&small(), 60);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "per-shard canonical metrics diverged");
    }

    #[test]
    fn parallel_stepping_matches_lockstep() {
        let mut pp = small();
        assert_eq!(pp.stepping, Stepping::Parallel);
        let (a, ca) = run_one(&pp, 60);
        pp.stepping = Stepping::Lockstep;
        let (b, cb) = run_one(&pp, 60);
        assert_eq!(a, b);
        assert_eq!(ca, cb, "per-shard canonical metrics diverged");
    }
}
