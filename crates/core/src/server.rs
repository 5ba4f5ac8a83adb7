//! The CRAS server: open/close, the periodic request scheduler, and the
//! I/O-done path.
//!
//! The paper's five threads map onto this state machine as follows; the
//! orchestrator (`cras-sys`) gives each its CPU time and routes events:
//!
//! * **request manager** — [`CrasServer::open`] / [`CrasServer::close`]
//!   (admission test, buffer sizing; one [`OpenReq`] per `crs_open`);
//! * **request scheduler** — [`CrasServer::interval_tick`]: posts the
//!   previous interval's data from the I/O-done queue into the
//!   time-driven buffers, then issues the next interval's reads in
//!   cylinder order;
//! * **I/O done manager** — [`CrasServer::io_done`]: accepts completion
//!   notifications into the I/O-done queue;
//! * **deadline manager** — overrun detection in `interval_tick` (a
//!   warning counter, like the paper's);
//! * **signal handler** — administrative stop/seek paths
//!   ([`CrasServer::stop`], [`CrasServer::seek`]).
//!
//! The server schedules across a set of volumes (§4's "several disk
//! devices" variation). Admission runs *per volume*: each spindle must
//! fit the weighted share of every stream stored on it (the bottleneck
//! disk bounds the system), while buffer memory — a host resource — is
//! checked globally. With one volume this reduces exactly to the
//! paper's single-disk test. Volumes may be heterogeneous: each holds
//! its own calibrated [`DiskParams`], so a faster spindle admits more
//! of the streams placed on it.
//!
//! When a cache budget is configured, the server also owns an
//! [`IntervalCache`]: every disk-fed stream's posted intervals are
//! retained as a sliding window behind its read frontier, a stream
//! opened within the configured gap of an active stream on the same
//! movie is fed from that window (zero disk commands), and — when the
//! disk-time bound is exhausted — such a trailing stream can be
//! *admitted* against the cache memory budget instead.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cras_disk::calibrate::DiskParams;
use cras_disk::geometry::BlockNo;
use cras_disk::{SweepCursor, VolumeId};
use cras_media::{Chunk, ChunkTable};
use cras_sim::{Duration, IdTable, Instant};
use cras_ufs::Extent;

use crate::admission::{
    Admission, AdmissionError, AdmissionModel, Load, StreamParams, MAX_READ_BYTES,
};
use crate::cache::{EvictPolicy, IntervalCache};
use crate::cachepolicy::CacheManager;
use crate::clock::LogicalClock;
use crate::placement::{assert_tiles, on_volume, PlacementPolicy, VolumeExtent};
use crate::stream::{CacheState, ParityState, Stream, StreamId, VolumeRun};
use crate::tdbuffer::{BufferedChunk, TimeDrivenBuffer};

/// Fixed (non-buffer) server footprint: "CRAS consumes about (250KB +
/// total buffer space) of physical memory."
pub const SERVER_FIXED_BYTES: u64 = 250 * 1024;

/// The time-driven buffer's jitter allowance `J`: a chunk stays
/// retrievable until `J` past its timestamp, and a player that polls
/// for a chunk later than that drops the frame.
pub const JITTER: Duration = Duration::from_millis(100);

/// Intervals a started stream's clock waits before it runs: classic
/// double buffering, the paper's 1 s initial delay at `T` = 0.5 s.
const INITIAL_DELAY_INTERVALS: u64 = 2;

/// Per-stream cap on outstanding pre-fetch batches. When a stream
/// already has this many batches in flight (the disk is behind), the
/// scheduler skips issuing more for it this interval — bounding the
/// backlog when the server is run past its admitted load, as the
/// Figure 6 sweep deliberately does.
const MAX_OUTSTANDING_BATCHES: usize = 2;

/// Hysteresis margin for the read-steering decision, bytes: the fan-out
/// is chosen only when its projected bottleneck undercuts the direct
/// read's by more than this. Keeps an evenly loaded system on the cheap
/// direct path (reconstruction is strictly more total work) and stops
/// flapping near the break-even point.
const STEER_MARGIN_BYTES: f64 = 64.0 * 1024.0;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// The interval time `T`.
    pub interval: Duration,
    /// Memory budget for stream buffers (the admission test's limit).
    pub buffer_budget: u64,
    /// Overhead model for admission.
    pub model: AdmissionModel,
    /// Number of disk volumes the server schedules across (1 = the
    /// paper's configuration).
    pub volumes: usize,
    /// How new movies are assigned to volumes.
    pub placement: PlacementPolicy,
    /// Interval-cache memory budget in bytes. `0` disables the cache
    /// entirely and reproduces the pre-cache server bit for bit.
    pub cache_budget: u64,
    /// Maximum media-time gap at which a trailing stream may attach to
    /// a leading stream's cached window.
    pub max_cache_gap: Duration,
    /// Prefix-residency window (DESIGN §16): the first `prefix_secs` of
    /// each hot title stay pinned in the interval cache across
    /// sessions, and a new viewer of a hot title is admitted *deferred*
    /// — zero disk shares until its prefix drains. `ZERO` disables.
    pub prefix_secs: Duration,
    /// Number of titles in the hot set (ranked by observed opens) whose
    /// prefixes stay resident. `0` disables prefix residency.
    pub hot_set: usize,
    /// Batched-join window: a starting stream whose natural playback
    /// begin lands within this window of a fresh same-title stream's
    /// begin coalesces onto that leader's reads (multicast-style,
    /// zero disk shares). `ZERO` disables joins.
    pub join_window: Duration,
    /// Which victim the interval cache evicts when the budget is tight.
    pub cache_evict: EvictPolicy,
    /// Coded-read steering (DESIGN §17): when a parity stream's direct
    /// data read lands on a live but *loaded* spindle, the planner may
    /// serve the range as the `g−1` reconstruction fan-out across the
    /// band's other members instead — any `g−1` of `g` suffice — so a
    /// transiently hot spindle is bypassed rather than bottlenecking
    /// the interval. The per-spindle parity admission charge (two
    /// commands, `2/g` shares) already covers the fan-out, so steering
    /// can never oversubscribe a volume.
    pub steer_reads: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            interval: Duration::from_millis(500),
            buffer_budget: 8 << 20,
            model: AdmissionModel::Paper,
            volumes: 1,
            placement: PlacementPolicy::RoundRobin,
            cache_budget: 0,
            max_cache_gap: Duration::from_secs(10),
            prefix_secs: Duration::ZERO,
            hot_set: 0,
            join_window: Duration::ZERO,
            cache_evict: EvictPolicy::OldestFirst,
            steer_reads: true,
        }
    }
}

/// How [`CrasServer::open`] admits a new stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The admission ladder: deferred against a memory-resident hot
    /// prefix, then the disk test, then cache admission. Feeds the
    /// popularity estimator.
    Checked,
    /// No test and no popularity observation — the Figure 6 sweep
    /// measures achieved throughput past the admitted load.
    Unchecked,
    /// Crash-recovery replay of a deferred admission. The cache is
    /// empty after a restart, so the prefix-residency test cannot
    /// re-pass: the stream is installed in [`CacheState::Prefix`] with
    /// zero disk shares (buffer memory still checked), and its first
    /// serve miss walks the ordinary drain path. Parity movies have no
    /// deferred open and take the [`Admit::Checked`] ladder.
    Deferred,
}

/// A `crs_open` request: the control-file chunk table and the extent
/// maps resolved through UFS. The placement is read from the maps:
/// whole or striped `extents` alone, a `mirror` replica, or a
/// rotating-`parity` band.
#[derive(Clone, Debug)]
pub struct OpenReq {
    /// Movie name.
    pub name: String,
    /// The control-file chunk table.
    pub table: ChunkTable,
    /// The (primary, or logical for parity) extent map.
    pub extents: Vec<VolumeExtent>,
    /// The mirror replica's extent map, for a mirrored movie.
    pub mirror: Option<Vec<VolumeExtent>>,
    /// The rotating-parity state, for a parity-placed movie.
    pub parity: Option<ParityState>,
    /// How the stream is admitted.
    pub admit: Admit,
}

impl OpenReq {
    /// A checked open of a movie stored at `extents`.
    pub fn new(name: &str, table: ChunkTable, extents: Vec<VolumeExtent>) -> OpenReq {
        OpenReq {
            name: name.to_string(),
            table,
            extents,
            mirror: None,
            parity: None,
            admit: Admit::Checked,
        }
    }

    /// A checked open of a single-disk movie: the extent map addresses
    /// volume 0.
    pub fn single(name: &str, table: ChunkTable, extents: Vec<Extent>) -> OpenReq {
        OpenReq::new(name, table, on_volume(VolumeId(0), extents))
    }

    /// The request with a mirror replica map.
    pub fn with_mirror(self, mirror: Vec<VolumeExtent>) -> OpenReq {
        OpenReq {
            mirror: Some(mirror),
            ..self
        }
    }

    /// The request with a rotating-parity state.
    pub fn with_parity(self, parity: ParityState) -> OpenReq {
        OpenReq {
            parity: Some(parity),
            ..self
        }
    }

    /// The request with another admission mode.
    pub fn with_admit(self, admit: Admit) -> OpenReq {
        OpenReq { admit, ..self }
    }
}

/// Externally observed load of one spindle, fed by the orchestrator
/// just before each tick ([`CrasServer::set_volume_loads`]): the part
/// of the steering signal the planner cannot see from its own
/// bookkeeping — the device's outstanding queue (rebuild traffic,
/// Unix-server background I/O) and how far the spindle's recent
/// intervals ran behind their calculated I/O time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VolumeLoad {
    /// Commands outstanding on the device: queued in either class plus
    /// any in-flight operation.
    pub queued: usize,
    /// Recent mean completion lag of this volume's intervals (actual
    /// span minus calculated I/O time, clamped at zero), seconds.
    pub lag: f64,
}

/// Identifies one disk read issued by the server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReadId(pub u64);

/// One disk read request for the orchestrator to submit (real-time class).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadReq {
    /// Read id (returned in [`CrasServer::io_done`]).
    pub id: ReadId,
    /// Owning stream.
    pub stream: StreamId,
    /// The volume to submit this read to.
    pub volume: VolumeId,
    /// First 512-byte disk block on that volume.
    pub block: BlockNo,
    /// Length in 512-byte blocks.
    pub nblocks: u32,
}

/// What one `interval_tick` did.
#[derive(Clone, Debug, Default)]
pub struct IntervalReport {
    /// Interval number (0-based).
    pub index: u64,
    /// Reads to submit, grouped by volume; each volume's slice is in
    /// that spindle's sweep order (C-SCAN continuing from the head
    /// position the previous interval left behind, wrapped blocks
    /// last). Use [`IntervalReport::volume_batches`] to walk the
    /// per-volume batches.
    pub reqs: Vec<ReadReq>,
    /// Chunks posted into client buffers at the start of this interval.
    pub posted_chunks: usize,
    /// Whether the previous interval's I/O had not all completed — a
    /// deadline miss (the paper logs a warning).
    pub overran: bool,
    /// The admission test's calculated I/O time of the *bottleneck*
    /// volume for the streams active in this interval, seconds (Figure
    /// 8/9 denominator). Zero when no reads were issued.
    pub calculated_io_time: f64,
    /// Per-volume calculated I/O time, seconds (index = volume id).
    pub per_volume_calculated: Vec<f64>,
    /// Mirrored streams forced onto their mirror replica this interval
    /// because the primary's volume is failed (degraded mode).
    pub degraded_streams: usize,
    /// Parity streams that had at least one direct read steered to a
    /// `g−1` reconstruction fan-out this interval because the home
    /// spindle was loaded (coded-read steering, DESIGN §17).
    pub steered_streams: usize,
    /// Streams whose batch was dropped at plan time this interval
    /// because no live replica could serve it (every copy's volume is
    /// failed). Counted in [`ServerStats::lost_reads`] too; surfaced
    /// here so the orchestrator can trace the drop.
    pub lost_streams: usize,
    /// Streams whose interval was served entirely from the interval
    /// cache (they issued zero disk commands this tick).
    pub cache_served_streams: usize,
    /// Deferred-admission streams whose prefix drained this tick and
    /// whose disk share was reserved now (reserve-at-drain). The
    /// orchestrator journals these so crash recovery re-admits them as
    /// ordinary disk streams.
    pub deferred_reserved: Vec<u32>,
    /// Titles whose streams were parked (clock stopped) by a failed
    /// cache/deferred re-admission since the previous tick — the
    /// per-title cost of the eviction policy, for metrics.
    pub cache_rejected_titles: Vec<String>,
    /// Stream ids parked since the previous tick. The layer driving
    /// viewers should pause them (rebuffer) rather than let their
    /// players burn the poll budget, and may retry admission via
    /// [`CrasServer::resume`] once capacity frees.
    pub parked_streams: Vec<u32>,
}

impl IntervalReport {
    /// The interval's reads partitioned into per-volume batches: each
    /// item is one volume and its consecutive slice of [`reqs`]
    /// (already in that spindle's sweep order). This is the unit of the
    /// pipelined issue path — the orchestrator hands every volume its
    /// batch at tick time and the spindles drain their chains
    /// concurrently, so the interval's I/O ends with the slowest
    /// spindle rather than the sum of all of them.
    ///
    /// [`reqs`]: IntervalReport::reqs
    pub fn volume_batches(&self) -> impl Iterator<Item = (VolumeId, &[ReadReq])> {
        let mut start = 0usize;
        std::iter::from_fn(move || {
            if start >= self.reqs.len() {
                return None;
            }
            let vol = self.reqs[start].volume;
            let mut end = start;
            while end < self.reqs.len() && self.reqs[end].volume == vol {
                end += 1;
            }
            let batch = &self.reqs[start..end];
            start = end;
            Some((vol, batch))
        })
    }
}

/// Total-order maximum of the per-volume calculated I/O times — the
/// bottleneck spindle's bound. `iter().fold(0.0, f64::max)` would
/// silently swallow a NaN (because `f64::max` prefers the non-NaN
/// operand), turning a poisoned admission computation into a plausible
/// looking bound; this asserts instead. An empty slice (a server with
/// no active volumes this interval) is legitimately 0.0.
fn bottleneck_time(per_volume: &[f64]) -> f64 {
    per_volume.iter().fold(0.0f64, |acc, &c| {
        assert!(!c.is_nan(), "per-volume calculated I/O time is NaN");
        if c.total_cmp(&acc).is_gt() {
            c
        } else {
            acc
        }
    })
}

/// Posts chunks `lo..=hi` of a stream's table into its time-driven
/// buffer at `now`, up to the first chunk the buffer cannot take: a
/// stopped clock discards nothing, and a rate cut shrinks the buffer
/// under a batch fetched at the old rate. The pre-fetch cursor is
/// rewound to that chunk, so the stream fetches it again. Returns the
/// chunks posted.
fn post_chunks(s: &mut Stream, lo: u32, hi: u32, now: Instant) -> usize {
    let media_now = s.clock.media_time(now);
    for i in lo..=hi {
        let c = *s.table.get(i).expect("batch chunk in table");
        let chunk = BufferedChunk {
            index: c.index,
            timestamp: c.timestamp,
            duration: c.duration,
            size: c.size,
            posted_at: now,
        };
        if !s.buffer.try_put(chunk, media_now) {
            s.prefetch_cursor = c.timestamp;
            return (i - lo) as usize;
        }
    }
    (hi - lo) as usize + 1
}

/// The media time a stream must be fetched to by `horizon`, and the
/// chunks from its pre-fetch cursor up to there. `None` when nothing is
/// due.
fn due_chunks(s: &Stream, horizon: Instant) -> Option<(Duration, &[Chunk])> {
    let target = s.clock.media_time(horizon).min(s.table.total_duration());
    (target > s.prefetch_cursor).then(|| (target, s.table.chunks_in(s.prefetch_cursor, target)))
}

/// Serves one cache-fed stream's interval up to `horizon` from the
/// interval cache: a deferred stream reads its movie's resident prefix
/// (no follower registration, no window pins), any other its window. On
/// a hit the batch joins the done queue and the cursor advances.
/// Returns `None` when nothing was due, else whether the cache held the
/// whole interval (a miss leaves the cursor where it was).
fn serve_interval(
    sid: u32,
    s: &mut Stream,
    cache: &mut IntervalCache,
    done: &mut Vec<FetchedBatch>,
    horizon: Instant,
) -> Option<bool> {
    let (target, chunks) = due_chunks(s, horizon)?;
    let (Some(first), Some(last)) = (chunks.first(), chunks.last()) else {
        s.prefetch_cursor = target;
        return None;
    };
    let (chunk_lo, chunk_hi) = (first.index, last.index);
    let served = match s.cache_state {
        CacheState::Prefix => cache.serve_resident(&s.name, chunks),
        _ => cache.serve(&s.name, sid, chunks),
    };
    if served {
        s.prefetch_cursor = target;
        done.push(FetchedBatch {
            stream: StreamId(sid),
            chunk_lo,
            chunk_hi,
            from_cache: true,
        });
    }
    Some(served)
}

/// A point-in-time report on one stream (diagnostics / experiments).
#[derive(Clone, Copy, Debug)]
pub struct StreamReport {
    /// Whether the logical clock is running.
    pub running: bool,
    /// Clock rate multiplier.
    pub rate: f64,
    /// Media time up to which pre-fetches have been issued.
    pub prefetch_cursor: Duration,
    /// Buffer capacity in bytes.
    pub buffer_capacity: u64,
    /// Current buffer occupancy in bytes.
    pub buffer_bytes: u64,
    /// Buffer counters (puts/hits/misses/discards/max occupancy).
    pub buffer: crate::tdbuffer::BufferStats,
}

/// Aggregate server statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Interval ticks executed.
    pub intervals: u64,
    /// Disk reads issued.
    pub reads_issued: u64,
    /// Bytes requested from disk.
    pub bytes_requested: u64,
    /// Chunks posted to buffers.
    pub chunks_posted: u64,
    /// Deadline (interval overrun) warnings.
    pub deadline_misses: u64,
    /// Reads re-issued against a surviving replica after a failure.
    pub degraded_reads: u64,
    /// Failed reads with no surviving replica (data lost; the batch is
    /// dropped rather than posted). Includes batches dropped at plan
    /// time because every replica's volume was down.
    pub lost_reads: u64,
    /// Direct parity reads replaced by a `g−1` reconstruction fan-out
    /// because the home spindle was loaded (coded-read steering; counts
    /// the *direct reads bypassed*, not the fan-out commands).
    pub steered_reads: u64,
}

struct PendingBatch {
    stream: StreamId,
    chunk_lo: u32,
    chunk_hi: u32,
    remaining: usize,
    issued_at: Instant,
}

struct FetchedBatch {
    stream: StreamId,
    chunk_lo: u32,
    chunk_hi: u32,
    /// Whether this batch was served from the interval cache rather
    /// than a disk read (cache batches are not re-inserted).
    from_cache: bool,
}

/// Per-read bookkeeping: the owning batch, plus the logical byte range
/// and volume so a failed read can be re-mapped through another replica.
struct ReadInfo {
    batch: u64,
    byte_lo: u64,
    byte_hi: u64,
    volume: VolumeId,
    /// A parity-reconstruction read of surviving data/parity units. Its
    /// byte range addresses a *survivor's* stripe unit, not the lost
    /// logical bytes, so it cannot be re-mapped again: a failure here is
    /// a second failure in the band and the range is lost.
    recon: bool,
}

/// What moves one stream's feed ([`CacheState`]) through
/// [`CrasServer::feed`]: a public operation, or what the tick's
/// cache-serve phase found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FeedEvent {
    /// `crs_start`: join a starting leader, or run on the current feed.
    Start,
    /// `crs_stop` (the clock is already stopped).
    Stop,
    /// `crs_seek` (the stream is already repositioned).
    Seek,
    /// A rate change that passed admission at the new rate.
    Rerate,
    /// A park on the caller's initiative (delivery backpressure).
    Park,
    /// The client's retry of a stopped, unfed stream.
    Resume,
    /// The cache-serve phase missed: a broken window or a drained
    /// prefix.
    Miss,
    /// The stream's join leader stopped multicasting to it.
    Orphaned,
    /// `crs_close` (the stream is removed next).
    Close,
}

/// A rung of the feed ladder ([`CrasServer::acquire`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rung {
    /// A disk share: kept when held, else granted by the disk test.
    Disk,
    /// The movie's interval-cache window behind a predecessor.
    Window,
    /// No feed for now: the clock stops where it is.
    Park,
}

/// Streams the cache-serve phase left without a working feed.
#[derive(Default)]
struct FeedMisses {
    /// Cache-fed streams whose interval broke (serve miss).
    broken: Vec<u32>,
    /// Deferred streams whose resident prefix drained.
    drained: Vec<u32>,
    /// Joined followers whose leader stopped multicasting to them.
    orphaned: Vec<u32>,
}

impl FeedMisses {
    fn clear(&mut self) {
        self.broken.clear();
        self.drained.clear();
        self.orphaned.clear();
    }
}

/// One stream's planned interval: direct runs tagged with their first
/// logical byte, reconstruction reads, the chunk range they fetch, and
/// the load they put on each volume this interval.
struct StreamPlan {
    runs: Vec<(u64, VolumeRun)>,
    recon: Vec<VolumeRun>,
    lo: u32,
    hi: u32,
    params: StreamParams,
    shares: Vec<f64>,
}

/// One stream's admission charge: parameters, per-volume rate shares
/// (empty while it holds no disk share), and the worst-case read
/// commands it issues on a spindle per interval (two for parity streams
/// — the own-unit slice plus one reconstruction read; see
/// [`Stream::spindle_reads`]).
#[derive(Clone, Copy)]
struct Charge<'a> {
    params: StreamParams,
    shares: &'a [f64],
    reads: u32,
}

impl Charge<'_> {
    /// An open stream's charge as it stands.
    fn of(s: &Stream) -> Charge<'_> {
        Charge {
            params: s.params,
            shares: s.admission_shares(),
            reads: s.spindle_reads(),
        }
    }
}

/// The CRAS server.
pub struct CrasServer {
    cfg: ServerConfig,
    /// The admission evaluator; every volume's rate test runs against
    /// it, since all spindles share one calibration.
    admission: Admission,
    /// The interval cache (inert when `cfg.cache_budget == 0`).
    cache: IntervalCache,
    /// The popularity-aware cache manager (DESIGN §16): ranks titles by
    /// observed opens and keeps the hot set's prefixes pinned.
    manager: CacheManager,
    /// Batched joins: leader stream id → ids of the streams riding its
    /// reads. An entry disappears when the leader stops matching its
    /// followers (stop/seek/rate change/close); orphaned followers
    /// dissolve at the next tick.
    joins: BTreeMap<u32, Vec<u32>>,
    /// Titles parked by a failed cache/deferred re-admission since the
    /// last tick, drained into [`IntervalReport::cache_rejected_titles`].
    pending_rejects: Vec<String>,
    /// Stream ids parked since the last tick, drained into
    /// [`IntervalReport::parked_streams`] so the layer driving viewers
    /// can pause them (rebuffer) instead of letting them starve.
    pending_parks: Vec<u32>,
    /// Followers orphaned by a leader that parked; they dissolve in the
    /// *same* tick the park happened (a parked leader fetches nothing,
    /// so waiting a tick would open a one-interval delivery gap).
    parked_orphans: Vec<u32>,
    /// Open streams by id; a closed stream leaves a hole.
    streams: IdTable<Stream>,
    /// Open stream ids per title, changed only where `streams` gains or
    /// loses a stream, so per-title scans (cache and join candidates,
    /// the last-stream check at close) skip every other title.
    by_title: BTreeMap<String, BTreeSet<u32>>,
    next_stream: u32,
    next_place: u32,
    pending: HashMap<u64, PendingBatch>,
    /// Per-stream count of batches in `pending` (stream id → batches in
    /// flight), maintained on submit/complete/discard so the per-stream
    /// backlog cap is O(1) per stream instead of a rescan of every
    /// pending batch per stream per interval. Entries vanish at zero.
    outstanding: HashMap<u32, usize>,
    /// External per-volume load (device queue depth, completion lag)
    /// fed by the orchestrator before each tick; all-idle when nothing
    /// feeds it, which reduces steering to the planned-bytes signal.
    ext_load: Vec<VolumeLoad>,
    read_info: HashMap<u64, ReadInfo>,
    done: Vec<FetchedBatch>,
    next_read: u64,
    next_batch: u64,
    stats: ServerStats,
    /// Per-volume failed flags (index = volume id). A failed volume is
    /// skipped by read steering, placement, and the per-volume rate
    /// test, until a rebuild restores it.
    failed: Vec<bool>,
    /// Per-volume C-SCAN sweep cursors (index = volume id): where each
    /// spindle's previous interval left its head, so the next
    /// interval's issue order continues the sweep instead of
    /// restarting at block 0 and paying a full-stroke seek back.
    sweep: Vec<SweepCursor>,
    /// Reused per-tick scratch: the cache-serve phase's misses.
    misses: FeedMisses,
    /// Reused per-tick scratch: streams whose buffer refused a chunk in
    /// the post phase.
    refused: Vec<StreamId>,
}

impl CrasServer {
    /// Creates a server over measured disk parameters, identical for
    /// every volume.
    ///
    /// # Panics
    ///
    /// Panics if the configuration names zero volumes.
    pub fn new(disk: DiskParams, cfg: ServerConfig) -> CrasServer {
        assert!(cfg.volumes >= 1, "server needs at least one volume");
        let mut cache = IntervalCache::new(cfg.cache_budget, cfg.max_cache_gap);
        cache.set_policy(cfg.cache_evict);
        CrasServer {
            admission: Admission::new(disk, cfg.model),
            cache,
            manager: CacheManager::new(cfg.hot_set, cfg.prefix_secs),
            joins: BTreeMap::new(),
            pending_rejects: Vec::new(),
            pending_parks: Vec::new(),
            parked_orphans: Vec::new(),
            cfg,
            streams: IdTable::new(),
            by_title: BTreeMap::new(),
            next_stream: 0,
            next_place: 0,
            pending: HashMap::new(),
            outstanding: HashMap::new(),
            ext_load: vec![VolumeLoad::default(); cfg.volumes],
            read_info: HashMap::new(),
            done: Vec::new(),
            next_read: 0,
            next_batch: 0,
            stats: ServerStats::default(),
            failed: vec![false; cfg.volumes],
            sweep: vec![SweepCursor::new(); cfg.volumes],
            misses: FeedMisses::default(),
            refused: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Number of volumes the server schedules across.
    pub fn volumes(&self) -> usize {
        self.cfg.volumes
    }

    /// The admission evaluator, shared by every volume.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The interval cache.
    pub fn cache(&self) -> &IntervalCache {
        &self.cache
    }

    /// The popularity-aware cache manager.
    pub fn cache_manager(&self) -> &CacheManager {
        &self.manager
    }

    /// The cache relationship of one stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn cache_state_of(&self, id: StreamId) -> CacheState {
        self.stream(id).cache_state
    }

    /// Open streams currently holding a disk reservation (the admission
    /// test charges their spindles): plain disk streams plus
    /// cache-*served* ones. Cache-admitted, prefix-deferred and joined
    /// streams charge nothing.
    pub fn disk_charged_streams(&self) -> usize {
        self.streams
            .values()
            .filter(|s| s.cache_state.holds_disk_share())
            .count()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Feeds the external half of the per-spindle load signal used by
    /// read steering (DESIGN §17), normally once per interval just
    /// before [`CrasServer::interval_tick`]. Entries beyond the volume
    /// count are ignored; volumes without an entry are treated as idle.
    pub fn set_volume_loads(&mut self, loads: &[VolumeLoad]) {
        for (v, l) in self.ext_load.iter_mut().enumerate() {
            *l = loads.get(v).copied().unwrap_or_default();
        }
    }

    /// Write access to an open stream.
    fn stream_mut(&mut self, id: StreamId) -> &mut Stream {
        self.streams.get_mut(&id.0).expect("no such stream")
    }

    /// Drops one outstanding-batch count for a stream (its batch
    /// completed or was discarded). The entry vanishes at zero so the
    /// map stays bounded by the number of backlogged streams.
    fn dec_outstanding(&mut self, sid: u32) {
        if let Some(n) = self.outstanding.get_mut(&sid) {
            *n -= 1;
            if *n == 0 {
                self.outstanding.remove(&sid);
            }
        }
    }

    /// Number of open streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Read access to a stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn stream(&self, id: StreamId) -> &Stream {
        self.streams.get(&id.0).expect("no such stream")
    }

    /// Admission parameters of every open stream.
    pub fn active_params(&self) -> Vec<StreamParams> {
        self.streams.values().map(|s| s.params).collect()
    }

    /// Wired memory consumed: fixed footprint plus all buffer capacity.
    pub fn memory_bytes(&self) -> u64 {
        SERVER_FIXED_BYTES
            + self
                .streams
                .values()
                .map(|s| s.buffer.capacity())
                .sum::<u64>()
    }

    /// The volume a new whole movie should be recorded on under the
    /// round-robin placement policy; each call advances the cursor.
    pub fn place_next(&mut self) -> VolumeId {
        let v = VolumeId(self.next_place % self.cfg.volumes as u32);
        self.next_place += 1;
        v
    }

    /// Primary and mirror volumes for a new mirrored movie: the rotation
    /// cursor picks the primary among live volumes, the mirror is the
    /// next live volume after it — never the same spindle.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two live volumes (mirroring is impossible).
    pub fn place_next_pair(&mut self) -> (VolumeId, VolumeId) {
        let live: Vec<u32> = (0..self.cfg.volumes as u32)
            .filter(|&v| !self.failed[v as usize])
            .collect();
        assert!(
            live.len() >= 2,
            "mirrored placement needs at least two live volumes"
        );
        let i = self.next_place as usize % live.len();
        self.next_place += 1;
        (VolumeId(live[i]), VolumeId(live[(i + 1) % live.len()]))
    }

    /// First volume of the band a new parity-placed movie should use:
    /// the rotation cursor deals movies to bands of `group` contiguous
    /// volumes cyclically.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ group ≤ volumes` and the volume count is a
    /// multiple of `group` (bands must tile the set exactly).
    pub fn place_next_band(&mut self, group: usize) -> VolumeId {
        assert!(
            group >= 2 && group <= self.cfg.volumes && self.cfg.volumes.is_multiple_of(group),
            "parity group {group} must tile {} volumes",
            self.cfg.volumes
        );
        let bands = self.cfg.volumes / group;
        let b = self.next_place as usize % bands;
        self.next_place += 1;
        VolumeId((b * group) as u32)
    }

    /// Marks a volume failed (or restored after rebuild). While failed,
    /// the volume is skipped by read steering and mirrored placement,
    /// its per-volume rate test is waived (a dead spindle serves no
    /// load), and streams whose data lives only there are rejected at
    /// open.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn set_volume_failed(&mut self, vol: VolumeId, failed: bool) {
        self.failed[vol.index()] = failed;
    }

    /// Whether a volume is currently marked failed.
    pub fn volume_failed(&self, vol: VolumeId) -> bool {
        self.failed[vol.index()]
    }

    /// The admission decision for the open streams plus `extra`, with
    /// `rerate`'s stream charged at new parameters and its full shares.
    ///
    /// Rate and interval feasibility are checked per volume against
    /// that spindle's weighted load (the bottleneck disk bounds the
    /// system); buffer memory is a shared host resource and is checked
    /// globally, exactly as the single-disk test does. With one volume
    /// every share is 1.0 and this reduces to [`Admission::admit`].
    ///
    /// Each volume's [`Load`] is folded over the streams in id order
    /// with `extra` last, so every sum, decision and error payload is
    /// the one [`Admission::admit`] gives on that volume's stream list
    /// collected in the same order — without building the list.
    fn admit_with(
        &self,
        rerate: Option<(StreamId, StreamParams)>,
        extra: Option<Charge<'_>>,
    ) -> Result<(), AdmissionError> {
        let t = self.cfg.interval.as_secs_f64();
        let charges = self
            .streams
            .values()
            .map(|s| match rerate {
                Some((id, params)) if id == s.id => Charge {
                    params,
                    shares: &s.shares,
                    reads: s.spindle_reads(),
                },
                _ => Charge::of(s),
            })
            .chain(extra);
        for v in 0..self.cfg.volumes {
            if self.failed[v] {
                // A dead spindle serves no load; mirrored streams'
                // full-rate charge on the surviving replica keeps the
                // guarantee, and restoring the volume restores exactly
                // the pre-failure test.
                continue;
            }
            let mut load = Load::default();
            for c in charges.clone() {
                let share = c.shares.get(v).copied().unwrap_or(0.0);
                if share <= 0.0 {
                    continue;
                }
                // One evaluator entry per worst-case read command: the
                // per-stream command/rotation/seek overheads then count
                // `reads` times, while the byte charge (the rate split
                // across the commands) stays the stream's share.
                let per = share / c.reads as f64;
                for _ in 0..c.reads {
                    load.add(t, &StreamParams::new(c.params.rate * per, c.params.chunk));
                }
            }
            if load.n > 0 {
                self.admission.admit_load(t, &load, u64::MAX)?;
            }
        }
        let needed: u64 = charges.map(|c| c.params.buffer(t)).sum();
        if needed > self.cfg.buffer_budget {
            return Err(AdmissionError::OutOfMemory {
                needed,
                budget: self.cfg.buffer_budget,
            });
        }
        Ok(())
    }

    /// `crs_open`: admission-tests a new stream and allocates its
    /// buffer. The request's maps name the placement (whole or striped
    /// extents, a mirror replica, or a rotating-parity band) and its
    /// [`Admit`] mode the test.
    ///
    /// Admission weights the worst-case rate and max chunk size per
    /// volume by where the bytes live. A mirrored movie charges each
    /// replica volume the full rate — the worst case where the other
    /// replica is gone — so the guarantee survives either spindle
    /// failing. A parity movie charges every band volume the worst-case
    /// degraded load — `2/group` of the rate (its own `1/group` of the
    /// data plus one same-sized reconstruction read per stripe the dead
    /// spindle owes) as *two* read commands per spindle, so streams
    /// admitted healthy still meet deadlines degraded.
    ///
    /// An [`Admit::Unchecked`] open always succeeds.
    ///
    /// # Panics
    ///
    /// Panics if an extent map (the primary, the mirror or any parity
    /// file's) does not tile its file's bytes in order
    /// ([`assert_tiles`]); the planner's lookups rely on it.
    pub fn open(&mut self, req: OpenReq) -> Result<StreamId, AdmissionError> {
        assert_tiles(&req.extents, "primary");
        if let Some(m) = &req.mirror {
            assert_tiles(m, "mirror");
        }
        for map in req.parity.iter().flat_map(|p| &p.parity_maps) {
            assert_tiles(map, "parity");
        }
        let params = StreamParams::new(req.table.worst_rate(), req.table.max_chunk_size() as f64);
        let shares = Stream::rate_shares(
            &req.extents,
            req.mirror.as_deref(),
            req.parity.as_ref(),
            self.cfg.volumes,
        );
        let feed = match req.admit {
            Admit::Unchecked => CacheState::Disk,
            // Parity movies have no deferred path: their replay takes
            // the ordinary ladder.
            Admit::Deferred if req.parity.is_none() => {
                self.admit_with(
                    None,
                    Some(Charge {
                        params,
                        shares: &[],
                        reads: 1,
                    }),
                )?;
                self.manager.observe_open(&req.name, &mut self.cache);
                CacheState::Prefix
            }
            _ => self.admit_checked(&req, params, &shares)?,
        };
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.by_title
            .entry(req.name.clone())
            .or_default()
            .insert(id.0);
        let buffer_bytes = params.buffer(self.cfg.interval.as_secs_f64());
        self.streams.insert(
            id.0,
            Stream {
                id,
                name: req.name,
                table: req.table,
                extents: req.extents,
                mirror: req.mirror,
                parity: req.parity,
                params,
                shares,
                clock: LogicalClock::new(),
                buffer: TimeDrivenBuffer::new(buffer_bytes, JITTER),
                prefetch_cursor: Duration::ZERO,
                cache_state: feed,
            },
        );
        let stats = self.cache.stats_mut();
        match feed {
            CacheState::Prefix => stats.prefix_admitted_streams += 1,
            CacheState::Admitted { .. } => stats.cache_admitted_streams += 1,
            _ => {}
        }
        if feed.reserved() > 0 {
            // A window feed pins the window from the stream's first frame.
            self.cache.reserve(feed.reserved());
            let name = &self.streams[&id.0].name;
            self.cache.add_follower(name, id.0, Duration::ZERO);
        }
        Ok(id)
    }

    /// The checked admission ladder for a stream about to be installed
    /// with `shares`: deferred against a resident hot prefix, then the
    /// disk test, then cache admission. Returns the feed the stream
    /// starts in (`Disk`, `Prefix`, or cache-`Served`/`Admitted` with
    /// the bytes to reserve).
    fn admit_checked(
        &mut self,
        req: &OpenReq,
        params: StreamParams,
        shares: &[f64],
    ) -> Result<CacheState, AdmissionError> {
        if !shares
            .iter()
            .enumerate()
            .any(|(v, sh)| *sh > 0.0 && !self.failed[v])
        {
            return Err(AdmissionError::VolumeFailed);
        }
        if let Some(p) = &req.parity {
            // Degraded reads need all but one band volume alive.
            let g = p.geom;
            let down = (g.base..g.base + g.group)
                .filter(|&v| self.failed[v as usize])
                .count();
            if down > 1 {
                return Err(AdmissionError::VolumeFailed);
            }
        }
        let candidate = Charge {
            params,
            shares,
            reads: if req.parity.is_some() { 2 } else { 1 },
        };
        // A zero-disk-share candidate: only its buffer demand counts.
        let zero_share = Charge {
            shares: &[],
            ..candidate
        };
        // Every checked open feeds the popularity estimator; when the
        // hot set changes, the manager re-pins prefixes in the cache.
        self.manager.observe_open(&req.name, &mut self.cache);
        // Deferred admission (DESIGN §16): a hot title whose whole
        // prefix is memory-resident starts from memory and reserves a
        // disk share only when its prefix drains (reserve-at-drain), so
        // only buffer memory is checked at open.
        if self.prefix_resident_for(&req.name, &req.table)
            && self.admit_with(None, Some(zero_share)).is_ok()
        {
            return Ok(CacheState::Prefix);
        }
        // Does the new stream trail an active stream on the same movie
        // closely enough to be fed from the interval cache? (None when
        // the cache is disabled or the window does not cover the gap.)
        let cached_need =
            self.cache_candidate(&req.name, &req.table, params, Duration::ZERO, None, false);
        match (self.admit_with(None, Some(candidate)), cached_need) {
            // Disk-admitted, but opportunistically cache-served: the
            // spindle keeps the reservation, the cache saves the
            // bandwidth while the interval holds.
            (Ok(()), Some(need)) => Ok(CacheState::Served { reserved: need }),
            (Ok(()), None) => Ok(CacheState::Disk),
            // Cache-aware admission: a trailing stream holds zero disk
            // shares, so re-test the set with the newcomer's disk load
            // removed (its buffer demand still counts).
            (Err(e), Some(need)) => self
                .admit_with(None, Some(zero_share))
                .map(|()| CacheState::Admitted { reserved: need })
                .map_err(|_| e),
            (Err(e), None) => Err(e),
        }
    }

    /// Whether a stream of `name` starting at media time `from` can be
    /// fed from the interval cache, and — if so — the cache bytes to
    /// reserve for it: the gap to its nearest cache-dependent
    /// predecessor (whose pins already cover the rest of the window),
    /// plus a double-buffer-safe margin of three intervals and two
    /// chunks, all at the stream's worst-case rate. `exclude` is the
    /// stream itself when it is open; `leading` counts it as a running
    /// disk-fed stream of the movie.
    fn cache_candidate(
        &self,
        name: &str,
        table: &ChunkTable,
        params: StreamParams,
        from: Duration,
        exclude: Option<StreamId>,
        leading: bool,
    ) -> Option<u64> {
        if !self.cache.enabled() {
            return None;
        }
        let frontier = self.cache.frontier(name)?;
        let gap = frontier.saturating_sub(from);
        // Two intervals behind the frontier is the minimum for the
        // double-buffered fetch horizon to stay inside the window.
        if gap < self.cfg.interval * 2 {
            return None;
        }
        // The window only keeps filling while a disk-fed stream of the
        // movie is running ahead of us.
        let leader = leading
            || self
                .title_streams(name)
                .any(|s| s.clock.is_running() && !s.cache_state.is_cached());
        if !leader {
            return None;
        }
        if !self.cache.covers(name, table, from) {
            return None;
        }
        let pred = self
            .title_streams(name)
            .filter(|s| {
                Some(s.id) != exclude && s.cache_state.is_cached() && s.prefetch_cursor >= from
            })
            .map(|s| s.prefetch_cursor)
            .min();
        let span = pred.unwrap_or(frontier).saturating_sub(from);
        // The configured gap bounds the distance to the nearest stream
        // ahead — chained trailing streams each ride the window of the
        // one before them.
        if span > self.cfg.max_cache_gap {
            return None;
        }
        let t = self.cfg.interval.as_secs_f64();
        let need =
            ((span.as_secs_f64() + 3.0 * t) * params.rate + 2.0 * params.chunk).ceil() as u64;
        if self.cache.reserved() + need > self.cache.budget() {
            return None;
        }
        Some(need)
    }

    /// The open streams of one title, in stream-id order.
    fn title_streams<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Stream> + 'a {
        self.by_title
            .get(name)
            .into_iter()
            .flatten()
            .map(|id| &self.streams[id])
    }

    /// [`CrasServer::cache_candidate`] for an open stream at its
    /// pre-fetch cursor. A stream the disk rung of the feed ladder just
    /// `refused` is tested as a disk-fed one.
    fn cache_candidate_for(&self, id: StreamId, refused: bool) -> Option<u64> {
        let s = self.stream(id);
        let leading = refused && s.clock.is_running();
        self.cache_candidate(
            &s.name,
            &s.table,
            s.params,
            s.prefetch_cursor,
            Some(id),
            leading,
        )
    }

    /// Whether `name` qualifies for deferred (prefix) admission: it is
    /// in the hot set and its whole prefix is memory-resident.
    fn prefix_resident_for(&self, name: &str, table: &ChunkTable) -> bool {
        if !self.manager.enabled() || !self.cache.enabled() || !self.manager.is_hot(name) {
            return false;
        }
        let end = self.cfg.prefix_secs.min(table.total_duration());
        self.cache.prefix_resident(name, table, Duration::ZERO, end)
    }

    /// The start delay of a stream's clock: `INITIAL_DELAY_INTERVALS`
    /// intervals. A UFS player waits the same delay for comparability.
    pub fn initial_delay(&self) -> Duration {
        self.cfg.interval * INITIAL_DELAY_INTERVALS
    }

    /// The feed transition: every change of a stream's [`CacheState`]
    /// is one `(state, event)` arm of this match (the table in DESIGN
    /// §16). The arms are built on two primitives:
    /// [`CrasServer::shed`] releases what the old feed held, and
    /// [`CrasServer::acquire`] climbs the feed ladder. Returns the rung
    /// that took the stream, when the arm climbed the ladder.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    fn feed(&mut self, id: StreamId, ev: FeedEvent, now: Instant) -> Option<Rung> {
        use CacheState::{Admitted, Disk, Joined, Prefix, Served, Unfed};
        use FeedEvent as E;
        const LADDER: &[Rung] = &[Rung::Disk, Rung::Window, Rung::Park];
        let s = self.stream(id);
        let (state, running) = (s.cache_state, s.clock.is_running());
        // These events release the old feed before anything else.
        if matches!(ev, E::Stop | E::Seek | E::Rerate | E::Close) || (ev == E::Park && running) {
            self.shed(id, ev);
        }
        let (next, rung) = match (state, ev) {
            (_, E::Start) => match self.join_candidate(id, now) {
                // A fresh stream within the join window of a starting
                // same-title leader rides that leader's reads.
                Some(leader) => {
                    self.shed(id, ev);
                    self.join_stream(id, leader, now);
                    (Joined { leader }, None)
                }
                None => {
                    let begin = now + self.initial_delay();
                    self.stream_mut(id).clock.start(begin);
                    if matches!(state, Admitted { .. } | Unfed) {
                        // No disk share to run on: re-attach to the
                        // window at the frozen cursor. Without one, the
                        // first serve miss re-tests the disk.
                        self.shed(id, ev);
                        self.acquire(id, now, &[Rung::Window])
                    } else {
                        (state, None)
                    }
                }
            },
            // A stopped stream keeps a disk share it held, and a
            // resident prefix still feeds it on restart.
            (Served { .. }, E::Stop) => (Disk, None),
            (Admitted { .. } | Joined { .. } | Unfed, E::Stop) => (Unfed, None),
            // Re-attach at the new position when the window covers it,
            // else back to the disk: a served stream still holds its
            // share, any other must pass the disk test or park.
            (Served { .. } | Admitted { .. } | Prefix | Joined { .. } | Unfed, E::Seek) => {
                self.acquire(id, now, &[Rung::Window, Rung::Disk, Rung::Park])
            }
            // The new rate passed admission on the stream's full shares.
            (_, E::Rerate) => (Disk, None),
            (_, E::Park) if running => self.acquire(id, now, &[Rung::Park]),
            (Unfed, E::Resume) if !running => {
                let (next, rung) = self.acquire(id, now, &[Rung::Disk, Rung::Window]);
                if rung.is_some() {
                    let begin = now + self.initial_delay();
                    self.stream_mut(id).clock.start(begin);
                }
                (next, rung)
            }
            // Reserve-at-drain: the resident prefix ran out.
            (Prefix, E::Miss) => {
                self.cache.stats_mut().deferred_drained_streams += 1;
                self.acquire(id, now, LADDER)
            }
            // A broken window: back to the disk share a served stream
            // still holds, else through the disk test.
            (_, E::Miss) => {
                self.cache.stats_mut().interval_breaks += 1;
                self.shed(id, ev);
                self.acquire(id, now, &[Rung::Disk, Rung::Park])
            }
            (Joined { .. }, E::Orphaned) => {
                // A follower that got everything before its leader left
                // has nothing left to read.
                let s = self.stream(id);
                let done = s.prefetch_cursor >= s.table.total_duration();
                self.acquire(id, now, if done { &[] } else { LADDER })
            }
            // A disk or prefix stream's stop, a disk stream's seek, a
            // close (the stream goes next), and a park, resume or
            // orphaning that does not apply leave the state as it is.
            (Disk | Prefix, E::Stop)
            | (Disk, E::Seek)
            | (_, E::Close | E::Park | E::Resume | E::Orphaned) => (state, None),
        };
        self.stream_mut(id).cache_state = next;
        rung
    }

    /// Releases what a stream's feed holds as `ev` moves it: its cache
    /// pins and reservation, and its join membership in both roles —
    /// except on a start or a serve miss, which leave the stream in
    /// its joins.
    fn shed(&mut self, id: StreamId, ev: FeedEvent) {
        let s = &self.streams[&id.0];
        let state = s.cache_state;
        // `remove_follower` also runs the eviction sweep, so it runs
        // exactly where a pin can be held: off the disk path, and at
        // close for every stream of a cached movie.
        if state.is_cached() || (ev == FeedEvent::Close && self.cache.enabled()) {
            self.cache.remove_follower(&s.name, id.0);
            self.cache.unreserve(state.reserved());
        }
        if !matches!(ev, FeedEvent::Start | FeedEvent::Miss) {
            self.leave_joins(id);
        }
    }

    /// Takes a stream out of every join, in both roles. Followers it led
    /// are orphaned; the next tick's cache-serve phase finds them.
    fn leave_joins(&mut self, id: StreamId) {
        self.joins.remove(&id.0);
        self.joins.retain(|_, followers| {
            followers.retain(|&f| f != id.0);
            !followers.is_empty()
        });
    }

    /// The feed ladder: tries `rungs` in order and returns the state of
    /// the first that takes the stream, with that rung. A disk-charged
    /// stream keeps its share on the disk rung and takes a window as
    /// cache-*served*; any other must pass the disk test, and a window
    /// it takes after the test refused it counts as a cache admission.
    /// The park rung stops the clock where it is and orphans the
    /// stream's followers into this tick's re-feed. With every rung
    /// refused the stream is left [`CacheState::Unfed`].
    fn acquire(
        &mut self,
        id: StreamId,
        now: Instant,
        rungs: &[Rung],
    ) -> (CacheState, Option<Rung>) {
        let s = self.stream(id);
        let (charged, params) = (s.cache_state.holds_disk_share(), s.params);
        let mut refused = false;
        for &rung in rungs {
            match rung {
                Rung::Disk => {
                    if charged || self.admit_with(Some((id, params)), None).is_ok() {
                        return (CacheState::Disk, Some(rung));
                    }
                    refused = true;
                }
                Rung::Window => {
                    let Some(need) = self.cache_candidate_for(id, refused) else {
                        continue;
                    };
                    let s = &self.streams[&id.0];
                    self.cache.reserve(need);
                    self.cache.add_follower(&s.name, id.0, s.prefetch_cursor);
                    if refused {
                        self.cache.stats_mut().cache_admitted_streams += 1;
                    }
                    let next = if charged {
                        CacheState::Served { reserved: need }
                    } else {
                        CacheState::Admitted { reserved: need }
                    };
                    return (next, Some(rung));
                }
                Rung::Park => {
                    if let Some(fs) = self.joins.remove(&id.0) {
                        self.parked_orphans.extend(fs);
                    }
                    let s = self.streams.get_mut(&id.0).expect("no such stream");
                    s.clock.stop(now);
                    self.cache.stats_mut().cache_rejected_streams += 1;
                    self.pending_rejects.push(s.name.clone());
                    self.pending_parks.push(id.0);
                    return (CacheState::Unfed, Some(rung));
                }
            }
        }
        (CacheState::Unfed, None)
    }

    /// `crs_close`: releases the stream and its buffer.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn close(&mut self, id: StreamId) {
        // Closing never parks, so the feed transition needs no time.
        self.feed(id, FeedEvent::Close, Instant::ZERO);
        let s = self.streams.remove(&id.0).expect("no such stream");
        let ids = self.by_title.get_mut(&s.name).expect("indexed at install");
        ids.remove(&id.0);
        if ids.is_empty() {
            self.by_title.remove(&s.name);
            // The movie's window goes with its last stream.
            if self.cache.enabled() {
                self.cache.drop_movie(&s.name);
            }
        }
        self.drop_batches(id);
    }

    /// `crs_start`: starts pre-fetching; the logical clock begins after
    /// the configured initial delay. Returns the playback start time.
    ///
    /// With a nonzero join window, a fresh stream starting within the
    /// window of a same-title stream whose playback has not yet begun
    /// coalesces onto that leader's reads instead (batched join): its
    /// clock anchors on the leader's begin, the leader's already-posted
    /// chunks are backfilled, and later batches are multicast as they
    /// post — zero disk commands of its own.
    pub fn start(&mut self, id: StreamId, now: Instant) -> Instant {
        self.feed(id, FeedEvent::Start, now);
        self.stream(id).clock.anchor().expect("clock started")
    }

    /// The stream a starting stream should join, if any: a same-title,
    /// normal-rate leader whose playback begin is still in the future
    /// (nothing consumed — the follower misses no frames) and within
    /// the join window of the follower's natural begin. The follower
    /// must play at normal rate too. Ties go to the lowest stream id so
    /// coalescing is order-independent.
    fn join_candidate(&self, id: StreamId, now: Instant) -> Option<u32> {
        if self.cfg.join_window == Duration::ZERO {
            return None;
        }
        let s = self.stream(id);
        let normal_rate = |c: &LogicalClock| c.rate() >= 1.0 && c.rate() <= 1.0;
        // Only a fresh normal-rate stream (position zero, nothing
        // fetched) can ride a leader's reads frame for frame.
        if s.prefetch_cursor > Duration::ZERO
            || s.clock.media_time(now) > Duration::ZERO
            || !normal_rate(&s.clock)
        {
            return None;
        }
        let natural = now + self.initial_delay();
        self.title_streams(&s.name)
            .filter(|l| {
                l.id != id
                    && l.clock.is_running()
                    && normal_rate(&l.clock)
                    && !matches!(l.cache_state, CacheState::Joined { .. })
            })
            .filter(|l| {
                // The leader must be playing from the top and its begin
                // must still be ahead, within the join window of ours.
                l.clock.media_time(now) == Duration::ZERO
                    && l.clock.anchor().is_some_and(|b| {
                        b > now && natural.saturating_since(b) <= self.cfg.join_window
                    })
            })
            .map(|l| l.id.0)
            .min()
    }

    /// Coalesces a starting stream onto `leader`'s read stream: anchors
    /// its clock on the leader's begin, backfills the chunks the leader
    /// has already posted, and registers it for multicast of the rest.
    fn join_stream(&mut self, id: StreamId, leader: u32, now: Instant) {
        let (begin, fetched_to) = {
            let l = self.streams.get(&leader).expect("candidate exists");
            (
                l.clock.anchor().expect("candidate is running"),
                l.prefetch_cursor,
            )
        };
        // The leader's fetched range splits into posted chunks (already
        // in its buffer — backfill them) and in-flight/unposted batches
        // (they multicast at their own post time). The boundary is the
        // lowest chunk index among its outstanding batches.
        let unposted_lo = self
            .pending
            .values()
            .filter(|b| b.stream.0 == leader)
            .map(|b| b.chunk_lo)
            .chain(
                self.done
                    .iter()
                    .filter(|b| b.stream.0 == leader)
                    .map(|b| b.chunk_lo),
            )
            .min();
        let s = self.streams.get_mut(&id.0).expect("no such stream");
        s.clock.start(begin);
        let backfill = s
            .table
            .chunks_in(Duration::ZERO, fetched_to)
            .iter()
            .take_while(|c| unposted_lo.is_none_or(|lim| c.index < lim))
            .last()
            .map(|c| (c.index, c.timestamp + c.duration));
        s.prefetch_cursor = backfill.map_or(Duration::ZERO, |(_, end)| end);
        if let Some((hi, _)) = backfill {
            post_chunks(s, 0, hi, now);
        }
        self.joins.entry(leader).or_default().push(id.0);
        self.cache.stats_mut().joined_streams += 1;
    }

    /// Orphans a stream's in-flight and fetched-but-unposted batches:
    /// their completions become no-ops.
    fn drop_batches(&mut self, id: StreamId) {
        self.pending.retain(|_, b| b.stream != id);
        self.outstanding.remove(&id.0);
        self.done.retain(|b| b.stream != id);
    }

    /// Parks a *running* stream on the caller's initiative (delivery
    /// backpressure, DESIGN §18): the clock freezes where it is and the
    /// stream sheds whatever feed it held — cache pins and reservation,
    /// join membership (followers of a parked leader are orphaned), and
    /// its disk share, which the recomputed admission set releases
    /// because a parked stream scores zero shares.
    /// [`CrasServer::resume`] restarts it later through the ordinary
    /// feed ladder. Returns false (leaving the stream untouched) when
    /// the stream does not exist or its clock is already stopped — an
    /// already-parked or never-started stream has nothing to shed.
    pub fn park(&mut self, id: StreamId, now: Instant) -> bool {
        self.streams.contains_key(&id.0) && self.feed(id, FeedEvent::Park, now).is_some()
    }

    /// Retries admission for a parked stream (the client's `crs_start`
    /// after a rebuffer): if the spindles or the cache can feed it now,
    /// the clock restarts from the frozen position after the standard
    /// initial delay. Returns `(begin, disk)` on success — `disk` is
    /// true when a real disk share was reserved (the caller should
    /// journal the promotion like any reserve-at-drain) — and `None`
    /// when the stream is still unservable or was not parked.
    pub fn resume(&mut self, id: StreamId, now: Instant) -> Option<(Instant, bool)> {
        self.streams.get(&id.0)?;
        let rung = self.feed(id, FeedEvent::Resume, now)?;
        let begin = self.stream(id).clock.anchor().expect("clock restarted");
        Some((begin, rung == Rung::Disk))
    }

    /// `crs_stop`: stops the logical clock; pre-fetching ceases at the
    /// frozen position. A cache-fed stream's pins and reservation are
    /// released in this same call — a stopped client must not hold
    /// frames in memory indefinitely.
    pub fn stop(&mut self, id: StreamId, now: Instant) {
        self.stream_mut(id).clock.stop(now);
        self.feed(id, FeedEvent::Stop, now);
    }

    /// `crs_seek`: repositions the logical clock; buffered data is stale
    /// and dropped, in-flight pre-fetches are orphaned, and pre-fetching
    /// resumes from the new position. A cache-fed stream's pins are
    /// released here (not at the next eviction sweep); it re-attaches
    /// at the new position when the window covers it, otherwise it
    /// falls back to the disk path (with a re-admission test if it was
    /// cache-admitted).
    pub fn seek(&mut self, id: StreamId, now: Instant, to: Duration) {
        let s = self.stream_mut(id);
        s.clock.seek(now, to);
        s.buffer.clear();
        s.prefetch_cursor = to;
        // Pre-seek fetches would post chunks the clock has abandoned
        // (possibly colliding with the refetched range): drop them.
        self.drop_batches(id);
        self.feed(id, FeedEvent::Seek, now);
    }

    /// Changes a stream's retrieval rate (fast forward: "CRAS needs to
    /// retrieve all the video frames at twice the normal speed"),
    /// re-running the admission test at the scaled rate.
    pub fn set_rate(
        &mut self,
        id: StreamId,
        now: Instant,
        rate: f64,
    ) -> Result<(), AdmissionError> {
        assert!(rate > 0.0 && rate.is_finite(), "bad rate");
        let t = self.cfg.interval.as_secs_f64();
        let s = self.stream(id);
        let base = StreamParams::new(s.table.worst_rate() * rate, s.params.chunk);
        // A rate change ends any cache dependence (the gap to the leader
        // would drift), so the stream is tested at the new rate on its
        // full shares.
        self.admit_with(Some((id, base)), None)?;
        let need = base.buffer(t);
        let s = self.stream_mut(id);
        s.params = base;
        s.clock.set_rate(now, rate);
        // Resize in both directions: growing keeps the guarantee at the
        // higher rate, shrinking keeps the wired memory equal to what the
        // admission test accounted for.
        if need != s.buffer.capacity() {
            s.buffer = TimeDrivenBuffer::new(need, JITTER);
        }
        self.feed(id, FeedEvent::Rerate, now);
        Ok(())
    }

    /// `crs_get` (client side): the chunk at `media_time` from the
    /// stream's time-driven buffer. No server communication happens in the
    /// real system; here it is a read-mostly buffer probe.
    pub fn get(&mut self, id: StreamId, media_time: Duration) -> Option<BufferedChunk> {
        self.stream_mut(id).buffer.get(media_time)
    }

    /// A diagnostic report for one stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn stream_report(&self, id: StreamId) -> StreamReport {
        let s = self.stream(id);
        StreamReport {
            running: s.clock.is_running(),
            rate: s.clock.rate(),
            prefetch_cursor: s.prefetch_cursor,
            buffer_capacity: s.buffer.capacity(),
            buffer_bytes: s.buffer.bytes(),
            buffer: s.buffer.stats(),
        }
    }

    /// Media time of the stream's *server* clock at `now`.
    pub fn media_time(&self, id: StreamId, now: Instant) -> Duration {
        self.stream(id).clock.media_time(now)
    }

    /// The periodic request-scheduler pass at the start of interval
    /// `index` (real time `now`). Its phases, in order:
    ///
    /// 1. **post** the previous interval's fetched batches into the
    ///    buffers, multicasting them to joined followers;
    /// 2. **cache-serve** each cache-fed stream's next interval from
    ///    memory, collecting the streams left without a feed;
    /// 3. **drain/dissolve** those: broken intervals revert to disk,
    ///    drained prefixes reserve their disk share, orphaned followers
    ///    find a feed, and any that landed on a cache window is served;
    /// 4. **plan/steer** the disk-fed streams' reads (replica choice,
    ///    parity reconstruction, coded-read steering) and issue them;
    /// 5. **sweep-sort** the reads into each spindle's C-SCAN order.
    pub fn interval_tick(&mut self, now: Instant) -> IntervalReport {
        let mut rep = IntervalReport {
            index: self.stats.intervals,
            // Deadline manager: anything still pending from the last
            // interval missed its deadline.
            overran: !self.pending.is_empty(),
            ..IntervalReport::default()
        };
        self.stats.intervals += 1;
        if rep.overran {
            self.stats.deadline_misses += 1;
        }
        // Plan for data needed by the end of the *next* interval
        // (fetched this interval, posted at the next tick).
        let horizon = now + self.cfg.interval * 2;
        rep.posted_chunks = self.post_fetched(now);
        let mut misses = std::mem::take(&mut self.misses);
        self.serve_cached(horizon, &mut rep, &mut misses);
        self.refeed(&mut misses, now, horizon, &mut rep);
        misses.clear();
        self.misses = misses;
        let active = self.plan_reads(now, horizon, &mut rep);
        self.sweep_sort(&mut rep.reqs);
        let t = self.cfg.interval.as_secs_f64();
        rep.per_volume_calculated = active
            .iter()
            .map(|load| self.admission.io_time(t, load))
            .collect();
        // The slowest spindle bounds the interval.
        rep.calculated_io_time = bottleneck_time(&rep.per_volume_calculated);
        rep.cache_rejected_titles = std::mem::take(&mut self.pending_rejects);
        rep.parked_streams = std::mem::take(&mut self.pending_parks);
        rep
    }

    /// Phase 1, post: moves the previous interval's fetched batches into
    /// the time-driven buffers. Returns the chunks posted.
    fn post_fetched(&mut self, now: Instant) -> usize {
        let mut posted = 0usize;
        // Streams whose buffer refused a chunk this tick: they get no
        // more chunks until they fetch again from the rewound cursor.
        let mut refused = std::mem::take(&mut self.refused);
        for batch in std::mem::take(&mut self.done) {
            let Some(s) = self.streams.get_mut(&batch.stream.0) else {
                continue; // Closed while in flight.
            };
            if refused.contains(&batch.stream) {
                continue;
            }
            let whole = (batch.chunk_hi - batch.chunk_lo) as usize + 1;
            let n = post_chunks(s, batch.chunk_lo, batch.chunk_hi, now);
            posted += n;
            if n < whole {
                refused.push(batch.stream);
            }
            // Every disk batch a stream posts also lands in the
            // interval cache (no-op when the cache is disabled), so a
            // trailing stream of the same movie finds it in memory.
            if self.cache.enabled() && !batch.from_cache {
                let chunks = &s.table.chunks()[batch.chunk_lo as usize..=batch.chunk_hi as usize];
                self.cache.insert_posted(&s.name, chunks);
            }
            // Multicast: every follower joined to this stream receives
            // the same chunks in its own buffer, at its own (identical)
            // clock — one disk read feeds the whole batch of viewers.
            for fid in self.joins.get(&batch.stream.0).into_iter().flatten() {
                let Some(f) = self.streams.get_mut(fid) else {
                    continue;
                };
                if !matches!(f.cache_state,
                    CacheState::Joined { leader } if leader == batch.stream.0)
                    || refused.contains(&f.id)
                {
                    continue;
                }
                let n = post_chunks(f, batch.chunk_lo, batch.chunk_hi, now);
                posted += n;
                if n < whole {
                    refused.push(f.id);
                } else if let Some(c) = f.table.get(batch.chunk_hi) {
                    f.prefetch_cursor = f.prefetch_cursor.max(c.timestamp + c.duration);
                }
            }
        }
        // A refused stream's own later batches are dropped, and it leaves
        // its joins: the refetch would post chunks its followers, or it,
        // already hold.
        for id in refused.drain(..) {
            self.drop_batches(id);
            self.leave_joins(id);
        }
        self.refused = refused;
        self.stats.chunks_posted += posted as u64;
        posted
    }

    /// Phase 2, cache-serve: each running cache-fed stream's next
    /// interval goes straight into the done queue (posting at the next
    /// tick, the same timing a disk fetch would have), with zero disk
    /// commands. Joined followers are fed by phase-1 multicast and only
    /// checked for orphaning. Collects the streams left without a feed
    /// in `misses`.
    fn serve_cached(
        &mut self,
        horizon: Instant,
        rep: &mut IntervalReport,
        misses: &mut FeedMisses,
    ) {
        if !self.cache.enabled() && self.cfg.join_window == Duration::ZERO {
            return;
        }
        for (sid, s) in self.streams.iter_mut() {
            if !s.cache_state.is_cached() || !s.clock.is_running() {
                continue;
            }
            if let CacheState::Joined { leader } = s.cache_state {
                // An orphaned follower (its leader stopped matching)
                // must reserve a feed of its own.
                if !self.joins.get(&leader).is_some_and(|v| v.contains(&sid)) {
                    misses.orphaned.push(sid);
                }
                continue;
            }
            match serve_interval(sid, s, &mut self.cache, &mut self.done, horizon) {
                Some(true) => rep.cache_served_streams += 1,
                // The prefix has drained (or was evicted out from under
                // the stream): reserve-at-drain happens in phase 3.
                Some(false) if matches!(s.cache_state, CacheState::Prefix) => {
                    misses.drained.push(sid)
                }
                // Leader stopped, sought away, or the frame was evicted:
                // the interval is broken. The cursor did not advance, so
                // the plan phase picks the stream up in this same tick.
                Some(false) => misses.broken.push(sid),
                None => {}
            }
        }
    }

    /// Phase 3, drain/dissolve: finds a new feed for every stream phase
    /// 2 left without one.
    fn refeed(
        &mut self,
        misses: &mut FeedMisses,
        now: Instant,
        horizon: Instant,
        rep: &mut IntervalReport,
    ) {
        let FeedMisses {
            broken,
            drained,
            orphaned,
        } = misses;
        for &sid in broken.iter() {
            self.feed(StreamId(sid), FeedEvent::Miss, now);
        }
        for &sid in orphaned.iter() {
            self.feed(StreamId(sid), FeedEvent::Orphaned, now);
        }
        // Reserve-at-drain: each drained deferred stream claims its disk
        // share now. Falling back to the cache window (or parking) keeps
        // it off the spindles; only real disk reservations are journaled.
        for &sid in drained.iter() {
            if self.feed(StreamId(sid), FeedEvent::Miss, now) == Some(Rung::Disk) {
                rep.deferred_reserved.push(sid);
            }
        }
        // A leader that parked above (broken window, failed drain)
        // orphaned its followers into `parked_orphans`; dissolve them
        // in this same tick — the parked leader fetches nothing, so
        // waiting for the next tick's orphan scan would open a one-
        // interval delivery gap for every follower.
        let mut cascade = std::mem::take(&mut self.parked_orphans);
        while !cascade.is_empty() {
            for &sid in &cascade {
                // A follower may have closed since its leader parked.
                if self.streams.contains_key(&sid) {
                    self.feed(StreamId(sid), FeedEvent::Orphaned, now);
                }
            }
            orphaned.extend(cascade);
            cascade = std::mem::take(&mut self.parked_orphans);
        }
        // A stream that fell back to the cache *window* here was already
        // passed over by phase 2. Feed it now: skipping this tick would
        // post its next interval one full period late — a visible frame
        // gap right at the prefix boundary. (Disk-reserving outcomes
        // need nothing here; the plan phase picks them up.)
        for sid in drained.iter().chain(orphaned.iter()).copied() {
            let Some(s) = self.streams.get_mut(&sid) else {
                continue;
            };
            if !s.cache_state.is_cached() || !s.clock.is_running() {
                continue;
            }
            // Reserving a feed leaves a stream on disk or a cache
            // window, never on its resident prefix.
            debug_assert_ne!(
                s.cache_state,
                CacheState::Prefix,
                "stream {sid} re-fed as Prefix"
            );
            match serve_interval(sid, s, &mut self.cache, &mut self.done, horizon) {
                Some(true) => rep.cache_served_streams += 1,
                Some(false) => {
                    self.feed(StreamId(sid), FeedEvent::Miss, now);
                }
                None => {}
            }
        }
    }

    /// Phase 4, plan/steer: plans and issues the next interval's reads
    /// for every running disk-fed stream whose backlog allows it.
    /// Returns each volume's active stream load, for the calculated
    /// I/O time.
    fn plan_reads(
        &mut self,
        now: Instant,
        horizon: Instant,
        rep: &mut IntervalReport,
    ) -> Vec<Load> {
        let t = self.cfg.interval.as_secs_f64();
        let mut active = vec![Load::default(); self.cfg.volumes];
        // Bytes planned per volume so far this interval — the planner's
        // own half of the unified read-steering signal.
        let mut planned = vec![0u64; self.cfg.volumes];
        // The external half, converted to bytes once per tick: each
        // outstanding device command is charged at one full read, and
        // recent completion lag at the spindle's transfer rate.
        let ext_bytes: Vec<f64> = (0..self.cfg.volumes)
            .map(|v| {
                let ext = self.ext_load[v];
                ext.queued as f64 * MAX_READ_BYTES as f64
                    + ext.lag.max(0.0) * self.admission.disk_params().transfer_rate
            })
            .collect();
        // Walk the stream ids in order without collecting them: planning
        // never opens or closes a stream.
        let mut next = self.streams.first_key();
        while let Some(sid) = next {
            next = self.streams.next_key(sid);
            if self.outstanding.get(&sid).copied().unwrap_or(0) >= MAX_OUTSTANDING_BATCHES {
                // The disk is behind for this stream; do not pile on.
                continue;
            }
            let Some(plan) = self.plan_stream(sid, horizon, &planned, &ext_bytes, rep) else {
                continue;
            };
            for r in plan.runs.iter().map(|(_, r)| r).chain(&plan.recon) {
                planned[r.volume.index()] += r.nblocks as u64 * 512;
            }
            for (v, share) in plan.shares.iter().enumerate() {
                if *share > 0.0 {
                    active[v].add(
                        t,
                        &StreamParams::new(plan.params.rate * share, plan.params.chunk),
                    );
                }
            }
            if plan.runs.is_empty() && plan.recon.is_empty() {
                // Every run was dropped as unreconstructible: no batch to
                // wait on (the frames are simply never posted).
                continue;
            }
            self.issue_batch(sid, plan, now, &mut rep.reqs);
        }
        active
    }

    /// Plans one stream's reads up to `horizon` and advances its
    /// pre-fetch cursor. `None` when the stream fetches nothing from
    /// disk this tick (stopped, cache-fed, nothing due, or lost).
    fn plan_stream(
        &mut self,
        sid: u32,
        horizon: Instant,
        planned: &[u64],
        ext_bytes: &[f64],
        rep: &mut IntervalReport,
    ) -> Option<StreamPlan> {
        let s = self.streams.get_mut(&sid).expect("iterating keys");
        // Cache-fed streams were served in phase 2: zero disk commands.
        if !s.clock.is_running() || s.cache_state.is_cached() {
            return None;
        }
        let (target, chunks) = due_chunks(s, horizon)?;
        let span = chunks.first().zip(chunks.last()).map(|(first, last)| {
            let bytes = (first.file_offset, last.file_offset + last.size as u64);
            (first.index, last.index, bytes)
        });
        s.prefetch_cursor = target;
        let (lo, hi, (byte_lo, byte_hi)) = span?;
        // The unified per-spindle load signal, bytes: what this tick has
        // already planned on the volume plus the externally observed
        // device queue and completion lag.
        let load = |v: usize| planned[v] as f64 + ext_bytes[v];
        // Pick the replica to read from. Without a mirror this is the
        // primary map, exactly the pre-redundancy path.
        let mut map_idx = 0usize;
        let mut degraded = false;
        if let Some(m) = &s.mirror {
            let hp = Stream::home_volume(&s.extents);
            let hm = Stream::home_volume(m);
            let p_ok = !self.failed[hp.index()];
            let m_ok = !self.failed[hm.index()];
            map_idx = match (p_ok, m_ok) {
                (true, false) => 0,
                (false, true) => 1,
                // Both live: steer to the spindle the unified load
                // signal says is cheaper (ties favor the primary).
                (true, true) => usize::from(load(hm.index()) < load(hp.index())),
                (false, false) => {
                    // Both replicas dead: nothing can serve the batch.
                    // Drop it at plan time as a lost read — issuing to
                    // the dead primary would just let the error path eat
                    // the batch one read at a time, invisibly.
                    self.stats.lost_reads += 1;
                    rep.lost_streams += 1;
                    return None;
                }
            };
            degraded = map_idx == 1 && !p_ok;
        }
        let map: &[VolumeExtent] = match map_idx {
            0 => &s.extents,
            _ => s.mirror.as_ref().expect("mirror chosen above"),
        };
        let mut runs =
            Stream::split_runs_tagged(Stream::runs_in(map, byte_lo, byte_hi), MAX_READ_BYTES);
        // Parity degraded mode: a run landing on a failed band volume is
        // replaced *at plan time* by the g-1 surviving data+parity reads
        // of its stripes, which join this interval's per-spindle batches
        // (and are swept in cylinder order with everything else). A
        // range whose band has lost a second volume is
        // unreconstructible and is dropped here.
        let mut recon: Vec<VolumeRun> = Vec::new();
        let mut steered = false;
        if let Some(ps) = &s.parity {
            if runs.iter().any(|(_, r)| self.failed[r.volume.index()]) {
                degraded = true;
                let mut kept = Vec::with_capacity(runs.len());
                for (logical, r) in runs {
                    if !self.failed[r.volume.index()] {
                        kept.push((logical, r));
                        continue;
                    }
                    let r_hi = logical + r.nblocks as u64 * 512;
                    match Stream::parity_recon_runs(
                        &s.extents,
                        ps,
                        logical,
                        r_hi,
                        r.volume,
                        &self.failed,
                    ) {
                        Some(rs) => {
                            self.stats.degraded_reads += rs.len() as u64;
                            recon.extend(rs);
                        }
                        None => self.stats.lost_reads += 1,
                    }
                }
                runs = kept;
            }
            // Coded-read steering (DESIGN §17): a run whose home spindle
            // is live but *loaded* may instead be served as the g-1
            // reconstruction fan-out over the band's other members — any
            // g-1 of g suffice — when the fan-out's projected bottleneck
            // undercuts the direct read's by more than the hysteresis
            // margin. Fan-out bytes join `planned` in the caller, so
            // later streams in this tick see their cost.
            if self.cfg.steer_reads {
                let mut kept = Vec::with_capacity(runs.len());
                for (logical, r) in runs {
                    let bytes = r.nblocks as u64 * 512;
                    let direct_peak = load(r.volume.index()) + bytes as f64;
                    let fanout = Stream::steer_recon_runs(
                        &s.extents,
                        ps,
                        logical,
                        logical + bytes,
                        r.volume,
                        &self.failed,
                    )
                    .and_then(|rs| {
                        let mut fan = vec![0u64; self.cfg.volumes];
                        for fr in &rs {
                            fan[fr.volume.index()] += fr.nblocks as u64 * 512;
                        }
                        let peak = fan
                            .iter()
                            .enumerate()
                            .filter(|(_, b)| **b > 0)
                            .map(|(v, b)| load(v) + *b as f64)
                            .fold(0.0f64, f64::max);
                        (peak + STEER_MARGIN_BYTES < direct_peak).then_some(rs)
                    });
                    match fanout {
                        Some(rs) => {
                            self.stats.steered_reads += 1;
                            steered = true;
                            recon.extend(rs);
                        }
                        None => kept.push((logical, r)),
                    }
                }
                runs = kept;
            }
            recon = Stream::split_runs(recon, MAX_READ_BYTES);
        }
        rep.degraded_streams += usize::from(degraded);
        rep.steered_streams += usize::from(steered);
        // A mirrored stream's whole load lands on the chosen replica's
        // volume this interval; non-mirrored streams keep their static
        // per-volume shares.
        let shares = if s.mirror.is_some() {
            let mut v = vec![0.0; self.cfg.volumes];
            v[Stream::home_volume(map).index()] = 1.0;
            v
        } else {
            s.shares.clone()
        };
        Some(StreamPlan {
            runs,
            recon,
            lo,
            hi,
            params: s.params,
            shares,
        })
    }

    /// Registers one planned batch and issues its reads: the direct
    /// runs first, then the reconstruction reads.
    fn issue_batch(&mut self, sid: u32, plan: StreamPlan, now: Instant, reqs: &mut Vec<ReadReq>) {
        let batch = self.next_batch;
        self.next_batch += 1;
        *self.outstanding.entry(sid).or_insert(0) += 1;
        self.pending.insert(
            batch,
            PendingBatch {
                stream: StreamId(sid),
                chunk_lo: plan.lo,
                chunk_hi: plan.hi,
                remaining: plan.runs.len() + plan.recon.len(),
                issued_at: now,
            },
        );
        let direct = plan.runs.into_iter().map(|(logical, r)| (Some(logical), r));
        let recon = plan.recon.into_iter().map(|r| (None, r));
        for (logical, r) in direct.chain(recon) {
            reqs.push(self.issue_read(batch, StreamId(sid), r, logical));
        }
    }

    /// Issues one read of `batch`. `logical` is the first logical byte
    /// of a direct read, which a failure can re-map through another
    /// replica; `None` marks a parity-reconstruction read.
    fn issue_read(
        &mut self,
        batch: u64,
        stream: StreamId,
        r: VolumeRun,
        logical: Option<u64>,
    ) -> ReadReq {
        let id = ReadId(self.next_read);
        self.next_read += 1;
        let bytes = r.nblocks as u64 * 512;
        self.read_info.insert(
            id.0,
            ReadInfo {
                batch,
                byte_lo: logical.unwrap_or(0),
                byte_hi: logical.map_or(0, |l| l + bytes),
                volume: r.volume,
                recon: logical.is_none(),
            },
        );
        self.stats.reads_issued += 1;
        self.stats.bytes_requested += bytes;
        ReadReq {
            id,
            stream,
            volume: r.volume,
            block: r.block,
            nblocks: r.nblocks,
        }
    }

    /// Phase 5, sweep-sort: per volume, C-SCAN continuing from where the
    /// spindle's previous interval left its head (ascending from the
    /// carried position, wrapped blocks last). A plain ascending sort
    /// would restart every interval's sweep at block 0 and pay a
    /// full-stroke seek back per spindle per interval.
    fn sweep_sort(&mut self, reqs: &mut [ReadReq]) {
        reqs.sort_by_key(|r| (r.volume, self.sweep[r.volume.index()].key(r.block)));
        // Carry each spindle's head position: reqs are in issue order,
        // so the last advance per volume wins. Anchor at each request's
        // *start* block — consecutive reads of a stream overlap by one
        // block, so anchoring at the end would mark every follow-on
        // read as wrapped (see [`SweepCursor::advance`]).
        for r in reqs.iter() {
            self.sweep[r.volume.index()].advance(r.block);
        }
    }

    /// I/O-done manager: records a completed read. When a stream's whole
    /// batch is in, it is queued for posting at the next tick; returns
    /// `Some((stream, issued_at))` at that moment.
    pub fn io_done(&mut self, read: ReadId) -> Option<(StreamId, Instant)> {
        let Some(info) = self.read_info.remove(&read.0) else {
            return None; // Stream closed while in flight.
        };
        let batch = self.pending.get_mut(&info.batch)?;
        batch.remaining -= 1;
        if batch.remaining > 0 {
            return None;
        }
        let batch = self.pending.remove(&info.batch).expect("present above");
        self.dec_outstanding(batch.stream.0);
        let result = (batch.stream, batch.issued_at);
        self.done.push(FetchedBatch {
            stream: batch.stream,
            chunk_lo: batch.chunk_lo,
            chunk_hi: batch.chunk_hi,
            from_cache: false,
        });
        Some(result)
    }

    /// Degraded-read fallback: a read came back failed (media error or
    /// volume down). A mirrored stream re-maps the same logical bytes
    /// through a surviving replica; a parity stream replaces the read
    /// with the `g-1` surviving data+parity reads of the stripes it
    /// covered (the XOR of those buffers reconstructs the lost bytes).
    /// The replacement reads are returned for the orchestrator to submit
    /// (real-time class, same batch — the interval deadline still
    /// holds). With no surviving replica — or when the failed read was
    /// itself a reconstruction read, a second failure in the band — the
    /// read is dropped and, once its batch drains, the batch is
    /// discarded unposted: the frames are lost but the stream does not
    /// overrun forever.
    pub fn io_failed(&mut self, read: ReadId) -> Vec<ReadReq> {
        let Some(info) = self.read_info.remove(&read.0) else {
            return Vec::new(); // Stream closed while in flight.
        };
        let Some(sid) = self.pending.get(&info.batch).map(|b| b.stream) else {
            return Vec::new();
        };
        // Each replacement is tagged like a planned read: mirror remaps
        // stay re-mappable (accurate logical tags), parity
        // reconstructions do not (their bytes address survivors' units).
        let runs: Option<Vec<(Option<u64>, VolumeRun)>> = self.streams.get(&sid.0).and_then(|s| {
            if info.recon {
                // A reconstruction read has no further fallback.
                return None;
            }
            if let Some(ps) = &s.parity {
                return Stream::parity_recon_runs(
                    &s.extents,
                    ps,
                    info.byte_lo,
                    info.byte_hi,
                    info.volume,
                    &self.failed,
                )
                .map(|rs| {
                    Stream::split_runs(rs, MAX_READ_BYTES)
                        .into_iter()
                        .map(|r| (None, r))
                        .collect()
                });
            }
            s.replica_maps()
                .find(|m| {
                    let home = Stream::home_volume(m);
                    home != info.volume && !self.failed[home.index()]
                })
                .map(|m| {
                    Stream::split_runs_tagged(
                        Stream::runs_in(m, info.byte_lo, info.byte_hi),
                        MAX_READ_BYTES,
                    )
                    .into_iter()
                    .map(|(logical, r)| (Some(logical), r))
                    .collect()
                })
        });
        match runs {
            Some(runs) if !runs.is_empty() => {
                self.pending
                    .get_mut(&info.batch)
                    .expect("checked above")
                    .remaining += runs.len() - 1;
                self.stats.degraded_reads += runs.len() as u64;
                runs.into_iter()
                    .map(|(logical, r)| self.issue_read(info.batch, sid, r, logical))
                    .collect()
            }
            _ => {
                self.stats.lost_reads += 1;
                let batch = self.pending.get_mut(&info.batch).expect("checked above");
                batch.remaining -= 1;
                if batch.remaining == 0 {
                    self.pending.remove(&info.batch);
                    self.dec_outstanding(sid.0);
                }
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use cras_media::StreamProfile;
    use cras_sim::Rng;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }
    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    /// A 10-second MPEG1-like movie mapped to one contiguous extent.
    fn movie_table(secs: f64) -> (ChunkTable, Vec<Extent>) {
        let mut rng = Rng::new(9);
        let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
        let nblocks = table.total_bytes().div_ceil(512) as u32;
        let extents = vec![Extent {
            file_offset: 0,
            disk_block: 10_000,
            nblocks,
        }];
        (table, extents)
    }

    fn server() -> CrasServer {
        CrasServer::new(DiskParams::paper_table4(), ServerConfig::default())
    }

    fn multi_server(volumes: usize, buffer_budget: u64) -> CrasServer {
        let mut cfg = ServerConfig::default();
        cfg.volumes = volumes;
        cfg.buffer_budget = buffer_budget;
        CrasServer::new(DiskParams::paper_table4(), cfg)
    }

    #[test]
    fn open_admits_and_allocates_buffer() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        // B_i = 2*(0.5*187500 + 6250) = 200 000 (+- f64 rounding of the
        // generated table's worst rate).
        let cap = srv.stream(id).buffer.capacity();
        assert!((199_999..=200_002).contains(&cap), "B_i = {cap}");
        assert_eq!(srv.memory_bytes(), SERVER_FIXED_BYTES + cap);
    }

    #[test]
    fn open_rejects_on_memory() {
        let mut cfg = ServerConfig::default();
        cfg.buffer_budget = 300_000;
        let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
        let (t, e) = movie_table(10.0);
        srv.open(OpenReq::single("a", t.clone(), e.clone()))
            .unwrap();
        let err = srv.open(OpenReq::single("b", t, e));
        assert!(matches!(err, Err(AdmissionError::OutOfMemory { .. })));
    }

    /// `map` with its last extent moved one block further into the
    /// file: the same bytes mapped, but with a one-block hole before the
    /// last extent (a single extent is split in two first).
    fn with_a_gap(mut map: Vec<VolumeExtent>) -> Vec<VolumeExtent> {
        if map.len() == 1 {
            let e = &mut map[0].extent;
            let half = e.nblocks / 2;
            let tail = Extent {
                file_offset: e.file_offset + half as u64 * 512,
                disk_block: e.disk_block + half as u64,
                nblocks: e.nblocks - half,
            };
            e.nblocks = half;
            let volume = map[0].volume;
            map.push(VolumeExtent {
                volume,
                extent: tail,
            });
        }
        map.last_mut().unwrap().extent.file_offset += 512;
        map
    }

    #[test]
    #[should_panic(expected = "primary extent map does not tile its file")]
    fn open_rejects_a_primary_map_with_a_gap() {
        let (t, e) = movie_table(10.0);
        let e = with_a_gap(on_volume(VolumeId(0), e));
        let _ = server().open(OpenReq::new("m", t, e));
    }

    #[test]
    #[should_panic(expected = "mirror extent map does not tile its file")]
    fn open_rejects_a_mirror_map_with_a_gap() {
        let (t, e) = movie_table(10.0);
        let mirror = with_a_gap(on_volume(VolumeId(1), e.clone()));
        let req = OpenReq::new("m", t, on_volume(VolumeId(0), e)).with_mirror(mirror);
        let _ = multi_server(2, 64 << 20).open(req);
    }

    #[test]
    #[should_panic(expected = "parity extent map does not tile its file")]
    fn open_rejects_a_parity_map_with_a_gap() {
        let (t, extents, mut ps) = parity_movie(4, 0, 10.0, 3);
        let v = ps.parity_maps.iter().position(|m| !m.is_empty()).unwrap();
        ps.parity_maps[v] = with_a_gap(std::mem::take(&mut ps.parity_maps[v]));
        let req = OpenReq::new("m", t, extents).with_parity(ps);
        let _ = multi_server(4, 64 << 20).open(req);
    }

    #[test]
    fn open_accepts_the_same_maps_without_the_gap() {
        // The rejections above come from the hole, not from the maps:
        // the same maps without it open. The hole keeps the mapped byte
        // count, so a bound on the summed extent bytes would miss it.
        let (t, e) = movie_table(10.0);
        let mirror = on_volume(VolumeId(1), e.clone());
        let req = OpenReq::new("m", t, on_volume(VolumeId(0), e)).with_mirror(mirror);
        assert!(multi_server(2, 64 << 20).open(req).is_ok());
        let (t, extents, ps) = parity_movie(4, 0, 10.0, 3);
        let req = OpenReq::new("m", t, extents).with_parity(ps);
        assert!(multi_server(4, 64 << 20).open(req).is_ok());
        let gapped = with_a_gap(on_volume(VolumeId(0), movie_table(10.0).1));
        let mapped: u64 = gapped.iter().map(|ve| ve.extent.bytes()).sum();
        assert_eq!(mapped, movie_table(10.0).1[0].bytes());
    }

    #[test]
    fn idle_tick_issues_nothing() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let _id = srv.open(OpenReq::single("m", t, e)).unwrap();
        let rep = srv.interval_tick(at(0));
        assert!(rep.reqs.is_empty());
        assert_eq!(rep.posted_chunks, 0);
        assert!(!rep.overran);
    }

    #[test]
    fn start_then_prefetch_pipeline() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        let begin = srv.start(id, at(0));
        assert_eq!(begin, at(1000)); // 2 intervals of 0.5 s.

        // Tick 0 at t=0: clock starts at 1.0 s; horizon = 1.0 s => media 0.
        let rep0 = srv.interval_tick(at(0));
        assert!(rep0.reqs.is_empty(), "nothing needed yet");

        // Tick 1 at t=0.5: horizon = 1.5 s => media [0, 0.5).
        let rep1 = srv.interval_tick(at(500));
        assert!(!rep1.reqs.is_empty());
        let bytes: u64 = rep1.reqs.iter().map(|r| r.nblocks as u64 * 512).sum();
        // ~0.5 s of 187.5 KB/s, block-rounded.
        assert!((90_000..110_000).contains(&bytes), "bytes = {bytes}");
        // All reads <= 256 KB and sorted by block.
        assert!(rep1
            .reqs
            .iter()
            .all(|r| r.nblocks as u64 * 512 <= 256 * 1024));
        assert!(rep1.reqs.windows(2).all(|w| w[0].block <= w[1].block));
        assert!(rep1.reqs.iter().all(|r| r.volume == VolumeId(0)));

        // Complete them; chunks post at tick 2 and frame 0 is gettable at
        // media time 0 (real time 1.0 s).
        for r in &rep1.reqs {
            srv.io_done(r.id);
        }
        let rep2 = srv.interval_tick(at(1000));
        assert!(rep2.posted_chunks > 0);
        assert!(!rep2.overran);
        let got = srv.get(id, Duration::ZERO).expect("first frame buffered");
        assert_eq!(got.index, 0);
    }

    #[test]
    fn overrun_detected_when_io_lags() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep1 = srv.interval_tick(at(500));
        assert!(!rep1.reqs.is_empty());
        // Do NOT complete the reads: next tick must flag an overrun.
        let rep2 = srv.interval_tick(at(1000));
        assert!(rep2.overran);
        assert_eq!(srv.stats().deadline_misses, 1);
    }

    #[test]
    fn stop_freezes_prefetch() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let r1 = srv.interval_tick(at(500));
        for r in &r1.reqs {
            srv.io_done(r.id);
        }
        srv.stop(id, at(700));
        // Further ticks do not fetch beyond the frozen clock.
        let r2 = srv.interval_tick(at(1000));
        let r3 = srv.interval_tick(at(1500));
        // Clock froze at media 0 (it had not started); horizon stays 0.
        assert!(r2.reqs.is_empty() && r3.reqs.is_empty());
    }

    #[test]
    fn stop_then_restart_resumes_where_it_left_off() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let r1 = srv.interval_tick(at(500));
        for r in &r1.reqs {
            srv.io_done(r.id);
        }
        srv.interval_tick(at(1000));
        let r2 = srv.interval_tick(at(1000));
        for r in &r2.reqs {
            srv.io_done(r.id);
        }
        let cursor_before = srv.stream(id).prefetch_cursor;
        srv.stop(id, at(1100));
        // Paused: no new fetches over several intervals.
        let paused: usize = (3..6)
            .map(|k| srv.interval_tick(at(k * 500)).reqs.len())
            .sum();
        assert_eq!(paused, 0);
        assert_eq!(srv.stream(id).prefetch_cursor, cursor_before);
        // Restart: the clock re-arms (media resumes at its frozen
        // position after the initial delay). Already-prefetched data is
        // reused — no refetch until the horizon passes the cursor...
        srv.start(id, at(3000));
        let resumed_early = srv.interval_tick(at(3500));
        assert!(resumed_early.reqs.is_empty(), "buffered data is reused");
        // ...then fetching continues from the frozen cursor, not zero.
        let resumed = srv.interval_tick(at(4500));
        assert!(!resumed.reqs.is_empty());
        assert!(srv.stream(id).prefetch_cursor > cursor_before);
    }

    #[test]
    fn seek_clears_buffer_and_refetches() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let r1 = srv.interval_tick(at(500));
        for r in &r1.reqs {
            srv.io_done(r.id);
        }
        srv.interval_tick(at(1000)); // Posts media [0, 0.5).
        assert!(srv.get(id, Duration::ZERO).is_some());
        srv.seek(id, at(1100), Duration::from_secs(5));
        assert!(srv.stream(id).buffer.is_empty());
        // Next tick prefetches from 5 s.
        let r = srv.interval_tick(at(1500));
        assert!(!r.reqs.is_empty());
        // The refetched range starts at ~5 s into the file:
        // 5 s * 187 500 B/s / 512 B ≈ block 1831 after the extent start.
        let min_block = r.reqs.iter().map(|q| q.block).min().unwrap();
        assert!(min_block >= 10_000 + 1700, "min block = {min_block}");
    }

    #[test]
    fn seek_orphans_inflight_batches() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let r1 = srv.interval_tick(at(500));
        assert!(!r1.reqs.is_empty());
        // Seek while the interval's reads are still in flight.
        srv.seek(id, at(600), Duration::from_secs(5));
        for r in &r1.reqs {
            assert!(srv.io_done(r.id).is_none(), "stale read must be orphaned");
        }
        // The next tick posts nothing stale and refetches from 5 s.
        let r2 = srv.interval_tick(at(1000));
        assert_eq!(r2.posted_chunks, 0);
        assert!(!r2.overran, "orphaned batches are not overruns");
        assert!(!r2.reqs.is_empty());
    }

    #[test]
    fn prefetch_stops_at_end_of_movie() {
        let mut srv = server();
        let (t, e) = movie_table(1.0); // 1-second movie.
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        let mut total_bytes = 0u64;
        for k in 0..10u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                total_bytes += r.nblocks as u64 * 512;
                srv.io_done(r.id);
            }
        }
        // Only ~1 s of data (187.5 KB) ever fetched, rounded to blocks.
        assert!(total_bytes < 200_000, "fetched {total_bytes}");
        let s = srv.stream(id);
        assert_eq!(s.prefetch_cursor, s.table.total_duration());
    }

    #[test]
    fn close_orphans_inflight_io() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let r1 = srv.interval_tick(at(500));
        assert!(!r1.reqs.is_empty());
        srv.close(id);
        // Completions for the closed stream are ignored.
        for r in &r1.reqs {
            assert!(srv.io_done(r.id).is_none());
        }
        assert_eq!(srv.stream_count(), 0);
        let rep = srv.interval_tick(at(1000));
        assert_eq!(rep.posted_chunks, 0);
        assert!(!rep.overran);
    }

    #[test]
    fn set_rate_readmits() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.set_rate(id, at(0), 2.0).unwrap();
        assert!((srv.stream(id).params.rate - 375_000.0).abs() < 1.0);
        // Buffer regrown for the doubled rate.
        assert!(srv.stream(id).buffer.capacity() > 200_000);
        // Returning to normal speed shrinks it back to the admitted size.
        srv.set_rate(id, at(0), 1.0).unwrap();
        assert!(
            (199_999..=200_002).contains(&srv.stream(id).buffer.capacity()),
            "capacity {}",
            srv.stream(id).buffer.capacity()
        );
        srv.set_rate(id, at(0), 2.0).unwrap();
        // An absurd rate is rejected and leaves state intact.
        let err = srv.set_rate(id, at(0), 100.0);
        assert!(err.is_err());
        assert!((srv.stream(id).params.rate - 375_000.0).abs() < 1.0);
    }

    /// Runs one tick at `now` and completes every read it issued.
    fn tick_and_complete(srv: &mut CrasServer, now: Instant) {
        let rep = srv.interval_tick(now);
        for r in &rep.reqs {
            srv.io_done(r.id);
        }
    }

    /// Asserts a stream's buffer fits its capacity and holds every chunk
    /// between its first and last buffered timestamps.
    fn assert_buffer_whole(s: &Stream) {
        assert!(s.buffer.bytes() <= s.buffer.capacity());
        let (Some(lo), Some(hi)) = (s.buffer.first_timestamp(), s.buffer.last_timestamp()) else {
            return;
        };
        for c in s.table.chunks_in(lo, hi) {
            assert!(
                s.buffer.peek(c.timestamp).is_some(),
                "gap at {:?}",
                c.timestamp
            );
        }
    }

    #[test]
    fn stop_or_park_right_after_a_tick_posts_only_what_fits() {
        for park in [false, true] {
            let mut srv = server();
            let (t, e) = movie_table(30.0);
            let id = srv.open(OpenReq::single("m", t, e)).unwrap();
            srv.start(id, at(0));
            for k in 0..=5 {
                tick_and_complete(&mut srv, at(k * 500));
            }
            if park {
                assert!(srv.park(id, at(2500)));
            } else {
                srv.stop(id, at(2500));
            }
            // The frozen clock keeps about 2T + J of data, more than the
            // 2A buffer holds: the next tick posts what fits and rewinds
            // the cursor to the first chunk left out.
            tick_and_complete(&mut srv, at(3000));
            let s = srv.stream(id);
            assert_buffer_whole(s);
            let rewound = s.prefetch_cursor;
            let last = s.buffer.last_timestamp().unwrap();
            assert_eq!(
                s.buffer.peek(last).map(|c| c.timestamp + c.duration),
                Some(rewound)
            );
            // A restart fetches the rewound chunk again.
            if park {
                assert!(srv.resume(id, at(3500)).is_some());
            } else {
                srv.start(id, at(3500));
            }
            let mut refetched = false;
            for k in 7..=16 {
                tick_and_complete(&mut srv, at(k * 500));
                let s = srv.stream(id);
                assert_buffer_whole(s);
                refetched |= s.buffer.peek(rewound).is_some();
            }
            assert!(refetched, "park={park}");
            assert!(srv.stream(id).prefetch_cursor > rewound);
        }
    }

    #[test]
    fn lowering_the_rate_with_a_faster_batch_in_flight_posts_only_what_fits() {
        let mut srv = server();
        let (t, e) = movie_table(30.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        for k in 0..=4 {
            tick_and_complete(&mut srv, at(k * 500));
        }
        srv.set_rate(id, at(2250), 2.0).unwrap();
        tick_and_complete(&mut srv, at(2500));
        // The buffer shrinks back to 2A under a batch fetched at twice
        // the rate.
        srv.set_rate(id, at(2750), 1.0).unwrap();
        for k in 6..=16 {
            tick_and_complete(&mut srv, at(k * 500));
            assert_buffer_whole(srv.stream(id));
        }
        assert!(srv.stream(id).prefetch_cursor > Duration::from_secs(7));
    }

    /// The feed state machine's cross-structure invariants: cache
    /// reservations match the streams' states, every join list names
    /// open streams joined to that open leader, the disk-charged set
    /// passes admission, and the cache's own bookkeeping holds.
    fn assert_feed_invariants(srv: &CrasServer, ctx: &str) {
        srv.cache.check_invariants();
        let reserved: u64 = srv.streams.values().map(|s| s.cache_state.reserved()).sum();
        assert_eq!(srv.cache.reserved(), reserved, "{ctx}: cache reservations");
        for (leader, followers) in &srv.joins {
            assert!(
                srv.streams.contains_key(leader),
                "{ctx}: leader {leader} closed"
            );
            for f in followers {
                let s = srv.streams.get(f);
                assert!(
                    s.is_some_and(|s| s.cache_state == CacheState::Joined { leader: *leader }),
                    "{ctx}: follower {f} of {leader} is {:?}",
                    s.map(|s| s.cache_state)
                );
            }
        }
        assert!(
            srv.admit_with(None, None).is_ok(),
            "{ctx}: disk set over capacity"
        );
    }

    #[test]
    fn random_ops_never_panic_and_keep_the_feed_invariants() {
        // Every public stream operation at random, both at the tick
        // instant and mid-interval, with the cache budget, prefix
        // residency, hot set and join window all on. Reads complete at
        // the next tick.
        let (table, extents) = movie_table(20.0);
        for seed in 0..40u64 {
            let mut rng = Rng::new(seed);
            let mut cfg = ServerConfig::default();
            cfg.buffer_budget = 3 << 20;
            cfg.cache_budget = 6 << 20;
            cfg.prefix_secs = Duration::from_secs(2);
            cfg.hot_set = 1;
            cfg.join_window = ms(1000);
            let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
            // Open streams and whether each was started.
            let mut open: Vec<(StreamId, bool)> = Vec::new();
            let mut reads: Vec<ReadId> = Vec::new();
            let mut ops = 0;
            for k in 0u64.. {
                if ops >= 300 {
                    break;
                }
                for r in reads.drain(..) {
                    srv.io_done(r);
                }
                let tick = at(k * 500);
                reads = srv.interval_tick(tick).reqs.iter().map(|r| r.id).collect();
                assert_feed_invariants(&srv, &format!("seed {seed} tick {k}"));
                for now in [tick, tick + ms(250)] {
                    for _ in 0..rng.below(3) {
                        ops += 1;
                        let i = rng.below(open.len().max(1) as u64) as usize;
                        match rng.below(10) {
                            op @ (2..=9) if !open.is_empty() => {
                                let id = open[i].0;
                                match op {
                                    2 | 3 if !open[i].1 => {
                                        srv.start(id, now);
                                        open[i].1 = true;
                                    }
                                    4 => srv.stop(id, now),
                                    5 => srv.seek(id, now, ms(rng.below(19_000))),
                                    6 => {
                                        let rate = [0.5, 1.0, 2.0][rng.below(3) as usize];
                                        let _ = srv.set_rate(id, now, rate);
                                    }
                                    7 => {
                                        srv.park(id, now);
                                    }
                                    8 => {
                                        srv.resume(id, now);
                                    }
                                    9 => srv.close(open.swap_remove(i).0),
                                    _ => {}
                                }
                            }
                            _ => {
                                let name = ["a", "b"][rng.below(2) as usize];
                                let req = OpenReq::single(name, table.clone(), extents.clone());
                                if let Ok(id) = srv.open(req) {
                                    open.push((id, false));
                                }
                            }
                        }
                        assert_feed_invariants(&srv, &format!("seed {seed} op {ops}"));
                    }
                }
            }
        }
    }

    #[test]
    fn stream_report_reflects_state() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        let r0 = srv.stream_report(id);
        assert!(!r0.running);
        assert_eq!(r0.buffer_bytes, 0);
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        for r in &rep.reqs {
            srv.io_done(r.id);
        }
        srv.interval_tick(at(1000));
        let r1 = srv.stream_report(id);
        assert!(r1.running);
        assert!(r1.buffer_bytes > 0);
        assert!(r1.prefetch_cursor > Duration::ZERO);
        assert!(r1.buffer.puts > 0);
    }

    #[test]
    fn calculated_io_time_reported_when_active() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(rep.calculated_io_time > 0.0);
        assert!(rep.calculated_io_time < 0.5);
        assert_eq!(rep.per_volume_calculated.len(), 1);
        assert_eq!(rep.per_volume_calculated[0], rep.calculated_io_time);
        let _ = id;
    }

    /// The movie-table extents wrapped onto one chosen volume.
    fn movie_on(volume: u32, secs: f64) -> (ChunkTable, Vec<VolumeExtent>) {
        let (t, e) = movie_table(secs);
        (t, on_volume(VolumeId(volume), e))
    }

    #[test]
    fn place_next_round_robins() {
        let mut srv = multi_server(3, 8 << 20);
        let picks: Vec<u32> = (0..7).map(|_| srv.place_next().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn two_volumes_admit_at_least_double() {
        // Disk-bound capacity (ample memory): each spindle admits its
        // own full complement, so two volumes fit >= 2x the streams.
        let count = |volumes: usize| {
            let mut srv = multi_server(volumes, 1 << 40);
            let mut n = 0u32;
            loop {
                let (t, e) = movie_on(n % volumes as u32, 10.0);
                if srv.open(OpenReq::new(&format!("m{n}"), t, e)).is_err() {
                    return n;
                }
                n += 1;
            }
        };
        let one = count(1);
        let two = count(2);
        assert!(one > 0);
        assert!(two >= 2 * one, "N=1 admits {one}, N=2 admits {two}");
    }

    #[test]
    fn admission_tests_bottleneck_volume() {
        // Pile every movie on volume 0 of a 2-volume server: capacity
        // must equal the single-disk capacity — the idle spindle buys
        // nothing for streams that do not live on it.
        let mut single = multi_server(1, 1 << 40);
        let mut lopsided = multi_server(2, 1 << 40);
        let mut n_single = 0u32;
        loop {
            let (t, e) = movie_on(0, 10.0);
            if single
                .open(OpenReq::new(&format!("s{n_single}"), t, e))
                .is_err()
            {
                break;
            }
            n_single += 1;
        }
        let mut n_lop = 0u32;
        loop {
            let (t, e) = movie_on(0, 10.0);
            if lopsided
                .open(OpenReq::new(&format!("l{n_lop}"), t, e))
                .is_err()
            {
                break;
            }
            n_lop += 1;
        }
        assert_eq!(n_single, n_lop);
    }

    #[test]
    fn close_frees_capacity_on_its_volume() {
        let mut srv = multi_server(2, 1 << 40);
        // Fill volume 0 to its brim.
        let mut ids = Vec::new();
        loop {
            let (t, e) = movie_on(0, 10.0);
            match srv.open(OpenReq::new("v0", t, e)) {
                Ok(id) => ids.push(id),
                Err(_) => break,
            }
        }
        // Volume 0 is full; volume 1 still admits...
        let (t, e) = movie_on(0, 10.0);
        assert!(srv.open(OpenReq::new("extra0", t, e)).is_err());
        let (t, e) = movie_on(1, 10.0);
        let on1 = srv.open(OpenReq::new("extra1", t, e)).unwrap();
        // ...and closing a volume-0 stream reopens volume-0 capacity.
        srv.close(*ids.first().expect("admitted at least one"));
        let (t, e) = movie_on(0, 10.0);
        assert!(srv.open(OpenReq::new("refill0", t, e)).is_ok());
        srv.close(on1);
    }

    #[test]
    fn striped_stream_spreads_admission_load() {
        // One movie split evenly across both volumes charges each
        // spindle half its rate, so a 2-volume server fits more striped
        // streams than one disk fits whole ones — but fewer than 2x,
        // because every striped stream pays seek/command overhead on
        // BOTH spindles (the real cost of striping).
        let striped = |srv: &mut CrasServer, n: u32| {
            let (t, e) = movie_table(10.0);
            let half = e[0].nblocks / 2;
            let extents = vec![
                VolumeExtent {
                    volume: VolumeId(0),
                    extent: Extent {
                        file_offset: 0,
                        disk_block: 10_000,
                        nblocks: half,
                    },
                },
                VolumeExtent {
                    volume: VolumeId(1),
                    extent: Extent {
                        file_offset: half as u64 * 512,
                        disk_block: 10_000,
                        nblocks: e[0].nblocks - half,
                    },
                },
            ];
            srv.open(OpenReq::new(&format!("st{n}"), t, extents))
        };
        let mut whole = multi_server(1, 1 << 40);
        let mut n_whole = 0u32;
        loop {
            let (t, e) = movie_on(0, 10.0);
            if whole
                .open(OpenReq::new(&format!("w{n_whole}"), t, e))
                .is_err()
            {
                break;
            }
            n_whole += 1;
        }
        let mut srv = multi_server(2, 1 << 40);
        let mut n_striped = 0u32;
        while striped(&mut srv, n_striped).is_ok() {
            n_striped += 1;
        }
        assert!(
            n_striped > n_whole && n_striped <= 2 * n_whole,
            "whole {n_whole}, striped {n_striped}"
        );
    }

    /// The movie-table extents as a mirrored pair: primary on `p`,
    /// mirror (different disk blocks) on `m`.
    fn mirrored_movie(
        p: u32,
        m: u32,
        secs: f64,
    ) -> (ChunkTable, Vec<VolumeExtent>, Vec<VolumeExtent>) {
        let (t, e) = movie_table(secs);
        let primary = on_volume(VolumeId(p), e.clone());
        let mirror = on_volume(
            VolumeId(m),
            e.into_iter()
                .map(|mut x| {
                    x.disk_block += 50_000;
                    x
                })
                .collect(),
        );
        (t, primary, mirror)
    }

    #[test]
    fn place_next_pair_never_colocates_and_skips_failed() {
        let mut srv = multi_server(4, 8 << 20);
        for _ in 0..16 {
            let (p, m) = srv.place_next_pair();
            assert_ne!(p, m);
        }
        srv.set_volume_failed(VolumeId(2), true);
        for _ in 0..16 {
            let (p, m) = srv.place_next_pair();
            assert_ne!(p, m);
            assert_ne!(p, VolumeId(2));
            assert_ne!(m, VolumeId(2));
        }
    }

    #[test]
    fn mirrored_admission_charges_both_replicas_in_full() {
        // A 2-volume mirrored server admits exactly what one disk does:
        // every stream charges the full rate to both spindles.
        let single = {
            let mut srv = multi_server(1, 1 << 40);
            let mut n = 0u32;
            loop {
                let (t, e) = movie_on(0, 10.0);
                if srv.open(OpenReq::new(&format!("s{n}"), t, e)).is_err() {
                    break;
                }
                n += 1;
            }
            n
        };
        let mut srv = multi_server(2, 1 << 40);
        let mut n = 0u32;
        loop {
            let (p, m) = srv.place_next_pair();
            let (t, pri, mir) = mirrored_movie(p.0, m.0, 10.0);
            if srv
                .open(OpenReq::new(&format!("m{n}"), t, pri).with_mirror(mir))
                .is_err()
            {
                break;
            }
            n += 1;
        }
        assert_eq!(n, single, "mirrored N=2 capacity = single-disk capacity");
    }

    #[test]
    fn steering_balances_replicas_when_both_live() {
        let mut srv = multi_server(2, 8 << 20);
        let (t, pri, mir) = mirrored_movie(0, 1, 10.0);
        let id = srv
            .open(OpenReq::new("m", t, pri).with_mirror(mir))
            .unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(!rep.reqs.is_empty());
        // With nothing else planned, the tie goes to the primary.
        assert!(rep.reqs.iter().all(|r| r.volume == VolumeId(0)));
        assert_eq!(rep.degraded_streams, 0);
        // A second mirrored stream opened the other way round lands on
        // its primary too; steering splits load when volumes are uneven.
        let (t2, pri2, mir2) = mirrored_movie(1, 0, 10.0);
        let id2 = srv
            .open(OpenReq::new("m2", t2, pri2).with_mirror(mir2))
            .unwrap();
        srv.start(id2, at(500));
        let _ = id2;
    }

    #[test]
    fn degraded_read_remaps_to_mirror_and_still_posts() {
        let mut srv = multi_server(2, 8 << 20);
        let (t, pri, mir) = mirrored_movie(0, 1, 10.0);
        let id = srv
            .open(OpenReq::new("m", t, pri).with_mirror(mir))
            .unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(rep.reqs.iter().all(|r| r.volume == VolumeId(0)));
        // Volume 0 dies with the interval's reads in flight: each read
        // fails and is re-mapped to the same logical bytes on volume 1.
        srv.set_volume_failed(VolumeId(0), true);
        let mut remapped = Vec::new();
        for r in &rep.reqs {
            remapped.extend(srv.io_failed(r.id));
        }
        assert!(!remapped.is_empty());
        assert!(remapped.iter().all(|r| r.volume == VolumeId(1)));
        // The mirror copy lives 50 000 blocks up: same data, other disk.
        let total_pri: u64 = rep.reqs.iter().map(|r| r.nblocks as u64).sum();
        let total_mir: u64 = remapped.iter().map(|r| r.nblocks as u64).sum();
        assert_eq!(total_pri, total_mir);
        assert_eq!(srv.stats().degraded_reads, remapped.len() as u64);
        // Completing the remapped reads posts the batch: no overrun.
        for r in &remapped {
            srv.io_done(r.id);
        }
        let rep2 = srv.interval_tick(at(1000));
        assert!(!rep2.overran, "remapped batch met its deadline");
        assert!(rep2.posted_chunks > 0);
        // Subsequent intervals read from the mirror directly (degraded).
        let rep3 = srv.interval_tick(at(1500));
        assert!(rep3.reqs.iter().all(|r| r.volume == VolumeId(1)));
        assert_eq!(rep3.degraded_streams, 1);
    }

    #[test]
    fn hot_primary_steers_mirrored_reads_to_the_mirror() {
        // Mirrored steering rides the same unified load signal as the
        // parity path: a deep reported queue on the primary flips the
        // whole interval's reads onto the replica.
        let mut srv = multi_server(2, 8 << 20);
        let (t, pri, mir) = mirrored_movie(0, 1, 10.0);
        let id = srv
            .open(OpenReq::new("m", t, pri).with_mirror(mir))
            .unwrap();
        srv.start(id, at(0));
        let mut loads = vec![VolumeLoad::default(); 2];
        loads[0] = VolumeLoad {
            queued: 50,
            lag: 0.0,
        };
        srv.set_volume_loads(&loads);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(!rep.reqs.is_empty());
        assert!(rep.reqs.iter().all(|r| r.volume == VolumeId(1)));
        assert_eq!(rep.degraded_streams, 0);
    }

    #[test]
    fn mirrored_stream_with_both_replicas_dead_drops_at_plan_time() {
        // Before the fix this planned reads against the dead primary
        // and the batch silently rotted in `pending`. Now the plan
        // pass drops it, counts it, and reports it.
        let mut srv = multi_server(2, 8 << 20);
        let (t, pri, mir) = mirrored_movie(0, 1, 10.0);
        let id = srv
            .open(OpenReq::new("m", t, pri).with_mirror(mir))
            .unwrap();
        srv.start(id, at(0));
        srv.set_volume_failed(VolumeId(0), true);
        srv.set_volume_failed(VolumeId(1), true);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(rep.reqs.is_empty(), "no read may be issued to dead volumes");
        assert_eq!(rep.lost_streams, 1);
        assert_eq!(srv.stats().lost_reads, 1);
        // Nothing is stuck: the next tick drops again instead of
        // tripping the outstanding-batch cap.
        let rep2 = srv.interval_tick(at(1000));
        assert!(rep2.reqs.is_empty());
        assert_eq!(rep2.lost_streams, 1);
        assert!(!rep2.overran);
    }

    #[test]
    fn outstanding_batch_cap_pauses_and_resumes_planning() {
        // The per-stream counter must mirror `pending` exactly: two
        // unfinished batches stall the stream, one completion revives
        // it, and close clears the count.
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep1 = srv.interval_tick(at(500));
        assert!(!rep1.reqs.is_empty());
        let rep2 = srv.interval_tick(at(1000));
        assert!(!rep2.reqs.is_empty());
        // Two batches outstanding (cap): the stream is skipped.
        let rep3 = srv.interval_tick(at(1500));
        assert!(rep3.reqs.is_empty(), "stream at cap must not plan");
        // Completing the first batch frees a slot.
        for r in &rep1.reqs {
            srv.io_done(r.id);
        }
        let rep4 = srv.interval_tick(at(2000));
        assert!(!rep4.reqs.is_empty(), "completion must resume planning");
        srv.close(id);
        assert!(srv.interval_tick(at(2500)).reqs.is_empty());
    }

    #[test]
    fn failed_read_without_replica_drops_batch() {
        let mut srv = server();
        let (t, e) = movie_table(10.0);
        let id = srv.open(OpenReq::single("m", t, e)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(!rep.reqs.is_empty());
        srv.set_volume_failed(VolumeId(0), true);
        for r in &rep.reqs {
            assert!(srv.io_failed(r.id).is_empty(), "no replica to remap to");
        }
        assert_eq!(srv.stats().lost_reads, rep.reqs.len() as u64);
        // The batch is dropped, not stuck: no overrun, nothing posted.
        let rep2 = srv.interval_tick(at(1000));
        assert!(!rep2.overran);
        assert_eq!(rep2.posted_chunks, 0);
    }

    #[test]
    fn degraded_capacity_recovers_after_volume_restore() {
        // Capacity drops (or holds) when a volume fails and returns to
        // exactly the pre-failure count when rebuild restores it.
        let count = |srv: &mut CrasServer| {
            let mut ids = Vec::new();
            loop {
                let (p, m) = srv.place_next_pair();
                let (t, pri, mir) = mirrored_movie(p.0, m.0, 10.0);
                match srv.open(OpenReq::new("c", t, pri).with_mirror(mir)) {
                    Ok(id) => ids.push(id),
                    Err(_) => break,
                }
            }
            for id in &ids {
                srv.close(*id);
            }
            ids.len()
        };
        let mut srv = multi_server(4, 1 << 40);
        let before = count(&mut srv);
        srv.set_volume_failed(VolumeId(1), true);
        let during = count(&mut srv);
        assert!(during <= before, "degraded capacity must not grow");
        srv.set_volume_failed(VolumeId(1), false);
        let after = count(&mut srv);
        assert_eq!(after, before, "restore must return exact capacity");
    }

    #[test]
    fn open_rejects_when_all_replicas_are_failed() {
        let mut srv = multi_server(2, 1 << 40);
        srv.set_volume_failed(VolumeId(0), true);
        let (t, e) = movie_on(0, 10.0);
        let err = srv.open(OpenReq::new("dead", t, e));
        assert!(matches!(err, Err(AdmissionError::VolumeFailed)));
        // A mirrored stream with one live replica is still admitted.
        let (t, pri, mir) = mirrored_movie(0, 1, 10.0);
        assert!(srv
            .open(OpenReq::new("half", t, pri).with_mirror(mir))
            .is_ok());
    }

    #[test]
    fn reads_sort_by_volume_then_block() {
        let mut srv = multi_server(2, 8 << 20);
        let (t0, e0) = movie_on(1, 10.0); // Volume 1 first by open order...
        let (t1, e1) = movie_on(0, 10.0);
        let a = srv.open(OpenReq::new("on1", t0, e0)).unwrap();
        let b = srv.open(OpenReq::new("on0", t1, e1)).unwrap();
        srv.start(a, at(0));
        srv.start(b, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(rep.reqs.len() >= 2);
        // ...but requests come back grouped volume 0 before volume 1.
        assert!(rep
            .reqs
            .windows(2)
            .all(|w| (w[0].volume, w[0].block) <= (w[1].volume, w[1].block)));
        assert_eq!(rep.reqs.first().unwrap().volume, VolumeId(0));
        assert_eq!(rep.reqs.last().unwrap().volume, VolumeId(1));
        // Both volumes were active, and the bottleneck is their max.
        assert_eq!(rep.per_volume_calculated.len(), 2);
        assert!(rep.per_volume_calculated.iter().all(|&c| c > 0.0));
        let max = rep
            .per_volume_calculated
            .iter()
            .copied()
            .fold(0.0, f64::max);
        assert_eq!(rep.calculated_io_time, max);
        // volume_batches partitions the same reads per volume, in order.
        let batches: Vec<(VolumeId, Vec<ReadReq>)> =
            rep.volume_batches().map(|(v, b)| (v, b.to_vec())).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, VolumeId(0));
        assert_eq!(batches[1].0, VolumeId(1));
        let concat: Vec<ReadReq> = batches.into_iter().flat_map(|(_, b)| b).collect();
        assert_eq!(concat, rep.reqs, "batches cover the reads exactly once");
    }

    #[test]
    fn bottleneck_time_is_a_total_order_max() {
        assert_eq!(bottleneck_time(&[]), 0.0, "no active volumes");
        assert_eq!(bottleneck_time(&[0.0, 0.0]), 0.0);
        assert_eq!(bottleneck_time(&[0.1, 0.35, 0.2]), 0.35);
        // Negative zero must not beat positive values (total order).
        assert_eq!(bottleneck_time(&[-0.0, 0.25]), 0.25);
    }

    #[test]
    #[should_panic(expected = "calculated I/O time is NaN")]
    fn bottleneck_time_rejects_nan() {
        // The old `fold(0.0, f64::max)` silently returned 0.1 here,
        // hiding a poisoned admission computation.
        bottleneck_time(&[0.1, f64::NAN]);
    }

    #[test]
    fn sweep_order_carries_head_position_across_intervals() {
        // Two streams far apart on one spindle. Restarting the C-SCAN
        // sweep at block 0 every interval pays two full strokes per
        // interval (out to the far stream and back); carrying the head
        // position turns that into about one stroke per interval,
        // alternating direction of entry.
        let mut srv = server();
        let (ta, ea) = movie_table(10.0); // Extent at block 10_000.
        let tb = ta.clone();
        let eb = vec![Extent {
            file_offset: 0,
            disk_block: 400_000,
            nblocks: ea[0].nblocks,
        }];
        let a = srv.open(OpenReq::single("near", ta, ea)).unwrap();
        let b = srv.open(OpenReq::single("far", tb, eb)).unwrap();
        srv.start(a, at(0));
        srv.start(b, at(0));
        srv.interval_tick(at(0));
        let (mut head, mut naive_head) = (0u64, 0u64);
        let (mut swept, mut naive) = (0u64, 0u64);
        for k in 1..8u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            if rep.reqs.is_empty() {
                continue;
            }
            let blocks: Vec<u64> = rep.reqs.iter().map(|r| r.block).collect();
            swept += cras_disk::modeled_travel(head, &blocks);
            let last = rep.reqs.last().unwrap();
            head = last.block + last.nblocks as u64;
            // Baseline: the old `(volume, block)` ascending sort.
            let mut sorted = blocks.clone();
            sorted.sort_unstable();
            naive += cras_disk::modeled_travel(naive_head, &sorted);
            naive_head = *sorted.last().unwrap();
        }
        assert!(swept > 0 && naive > 0, "streams issued reads");
        assert!(
            (swept as f64) < 0.75 * naive as f64,
            "sweep travel {swept} should clearly beat ascending-from-0 {naive}"
        );
    }

    fn cache_server(cache_budget: u64, buffer_budget: u64) -> CrasServer {
        let mut cfg = ServerConfig::default();
        cfg.cache_budget = cache_budget;
        cfg.buffer_budget = buffer_budget;
        CrasServer::new(DiskParams::paper_table4(), cfg)
    }

    /// Opens and starts a leader of `name` at t=0, then drives `ticks`
    /// intervals completing every read — the cache ends up holding the
    /// leader's posted window.
    fn warm_leader(srv: &mut CrasServer, name: &str, ticks: u64) -> StreamId {
        let (t, e) = movie_table(30.0);
        let id = srv.open(OpenReq::single(name, t, e)).unwrap();
        srv.start(id, at(0));
        for k in 0..ticks {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        id
    }

    #[test]
    fn trailing_stream_is_served_from_cache_with_zero_disk_reads() {
        let mut srv = cache_server(8 << 20, 8 << 20);
        let _leader = warm_leader(&mut srv, "pop", 6);
        // The leader's posted window spans media [0, ~2 s): a second
        // client of the same title attaches to the cache at open.
        let (t, e) = movie_table(30.0);
        let follower = srv.open(OpenReq::single("pop", t, e)).unwrap();
        assert!(srv.stream(follower).cache_state.is_cached());
        srv.start(follower, at(2600));
        let mut follower_reqs = 0usize;
        let mut cache_served = 0usize;
        for k in 6..16u64 {
            let rep = srv.interval_tick(at(k * 500));
            follower_reqs += rep.reqs.iter().filter(|r| r.stream == follower).count();
            cache_served += rep.cache_served_streams;
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            assert!(!rep.overran);
        }
        assert_eq!(follower_reqs, 0, "cached follower never touches the disk");
        assert!(cache_served > 0);
        assert!(srv.cache().stats().hit_bytes > 0);
        // The cache path really feeds the follower's ring.
        assert!(srv.stream_report(follower).buffer.puts > 0);
    }

    #[test]
    fn cache_admits_trailing_stream_past_disk_bound() {
        let mut srv = cache_server(64 << 20, 1 << 40);
        let _leader = warm_leader(&mut srv, "pop", 6);
        // Exhaust the disk-time bound with cold titles.
        let mut fillers = 0u32;
        loop {
            let (t, e) = movie_table(30.0);
            if srv
                .open(OpenReq::single(&format!("f{fillers}"), t, e))
                .is_err()
            {
                break;
            }
            fillers += 1;
        }
        assert!(fillers > 0);
        // A trailing stream of the hot title still gets in — admitted
        // against the cache budget, charging the spindle nothing.
        let (t, e) = movie_table(30.0);
        let follower = srv
            .open(OpenReq::single("pop", t, e))
            .expect("cache-admitted");
        assert!(matches!(
            srv.stream(follower).cache_state,
            CacheState::Admitted { .. }
        ));
        assert!(srv.cache().reserved() > 0);
        assert_eq!(srv.cache().stats().cache_admitted_streams, 1);
        // The disk bound is genuinely still exhausted for cold titles.
        let (t, e) = movie_table(30.0);
        assert!(srv.open(OpenReq::single("cold", t, e)).is_err());
    }

    #[test]
    fn leader_stop_breaks_interval_and_falls_back_to_disk() {
        let mut srv = cache_server(8 << 20, 8 << 20);
        let leader = warm_leader(&mut srv, "pop", 6);
        let (t, e) = movie_table(30.0);
        let follower = srv.open(OpenReq::single("pop", t, e)).unwrap();
        assert!(srv.stream(follower).cache_state.is_cached());
        srv.start(follower, at(2600));
        for k in 6..8u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        // The leader stops: the frontier freezes, the follower drains
        // what is pinned, then the interval breaks.
        srv.stop(leader, at(4000));
        let mut follower_reqs = 0usize;
        for k in 8..20u64 {
            let rep = srv.interval_tick(at(k * 500));
            follower_reqs += rep.reqs.iter().filter(|r| r.stream == follower).count();
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            assert!(!rep.overran, "fallback to disk must not miss deadlines");
        }
        assert!(srv.cache().stats().interval_breaks >= 1);
        assert!(matches!(srv.stream(follower).cache_state, CacheState::Disk));
        assert!(follower_reqs > 0, "broken follower reads from disk again");
        assert_eq!(srv.cache().pinned_frames(), 0);
    }

    #[test]
    fn broken_cache_admission_is_rejected_when_disk_is_full() {
        let mut srv = cache_server(64 << 20, 1 << 40);
        let leader = warm_leader(&mut srv, "pop", 6);
        let mut fillers = 0u32;
        loop {
            let (t, e) = movie_table(30.0);
            if srv
                .open(OpenReq::single(&format!("f{fillers}"), t, e))
                .is_err()
            {
                break;
            }
            fillers += 1;
        }
        let (t, e) = movie_table(30.0);
        let follower = srv
            .open(OpenReq::single("pop", t, e))
            .expect("cache-admitted");
        srv.start(follower, at(2600));
        for k in 6..8u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        srv.stop(leader, at(4000));
        for k in 8..24u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        // The interval broke with no spindle time left: the follower is
        // parked (clock stopped) rather than silently starved.
        assert!(srv.cache().stats().interval_breaks >= 1);
        assert_eq!(srv.cache().stats().cache_rejected_streams, 1);
        let s = srv.stream(follower);
        assert_eq!(s.cache_state, CacheState::Unfed);
        assert!(!s.clock.is_running());
        assert_eq!(srv.cache().pinned_frames(), 0);
        assert_eq!(srv.cache().reserved(), 0);
    }

    #[test]
    fn follower_stop_and_seek_release_pins_immediately() {
        let mut srv = cache_server(8 << 20, 8 << 20);
        let _leader = warm_leader(&mut srv, "pop", 6);
        let (t, e) = movie_table(30.0);
        let follower = srv.open(OpenReq::single("pop", t, e)).unwrap();
        assert!(srv.stream(follower).cache_state.is_cached());
        assert!(srv.cache().pinned_frames() > 0);
        assert!(srv.cache().reserved() > 0);
        // Stop drops every pin the follower held in the same call...
        srv.stop(follower, at(2600));
        assert_eq!(srv.cache().pinned_frames(), 0);
        assert_eq!(srv.cache().reserved(), 0);
        srv.close(follower);
        // ...and a far seek past the cached window detaches likewise.
        let (t, e) = movie_table(30.0);
        let f2 = srv.open(OpenReq::single("pop", t, e)).unwrap();
        assert!(srv.cache().pinned_frames() > 0);
        srv.seek(f2, at(2700), Duration::from_secs(20));
        assert_eq!(srv.cache().pinned_frames(), 0);
        assert_eq!(srv.cache().reserved(), 0);
        assert!(matches!(srv.stream(f2).cache_state, CacheState::Disk));
    }

    #[test]
    fn zero_budget_cache_changes_nothing() {
        // cache_budget = 0 must reproduce the uncached server exactly.
        let drive = |srv: &mut CrasServer| {
            let a = warm_leader(srv, "pop", 6);
            let (t, e) = movie_table(30.0);
            let b = srv.open(OpenReq::single("pop", t, e)).unwrap();
            srv.start(b, at(2600));
            let mut log = Vec::new();
            for k in 6..14u64 {
                let rep = srv.interval_tick(at(k * 500));
                for r in &rep.reqs {
                    log.push((r.stream, r.volume, r.block, r.nblocks));
                    srv.io_done(r.id);
                }
                log.push((a, VolumeId(u32::MAX), rep.posted_chunks as u64, 0));
            }
            log
        };
        let mut plain = server();
        let mut zeroed = cache_server(0, 8 << 20);
        assert_eq!(drive(&mut plain), drive(&mut zeroed));
        assert_eq!(*zeroed.cache().stats(), CacheStats::default());
    }

    fn prefix_server(prefix_ms: u64, hot_set: usize, buffer_budget: u64) -> CrasServer {
        let mut cfg = ServerConfig::default();
        cfg.cache_budget = 64 << 20;
        cfg.buffer_budget = buffer_budget;
        cfg.prefix_secs = ms(prefix_ms);
        cfg.hot_set = hot_set;
        CrasServer::new(DiskParams::paper_table4(), cfg)
    }

    /// One extra open/close of `name` so its open count outranks the
    /// single-open filler titles in the hot-set ordering.
    fn bump_popularity(srv: &mut CrasServer, name: &str) {
        let (t, e) = movie_table(30.0);
        let id = srv.open(OpenReq::single(name, t, e)).unwrap();
        srv.close(id);
    }

    #[test]
    fn hot_prefix_open_defers_disk_share() {
        let mut srv = prefix_server(1000, 1, 1 << 40);
        bump_popularity(&mut srv, "pop");
        let _leader = warm_leader(&mut srv, "pop", 6);
        assert!(srv.cache_manager().is_hot("pop"));
        // Exhaust the disk-time bound with cold titles.
        let mut fillers = 0u32;
        loop {
            let (t, e) = movie_table(30.0);
            if srv
                .open(OpenReq::single(&format!("f{fillers}"), t, e))
                .is_err()
            {
                break;
            }
            fillers += 1;
        }
        assert!(fillers > 0);
        let charged = srv.disk_charged_streams();
        // A new viewer of the hot title still gets in: its whole prefix
        // is resident, so admission is deferred — zero disk shares.
        let (t, e) = movie_table(30.0);
        let viewer = srv
            .open(OpenReq::single("pop", t, e))
            .expect("deferred admission");
        assert!(matches!(srv.cache_state_of(viewer), CacheState::Prefix));
        assert_eq!(srv.cache().stats().prefix_admitted_streams, 1);
        assert_eq!(srv.disk_charged_streams(), charged);
    }

    #[test]
    fn deferred_stream_reserves_disk_share_at_prefix_drain() {
        let mut srv = prefix_server(1000, 1, 8 << 20);
        bump_popularity(&mut srv, "pop");
        let _leader = warm_leader(&mut srv, "pop", 6);
        let (t, e) = movie_table(30.0);
        let viewer = srv
            .open(OpenReq::single("pop", t, e))
            .expect("deferred admission");
        assert!(matches!(srv.cache_state_of(viewer), CacheState::Prefix));
        srv.start(viewer, at(3100));
        let mut reserved_tick = None;
        for k in 6..20u64 {
            let rep = srv.interval_tick(at(k * 500));
            if rep.deferred_reserved.contains(&viewer.0) {
                reserved_tick = Some(k);
            }
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            assert!(!rep.overran);
        }
        // The prefix drained into a real disk reservation, journaled via
        // the report, and the viewer kept playing from disk.
        assert!(reserved_tick.is_some());
        assert!(matches!(srv.cache_state_of(viewer), CacheState::Disk));
        assert_eq!(srv.cache().stats().deferred_drained_streams, 1);
        assert!(srv.cache().stats().prefix_hit_bytes > 0);
        assert!(srv.stream_report(viewer).buffer.puts > 0);
    }

    fn join_server(window_ms: u64) -> CrasServer {
        let mut cfg = ServerConfig::default();
        cfg.join_window = ms(window_ms);
        CrasServer::new(DiskParams::paper_table4(), cfg)
    }

    #[test]
    fn batched_join_multicasts_one_read_stream() {
        let mut srv = join_server(600);
        let (t, e) = movie_table(10.0);
        let a = srv
            .open(OpenReq::single("pop", t.clone(), e.clone()))
            .unwrap();
        let b = srv.open(OpenReq::single("pop", t, e)).unwrap();
        let begin_a = srv.start(a, at(0));
        let begin_b = srv.start(b, at(100));
        assert_eq!(begin_b, begin_a, "follower anchors on the leader's begin");
        assert!(matches!(srv.cache_state_of(b), CacheState::Joined { leader } if leader == a.0));
        assert_eq!(srv.cache().stats().joined_streams, 1);
        let mut b_reqs = 0usize;
        for k in 0..3u64 {
            let rep = srv.interval_tick(at(k * 500));
            b_reqs += rep.reqs.iter().filter(|r| r.stream == b).count();
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        // Both viewers hold frame 0, fed by one read stream.
        assert_eq!(srv.get(a, Duration::ZERO).expect("leader frame").index, 0);
        assert_eq!(srv.get(b, Duration::ZERO).expect("follower frame").index, 0);
        for k in 3..12u64 {
            let rep = srv.interval_tick(at(k * 500));
            b_reqs += rep.reqs.iter().filter(|r| r.stream == b).count();
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            assert!(!rep.overran);
        }
        assert_eq!(b_reqs, 0, "the follower rides the leader's reads");
        let (ra, rb) = (srv.stream_report(a), srv.stream_report(b));
        assert!(rb.buffer.puts > 0 && rb.buffer.puts == ra.buffer.puts);
    }

    #[test]
    fn leader_close_dissolves_join_to_disk() {
        let mut srv = join_server(600);
        let (t, e) = movie_table(10.0);
        let a = srv
            .open(OpenReq::single("pop", t.clone(), e.clone()))
            .unwrap();
        let b = srv.open(OpenReq::single("pop", t, e)).unwrap();
        srv.start(a, at(0));
        srv.start(b, at(100));
        for k in 0..4u64 {
            let rep = srv.interval_tick(at(k * 500));
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        srv.close(a);
        let mut b_reqs = 0usize;
        for k in 4..12u64 {
            let rep = srv.interval_tick(at(k * 500));
            b_reqs += rep.reqs.iter().filter(|r| r.stream == b).count();
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
            assert!(!rep.overran);
        }
        // The orphaned follower reserved its own disk share and kept
        // reading where the multicast left off.
        assert!(matches!(srv.cache_state_of(b), CacheState::Disk));
        assert!(b_reqs > 0, "dissolved follower reads from disk");
        assert!(srv.stream_report(b).buffer.puts > 0);
    }

    #[test]
    fn a_non_normal_rate_follower_never_joins() {
        let mut srv = join_server(600);
        let (t, e) = movie_table(10.0);
        let a = srv
            .open(OpenReq::single("pop", t.clone(), e.clone()))
            .unwrap();
        let b = srv.open(OpenReq::single("pop", t, e)).unwrap();
        srv.set_rate(b, at(0), 2.0).unwrap();
        srv.start(a, at(0));
        srv.start(b, at(100));
        assert!(matches!(srv.cache_state_of(a), CacheState::Disk));
        assert!(!matches!(srv.cache_state_of(b), CacheState::Joined { .. }));
        assert_eq!(srv.cache().stats().joined_streams, 0);
    }

    #[test]
    fn join_window_zero_never_joins() {
        let mut srv = join_server(0);
        let (t, e) = movie_table(10.0);
        let a = srv
            .open(OpenReq::single("pop", t.clone(), e.clone()))
            .unwrap();
        let b = srv.open(OpenReq::single("pop", t, e)).unwrap();
        srv.start(a, at(0));
        srv.start(b, at(100));
        assert!(matches!(srv.cache_state_of(a), CacheState::Disk));
        assert!(matches!(srv.cache_state_of(b), CacheState::Disk));
        assert_eq!(srv.cache().stats().joined_streams, 0);
    }

    /// A movie laid out in rotating-parity groups on the band starting
    /// at `base`: synthetic but geometry-faithful extent maps (data file
    /// then parity file per volume, contiguous on disk).
    fn parity_movie(
        group: u32,
        base: u32,
        secs: f64,
        seed: u64,
    ) -> (ChunkTable, Vec<VolumeExtent>, ParityState) {
        use crate::placement::{ParityGeometry, PARITY_STRIPE_BYTES};
        let mut rng = Rng::new(seed);
        let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), secs, &mut rng);
        let geom = ParityGeometry::new(base, group, PARITY_STRIPE_BYTES, table.total_bytes());
        let sb = geom.stripe_bytes;
        let mut extents = Vec::new();
        for k in 0..geom.data_units() {
            extents.push(VolumeExtent {
                volume: geom.data_volume(k),
                extent: Extent {
                    file_offset: k * sb,
                    disk_block: 20_000 + geom.data_file_index(k) * (sb / 512),
                    nblocks: geom.unit_len(k).div_ceil(512) as u32,
                },
            });
        }
        let parity_maps = (0..group)
            .map(|v| {
                let bytes = geom.parity_bytes_on(v);
                if bytes == 0 {
                    return Vec::new();
                }
                vec![VolumeExtent {
                    volume: VolumeId(base + v),
                    extent: Extent {
                        file_offset: 0,
                        disk_block: 800_000,
                        nblocks: (bytes / 512) as u32,
                    },
                }]
            })
            .collect();
        (table, extents, ParityState { geom, parity_maps })
    }

    #[test]
    fn parity_admission_monotone_in_group_and_under_healthy_baseline() {
        // One band of g volumes, g rising: admission charges 2/g per
        // spindle, so the admitted count must never decrease with g —
        // and must never exceed the healthy (striped, 1/g per spindle)
        // baseline on the same spindles.
        let mut last = 0usize;
        for group in [2u32, 3, 4, 6] {
            let fill_parity = {
                let mut srv = multi_server(group as usize, 1 << 40);
                let mut n = 0usize;
                loop {
                    let (t, e, ps) = parity_movie(group, 0, 20.0, 7);
                    if srv.open(OpenReq::new("p", t, e).with_parity(ps)).is_err() {
                        break;
                    }
                    n += 1;
                }
                n
            };
            let fill_striped = {
                let mut srv = multi_server(group as usize, 1 << 40);
                let mut n = 0usize;
                loop {
                    // Same movie, same spindles, no parity charge: units
                    // dealt round-robin (share 1/g per volume).
                    let (t, e, _) = parity_movie(group, 0, 20.0, 7);
                    let striped: Vec<VolumeExtent> = e
                        .iter()
                        .enumerate()
                        .map(|(k, ve)| VolumeExtent {
                            volume: VolumeId(k as u32 % group),
                            extent: ve.extent,
                        })
                        .collect();
                    if srv.open(OpenReq::new("s", t, striped)).is_err() {
                        break;
                    }
                    n += 1;
                }
                n
            };
            assert!(fill_parity > 0, "g={group} admitted nothing");
            assert!(
                fill_parity >= last,
                "g={group}: {fill_parity} < previous {last} — not monotone"
            );
            assert!(
                fill_parity <= fill_striped,
                "g={group}: parity {fill_parity} exceeds healthy baseline {fill_striped}"
            );
            last = fill_parity;
        }
    }

    #[test]
    fn degraded_parity_plan_fans_out_into_surviving_spindle_batches() {
        let mut srv = multi_server(4, 1 << 30);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        // Kill a volume that holds data of the first stripes: row 0's
        // parity is on volume 0, so its data units live on 1, 2, 3.
        srv.set_volume_failed(VolumeId(1), true);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(!rep.reqs.is_empty());
        assert_eq!(rep.degraded_streams, 1);
        assert!(
            rep.reqs.iter().all(|r| r.volume != VolumeId(1)),
            "no read may target the failed volume"
        );
        // The reconstruction touched every surviving spindle, including
        // the parity volume.
        for v in [0u32, 2, 3] {
            assert!(
                rep.reqs.iter().any(|r| r.volume == VolumeId(v)),
                "expected a read on surviving volume {v}"
            );
        }
        // Batches are per spindle and sweep-ordered within each.
        for (_, batch) in rep.volume_batches() {
            assert!(batch.windows(2).all(|w| w[0].volume == w[1].volume));
        }
        assert!(srv.stats().degraded_reads > 0);
        assert_eq!(srv.stats().lost_reads, 0);
        // Completing every surviving read posts the batch (frames are
        // reconstructed, not lost).
        let mut posted = false;
        for r in &rep.reqs {
            posted |= srv.io_done(r.id).is_some();
        }
        assert!(posted, "batch must complete from surviving reads");
    }

    #[test]
    fn unloaded_parity_server_never_steers() {
        // With no external load and balanced plans, the margin keeps
        // every read on its home spindle: a fan-out costs ~the same
        // bytes on g−1 volumes, so it can never beat direct + margin.
        let mut srv = multi_server(4, 1 << 30);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        for i in 1..6u64 {
            let rep = srv.interval_tick(at(500 * i));
            assert_eq!(rep.steered_streams, 0, "tick {i} steered");
            for r in &rep.reqs {
                srv.io_done(r.id);
            }
        }
        assert_eq!(srv.stats().steered_reads, 0);
    }

    #[test]
    fn hot_spindle_steers_parity_reads_around_it() {
        let mut srv = multi_server(4, 1 << 30);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        // Volume 1 holds data of the first stripe rows (row 0's parity
        // sits on volume 0). Report a deep queue on it: every direct
        // read homed there must be bypassed via the g−1 fan-out, and
        // no fan-out may route *into* the hot spindle either.
        let mut loads = vec![VolumeLoad::default(); 4];
        loads[1] = VolumeLoad {
            queued: 1000,
            lag: 0.0,
        };
        srv.set_volume_loads(&loads);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(!rep.reqs.is_empty());
        assert_eq!(rep.steered_streams, 1);
        assert!(srv.stats().steered_reads > 0);
        assert!(
            rep.reqs.iter().all(|r| r.volume != VolumeId(1)),
            "no read may land on the hot volume"
        );
        assert_eq!(rep.degraded_streams, 0, "steering is not a failure path");
        assert_eq!(srv.stats().lost_reads, 0);
        // The batch still posts once every read (direct + fan-out)
        // completes: steering never changes what gets delivered.
        let mut posted = false;
        for r in &rep.reqs {
            posted |= srv.io_done(r.id).is_some();
        }
        assert!(posted, "steered batch must complete");
        // Clearing the load stops further steering.
        srv.set_volume_loads(&[VolumeLoad::default(); 4]);
        let before = srv.stats().steered_reads;
        let rep = srv.interval_tick(at(1000));
        assert_eq!(rep.steered_streams, 0);
        assert_eq!(srv.stats().steered_reads, before);
    }

    #[test]
    fn steering_disabled_keeps_reads_on_the_hot_home_spindle() {
        let mut cfg = ServerConfig::default();
        cfg.volumes = 4;
        cfg.buffer_budget = 1 << 30;
        cfg.steer_reads = false;
        let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        let mut loads = vec![VolumeLoad::default(); 4];
        loads[1] = VolumeLoad {
            queued: 1000,
            lag: 0.0,
        };
        srv.set_volume_loads(&loads);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert!(rep.reqs.iter().any(|r| r.volume == VolumeId(1)));
        assert_eq!(rep.steered_streams, 0);
        assert_eq!(srv.stats().steered_reads, 0);
    }

    #[test]
    fn completion_lag_alone_can_steer() {
        // The unified signal folds per-volume completion lag in at the
        // spindle's transfer rate: a spindle that has been finishing
        // its batches late gets bypassed even with an empty queue.
        let mut srv = multi_server(4, 1 << 30);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        let mut loads = vec![VolumeLoad::default(); 4];
        loads[1] = VolumeLoad {
            queued: 0,
            lag: 2.0,
        };
        srv.set_volume_loads(&loads);
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        assert_eq!(rep.steered_streams, 1);
        assert!(rep.reqs.iter().all(|r| r.volume != VolumeId(1)));
    }

    #[test]
    fn parity_io_failed_replaces_read_with_survivors_and_loses_on_second_failure() {
        let mut srv = multi_server(4, 1 << 30);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        let id = srv.open(OpenReq::new("p", t, e).with_parity(ps)).unwrap();
        srv.start(id, at(0));
        srv.interval_tick(at(0));
        let rep = srv.interval_tick(at(500));
        let victim = rep.reqs[0];
        let replacements = srv.io_failed(victim.id);
        assert!(
            !replacements.is_empty(),
            "pre-detection failure must fan out"
        );
        assert!(replacements.iter().all(|r| r.volume != victim.volume));
        let survivors: std::collections::BTreeSet<u32> =
            replacements.iter().map(|r| r.volume.0).collect();
        assert_eq!(survivors.len(), 3, "reads on all three survivors");
        // A failed *reconstruction* read is a second failure: lost.
        let lost_before = srv.stats().lost_reads;
        assert!(srv.io_failed(replacements[0].id).is_empty());
        assert_eq!(srv.stats().lost_reads, lost_before + 1);
    }

    #[test]
    fn parity_open_rejects_with_two_band_volumes_down() {
        let mut srv = multi_server(4, 1 << 30);
        srv.set_volume_failed(VolumeId(1), true);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        assert!(srv
            .open(OpenReq::new("one-down", t, e).with_parity(ps))
            .is_ok());
        srv.set_volume_failed(VolumeId(2), true);
        let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
        assert!(matches!(
            srv.open(OpenReq::new("two-down", t, e).with_parity(ps)),
            Err(AdmissionError::VolumeFailed)
        ));
    }

    #[test]
    fn admit_modes_keep_unchecked_and_parity_deferred_semantics() {
        let single = |admit| {
            let (t, e) = movie_table(10.0);
            OpenReq::single("m", t, e).with_admit(admit)
        };
        let parity = |admit| {
            let (t, e, ps) = parity_movie(4, 0, 10.0, 9);
            OpenReq::new("p", t, e).with_parity(ps).with_admit(admit)
        };
        // (case, server, fill it with checked opens first, failed
        // volumes, request, outcome, opens the estimator records)
        type Case<'a> = (
            &'a str,
            CrasServer,
            bool,
            &'a [u32],
            OpenReq,
            Result<CacheState, AdmissionError>,
            u64,
        );
        let cases: Vec<Case> = vec![
            (
                "unchecked past the bound installs unobserved",
                multi_server(1, 300_000),
                true,
                &[],
                single(Admit::Unchecked),
                Ok(CacheState::Disk),
                0,
            ),
            (
                "deferred whole movie installs as a prefix",
                server(),
                false,
                &[],
                single(Admit::Deferred),
                Ok(CacheState::Prefix),
                1,
            ),
            (
                "deferred parity movie takes the checked ladder",
                multi_server(4, 1 << 30),
                false,
                &[],
                parity(Admit::Deferred),
                Ok(CacheState::Disk),
                1,
            ),
            (
                "deferred parity movie is refused with two band volumes down",
                multi_server(4, 1 << 30),
                false,
                &[1, 2],
                parity(Admit::Deferred),
                Err(AdmissionError::VolumeFailed),
                0,
            ),
        ];
        for (case, mut srv, fill, failed, req, want, observed) in cases {
            if fill {
                while srv.open(req.clone().with_admit(Admit::Checked)).is_ok() {}
            }
            for &v in failed {
                srv.set_volume_failed(VolumeId(v), true);
            }
            let name = req.name.clone();
            let before = srv.cache_manager().popularity().count(&name);
            let streams = srv.stream_count();
            let got = srv.open(req).map(|id| srv.cache_state_of(id));
            assert_eq!(got, want, "{case}");
            let count = srv.cache_manager().popularity().count(&name);
            assert_eq!(count, before + observed, "{case}");
            assert_eq!(
                srv.stream_count(),
                streams + usize::from(got.is_ok()),
                "{case}"
            );
        }
    }

    /// The admission decision as the server made it before the fold:
    /// every stream's charge collected into a `Vec` (a rate-changed
    /// stream at its new parameters on its full shares, the zero-share
    /// feed states as all-zero shares, the candidate last), one scaled
    /// `Vec<StreamParams>` per live volume judged by [`Admission::admit`],
    /// then the global buffer test.
    fn reference_admit(
        srv: &CrasServer,
        rerate: Option<(StreamId, StreamParams)>,
        extra: Option<(StreamParams, Vec<f64>, u32)>,
    ) -> Result<(), AdmissionError> {
        let t = srv.cfg.interval.as_secs_f64();
        let mut entries: Vec<(StreamParams, Vec<f64>, u32)> = srv
            .streams
            .values()
            .map(|s| match rerate {
                Some((id, p)) if id == s.id => (p, s.shares.clone(), s.spindle_reads()),
                _ => {
                    let zero = matches!(
                        s.cache_state,
                        CacheState::Admitted { .. }
                            | CacheState::Prefix
                            | CacheState::Joined { .. }
                    );
                    let shares = if zero {
                        vec![0.0; s.shares.len()]
                    } else {
                        s.shares.clone()
                    };
                    (s.params, shares, s.spindle_reads())
                }
            })
            .collect();
        entries.extend(extra);
        for v in 0..srv.cfg.volumes {
            if srv.failed[v] {
                continue;
            }
            let mut scaled = Vec::new();
            for (p, shares, reads) in &entries {
                if shares[v] <= 0.0 {
                    continue;
                }
                let per = shares[v] / *reads as f64;
                for _ in 0..*reads {
                    scaled.push(StreamParams::new(p.rate * per, p.chunk));
                }
            }
            if !scaled.is_empty() {
                srv.admission.admit(t, &scaled, u64::MAX)?;
            }
        }
        let all: Vec<StreamParams> = entries.iter().map(|e| e.0).collect();
        let needed = srv.admission.buffer_total(t, &all);
        if needed > srv.cfg.buffer_budget {
            return Err(AdmissionError::OutOfMemory {
                needed,
                budget: srv.cfg.buffer_budget,
            });
        }
        Ok(())
    }

    /// A random placement on a 4-volume server: whole, striped over 2–4
    /// volumes at random cut points, mirrored, or rotating parity (a
    /// 2-volume band or the 4-volume band).
    fn random_req(rng: &mut Rng, name: &str) -> OpenReq {
        match rng.below(4) {
            0 => {
                let (t, e) = movie_on(rng.below(4) as u32, 1.0);
                OpenReq::new(name, t, e)
            }
            1 => {
                let (t, e) = movie_table(1.0);
                let (first, k) = (rng.below(4) as u32, rng.range_inclusive(2, 4) as u32);
                let mut cuts: Vec<u32> = (1..k)
                    .map(|_| rng.below(e[0].nblocks as u64) as u32)
                    .collect();
                cuts.push(0);
                cuts.push(e[0].nblocks);
                cuts.sort_unstable();
                let extents = cuts
                    .windows(2)
                    .enumerate()
                    .filter(|(_, w)| w[1] > w[0])
                    .map(|(i, w)| VolumeExtent {
                        volume: VolumeId((first + i as u32) % 4),
                        extent: Extent {
                            file_offset: w[0] as u64 * 512,
                            disk_block: 10_000 + w[0] as u64,
                            nblocks: w[1] - w[0],
                        },
                    })
                    .collect();
                OpenReq::new(name, t, extents)
            }
            2 => {
                let p = rng.below(4) as u32;
                let m = (p + 1 + rng.below(3) as u32) % 4;
                let (t, pri, mir) = mirrored_movie(p, m, 1.0);
                OpenReq::new(name, t, pri).with_mirror(mir)
            }
            _ => {
                let (group, base) = *rng.pick(&[(2, 0), (2, 2), (4, 0)]);
                let (t, e, ps) = parity_movie(group, base, 1.0, rng.next_u64());
                OpenReq::new(name, t, e).with_parity(ps)
            }
        }
    }

    /// Random admission parameters: rates and chunks off any round grid,
    /// so a fold that adds in another order shows in the low bits of
    /// the error payloads.
    fn random_params(rng: &mut Rng) -> StreamParams {
        StreamParams::new(rng.f64_range(40e3, 2.5e6), rng.f64_range(0.0, 40e3))
    }

    #[test]
    fn admission_fold_is_bit_identical_to_per_volume_lists() {
        let mut rng = Rng::new(0xF01D);
        let mut outcomes = [0usize; 4];
        for trial in 0..600 {
            let mut cfg = ServerConfig::default();
            cfg.volumes = 4;
            cfg.buffer_budget = rng.range_inclusive(4 << 20, 40 << 20);
            cfg.model = if trial % 2 == 0 {
                AdmissionModel::Paper
            } else {
                AdmissionModel::MultiCommand
            };
            let mut srv = CrasServer::new(DiskParams::paper_table4(), cfg);
            for n in 0..rng.below(40) {
                let req = random_req(&mut rng, &format!("s{n}")).with_admit(Admit::Unchecked);
                let id = srv.open(req).expect("unchecked open");
                let s = srv.streams.get_mut(&id.0).expect("opened");
                s.params = random_params(&mut rng);
                s.cache_state = match rng.below(5) {
                    0 => CacheState::Disk,
                    1 => CacheState::Served { reserved: 1 },
                    2 => CacheState::Admitted { reserved: 1 },
                    3 => CacheState::Prefix,
                    _ => CacheState::Joined { leader: 0 },
                };
            }
            for v in 0..4 {
                srv.set_volume_failed(VolumeId(v), rng.chance(0.15));
            }
            let rerate = match srv.streams.len() {
                n if n > 0 && rng.chance(0.25) => {
                    let id = srv
                        .streams
                        .keys()
                        .nth(rng.below(n as u64) as usize)
                        .unwrap();
                    Some((StreamId(id), random_params(&mut rng)))
                }
                _ => None,
            };
            let req = random_req(&mut rng, "candidate");
            let params = random_params(&mut rng);
            let shares =
                Stream::rate_shares(&req.extents, req.mirror.as_deref(), req.parity.as_ref(), 4);
            let reads = if req.parity.is_some() { 2 } else { 1 };
            let (fold, reference) = match rng.below(3) {
                0 => (
                    srv.admit_with(rerate, None),
                    reference_admit(&srv, rerate, None),
                ),
                1 => (
                    srv.admit_with(
                        rerate,
                        Some(Charge {
                            params,
                            shares: &shares,
                            reads,
                        }),
                    ),
                    reference_admit(&srv, rerate, Some((params, shares.clone(), reads))),
                ),
                _ => (
                    srv.admit_with(
                        rerate,
                        Some(Charge {
                            params,
                            shares: &[],
                            reads,
                        }),
                    ),
                    reference_admit(&srv, rerate, Some((params, vec![0.0; 4], reads))),
                ),
            };
            assert_eq!(fold, reference, "trial {trial}");
            outcomes[match reference {
                Ok(()) => 0,
                Err(AdmissionError::RateSaturated { .. }) => 1,
                Err(AdmissionError::IntervalTooShort { .. }) => 2,
                _ => 3,
            }] += 1;
        }
        // Every verdict shows up often enough to catch a reordered sum.
        assert!(outcomes.iter().all(|&n| n >= 30), "outcomes {outcomes:?}");
    }
}
