//! The orchestrated system: one event loop binding the disk volumes, the
//! CPU, the Unix server, CRAS and the client applications.
//!
//! The module has two halves:
//!
//! * [`SysState`] holds every component state machine and the event
//!   handlers. A handler drives the substrates through the one borrowed
//!   executor it is given, the private `Fx`: it submits disk requests,
//!   wakes CPU threads and arms timers, and each call that starts
//!   substrate work also schedules the event that completes it. Like
//!   CRAS's request scheduler and I/O-done manager, a handler hands
//!   requests straight to the driver and re-arms its own timer.
//! * [`System`] owns the substrates (engine, volume set, CPU), pops
//!   events, completes the substrate side of each one (slice end, disk
//!   completion) and lends the substrates to the matching handler.
//!
//! Every figure in the paper is a run of this system under a different
//! configuration. The storage backend is a [`VolumeSet`]: §4's "several
//! disk devices" variation. With one volume the system is byte-identical
//! to the single-disk original.

use std::collections::{BTreeMap, VecDeque};

use cras_core::{
    AdmissionError, Admit, CacheState, CrasServer, OpenReq, ReadReq, StreamId, StreamParams,
    VolumeLoad, JITTER,
};
use cras_disk::{Completed, DiskDevice, DiskRequest, VolumeId, VolumeSet};
use cras_media::{ChunkTable, Movie, StreamProfile};
use cras_net::{LinkParams, NetDelivery, NetEffect, NetFaults, SessionCfg};
use cras_rtmach::{Cpu, SchedPolicy, ThreadId};
use cras_sim::trace::Trace;
use cras_sim::{Duration, Engine, IdTable, Instant, Rng};
use cras_ufs::fs::FetchRun;
use cras_ufs::layout::fsblock_to_disk;
use cras_ufs::{FsReq, Ino, MkfsParams, Step, Ufs, UnixServer, SECT_PER_FSBLOCK};

use crate::bgload::{BgReader, BgWriter};
use crate::config::{prio, IssueMode, SchedMode, SysConfig};
use crate::metrics::{Metrics, ReadSlot, ShardLoad};
use crate::placement::{self, file_extents, MoviePlacement};
use crate::player::{Player, PlayerMode};
use crate::rebuild::RebuildManager;
use crate::tags::{ClientId, CpuTag, DiskTag, Event};

/// Rebuild copy rate cap in bytes per second (4 MiB/s). The rebuild
/// manager paces its normal-priority copy chunks so their long-run
/// throughput never exceeds this; the real-time queue's strict priority
/// already keeps admitted streams safe, the rate bounds how much
/// normal-queue bandwidth (UFS traffic) the rebuild may take.
const REBUILD_RATE: f64 = 4.0 * 1024.0 * 1024.0;

/// Completed interval walls the load-aware rebuild pacing averages its
/// slack estimate over.
const REBUILD_SLACK_WINDOW: usize = 8;

/// Fraction of `REBUILD_RATE` the load-aware pacing never
/// drops below, so a saturated system still makes rebuild progress.
const REBUILD_RATE_FLOOR: f64 = 0.25;

/// Completed per-volume interval records the read-steering load signal
/// averages its completion-lag estimate over (per volume).
const STEER_LAG_WINDOW: usize = 4;

/// CPU the CRAS request scheduler spends on one interval pass, before
/// its per-stream charge (a representative P5-100 figure, like the other
/// costs here; only their order of magnitude matters to the results,
/// and the Figure 10 contrast is robust to them).
const CRAS_TICK_BASE: Duration = Duration::from_micros(300);

/// CPU the CRAS request scheduler spends per active stream and pass.
const CRAS_TICK_PER_STREAM: Duration = Duration::from_micros(40);

/// Length of one CPU-hog busy burst (hogs re-arm forever).
const HOG_BURST: Duration = Duration::from_millis(50);

/// Minimum cycle time of a background reader: the syscall + user-copy
/// cost of one 64 KB `read()` on the simulated hardware. Keeps a
/// fully-cached `cat` from spinning in zero simulated time.
const BG_MIN_CYCLE: Duration = Duration::from_millis(1);

/// Poll interval when a player finds its frame unbuffered.
const PLAYER_POLL: Duration = Duration::from_millis(5);

/// Stall added to a disk operation that takes an injected transient
/// retry (see `SysConfig::disk_fault_prob`).
const DISK_FAULT_PENALTY: Duration = Duration::from_millis(25);

/// Size of one rebuild copy chunk in bytes.
const REBUILD_CHUNK_BYTES: u64 = 256 * 1024;

/// The real-time disk request for a CRAS read or write counted at
/// `slot`.
fn cras_io(r: &ReadReq, slot: ReadSlot) -> DiskRequest<DiskTag> {
    let tag = DiskTag::Cras(*r, slot);
    if r.write {
        DiskRequest::rt_write(r.block, r.nblocks, tag)
    } else {
        DiskRequest::rt_read(r.block, r.nblocks, tag)
    }
}

/// Owner of a Unix-server request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UOwner {
    /// A player reading frame `frame`.
    Player {
        /// The player.
        client: ClientId,
        /// Frame index.
        frame: u32,
    },
    /// A background reader finishing a `bytes`-byte read call.
    Bg {
        /// The reader.
        client: ClientId,
        /// Read-call length.
        bytes: u64,
    },
}

/// One Unix-server request: the volume whose file system it reads and the
/// client it serves. The volume routes the request's synchronous fetches
/// and read-ahead to the right spindle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct UReq {
    /// Volume holding the file.
    pub vol: u32,
    /// Requesting client.
    pub owner: UOwner,
}

/// Why [`System::try_attach_replacement`] refused to attach a
/// replacement disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttachError {
    /// The volume is not marked failed — there is nothing to replace.
    NotFailed,
    /// A rebuild is already running (the system runs at most one).
    RebuildRunning,
    /// The failed device still has an operation in flight. A down
    /// volume fails its in-flight operation fast, but that completion
    /// still travels through the event queue; retry after letting the
    /// system run briefly.
    DeviceBusy,
    /// Another volume is also failed (e.g. after a whole-shard kill).
    /// A rebuild sources its copy from the surviving spindles, so it
    /// cannot start until this volume is the only one down.
    PeersDown,
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::NotFailed => write!(f, "volume is not failed"),
            AttachError::RebuildRunning => write!(f, "a rebuild is already in progress"),
            AttachError::DeviceBusy => write!(f, "failed device has an operation in flight"),
            AttachError::PeersDown => write!(f, "another volume is also failed"),
        }
    }
}

impl std::error::Error for AttachError {}

/// Every component state machine of the server, none of the
/// substrates (engine, disks, CPU).
///
/// Event handlers on this type mutate this state and drive the
/// substrates through the executor [`System`] lends them for the event.
/// Keeping the substrates in [`System`] splits the borrow: a handler
/// holds `&mut SysState` and the executor at once. [`System`] derefs to
/// this type, so component state reads (`sys.players`, `sys.metrics`, …)
/// go through it.
pub struct SysState {
    /// Configuration it was built with.
    pub cfg: SysConfig,
    /// The serialized Unix server.
    pub(crate) userver: UnixServer<UReq>,
    /// The CRAS server.
    pub cras: CrasServer,
    /// Players by client id.
    pub players: IdTable<Player>,
    /// The client playing each CRAS stream, by stream id. Set when the
    /// player is installed and kept after the stream closes, like the
    /// player record itself: a follower still joined to a leader that
    /// closed since the last tick resolves the leader's client.
    stream_clients: IdTable<ClientId>,
    /// Background readers by client id.
    pub bgs: BTreeMap<u32, BgReader>,
    /// Background writers by client id.
    pub writers: BTreeMap<u32, BgWriter>,
    /// Measurements.
    pub metrics: Metrics,
    /// The NPS-style delivery subsystem (DESIGN §18): paced links,
    /// per-client playout sessions, multicast fan-out, loss/retransmit.
    /// Empty (no links, no sessions) unless the run attaches sessions
    /// through [`System::net_attach`]; a frame decode with no session
    /// bypasses delivery entirely, so existing experiments are
    /// unchanged.
    pub net: NetDelivery,
    /// Post-mortem event trace (disabled by default; enable with
    /// `sys.trace.set_enabled(true)`). Handlers log to it with
    /// `Trace::log_with`, which formats a message only while enabled.
    pub trace: Trace,
    /// Reused delivery-effect buffer (drained after every net step).
    net_fx: Vec<NetEffect>,
    /// Per-volume file systems (index = volume id).
    fs: Vec<Ufs>,
    /// Movie placements by name.
    placements: BTreeMap<String, MoviePlacement>,
    /// Blocks the Unix server's current fetch step is waiting on, on the
    /// volume of the request in service; each volume's [`Ufs`] knows
    /// which of them are still in flight.
    server_wait: Option<Vec<cras_ufs::FsBlock>>,
    cras_tid: ThreadId,
    hog_tids: Vec<ThreadId>,
    next_client: u32,
    rng: Rng,
    ticks_active: bool,
    /// How interval batches are issued across volumes. Pipelined is the
    /// system; the serial baseline exists only for the cross-volume
    /// overlap experiment and is selected per run through
    /// [`System::set_issue_mode`], never through [`SysConfig`].
    issue: IssueMode,
    /// Rebuild in progress (at most one at a time).
    rebuild: Option<RebuildManager>,
    /// Rebuild generation counter: bumped on every attach so disk
    /// completions and pacing events from an aborted rebuild can be
    /// recognized and dropped (their chunk indices may not exist in —
    /// or worse, alias into — a newer rebuild's plan).
    rebuild_gen: u64,
    /// [`IssueMode::SerialVolumes`] only: per-volume batches waiting for
    /// the previous batch's spindle to drain (front = next to issue).
    serial_batches: VecDeque<(ReadSlot, Vec<ReadReq>)>,
    /// [`IssueMode::SerialVolumes`] only: unsettled reads of the one
    /// batch currently in flight (a failed read's retries count in its
    /// place).
    serial_outstanding: usize,
}

/// The assembled system: the [`SysState`] component state plus the
/// substrates its handlers drive.
///
/// [`System`] derefs to [`SysState`], so component state is reachable
/// directly (`sys.players`, `sys.cras`, …). [`System::run_until`] pops
/// each event and hands it, with the substrates, to its handler.
pub struct System {
    /// The event queue and virtual clock.
    pub engine: Engine<Event>,
    /// The disk volumes.
    pub disks: VolumeSet<DiskTag>,
    /// The CPU; each burst carries the [`CpuTag`] that routes its
    /// completion.
    pub(crate) cpu: Cpu<CpuTag>,
    /// The component state and its handlers.
    state: SysState,
    /// Reused per-spindle load snapshot, refilled at every scheduler
    /// tick.
    loads: Vec<VolumeLoad>,
}

impl std::ops::Deref for System {
    type Target = SysState;

    fn deref(&self) -> &SysState {
        &self.state
    }
}

impl std::ops::DerefMut for System {
    fn deref_mut(&mut self) -> &mut SysState {
        &mut self.state
    }
}

impl System {
    /// Builds a system: `cfg.server.volumes` ST32550N disks, a tuned UFS
    /// per volume, calibrated CRAS.
    ///
    /// Disk parameters for the admission test come from running the
    /// Appendix A calibration against a scratch ST32550N — CRAS only
    /// ever sees what a real system could measure.
    pub fn new(cfg: SysConfig) -> System {
        assert!(cfg.server.volumes >= 1, "system needs at least one volume");
        let mut rng = Rng::new(cfg.seed);
        let nvol = cfg.server.volumes;
        let mut devices: Vec<DiskDevice<DiskTag>> = Vec::with_capacity(nvol);
        for v in 0..nvol as u64 {
            let mut disk: DiskDevice<DiskTag> = DiskDevice::st32550n();
            if cfg.disk_fault_prob > 0.0 {
                disk.set_fault_injector(Some(cras_disk::FaultInjector::new(
                    cfg.disk_fault_prob,
                    DISK_FAULT_PENALTY,
                    cfg.seed ^ 0xFA17 ^ (v << 32),
                )));
            }
            devices.push(disk);
        }
        let disks = VolumeSet::new(devices);
        let mut scratch: DiskDevice<u8> = DiskDevice::st32550n();
        let cal = cras_disk::calibrate::calibrate(&mut scratch, 64 * 1024);
        let fs: Vec<Ufs> = (0..nvol as u32)
            .map(|v| {
                let geom = disks.volume(VolumeId(v)).geometry().clone();
                Ufs::format(&geom, MkfsParams::tuned(&geom), rng.fork().next_u64())
            })
            .collect();
        let cras = CrasServer::new(cal.params, cfg.server);
        let mut cpu = Cpu::new();
        let cras_tid = cpu.create(Self::policy_for(&cfg, prio::CRAS));
        let hog_tids = (0..cfg.hogs)
            .map(|_| cpu.create(Self::policy_for(&cfg, prio::HOG)))
            .collect();
        System {
            engine: Engine::new(),
            disks,
            cpu,
            state: SysState {
                cfg,
                userver: UnixServer::new(),
                cras,
                players: IdTable::new(),
                stream_clients: IdTable::new(),
                bgs: BTreeMap::new(),
                writers: BTreeMap::new(),
                metrics: Metrics::new(),
                net: NetDelivery::new(cfg.frame_trace),
                trace: Trace::new(4096),
                net_fx: Vec::new(),
                fs,
                placements: BTreeMap::new(),
                server_wait: None,
                cras_tid,
                hog_tids,
                next_client: 0,
                rng,
                ticks_active: false,
                issue: IssueMode::Pipelined,
                rebuild: None,
                rebuild_gen: 0,
                serial_batches: VecDeque::new(),
                serial_outstanding: 0,
            },
            loads: Vec::new(),
        }
    }

    fn policy_for(cfg: &SysConfig, fixed_prio: u8) -> SchedPolicy {
        match cfg.sched {
            SchedMode::FixedPriority => SchedPolicy::FixedPriority { prio: fixed_prio },
            SchedMode::RoundRobin { quantum } => SchedPolicy::RoundRobin {
                prio: prio::RR,
                quantum,
            },
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Instant {
        self.engine.now()
    }

    /// The volume-0 disk (single-disk compatibility accessor).
    pub fn disk(&self) -> &DiskDevice<DiskTag> {
        self.disks.volume(VolumeId(0))
    }
}

impl SysState {
    /// Selects how interval batches are issued across volumes
    /// (experiment hook). [`IssueMode::SerialVolumes`] is a measured
    /// *baseline*, not a supported operating mode — only the
    /// cross-volume overlap experiment should ever select it, so it is
    /// deliberately not part of [`SysConfig`]. Select it before any
    /// interval issues reads: the serial baseline counts only the reads
    /// it released itself.
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.issue = mode;
    }

    /// The volume-0 file system (single-disk compatibility accessor).
    pub fn ufs(&self) -> &Ufs {
        &self.fs[0]
    }

    /// Mutable volume-0 file system.
    pub fn ufs_mut(&mut self) -> &mut Ufs {
        &mut self.fs[0]
    }

    /// The file system on volume `vol`.
    pub fn ufs_on(&self, vol: u32) -> &Ufs {
        &self.fs[vol as usize]
    }

    /// Where a movie's data lives (if it was recorded through
    /// [`SysState::record_movie`]).
    pub fn placement(&self, name: &str) -> Option<&MoviePlacement> {
        self.placements.get(name)
    }

    /// Records a movie into the file system (setup phase; consumes no
    /// simulated time) under the configured placement policy:
    /// round-robin puts the whole movie on the next volume in rotation,
    /// striped spreads it over every volume in stripe units, mirrored
    /// writes it to a primary and a mirror volume, and parity lays it out
    /// in rotating-parity rows across the next band. Placement is a pure
    /// function of the config seed and the record order.
    pub fn record_movie(&mut self, name: &str, profile: StreamProfile, secs: f64) -> Movie {
        let (placement, movie) = placement::record(
            self.cfg.server.placement,
            &mut self.cras,
            &mut self.fs,
            name,
            profile,
            secs,
            &mut self.rng,
        );
        self.placements.insert(name.to_string(), placement);
        movie
    }

    /// The single volume holding a movie's data, for Unix-server access
    /// paths that read one file; it panics for striped and parity
    /// movies. Movies created directly through `ufs_mut()` live on
    /// volume 0.
    fn movie_volume(&self, movie: &Movie) -> u32 {
        self.placements.get(&movie.name).map_or(0, |p| p.volume())
    }

    fn alloc_client(&mut self) -> ClientId {
        let id = ClientId(self.next_client);
        self.next_client += 1;
        id
    }

    /// Opens a CRAS stream for `movie`: the admission half of
    /// [`System::add_cras_player`]. With admission enforcement off, a
    /// checked open the test refuses is installed unchecked instead.
    fn open_cras_stream(&mut self, movie: &Movie) -> Result<StreamId, AdmissionError> {
        let (extents, mirror, parity) = match self.placements.get(&movie.name) {
            Some(p) => p.resolve(&self.fs, movie.ino),
            // Movies created directly through `ufs_mut()` (tests,
            // experiments) live on volume 0.
            None => (file_extents(&self.fs, 0, movie.ino), None, None),
        };
        let req = OpenReq {
            name: movie.name.clone(),
            table: movie.table.clone(),
            extents,
            mirror,
            parity,
            admit: Admit::Checked,
        };
        if self.cfg.enforce_admission {
            return self.cras.open(req);
        }
        self.cras.open(req.clone()).or_else(|_| {
            self.cras.open(OpenReq {
                admit: Admit::Unchecked,
                ..req
            })
        })
    }
}

impl System {
    /// Starts CRAS's interval timer (idempotent).
    pub(crate) fn activate_cras(&mut self) {
        if !self.state.ticks_active {
            self.state.ticks_active = true;
            self.engine.schedule_now(Event::CrasTick);
        }
    }

    /// Starts the configured CPU hogs.
    pub fn start_hogs(&mut self) {
        let (state, mut fx) = self.split();
        for (i, &tid) in state.hog_tids.iter().enumerate() {
            fx.wake(tid, HOG_BURST, CpuTag::Hog(i as u32));
        }
    }

    /// Adds a player that consumes a movie through CRAS (`crs_open`):
    /// admits the stream, allocates the client and creates its decode
    /// thread.
    pub fn add_cras_player(
        &mut self,
        movie: &Movie,
        stride: u32,
    ) -> Result<ClientId, AdmissionError> {
        let stream = self.state.open_cras_stream(movie)?;
        let id = self.state.alloc_client();
        let tid = self
            .cpu
            .create(Self::policy_for(&self.state.cfg, prio::PLAYER));
        self.state.players.insert(
            id.0,
            Player::new(
                id,
                PlayerMode::Cras { stream },
                movie.table.clone(),
                stride,
                tid,
            ),
        );
        self.state.stream_clients.insert(stream.0, id);
        Ok(id)
    }

    /// Opens a recording (§4) of `params` into the file `ino` its
    /// caller preallocated on volume 0 ([`Ufs::preallocate`]). The one
    /// admission test charges it with every stream. Its client stages
    /// chunks with [`SysState::stage_chunk`], each interval tick writes
    /// them, and [`SysState::finish_recording`] returns the control
    /// table. Starts CRAS's interval timer.
    pub fn open_recording(
        &mut self,
        name: &str,
        ino: Ino,
        params: StreamParams,
    ) -> Result<StreamId, AdmissionError> {
        let extents = self.state.fs[0].extent_map(ino);
        let id = self
            .state
            .cras
            .open(OpenReq::record(name, params, extents))?;
        self.activate_cras();
        Ok(id)
    }

    /// Adds a player that reads the movie through the Unix file system.
    pub fn add_ufs_player(&mut self, movie: &Movie, stride: u32) -> ClientId {
        let vol = self.state.movie_volume(movie);
        let id = self.state.alloc_client();
        let tid = self
            .cpu
            .create(Self::policy_for(&self.state.cfg, prio::PLAYER));
        self.state.players.insert(
            id.0,
            Player::new(
                id,
                PlayerMode::Ufs {
                    ino: movie.ino,
                    vol,
                },
                movie.table.clone(),
                stride,
                tid,
            ),
        );
        id
    }
}

impl SysState {
    /// Adds a background `cat` reader over a movie file (64 KB reads,
    /// flat out).
    pub fn add_bg_reader(&mut self, movie: &Movie) -> ClientId {
        self.add_bg_reader_paced(movie, Duration::ZERO)
    }

    /// Adds a background reader that pauses between 64 KB reads —
    /// throttled load for experiments where the foreground must stay
    /// feasible (Figure 7 compares the systems "when both file systems
    /// achieve the same throughput").
    pub fn add_bg_reader_paced(&mut self, movie: &Movie, pause: Duration) -> ClientId {
        let vol = self.movie_volume(movie);
        let id = self.alloc_client();
        let size = self.fs[vol as usize].file_size(movie.ino);
        let mut bg = BgReader::new(id, movie.ino, size, 64 * 1024);
        bg.vol = vol;
        bg.pause = pause;
        self.bgs.insert(id.0, bg);
        id
    }

    /// Adds a paced background reader over a fresh file allocated
    /// directly on volume `vol` — skewed load for steering experiments,
    /// where the movies themselves span a whole parity band and
    /// [`SysState::add_bg_reader`] (which derives the volume from the
    /// movie's placement) cannot pin the noise to one spindle. The
    /// contiguous file means each `read_size` call reaches the disk as
    /// one non-preemptible transfer, so large sizes model bulk traffic
    /// that stalls real-time reads behind it.
    pub fn add_bg_reader_on(
        &mut self,
        vol: u32,
        name: &str,
        size: u64,
        read_size: u64,
        pause: Duration,
    ) -> ClientId {
        let ino = self.fs[vol as usize].create(name).expect("bg file");
        self.fs[vol as usize]
            .append(ino, size)
            .expect("bg file allocation");
        let id = self.alloc_client();
        let mut bg = BgReader::new(id, ino, size, read_size);
        bg.vol = vol;
        bg.pause = pause;
        self.bgs.insert(id.0, bg);
        id
    }

    /// Adds an editor appending `write_size` bytes every `period` to a
    /// fresh file on volume 0 (delayed writes drained by the syncer).
    pub fn add_bg_writer(&mut self, name: &str, write_size: u64, period: Duration) -> ClientId {
        let id = self.alloc_client();
        let ino = self.fs[0].create(name).expect("fresh edit file");
        self.writers
            .insert(id.0, BgWriter::new(id, ino, write_size, period));
        id
    }

    /// Stages one chunk for recording `id`; the next interval tick
    /// writes it.
    pub fn stage_chunk(&mut self, id: StreamId, duration: Duration, size: u32) {
        self.cras.stage_chunk(id, duration, size);
    }

    /// Closes recording `id` and returns the control table of what it
    /// wrote (see [`CrasServer::finish_recording`]).
    pub fn finish_recording(&mut self, id: StreamId) -> ChunkTable {
        self.cras.finish_recording(id)
    }

    /// Whether every player has finished.
    pub fn all_players_done(&self) -> bool {
        self.players.values().all(|p| p.done)
    }

    /// Whether a rebuild is currently running.
    pub fn rebuild_active(&self) -> bool {
        self.rebuild.is_some()
    }
}

impl System {
    /// Starts the background writers and the syncer (1 s cadence, like
    /// the classic update daemon's spirit at media time scales).
    pub fn start_writers(&mut self) {
        let ids: Vec<u32> = self.writers.keys().copied().collect();
        for id in ids {
            self.engine.schedule_now(Event::BgWrite(ClientId(id)));
        }
        if !self.writers.is_empty() {
            self.engine
                .schedule_after(Duration::from_secs(1), Event::Sync);
        }
    }

    /// Starts the background readers now.
    pub fn start_bg(&mut self) {
        let now = self.now();
        let ids: Vec<u32> = self.bgs.keys().copied().collect();
        for id in ids {
            self.bgs.get_mut(&id).expect("just listed").started_at = now;
            self.engine.schedule_now(Event::BgKick(ClientId(id)));
        }
    }

    /// Begins playback for a player: CRAS players `crs_start` their
    /// stream (clock begins after the initial delay); UFS players get the
    /// same initial delay for comparability. Returns the playback start.
    pub fn start_playback(&mut self, client: ClientId) -> Instant {
        self.activate_cras();
        let now = self.now();
        let mode = self.players.get(&client.0).expect("no such player").mode;
        let start = match mode {
            PlayerMode::Cras { stream } => self.cras.start(stream, now),
            PlayerMode::Ufs { .. } => now + self.cras.initial_delay(),
        };
        self.players
            .get_mut(&client.0)
            .expect("checked above")
            .playback_start = start;
        // A join formed by `start` is visible to delivery right away,
        // so the leader's very first packet already carries the member.
        self.state.net_sync_join(client);
        let due0 = self
            .players
            .get(&client.0)
            .expect("checked above")
            .due(0)
            .max(now);
        self.engine.schedule(due0, Event::PlayerFrame(client));
        start
    }

    /// Ends a viewer session for good: CRAS players `crs_close` their
    /// stream, which releases the admission shares and the stream
    /// slot. The player record stays for its stats but is marked done,
    /// so queued poll/decode events retire harmlessly.
    pub fn close_playback(&mut self, client: ClientId) {
        let Some(mode) = self.state.players.get(&client.0).map(|p| p.mode) else {
            return;
        };
        if let PlayerMode::Cras { stream } = mode {
            self.state.cras.close(stream);
        }
        if let Some(p) = self.state.players.get_mut(&client.0) {
            p.done = true;
        }
    }

    /// Retries admission for a parked (rebuffering) viewer: the stream
    /// re-runs the feed ladder (disk share, then cache window) and, on
    /// success, playback resumes from the frozen position after the
    /// standard initial delay. Returns whether the viewer resumed; a
    /// viewer that is not paused (or is done) returns false.
    pub fn retry_parked(&mut self, client: ClientId) -> bool {
        let (state, mut fx) = self.split();
        state.resume_player(client, &mut fx)
    }

    // ----- delivery subsystem setup (DESIGN §18) -----------------------

    /// Adds a delivery link and returns its index.
    pub fn net_add_link(&mut self, params: LinkParams) -> u32 {
        self.state.net.add_link(params)
    }

    /// Attaches a delivery session for `client` on `link`: every frame
    /// the client decodes from here on travels the paced link into a
    /// bounded playout buffer.
    pub fn net_attach(&mut self, client: ClientId, link: u32, cfg: SessionCfg) {
        self.state.net.attach(client.0, link, cfg);
    }

    /// Switches multicast fan-out for joined groups on or off.
    pub fn net_set_multicast(&mut self, on: bool) {
        self.state.net.set_multicast(on);
    }

    /// Installs (or clears) a deterministic fault injector on a link.
    pub fn net_set_link_faults(&mut self, link: u32, faults: Option<NetFaults>) {
        self.state.net.set_link_faults(link, faults);
    }

    /// Runs the event loop until `t` (events after `t` stay queued) and
    /// leaves the clock at `t`, so a quiet system still moves forward.
    pub fn run_until(&mut self, t: Instant) {
        while self.engine.peek_time().is_some_and(|at| at <= t) {
            let (now, ev) = self.engine.pop().expect("peeked above");
            self.handle(ev, now);
        }
        if self.now() < t {
            // Every pending event is past `t` once the loop ends.
            self.engine.advance_to(t);
        }
    }

    /// Runs for `d` from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Runs until `t` like [`System::run_until`], but delivers every
    /// batch of same-instant events in a *randomly permuted, then
    /// canonically re-sorted* order. The shuffle models a real kernel
    /// delivering simultaneous wakeups in arbitrary order; the re-sort
    /// by `Event::dispatch_key` is the system's defense. The
    /// interleaving fuzzer runs this under many `rng` seeds and asserts
    /// byte-identical metrics.
    pub fn run_until_shuffled(&mut self, t: Instant, rng: &mut Rng) {
        let mut batch: Vec<Event> = Vec::new();
        while self.engine.peek_time().is_some_and(|at| at <= t) {
            batch.clear();
            let at = self.engine.pop_batch(&mut batch).expect("peeked above");
            rng.shuffle(&mut batch);
            batch.sort_by_key(Event::dispatch_key);
            for &ev in &batch {
                self.handle(ev, at);
            }
        }
        if self.now() < t {
            self.engine.advance_to(t);
        }
    }

    // ----- redundancy: failure, detection and rebuild -----------------

    /// Declares a permanent failure of `vol` now: the device fails its
    /// in-flight and all future operations fast, and CRAS immediately
    /// steers mirrored streams to their surviving replicas and stops
    /// admitting new load against the volume.
    pub fn fail_volume(&mut self, vol: u32) {
        let now = self.now();
        self.disks.fail_volume(VolumeId(vol));
        self.cras.set_volume_failed(VolumeId(vol), true);
        if self.metrics.volume_failed_at.is_none() {
            self.metrics.volume_failed_at = Some(now);
        }
        self.trace
            .log_with(now, "volume", || format!("volume {vol} failed"));
        // Conservatively abort any rebuild in progress: the dead spindle
        // may be the copy's source, and a rebuild onto it is moot.
        self.rebuild = None;
    }

    /// Declares a whole-shard failure now: every volume fails fast at
    /// once, as when the machine hosting this shard loses power. Each
    /// spindle goes through [`System::fail_volume`] individually.
    /// A cluster gateway uses this as the shard-kill fault and stops
    /// stepping the shard afterwards; recovery of the shard follows the
    /// normal attach-replacement path one volume at a time.
    pub fn fail_shard(&mut self) {
        for vol in 0..self.cfg.server.volumes as u32 {
            if !self.cras.volume_failed(VolumeId(vol)) {
                self.fail_volume(vol);
            }
        }
    }

    /// Snapshot of this shard's admitted load, spare interval capacity
    /// and completion lag, consumed by cluster-level routing: the
    /// gateway sends each open to the live replica with the least lag,
    /// then the fewest admitted streams, then the most recent slack.
    pub fn load_signal(&self) -> ShardLoad {
        ShardLoad {
            streams: self.cras.stream_count(),
            recent_slack: self
                .metrics
                .recent_slack(self.cfg.server.interval, REBUILD_SLACK_WINDOW),
            recent_lag: self
                .metrics
                .recent_volume_lag(self.cfg.server.volumes, STEER_LAG_WINDOW)
                .into_iter()
                .fold(0.0, f64::max),
        }
    }

    /// Attaches a fresh replacement disk for a failed volume and starts
    /// the rate-controlled rebuild of every mirrored replica that lived
    /// there. The volume rejoins admission (and read steering) only once
    /// the rebuild completes.
    ///
    /// Refuses, and leaves the system untouched, when the volume is not
    /// failed, a rebuild is already running, another volume is down, or
    /// the failed device still has an operation in flight. The last case
    /// is a real race, not misuse: a down volume fails its in-flight operation *fast*,
    /// but the completion still travels through the event queue, so an
    /// attach issued from outside the event loop can land first — retry
    /// after letting the system run.
    pub fn try_attach_replacement(&mut self, vol: u32) -> Result<(), AttachError> {
        if !self.cras.volume_failed(VolumeId(vol)) {
            return Err(AttachError::NotFailed);
        }
        if self.rebuild.is_some() {
            return Err(AttachError::RebuildRunning);
        }
        // After a whole-shard kill every volume is down; a rebuild
        // planned now would source its copy from dead spindles and churn
        // fast-failing reads until it aborts. Refuse with a typed error
        // instead.
        if (0..self.cfg.server.volumes as u32)
            .any(|v| v != vol && self.cras.volume_failed(VolumeId(v)))
        {
            return Err(AttachError::PeersDown);
        }
        self.disks
            .try_replace_volume(VolumeId(vol), DiskDevice::st32550n())
            .map_err(|_| AttachError::DeviceBusy)?;
        let cfg = self.state.cfg;
        if cfg.disk_fault_prob > 0.0 {
            // The replacement spindle gets its own fault stream.
            self.disks
                .volume_mut(VolumeId(vol))
                .set_fault_injector(Some(cras_disk::FaultInjector::new(
                    cfg.disk_fault_prob,
                    DISK_FAULT_PENALTY,
                    cfg.seed ^ 0xFA17 ^ ((vol as u64) << 32) ^ 0x5EB1,
                )));
        }
        let chunks = self
            .placements
            .values()
            .flat_map(|p| p.rebuild_chunks(&self.fs, vol, REBUILD_CHUNK_BYTES))
            .collect();
        let now = self.now();
        self.metrics.rebuild_started_at = Some(now);
        self.rebuild_gen += 1;
        let gen = self.rebuild_gen;
        self.rebuild = Some(RebuildManager::new(vol, gen, chunks, REBUILD_RATE, now));
        self.trace
            .log_with(now, "rebuild", || format!("rebuilding volume {vol}"));
        self.engine.schedule_now(Event::RebuildStep(gen));
        Ok(())
    }

    // ----- event dispatch -----------------------------------------------

    /// Pops one event's worth of work: completes the substrate
    /// interaction the event carries (CPU slice end, disk completion),
    /// then runs the matching handler on [`SysState`] with the
    /// substrates lent to it as an [`Fx`].
    fn handle(&mut self, ev: Event, now: Instant) {
        let System {
            engine,
            disks,
            cpu,
            state,
            loads,
        } = self;
        let fx = &mut Fx {
            now,
            engine,
            disks,
            cpu,
        };
        match ev {
            Event::CrasTick => state.on_cras_tick(fx),
            Event::CpuSlice(tok) => {
                let out = fx.cpu.slice_end(tok, now);
                if let Some((at, t)) = out.resched {
                    fx.schedule(at, Event::CpuSlice(t));
                }
                if let Some(done) = out.completed {
                    // A scheduler tick consumes the per-spindle load
                    // snapshot (device queue depths + recent completion
                    // lag) for coded-read steering, sampled here — like
                    // disk completions — and handed to the server
                    // through its setter.
                    if matches!(done.tag, CpuTag::CrasSched) {
                        let lags = state
                            .metrics
                            .recent_volume_lag(fx.disks.len(), STEER_LAG_WINDOW);
                        loads.clear();
                        loads.extend(
                            fx.disks
                                .outstanding_depths()
                                .zip(lags)
                                .map(|(queued, lag)| VolumeLoad { queued, lag }),
                        );
                        state.cras.set_volume_loads(loads);
                    }
                    state.on_cpu_done(done.tag, fx);
                }
            }
            Event::DiskDone(vol) => {
                let (done, next) = fx.disks.complete(VolumeId(vol), now);
                if let Some(at) = next {
                    fx.schedule(at, Event::DiskDone(vol));
                }
                state.on_disk_done(done, fx);
            }
            Event::PlayerFrame(c) | Event::PlayerPoll(c) => state.on_player_tick(c, fx),
            Event::BgKick(c) => state.on_bg_kick(c, fx),
            Event::BgWrite(c) => state.on_bg_write(c, fx),
            Event::Sync => state.on_sync(fx),
            Event::RebuildStep(gen) => state.on_rebuild_step(gen, fx),
            Event::NetLinkFree(link) => state.on_net_link_free(link, fx),
            Event::NetArrive { link, pkt } => state.on_net_arrive(link, pkt, fx),
            Event::NetNak(c, ord) => state.on_net_nak(c, ord, fx),
            Event::NetPlayout(c, ord) => state.on_net_playout(c, ord, fx),
            Event::NetRetry(c) => state.net_resume(c, fx),
        }
    }

    /// Lends the substrates at the current instant to the [`SysState`]
    /// half, for entry points outside the event loop.
    fn split(&mut self) -> (&mut SysState, Fx<'_>) {
        let fx = Fx {
            now: self.engine.now(),
            engine: &mut self.engine,
            disks: &mut self.disks,
            cpu: &mut self.cpu,
        };
        (&mut self.state, fx)
    }
}

/// The substrates a [`SysState`] handler drives, lent for one event at
/// the instant `now` it runs. Each method that starts substrate work
/// also schedules the event that will complete it.
struct Fx<'a> {
    now: Instant,
    engine: &'a mut Engine<Event>,
    disks: &'a mut VolumeSet<DiskTag>,
    cpu: &'a mut Cpu<CpuTag>,
}

impl Fx<'_> {
    /// Arms a timer: `ev` fires at `at`.
    fn schedule(&mut self, at: Instant, ev: Event) {
        self.engine.schedule(at, ev);
    }

    /// Submits one disk request to volume `vol`.
    fn submit(&mut self, vol: u32, req: DiskRequest<DiskTag>) {
        if let Some(at) = self.disks.submit(VolumeId(vol), self.now, req) {
            self.engine.schedule(at, Event::DiskDone(vol));
        }
    }

    /// Submits a whole per-spindle interval batch to `vol` (C-SCAN
    /// ordered by the device).
    fn submit_batch(&mut self, vol: VolumeId, reqs: Vec<DiskRequest<DiskTag>>) {
        if let Some(at) = self.disks.submit_batch(vol, self.now, reqs) {
            self.engine.schedule(at, Event::DiskDone(vol.0));
        }
    }

    /// Wakes CPU thread `tid` with a `burst` of work; the CPU hands
    /// `tag` back when the burst completes.
    fn wake(&mut self, tid: ThreadId, burst: Duration, tag: CpuTag) {
        if let Some((at, tok)) = self.cpu.wake(tid, burst, tag, self.now) {
            self.engine.schedule(at, Event::CpuSlice(tok));
        }
    }
}

impl SysState {
    fn on_rebuild_step(&mut self, gen: u64, fx: &mut Fx) {
        // Load-aware pacing: scale the rate cap by the spare
        // fraction the recent intervals actually left on the table, so a
        // lightly loaded array rebuilds near the cap while a busy one
        // backs off. The floor keeps a saturated system from starving
        // the rebuild outright.
        let slack = self
            .metrics
            .recent_slack(self.cfg.server.interval, REBUILD_SLACK_WINDOW);
        let rate = REBUILD_RATE * slack.max(REBUILD_RATE_FLOOR);
        let Some(rb) = &mut self.rebuild else {
            return;
        };
        if rb.generation() != gen {
            // A pacing event scheduled by an aborted rebuild: letting it
            // through would advance the new rebuild's chunk cursor and
            // double-issue a chunk.
            return;
        }
        rb.set_rate(rate);
        match rb.take_next() {
            Some((idx, c)) => {
                // Normal-priority I/O: the RT queue's strict priority
                // protects admitted streams from the rebuild traffic.
                if c.srcs.is_empty() {
                    // Nothing survives to read (the parity of an
                    // all-absent tail row is zeros): write directly.
                    fx.submit(
                        c.dst_vol,
                        DiskRequest::write(c.dst_block, c.nblocks, DiskTag::RebuildWrite(gen, idx)),
                    );
                } else {
                    for s in &c.srcs {
                        fx.submit(
                            s.vol,
                            DiskRequest::read(s.block, s.nblocks, DiskTag::RebuildRead(gen, idx)),
                        );
                    }
                }
            }
            None => self.finish_rebuild(fx.now),
        }
    }

    fn finish_rebuild(&mut self, now: Instant) {
        let Some(rb) = self.rebuild.take() else {
            return;
        };
        self.cras.set_volume_failed(VolumeId(rb.volume()), false);
        self.metrics.rebuild_finished_at = Some(now);
        self.metrics.rebuild_bytes = rb.copied_bytes();
        self.trace.log_with(now, "rebuild", || {
            format!(
                "volume {} rebuilt ({} bytes)",
                rb.volume(),
                rb.copied_bytes()
            )
        });
    }

    /// [`IssueMode::SerialVolumes`] only: releases the next staged
    /// per-volume batch once the previous one has fully completed.
    fn issue_next_serial_batch(&mut self, fx: &mut Fx) {
        debug_assert_eq!(self.serial_outstanding, 0);
        let Some((slot, batch)) = self.serial_batches.pop_front() else {
            return;
        };
        self.serial_outstanding = batch.len();
        for r in &batch {
            fx.submit(r.volume.0, cras_io(r, slot));
        }
    }

    /// [`IssueMode::SerialVolumes`] only: settles one read of the
    /// in-flight batch (`retries` reads re-issued in its place) and
    /// releases the next batch when the current one drains.
    fn on_serial_read_settled(&mut self, retries: usize, fx: &mut Fx) {
        if self.issue != IssueMode::SerialVolumes {
            return;
        }
        debug_assert!(
            self.serial_outstanding > 0,
            "more reads settled than issued"
        );
        self.serial_outstanding = self.serial_outstanding - 1 + retries;
        if self.serial_outstanding == 0 {
            self.issue_next_serial_batch(fx);
        }
    }

    fn on_cras_tick(&mut self, fx: &mut Fx) {
        // The request-scheduler thread must win the CPU before the
        // interval pass happens; under round robin this is where delay
        // creeps in (Figure 10).
        let streams = self.cras.stream_count() as u64;
        let burst = CRAS_TICK_BASE + CRAS_TICK_PER_STREAM * streams.max(1);
        fx.wake(self.cras_tid, burst, CpuTag::CrasSched);
        fx.schedule(fx.now + self.cfg.server.interval, Event::CrasTick);
    }

    /// The completion half of a CPU burst: [`System`] has already ended
    /// the slice and re-armed the scheduler; this handler routes the
    /// completion tag.
    fn on_cpu_done(&mut self, tag: CpuTag, fx: &mut Fx) {
        let now = fx.now;
        match tag {
            CpuTag::CrasSched => {
                let rep = self.cras.interval_tick(now);
                if rep.overran {
                    // The paper's recovery action is a warning message;
                    // `Metrics::overruns` counts it below.
                    self.trace.log_with(now, "deadline", || {
                        format!("interval {} overran", rep.index)
                    });
                }
                self.trace.log_with(now, "cras", || {
                    format!(
                        "tick {}: {} reads, {} chunks posted",
                        rep.index,
                        rep.reqs.len(),
                        rep.posted_chunks
                    )
                });
                if rep.steered_streams > 0 {
                    self.trace.log_with(now, "cras", || {
                        format!(
                            "tick {}: {} stream(s) steered to parity fan-out",
                            rep.index, rep.steered_streams
                        )
                    });
                }
                if rep.lost_streams > 0 {
                    self.trace.log_with(now, "cras", || {
                        format!(
                            "tick {}: {} stream batch(es) dropped, no live replica",
                            rep.index, rep.lost_streams
                        )
                    });
                }
                let slots = self.metrics.on_interval(&rep, now);
                // A parked stream's viewer pauses (rebuffers) instead
                // of burning its poll budget against a frozen clock;
                // the gateway may retry admission for it later via
                // `System::retry_parked`.
                for sid in &rep.parked_streams {
                    let client = self.stream_clients.get(sid).map(|c| c.0);
                    if let Some(p) = client.and_then(|c| self.players.get_mut(&c)) {
                        p.paused = true;
                    }
                }
                match self.issue {
                    IssueMode::Pipelined => {
                        // Hand every spindle its whole batch at tick
                        // time: each volume chains through its own
                        // real-time queue, one op in flight per
                        // spindle, and the interval's I/O ends with the
                        // slowest volume — max(per-volume), the same
                        // quantity the admission test bounds.
                        for ((vol, batch), slot) in rep.volume_batches().zip(slots) {
                            let reqs = batch.iter().map(|r| cras_io(r, slot)).collect();
                            fx.submit_batch(vol, reqs);
                        }
                    }
                    IssueMode::SerialVolumes => {
                        // Baseline: stage the batches and release them
                        // one volume at a time, the next only when the
                        // previous fully completes — interval time
                        // degrades toward sum(per-volume).
                        for ((_, batch), slot) in rep.volume_batches().zip(slots) {
                            self.serial_batches.push_back((slot, batch.to_vec()));
                        }
                        if self.serial_outstanding == 0 {
                            self.issue_next_serial_batch(fx);
                        }
                    }
                }
            }
            CpuTag::PlayerDecode { client, frame } => {
                self.on_frame_decoded(client, frame, fx);
            }
            CpuTag::Hog(i) => {
                let tid = self.hog_tids[i as usize];
                fx.wake(tid, HOG_BURST, CpuTag::Hog(i));
            }
        }
    }

    /// The handler for a disk completion. [`System`] has already popped
    /// `done` from the volume and chained the next `DiskDone`.
    fn on_disk_done(&mut self, done: Completed<DiskTag>, fx: &mut Fx) {
        let now = fx.now;
        match done.req.tag {
            DiskTag::Cras(read, slot) if done.failed => {
                // A fast error from a failed volume: the read is re-issued
                // against the surviving replica (degraded read) or, with
                // no replica, its batch is dropped. The retries are
                // counted where the failed read was.
                let retries = self.cras.io_failed(&read);
                self.metrics.on_cras_read_failed(slot, &done, retries.len());
                for r in &retries {
                    fx.submit(r.volume.0, cras_io(r, slot));
                }
                self.on_serial_read_settled(retries.len(), fx);
            }
            DiskTag::Cras(read, slot) => {
                self.metrics.on_cras_read_done(slot, &done);
                // I/O-done manager thread: cheap, handled inline.
                self.cras.io_done(&read);
                self.on_serial_read_settled(0, fx);
            }
            DiskTag::RebuildRead(gen, idx) => {
                // A completion whose generation does not match the live
                // rebuild belongs to an aborted one; its index would be
                // read against the wrong chunk list. Drop it.
                let Some(rb) = self.rebuild.as_mut().filter(|rb| rb.generation() == gen) else {
                    return;
                };
                if done.failed {
                    // A surviving source failed under us: abort.
                    self.rebuild = None;
                } else if rb.source_done() {
                    // A mirror copy has one source; a parity
                    // reconstruction reads all g-1 survivors and XORs
                    // them — the write starts when the last lands.
                    let c = rb.chunk(idx);
                    let (dv, db, nb) = (c.dst_vol, c.dst_block, c.nblocks);
                    fx.submit(
                        dv,
                        DiskRequest::write(db, nb, DiskTag::RebuildWrite(gen, idx)),
                    );
                }
            }
            DiskTag::RebuildWrite(gen, idx) => {
                let Some(rb) = self.rebuild.as_mut().filter(|rb| rb.generation() == gen) else {
                    return;
                };
                if done.failed {
                    self.rebuild = None;
                } else {
                    match rb.chunk_copied(idx, now) {
                        Some(due) => fx.schedule(due, Event::RebuildStep(gen)),
                        None => self.finish_rebuild(now),
                    }
                }
            }
            DiskTag::UfsWriteback(_, _) => {}
            DiskTag::UfsFetch(v, run) | DiskTag::UfsReadAhead(v, run) => {
                for b in run.blocks() {
                    self.fs[v as usize].mark_cached(b);
                }
                self.check_server_wait(fx);
            }
        }
    }

    /// Issues a read through the Unix server on behalf of `owner`, against
    /// the file system on `vol`.
    fn ufs_read(&mut self, vol: u32, owner: UOwner, ino: Ino, offset: u64, len: u64, fx: &mut Fx) {
        let plan = self.fs[vol as usize].plan_read(ino, offset, len);
        let req = FsReq {
            tag: UReq { vol, owner },
            fetch: plan.fetch,
            read_ahead: plan.read_ahead,
        };
        if let Some(step) = self.userver.submit(req) {
            self.drive_userver(step, fx);
        }
    }

    /// Claims what `run` still needs from `vol`'s file system and submits
    /// one normal-class read per claimed run, tagged by `tag`.
    fn ufs_fetch(
        &mut self,
        vol: u32,
        run: FetchRun,
        tag: fn(u32, FetchRun) -> DiskTag,
        fx: &mut Fx,
    ) {
        for sub in self.fs[vol as usize].claim(run) {
            fx.submit(
                vol,
                DiskRequest::read(
                    fsblock_to_disk(sub.start),
                    SECT_PER_FSBLOCK * sub.len,
                    tag(vol, sub),
                ),
            );
        }
    }

    /// Advances the server when the blocks its fetch step waits on have
    /// all arrived.
    fn check_server_wait(&mut self, fx: &mut Fx) {
        let done = match &mut self.server_wait {
            None => false,
            Some(wait) => {
                // Keep only blocks whose I/O is still in flight.
                let vol = self
                    .userver
                    .current_tag()
                    .expect("a wait implies a request in service")
                    .vol;
                let fs = &self.fs[vol as usize];
                wait.retain(|&b| fs.is_in_flight(b));
                wait.is_empty()
            }
        };
        if done {
            self.server_wait = None;
            let step = self.userver.fetch_done();
            self.drive_userver(step, fx);
        }
    }

    fn drive_userver(&mut self, first: Step<UReq>, fx: &mut Fx) {
        let now = fx.now;
        let mut step = Some(first);
        while let Some(s) = step.take() {
            match s {
                Step::Fetch(run) => {
                    let vol = self
                        .userver
                        .current_tag()
                        .expect("a fetch step implies a request in service")
                        .vol;
                    // Blocks may have arrived (or be in flight) since the
                    // plan was made: fetch only what is truly absent, and
                    // sleep on in-flight buffers instead of re-issuing.
                    let fs = &self.fs[vol as usize];
                    let wait: Vec<cras_ufs::FsBlock> =
                        run.blocks().filter(|&b| !fs.cache().peek(b)).collect();
                    if wait.is_empty() {
                        step = Some(self.userver.fetch_done());
                        continue;
                    }
                    self.ufs_fetch(vol, run, DiskTag::UfsFetch, fx);
                    self.server_wait = Some(wait);
                    // The server blocks until the blocks arrive.
                    return;
                }
                Step::Done(req) => {
                    // Driver-level asynchronous read-ahead fills the cache
                    // without occupying the server; blocks already cached
                    // or in flight are skipped.
                    for &run in &req.read_ahead {
                        self.ufs_fetch(req.tag.vol, run, DiskTag::UfsReadAhead, fx);
                    }
                    match req.tag.owner {
                        UOwner::Player { client, frame } => {
                            // The player may be gone by the time its read
                            // completes (stopped, or its shard killed while
                            // the block was in flight): the completion is a
                            // logged drop, not a decode.
                            match self.players.get(&client.0).map(|p| p.tid) {
                                Some(tid) => fx.wake(
                                    tid,
                                    self.cfg.costs.decode,
                                    CpuTag::PlayerDecode { client, frame },
                                ),
                                None => self.trace.log_with(now, "userver", || {
                                    format!(
                                        "client {} gone; read for frame {frame} dropped",
                                        client.0
                                    )
                                }),
                            }
                        }
                        UOwner::Bg { client, bytes } => {
                            if let Some(bg) = self.bgs.get_mut(&client.0) {
                                bg.complete(bytes);
                                let at = now + bg.pause.max(BG_MIN_CYCLE);
                                fx.schedule(at, Event::BgKick(client));
                            } else {
                                self.trace.log_with(now, "userver", || {
                                    format!("bg client {} gone; completion dropped", client.0)
                                });
                            }
                        }
                    }
                    step = self.userver.next_request();
                }
            }
        }
    }

    fn on_player_tick(&mut self, client: ClientId, fx: &mut Fx) {
        let now = fx.now;
        let Some(player) = self.players.get(&client.0) else {
            return;
        };
        if player.done || player.paused {
            // A paused (rebuffering) viewer absorbs queued frame/poll
            // events without rescheduling; `retry_parked` restarts
            // the schedule with a fresh event.
            return;
        }
        let k = player.next_frame;
        let Some(chunk) = player.table.get(k) else {
            // A queued PlayerFrame event can outlive the frame table it
            // indexes (a shard-down race against re-admission): retire
            // the player as a traced drop instead of panicking
            // inside the event loop.
            self.trace.log_with(now, "player", || {
                format!("client {} frame {k} out of range; player retired", client.0)
            });
            if let Some(p) = self.players.get_mut(&client.0) {
                p.done = true;
            }
            return;
        };
        match player.mode {
            PlayerMode::Cras { stream } => {
                let got = self.cras.get(stream, chunk.timestamp);
                match got {
                    Some(_buffered) => {
                        let tid = self.players.get(&client.0).expect("exists").tid;
                        fx.wake(
                            tid,
                            self.cfg.costs.decode,
                            CpuTag::PlayerDecode { client, frame: k },
                        );
                    }
                    None => {
                        let media_now = self.cras.media_time(stream, now);
                        let p = self.players.get_mut(&client.0).expect("exists");
                        p.stats.polls += 1;
                        p.polls_this_frame += 1;
                        let expired = media_now > chunk.timestamp + JITTER;
                        if expired || p.polls_this_frame > 1000 {
                            if let Some(due) = p.frame_dropped(now) {
                                fx.schedule(due.max(now), Event::PlayerFrame(client));
                            }
                            self.trace.log_with(now, "player", || {
                                format!("client {} dropped frame {k}", client.0)
                            });
                        } else {
                            fx.schedule(now + PLAYER_POLL, Event::PlayerPoll(client));
                        }
                    }
                }
            }
            PlayerMode::Ufs { ino, vol } => {
                self.ufs_read(
                    vol,
                    UOwner::Player { client, frame: k },
                    ino,
                    chunk.file_offset,
                    chunk.size as u64,
                    fx,
                );
            }
        }
    }

    fn on_frame_decoded(&mut self, client: ClientId, frame: u32, fx: &mut Fx) {
        let now = fx.now;
        let Some(player) = self.players.get_mut(&client.0) else {
            return;
        };
        // A decode still on the CPU when `close_playback` ran shows nothing.
        if player.done {
            return;
        }
        if let Some(due) = player.frame_shown(frame, now, self.cfg.frame_trace) {
            let at = due.max(now);
            fx.schedule(at, Event::PlayerFrame(client));
        }
        if self.net.has_session(client.0) {
            self.net_deliver_frame(client, frame, fx);
        }
    }

    // ----- delivery subsystem handlers (DESIGN §18) -------------------

    /// Aligns `client`'s multicast membership with the cache manager's
    /// join state, resolving the leader stream to its client. Called at
    /// playback start (so the group exists before the leader's first
    /// transmission — no startup NAK repair) and again on every decode
    /// (joins dissolve when a member parks or seeks away).
    fn net_sync_join(&mut self, client: ClientId) {
        if !self.net.has_session(client.0) {
            return;
        }
        let Some(p) = self.players.get(&client.0) else {
            return;
        };
        let leader_client = match p.mode {
            PlayerMode::Cras { stream } => match self.cras.cache_state_of(stream) {
                CacheState::Joined { leader } => self.stream_clients.get(&leader).map(|c| c.0),
                _ => None,
            },
            PlayerMode::Ufs { .. } => None,
        };
        self.net.sync_membership(client.0, leader_client);
    }

    /// Hands a decoded frame to the delivery subsystem: aligns multicast
    /// membership with the cache manager's join state, then transmits
    /// (or, for a group member, registers the frame against the
    /// leader's shared packet).
    fn net_deliver_frame(&mut self, client: ClientId, frame: u32, fx: &mut Fx) {
        let Some(p) = self.players.get(&client.0) else {
            return;
        };
        let Some(chunk) = p.table.get(frame) else {
            return;
        };
        self.net_sync_join(client);
        let now = fx.now;
        self.net_step(fx, |net, out| {
            net.send_frame(
                client.0,
                frame,
                chunk.size as u64,
                chunk.timestamp,
                now,
                out,
            )
        });
    }

    fn on_net_link_free(&mut self, link: u32, fx: &mut Fx) {
        let now = fx.now;
        self.net_step(fx, |net, out| net.on_link_free(link, now, out));
    }

    fn on_net_arrive(&mut self, link: u32, pkt: u64, fx: &mut Fx) {
        let now = fx.now;
        self.net_step(fx, |net, out| net.on_arrive(link, pkt, now, out));
    }

    fn on_net_nak(&mut self, client: ClientId, ord: u32, fx: &mut Fx) {
        let now = fx.now;
        self.net_step(fx, |net, out| net.on_nak(client.0, ord, now, out));
    }

    fn on_net_playout(&mut self, client: ClientId, ord: u32, fx: &mut Fx) {
        let now = fx.now;
        self.net_step(fx, |net, out| net.on_playout(client.0, ord, now, out));
    }

    /// Runs one delivery-machine step into the reused effect buffer,
    /// then carries out the requested effects: timers become scheduled
    /// events, park/resume requests run their stream-layer handlers
    /// inline (they drive further substrate work but never produce
    /// further net effects, so this does not recurse).
    fn net_step(&mut self, fx: &mut Fx, step: impl FnOnce(&mut NetDelivery, &mut Vec<NetEffect>)) {
        let mut out = std::mem::take(&mut self.net_fx);
        step(&mut self.net, &mut out);
        for e in out.drain(..) {
            match e {
                NetEffect::LinkFree { at, link } => fx.schedule(at, Event::NetLinkFree(link)),
                NetEffect::Arrive { at, link, pkt } => {
                    fx.schedule(at, Event::NetArrive { link, pkt })
                }
                NetEffect::Nak { at, session, ord } => {
                    fx.schedule(at, Event::NetNak(ClientId(session), ord))
                }
                NetEffect::Playout { at, session, ord } => {
                    fx.schedule(at, Event::NetPlayout(ClientId(session), ord))
                }
                NetEffect::Park { session } => self.net_park(ClientId(session), fx.now),
                NetEffect::Resume { session } => self.net_resume(ClientId(session), fx),
            }
        }
        self.net_fx = out;
    }

    /// Credit exhausted: the client's playout buffer crossed its high
    /// watermark, so park the feeding stream — it sheds its cache pins
    /// and disk share until the client drains. A stream some other
    /// machinery already parked simply rides along (the net-side resume
    /// will retry it like any rebuffer).
    fn net_park(&mut self, client: ClientId, now: Instant) {
        let Some(p) = self.players.get(&client.0) else {
            self.net.mark_resumed(client.0);
            return;
        };
        let PlayerMode::Cras { stream } = p.mode else {
            self.net.mark_resumed(client.0);
            return;
        };
        if p.done {
            self.net.mark_resumed(client.0);
            return;
        }
        if p.paused {
            return;
        }
        if self.cras.park(stream, now) {
            self.players.get_mut(&client.0).expect("checked").paused = true;
            self.metrics.net_parks += 1;
            self.trace.log_with(now, "net", || {
                format!("client {} parked by delivery backpressure", client.0)
            });
        } else {
            self.net.mark_resumed(client.0);
        }
    }

    /// Credit restored: the buffer drained below the low watermark, so
    /// resume the feeding stream through the ordinary feed ladder. When
    /// the ladder has no capacity yet the attempt re-arms on a timer —
    /// a fully drained session generates no more playout events, so the
    /// chain cannot re-trigger the resume by itself.
    fn net_resume(&mut self, client: ClientId, fx: &mut Fx) {
        let now = fx.now;
        // Nothing to resume when the viewer is gone or done, or when
        // something else (a gateway failover, the workload's retry
        // loop) already resumed the stream.
        let waiting = self.net.is_parked(client.0)
            && self
                .players
                .get(&client.0)
                .is_some_and(|p| !p.done && p.paused && matches!(p.mode, PlayerMode::Cras { .. }));
        if !waiting || self.resume_player(client, fx) {
            self.net.mark_resumed(client.0);
        } else {
            fx.schedule(now + self.cfg.server.interval, Event::NetRetry(client));
        }
    }

    /// Restarts a paused CRAS viewer through the server's feed ladder
    /// ([`CrasServer::resume`]); a viewer that is not paused, or is
    /// done, stays as it is. On success the player unpauses, its
    /// next frame is scheduled at the restarted clock's begin, and the
    /// resume is counted. Returns whether the viewer resumed.
    fn resume_player(&mut self, client: ClientId, fx: &mut Fx) -> bool {
        let now = fx.now;
        let Some(p) = self
            .players
            .get_mut(&client.0)
            .filter(|p| !p.done && p.paused)
        else {
            return false;
        };
        let PlayerMode::Cras { stream } = p.mode else {
            return false;
        };
        let Some(begin) = self.cras.resume(stream, now) else {
            return false;
        };
        p.paused = false;
        p.polls_this_frame = 0;
        fx.schedule(begin, Event::PlayerFrame(client));
        self.metrics.resumed_streams += 1;
        true
    }

    fn on_bg_write(&mut self, client: ClientId, fx: &mut Fx) {
        let now = fx.now;
        let Some(w) = self.writers.get_mut(&client.0) else {
            return;
        };
        let (ino, vol, bytes, period) = (w.ino, w.vol, w.write_size, w.period);
        w.complete();
        // Delayed write: allocate + dirty in memory; no disk I/O here.
        self.fs[vol as usize]
            .append_dirty(ino, bytes)
            .expect("edit file grows within limits");
        fx.schedule(now + period, Event::BgWrite(client));
    }

    fn on_sync(&mut self, fx: &mut Fx) {
        let now = fx.now;
        // Flush everything dirty each pass, like the classic update
        // daemon: write-back arrives in bursts, which is exactly the
        // disk contention the editing experiment studies.
        for v in 0..self.fs.len() {
            let runs = self.fs[v].take_dirty(usize::MAX);
            for run in runs {
                fx.submit(
                    v as u32,
                    DiskRequest::write(
                        fsblock_to_disk(run.start),
                        SECT_PER_FSBLOCK * run.len,
                        DiskTag::UfsWriteback(v as u32, run),
                    ),
                );
            }
        }
        if !self.writers.is_empty() {
            fx.schedule(now + Duration::from_secs(1), Event::Sync);
        }
    }

    fn on_bg_kick(&mut self, client: ClientId, fx: &mut Fx) {
        let Some(bg) = self.bgs.get(&client.0) else {
            return;
        };
        if bg.in_flight {
            return;
        }
        let (pos, len) = bg.next_range();
        let (ino, vol) = (bg.ino, bg.vol);
        self.bgs.get_mut(&client.0).expect("exists").in_flight = true;
        self.ufs_read(vol, UOwner::Bg { client, bytes: len }, ino, pos, len, fx);
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use cras_core::{assert_tiles, ParityGeometry, PlacementPolicy, VolumeExtent};
    use cras_media::StreamProfile;

    fn sys(cfg: SysConfig) -> System {
        System::new(cfg)
    }

    #[test]
    fn single_cras_player_plays_smoothly() {
        let mut s = sys(SysConfig::default());
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(15));
        let p = &s.players[&c.0];
        assert!(p.done, "playback should finish");
        assert_eq!(p.stats.frames_dropped, 0, "no drops expected");
        assert_eq!(p.stats.frames_shown, 300);
        let (mean, max) = p.delay_summary();
        // Delay is decode cost plus scheduling noise: a few ms.
        assert!(mean < 0.010, "mean delay {mean}");
        assert!(max < 0.050, "max delay {max}");
    }

    #[test]
    fn frame_trace_off_keeps_the_first_point_and_the_same_summary() {
        let run = |frame_trace: bool| {
            let mut s = sys(SysConfig {
                frame_trace,
                ..SysConfig::default()
            });
            let movie = s.record_movie("m", StreamProfile::mpeg1(), 6.0);
            let noise = s.record_movie("noise", StreamProfile::mpeg2(), 10.0);
            let c = s.add_cras_player(&movie, 1).unwrap();
            s.add_bg_reader(&noise);
            s.start_bg();
            s.start_playback(c);
            s.run_for(Duration::from_secs(9));
            s.players.remove(&c.0).unwrap()
        };
        let (short, full) = (run(false), run(true));
        assert_eq!(short.stats.frames_shown, full.stats.frames_shown);
        assert_eq!(
            full.stats.delays.points().len() as u64,
            full.stats.frames_shown
        );
        let bits = |p: &Player| {
            let (mean, max) = p.delay_summary();
            (mean.to_bits(), max.to_bits())
        };
        assert_eq!(bits(&short), bits(&full));
        // The summary folds the traced points, in order.
        let mut folded = cras_sim::stats::OnlineStats::new();
        for &(_, d) in full.stats.delays.points() {
            folded.add(d);
        }
        assert_eq!(
            bits(&full),
            (folded.mean().to_bits(), folded.max().to_bits())
        );
        assert_eq!(
            short.stats.delays.points(),
            &full.stats.delays.points()[..1]
        );
    }

    #[test]
    fn single_ufs_player_plays() {
        let mut s = sys(SysConfig::default());
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 5.0);
        let c = s.add_ufs_player(&movie, 1);
        s.start_playback(c);
        s.run_for(Duration::from_secs(10));
        let p = &s.players[&c.0];
        assert!(p.done);
        assert_eq!(p.stats.frames_shown, 150);
        let (mean, _max) = p.delay_summary();
        // Unloaded UFS still pays a disk trip per frame: delay small but
        // larger than CRAS's.
        assert!(mean < 0.050, "mean delay {mean}");
    }

    #[test]
    fn cras_beats_ufs_under_background_load() {
        // The Figure 7 contrast in miniature.
        let run = |use_cras: bool| -> (f64, f64) {
            let mut s = sys(SysConfig::default());
            let movie = s.record_movie("m", StreamProfile::mpeg1(), 8.0);
            let noise = s.record_movie("noise", StreamProfile::mpeg2(), 20.0);
            let c = if use_cras {
                s.add_cras_player(&movie, 1).unwrap()
            } else {
                s.add_ufs_player(&movie, 1)
            };
            s.add_bg_reader(&noise);
            s.add_bg_reader(&noise);
            s.start_bg();
            s.start_playback(c);
            s.run_for(Duration::from_secs(15));
            s.players[&c.0].delay_summary()
        };
        let (cras_mean, cras_max) = run(true);
        let (ufs_mean, ufs_max) = run(false);
        assert!(
            cras_max < ufs_max,
            "cras max {cras_max} vs ufs max {ufs_max}"
        );
        assert!(
            cras_mean < ufs_mean,
            "cras mean {cras_mean} vs ufs mean {ufs_mean}"
        );
    }

    #[test]
    fn admission_rejects_overload_when_enforced() {
        let mut s = sys(SysConfig::default());
        let movies: Vec<Movie> = (0..30)
            .map(|i| s.record_movie(&format!("m{i}"), StreamProfile::mpeg1(), 5.0))
            .collect();
        let mut admitted = 0;
        for m in &movies {
            match s.add_cras_player(m, 1) {
                Ok(_) => admitted += 1,
                Err(_) => break,
            }
        }
        assert!((10..=20).contains(&admitted), "admitted {admitted} streams");
    }

    #[test]
    fn hogs_delay_round_robin_player_only() {
        let run = |mode: SchedMode| -> f64 {
            let mut cfg = SysConfig::default();
            cfg.sched = mode;
            cfg.hogs = 2;
            let mut s = sys(cfg);
            let movie = s.record_movie("m", StreamProfile::mpeg1(), 6.0);
            let c = s.add_cras_player(&movie, 1).unwrap();
            s.start_hogs();
            s.start_playback(c);
            s.run_for(Duration::from_secs(10));
            s.players[&c.0].delay_summary().1
        };
        let fp_max = run(SchedMode::FixedPriority);
        let rr_max = run(SchedMode::RoundRobin {
            quantum: Duration::from_millis(100),
        });
        assert!(
            rr_max > 5.0 * fp_max.max(0.001),
            "rr {rr_max} vs fp {fp_max}"
        );
    }

    #[test]
    fn trace_captures_server_activity() {
        let mut s = sys(SysConfig::default());
        s.trace.set_enabled(true);
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 4.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(6));
        let rendered = s.trace.render();
        assert!(rendered.contains("cras"), "trace: {rendered}");
        assert!(rendered.contains("reads"), "trace: {rendered}");
        // No drops in this scenario => no player drop records.
        assert!(!rendered.contains("dropped frame"));
    }

    #[test]
    fn trace_records_volume_failure_and_rebuild() {
        let mut s = sys(mirrored_cfg(2));
        s.trace.set_enabled(true);
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(2));
        let (_, m) = mirrored_placement(&s, "m");
        s.fail_volume(m);
        s.run_for(Duration::from_secs(1));
        s.try_attach_replacement(m).expect("attach replacement");
        s.run_for(Duration::from_secs(15));
        assert!(!s.rebuild_active(), "rebuild should have completed");
        let logged = |message: String| {
            let mut hits = s.trace.records().filter(|r| r.message == message);
            let at = hits
                .next()
                .unwrap_or_else(|| panic!("no record {message:?}"))
                .at;
            assert!(hits.next().is_none(), "{message:?} logged twice");
            at
        };
        let metrics = &s.metrics;
        assert_eq!(
            Some(logged(format!("volume {m} failed"))),
            metrics.volume_failed_at
        );
        assert_eq!(
            Some(logged(format!("rebuilding volume {m}"))),
            metrics.rebuild_started_at
        );
        let bytes = metrics.rebuild_bytes;
        assert!(bytes > 0);
        assert_eq!(
            Some(logged(format!("volume {m} rebuilt ({bytes} bytes)"))),
            metrics.rebuild_finished_at
        );
    }

    #[test]
    fn run_for_on_an_idle_system_advances_the_clock_by_exactly_d() {
        let mut s = sys(SysConfig::default());
        for ms in [150, 1, 2_000] {
            let before = s.now();
            s.run_for(Duration::from_millis(ms));
            assert_eq!(s.now(), before + Duration::from_millis(ms));
        }
    }

    #[test]
    fn close_playback_frees_the_share_and_retires_queued_events() {
        let mut s = sys(SysConfig::default());
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 12.0);
        let mut clients = Vec::new();
        while let Ok(c) = s.add_cras_player(&movie, 1) {
            clients.push(c);
            assert!(clients.len() < 100, "admission never refused");
        }
        assert!(clients.len() >= 2, "too few streams admitted");
        for &c in &clients {
            s.start_playback(c);
        }
        s.run_for(Duration::from_secs(3));
        let victim = clients[0];
        let shown = s.players[&victim.0].stats.frames_shown;
        assert!(shown > 0, "the victim never played");
        assert!(!s.players[&victim.0].done);
        // Mid-playback, the victim's next PlayerFrame (or PlayerPoll) is
        // still queued when its stream closes.
        s.close_playback(victim);
        let late = s
            .add_cras_player(&movie, 1)
            .expect("the closed stream's share admits the next open");
        s.start_playback(late);
        s.run_for(Duration::from_secs(15));
        let v = &s.players[&victim.0];
        assert!(v.done);
        assert_eq!(
            v.stats.frames_shown, shown,
            "a closed player kept showing frames"
        );
        for c in clients[1..].iter().chain([&late]) {
            let p = &s.players[&c.0];
            assert!(p.done, "client {} never finished", c.0);
            assert_eq!(p.stats.frames_dropped, 0, "client {} dropped frames", c.0);
        }
    }

    #[test]
    fn admission_ratio_measured() {
        let mut s = sys(SysConfig::default());
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(12));
        let (avg, max) = s.metrics.ratio_summary(1);
        // One low-rate stream: the paper finds the estimate very
        // pessimistic (actual well under calculated).
        assert!(avg > 0.0 && avg < 0.6, "avg ratio {avg}");
        assert!(max < 1.0, "max ratio {max}");
    }

    #[test]
    fn round_robin_places_movies_on_alternate_volumes() {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = 2;
        let mut s = sys(cfg);
        let a = s.record_movie("a", StreamProfile::mpeg1(), 4.0);
        let b = s.record_movie("b", StreamProfile::mpeg1(), 4.0);
        match s.placement(&a.name) {
            Some(MoviePlacement::Whole { vol, .. }) => assert_eq!(*vol, 0),
            other => panic!("unexpected placement {other:?}"),
        }
        match s.placement(&b.name) {
            Some(MoviePlacement::Whole { vol, .. }) => assert_eq!(*vol, 1),
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn two_volume_system_plays_from_both_disks() {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = 2;
        let mut s = sys(cfg);
        let a = s.record_movie("a", StreamProfile::mpeg1(), 8.0);
        let b = s.record_movie("b", StreamProfile::mpeg1(), 8.0);
        let ca = s.add_cras_player(&a, 1).unwrap();
        let cb = s.add_cras_player(&b, 1).unwrap();
        s.start_playback(ca);
        s.start_playback(cb);
        s.run_for(Duration::from_secs(12));
        for c in [ca, cb] {
            let p = &s.players[&c.0];
            assert!(p.done, "player {} unfinished", c.0);
            assert_eq!(p.stats.frames_dropped, 0, "player {} dropped", c.0);
        }
        let (rt0, _) = s.disks.volume(VolumeId(0)).stats().ops;
        let (rt1, _) = s.disks.volume(VolumeId(1)).stats().ops;
        assert!(rt0 > 0, "volume 0 idle");
        assert!(rt1 > 0, "volume 1 idle");
    }

    #[test]
    fn striped_movie_reads_every_volume() {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = 2;
        cfg.server.placement = PlacementPolicy::Striped {
            stripe_bytes: 256 * 1024,
        };
        let mut s = sys(cfg);
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 8.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(12));
        let p = &s.players[&c.0];
        assert!(p.done, "playback should finish");
        assert_eq!(p.stats.frames_dropped, 0, "no drops expected");
        let (rt0, _) = s.disks.volume(VolumeId(0)).stats().ops;
        let (rt1, _) = s.disks.volume(VolumeId(1)).stats().ops;
        assert!(rt0 > 0, "volume 0 idle");
        assert!(rt1 > 0, "volume 1 idle");
    }

    /// Asserts a resolved map tiles the movie's logical bytes
    /// `[0, total)` in order with no gap or overlap, and returns the
    /// volumes it reads.
    fn covered_volumes(map: &[VolumeExtent], total: u64) -> BTreeSet<u32> {
        assert!(
            assert_tiles(map, "resolved") >= total,
            "extents cover the movie"
        );
        map.iter().map(|ve| ve.volume.0).collect()
    }

    #[test]
    fn every_placement_records_resolves_and_sizes_its_files() {
        let striped = PlacementPolicy::Striped {
            stripe_bytes: 256 * 1024,
        };
        let parity = PlacementPolicy::Parity { group: 4 };
        // (policy, volumes holding data, mirror volumes, storage factor)
        let cases: [(PlacementPolicy, &[u32], &[u32], f64); 4] = [
            (PlacementPolicy::RoundRobin, &[0], &[], 1.0),
            (striped, &[0, 1, 2, 3], &[], 1.0),
            (PlacementPolicy::Mirrored, &[0], &[1], 2.0),
            (parity, &[0, 1, 2, 3], &[], 4.0 / 3.0),
        ];
        for (policy, data_vols, mirror_vols, factor) in cases {
            let mut cfg = SysConfig::default();
            cfg.server.volumes = 4;
            cfg.server.placement = policy;
            let mut s = sys(cfg);
            let movie = s.record_movie("m", StreamProfile::mpeg1(), 6.0);
            let total = movie.table.total_bytes();
            let p = s.placement("m").expect("recorded").clone();
            assert_eq!(p.files()[0], (data_vols[0], movie.ino), "{policy:?}");
            let (extents, mirror, parity_state) = p.resolve(&s.fs, movie.ino);
            let vols = covered_volumes(&extents, total);
            assert!(vols.iter().eq(data_vols), "{policy:?} data on {vols:?}");
            assert!(extents.len() >= data_vols.len(), "{policy:?}");
            match mirror {
                Some(m) => {
                    let vols = covered_volumes(&m, total);
                    assert!(vols.iter().eq(mirror_vols), "{policy:?} mirror on {vols:?}");
                }
                None => assert!(mirror_vols.is_empty(), "{policy:?} lost its mirror"),
            }
            assert_eq!(parity_state.is_some(), policy == parity, "{policy:?}");
            if let Some(ps) = parity_state {
                for v in 0..4u32 {
                    let mapped = assert_tiles(&ps.parity_maps[v as usize], "resolved parity");
                    assert!(
                        mapped >= ps.geom.parity_bytes_on(v),
                        "volume {v} parity file too small"
                    );
                }
            }
            let stored: u64 = p
                .files()
                .iter()
                .map(|&(v, ino)| s.ufs_on(v).file_size(ino))
                .sum();
            let measured = stored as f64 / total as f64;
            assert!(
                (measured - factor).abs() < 0.05,
                "{policy:?} stores {measured:.3}x, expected {factor:.3}x"
            );
        }
    }

    fn mirrored_cfg(volumes: usize) -> SysConfig {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = volumes;
        cfg.server.placement = PlacementPolicy::Mirrored;
        cfg
    }

    fn mirrored_placement(s: &System, name: &str) -> (u32, u32) {
        match s.placement(name) {
            Some(MoviePlacement::Mirrored {
                primary, mirror, ..
            }) => (*primary, *mirror),
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn mirrored_movies_never_share_the_spindle() {
        let mut s = sys(mirrored_cfg(4));
        for i in 0..6 {
            let name = format!("m{i}");
            s.record_movie(&name, StreamProfile::mpeg1(), 3.0);
            let (p, m) = mirrored_placement(&s, &name);
            assert_ne!(p, m, "movie {name} mirrored onto its own volume");
        }
    }

    #[test]
    fn mirrored_stream_survives_a_volume_failure() {
        let mut s = sys(mirrored_cfg(4));
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(3));
        let (p, _) = mirrored_placement(&s, "m");
        s.fail_volume(p);
        s.run_for(Duration::from_secs(12));
        let pl = &s.players[&c.0];
        assert!(pl.done, "playback should finish through the failure");
        assert_eq!(pl.stats.frames_dropped, 0, "mirrored stream dropped");
        assert_eq!(s.metrics.overruns, 0, "deadline missed during failover");
        assert!(
            s.metrics.degraded_intervals > 0,
            "the mirror should have served intervals"
        );
    }

    #[test]
    fn retries_settle_on_the_failed_reads_records() {
        // A volume fails with an interval's reads queued on it: each
        // read fails fast and is retried on the mirror, and the retries
        // must settle on the records the failed reads were counted on.
        let mut s = sys(mirrored_cfg(2));
        let mut clients = Vec::new();
        for name in ["a", "b"] {
            let movie = s.record_movie(name, StreamProfile::mpeg1(), 6.0);
            clients.push(s.add_cras_player(&movie, 1).unwrap());
        }
        for &c in &clients {
            s.start_playback(c);
        }
        s.run_for(Duration::from_secs(2));
        let busy = loop {
            if let Some(v) = s.disks.outstanding_depths().position(|n| n > 0) {
                break v as u32;
            }
            let (now, ev) = s.engine.pop().expect("playback has events queued");
            s.handle(ev, now);
        };
        s.fail_volume(busy);
        s.run_for(Duration::from_secs(10));
        assert!(clients.iter().all(|c| s.players[&c.0].done));
        assert!(s.metrics.degraded_reads > 0, "no read was retried");
        // The server counts each retry as an issued read.
        let stats = s.cras.stats();
        assert!(stats.degraded_reads > 0 && stats.lost_reads == 0);
        let issued = stats.reads_issued as usize;
        let records = s.metrics.intervals();
        let walls = s.metrics.interval_walls();
        assert!(records.iter().all(|r| r.remaining == 0), "{records:?}");
        assert!(walls.iter().all(|w| w.remaining == 0), "{walls:?}");
        assert_eq!(records.iter().map(|r| r.total_reqs).sum::<usize>(), issued);
        assert_eq!(walls.iter().map(|w| w.total_reqs).sum::<usize>(), issued);
    }

    #[test]
    fn rebuild_restores_the_volume_at_the_configured_rate() {
        let mut s = sys(mirrored_cfg(4));
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 20.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(2));
        let (_, m) = mirrored_placement(&s, "m");
        s.fail_volume(m);
        // Let the dead volume's error queue drain before attaching.
        s.run_for(Duration::from_secs(1));
        s.try_attach_replacement(m).expect("attach replacement");
        assert!(s.rebuild_active());
        s.run_for(Duration::from_secs(25));
        assert!(!s.rebuild_active(), "rebuild should have completed");
        let t = s.metrics.rebuild_time().expect("rebuild finished");
        assert!(s.metrics.rebuild_bytes > 0);
        // Rate control: the copy may not beat `REBUILD_RATE`.
        let floor = s.metrics.rebuild_bytes as f64 / REBUILD_RATE;
        assert!(
            t.as_secs_f64() >= floor * 0.99,
            "rebuild {}s beat the rate floor {floor}s",
            t.as_secs_f64()
        );
        assert!(!s.cras.volume_failed(VolumeId(m)), "capacity not restored");
        let pl = &s.players[&c.0];
        assert_eq!(pl.stats.frames_dropped, 0, "rebuild traffic dropped frames");
        assert_eq!(s.metrics.overruns, 0, "rebuild caused deadline misses");
    }

    #[test]
    fn attach_refuses_until_the_error_queue_drains() {
        let mut s = sys(mirrored_cfg(4));
        s.record_movie("m", StreamProfile::mpeg1(), 5.0);
        let (p, _) = mirrored_placement(&s, "m");
        let q = (p + 1) % 4;
        assert_eq!(s.try_attach_replacement(q), Err(AttachError::NotFailed));
        // Put an op in flight on the spindle, then declare it failed:
        // the op's completion still has to travel the event queue, so an
        // immediate attach races the drain and must be refused (the old
        // panicking path fired exactly here).
        let now = s.now();
        if let Some(at) = s.disks.submit(
            VolumeId(p),
            now,
            DiskRequest::read(
                1_000,
                64,
                DiskTag::UfsWriteback(
                    p,
                    FetchRun {
                        start: 1_000,
                        len: 1,
                    },
                ),
            ),
        ) {
            s.engine.schedule(at, Event::DiskDone(p));
        }
        s.fail_volume(p);
        assert_eq!(s.try_attach_replacement(p), Err(AttachError::DeviceBusy));
        assert!(
            !s.rebuild_active(),
            "refused attach must not start a rebuild"
        );
        s.run_for(Duration::from_secs(1));
        assert_eq!(s.try_attach_replacement(p), Ok(()));
        assert!(s.rebuild_active());
        assert_eq!(
            s.try_attach_replacement(p),
            Err(AttachError::RebuildRunning)
        );
    }

    #[test]
    fn second_failure_mid_rebuild_restarts_cleanly() {
        // A rebuild is aborted mid-copy by a second failure of the same
        // volume, and a new rebuild starts while one of the aborted
        // rebuild's events is still queued: its next pacing event, or
        // the completion of a source read in flight. The generation tags
        // must keep that stale event from driving the new rebuild's
        // chunk cursor — the refailed run has to copy exactly what a
        // clean run copies.
        fn step(s: &mut System) -> Event {
            let (now, ev) = s.engine.pop().expect("the rebuild has events queued");
            s.handle(ev, now);
            ev
        }
        // `refail`: `None` for a clean run, else how many events to step
        // past the copy write that lands first after 200 ms.
        let run = |refail: Option<usize>| -> u64 {
            let mut s = sys(mirrored_cfg(4));
            s.record_movie("m", StreamProfile::mpeg1(), 10.0);
            let (_, m) = mirrored_placement(&s, "m");
            s.fail_volume(m);
            s.run_for(Duration::from_secs(1));
            s.try_attach_replacement(m).expect("attach replacement");
            if let Some(extra) = refail {
                // The title's ~2 MB take about half a second at
                // `REBUILD_RATE`. Right after a copy write lands, the
                // next pacing event is queued; one event later, the
                // next chunk's source read is in flight. Either way the
                // replacement is idle, so the new rebuild starts at once.
                s.run_for(Duration::from_millis(200));
                while !matches!(step(&mut s), Event::DiskDone(v) if v == m) {}
                for _ in 0..extra {
                    step(&mut s);
                }
                assert!(s.rebuild_active(), "rebuild finished too early");
                s.fail_volume(m);
                assert!(!s.rebuild_active(), "second failure must abort");
                s.try_attach_replacement(m)
                    .expect("the replacement is idle");
            }
            s.run_for(Duration::from_secs(60));
            assert!(!s.rebuild_active(), "rebuild should have completed");
            assert!(!s.cras.volume_failed(VolumeId(m)));
            s.metrics.rebuild_bytes
        };
        let clean = run(None);
        assert!(clean > 0);
        for (extra, stale) in [(0, "pacing event"), (1, "source read")] {
            assert_eq!(
                run(Some(extra)),
                clean,
                "a stale {stale} from the aborted rebuild drove the new one"
            );
        }
    }

    #[test]
    fn serial_issue_baseline_still_meets_light_deadlines() {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = 2;
        cfg.server.placement = PlacementPolicy::Striped {
            stripe_bytes: 256 * 1024,
        };
        let mut s = sys(cfg);
        s.set_issue_mode(IssueMode::SerialVolumes);
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 8.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(12));
        let p = &s.players[&c.0];
        assert!(p.done, "light serial load should still finish");
        assert_eq!(p.stats.frames_dropped, 0);
        assert!(
            s.serial_batches.is_empty() && s.serial_outstanding == 0,
            "staged batches drained"
        );
        assert!(!s.metrics.interval_walls().is_empty());
    }

    #[test]
    #[should_panic(expected = "striped movie is not supported")]
    fn ufs_player_on_striped_movie_panics() {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = 2;
        cfg.server.placement = PlacementPolicy::Striped {
            stripe_bytes: 256 * 1024,
        };
        let mut s = sys(cfg);
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 4.0);
        s.add_ufs_player(&movie, 1);
    }

    fn parity_cfg(volumes: usize, group: usize) -> SysConfig {
        let mut cfg = SysConfig::default();
        cfg.server.volumes = volumes;
        cfg.server.placement = PlacementPolicy::Parity { group };
        cfg
    }

    /// The victim volume's on-disk footprint for one parity movie:
    /// block-rounded data units plus full parity units — exactly what a
    /// reconstruction rebuild must write back.
    fn parity_footprint_on(s: &System, name: &str, vol: u32) -> u64 {
        match s.placement(name) {
            Some(MoviePlacement::Parity {
                base,
                group,
                stripe_bytes,
                total_bytes,
                ..
            }) => {
                let geom = ParityGeometry::new(*base, *group, *stripe_bytes, *total_bytes);
                let v = vol - *base;
                (0..geom.data_units())
                    .filter(|&k| geom.data_volume(k).0 == vol)
                    .map(|k| geom.unit_len(k).div_ceil(512) * 512)
                    .sum::<u64>()
                    + geom.parity_bytes_on(v)
            }
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn parity_stream_survives_a_volume_failure() {
        let mut s = sys(parity_cfg(4, 4));
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(3));
        s.fail_volume(1);
        s.run_for(Duration::from_secs(12));
        let pl = &s.players[&c.0];
        assert!(pl.done, "playback should finish through the failure");
        assert_eq!(pl.stats.frames_dropped, 0, "parity stream dropped");
        assert_eq!(s.metrics.overruns, 0, "deadline missed during failover");
        assert!(
            s.metrics.degraded_intervals > 0,
            "survivors should have served degraded intervals"
        );
        assert_eq!(s.metrics.lost_reads, 0, "single failure lost data");
    }

    #[test]
    fn parity_rebuild_writes_back_the_victims_exact_footprint() {
        // Across fail points: whichever band volume dies, the
        // reconstruction rebuild must write exactly that volume's data
        // and parity units to the replacement — no more, no less.
        for victim in [0u32, 2, 3] {
            let mut s = sys(parity_cfg(4, 4));
            let movie = s.record_movie("m", StreamProfile::mpeg1(), 12.0);
            let expect = parity_footprint_on(&s, "m", victim);
            let c = s.add_cras_player(&movie, 1).unwrap();
            s.start_playback(c);
            s.run_for(Duration::from_secs(2));
            s.fail_volume(victim);
            s.run_for(Duration::from_secs(1));
            s.try_attach_replacement(victim)
                .expect("attach replacement");
            assert!(s.rebuild_active());
            s.run_for(Duration::from_secs(40));
            assert!(!s.rebuild_active(), "rebuild should have completed");
            assert_eq!(
                s.metrics.rebuild_bytes, expect,
                "victim {victim} footprint mismatch"
            );
            assert!(
                !s.cras.volume_failed(VolumeId(victim)),
                "capacity not restored"
            );
            let pl = &s.players[&c.0];
            assert_eq!(pl.stats.frames_dropped, 0, "victim {victim} dropped frames");
        }
    }

    #[test]
    fn parity_rebuild_respects_the_load_scaled_rate() {
        let mut s = sys(parity_cfg(4, 4));
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 25.0);
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(2));
        s.fail_volume(2);
        s.run_for(Duration::from_secs(1));
        s.try_attach_replacement(2).expect("attach replacement");
        s.run_for(Duration::from_secs(60));
        assert!(!s.rebuild_active(), "rebuild should have completed");
        let t = s.metrics.rebuild_time().expect("rebuild finished");
        // Load-aware pacing only ever scales the configured cap *down*,
        // so the cap's rate floor still binds.
        let floor = s.metrics.rebuild_bytes as f64 / REBUILD_RATE;
        assert!(
            t.as_secs_f64() >= floor * 0.99,
            "rebuild {}s beat the rate cap floor {floor}s",
            t.as_secs_f64()
        );
        assert_eq!(s.players[&c.0].stats.frames_dropped, 0);
        assert_eq!(s.metrics.overruns, 0);
    }
}
