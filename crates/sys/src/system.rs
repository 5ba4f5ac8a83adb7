//! The orchestrated system: one event loop binding the disk volumes, the
//! CPU, the Unix server, CRAS and the client applications.
//!
//! The module is split along the PHASM seam
//! `(State, Event) → (State', Actions)`:
//!
//! * [`SysState`] is the pure transition core. Its event handlers mutate
//!   only component state and push the side effects they want — disk
//!   submits, timer arms, CPU wakes, trace and journal records — onto
//!   an [`Action`] buffer. They never touch the engine, the disks or
//!   the CPU.
//! * [`System`] is the thin executor: it owns the executable substrates
//!   (engine, volume set, CPU), pops events, calls the matching
//!   transition, and applies the emitted actions *in push order*. Push
//!   order equals the old inline call order and every action lands at
//!   the same virtual instant the handler ran, so the split is
//!   behavior-preserving by construction.
//!
//! Every figure in the paper is a run of this system under a different
//! configuration. The storage backend is a [`VolumeSet`]: §4's "several
//! disk devices" variation. With one volume the system is byte-identical
//! to the single-disk original.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

use cras_core::{
    AdmissionError, Admit, CacheState, CrasServer, OpenReq, ReadId, ReadReq, StreamId, VolumeLoad,
    JITTER,
};
use cras_disk::{Completed, DiskDevice, DiskRequest, VolumeId, VolumeSet};
use cras_media::{Movie, StreamProfile};
use cras_net::{LinkParams, NetDelivery, NetEffect, NetFaults, SessionCfg};
use cras_rtmach::{Cpu, SchedPolicy, ThreadId};
use cras_sim::trace::Trace;
use cras_sim::{Duration, Engine, IdTable, Instant, Rng};
use cras_ufs::layout::fsblock_to_disk;
use cras_ufs::{FsReq, Ino, MkfsParams, Step, Ufs, UnixServer, SECT_PER_FSBLOCK};

use crate::action::Action;
use crate::bgload::{BgReader, BgWriter};
use crate::config::{prio, IssueMode, SchedMode, SysConfig};
use crate::journal::{Journal, JournalRecord};
use crate::metrics::{Metrics, ShardLoad, VolumeHealth};
use crate::placement::{self, file_extents, MoviePlacement};
use crate::player::{Player, PlayerMode};
use crate::rebuild::RebuildManager;
use crate::tags::{ClientId, CpuTag, DiskTag, Event};

/// Completed interval walls the load-aware rebuild pacing averages its
/// slack estimate over.
const REBUILD_SLACK_WINDOW: usize = 8;

/// Fraction of the configured rebuild rate the load-aware pacing never
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

/// Owner of a Unix-server request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UOwner {
    /// A player reading frame `frame` (`bytes` media bytes).
    Player {
        /// The player.
        client: ClientId,
        /// Frame index.
        frame: u32,
        /// Frame size in bytes.
        bytes: u32,
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
pub struct UReq {
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

/// The pure transition core: every component state machine of the
/// server, none of the executable substrates.
///
/// Event handlers on this type implement
/// `(State, Event) → (State', Actions)`: they mutate only this state and
/// push the side effects they want onto an [`Action`] buffer. The
/// [`System`] executor applies those actions against the engine, disks
/// and CPU in push order. [`System`] derefs to this type, so all
/// component state reads (`sys.players`, `sys.metrics`, …) keep working
/// unchanged.
pub struct SysState {
    /// Configuration it was built with.
    pub cfg: SysConfig,
    /// The serialized Unix server.
    pub userver: UnixServer<UReq>,
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
    /// `sys.trace.set_enabled(true)`). The ring is part of the state;
    /// handlers emit [`Action::Trace`] records (only while enabled) and
    /// the executor appends them.
    pub trace: Trace,
    /// Reused delivery-effect buffer (drained after every net step).
    net_fx: Vec<NetEffect>,
    /// Per-volume file systems (index = volume id).
    fs: Vec<Ufs>,
    /// Movie placements by name.
    placements: BTreeMap<String, MoviePlacement>,
    /// `(volume, block)` pairs with disk I/O in flight (sync or
    /// read-ahead).
    inflight_blocks: HashSet<(u32, cras_ufs::FsBlock)>,
    /// Blocks the Unix server's current fetch step is waiting on.
    server_wait: Option<HashSet<(u32, cras_ufs::FsBlock)>>,
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
    serial_batches: VecDeque<Vec<ReadReq>>,
    /// [`IssueMode::SerialVolumes`] only: read ids of the one batch
    /// currently in flight.
    serial_outstanding: HashSet<u64>,
}

/// The assembled system: the [`SysState`] transition core plus the thin
/// executor owning the executable substrates.
///
/// [`System`] derefs to [`SysState`], so component state remains
/// reachable as before (`sys.players`, `sys.cras`, …). The executor half
/// is the private `System::handle`, driven by [`System::run_until`]: pop
/// an event, run the pure transition, apply the emitted [`Action`]s in
/// push order. Durable control decisions
/// (recordings, admissions, starts/stops, volume failures, rebuild
/// lifecycle) additionally land in the transition [`Journal`], which
/// [`System::recover`] replays after a crash.
pub struct System {
    /// The event queue and virtual clock.
    pub engine: Engine<Event>,
    /// The disk volumes.
    pub disks: VolumeSet<DiskTag>,
    /// The CPU; each burst carries the [`CpuTag`] that routes its
    /// completion.
    pub cpu: Cpu<CpuTag>,
    /// The pure transition core.
    state: SysState,
    /// The durable transition journal.
    journal: Journal,
    /// Reused action buffer (drained after every transition).
    actions: Vec<Action>,
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
                Ufs::format_volume(&geom, MkfsParams::tuned(&geom), rng.fork().next_u64(), v)
            })
            .collect();
        let cras = CrasServer::new(cal.params, cfg.server);
        let mut cpu = Cpu::new();
        let cras_tid = cpu.create("cras-sched", Self::policy_for(&cfg, prio::CRAS));
        let hog_tids = (0..cfg.hogs)
            .map(|i| cpu.create(&format!("hog{i}"), Self::policy_for(&cfg, prio::HOG)))
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
                net: NetDelivery::new(),
                trace: Trace::new(4096),
                net_fx: Vec::new(),
                fs,
                placements: BTreeMap::new(),
                inflight_blocks: HashSet::new(),
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
                serial_outstanding: HashSet::new(),
            },
            journal: Journal::new(),
            actions: Vec::new(),
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

    /// The transition journal accumulated so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl SysState {
    /// Selects how interval batches are issued across volumes
    /// (experiment hook). [`IssueMode::SerialVolumes`] is a measured
    /// *baseline*, not a supported operating mode — only the
    /// cross-volume overlap experiment should ever select it, so it is
    /// deliberately not part of [`SysConfig`].
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.issue = mode;
    }

    /// Number of volumes.
    pub fn volumes(&self) -> usize {
        self.fs.len()
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
    /// [`System::record_movie`]).
    pub fn placement(&self, name: &str) -> Option<&MoviePlacement> {
        self.placements.get(name)
    }

    /// Records a movie into the file system. The public entry point is
    /// [`System::record_movie`], which journals the recording so crash
    /// recovery can replay it; placement is a pure function of the
    /// config seed and the record order, so replaying the journal
    /// reproduces it exactly.
    fn record_movie(&mut self, name: &str, profile: StreamProfile, secs: f64) -> Movie {
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
    fn open_cras_stream(
        &mut self,
        movie: &Movie,
        admit: Admit,
    ) -> Result<StreamId, AdmissionError> {
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
            admit,
        };
        // A parity movie's deferred open takes the checked ladder.
        let checked = admit == Admit::Checked || req.parity.is_some();
        if self.cfg.enforce_admission || !checked {
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
    pub fn activate_cras(&mut self) {
        if !self.state.ticks_active {
            self.state.ticks_active = true;
            self.engine.schedule_now(Event::CrasTick);
        }
    }

    /// Starts the configured CPU hogs.
    pub fn start_hogs(&mut self) {
        for (i, tid) in self.state.hog_tids.clone().into_iter().enumerate() {
            self.exec_wake_cpu(tid, HOG_BURST, CpuTag::Hog(i as u32));
        }
    }

    /// Control-plane CPU wake (setup paths outside the event loop).
    /// Handlers never call this — they emit [`Action::WakeCpu`] instead.
    fn exec_wake_cpu(&mut self, tid: ThreadId, burst: Duration, tag: CpuTag) {
        let now = self.engine.now();
        if let Some((at, tok)) = self.cpu.wake(tid, burst, tag, now) {
            self.engine.schedule(at, Event::CpuSlice(tok));
        }
    }

    /// Records a movie into the file system (setup phase; consumes no
    /// simulated time) under the configured placement policy:
    /// round-robin puts the whole movie on the next volume in rotation,
    /// striped spreads it over every volume in stripe units, mirrored
    /// writes it to a primary and a mirror volume, and parity lays it out
    /// in rotating-parity rows across the next band. The recording is
    /// journaled: replaying the journal against the same config seed
    /// reproduces the placement exactly.
    pub fn record_movie(&mut self, name: &str, profile: StreamProfile, secs: f64) -> Movie {
        let movie = self.state.record_movie(name, profile, secs);
        self.journal.append(
            self.engine.now(),
            JournalRecord::Recorded {
                name: name.to_string(),
                profile,
                secs,
            },
        );
        movie
    }

    /// Adds a player that consumes a movie through CRAS (`crs_open`).
    /// The admission is journaled so crash recovery can re-open it; a
    /// deferred (prefix-resident) admission gets its own record so the
    /// replay uses the deferred path — the cache is empty after a crash
    /// and the ordinary test could spuriously reject the stream.
    pub fn add_cras_player(
        &mut self,
        movie: &Movie,
        stride: u32,
    ) -> Result<ClientId, AdmissionError> {
        let stream = self.state.open_cras_stream(movie, Admit::Checked)?;
        Ok(self.install_cras_player(movie, stride, stream))
    }

    /// Recovery replay of a journaled deferred admission: re-opens the
    /// stream with zero disk shares (buffer memory still checked), in
    /// [`CacheState::Prefix`]. Parity-placed movies have no deferred
    /// open; they fall back to the ordinary admission test.
    fn add_cras_player_deferred(
        &mut self,
        movie: &Movie,
        stride: u32,
    ) -> Result<ClientId, AdmissionError> {
        let stream = self.state.open_cras_stream(movie, Admit::Deferred)?;
        Ok(self.install_cras_player(movie, stride, stream))
    }

    /// Player bookkeeping shared by the ordinary and deferred admission
    /// paths: allocates the client, creates its decode thread, and
    /// journals the admission under the record matching the stream's
    /// cache state.
    fn install_cras_player(&mut self, movie: &Movie, stride: u32, stream: StreamId) -> ClientId {
        let id = self.state.alloc_client();
        let tid = self.cpu.create(
            &format!("player{}", id.0),
            Self::policy_for(&self.state.cfg, prio::PLAYER),
        );
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
        let rec = if matches!(self.state.cras.cache_state_of(stream), CacheState::Prefix) {
            JournalRecord::DeferredAdmitted {
                client: id.0,
                movie: movie.name.clone(),
                stride,
            }
        } else {
            JournalRecord::Admitted {
                client: id.0,
                movie: movie.name.clone(),
                stride,
            }
        };
        self.journal.append(self.engine.now(), rec);
        id
    }

    /// Adds a player that reads the movie through the Unix file system.
    /// Not journaled: UFS playback holds no CRAS reservation, so there
    /// is nothing durable to recover.
    pub fn add_ufs_player(&mut self, movie: &Movie, stride: u32) -> ClientId {
        let vol = self.state.movie_volume(movie);
        let id = self.state.alloc_client();
        let tid = self.cpu.create(
            &format!("player{}", id.0),
            Self::policy_for(&self.state.cfg, prio::PLAYER),
        );
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
        self.journal.append(
            now,
            JournalRecord::Started {
                client: client.0,
                playback_start: start,
            },
        );
        start
    }

    /// Stops a player: CRAS players `crs_stop` their stream, releasing
    /// its reservation; the player is marked done. Journaled, so crash
    /// recovery does not resurrect the stream.
    pub fn stop_playback(&mut self, client: ClientId) {
        let now = self.now();
        let Some(mode) = self.state.players.get(&client.0).map(|p| p.mode) else {
            return;
        };
        if let PlayerMode::Cras { stream } = mode {
            self.state.cras.stop(stream, now);
        }
        if let Some(p) = self.state.players.get_mut(&client.0) {
            p.done = true;
        }
        self.journal
            .append(now, JournalRecord::Stopped { client: client.0 });
    }

    /// Ends a viewer session for good: CRAS players `crs_close` their
    /// stream, which releases the admission shares *and* the stream
    /// slot (unlike [`System::stop_playback`], after which the stopped
    /// stream still occupies the table and counts against any
    /// stream-count cap). The player record stays for its stats but is
    /// marked done, so queued poll/decode events retire harmlessly.
    /// Journaled as a stop, so crash recovery skips the stream.
    pub fn close_playback(&mut self, client: ClientId) {
        let now = self.now();
        let Some(mode) = self.state.players.get(&client.0).map(|p| p.mode) else {
            return;
        };
        if let PlayerMode::Cras { stream } = mode {
            self.state.cras.close(stream);
        }
        if let Some(p) = self.state.players.get_mut(&client.0) {
            p.done = true;
        }
        self.journal
            .append(now, JournalRecord::Stopped { client: client.0 });
    }

    /// Retries admission for a parked (rebuffering) viewer: the stream
    /// re-runs the feed ladder (disk share, then cache window) and, on
    /// success, playback resumes from the frozen position after the
    /// standard initial delay. A resumed disk share is journaled like
    /// any reserve-at-drain promotion. Returns whether the viewer
    /// resumed; a viewer that is not paused (or is done) returns false.
    pub fn retry_parked(&mut self, client: ClientId) -> bool {
        let now = self.now();
        let mut acts = std::mem::take(&mut self.actions);
        let resumed = self.state.resume_player(client, now, &mut acts);
        self.apply(&mut acts, now);
        self.actions = acts;
        resumed
    }

    // ----- delivery subsystem setup (DESIGN §18) -----------------------

    /// Adds a delivery link and returns its index. Journaled, so crash
    /// recovery re-creates links in order and indices stay stable.
    pub fn net_add_link(&mut self, params: LinkParams) -> u32 {
        let id = self.state.net.add_link(params);
        self.journal.append(
            self.now(),
            JournalRecord::NetLink {
                bandwidth: params.bandwidth,
                latency_ns: params.latency.as_nanos(),
                per_packet_ns: params.per_packet.as_nanos(),
            },
        );
        id
    }

    /// Attaches a delivery session for `client` on `link`: every frame
    /// the client decodes from here on travels the paced link into a
    /// bounded playout buffer. Journaled for recovery.
    pub fn net_attach(&mut self, client: ClientId, link: u32, cfg: SessionCfg) {
        self.state.net.attach(client.0, link, cfg);
        self.journal.append(
            self.now(),
            JournalRecord::NetSession {
                client: client.0,
                link,
                playout_delay_ns: cfg.playout_delay.as_nanos(),
                high_watermark: cfg.high_watermark,
                low_watermark: cfg.low_watermark,
                drain_scale: cfg.drain_scale,
            },
        );
    }

    /// Switches multicast fan-out for joined groups on or off.
    /// Journaled for recovery.
    pub fn net_set_multicast(&mut self, on: bool) {
        self.state.net.set_multicast(on);
        self.journal
            .append(self.now(), JournalRecord::NetMulticast { on });
    }

    /// Installs (or clears) a deterministic fault injector on a link.
    /// Harness-level and deliberately *not* journaled, like the disk
    /// fault injectors.
    pub fn net_set_link_faults(&mut self, link: u32, faults: Option<NetFaults>) {
        self.state.net.set_link_faults(link, faults);
    }

    /// Runs the event loop until `t` (events after `t` stay queued).
    pub fn run_until(&mut self, t: Instant) {
        while self.engine.peek_time().is_some_and(|at| at <= t) {
            let (now, ev) = self.engine.pop().expect("peeked above");
            self.handle(ev, now);
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
    /// by [`Event::dispatch_key`] is the system's defense. The
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
        self.journal
            .append(now, JournalRecord::VolumeFailed { vol });
        // Conservatively abort any rebuild in progress: the dead spindle
        // may be the copy's source, and a rebuild onto it is moot.
        self.rebuild = None;
    }

    /// Declares a whole-shard failure now: every volume fails fast at
    /// once, as when the machine hosting this shard loses power. Each
    /// spindle goes through [`System::fail_volume`] individually, so the
    /// journal records the full sequence and crash recovery replays it.
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
    /// # Panics
    ///
    /// Panics where [`System::try_attach_replacement`] would return an
    /// error — use that when the failed device may still be draining its
    /// fast-error completions through the event loop.
    pub fn attach_replacement(&mut self, vol: u32) {
        if let Err(e) = self.try_attach_replacement(vol) {
            panic!("cannot attach replacement for volume {vol}: {e}");
        }
    }

    /// Fallible variant of [`System::attach_replacement`]: refuses (and
    /// leaves the system untouched) instead of panicking when the volume
    /// is not failed, a rebuild is already running, or the failed device
    /// still has an operation in flight. The last case is a real race,
    /// not misuse: a down volume fails its in-flight operation *fast*,
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
        self.rebuild = Some(RebuildManager::new(
            vol,
            gen,
            chunks,
            self.cfg.rebuild_rate,
            now,
        ));
        self.trace
            .log_with(now, "rebuild", || format!("rebuilding volume {vol}"));
        self.journal
            .append(now, JournalRecord::RebuildStarted { vol });
        self.engine.schedule_now(Event::RebuildStep(gen));
        Ok(())
    }

    /// Per-volume fault/health snapshot from the disk substrate.
    pub fn volume_health(&self) -> Vec<VolumeHealth> {
        (0..self.volumes() as u32)
            .map(|v| {
                let d = self.disks.volume(VolumeId(v));
                let (ops_seen, transient_faults, media_errors) = d
                    .fault_injector()
                    .map(|f| (f.ops_seen(), f.injected(), f.media_errors()))
                    .unwrap_or((0, 0, 0));
                VolumeHealth {
                    volume: v,
                    ops_seen,
                    transient_faults,
                    media_errors,
                    down: d.is_down(),
                }
            })
            .collect()
    }

    // ----- crash recovery ---------------------------------------------

    /// Reconstructs a system after a crash from its transition journal.
    ///
    /// `cfg` must equal the crashed instance's config: placement is a
    /// pure function of the config seed and the record order, so
    /// replaying the journal's recordings reproduces the on-disk layout
    /// exactly. The replay then fast-forwards the clock to `resume_at`
    /// (the crash instant), re-fails failed volumes, re-admits the
    /// surviving admissions (admitted minus stopped) in journal order,
    /// resumes every started stream at its first undelivered frame with
    /// a fresh initial delay — zero frames dropped — and restarts an
    /// interrupted rebuild from scratch onto a fresh replacement.
    ///
    /// Returns the recovered system and the old→new client-id map (ids
    /// are reassigned densely during replay).
    ///
    /// Soft state is regenerated, not recovered: stream buffers refill
    /// during the fresh initial delay and per-frame statistics restart
    /// at the resume point. Background readers/writers and CPU hogs are
    /// experiment load, not durable decisions, and are not journaled.
    ///
    /// # Panics
    ///
    /// Panics if a journaled admission no longer passes the admission
    /// test on replay (only possible when `cfg` differs from the
    /// crashed instance's) or a journaled rebuild cannot re-attach.
    pub fn recover(
        cfg: SysConfig,
        journal: &Journal,
        resume_at: Instant,
    ) -> (System, BTreeMap<u32, u32>) {
        let mut sys = System::new(cfg);
        let mut movies: BTreeMap<String, Movie> = BTreeMap::new();
        let mut admitted: Vec<(u32, String, u32)> = Vec::new();
        let mut deferred: BTreeSet<u32> = BTreeSet::new();
        let mut started: BTreeMap<u32, Instant> = BTreeMap::new();
        let mut stopped: BTreeSet<u32> = BTreeSet::new();
        let mut failed: BTreeSet<u32> = BTreeSet::new();
        let mut rebuilding: BTreeSet<u32> = BTreeSet::new();
        let mut net_links: Vec<LinkParams> = Vec::new();
        let mut net_multicast: Option<bool> = None;
        let mut net_sessions: Vec<(u32, u32, SessionCfg)> = Vec::new();
        for (_, rec) in journal.entries() {
            match rec {
                JournalRecord::Recorded {
                    name,
                    profile,
                    secs,
                } => {
                    let m = sys.record_movie(name, *profile, *secs);
                    movies.insert(name.clone(), m);
                }
                JournalRecord::Admitted {
                    client,
                    movie,
                    stride,
                } => {
                    admitted.push((*client, movie.clone(), *stride));
                }
                JournalRecord::DeferredAdmitted {
                    client,
                    movie,
                    stride,
                } => {
                    admitted.push((*client, movie.clone(), *stride));
                    deferred.insert(*client);
                }
                JournalRecord::DiskShareReserved { client } => {
                    // The prefix drained before the crash: the stream
                    // recovers as an ordinary disk admission.
                    deferred.remove(client);
                }
                JournalRecord::Started {
                    client,
                    playback_start,
                } => {
                    started.insert(*client, *playback_start);
                }
                JournalRecord::Stopped { client } => {
                    stopped.insert(*client);
                }
                JournalRecord::VolumeFailed { vol } => {
                    failed.insert(*vol);
                    rebuilding.remove(vol);
                }
                JournalRecord::RebuildStarted { vol } => {
                    rebuilding.insert(*vol);
                }
                JournalRecord::RebuildFinished { vol } => {
                    failed.remove(vol);
                    rebuilding.remove(vol);
                }
                JournalRecord::Checkpoint { .. } => {}
                JournalRecord::NetLink {
                    bandwidth,
                    latency_ns,
                    per_packet_ns,
                } => net_links.push(LinkParams {
                    bandwidth: *bandwidth,
                    latency: Duration::from_nanos(*latency_ns),
                    per_packet: Duration::from_nanos(*per_packet_ns),
                }),
                JournalRecord::NetMulticast { on } => net_multicast = Some(*on),
                JournalRecord::NetSession {
                    client,
                    link,
                    playout_delay_ns,
                    high_watermark,
                    low_watermark,
                    drain_scale,
                } => net_sessions.push((
                    *client,
                    *link,
                    SessionCfg {
                        playout_delay: Duration::from_nanos(*playout_delay_ns),
                        high_watermark: *high_watermark,
                        low_watermark: *low_watermark,
                        drain_scale: *drain_scale,
                    },
                )),
            }
        }
        // Restart at the crash instant: recording consumes no simulated
        // time, so the queue is empty and the clock can jump.
        sys.engine.advance_to(resume_at);
        for vol in &failed {
            sys.fail_volume(*vol);
        }
        let mut remap: BTreeMap<u32, u32> = BTreeMap::new();
        for (old_id, movie, stride) in &admitted {
            if stopped.contains(old_id) {
                continue;
            }
            let m = movies
                .get(movie)
                .expect("journal order: recorded before admitted");
            let new_id = if deferred.contains(old_id) {
                sys.add_cras_player_deferred(m, *stride)
                    .expect("recovery deferred re-admission failed; config mismatch?")
            } else {
                sys.add_cras_player(m, *stride)
                    .expect("recovery re-admission failed; config mismatch?")
            };
            remap.insert(*old_id, new_id.0);
        }
        for (&old_id, &new_id) in &remap {
            if let Some(&old_start) = started.get(&old_id) {
                sys.resume_playback(ClientId(new_id), old_start, resume_at);
            }
        }
        for vol in &rebuilding {
            if failed.contains(vol) {
                sys.try_attach_replacement(*vol)
                    .expect("recovery rebuild re-attach failed");
            }
        }
        // Delivery subsystem: links come back in journal order (indices
        // stable); surviving streams get fresh sessions under their new
        // client ids — a fresh session, like a fresh stream clock, means
        // the client rebuffers from the resume point with zero carried
        // counters.
        for params in net_links {
            sys.net_add_link(params);
        }
        if let Some(on) = net_multicast {
            sys.net_set_multicast(on);
        }
        for (old_id, link, cfg) in net_sessions {
            if let Some(&new_id) = remap.get(&old_id) {
                sys.net_attach(ClientId(new_id), link, cfg);
            }
        }
        (sys, remap)
    }

    /// Re-anchors a recovered player at the first frame the crashed run
    /// had not yet delivered. The stream seeks to that frame's media
    /// timestamp and restarts with a fresh initial delay;
    /// `playback_start` is set so `due(k*)` equals the new delivery
    /// anchor, keeping the frame cadence exact from there on. A player
    /// whose every frame was already due before `resume_at` is marked
    /// done instead.
    pub fn resume_playback(&mut self, client: ClientId, old_start: Instant, resume_at: Instant) {
        let (time_scale, mode, target) = {
            let Some(p) = self.state.players.get(&client.0) else {
                return;
            };
            let mut k = 0u32;
            let mut target = None;
            while let Some(ch) = p.table.get(k) {
                if old_start + ch.timestamp.mul_f64(p.time_scale) > resume_at {
                    target = Some((k, ch.timestamp));
                    break;
                }
                k += p.stride;
            }
            (p.time_scale, p.mode, target)
        };
        let Some((k, ts)) = target else {
            // Every frame was already due: the stream finished before
            // the crash; nothing to resume.
            if let Some(p) = self.state.players.get_mut(&client.0) {
                p.done = true;
            }
            return;
        };
        self.activate_cras();
        let now = self.now();
        let begin = match mode {
            PlayerMode::Cras { stream } => {
                self.state.cras.seek(stream, now, ts);
                self.state.cras.start(stream, now)
            }
            PlayerMode::Ufs { .. } => now + self.state.cras.initial_delay(),
        };
        let new_start = begin - ts.mul_f64(time_scale);
        {
            let p = self
                .state
                .players
                .get_mut(&client.0)
                .expect("checked above");
            p.playback_start = new_start;
            p.next_frame = k;
        }
        self.engine
            .schedule(begin.max(now), Event::PlayerFrame(client));
        self.journal.append(
            now,
            JournalRecord::Started {
                client: client.0,
                playback_start: new_start,
            },
        );
    }

    // ----- event dispatch (the executor) ------------------------------

    /// Pops one event's worth of work: completes the substrate
    /// interaction the event carries (CPU slice end, disk completion),
    /// runs the matching pure transition on [`SysState`], then applies
    /// the emitted actions in push order.
    fn handle(&mut self, ev: Event, now: Instant) {
        debug_assert!(self.actions.is_empty());
        let mut acts = std::mem::take(&mut self.actions);
        match ev {
            Event::CrasTick => self.state.on_cras_tick(now, &mut acts),
            Event::CpuSlice(tok) => {
                let out = self.cpu.slice_end(tok, now);
                if let Some((at, t)) = out.resched {
                    self.engine.schedule(at, Event::CpuSlice(t));
                }
                if let Some(done) = out.completed {
                    // A scheduler tick consumes the per-spindle load
                    // snapshot (device queue depths + recent completion
                    // lag) for coded-read steering. Substrate state is
                    // executor-owned, so it is sampled here — like disk
                    // completions — and handed to the pure transition
                    // through the server's setter.
                    if matches!(done.tag, CpuTag::CrasSched) {
                        let lags = self
                            .state
                            .metrics
                            .recent_volume_lag(self.disks.len(), STEER_LAG_WINDOW);
                        self.loads.clear();
                        self.loads.extend(
                            self.disks
                                .outstanding_depths()
                                .zip(lags)
                                .map(|(queued, lag)| VolumeLoad { queued, lag }),
                        );
                        self.state.cras.set_volume_loads(&self.loads);
                    }
                    self.state.on_cpu_done(done.tag, now, &mut acts);
                }
            }
            Event::DiskDone(vol) => {
                let (done, next) = self.disks.complete(VolumeId(vol), now);
                if let Some(at) = next {
                    self.engine.schedule(at, Event::DiskDone(vol));
                }
                let vol_down = self.disks.is_down(VolumeId(vol));
                self.state.on_disk_done(vol, done, vol_down, now, &mut acts);
            }
            Event::PlayerFrame(c) | Event::PlayerPoll(c) => {
                self.state.on_player_tick(c, now, &mut acts)
            }
            Event::BgKick(c) => self.state.on_bg_kick(c, now, &mut acts),
            Event::BgWrite(c) => self.state.on_bg_write(c, now, &mut acts),
            Event::Sync => self.state.on_sync(now, &mut acts),
            Event::RebuildStep(gen) => self.state.on_rebuild_step(gen, now, &mut acts),
            Event::Checkpoint(seq) => self.state.on_checkpoint(seq, &mut acts),
            Event::NetLinkFree(link) => self.state.on_net_link_free(link, now, &mut acts),
            Event::NetArrive { link, pkt } => self.state.on_net_arrive(link, pkt, now, &mut acts),
            Event::NetNak(c, ord) => self.state.on_net_nak(c, ord, now, &mut acts),
            Event::NetPlayout(c, ord) => self.state.on_net_playout(c, ord, now, &mut acts),
            Event::NetRetry(c) => self.state.net_resume(c, now, &mut acts),
        }
        self.apply(&mut acts, now);
        self.actions = acts;
    }

    /// Applies emitted actions in push order. Every action lands at the
    /// virtual instant the transition ran, so the insertion sequence
    /// into the engine queue is exactly what the old inline handlers
    /// produced.
    fn apply(&mut self, acts: &mut Vec<Action>, now: Instant) {
        for act in acts.drain(..) {
            match act {
                Action::SubmitDisk { vol, req } => {
                    if let Some(at) = self.disks.submit(VolumeId(vol), now, req) {
                        self.engine.schedule(at, Event::DiskDone(vol));
                    }
                }
                Action::SubmitBatch { vol, reqs } => {
                    if let Some(at) = self.disks.submit_batch(vol, now, reqs) {
                        self.engine.schedule(at, Event::DiskDone(vol.0));
                    }
                }
                Action::Schedule { at, ev } => {
                    self.engine.schedule(at, ev);
                }
                Action::WakeCpu { tid, burst, tag } => {
                    if let Some((at, tok)) = self.cpu.wake(tid, burst, tag, now) {
                        self.engine.schedule(at, Event::CpuSlice(tok));
                    }
                }
                Action::Trace { component, message } => {
                    self.state.trace.log(now, component, message);
                }
                Action::Journal(rec) => {
                    self.journal.append(now, rec);
                }
            }
        }
    }
}

impl SysState {
    fn on_rebuild_step(&mut self, gen: u64, now: Instant, acts: &mut Vec<Action>) {
        // Load-aware pacing: scale the configured rate cap by the spare
        // fraction the recent intervals actually left on the table, so a
        // lightly loaded array rebuilds near the cap while a busy one
        // backs off. The floor keeps a saturated system from starving
        // the rebuild outright.
        let slack = self
            .metrics
            .recent_slack(self.cfg.server.interval, REBUILD_SLACK_WINDOW);
        let rate = self.cfg.rebuild_rate * slack.max(REBUILD_RATE_FLOOR);
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
                    self.submit_disk(
                        c.dst_vol,
                        DiskRequest::write(c.dst_block, c.nblocks, DiskTag::RebuildWrite(gen, idx)),
                        acts,
                    );
                } else {
                    for s in &c.srcs {
                        self.submit_disk(
                            s.vol,
                            DiskRequest::read(s.block, s.nblocks, DiskTag::RebuildRead(gen, idx)),
                            acts,
                        );
                    }
                }
            }
            None => self.finish_rebuild(now, acts),
        }
    }

    fn finish_rebuild(&mut self, now: Instant, acts: &mut Vec<Action>) {
        let Some(rb) = self.rebuild.take() else {
            return;
        };
        self.cras.set_volume_failed(VolumeId(rb.volume()), false);
        self.metrics.rebuild_finished_at = Some(now);
        self.metrics.rebuild_bytes = rb.copied_bytes();
        self.trace_with("rebuild", acts, || {
            format!(
                "volume {} rebuilt ({} bytes)",
                rb.volume(),
                rb.copied_bytes()
            )
        });
        acts.push(Action::Journal(JournalRecord::RebuildFinished {
            vol: rb.volume(),
        }));
    }

    /// Emits a CPU wake: the executor hands the burst, tagged, to the
    /// CPU.
    fn wake_cpu(&self, tid: ThreadId, burst: Duration, tag: CpuTag, acts: &mut Vec<Action>) {
        acts.push(Action::WakeCpu { tid, burst, tag });
    }

    /// Emits a disk submit.
    fn submit_disk(&self, vol: u32, req: DiskRequest<DiskTag>, acts: &mut Vec<Action>) {
        acts.push(Action::SubmitDisk { vol, req });
    }

    /// Emits a trace record, building the message only while tracing is
    /// enabled (preserving the disabled-path cost of `Trace::log_with`).
    fn trace_with<F: FnOnce() -> String>(
        &self,
        component: &'static str,
        acts: &mut Vec<Action>,
        f: F,
    ) {
        if self.trace.is_enabled() {
            acts.push(Action::Trace {
                component,
                message: f(),
            });
        }
    }

    /// The `Event::Checkpoint` transition: stamp the marker into the
    /// journal.
    fn on_checkpoint(&mut self, seq: u32, acts: &mut Vec<Action>) {
        acts.push(Action::Journal(JournalRecord::Checkpoint { seq }));
    }

    /// [`IssueMode::SerialVolumes`] only: releases the next staged
    /// per-volume batch once the previous one has fully completed.
    fn issue_next_serial_batch(&mut self, acts: &mut Vec<Action>) {
        debug_assert!(self.serial_outstanding.is_empty());
        let Some(batch) = self.serial_batches.pop_front() else {
            return;
        };
        for r in &batch {
            self.serial_outstanding.insert(r.id.0);
        }
        for r in batch {
            self.submit_disk(
                r.volume.0,
                DiskRequest::rt_read(r.block, r.nblocks, DiskTag::Cras(r.id)),
                acts,
            );
        }
    }

    /// [`IssueMode::SerialVolumes`] only: retires `rid` from the
    /// in-flight batch (adding `retries` re-issued in its place) and
    /// releases the next batch when the current one drains.
    fn on_serial_read_settled(&mut self, rid: ReadId, retries: &[ReadId], acts: &mut Vec<Action>) {
        if self.issue != IssueMode::SerialVolumes {
            return;
        }
        self.serial_outstanding.remove(&rid.0);
        for r in retries {
            self.serial_outstanding.insert(r.0);
        }
        if self.serial_outstanding.is_empty() {
            self.issue_next_serial_batch(acts);
        }
    }

    fn on_cras_tick(&mut self, now: Instant, acts: &mut Vec<Action>) {
        // The request-scheduler thread must win the CPU before the
        // interval pass happens; under round robin this is where delay
        // creeps in (Figure 10).
        let streams = self.cras.stream_count() as u64;
        let burst = CRAS_TICK_BASE + CRAS_TICK_PER_STREAM * streams.max(1);
        self.wake_cpu(self.cras_tid, burst, CpuTag::CrasSched, acts);
        let next = now + self.cfg.server.interval;
        acts.push(Action::Schedule {
            at: next,
            ev: Event::CrasTick,
        });
    }

    /// The completion half of a CPU burst: the executor has already
    /// ended the slice and re-armed the scheduler; this transition
    /// routes the completion tag.
    fn on_cpu_done(&mut self, tag: CpuTag, now: Instant, acts: &mut Vec<Action>) {
        match tag {
            CpuTag::CrasSched => {
                let rep = self.cras.interval_tick(now);
                if rep.overran {
                    // The paper's recovery action is a warning message;
                    // `Metrics::overruns` counts it below.
                    self.trace_with("deadline", acts, || {
                        format!("interval {} overran", rep.index)
                    });
                }
                self.trace_with("cras", acts, || {
                    format!(
                        "tick {}: {} reads, {} chunks posted",
                        rep.index,
                        rep.reqs.len(),
                        rep.posted_chunks
                    )
                });
                if rep.steered_streams > 0 {
                    self.trace_with("cras", acts, || {
                        format!(
                            "tick {}: {} stream(s) steered to parity fan-out",
                            rep.index, rep.steered_streams
                        )
                    });
                }
                if rep.lost_streams > 0 {
                    self.trace_with("cras", acts, || {
                        format!(
                            "tick {}: {} stream batch(es) dropped, no live replica",
                            rep.index, rep.lost_streams
                        )
                    });
                }
                self.metrics.on_interval(&rep, now);
                // A parked stream's viewer pauses (rebuffers) instead
                // of burning its poll budget against a frozen clock;
                // the gateway may retry admission for it later via
                // `System::resume_playback`.
                for sid in &rep.parked_streams {
                    let client = self.stream_clients.get(sid).map(|c| c.0);
                    if let Some(p) = client.and_then(|c| self.players.get_mut(&c)) {
                        p.paused = true;
                    }
                }
                // A drained deferred stream now holds a real disk share:
                // journal the promotion so crash recovery re-admits it
                // as an ordinary disk stream from here on.
                for sid in &rep.deferred_reserved {
                    if let Some(&ClientId(client)) = self.stream_clients.get(sid) {
                        acts.push(Action::Journal(JournalRecord::DiskShareReserved { client }));
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
                        for (vol, batch) in rep.volume_batches() {
                            let reqs: Vec<DiskRequest<DiskTag>> = batch
                                .iter()
                                .map(|r| {
                                    DiskRequest::rt_read(r.block, r.nblocks, DiskTag::Cras(r.id))
                                })
                                .collect();
                            acts.push(Action::SubmitBatch { vol, reqs });
                        }
                    }
                    IssueMode::SerialVolumes => {
                        // Baseline: stage the batches and release them
                        // one volume at a time, the next only when the
                        // previous fully completes — interval time
                        // degrades toward sum(per-volume).
                        for (_, batch) in rep.volume_batches() {
                            self.serial_batches.push_back(batch.to_vec());
                        }
                        if self.serial_outstanding.is_empty() {
                            self.issue_next_serial_batch(acts);
                        }
                    }
                }
            }
            CpuTag::PlayerDecode { client, frame } => {
                self.on_frame_decoded(client, frame, now, acts);
            }
            CpuTag::Hog(i) => {
                let tid = self.hog_tids[i as usize];
                self.wake_cpu(tid, HOG_BURST, CpuTag::Hog(i), acts);
            }
        }
    }

    /// The transition for a disk completion. The executor has already
    /// popped `done` from the volume and chained the next `DiskDone`;
    /// `vol_down` is the device's down state at completion time.
    fn on_disk_done(
        &mut self,
        vol: u32,
        done: Completed<DiskTag>,
        vol_down: bool,
        now: Instant,
        acts: &mut Vec<Action>,
    ) {
        match done.req.tag {
            DiskTag::Cras(rid) if done.failed => {
                // Failure detection lives in the I/O-done manager: a
                // fast-error from a down volume takes the spindle out of
                // admission and steering; the failed read is re-issued
                // against the surviving replica (degraded read) or, with
                // no replica, its batch is dropped.
                let v = VolumeId(vol);
                if vol_down && !self.cras.volume_failed(v) {
                    self.cras.set_volume_failed(v, true);
                    if self.metrics.volume_failed_at.is_none() {
                        self.metrics.volume_failed_at = Some(now);
                    }
                    self.trace_with("volume", acts, || format!("volume {vol} error detected"));
                    acts.push(Action::Journal(JournalRecord::VolumeFailed { vol }));
                }
                let retries = self.cras.io_failed(rid);
                let ids: Vec<ReadId> = retries.iter().map(|r| r.id).collect();
                self.metrics.on_cras_read_failed(rid, &done, &ids);
                for r in &retries {
                    self.submit_disk(
                        r.volume.0,
                        DiskRequest::rt_read(r.block, r.nblocks, DiskTag::Cras(r.id)),
                        acts,
                    );
                }
                self.on_serial_read_settled(rid, &ids, acts);
            }
            DiskTag::Cras(rid) => {
                self.metrics.on_cras_read_done(rid, &done);
                // I/O-done manager thread: cheap, handled inline.
                self.cras.io_done(rid);
                self.on_serial_read_settled(rid, &[], acts);
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
                    self.submit_disk(
                        dv,
                        DiskRequest::write(db, nb, DiskTag::RebuildWrite(gen, idx)),
                        acts,
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
                        Some(due) => {
                            acts.push(Action::Schedule {
                                at: due,
                                ev: Event::RebuildStep(gen),
                            });
                        }
                        None => self.finish_rebuild(now, acts),
                    }
                }
            }
            DiskTag::UfsWriteback(_, _) => {}
            DiskTag::UfsFetch(v, run) | DiskTag::UfsReadAhead(v, run) => {
                for b in run.blocks() {
                    self.fs[v as usize].mark_cached(b);
                    self.inflight_blocks.remove(&(v, b));
                }
                self.check_server_wait(now, acts);
            }
            DiskTag::Raw(_) => {}
        }
    }

    /// Issues a read through the Unix server on behalf of `owner`, against
    /// the file system on `vol`.
    #[allow(clippy::too_many_arguments)]
    fn ufs_read(
        &mut self,
        vol: u32,
        owner: UOwner,
        ino: Ino,
        offset: u64,
        len: u64,
        now: Instant,
        acts: &mut Vec<Action>,
    ) {
        let plan = self.fs[vol as usize].plan_read(ino, offset, len);
        let req = FsReq {
            tag: UReq { vol, owner },
            fetch: plan.fetch,
            read_ahead: plan.read_ahead,
        };
        if let Some(step) = self.userver.submit(req) {
            self.drive_userver(step, now, acts);
        }
    }

    /// Advances the server when the blocks its fetch step waits on have
    /// all arrived.
    fn check_server_wait(&mut self, now: Instant, acts: &mut Vec<Action>) {
        let done = match &mut self.server_wait {
            None => false,
            Some(wait) => {
                // Keep only blocks whose I/O is still in flight.
                wait.retain(|k| self.inflight_blocks.contains(k));
                wait.is_empty()
            }
        };
        if done {
            self.server_wait = None;
            let step = self.userver.fetch_done();
            self.drive_userver(step, now, acts);
        }
    }

    fn drive_userver(&mut self, first: Step<UReq>, now: Instant, acts: &mut Vec<Action>) {
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
                    let missing: Vec<cras_ufs::FsBlock> = run
                        .blocks()
                        .filter(|b| !self.fs[vol as usize].cache().peek(*b))
                        .collect();
                    if missing.is_empty() {
                        step = Some(self.userver.fetch_done());
                        continue;
                    }
                    let to_submit: Vec<cras_ufs::FsBlock> = missing
                        .iter()
                        .copied()
                        .filter(|b| !self.inflight_blocks.contains(&(vol, *b)))
                        .collect();
                    for sub in cras_ufs::fs::merge_runs(&to_submit, u32::MAX) {
                        for b in sub.blocks() {
                            self.inflight_blocks.insert((vol, b));
                        }
                        self.submit_disk(
                            vol,
                            DiskRequest::read(
                                fsblock_to_disk(sub.start),
                                SECT_PER_FSBLOCK * sub.len,
                                DiskTag::UfsFetch(vol, sub),
                            ),
                            acts,
                        );
                    }
                    self.server_wait = Some(missing.into_iter().map(|b| (vol, b)).collect());
                    // The server blocks until the blocks arrive.
                    return;
                }
                Step::Done(req) => {
                    let vol = req.tag.vol;
                    // Driver-level asynchronous read-ahead fills the cache
                    // without occupying the server; blocks already cached
                    // or in flight are skipped.
                    for run in &req.read_ahead {
                        let fresh: Vec<cras_ufs::FsBlock> = run
                            .blocks()
                            .filter(|b| {
                                !self.fs[vol as usize].cache().peek(*b)
                                    && !self.inflight_blocks.contains(&(vol, *b))
                            })
                            .collect();
                        for sub in cras_ufs::fs::merge_runs(&fresh, u32::MAX) {
                            for b in sub.blocks() {
                                self.inflight_blocks.insert((vol, b));
                            }
                            self.submit_disk(
                                vol,
                                DiskRequest::read(
                                    fsblock_to_disk(sub.start),
                                    SECT_PER_FSBLOCK * sub.len,
                                    DiskTag::UfsReadAhead(vol, sub),
                                ),
                                acts,
                            );
                        }
                    }
                    match req.tag.owner {
                        UOwner::Player {
                            client,
                            frame,
                            bytes: _,
                        } => {
                            // The player may be gone by the time its read
                            // completes (stopped, or its shard killed while
                            // the block was in flight): the completion is a
                            // logged drop, not a decode.
                            match self.players.get(&client.0).map(|p| p.tid) {
                                Some(tid) => self.wake_cpu(
                                    tid,
                                    self.cfg.costs.decode,
                                    CpuTag::PlayerDecode { client, frame },
                                    acts,
                                ),
                                None => self.trace_with("userver", acts, || {
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
                                acts.push(Action::Schedule {
                                    at,
                                    ev: Event::BgKick(client),
                                });
                            } else {
                                self.trace_with("userver", acts, || {
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

    fn on_player_tick(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) {
        let Some(player) = self.players.get(&client.0) else {
            return;
        };
        if player.done || player.paused {
            // A paused (rebuffering) viewer absorbs queued frame/poll
            // events without rescheduling; `resume_playback` restarts
            // the schedule with a fresh event.
            return;
        }
        let k = player.next_frame;
        let Some(chunk) = player.table.get(k).copied() else {
            // A queued PlayerFrame event can outlive the frame table it
            // indexes (a shard-down race against re-admission): retire
            // the player as a journal-visible drop instead of panicking
            // inside the event loop.
            self.trace_with("player", acts, || {
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
                        self.wake_cpu(
                            tid,
                            self.cfg.costs.decode,
                            CpuTag::PlayerDecode { client, frame: k },
                            acts,
                        );
                    }
                    None => {
                        let media_now = self.cras.media_time(stream, now);
                        let p = self.players.get_mut(&client.0).expect("exists");
                        p.stats.polls += 1;
                        p.polls_this_frame += 1;
                        let expired = media_now > chunk.timestamp + JITTER;
                        if expired || p.polls_this_frame > 1000 {
                            if let Some(_due) = p.frame_dropped(now) {
                                let due = p.due(p.next_frame).max(now);
                                acts.push(Action::Schedule {
                                    at: due,
                                    ev: Event::PlayerFrame(client),
                                });
                            }
                            self.trace_with("player", acts, || {
                                format!("client {} dropped frame {k}", client.0)
                            });
                        } else {
                            acts.push(Action::Schedule {
                                at: now + PLAYER_POLL,
                                ev: Event::PlayerPoll(client),
                            });
                        }
                    }
                }
            }
            PlayerMode::Ufs { ino, vol } => {
                self.ufs_read(
                    vol,
                    UOwner::Player {
                        client,
                        frame: k,
                        bytes: chunk.size,
                    },
                    ino,
                    chunk.file_offset,
                    chunk.size as u64,
                    now,
                    acts,
                );
            }
        }
    }

    fn on_frame_decoded(
        &mut self,
        client: ClientId,
        frame: u32,
        now: Instant,
        acts: &mut Vec<Action>,
    ) {
        let Some(player) = self.players.get_mut(&client.0) else {
            return;
        };
        if let Some(due) = player.frame_shown(frame, now) {
            let at = due.max(now);
            acts.push(Action::Schedule {
                at,
                ev: Event::PlayerFrame(client),
            });
        }
        if self.net.has_session(client.0) {
            self.net_deliver_frame(client, frame, now, acts);
        }
    }

    // ----- delivery subsystem transitions (DESIGN §18) ----------------

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
    fn net_deliver_frame(
        &mut self,
        client: ClientId,
        frame: u32,
        now: Instant,
        acts: &mut Vec<Action>,
    ) {
        let Some(p) = self.players.get(&client.0) else {
            return;
        };
        let Some(chunk) = p.table.get(frame).copied() else {
            return;
        };
        self.net_sync_join(client);
        self.net_step(now, acts, |net, fx| {
            net.send_frame(client.0, frame, chunk.size as u64, chunk.timestamp, now, fx)
        });
    }

    fn on_net_link_free(&mut self, link: u32, now: Instant, acts: &mut Vec<Action>) {
        self.net_step(now, acts, |net, fx| net.on_link_free(link, now, fx));
    }

    fn on_net_arrive(&mut self, link: u32, pkt: u64, now: Instant, acts: &mut Vec<Action>) {
        self.net_step(now, acts, |net, fx| net.on_arrive(link, pkt, now, fx));
    }

    fn on_net_nak(&mut self, client: ClientId, ord: u32, now: Instant, acts: &mut Vec<Action>) {
        self.net_step(now, acts, |net, fx| net.on_nak(client.0, ord, now, fx));
    }

    fn on_net_playout(&mut self, client: ClientId, ord: u32, now: Instant, acts: &mut Vec<Action>) {
        self.net_step(now, acts, |net, fx| net.on_playout(client.0, ord, now, fx));
    }

    /// Runs one delivery-machine step into the reused effect buffer,
    /// then maps the requested effects onto the §14 action seam: timers
    /// become scheduled events, park/resume requests run their
    /// stream-layer transitions inline (they emit further actions but
    /// never further net effects, so this does not recurse).
    fn net_step(
        &mut self,
        now: Instant,
        acts: &mut Vec<Action>,
        step: impl FnOnce(&mut NetDelivery, &mut Vec<NetEffect>),
    ) {
        let mut fx = std::mem::take(&mut self.net_fx);
        step(&mut self.net, &mut fx);
        for e in fx.drain(..) {
            match e {
                NetEffect::LinkFree { at, link } => acts.push(Action::Schedule {
                    at,
                    ev: Event::NetLinkFree(link),
                }),
                NetEffect::Arrive { at, link, pkt } => acts.push(Action::Schedule {
                    at,
                    ev: Event::NetArrive { link, pkt },
                }),
                NetEffect::Nak { at, session, ord } => acts.push(Action::Schedule {
                    at,
                    ev: Event::NetNak(ClientId(session), ord),
                }),
                NetEffect::Playout { at, session, ord } => acts.push(Action::Schedule {
                    at,
                    ev: Event::NetPlayout(ClientId(session), ord),
                }),
                NetEffect::Park { session } => self.net_park(ClientId(session), now, acts),
                NetEffect::Resume { session } => self.net_resume(ClientId(session), now, acts),
            }
        }
        self.net_fx = fx;
    }

    /// Credit exhausted: the client's playout buffer crossed its high
    /// watermark, so park the feeding stream — it sheds its cache pins
    /// and disk share until the client drains. A stream some other
    /// machinery already parked simply rides along (the net-side resume
    /// will retry it like any rebuffer).
    fn net_park(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) {
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
            self.trace_with("net", acts, || {
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
    fn net_resume(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) {
        // Nothing to resume when the viewer is gone or done, or when
        // something else (a gateway failover, the workload's retry
        // loop) already resumed the stream.
        let waiting = self.net.is_parked(client.0)
            && self
                .players
                .get(&client.0)
                .is_some_and(|p| !p.done && p.paused && matches!(p.mode, PlayerMode::Cras { .. }));
        if !waiting || self.resume_player(client, now, acts) {
            self.net.mark_resumed(client.0);
        } else {
            acts.push(Action::Schedule {
                at: now + self.cfg.server.interval,
                ev: Event::NetRetry(client),
            });
        }
    }

    /// Restarts a paused CRAS viewer through the server's feed ladder
    /// ([`CrasServer::resume`]); a viewer that is not paused, or is
    /// done, stays as it is. On success the player unpauses, its
    /// next frame is scheduled at the restarted clock's begin, a disk
    /// share is journaled like any reserve-at-drain promotion, and the
    /// resume is counted. Returns whether the viewer resumed.
    fn resume_player(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) -> bool {
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
        let Some((begin, disk)) = self.cras.resume(stream, now) else {
            return false;
        };
        p.paused = false;
        p.polls_this_frame = 0;
        acts.push(Action::Schedule {
            at: begin,
            ev: Event::PlayerFrame(client),
        });
        if disk {
            acts.push(Action::Journal(JournalRecord::DiskShareReserved {
                client: client.0,
            }));
        }
        self.metrics.resumed_streams += 1;
        true
    }

    fn on_bg_write(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) {
        let Some(w) = self.writers.get_mut(&client.0) else {
            return;
        };
        let (ino, vol, bytes, period) = (w.ino, w.vol, w.write_size, w.period);
        w.complete();
        // Delayed write: allocate + dirty in memory; no disk I/O here.
        self.fs[vol as usize]
            .append_dirty(ino, bytes)
            .expect("edit file grows within limits");
        acts.push(Action::Schedule {
            at: now + period,
            ev: Event::BgWrite(client),
        });
    }

    fn on_sync(&mut self, now: Instant, acts: &mut Vec<Action>) {
        // Flush everything dirty each pass, like the classic update
        // daemon: write-back arrives in bursts, which is exactly the
        // disk contention the editing experiment studies.
        for v in 0..self.fs.len() {
            let runs = self.fs[v].take_dirty(usize::MAX);
            for run in runs {
                self.submit_disk(
                    v as u32,
                    DiskRequest::write(
                        fsblock_to_disk(run.start),
                        SECT_PER_FSBLOCK * run.len,
                        DiskTag::UfsWriteback(v as u32, run),
                    ),
                    acts,
                );
            }
        }
        if !self.writers.is_empty() {
            acts.push(Action::Schedule {
                at: now + Duration::from_secs(1),
                ev: Event::Sync,
            });
        }
    }

    fn on_bg_kick(&mut self, client: ClientId, now: Instant, acts: &mut Vec<Action>) {
        let Some(bg) = self.bgs.get(&client.0) else {
            return;
        };
        if bg.in_flight {
            return;
        }
        let (pos, len) = bg.next_range();
        let (ino, vol) = (bg.ino, bg.vol);
        self.bgs.get_mut(&client.0).expect("exists").in_flight = true;
        self.ufs_read(
            vol,
            UOwner::Bg { client, bytes: len },
            ino,
            pos,
            len,
            now,
            acts,
        );
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
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
        s.attach_replacement(m);
        assert!(s.rebuild_active());
        s.run_for(Duration::from_secs(25));
        assert!(!s.rebuild_active(), "rebuild should have completed");
        let t = s.metrics.rebuild_time().expect("rebuild finished");
        assert!(s.metrics.rebuild_bytes > 0);
        // Rate control: the copy may not beat the configured rate.
        let floor = s.metrics.rebuild_bytes as f64 / s.cfg.rebuild_rate;
        assert!(
            t.as_secs_f64() >= floor * 0.99,
            "rebuild {}s beat the rate floor {floor}s",
            t.as_secs_f64()
        );
        assert!(!s.cras.volume_failed(VolumeId(m)), "capacity not restored");
        assert!(!s.volume_health()[m as usize].down);
        let pl = &s.players[&c.0];
        assert_eq!(pl.stats.frames_dropped, 0, "rebuild traffic dropped frames");
        assert_eq!(s.metrics.overruns, 0, "rebuild caused deadline misses");
    }

    #[test]
    fn injector_scheduled_failure_is_detected_by_io_done() {
        // The volume dies via the fault injector's schedule, not via an
        // explicit call: the I/O-done manager must notice the failed read
        // and take the spindle out of steering on its own.
        let mut s = sys(mirrored_cfg(4));
        let movie = s.record_movie("m", StreamProfile::mpeg1(), 10.0);
        let (p, _) = mirrored_placement(&s, "m");
        s.disks
            .volume_mut(VolumeId(p))
            .set_fault_injector(Some(cras_disk::FaultInjector::none(7)));
        let t_fail = Instant::ZERO + Duration::from_secs(4);
        if let Some(f) = s.disks.volume_mut(VolumeId(p)).fault_injector_mut() {
            f.fail_volume_at(t_fail);
        }
        let c = s.add_cras_player(&movie, 1).unwrap();
        s.start_playback(c);
        s.run_for(Duration::from_secs(15));
        assert!(s.cras.volume_failed(VolumeId(p)), "failure not detected");
        assert!(s.metrics.degraded_reads > 0, "no degraded reads recorded");
        let pl = &s.players[&c.0];
        assert!(pl.done);
        assert_eq!(pl.stats.frames_dropped, 0);
        let health = s.volume_health();
        assert!(health[p as usize].down);
        assert!(health[p as usize].ops_seen > 0);
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
            DiskRequest::read(1_000, 64, DiskTag::Raw(7)),
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
        // volume, and a new rebuild starts while the aborted one's
        // pacing events (and possibly a copy-op completion) are still in
        // the event queue. The generation tags must keep those stale
        // events from driving the new rebuild's chunk cursor — the
        // refailed run has to copy exactly what a clean run copies.
        let run = |refail: bool| -> u64 {
            let mut cfg = mirrored_cfg(4);
            // Slow the copy so the second failure lands mid-rebuild.
            cfg.rebuild_rate = 256.0 * 1024.0;
            let mut s = sys(cfg);
            s.record_movie("m", StreamProfile::mpeg1(), 10.0);
            let (_, m) = mirrored_placement(&s, "m");
            s.fail_volume(m);
            s.run_for(Duration::from_secs(1));
            s.attach_replacement(m);
            if refail {
                s.run_for(Duration::from_millis(1500));
                assert!(s.rebuild_active(), "rebuild finished too early");
                s.fail_volume(m);
                assert!(!s.rebuild_active(), "second failure must abort");
                let mut tries = 0;
                while let Err(e) = s.try_attach_replacement(m) {
                    assert_eq!(e, AttachError::DeviceBusy);
                    tries += 1;
                    assert!(tries < 1000, "attach never succeeded");
                    s.run_for(Duration::from_millis(1));
                }
            }
            s.run_for(Duration::from_secs(60));
            assert!(!s.rebuild_active(), "rebuild should have completed");
            assert!(!s.cras.volume_failed(VolumeId(m)));
            s.metrics.rebuild_bytes
        };
        let clean = run(false);
        assert!(clean > 0);
        assert_eq!(
            run(true),
            clean,
            "stale events from the aborted rebuild drove the new one"
        );
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
            s.serial_batches.is_empty() && s.serial_outstanding.is_empty(),
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
            s.attach_replacement(victim);
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
        s.attach_replacement(2);
        s.run_for(Duration::from_secs(60));
        assert!(!s.rebuild_active(), "rebuild should have completed");
        let t = s.metrics.rebuild_time().expect("rebuild finished");
        // Load-aware pacing only ever scales the configured cap *down*,
        // so the cap's rate floor still binds.
        let floor = s.metrics.rebuild_bytes as f64 / s.cfg.rebuild_rate;
        assert!(
            t.as_secs_f64() >= floor * 0.99,
            "rebuild {}s beat the rate cap floor {floor}s",
            t.as_secs_f64()
        );
        assert_eq!(s.players[&c.0].stats.frames_dropped, 0);
        assert_eq!(s.metrics.overruns, 0);
    }
}
