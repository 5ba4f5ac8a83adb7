//! The placement gateway: N independent [`System`] shards behind one
//! deterministic front door.
//!
//! Each shard is a complete CRAS server — its own volume set, interval
//! cache and admission control. The gateway owns
//! placement and routing policy only; it never reaches into a shard's
//! event loop:
//!
//! * **Placement** — a title's replica shards come from the consistent
//!   hash ring; its replica *count* comes from its popularity rank
//!   (hot head of the Zipf catalog → `replicas` copies, tail → one).
//! * **Routing** — an open goes to the live replica with the fewest
//!   admitted streams, ties broken toward the most recent slack
//!   (exported by [`System::load_signal`]), then by shard id. If that
//!   shard's admission test refuses, the next candidate is tried.
//! * **Failover** — [`Cluster::kill_shard`] fails every volume of the
//!   victim at once, stops stepping it, and re-opens each of its active
//!   sessions on the best surviving replica. Titles without a surviving
//!   copy are reported lost. Single-volume faults *inside* a shard stay
//!   invisible here: mirror/parity redundancy absorbs them locally.
//!
//! Stepping is barrier-synchronous: every live shard runs to the next
//! barrier before any gateway action happens. Because shards share no
//! state between barriers, the default [`Stepping::Parallel`] steps
//! them on every core, the calling thread taking one group of shards
//! and long-lived workers the others, and replays the exact per-shard
//! event sequences of the serial [`Stepping::Lockstep`] reference —
//! byte-identical metrics, checked in tests.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use cras_core::cachepolicy::PopularityEstimator;
use cras_core::AdmissionError;
use cras_media::{Movie, StreamProfile};
use cras_sim::{Duration, Instant};
use cras_sys::player::PlayerStats;
use cras_sys::{ClientId, ShardLoad, SysConfig, System};

use crate::ring::{mix, Ring};

/// Virtual nodes per shard on the placement ring.
const VNODES: usize = 64;

/// `try_recv` polls a stepping handoff makes before it blocks in
/// `recv`. Waking a blocked thread costs tens of µs on a VM, a barrier
/// a few hundred; a handoff that lands while the receiver still polls
/// skips the wake-up. 100,000 polls of an empty channel take 2.6 ms
/// on a 2-vCPU VM (4.7 ms in a debug build).
const SPIN_POLLS: u32 = 100_000;

/// How the gateway steps its shards between barriers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stepping {
    /// One shard after another on the calling thread: the serial
    /// reference the parallel stepper is checked against.
    Lockstep,
    /// The default. With `n = min(live shards, available cores)`, live
    /// shard `i` is stepped by group `i mod n`: the calling thread
    /// steps group 0 and `n − 1` of the cluster's persistent workers
    /// step the others, each serially. Each group moves to its worker
    /// by value over a channel and comes back at the barrier; both
    /// sides poll before they block, so a barrier costs no thread
    /// start. Workers start at the first barrier with `n > 1`, number
    /// at most `cores − 1` and end with the cluster. With `n = 1` the
    /// shards step in place on the calling thread. A shard's step
    /// touches only its own `System`. On a 2-vCPU VM, persistent
    /// workers cut `catalog_storm`'s median barrier from 354 µs, with a
    /// thread spawned per barrier, to 243 µs.
    Parallel,
}

/// Cluster construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard system configuration. Each shard reseeds
    /// `base.seed` with its id so shards are independent but the
    /// cluster as a whole replays from one seed.
    pub base: SysConfig,
    /// Replica count for hot titles (tail titles get one copy).
    pub replicas: usize,
    /// How many of the hottest catalog ranks count as hot.
    pub hot_titles: usize,
    /// Per-shard stream ceiling enforced by routing (`None` = only the
    /// shards' own admission tests gate opens). A shard's disk admission
    /// bounds spindle time and the cache bounds memory, but neither
    /// charges the CPU a stream costs; past the CPU's capacity the
    /// request scheduler starves and every stream degrades at once. The
    /// gateway turns that cliff into a rejection instead.
    pub stream_cap: Option<usize>,
    /// Shard groups on every core (the default) or the serial
    /// lockstep reference.
    pub stepping: Stepping,
    /// How long a rejected open waits in the gateway's retry queue
    /// before it is given up. At every barrier the gateway re-tries
    /// queued opens against the current load; a burst that momentarily
    /// exceeds capacity is absorbed instead of bounced. `ZERO` disables
    /// queueing and [`Cluster::open`] fails fast as before.
    pub retry_window: Duration,
}

impl ClusterConfig {
    /// A `shards`-wide cluster over `base`, with 2-way hot replication,
    /// a 32-title hot set and parallel stepping. Shards synchronize
    /// once per admission interval, `base.server.interval`.
    pub fn new(shards: usize, base: SysConfig) -> ClusterConfig {
        ClusterConfig {
            shards,
            base,
            replicas: 2,
            hot_titles: 32,
            stream_cap: None,
            stepping: Stepping::Parallel,
            retry_window: Duration::ZERO,
        }
    }
}

/// One shard: a full [`System`] plus its gateway-side liveness flag.
pub struct Shard {
    /// Shard id (index into the cluster).
    pub id: u32,
    /// The complete single-server system.
    pub sys: System,
    alive: bool,
    /// Makes this shard's next step panic.
    #[cfg(test)]
    fuse: bool,
}

impl Shard {
    /// Whether the gateway considers this shard live (dead shards are
    /// not stepped and receive no opens).
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// A title's placement across the cluster.
#[derive(Clone, Debug)]
pub(crate) struct TitleInfo {
    /// Shards holding a copy, ring order (primary first).
    pub replicas: Vec<u32>,
    /// The per-shard recording handle.
    movies: BTreeMap<u32, Movie>,
}

/// Handle for an open viewer session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// A viewer session as the gateway tracks it.
#[derive(Clone, Debug)]
pub struct Session {
    /// Title being played.
    pub title: String,
    /// Shard currently serving it.
    pub shard: u32,
    /// Player client id inside that shard.
    pub client: ClientId,
    /// Whether a whole-shard failover moved this session.
    pub rerouted: bool,
    /// Whether the session was lost to a shard death (no surviving
    /// replica, or every survivor refused admission), or expired in the
    /// retry queue without ever being admitted.
    pub lost: bool,
    /// Whether the session is parked in the gateway's retry queue
    /// (rejected at open, waiting for capacity). `shard` and `client`
    /// are meaningless while this is set.
    pub queued: bool,
}

/// One open waiting in the gateway's retry queue.
struct PendingOpen {
    session: u64,
    title: String,
    deadline: Instant,
}

/// Counters for the gateway-side open retry queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Opens parked in the queue after an initial rejection.
    pub queued: u64,
    /// Queued opens later admitted within the retry window.
    pub admitted: u64,
    /// Queued opens that stayed rejected until the window elapsed.
    pub expired: u64,
    /// Queued opens dropped because every replica shard died.
    pub purged: u64,
    /// Queued opens closed by the viewer before they were admitted.
    /// With it the queue balances: `queued = admitted + expired +
    /// purged + cancelled + pending_opens()`.
    pub cancelled: u64,
    /// Parked (rebuffering) viewers resumed by a barrier retry sweep.
    pub resumed: u64,
}

/// Why [`Cluster::open`] refused a session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpenError {
    /// The title was never added to the catalog.
    UnknownTitle,
    /// Every shard holding the title is dead.
    AllReplicasDown,
    /// Every live replica sits at the gateway's `stream_cap`.
    AtCapacity,
    /// Every live replica's admission test refused (last error shown).
    Rejected(AdmissionError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::UnknownTitle => write!(f, "unknown title"),
            OpenError::AllReplicasDown => write!(f, "every replica shard is dead"),
            OpenError::AtCapacity => write!(f, "every live replica is at the stream cap"),
            OpenError::Rejected(e) => write!(f, "every live replica refused: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

/// Why [`Cluster::kill_shard`] refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillError {
    /// No shard has this id.
    UnknownShard(u32),
    /// The shard is already dead.
    AlreadyDead(u32),
}

impl std::fmt::Display for KillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KillError::UnknownShard(s) => write!(f, "no shard {s}"),
            KillError::AlreadyDead(s) => write!(f, "shard {s} is already dead"),
        }
    }
}

impl std::error::Error for KillError {}

/// What [`Cluster::kill_shard`] did with the victim's sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverReport {
    /// Active sessions the victim was serving at the kill.
    pub orphaned: usize,
    /// Re-admitted on a surviving replica shard.
    pub rerouted: usize,
    /// Already finished playback; nothing to move.
    pub finished: usize,
    /// Lost: no surviving replica holds the title.
    pub lost_no_replica: usize,
    /// Lost: survivors hold the title but all refused admission.
    pub lost_rejected: usize,
}

/// The sharded gateway.
pub struct Cluster {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    ring: Ring,
    titles: BTreeMap<String, TitleInfo>,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    popularity: PopularityEstimator,
    pending: Vec<PendingOpen>,
    retry_stats: RetryStats,
    now: Instant,
    /// Next barrier at which parked viewers get an admission retry.
    resume_at: Instant,
    /// Cores available to [`Stepping::Parallel`], read once.
    cores: usize,
    /// Persistent stepping workers, started at the first barrier that
    /// needs them; worker `k` steps group `k + 1`.
    workers: Vec<Worker>,
}

/// One persistent stepping thread: it takes a shard group and a
/// barrier on `jobs` and hands the group back on `done`, with the
/// payload if a step panicked.
struct Worker {
    jobs: Sender<(Vec<Shard>, Instant)>,
    done: Receiver<(Vec<Shard>, std::thread::Result<()>)>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Starts a worker. It serves barriers until its `jobs` sender is
    /// dropped.
    fn spawn() -> Worker {
        let (jobs, job_rx) = mpsc::channel::<(Vec<Shard>, Instant)>();
        let (done_tx, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("shard-step".into())
            .spawn(move || {
                while let Some((mut group, t)) = recv_polling(&job_rx) {
                    let stepped = Cluster::step_caught(&mut group, t);
                    if done_tx.send((group, stepped)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn a stepping worker");
        Worker { jobs, done, thread }
    }
}

/// Receives from `rx`, polling up to [`SPIN_POLLS`] times before it
/// blocks; `None` once the sender is gone.
fn recv_polling<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..SPIN_POLLS {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

impl Cluster {
    /// Builds the cluster: `cfg.shards` independent systems, each
    /// seeded from `cfg.base.seed` mixed with its shard id.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        assert!(cfg.shards > 0, "a cluster needs at least one shard");
        assert!(
            cfg.replicas <= cfg.shards,
            "cannot hold more replicas than shards"
        );
        let shards = (0..cfg.shards as u32)
            .map(|id| {
                let mut sc = cfg.base;
                sc.seed = cfg.base.seed ^ mix(0x5AD0 + id as u64);
                Shard {
                    id,
                    sys: System::new(sc),
                    alive: true,
                    #[cfg(test)]
                    fuse: false,
                }
            })
            .collect();
        Cluster {
            ring: Ring::new(0..cfg.shards as u32, VNODES),
            cfg,
            shards,
            titles: BTreeMap::new(),
            sessions: BTreeMap::new(),
            next_session: 0,
            popularity: PopularityEstimator::new(),
            pending: Vec::new(),
            retry_stats: RetryStats::default(),
            now: Instant::ZERO,
            resume_at: Instant::ZERO,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: Vec::new(),
        }
    }

    /// The cluster's barrier clock.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// All shards, dead ones included.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The online popularity estimator (fed by every open request).
    pub fn popularity(&self) -> &PopularityEstimator {
        &self.popularity
    }

    /// Adds `name` to the catalog at popularity `rank` (0 = hottest)
    /// and records it on its replica shards. Hot ranks
    /// (`rank < cfg.hot_titles`) get `cfg.replicas` copies on distinct
    /// shards; the tail gets one. Returns the replica shard ids.
    pub fn add_title(
        &mut self,
        name: &str,
        profile: &StreamProfile,
        secs: f64,
        rank: usize,
    ) -> Vec<u32> {
        let k = if rank < self.cfg.hot_titles {
            self.cfg.replicas.max(1)
        } else {
            1
        };
        let replicas = self.ring.replicas(name, k);
        assert!(!replicas.is_empty(), "no live shard to place on");
        let mut movies = BTreeMap::new();
        for &s in &replicas {
            let m = self.shards[s as usize]
                .sys
                .record_movie(name, *profile, secs);
            movies.insert(s, m);
        }
        self.titles.insert(
            name.to_string(),
            TitleInfo {
                replicas: replicas.clone(),
                movies,
            },
        );
        replicas
    }

    /// Candidate replicas for `title`, best first: live shards holding
    /// a copy. When prefix residency is on (DESIGN §16) the replica
    /// whose cache already pins the title's prefix sorts first — that
    /// shard can admit the open deferred (zero disk shares) and batch
    /// it onto an in-flight read stream, so concentrating a hot title's
    /// viewers there is cheaper than spreading them. The remaining
    /// order is least recent volume lag (a shard whose disks are
    /// already missing deadlines is a worse host than one with more
    /// streams but healthy volumes — open counts alone can't see
    /// that), then fewest admitted streams, then most recent slack,
    /// then shard id.
    fn route_candidates(&self, title: &str, info: &TitleInfo) -> Vec<u32> {
        let prefix_on = self.cfg.base.server.prefix_secs > Duration::ZERO;
        // Each candidate's sort key (prefix flag and load signal) is
        // read once, not once per comparison.
        let mut cands: Vec<(u32, bool, ShardLoad)> = info
            .replicas
            .iter()
            .copied()
            .filter(|&s| self.shards[s as usize].alive)
            .filter(|&s| match self.cfg.stream_cap {
                Some(cap) => self.shards[s as usize].sys.cras.stream_count() < cap,
                None => true,
            })
            .map(|s| {
                let sys = &self.shards[s as usize].sys;
                (
                    s,
                    prefix_on && sys.cras.cache().has_prefix(title),
                    sys.load_signal(),
                )
            })
            .collect();
        cands.sort_by(|(a, pa, la), (b, pb, lb)| {
            pb.cmp(pa)
                .then(la.recent_lag.total_cmp(&lb.recent_lag))
                .then(la.streams.cmp(&lb.streams))
                .then(lb.recent_slack.total_cmp(&la.recent_slack))
                .then(a.cmp(b))
        });
        cands.into_iter().map(|(s, ..)| s).collect()
    }

    /// Admits `title` on the best live replica and starts playback.
    fn route_open(&mut self, title: &str) -> Result<(u32, ClientId), OpenError> {
        let info = self.titles.get(title).ok_or(OpenError::UnknownTitle)?;
        if !info.replicas.iter().any(|&s| self.shards[s as usize].alive) {
            return Err(OpenError::AllReplicasDown);
        }
        let mut last = None;
        for s in self.route_candidates(title, info) {
            let movie = &self.titles[title].movies[&s];
            let sh = &mut self.shards[s as usize];
            match sh.sys.add_cras_player(movie, 1) {
                Ok(c) => {
                    sh.sys.start_playback(c);
                    return Ok((s, c));
                }
                Err(e) => last = Some(e),
            }
        }
        // The typed error is guaranteed by construction: an empty
        // candidate list (every live replica excluded by the stream
        // cap) is `AtCapacity`, a non-empty one whose every admission
        // failed carries the last admission error. No unwrap — a list
        // that turns out empty can never panic the gateway.
        Err(match last {
            Some(e) => OpenError::Rejected(e),
            None => OpenError::AtCapacity,
        })
    }

    /// Opens a viewer session for `title`, routing to the least-loaded
    /// live replica (prefix holder first for hot titles). Every request
    /// — admitted or refused — feeds the popularity estimator.
    ///
    /// With `cfg.retry_window > ZERO`, a rejection does not fail the
    /// open: the session is parked in the retry queue (`queued` set)
    /// and re-tried at every barrier until it is admitted or the window
    /// elapses — then it is marked `lost`.
    pub fn open(&mut self, title: &str) -> Result<SessionId, OpenError> {
        self.popularity.observe(title);
        let (shard, client, queued) = match self.route_open(title) {
            Ok((shard, client)) => (shard, client, false),
            Err(OpenError::Rejected(_) | OpenError::AtCapacity)
                if self.cfg.retry_window > Duration::ZERO =>
            {
                (u32::MAX, ClientId(u32::MAX), true)
            }
            Err(e) => return Err(e),
        };
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                title: title.to_string(),
                shard,
                client,
                rerouted: false,
                lost: false,
                queued,
            },
        );
        if queued {
            self.retry_stats.queued += 1;
            self.pending.push(PendingOpen {
                session: id,
                title: title.to_string(),
                deadline: self.now + self.cfg.retry_window,
            });
        }
        Ok(SessionId(id))
    }

    /// Re-tries every queued open against current capacity. Runs at
    /// each barrier: admitted opens leave the queue and start playback,
    /// still-rejected ones wait until their deadline, and opens whose
    /// last replica died (or whose deadline passed) are marked lost.
    fn drain_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            match self.route_open(&p.title) {
                Ok((shard, client)) => {
                    self.retry_stats.admitted += 1;
                    let s = self.sessions.get_mut(&p.session).expect("session exists");
                    s.shard = shard;
                    s.client = client;
                    s.queued = false;
                }
                Err(OpenError::Rejected(_) | OpenError::AtCapacity) if self.now < p.deadline => {
                    self.pending.push(p)
                }
                Err(e) => {
                    if matches!(e, OpenError::Rejected(_) | OpenError::AtCapacity) {
                        self.retry_stats.expired += 1;
                    } else {
                        self.retry_stats.purged += 1;
                    }
                    let s = self.sessions.get_mut(&p.session).expect("session exists");
                    s.queued = false;
                    s.lost = true;
                }
            }
        }
    }

    /// Retries admission for every parked (rebuffering) viewer on the
    /// live shards. A parked stream holds no admission shares and its
    /// clock is frozen, so each retry re-runs the full feed ladder
    /// (disk share, then cache window) against current load and
    /// resumes playback from the frozen position on success. Runs at
    /// barriers, throttled to one sweep per admission interval.
    fn resume_parked(&mut self) {
        for sh in self.shards.iter_mut().filter(|s| s.alive) {
            let paused: Vec<u32> = sh
                .sys
                .players
                .iter()
                .filter(|(_, p)| p.paused && !p.done)
                .map(|(id, _)| id)
                .collect();
            for id in paused {
                if sh.sys.retry_parked(ClientId(id)) {
                    self.retry_stats.resumed += 1;
                }
            }
        }
    }

    /// Retry-queue counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Number of opens currently parked in the retry queue.
    pub fn pending_opens(&self) -> usize {
        self.pending.len()
    }

    /// Ends a session: the shard closes the stream (`crs_close`),
    /// freeing its admission shares and its slot under `stream_cap`. A
    /// queued session leaves the retry queue and counts as cancelled.
    pub fn close(&mut self, sid: SessionId) {
        if let Some(s) = self.sessions.get(&sid.0) {
            if s.queued {
                self.pending.retain(|p| p.session != sid.0);
                self.retry_stats.cancelled += 1;
            } else if !s.lost {
                let (shard, client) = (s.shard, s.client);
                if self.shards[shard as usize].alive {
                    self.shards[shard as usize].sys.close_playback(client);
                }
            }
        }
        self.sessions.remove(&sid.0);
    }

    /// The gateway's view of a session.
    #[cfg(test)]
    fn session(&self, sid: SessionId) -> Option<&Session> {
        self.sessions.get(&sid.0)
    }

    /// All sessions in id order.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &Session)> {
        self.sessions.iter().map(|(&id, s)| (SessionId(id), s))
    }

    /// Player statistics for a session, if its shard is live and the
    /// session was not lost.
    pub fn session_stats(&self, sid: SessionId) -> Option<&PlayerStats> {
        let s = self.sessions.get(&sid.0)?;
        if s.lost || s.queued || !self.shards[s.shard as usize].alive {
            return None;
        }
        self.shards[s.shard as usize]
            .sys
            .players
            .get(&s.client.0)
            .map(|p| &p.stats)
    }

    /// Kills shard `victim` whole: every volume fails fast, the shard
    /// stops being stepped, and each session it was serving is
    /// re-admitted on the best surviving replica of its title (playback
    /// restarts from the top, as after a set-top reconnect). Titles
    /// with no surviving copy are reported lost. Killing a shard that
    /// does not exist or is already dead is an error and changes
    /// nothing.
    pub fn kill_shard(&mut self, victim: u32) -> Result<FailoverReport, KillError> {
        let idx = victim as usize;
        match self.shards.get(idx) {
            None => return Err(KillError::UnknownShard(victim)),
            Some(sh) if !sh.alive => return Err(KillError::AlreadyDead(victim)),
            Some(_) => {}
        }
        self.shards[idx].alive = false;
        self.shards[idx].sys.fail_shard();
        self.ring.remove_shard(victim);
        // Purge queued opens whose title lost its last live replica:
        // no amount of waiting will admit them now.
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            let has_live = self
                .titles
                .get(&p.title)
                .is_some_and(|i| i.replicas.iter().any(|&s| self.shards[s as usize].alive));
            if has_live {
                self.pending.push(p);
            } else {
                self.retry_stats.purged += 1;
                let s = self.sessions.get_mut(&p.session).expect("session exists");
                s.queued = false;
                s.lost = true;
            }
        }
        let mut report = FailoverReport::default();
        let orphans: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.shard == victim && !s.lost)
            .map(|(&id, _)| id)
            .collect();
        for id in orphans {
            let (title, client) = {
                let s = &self.sessions[&id];
                (s.title.clone(), s.client)
            };
            let done = self.shards[idx]
                .sys
                .players
                .get(&client.0)
                .is_none_or(|p| p.done);
            if done {
                report.finished += 1;
                continue;
            }
            report.orphaned += 1;
            match self.route_open(&title) {
                Ok((shard, client)) => {
                    report.rerouted += 1;
                    let s = self.sessions.get_mut(&id).expect("session exists");
                    s.shard = shard;
                    s.client = client;
                    s.rerouted = true;
                }
                Err(e) => {
                    if matches!(e, OpenError::Rejected(_) | OpenError::AtCapacity) {
                        report.lost_rejected += 1;
                    } else {
                        report.lost_no_replica += 1;
                    }
                    self.sessions.get_mut(&id).expect("session exists").lost = true;
                }
            }
        }
        Ok(report)
    }

    /// Steps one shard to the barrier; its clock ends there.
    fn step_shard(sh: &mut Shard, t: Instant) {
        #[cfg(test)]
        if sh.fuse {
            panic!("shard {} step panicked", sh.id);
        }
        sh.sys.run_until(t);
    }

    /// Steps `group` to `t` serially; a panic comes back as its payload
    /// and leaves every shard of the group in place.
    fn step_caught(group: &mut [Shard], t: Instant) -> std::thread::Result<()> {
        catch_unwind(AssertUnwindSafe(|| {
            group.iter_mut().for_each(|sh| Self::step_shard(sh, t))
        }))
    }

    /// Steps every live shard to `t` in `n = min(live, cores)` groups:
    /// live shard `i` joins group `i mod n`, groups `1..n` go to the
    /// workers by value while the calling thread steps group 0, and the
    /// last group handed back is the barrier. With `n = 1` the shards
    /// step in place. A panicking step resurfaces here with its payload
    /// once every group is back, after the workers are joined.
    fn step_groups(&mut self, t: Instant, cores: usize) {
        let live = self.shards.iter().filter(|s| s.alive).count();
        let n = cores.min(live).max(1);
        if n == 1 {
            let live = self.shards.iter_mut().filter(|s| s.alive);
            live.for_each(|sh| Self::step_shard(sh, t));
            return;
        }
        while self.workers.len() < n - 1 {
            self.workers.push(Worker::spawn());
        }
        let (live, dead): (Vec<Shard>, Vec<Shard>) = std::mem::take(&mut self.shards)
            .into_iter()
            .partition(|s| s.alive);
        self.shards = dead;
        let mut groups: Vec<Vec<Shard>> = (0..n).map(|_| Vec::new()).collect();
        for (i, sh) in live.into_iter().enumerate() {
            groups[i % n].push(sh);
        }
        let mut groups = groups.into_iter();
        let mut mine = groups.next().expect("n ≥ 2 groups");
        for (w, group) in self.workers.iter().zip(groups) {
            w.jobs
                .send((group, t))
                .expect("a stepping worker serves until dropped");
        }
        let mut stepped = Self::step_caught(&mut mine, t);
        self.shards.append(&mut mine);
        for w in &self.workers[..n - 1] {
            let (mut group, result) = recv_polling(&w.done).expect("a stepping worker replies");
            self.shards.append(&mut group);
            stepped = stepped.and(result);
        }
        self.shards.sort_unstable_by_key(|s| s.id);
        if let Err(payload) = stepped {
            self.stop_workers();
            resume_unwind(payload);
        }
    }

    /// Ends every stepping worker and joins it: dropping its `jobs`
    /// sender ends its loop.
    fn stop_workers(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            // A worker catches its steps' panics and hands them back, so
            // its thread ends without one.
            let _ = thread.join();
        }
    }

    /// Runs every live shard to the next barrier, repeatedly, until the
    /// cluster clock reaches `t`. Gateway actions (opens, kills) only
    /// ever happen between calls, i.e. at barriers — which is why
    /// parallel stepping cannot change any shard's event sequence.
    pub(crate) fn run_until(&mut self, t: Instant) {
        while self.now < t {
            let next = t.min(self.now + self.cfg.base.server.interval);
            let cores = match self.cfg.stepping {
                Stepping::Lockstep => 1,
                Stepping::Parallel => self.cores,
            };
            self.step_groups(next, cores);
            self.now = next;
            self.drain_pending();
            if self.now >= self.resume_at {
                self.resume_parked();
                self.resume_at = self.now + self.cfg.base.server.interval;
            }
        }
    }

    /// Runs for `d` from the cluster clock.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Per-shard canonical metrics serializations (dead shards
    /// included), the unit of the determinism tests.
    pub fn canonical_metrics(&self) -> Vec<String> {
        self.shards
            .iter()
            .map(|s| s.sys.metrics.canonical_json())
            .collect()
    }

    /// Total frames shown by sessions still served by live shards.
    pub fn live_frames_shown(&self) -> u64 {
        self.live_stats(|st| st.frames_shown)
    }

    /// Total frames dropped by sessions still served by live shards.
    pub fn live_frames_dropped(&self) -> u64 {
        self.live_stats(|st| st.frames_dropped)
    }

    fn live_stats(&self, f: impl Fn(&PlayerStats) -> u64) -> u64 {
        self.sessions
            .keys()
            .filter_map(|&id| self.session_stats(SessionId(id)))
            .map(f)
            .sum()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_media::StreamProfile;

    fn small_cluster() -> Cluster {
        let mut base = SysConfig {
            seed: 0xC1_05_7E,
            ..SysConfig::default()
        };
        base.server.volumes = 2;
        let mut cfg = ClusterConfig::new(3, base);
        cfg.hot_titles = 2;
        Cluster::new(cfg)
    }

    /// What a test does between barriers, after open `i`.
    type Between = fn(&mut Cluster, usize);

    /// Runs a fixed open sequence on [`small_cluster`] after `tweak`,
    /// calling `between` after the barriers that follow each open.
    fn drive(tweak: impl FnOnce(&mut Cluster), between: Between) -> (Vec<String>, u64, u64) {
        let mut cl = small_cluster();
        tweak(&mut cl);
        for (rank, name) in ["a.mov", "b.mov", "c.mov", "d.mov"].iter().enumerate() {
            cl.add_title(name, &StreamProfile::mpeg1(), 30.0, rank);
        }
        let mut opened = 0;
        for i in 0..12 {
            let title = ["a.mov", "a.mov", "b.mov", "c.mov"][i % 4];
            if cl.open(title).is_ok() {
                opened += 1;
            }
            cl.run_for(Duration::from_millis(400));
            between(&mut cl, i);
        }
        cl.run_for(Duration::from_secs(5));
        (cl.canonical_metrics(), opened, cl.live_frames_shown())
    }

    #[test]
    fn hot_titles_get_more_replicas_than_tail() {
        let mut cl = small_cluster();
        let hot = cl.add_title("hot.mov", &StreamProfile::mpeg1(), 10.0, 0);
        let cold = cl.add_title("cold.mov", &StreamProfile::mpeg1(), 10.0, 99);
        assert_eq!(hot.len(), 2);
        let mut d = hot.clone();
        d.dedup();
        assert_eq!(d.len(), 2, "replicas must land on distinct shards");
        assert_eq!(cold.len(), 1);
    }

    #[test]
    fn parallel_stepping_matches_lockstep_byte_for_byte() {
        assert_eq!(small_cluster().cfg.stepping, Stepping::Parallel);
        // Between barriers: nothing; two kills, leaving fewer live
        // shards than the pool has threads; a pause 10x longer than
        // the workers poll, so the next barrier wakes blocked workers.
        let cases: [(&str, Between); 3] = [
            ("plain", |_, _| {}),
            ("kills", |cl, i| {
                if i == 4 || i == 8 {
                    cl.kill_shard(i as u32 / 4 - 1).expect("victim is live");
                }
            }),
            ("blocked", |_, i| {
                if i == 6 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }),
        ];
        for (case, between) in cases {
            let lockstep = drive(|cl| cl.cfg.stepping = Stepping::Lockstep, between);
            assert_eq!(lockstep, drive(|_| {}, between), "{case} diverged");
            // Whatever this host's core count, cover both more shards
            // than threads (2 groups for 3 shards) and one thread per
            // shard.
            for cores in [2, 3] {
                let parallel = drive(|cl| cl.cores = cores, between);
                assert_eq!(lockstep, parallel, "{case} diverged at {cores} threads");
            }
        }
    }

    #[test]
    fn replay_is_deterministic() {
        assert_eq!(drive(|_| {}, |_, _| {}), drive(|_| {}, |_, _| {}));
    }

    #[test]
    fn a_panicking_shard_step_resurfaces_with_its_payload() {
        let mut cl = small_cluster();
        cl.cores = 3;
        cl.add_title("a.mov", &StreamProfile::mpeg1(), 30.0, 0);
        cl.open("a.mov").expect("admitted");
        cl.run_for(Duration::from_millis(200));
        assert_eq!(cl.workers.len(), 2);
        // Live shard 1 is stepped by the first worker, live shard 0 by
        // the calling thread.
        for victim in [1, 0] {
            cl.shards[victim].fuse = true;
            let run = catch_unwind(AssertUnwindSafe(|| cl.run_for(Duration::from_millis(200))));
            let payload = run.expect_err("the step panicked");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                message,
                Some(format!("shard {victim} step panicked").as_str())
            );
            // Every shard is back in id order and the workers are joined.
            let ids: Vec<u32> = cl.shards().iter().map(|s| s.id).collect();
            assert_eq!(ids, [0, 1, 2]);
            assert!(cl.workers.is_empty());
            // Without the fuse the cluster steps on, on fresh workers.
            cl.shards[victim].fuse = false;
            cl.run_for(Duration::from_millis(200));
            assert_eq!(cl.workers.len(), 2);
        }
    }

    #[test]
    fn dropping_a_cluster_joins_its_workers() {
        let mut cl = small_cluster();
        cl.cores = 3;
        cl.run_for(Duration::from_millis(200));
        assert_eq!(cl.workers.len(), cl.cores - 1);
        // A worker's thread holds the sending half of its `done`
        // channel until the thread ends.
        let replies: Vec<_> = cl
            .workers
            .iter_mut()
            .map(|w| std::mem::replace(&mut w.done, mpsc::channel().1))
            .collect();
        drop(cl);
        for rx in replies {
            assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        }
    }

    #[test]
    fn shard_kill_reroutes_replicated_titles() {
        let mut cl = small_cluster();
        cl.add_title("hot.mov", &StreamProfile::mpeg1(), 60.0, 0);
        let sid = cl.open("hot.mov").expect("admitted");
        cl.run_for(Duration::from_secs(2));
        let victim = cl.session(sid).unwrap().shard;
        let report = cl.kill_shard(victim).expect("victim is live");
        assert_eq!(report.orphaned, 1);
        assert_eq!(report.rerouted, 1);
        let s = cl.session(sid).unwrap();
        assert!(s.rerouted && !s.lost);
        assert_ne!(s.shard, victim);
        let survivor = s.shard;
        // Killing the same shard again, or one that does not exist, is
        // a typed error that changes nothing.
        assert_eq!(cl.kill_shard(victim), Err(KillError::AlreadyDead(victim)));
        assert_eq!(cl.kill_shard(3), Err(KillError::UnknownShard(3)));
        assert_eq!(cl.session(sid).unwrap().shard, survivor);
        // The survivor actually serves it: frames advance after the kill.
        cl.run_for(Duration::from_secs(4));
        let shown = cl.session_stats(sid).map(|st| st.frames_shown);
        assert!(shown.unwrap_or(0) > 0, "rerouted session never played");
        assert_eq!(cl.shards().iter().filter(|s| s.alive).count(), 2);
    }

    #[test]
    fn shard_kill_loses_unreplicated_titles() {
        let mut cl = small_cluster();
        cl.add_title("cold.mov", &StreamProfile::mpeg1(), 60.0, 50);
        let sid = cl.open("cold.mov").expect("admitted");
        cl.run_for(Duration::from_secs(1));
        let victim = cl.session(sid).unwrap().shard;
        let report = cl.kill_shard(victim).expect("victim is live");
        assert_eq!(report.lost_no_replica, 1);
        assert!(cl.session(sid).unwrap().lost);
        assert!(cl.session_stats(sid).is_none());
        assert_eq!(cl.open("cold.mov"), Err(OpenError::AllReplicasDown));
        // The cluster keeps running without the dead shard.
        cl.run_for(Duration::from_secs(2));
    }

    #[test]
    fn prefix_holder_attracts_same_title_opens() {
        let mut cl = small_cluster();
        cl.cfg.base.server.cache_budget = 64 << 20;
        cl.cfg.base.server.prefix_secs = Duration::from_secs(10);
        cl.cfg.base.server.hot_set = 4;
        for sh in &mut cl.shards {
            let mut sc = cl.cfg.base;
            sc.seed = cl.cfg.base.seed ^ mix(0x5AD0 + sh.id as u64);
            sh.sys = System::new(sc);
        }
        cl.add_title("hot.mov", &StreamProfile::mpeg1(), 30.0, 0);
        let mut shards = Vec::new();
        for _ in 0..4 {
            let sid = cl.open("hot.mov").expect("admitted");
            shards.push(cl.session(sid).unwrap().shard);
            cl.run_for(Duration::from_millis(100));
        }
        // The first open pins the prefix on one replica; every later
        // same-title open sticks there instead of alternating.
        assert!(
            shards.iter().all(|&s| s == shards[0]),
            "opens spread away from the prefix holder: {shards:?}"
        );
    }

    #[test]
    fn opens_avoid_the_replica_with_recent_volume_lag() {
        use cras_core::{IntervalReport, ReadReq, StreamId};
        use cras_disk::{Completed, DiskRequest, ServiceBreakdown, VolumeId};
        use cras_sys::DiskTag;

        let mut cl = small_cluster();
        cl.add_title("hot.mov", &StreamProfile::mpeg1(), 30.0, 0);
        let before = {
            let info = cl.titles.get("hot.mov").unwrap();
            cl.route_candidates("hot.mov", info)
        };
        assert_eq!(before.len(), 2, "hot title has two live replicas");

        // Feed the preferred replica a completed interval that ran far
        // behind its calculated I/O time: its volume-lag signal rises
        // while its stream count stays zero — the signal open counts
        // cannot see.
        let read = ReadReq {
            stream: StreamId(0),
            batch: 0,
            logical: Some(0),
            volume: VolumeId(0),
            block: 0,
            nblocks: 8,
            write: false,
        };
        let rep = IntervalReport {
            index: 0,
            reqs: vec![read],
            posted_chunks: 0,
            overran: false,
            calculated_io_time: 0.001,
            per_volume_calculated: vec![0.001, 0.0],
            degraded_streams: 0,
            steered_streams: 0,
            lost_streams: 0,
            cache_served_streams: 0,
            deferred_reserved_streams: 0,
            cache_rejected_titles: Vec::new(),
            parked_streams: Vec::new(),
        };
        let m = &mut cl.shards[before[0] as usize].sys.metrics;
        let slot = m.on_interval(&rep, Instant::ZERO)[0];
        m.on_cras_read_done(
            slot,
            &Completed {
                req: DiskRequest::rt_read(0, 8, DiskTag::Cras(read, slot)),
                submitted_at: Instant::ZERO,
                started_at: Instant::ZERO,
                finished_at: Instant::ZERO + Duration::from_millis(200),
                breakdown: ServiceBreakdown::default(),
                failed: false,
            },
        );

        let after = {
            let info = cl.titles.get("hot.mov").unwrap();
            cl.route_candidates("hot.mov", info)
        };
        assert_eq!(
            after,
            vec![before[1], before[0]],
            "the lagging replica must sort behind the healthy one"
        );
        let sid = cl.open("hot.mov").expect("admitted");
        assert_eq!(cl.session(sid).unwrap().shard, before[1]);
    }

    #[test]
    fn rejected_open_queues_and_admits_when_capacity_frees() {
        let mut base = SysConfig {
            seed: 0x9E7,
            ..SysConfig::default()
        };
        base.server.volumes = 2;
        let mut cfg = ClusterConfig::new(3, base);
        cfg.hot_titles = 2;
        cfg.stream_cap = Some(1);
        cfg.retry_window = Duration::from_secs(5);
        let mut cl = Cluster::new(cfg);
        cl.add_title("q.mov", &StreamProfile::mpeg1(), 30.0, 0);
        // Two replicas, cap 1 each: the first two opens admit, the
        // third queues instead of failing.
        let a = cl.open("q.mov").expect("admitted");
        let b = cl.open("q.mov").expect("admitted");
        let c = cl.open("q.mov").expect("queued, not refused");
        assert!(cl.session(c).unwrap().queued);
        assert!(cl.session_stats(c).is_none());
        assert_eq!(cl.pending_opens(), 1);
        assert_eq!(cl.retry_stats().queued, 1);
        assert!(!cl.session(a).unwrap().queued && !cl.session(b).unwrap().queued);
        // Freeing a slot lets the next barrier drain the queue.
        cl.close(a);
        cl.run_for(Duration::from_secs(1));
        let s = cl.session(c).unwrap();
        assert!(!s.queued && !s.lost, "queued open never admitted");
        assert_eq!(cl.pending_opens(), 0);
        assert_eq!(cl.retry_stats().admitted, 1);
        // The retried session actually plays.
        cl.run_for(Duration::from_secs(4));
        assert!(cl.session_stats(c).map(|st| st.frames_shown).unwrap_or(0) > 0);
    }

    #[test]
    fn closing_a_queued_open_keeps_the_retry_queue_balanced() {
        let mut base = SysConfig {
            seed: 0x9EA,
            ..SysConfig::default()
        };
        base.server.volumes = 2;
        let mut cfg = ClusterConfig::new(3, base);
        cfg.hot_titles = 2;
        cfg.stream_cap = Some(1);
        cfg.retry_window = Duration::from_secs(5);
        let mut cl = Cluster::new(cfg);
        cl.add_title("q.mov", &StreamProfile::mpeg1(), 30.0, 0);
        let _a = cl.open("q.mov").expect("admitted");
        let _b = cl.open("q.mov").expect("admitted");
        let c = cl.open("q.mov").expect("queued");
        let d = cl.open("q.mov").expect("queued");
        assert!(cl.session(c).unwrap().queued && cl.session(d).unwrap().queued);
        cl.close(c);
        cl.run_for(Duration::from_secs(1));
        let r = cl.retry_stats();
        assert_eq!((r.queued, r.cancelled, cl.pending_opens()), (2, 1, 1));
        assert_eq!(
            r.queued,
            r.admitted + r.expired + r.purged + r.cancelled + cl.pending_opens() as u64
        );
        assert!(cl.session(c).is_none());
    }

    #[test]
    fn queued_open_expires_after_retry_window() {
        let mut base = SysConfig {
            seed: 0x9E8,
            ..SysConfig::default()
        };
        base.server.volumes = 2;
        let mut cfg = ClusterConfig::new(3, base);
        cfg.hot_titles = 2;
        cfg.stream_cap = Some(1);
        cfg.retry_window = Duration::from_secs(2);
        let mut cl = Cluster::new(cfg);
        cl.add_title("q.mov", &StreamProfile::mpeg1(), 60.0, 0);
        let _a = cl.open("q.mov").expect("admitted");
        let _b = cl.open("q.mov").expect("admitted");
        let c = cl.open("q.mov").expect("queued");
        assert!(cl.session(c).unwrap().queued);
        // Nobody leaves; the window elapses and the open is lost.
        cl.run_for(Duration::from_secs(3));
        let s = cl.session(c).unwrap();
        assert!(s.lost && !s.queued);
        assert_eq!(cl.retry_stats().expired, 1);
        assert_eq!(cl.pending_opens(), 0);
    }

    #[test]
    fn open_with_every_live_replica_at_cap_is_a_typed_error() {
        // Regression: with no retry window, an open whose every live
        // replica is excluded by the stream cap must come back as
        // `Err(AtCapacity)` — the route must never panic on an empty
        // candidate list.
        let mut base = SysConfig {
            seed: 0x9E9,
            ..SysConfig::default()
        };
        base.server.volumes = 2;
        let mut cfg = ClusterConfig::new(3, base);
        cfg.hot_titles = 2;
        cfg.stream_cap = Some(1);
        let mut cl = Cluster::new(cfg);
        cl.add_title("cap.mov", &StreamProfile::mpeg1(), 30.0, 0);
        let _a = cl.open("cap.mov").expect("admitted");
        let _b = cl.open("cap.mov").expect("admitted");
        assert_eq!(cl.open("cap.mov"), Err(OpenError::AtCapacity));
        // The cluster stays serviceable afterwards.
        cl.run_for(Duration::from_secs(1));
    }

    #[test]
    fn routing_balances_toward_least_loaded_replica() {
        let mut cl = small_cluster();
        cl.add_title("hot.mov", &StreamProfile::mpeg1(), 30.0, 0);
        let mut by_shard = BTreeMap::new();
        for _ in 0..4 {
            let sid = cl.open("hot.mov").expect("admitted");
            *by_shard
                .entry(cl.session(sid).unwrap().shard)
                .or_insert(0usize) += 1;
            cl.run_for(Duration::from_millis(100));
        }
        // Two replicas, four viewers: the least-loaded rule alternates.
        assert_eq!(by_shard.len(), 2);
        assert!(by_shard.values().all(|&c| c == 2), "{by_shard:?}");
    }
}
