//! Global event and routing-tag types of the orchestrated system.

use cras_core::ReadId;
use cras_rtmach::SliceToken;
use cras_ufs::fs::FetchRun;

/// Identifies one client application (player or background reader).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

/// The global event enum dispatched by the system loop.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// The disk on this volume finished its in-flight operation.
    DiskDone(u32),
    /// A CPU slice boundary (burst completion or quantum expiry).
    CpuSlice(SliceToken),
    /// CRAS's interval timer fired.
    CrasTick,
    /// A player's next frame is due.
    PlayerFrame(ClientId),
    /// A player retries a frame that was not yet buffered.
    PlayerPoll(ClientId),
    /// A background reader (re)starts its next read.
    BgKick(ClientId),
    /// A background writer's next write call is due.
    BgWrite(ClientId),
    /// The syncer flushes dirty blocks to disk.
    Sync,
    /// The rebuild manager's next paced copy chunk is due. Carries the
    /// rebuild generation that scheduled it, so a pacing event left over
    /// from an aborted rebuild (the replacement volume failed again)
    /// cannot drive a newer rebuild's chunk cursor.
    RebuildStep(u64),
    /// Experiment-driver checkpoint marker; the handler stamps a
    /// [`crate::journal::JournalRecord::Checkpoint`] into the journal.
    Checkpoint(u32),
    /// A delivery link's transmitter finished serializing a packet.
    NetLinkFree(u32),
    /// A copy of delivery packet `pkt` reaches the clients on `link`.
    NetArrive {
        /// Link index.
        link: u32,
        /// Packet id.
        pkt: u64,
    },
    /// A client's NAK for send ordinal `ord` lands server-side.
    NetNak(ClientId, u32),
    /// A delivery session plays (or declares late) send ordinal `ord`.
    NetPlayout(ClientId, u32),
    /// A net-parked stream retries its resume (earlier attempt found no
    /// disk or cache capacity).
    NetRetry(ClientId),
}

impl Event {
    /// Total order used to canonicalize same-tick dispatch.
    ///
    /// Two events due at the same virtual instant may be delivered in
    /// any order by a real kernel; the interleaving fuzzer permutes
    /// them, then sorts by this key before dispatch so observable
    /// behavior is invariant to delivery order. The key is total: no
    /// two distinct live events compare equal (disk completions are
    /// per-volume one-at-a-time, slice tokens are unique, client timers
    /// are per-client exclusive, and rebuild generations are unique).
    pub fn dispatch_key(&self) -> (u8, u64) {
        match *self {
            Event::DiskDone(vol) => (0, vol as u64),
            Event::CpuSlice(tok) => (1, tok.raw()),
            Event::CrasTick => (2, 0),
            Event::PlayerFrame(c) => (3, c.0 as u64),
            Event::PlayerPoll(c) => (4, c.0 as u64),
            Event::BgKick(c) => (5, c.0 as u64),
            Event::BgWrite(c) => (6, c.0 as u64),
            Event::Sync => (7, 0),
            Event::RebuildStep(gen) => (8, gen),
            Event::Checkpoint(seq) => (9, seq as u64),
            Event::NetLinkFree(link) => (10, link as u64),
            // Packet ids are globally unique; a duplicated delivery is
            // two *identical* events, so swapping them is a no-op and
            // the order stays total in the sense the fuzzer needs.
            Event::NetArrive { pkt, .. } => (11, pkt),
            Event::NetNak(c, ord) => (12, ((c.0 as u64) << 32) | ord as u64),
            Event::NetPlayout(c, ord) => (13, ((c.0 as u64) << 32) | ord as u64),
            Event::NetRetry(c) => (14, c.0 as u64),
        }
    }
}

/// Routing tag carried by disk requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskTag {
    /// A CRAS real-time stream read.
    Cras(ReadId),
    /// A synchronous clustered UFS fetch on behalf of the Unix server
    /// (volume, run).
    UfsFetch(u32, FetchRun),
    /// An asynchronous UFS read-ahead run (volume, run).
    UfsReadAhead(u32, FetchRun),
    /// A syncer write-back of dirty blocks (volume, run).
    UfsWriteback(u32, FetchRun),
    /// The read half of a rebuild copy chunk: `(generation, chunk)`,
    /// normal-priority, from the surviving replica. The generation
    /// guards against a completion from an *aborted* rebuild indexing a
    /// newer rebuild's chunk list (the lists differ whenever a second
    /// failure re-plans the copy).
    RebuildRead(u64, u64),
    /// The write half of a rebuild copy chunk: `(generation, chunk)`,
    /// normal-priority, to the replacement volume.
    RebuildWrite(u64, u64),
    /// Raw traffic from calibration or ad-hoc experiments.
    Raw(u64),
}

/// Routing tag carried by CPU bursts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuTag {
    /// The CRAS request-scheduler thread finished its interval pass.
    CrasSched,
    /// A player finished decoding/displaying frame `frame` of its stream.
    PlayerDecode {
        /// The player.
        client: ClientId,
        /// Frame index.
        frame: u32,
    },
    /// A CPU hog finished one busy burst (it immediately re-arms).
    Hog(u32),
}
