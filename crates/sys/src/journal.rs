//! The transition journal: an append-only log of the durable control
//! decisions a [`crate::system::System`] makes — movies recorded,
//! streams admitted/started/stopped, volume failures, rebuild lifecycle.
//!
//! The journal is the crash-recovery contract. Everything else in the
//! system (buffer contents, in-flight I/O, CPU queues) is soft state
//! that a restart regenerates; the journal holds exactly what cannot be
//! re-derived: which streams the operator admitted and where their
//! clocks were anchored. [`crate::system::System::recover`] replays it
//! against a fresh system: the catalog records rebuild an identical
//! placement (recording is a pure function of config seed and record
//! order), the admission records re-open the surviving streams, and the
//! start records let each player resume at its first undelivered frame
//! with a fresh initial delay — zero drops for every durable stream.
//!
//! In the real server this log would be an fsync'd file; in the
//! simulation it is an in-memory vector the experiment harness clones
//! out of the "crashed" instance.

use cras_media::StreamProfile;
use cras_sim::Instant;

/// One durable control-plane decision.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A movie was recorded into the catalog. Replaying these in order
    /// against the same config seed reproduces the placement exactly.
    Recorded {
        /// Movie name.
        name: String,
        /// Stream profile it was generated from.
        profile: StreamProfile,
        /// Length in media seconds.
        secs: f64,
    },
    /// A player passed admission for `movie`.
    Admitted {
        /// Client id the system assigned.
        client: u32,
        /// The movie it plays.
        movie: String,
        /// Frame stride (1 = every frame).
        stride: u32,
    },
    /// A player was admitted *deferred* (DESIGN §16): its movie's whole
    /// prefix was memory-resident, so it holds zero disk shares until
    /// the prefix drains. Recovery must replay it through the deferred
    /// path — the cache is empty after a restart, so the ordinary
    /// admission test could spuriously reject it.
    DeferredAdmitted {
        /// Client id the system assigned.
        client: u32,
        /// The movie it plays.
        movie: String,
        /// Frame stride (1 = every frame).
        stride: u32,
    },
    /// A deferred player's prefix drained and its disk share was
    /// reserved (reserve-at-drain). From here on it recovers exactly
    /// like an ordinarily admitted stream.
    DiskShareReserved {
        /// The client.
        client: u32,
    },
    /// Playback began: the stream's logical clock was anchored so frame
    /// `k` of the stride sequence is due at `playback_start + ts(k)`.
    Started {
        /// The client.
        client: u32,
        /// Real time of media time zero.
        playback_start: Instant,
    },
    /// The client stopped; its stream no longer needs recovery.
    Stopped {
        /// The client.
        client: u32,
    },
    /// A volume was declared (or detected) failed.
    VolumeFailed {
        /// The volume.
        vol: u32,
    },
    /// A replacement was attached and a rebuild began onto `vol`.
    RebuildStarted {
        /// The volume under reconstruction.
        vol: u32,
    },
    /// The rebuild finished; `vol` rejoined admission and steering.
    RebuildFinished {
        /// The restored volume.
        vol: u32,
    },
    /// A delivery link was added (DESIGN §18). Replay re-creates the
    /// links in order, so indices survive recovery. Fault injectors are
    /// harness-level and deliberately not journaled, like the disk
    /// injectors.
    NetLink {
        /// Bandwidth in bytes/second.
        bandwidth: f64,
        /// Propagation delay in nanoseconds.
        latency_ns: u64,
        /// Per-packet overhead in nanoseconds.
        per_packet_ns: u64,
    },
    /// A delivery session was attached for `client` on `link`.
    NetSession {
        /// The client.
        client: u32,
        /// Link index.
        link: u32,
        /// Startup playout delay in nanoseconds.
        playout_delay_ns: u64,
        /// Park the feeding stream above this buffer level.
        high_watermark: u64,
        /// Resume it below this level.
        low_watermark: u64,
        /// Client consumption scale (1.0 = nominal).
        drain_scale: f64,
    },
    /// Multicast fan-out was switched on or off.
    NetMulticast {
        /// The new setting.
        on: bool,
    },
}

/// Append-only transition journal.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    entries: Vec<(Instant, JournalRecord)>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends a record stamped `at`.
    pub fn append(&mut self, at: Instant, rec: JournalRecord) {
        self.entries.push((at, rec));
    }

    /// All records in append order.
    pub fn entries(&self) -> &[(Instant, JournalRecord)] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Timestamp of the newest record.
    pub fn last_time(&self) -> Option<Instant> {
        self.entries.last().map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_preserves_append_order_and_times() {
        let mut j = Journal::new();
        assert!(j.is_empty());
        let t1 = Instant::from_secs_f64(1.0);
        let t2 = Instant::from_secs_f64(2.0);
        j.append(t1, JournalRecord::VolumeFailed { vol: 3 });
        j.append(t2, JournalRecord::RebuildStarted { vol: 3 });
        assert_eq!(j.len(), 2);
        assert_eq!(j.last_time(), Some(t2));
        assert_eq!(j.entries()[0].1, JournalRecord::VolumeFailed { vol: 3 });
    }
}
