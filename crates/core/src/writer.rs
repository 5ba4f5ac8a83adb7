//! Constant-rate *writing* — the paper's §4 extension, implemented.
//!
//! "Although the current version of CRAS has no capability for writing
//! continuous media files at constant rates, it is easy to add it. To
//! limit the size of these modifications, the Unix file system must be
//! modified to allocate data blocks in advance when a file is created or
//! expanded. CRAS can then write continuous media data at constant rates
//! to the allocated blocks via the same algorithm used for retrieving."
//!
//! [`Recorder`] admission-tests write sessions with the same formulas,
//! stages chunks produced by the application, and drains them to
//! pre-allocated extents once per interval as real-time writes.

use std::collections::{BTreeMap, VecDeque};

use cras_disk::calibrate::DiskParams;
use cras_disk::geometry::BlockNo;
use cras_disk::VolumeId;
use cras_media::ChunkTable;
use cras_sim::{Duration, Instant};
use cras_ufs::Extent;

use crate::admission::{Admission, AdmissionError, AdmissionModel, StreamParams, MAX_READ_BYTES};
use crate::placement::{assert_tiles, on_volume, VolumeExtent};
use crate::server::ServerConfig;
use crate::stream::{Stream, StreamId};

/// Identifies one disk write issued by the recorder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WriteId(pub u64);

/// One real-time write for the orchestrator to submit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteReq {
    /// Write id.
    pub id: WriteId,
    /// Owning session.
    pub session: StreamId,
    /// First disk block.
    pub block: BlockNo,
    /// Length in 512-byte blocks.
    pub nblocks: u32,
}

struct WriteSession {
    id: StreamId,
    params: StreamParams,
    /// The pre-allocated extents, on the recorder's one disk.
    extents: Vec<VolumeExtent>,
    /// Bytes written (or staged for writing) so far.
    write_cursor: u64,
    /// Chunks staged by the client, not yet drained to disk.
    staged: VecDeque<(Duration, u32)>,
    staged_bytes: u64,
    /// Completed chunk records, for the final control file.
    recorded: Vec<(Duration, u32)>,
    capacity: u64,
    /// Writes issued and not yet completed.
    inflight: usize,
}

/// The constant-rate recording server.
pub struct Recorder {
    cfg: ServerConfig,
    admission: Admission,
    sessions: BTreeMap<u32, WriteSession>,
    next_session: u32,
    next_write: u64,
}

impl Recorder {
    /// Creates a recorder.
    pub fn new(disk: DiskParams, cfg: ServerConfig) -> Recorder {
        Recorder {
            admission: Admission::new(disk, AdmissionModel::Paper),
            cfg,
            sessions: BTreeMap::new(),
            next_session: 0,
            next_write: 0,
        }
    }

    /// Opens a write session: the caller has pre-allocated `extents`
    /// (via [`cras_ufs::Ufs::preallocate`]) and declares the recording
    /// rate and chunk size; the same admission test applies.
    ///
    /// # Panics
    ///
    /// Panics if `extents` does not tile the file's bytes in order from
    /// offset 0 ([`assert_tiles`]); the write path's lookups rely on it.
    pub fn open_write(
        &mut self,
        rate: f64,
        chunk: f64,
        extents: Vec<Extent>,
    ) -> Result<StreamId, AdmissionError> {
        let extents = on_volume(VolumeId(0), extents);
        let capacity = assert_tiles(&extents, "write session");
        let params = StreamParams::new(rate, chunk);
        let mut all: Vec<StreamParams> = self.sessions.values().map(|s| s.params).collect();
        all.push(params);
        let t = self.cfg.interval.as_secs_f64();
        self.admission.admit(t, &all, self.cfg.buffer_budget)?;
        let id = StreamId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id.0,
            WriteSession {
                id,
                params,
                extents,
                write_cursor: 0,
                staged: VecDeque::new(),
                staged_bytes: 0,
                recorded: Vec::new(),
                capacity,
                inflight: 0,
            },
        );
        Ok(id)
    }

    /// Stages one produced chunk (the application side of the shared
    /// buffer).
    ///
    /// # Panics
    ///
    /// Panics if the pre-allocated space would overflow.
    pub fn stage_chunk(&mut self, id: StreamId, duration: Duration, size: u32) {
        let s = self.sessions.get_mut(&id.0).expect("no such session");
        assert!(
            s.write_cursor + s.staged_bytes + size as u64 <= s.capacity,
            "write session out of pre-allocated space"
        );
        s.staged.push_back((duration, size));
        s.staged_bytes += size as u64;
    }

    /// The per-interval drain: converts staged chunks into real-time
    /// writes against the pre-allocated extents, in cylinder order.
    pub fn interval_tick(&mut self, _now: Instant) -> Vec<WriteReq> {
        let mut reqs = Vec::new();
        let ids: Vec<u32> = self.sessions.keys().copied().collect();
        for sid in ids {
            let (runs, session_id) = {
                let s = self.sessions.get_mut(&sid).expect("iterating keys");
                if s.staged.is_empty() {
                    continue;
                }
                let lo = s.write_cursor;
                let mut hi = lo;
                while let Some((dur, size)) = s.staged.pop_front() {
                    hi += size as u64;
                    s.staged_bytes -= size as u64;
                    s.recorded.push((dur, size));
                }
                s.write_cursor = hi;
                let runs = Stream::runs_in(&s.extents, lo, hi);
                let runs = Stream::split_runs_tagged(runs, MAX_READ_BYTES);
                s.inflight += runs.len();
                (runs, s.id)
            };
            for (_, r) in runs {
                let id = WriteId(self.next_write);
                self.next_write += 1;
                reqs.push(WriteReq {
                    id,
                    session: session_id,
                    block: r.block,
                    nblocks: r.nblocks,
                });
            }
        }
        reqs.sort_by_key(|r| r.block);
        reqs
    }

    /// Records the completion of write `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w`'s session has no write in flight.
    pub fn io_done(&mut self, w: WriteReq) {
        let s = self
            .sessions
            .get_mut(&w.session.0)
            .expect("no such session");
        assert!(s.inflight > 0, "write completion without a write in flight");
        s.inflight -= 1;
    }

    /// Closes the session, returning the control-file chunk table of what
    /// was recorded.
    ///
    /// # Panics
    ///
    /// Panics if writes are still in flight.
    pub fn finalize(&mut self, id: StreamId) -> ChunkTable {
        let s = self.sessions.remove(&id.0).expect("no such session");
        assert_eq!(s.inflight, 0, "finalize with writes still in flight");
        ChunkTable::from_durations_sizes(&s.recorded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }
    fn at(v: u64) -> Instant {
        Instant::ZERO + ms(v)
    }

    fn recorder() -> Recorder {
        Recorder::new(DiskParams::paper_table4(), ServerConfig::default())
    }

    fn extents(bytes: u64) -> Vec<Extent> {
        vec![Extent {
            file_offset: 0,
            disk_block: 50_000,
            nblocks: bytes.div_ceil(512) as u32,
        }]
    }

    #[test]
    fn open_admission_applies() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(1 << 20)).unwrap();
        assert_eq!(id, StreamId(0));
        // A write session beyond disk rate is rejected.
        let err = r.open_write(7.0e6, 6_250.0, extents(1 << 20));
        assert!(err.is_err());
    }

    #[test]
    fn staged_chunks_drain_in_interval_order() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(1 << 20)).unwrap();
        for _ in 0..15 {
            r.stage_chunk(id, ms(33), 6_250);
        }
        let reqs = r.interval_tick(at(0));
        assert!(!reqs.is_empty());
        let bytes: u64 = reqs.iter().map(|w| w.nblocks as u64 * 512).sum();
        // 15 * 6250 = 93 750, rounded up to blocks.
        assert!((93_750..95_000).contains(&bytes), "bytes = {bytes}");
        // Nothing staged => next tick writes nothing.
        assert!(r.interval_tick(at(500)).is_empty());
    }

    #[test]
    fn sequential_writes_advance_through_extent() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(1 << 20)).unwrap();
        r.stage_chunk(id, ms(33), 6_250);
        let w1 = r.interval_tick(at(0));
        r.stage_chunk(id, ms(33), 6_250);
        let w2 = r.interval_tick(at(500));
        let end1 = w1.last().unwrap().block + w1.last().unwrap().nblocks as u64;
        // Second batch begins in the block where the first left off
        // (byte 6250 falls inside block 12).
        assert!(w2[0].block >= end1 - 1);
    }

    #[test]
    fn finalize_returns_control_table() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(1 << 20)).unwrap();
        for _ in 0..30 {
            r.stage_chunk(id, ms(33), 6_250);
        }
        for w in r.interval_tick(at(0)) {
            r.io_done(w);
        }
        let table = r.finalize(id);
        assert_eq!(table.len(), 30);
        assert_eq!(table.total_bytes(), 30 * 6_250);
        assert_eq!(table.get(2).unwrap().timestamp, ms(66));
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn finalize_with_inflight_panics() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(1 << 20)).unwrap();
        r.stage_chunk(id, ms(33), 6_250);
        let _reqs = r.interval_tick(at(0));
        r.finalize(id);
    }

    #[test]
    #[should_panic(expected = "pre-allocated space")]
    fn overflowing_preallocation_panics() {
        let mut r = recorder();
        let id = r.open_write(187_500.0, 6_250.0, extents(10_000)).unwrap();
        r.stage_chunk(id, ms(33), 6_250);
        r.stage_chunk(id, ms(33), 6_250);
    }

    #[test]
    fn writes_split_at_256k() {
        let mut r = recorder();
        let id = r.open_write(1.0e6, 500_000.0, extents(4 << 20)).unwrap();
        r.stage_chunk(id, ms(500), 1_000_000);
        let reqs = r.interval_tick(at(0));
        assert!(reqs.len() >= 4);
        assert!(reqs.iter().all(|w| w.nblocks as u64 * 512 <= 256 * 1024));
    }
}
