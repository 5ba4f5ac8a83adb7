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

use std::collections::{BTreeMap, HashMap, VecDeque};

use cras_disk::calibrate::DiskParams;
use cras_disk::geometry::BlockNo;
use cras_media::ChunkTable;
use cras_sim::{Duration, Instant};
use cras_ufs::Extent;

use crate::admission::{Admission, AdmissionError, AdmissionModel, StreamParams, MAX_READ_BYTES};
use crate::server::ServerConfig;
use crate::stream::{DiskRun, StreamId};

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
    extents: Vec<Extent>,
    /// Bytes written (or staged for writing) so far.
    write_cursor: u64,
    /// Chunks staged by the client, not yet drained to disk.
    staged: VecDeque<(Duration, u32)>,
    staged_bytes: u64,
    /// Completed chunk records, for the final control file.
    recorded: Vec<(Duration, u32)>,
    capacity: u64,
}

/// The constant-rate recording server.
pub struct Recorder {
    cfg: ServerConfig,
    admission: Admission,
    sessions: BTreeMap<u32, WriteSession>,
    next_session: u32,
    next_write: u64,
    inflight: HashMap<u64, StreamId>,
    writes_issued: u64,
    bytes_written: u64,
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
            inflight: HashMap::new(),
            writes_issued: 0,
            bytes_written: 0,
        }
    }

    /// Writes issued so far.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }

    /// Bytes drained to disk so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Opens a write session: the caller has pre-allocated `extents`
    /// (via [`cras_ufs::Ufs::preallocate`]) and declares the recording
    /// rate and chunk size; the same admission test applies.
    pub fn open_write(
        &mut self,
        rate: f64,
        chunk: f64,
        extents: Vec<Extent>,
    ) -> Result<StreamId, AdmissionError> {
        let params = StreamParams::new(rate, chunk);
        let mut all: Vec<StreamParams> = self.sessions.values().map(|s| s.params).collect();
        all.push(params);
        let t = self.cfg.interval.as_secs_f64();
        self.admission.admit(t, &all, self.cfg.buffer_budget)?;
        let id = StreamId(self.next_session);
        self.next_session += 1;
        let capacity = extents.iter().map(|e| e.bytes()).sum();
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
                let runs = byte_range_to_runs(&s.extents, lo, hi);
                (split_runs(runs, MAX_READ_BYTES), s.id)
            };
            for r in runs {
                let id = WriteId(self.next_write);
                self.next_write += 1;
                self.inflight.insert(id.0, session_id);
                self.writes_issued += 1;
                self.bytes_written += r.nblocks as u64 * 512;
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

    /// Records a write completion.
    pub fn io_done(&mut self, id: WriteId) {
        self.inflight.remove(&id.0);
    }

    /// Whether any writes are still in flight for the session.
    pub fn has_inflight(&self, id: StreamId) -> bool {
        self.inflight.values().any(|s| *s == id)
    }

    /// Closes the session, returning the control-file chunk table of what
    /// was recorded.
    ///
    /// # Panics
    ///
    /// Panics if writes are still in flight.
    pub fn finalize(&mut self, id: StreamId) -> ChunkTable {
        assert!(
            !self.has_inflight(id),
            "finalize with writes still in flight"
        );
        let s = self.sessions.remove(&id.0).expect("no such session");
        ChunkTable::from_durations_sizes(&s.recorded)
    }
}

/// Maps `[lo, hi)` file bytes onto disk runs through an extent list
/// (free-standing twin of [`crate::stream::Stream::byte_range_to_runs`]).
fn byte_range_to_runs(extents: &[Extent], lo: u64, hi: u64) -> Vec<DiskRun> {
    assert!(lo < hi, "empty byte range");
    let mut runs: Vec<DiskRun> = Vec::new();
    for e in extents {
        let e_lo = e.file_offset;
        let e_hi = e.file_offset + e.bytes();
        let a = lo.max(e_lo);
        let b = hi.min(e_hi);
        if a >= b {
            continue;
        }
        let rel_lo = (a - e_lo) / 512;
        let rel_hi = (b - e_lo).div_ceil(512);
        let block = e.disk_block + rel_lo;
        let nblocks = (rel_hi - rel_lo) as u32;
        match runs.last_mut() {
            Some(last) if last.block + last.nblocks as u64 == block => {
                last.nblocks += nblocks;
            }
            _ => runs.push(DiskRun { block, nblocks }),
        }
    }
    runs
}

/// Splits single-volume runs at the per-command byte cap (the write
/// path's analogue of [`crate::stream::Stream::split_runs`]).
fn split_runs(runs: Vec<DiskRun>, max_bytes: u64) -> Vec<DiskRun> {
    let max_blocks = (max_bytes / 512).max(1) as u32;
    let mut out = Vec::with_capacity(runs.len());
    for r in runs {
        let mut block = r.block;
        let mut left = r.nblocks;
        while left > 0 {
            let take = left.min(max_blocks);
            out.push(DiskRun {
                block,
                nblocks: take,
            });
            block += take as u64;
            left -= take;
        }
    }
    out
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
            r.io_done(w.id);
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
