//! Per-stream server state: chunk table, volume-aware extent map,
//! logical clock, time-driven buffer, and the byte-range → disk-extent
//! mapping.

use cras_disk::geometry::BlockNo;
use cras_disk::VolumeId;
use cras_media::ChunkTable;
use cras_sim::Duration;

use crate::admission::StreamParams;
use crate::clock::LogicalClock;
use crate::placement::{volume_shares, ParityGeometry, VolumeExtent};
use crate::tdbuffer::TimeDrivenBuffer;

/// Identifies an open stream within one CRAS server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u32);

/// How a stream relates to the interval cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacheState {
    /// Normal disk-admitted, disk-fed stream.
    #[default]
    Disk,
    /// Disk-admitted, but currently fed from the interval cache — an
    /// opportunistic bandwidth saving. Disk capacity stays charged, so
    /// an interval break silently reverts the stream to disk reads.
    Served {
        /// Cache bytes reserved for this stream's gap.
        reserved: u64,
    },
    /// Admitted through the cache path: the disk bound was exhausted
    /// and the stream holds zero disk shares. An interval break forces
    /// a disk re-admission test (or stops the stream).
    Admitted {
        /// Cache bytes reserved for this stream's gap.
        reserved: u64,
    },
    /// Deferred admission (DESIGN §16): opened against a memory-resident
    /// hot-title prefix with zero disk shares. The disk share is
    /// reserved only when the prefix drains — reserve-at-drain instead
    /// of reject-at-open.
    Prefix,
    /// Coalesced onto another stream's reads (batched join, DESIGN
    /// §16): the leader's fetched batches are multicast into this
    /// stream's buffer, so it holds zero disk shares and plans no reads
    /// of its own until the join dissolves.
    Joined {
        /// The stream whose reads feed this one.
        leader: u32,
    },
    /// No feed at all: no disk share, no cache window, no join. The
    /// stream was parked, stopped without a disk share, started with no
    /// window to ride, or dissolved from a join with nothing left to
    /// read. A running unfed stream still tries the interval cache each
    /// tick; its first miss re-tests the disk, and
    /// [`CrasServer::resume`](crate::CrasServer::resume) re-runs the
    /// feed ladder for a stopped one.
    Unfed,
}

impl CacheState {
    /// Whether the stream is off the disk path (it plans no reads of its
    /// own): every state but [`CacheState::Disk`].
    pub fn is_cached(self) -> bool {
        !matches!(self, CacheState::Disk)
    }

    /// Whether the stream holds a disk share that the admission test
    /// charges: plain disk streams and cache-*served* ones.
    pub fn holds_disk_share(self) -> bool {
        matches!(self, CacheState::Disk | CacheState::Served { .. })
    }

    /// The cache reservation held by this stream, if any. Prefix and
    /// joined streams hold none: prefix frames are pinned by the cache
    /// manager, not per-stream, and a joined stream reads nothing.
    pub fn reserved(self) -> u64 {
        match self {
            CacheState::Served { reserved } | CacheState::Admitted { reserved } => reserved,
            _ => 0,
        }
    }
}

/// A physically contiguous disk run on an unspecified volume.
///
/// Retained for the single-volume recording path ([`crate::Recorder`]),
/// which always writes to one disk; retrieval uses [`VolumeRun`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskRun {
    /// First 512-byte disk block.
    pub block: BlockNo,
    /// Length in 512-byte blocks.
    pub nblocks: u32,
}

/// A physically contiguous disk run on a specific volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VolumeRun {
    /// The disk this run lives on.
    pub volume: VolumeId,
    /// First 512-byte disk block on that volume.
    pub block: BlockNo,
    /// Length in 512-byte blocks.
    pub nblocks: u32,
}

/// Parity layout state of a stream placed with
/// [`PlacementPolicy::Parity`](crate::PlacementPolicy::Parity): the
/// rotating-parity geometry plus the on-disk extent maps of each band
/// volume's *parity file*. (The data units are mapped by the stream's
/// ordinary [`Stream::extents`], in logical movie order.)
#[derive(Clone, Debug)]
pub struct ParityState {
    /// The rotating-parity layout.
    pub geom: ParityGeometry,
    /// Per band volume (index `v - geom.base`), the extent map of that
    /// volume's parity file. `file_offset` here is the offset within
    /// the *parity file*: row `r`'s unit starts at
    /// `geom.parity_file_index(r) * geom.stripe_bytes`.
    pub parity_maps: Vec<Vec<VolumeExtent>>,
}

/// Server-side state of one open stream.
#[derive(Clone, Debug)]
pub struct Stream {
    /// Stream id.
    pub id: StreamId,
    /// Movie name (diagnostics).
    pub name: String,
    /// The control-file chunk table.
    pub table: ChunkTable,
    /// Extent map resolved at open time — CRAS never touches UFS metadata
    /// during retrieval. Each extent names the volume it lives on.
    pub extents: Vec<VolumeExtent>,
    /// Mirror replica's extent map (same logical bytes on another
    /// volume), when the movie was placed with
    /// [`PlacementPolicy::Mirrored`](crate::PlacementPolicy::Mirrored).
    pub mirror: Option<Vec<VolumeExtent>>,
    /// Rotating-parity layout, when the movie was placed with
    /// [`PlacementPolicy::Parity`](crate::PlacementPolicy::Parity).
    /// Mutually exclusive with `mirror`.
    pub parity: Option<ParityState>,
    /// Admission parameters this stream was admitted with.
    pub params: StreamParams,
    /// Fraction of the stream's bytes on each volume (the admission
    /// test's per-volume rate weights; `[1.0]` for a single-disk movie).
    pub shares: Vec<f64>,
    /// The stream's logical clock.
    pub clock: LogicalClock,
    /// The time-driven shared memory buffer.
    pub buffer: TimeDrivenBuffer,
    /// Media time up to which pre-fetches have been issued
    /// (`T_read_ahead` in Figure 4).
    pub prefetch_cursor: Duration,
    /// Relationship to the interval cache.
    pub cache_state: CacheState,
}

impl Stream {
    /// The per-volume rate weights ([`Stream::shares`]) of a movie
    /// stored at `extents` on a server managing `volumes` disks. Replica
    /// extents are included: a mirrored stream charges the full rate to
    /// each replica volume, and a parity stream charges the worst-case
    /// degraded load (`2/g` per band volume — see
    /// [`ParityGeometry::admission_shares`]).
    pub fn rate_shares(
        extents: &[VolumeExtent],
        mirror: Option<&[VolumeExtent]>,
        parity: Option<&ParityState>,
        volumes: usize,
    ) -> Vec<f64> {
        match (parity, mirror) {
            (Some(p), _) => p.geom.admission_shares(volumes),
            (None, None) => volume_shares(extents, volumes),
            (None, Some(m)) => volume_shares(&[extents, m].concat(), volumes),
        }
    }

    /// The per-volume rate shares the admission test should charge for
    /// this stream: its real shares while it holds a disk share, none
    /// (an empty slice) otherwise. Cache-*served* streams keep their
    /// disk charge — serving them from memory is an opportunistic
    /// saving, not an admission promise.
    pub fn admission_shares(&self) -> &[f64] {
        if self.cache_state.holds_disk_share() {
            &self.shares
        } else {
            &[]
        }
    }

    /// Worst-case read commands this stream issues on one spindle in
    /// one interval: one normally; two for a parity stream, whose
    /// degraded service adds one reconstruction read per surviving
    /// spindle on top of its own unit slice. The admission test charges
    /// command/rotation/seek overheads once per command, not once per
    /// stream, so degraded fan-out cannot overrun an interval that
    /// admitted healthy.
    pub fn spindle_reads(&self) -> u32 {
        if self.parity.is_some() {
            2
        } else {
            1
        }
    }

    /// The stream's replica extent maps: the primary map first, then the
    /// mirror map if the movie is mirrored.
    pub fn replica_maps(&self) -> impl Iterator<Item = &Vec<VolumeExtent>> {
        std::iter::once(&self.extents).chain(self.mirror.iter())
    }

    /// The volume a replica map lives on — the volume of its first
    /// extent. Meaningful for whole-volume maps (round-robin, mirrored);
    /// striped maps span volumes and have no single home.
    pub fn home_volume(map: &[VolumeExtent]) -> VolumeId {
        map.first().map(|ve| ve.volume).unwrap_or(VolumeId(0))
    }

    /// Maps the file byte range `[lo, hi)` through an arbitrary extent
    /// map onto disk-block runs, each tagged with the logical file byte
    /// offset its first block corresponds to (block-aligned). The tags
    /// let a failed read be re-mapped through another replica of the
    /// same logical bytes.
    ///
    /// The map must tile its file's bytes `[0, end)` in order
    /// ([`assert_tiles`](crate::placement::assert_tiles), checked where
    /// maps enter the server): the first overlapping extent is found by
    /// binary search and the walk stops at the first extent starting at
    /// or past `hi`, so a call costs `O(log n + extents touched)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends past the mapped file.
    pub fn runs_in(extents: &[VolumeExtent], lo: u64, hi: u64) -> Vec<(u64, VolumeRun)> {
        assert!(lo < hi, "empty byte range");
        let mapped = extents
            .last()
            .map_or(0, |e| e.extent.file_offset + e.extent.bytes());
        assert!(
            hi <= mapped,
            "byte range beyond extent map: {hi} > {mapped}"
        );
        let first = extents.partition_point(|ve| ve.extent.file_offset + ve.extent.bytes() <= lo);
        let mut runs: Vec<(u64, VolumeRun)> = Vec::new();
        for ve in &extents[first..] {
            let e = &ve.extent;
            let e_lo = e.file_offset;
            if e_lo >= hi {
                break;
            }
            let e_hi = e.file_offset + e.bytes();
            let a = lo.max(e_lo);
            let b = hi.min(e_hi);
            if a >= b {
                continue;
            }
            // Block-align within the extent.
            let rel_lo = (a - e_lo) / 512;
            let rel_hi = (b - e_lo).div_ceil(512);
            let block = e.disk_block + rel_lo;
            let nblocks = (rel_hi - rel_lo) as u32;
            let logical = e_lo + rel_lo * 512;
            match runs.last_mut() {
                Some((_, last))
                    if last.volume == ve.volume && last.block + last.nblocks as u64 == block =>
                {
                    last.nblocks += nblocks;
                }
                _ => runs.push((
                    logical,
                    VolumeRun {
                        volume: ve.volume,
                        block,
                        nblocks,
                    },
                )),
            }
        }
        runs
    }

    /// Maps the file byte range `[lo, hi)` onto disk-block runs through
    /// the primary extent map, merging physically adjacent pieces on the
    /// same volume. Ranges are rounded outward to 512-byte block
    /// boundaries (the device transfers whole blocks).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or extends past the mapped file.
    pub fn byte_range_to_runs(&self, lo: u64, hi: u64) -> Vec<VolumeRun> {
        Stream::runs_in(&self.extents, lo, hi)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Splits tagged runs so that no single disk command exceeds
    /// `max_bytes`, keeping each piece's logical offset tag accurate.
    pub fn split_runs_tagged(runs: Vec<(u64, VolumeRun)>, max_bytes: u64) -> Vec<(u64, VolumeRun)> {
        let max_blocks = (max_bytes / 512).max(1) as u32;
        let mut out = Vec::with_capacity(runs.len());
        for (logical, r) in runs {
            let mut block = r.block;
            let mut off = logical;
            let mut left = r.nblocks;
            while left > 0 {
                let take = left.min(max_blocks);
                out.push((
                    off,
                    VolumeRun {
                        volume: r.volume,
                        block,
                        nblocks: take,
                    },
                ));
                block += take as u64;
                off += take as u64 * 512;
                left -= take;
            }
        }
        out
    }

    /// Splits runs so that no single disk command exceeds `max_bytes`
    /// ("CRAS optimizes throughput by reading ... up to 256K bytes at a
    /// time ... If the size of contiguous blocks is less ... CRAS reads
    /// the smaller blocks instead").
    pub fn split_runs(runs: Vec<VolumeRun>, max_bytes: u64) -> Vec<VolumeRun> {
        Stream::split_runs_tagged(runs.into_iter().map(|r| (0, r)).collect(), max_bytes)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Plans the surviving reads that reconstruct the logical byte range
    /// `[lo, hi)` of a parity-placed movie when the volume holding it
    /// (`exclude`) cannot serve: for every data unit the range touches,
    /// the *same stripe-relative range* of each of the row's `g-2` other
    /// data units plus its parity unit. XORing those buffers yields the
    /// lost bytes ([`cras_disk::xor::reconstruct`]); the simulation
    /// tracks the reads and lets tests verify the byte math separately.
    ///
    /// Sibling units wholly or partly absent (the movie tail) contribute
    /// implicit zeros and are simply not read. Returns `None` if any
    /// required read would itself land on `exclude` or a volume flagged
    /// in `failed` — a second failure in the band, the range is lost.
    pub fn parity_recon_runs(
        extents: &[VolumeExtent],
        parity: &ParityState,
        lo: u64,
        hi: u64,
        exclude: VolumeId,
        failed: &[bool],
    ) -> Option<Vec<VolumeRun>> {
        assert!(lo < hi, "empty byte range");
        let geom = &parity.geom;
        let g = geom.group as u64;
        let sb = geom.stripe_bytes;
        let down = |v: VolumeId| v == exclude || failed.get(v.index()).copied().unwrap_or(false);
        let mut out = Vec::new();
        let mut a = lo;
        while a < hi {
            let k = a / sb;
            let unit_lo = k * sb;
            let unit_len = geom.unit_len(k);
            let b = hi.min(unit_lo + unit_len);
            if b <= a {
                // The planner rounds run ends up to a device block, so a
                // range can extend past the tail unit's last data byte.
                // Those bytes are implicit zeros — nothing to read; skip
                // to the next stripe unit.
                a = unit_lo + sb;
                continue;
            }
            let (rel_lo, rel_hi) = (a - unit_lo, b - unit_lo);
            let row = geom.row_of_unit(k);
            // The row's surviving data units, same relative range.
            for j in 0..g - 1 {
                let k2 = row * (g - 1) + j;
                if k2 == k || k2 * sb >= geom.total_bytes {
                    continue;
                }
                let len2 = geom.unit_len(k2);
                let (rl, rh) = (rel_lo.min(len2), rel_hi.min(len2));
                if rl >= rh {
                    continue;
                }
                for (_, r) in Stream::runs_in(extents, k2 * sb + rl, k2 * sb + rh) {
                    if down(r.volume) {
                        return None;
                    }
                    out.push(r);
                }
            }
            // The row's parity unit, same relative range.
            let pv = geom.parity_volume(row);
            if down(pv) {
                return None;
            }
            let p_lo = geom.parity_file_index(row) * sb + rel_lo;
            let pmap = &parity.parity_maps[(pv.0 - geom.base) as usize];
            for (_, r) in Stream::runs_in(pmap, p_lo, p_lo + (rel_hi - rel_lo)) {
                if down(r.volume) {
                    return None;
                }
                out.push(r);
            }
            a = b;
        }
        Some(out)
    }

    /// Coded-read steering variant of [`Stream::parity_recon_runs`]:
    /// plans the `g-1` fan-out that serves `[lo, hi)` *without
    /// touching* `avoid`, a volume that is live but loaded (DESIGN
    /// §17). The maths are identical to the degraded path — any `g-1`
    /// members of a parity band reconstruct the remaining one — only
    /// the reason for the exclusion differs, so this delegates; it
    /// exists to keep call sites honest about whether a bypass is a
    /// failure response or a scheduling choice. Returns `None` when
    /// the fan-out would itself need `avoid` or a failed volume, in
    /// which case the caller must keep the direct read.
    pub fn steer_recon_runs(
        extents: &[VolumeExtent],
        parity: &ParityState,
        lo: u64,
        hi: u64,
        avoid: VolumeId,
        failed: &[bool],
    ) -> Option<Vec<VolumeRun>> {
        Stream::parity_recon_runs(extents, parity, lo, hi, avoid, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{assert_tiles, on_volume};
    use cras_media::StreamProfile;
    use cras_sim::Rng;
    use cras_ufs::Extent;

    fn stream_with_extents(extents: Vec<VolumeExtent>) -> Stream {
        let mut rng = Rng::new(1);
        let table = cras_media::generate_chunks(&StreamProfile::mpeg1(), 1.0, &mut rng);
        let volumes = extents
            .iter()
            .map(|v| v.volume.index() + 1)
            .max()
            .unwrap_or(1);
        Stream {
            id: StreamId(0),
            name: "t".into(),
            table,
            shares: Stream::rate_shares(&extents, None, None, volumes),
            extents,
            mirror: None,
            parity: None,
            params: StreamParams::new(187_500.0, 6_250.0),
            clock: LogicalClock::new(),
            buffer: TimeDrivenBuffer::new(200_000, Duration::from_millis(100)),
            prefetch_cursor: Duration::ZERO,
            cache_state: CacheState::Disk,
        }
    }

    fn ext(file_offset: u64, disk_block: u64, nblocks: u32) -> Extent {
        Extent {
            file_offset,
            disk_block,
            nblocks,
        }
    }

    fn vrun(volume: u32, block: u64, nblocks: u32) -> VolumeRun {
        VolumeRun {
            volume: VolumeId(volume),
            block,
            nblocks,
        }
    }

    #[test]
    fn single_extent_subrange() {
        let s = stream_with_extents(on_volume(VolumeId(0), vec![ext(0, 1000, 100)])); // 51 200 B.
        let runs = s.byte_range_to_runs(1024, 2048);
        assert_eq!(runs, vec![vrun(0, 1002, 2)]);
    }

    #[test]
    fn unaligned_range_rounds_outward() {
        let s = stream_with_extents(on_volume(VolumeId(0), vec![ext(0, 1000, 100)]));
        let runs = s.byte_range_to_runs(100, 700);
        // Bytes 100..700 live in blocks 0 and 1.
        assert_eq!(runs, vec![vrun(0, 1000, 2)]);
    }

    #[test]
    fn range_spanning_discontiguous_extents() {
        let s = stream_with_extents(on_volume(
            VolumeId(0),
            vec![ext(0, 1000, 16), ext(8192, 5000, 16)],
        ));
        let runs = s.byte_range_to_runs(4096, 12288);
        assert_eq!(runs, vec![vrun(0, 1008, 8), vrun(0, 5000, 8)]);
    }

    #[test]
    fn adjacent_extents_merge() {
        // Extents contiguous on disk merge into one run.
        let s = stream_with_extents(on_volume(
            VolumeId(0),
            vec![ext(0, 1000, 16), ext(8192, 1016, 16)],
        ));
        let runs = s.byte_range_to_runs(0, 16384);
        assert_eq!(runs, vec![vrun(0, 1000, 32)]);
    }

    #[test]
    fn adjacent_blocks_on_different_volumes_do_not_merge() {
        // Same block numbers, different spindles: never one command.
        let mut extents = on_volume(VolumeId(0), vec![ext(0, 1000, 16)]);
        extents.push(VolumeExtent {
            volume: VolumeId(1),
            extent: ext(8192, 1016, 16),
        });
        let s = stream_with_extents(extents);
        let runs = s.byte_range_to_runs(0, 16384);
        assert_eq!(runs, vec![vrun(0, 1000, 16), vrun(1, 1016, 16)]);
    }

    #[test]
    fn striped_shares_split_by_bytes() {
        let mut extents = on_volume(VolumeId(0), vec![ext(0, 1000, 48)]);
        extents.push(VolumeExtent {
            volume: VolumeId(1),
            extent: ext(24576, 2000, 16),
        });
        let s = stream_with_extents(extents);
        assert_eq!(s.shares, vec![0.75, 0.25]);
    }

    #[test]
    fn split_respects_256k() {
        let runs = vec![vrun(0, 0, 1200)];
        let split = Stream::split_runs(runs, 256 * 1024); // 512 blocks.
        assert_eq!(split.len(), 3);
        assert_eq!(split[0].nblocks, 512);
        assert_eq!(split[1].nblocks, 512);
        assert_eq!(split[2].nblocks, 176);
        assert_eq!(split[1].block, 512);
        let total: u32 = split.iter().map(|r| r.nblocks).sum();
        assert_eq!(total, 1200);
    }

    #[test]
    fn split_leaves_small_runs_alone() {
        let runs = vec![vrun(0, 0, 10), vrun(1, 100, 512)];
        let split = Stream::split_runs(runs.clone(), 256 * 1024);
        assert_eq!(split, runs);
    }

    #[test]
    fn tagged_runs_carry_logical_offsets() {
        let extents = on_volume(VolumeId(0), vec![ext(0, 1000, 16), ext(8192, 5000, 16)]);
        let runs = Stream::runs_in(&extents, 4096, 12288);
        assert_eq!(
            runs,
            vec![(4096, vrun(0, 1008, 8)), (8192, vrun(0, 5000, 8))]
        );
        // Splitting preserves tag accuracy piece by piece.
        let split = Stream::split_runs_tagged(runs, 2048); // 4 blocks each.
        assert_eq!(split[0], (4096, vrun(0, 1008, 4)));
        assert_eq!(split[1], (6144, vrun(0, 1012, 4)));
        assert_eq!(split[2], (8192, vrun(0, 5000, 4)));
    }

    #[test]
    fn logical_range_remaps_through_a_differently_fragmented_mirror() {
        // The same logical bytes map through either replica; fragment
        // boundaries differ but total coverage is identical.
        let primary = on_volume(VolumeId(0), vec![ext(0, 1000, 32)]);
        let mirror = on_volume(VolumeId(1), vec![ext(0, 70, 16), ext(8192, 300, 16)]);
        let (lo, hi) = (4096, 12288);
        let p_blocks: u32 = Stream::runs_in(&primary, lo, hi)
            .iter()
            .map(|(_, r)| r.nblocks)
            .sum();
        let m_runs = Stream::runs_in(&mirror, lo, hi);
        let m_blocks: u32 = m_runs.iter().map(|(_, r)| r.nblocks).sum();
        assert_eq!(p_blocks, m_blocks);
        assert!(m_runs.iter().all(|(_, r)| r.volume == VolumeId(1)));
    }

    #[test]
    fn mirrored_stream_shares_charge_both_replicas() {
        let primary = on_volume(VolumeId(0), vec![ext(0, 1000, 64)]);
        let mirror = on_volume(VolumeId(1), vec![ext(0, 4000, 64)]);
        let shares = Stream::rate_shares(&primary, Some(&mirror), None, 2);
        assert_eq!(shares, vec![1.0, 1.0]);
    }

    /// Synthetic parity layout: one contiguous extent per data unit
    /// (volume and in-file position from the geometry), one contiguous
    /// parity file per band volume. Returns the logical data map and
    /// the parity state, plus per-volume "disks" as byte arrays when
    /// `movie` is given, with parity computed by the real XOR codec.
    fn synthetic_parity(
        group: u32,
        total: u64,
        movie: Option<&[u8]>,
    ) -> (Vec<VolumeExtent>, ParityState, Vec<Vec<u8>>) {
        use crate::placement::{ParityGeometry, PARITY_STRIPE_BYTES};
        let sb = PARITY_STRIPE_BYTES;
        let geom = ParityGeometry::new(0, group, sb, total);
        // Per-volume layout: data file at block 0, parity file right
        // after the largest possible data file.
        let pbase = geom.rows() * (sb / 512);
        let disk_bytes = (2 * geom.rows() * sb) as usize;
        let mut disks = vec![Vec::new(); group as usize];
        if movie.is_some() {
            disks = vec![vec![0u8; disk_bytes]; group as usize];
        }
        let mut extents = Vec::new();
        for k in 0..geom.data_units() {
            let v = geom.data_volume(k);
            let len = geom.unit_len(k);
            let disk_block = geom.data_file_index(k) * (sb / 512);
            extents.push(VolumeExtent {
                volume: v,
                extent: Extent {
                    file_offset: k * sb,
                    disk_block,
                    nblocks: len.div_ceil(512) as u32,
                },
            });
            if let Some(m) = movie {
                let at = (disk_block * 512) as usize;
                let src = &m[(k * sb) as usize..(k * sb + len) as usize];
                disks[v.index()][at..at + src.len()].copy_from_slice(src);
            }
        }
        let parity_maps: Vec<Vec<VolumeExtent>> = (0..group)
            .map(|v| {
                let bytes = geom.parity_bytes_on(v);
                if bytes == 0 {
                    return Vec::new();
                }
                vec![VolumeExtent {
                    volume: VolumeId(v),
                    extent: Extent {
                        file_offset: 0,
                        disk_block: pbase,
                        nblocks: (bytes / 512) as u32,
                    },
                }]
            })
            .collect();
        if let Some(m) = movie {
            for r in 0..geom.rows() {
                let units: Vec<&[u8]> = (0..group as u64 - 1)
                    .filter_map(|j| {
                        let k = r * (group as u64 - 1) + j;
                        if k * sb >= total {
                            return None;
                        }
                        Some(&m[(k * sb) as usize..(k * sb + geom.unit_len(k)) as usize])
                    })
                    .collect();
                let p = cras_disk::parity_of(&units, sb as usize);
                let pv = geom.parity_volume(r);
                let at = ((pbase + geom.parity_file_index(r) * (sb / 512)) * 512) as usize;
                disks[pv.index()][at..at + p.len()].copy_from_slice(&p);
            }
        }
        (extents, ParityState { geom, parity_maps }, disks)
    }

    #[test]
    fn parity_stream_shares_charge_worst_case_degraded() {
        let (extents, ps, _) = synthetic_parity(4, 1 << 20, None);
        let shares = Stream::rate_shares(&extents, None, Some(&ps), 4);
        assert_eq!(shares, vec![0.5; 4]);
    }

    #[test]
    fn degraded_parity_reads_are_byte_identical_across_widths_and_fail_points() {
        // Property test: random group sizes, movie lengths, failed
        // volumes and in-unit ranges. Reconstructing from the planned
        // surviving reads with the real XOR codec must reproduce the
        // lost bytes exactly.
        let mut rng = Rng::new(0x9A21);
        for trial in 0..60 {
            let group = rng.range_inclusive(2, 5) as u32;
            let sb = crate::placement::PARITY_STRIPE_BYTES;
            let total = rng.range_inclusive(1, 4 * (group as u64 - 1)) * sb
                - if rng.chance(0.5) {
                    rng.below(sb - 1) + 1
                } else {
                    0
                };
            let movie: Vec<u8> = (0..total).map(|_| rng.below(256) as u8).collect();
            let (extents, ps, disks) = synthetic_parity(group, total, Some(&movie));
            let geom = ps.geom;
            // Pick a random data unit and a random subrange of it.
            let k = rng.below(geom.data_units());
            let fail = geom.data_volume(k);
            let len = geom.unit_len(k);
            let rel_lo = (rng.below(len) / 512) * 512; // block-aligned
            let rel_hi = len.min(rel_lo + 512 + (rng.below(len) / 512) * 512);
            let (lo, hi) = (k * sb + rel_lo, k * sb + rel_hi);
            let failed = vec![false; group as usize];
            let runs = Stream::parity_recon_runs(&extents, &ps, lo, hi, fail, &failed)
                .expect("single failure must be reconstructible");
            assert!(runs.iter().all(|r| r.volume != fail), "trial {trial}");
            // XOR the surviving reads positionally: every read covers
            // the same stripe-relative range (clamped to unit length).
            let span = (rel_hi - rel_lo) as usize;
            let mut acc = vec![0u8; span];
            for r in &runs {
                let at = (r.block * 512) as usize;
                let buf = &disks[r.volume.index()][at..at + r.nblocks as usize * 512];
                cras_disk::xor_into(&mut acc, &buf[..span.min(buf.len())]);
            }
            assert_eq!(
                &acc[..],
                &movie[lo as usize..hi as usize],
                "trial {trial}: g={group} total={total} unit={k} range={rel_lo}..{rel_hi}"
            );
        }
    }

    #[test]
    fn steered_reads_deliver_bytes_identical_to_the_direct_read() {
        // Property test for coded-read steering: with every volume
        // healthy, a fan-out that avoids the home spindle must XOR
        // back to exactly the bytes a direct read would have served.
        let mut rng = Rng::new(0x57EE);
        for trial in 0..60 {
            let group = rng.range_inclusive(2, 5) as u32;
            let sb = crate::placement::PARITY_STRIPE_BYTES;
            let total = rng.range_inclusive(1, 4 * (group as u64 - 1)) * sb
                - if rng.chance(0.5) {
                    rng.below(sb - 1) + 1
                } else {
                    0
                };
            let movie: Vec<u8> = (0..total).map(|_| rng.below(256) as u8).collect();
            let (extents, ps, disks) = synthetic_parity(group, total, Some(&movie));
            let geom = ps.geom;
            let k = rng.below(geom.data_units());
            let home = geom.data_volume(k);
            let len = geom.unit_len(k);
            let rel_lo = (rng.below(len) / 512) * 512; // block-aligned
            let rel_hi = len.min(rel_lo + 512 + (rng.below(len) / 512) * 512);
            let (lo, hi) = (k * sb + rel_lo, k * sb + rel_hi);
            let healthy = vec![false; group as usize];
            let runs = Stream::steer_recon_runs(&extents, &ps, lo, hi, home, &healthy)
                .expect("healthy band must always offer a fan-out");
            assert!(runs.iter().all(|r| r.volume != home), "trial {trial}");
            let span = (rel_hi - rel_lo) as usize;
            let mut acc = vec![0u8; span];
            for r in &runs {
                let at = (r.block * 512) as usize;
                let buf = &disks[r.volume.index()][at..at + r.nblocks as usize * 512];
                cras_disk::xor_into(&mut acc, &buf[..span.min(buf.len())]);
            }
            assert_eq!(
                &acc[..],
                &movie[lo as usize..hi as usize],
                "trial {trial}: g={group} total={total} unit={k} range={rel_lo}..{rel_hi}"
            );
        }
    }

    #[test]
    fn steering_declines_when_the_fanout_would_hit_a_failed_volume() {
        // A dead sibling makes the g−1 fan-out unreconstructible; the
        // planner must keep the direct read instead.
        let (extents, ps, _) = synthetic_parity(4, 20 * 64 * 1024, None);
        let k = 0u64;
        let home = ps.geom.data_volume(k);
        let mut failed = vec![false; 4];
        let other = (0..4).find(|&v| VolumeId(v) != home).unwrap();
        failed[other as usize] = true;
        assert!(Stream::steer_recon_runs(&extents, &ps, 0, 4096, home, &failed).is_none());
    }

    #[test]
    fn two_volume_parity_degrades_to_a_mirror_read() {
        // g = 2: no sibling data units; the "reconstruction" is a single
        // read of the parity unit, which is a byte copy of the data.
        let (extents, ps, _) = synthetic_parity(2, 10 * 64 * 1024, None);
        let runs =
            Stream::parity_recon_runs(&extents, &ps, 0, 64 * 1024, VolumeId(1), &[false, false])
                .unwrap();
        assert_eq!(runs.len(), 1);
        let blocks: u64 = runs.iter().map(|r| r.nblocks as u64).sum();
        assert_eq!(blocks, 64 * 1024 / 512);
    }

    #[test]
    fn second_failure_in_band_is_unreconstructible() {
        let (extents, ps, _) = synthetic_parity(4, 20 * 64 * 1024, None);
        let k = 0u64;
        let fail = ps.geom.data_volume(k);
        let mut failed = vec![false; 4];
        // Fail some *other* volume in the band too.
        let other = (0..4).find(|&v| VolumeId(v) != fail).unwrap();
        failed[other as usize] = true;
        assert!(Stream::parity_recon_runs(&extents, &ps, 0, 4096, fail, &failed).is_none());
    }

    /// `runs_in` as it was before the binary search: sum every extent
    /// for the bound, then walk every extent for the overlap. The
    /// differential test below checks [`Stream::runs_in`] against it.
    fn linear_runs_in(extents: &[VolumeExtent], lo: u64, hi: u64) -> Vec<(u64, VolumeRun)> {
        assert!(lo < hi, "empty byte range");
        let mapped: u64 = extents.iter().map(|e| e.extent.bytes()).sum();
        assert!(hi <= mapped, "byte range beyond extent map");
        let mut runs: Vec<(u64, VolumeRun)> = Vec::new();
        for ve in extents {
            let e = &ve.extent;
            let (e_lo, e_hi) = (e.file_offset, e.file_offset + e.bytes());
            let (a, b) = (lo.max(e_lo), hi.min(e_hi));
            if a >= b {
                continue;
            }
            let rel_lo = (a - e_lo) / 512;
            let rel_hi = (b - e_lo).div_ceil(512);
            let block = e.disk_block + rel_lo;
            let nblocks = (rel_hi - rel_lo) as u32;
            match runs.last_mut() {
                Some((_, last))
                    if last.volume == ve.volume && last.block + last.nblocks as u64 == block =>
                {
                    last.nblocks += nblocks;
                }
                _ => runs.push((
                    e_lo + rel_lo * 512,
                    VolumeRun {
                        volume: ve.volume,
                        block,
                        nblocks,
                    },
                )),
            }
        }
        runs
    }

    /// A random map tiling `[0, end)`: 1–40 extents of 1–64 blocks on
    /// up to four volumes, some physically adjacent to their
    /// predecessor (so runs merge) and some on a fresh spindle or block.
    fn random_tiling_map(rng: &mut Rng) -> Vec<VolumeExtent> {
        let mut map: Vec<VolumeExtent> = Vec::new();
        let mut end = 0u64;
        for _ in 0..rng.range_inclusive(1, 40) {
            let nblocks = rng.range_inclusive(1, 64) as u32;
            let (volume, disk_block) = match map.last() {
                Some(p) if rng.chance(0.3) => {
                    (p.volume, p.extent.disk_block + p.extent.nblocks as u64)
                }
                _ => (VolumeId(rng.below(4) as u32), rng.below(10_000)),
            };
            map.push(VolumeExtent {
                volume,
                extent: ext(end, disk_block, nblocks),
            });
            end += nblocks as u64 * 512;
        }
        map
    }

    #[test]
    fn binary_searched_runs_match_the_linear_scan() {
        let mut rng = Rng::new(0xE47E);
        let (mut tail, mut merged, mut multi) = (0u64, 0u64, 0u64);
        for trial in 0..400 {
            let map = random_tiling_map(&mut rng);
            let end = assert_tiles(&map, "random");
            let last_lo = map.last().unwrap().extent.file_offset;
            for probe in 0..20 {
                // Every fourth range ends in the tail extent, often at
                // the very end of the map.
                let hi = if probe % 4 == 0 {
                    if rng.chance(0.5) {
                        end
                    } else {
                        rng.range_inclusive(last_lo + 1, end)
                    }
                } else {
                    rng.range_inclusive(1, end)
                };
                let lo = rng.below(hi);
                let got = Stream::runs_in(&map, lo, hi);
                assert_eq!(
                    got,
                    linear_runs_in(&map, lo, hi),
                    "trial {trial}: {lo}..{hi}"
                );
                tail += u64::from(hi > last_lo);
                multi += u64::from(got.len() > 1);
                let touched = map
                    .iter()
                    .filter(|ve| {
                        ve.extent.file_offset < hi && lo < ve.extent.file_offset + ve.extent.bytes()
                    })
                    .count();
                merged += u64::from(touched > got.len());
            }
        }
        assert!(
            tail > 0 && merged > 0 && multi > 0,
            "tail {tail}, merged {merged}, multi {multi}"
        );
    }

    #[test]
    #[should_panic(expected = "beyond extent map")]
    fn a_range_past_a_multi_volume_map_panics() {
        let mut rng = Rng::new(0xE47F);
        let map = random_tiling_map(&mut rng);
        let end = assert_tiles(&map, "random");
        let last_lo = map.last().unwrap().extent.file_offset;
        Stream::runs_in(&map, last_lo, end + 1);
    }

    #[test]
    #[should_panic(expected = "beyond extent map")]
    fn out_of_range_panics() {
        let s = stream_with_extents(on_volume(VolumeId(0), vec![ext(0, 1000, 16)]));
        s.byte_range_to_runs(0, 9000);
    }

    #[test]
    #[should_panic(expected = "empty byte range")]
    fn empty_range_panics() {
        let s = stream_with_extents(on_volume(VolumeId(0), vec![ext(0, 1000, 16)]));
        s.byte_range_to_runs(5, 5);
    }
}
