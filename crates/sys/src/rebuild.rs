//! Rate-controlled volume rebuild: restoring a replacement volume's
//! contents from the surviving redundancy — a mirror replica (one source
//! read per chunk) or a rotating-parity band (the row's `g-1` surviving
//! data+parity reads, XORed into the recovered unit).
//!
//! The rebuild runs entirely through the *normal-priority* disk queue —
//! the dual-queue driver's strict real-time priority is what lets a
//! rebuild share spindles with admitted streams without threatening
//! their guarantees. The configured rate additionally bounds how much
//! normal-queue bandwidth (Unix-server traffic) the rebuild may consume:
//! one chunk is outstanding at a time, and each completed chunk earns
//! `bytes / rate` of pacing budget before the next may start. The rate
//! may be retuned between chunks ([`RebuildManager::set_rate`]) — the
//! system scales it by observed interval slack, so an idle array
//! rebuilds at the configured cap while a loaded one backs off below it.

use cras_core::{assert_tiles, ParityState, Stream, VolumeExtent};
use cras_disk::VolumeId;
use cras_sim::{Duration, Instant};

/// One source read feeding a rebuild chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrcRead {
    /// Volume holding this piece of surviving data.
    pub vol: u32,
    /// First 512-byte block of the source run.
    pub block: u64,
    /// Run length in 512-byte blocks.
    pub nblocks: u32,
}

/// One rebuild step: read every source, then write `nblocks` recovered
/// blocks to the replacement volume. A mirror copy has exactly one
/// source; a parity reconstruction has up to `g-1` (XORed on
/// completion); a parity unit of an all-absent tail row has none (the
/// recovered bytes are zeros).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RebuildChunk {
    /// The surviving reads this chunk needs (all issued concurrently —
    /// they target distinct spindles).
    pub srcs: Vec<SrcRead>,
    /// Volume being rebuilt.
    pub dst_vol: u32,
    /// First 512-byte block of the destination run.
    pub dst_block: u64,
    /// Run length in 512-byte blocks written to the destination.
    pub nblocks: u32,
}

impl RebuildChunk {
    /// Bytes this chunk recovers (the write side).
    pub fn bytes(&self) -> u64 {
        self.nblocks as u64 * 512
    }
}

/// Plans the chunks that restore `dst_map` (the lost replica's extents
/// on the replacement volume) from `src_map` (the surviving mirror
/// replica, possibly fragmented differently). Chunks are at most
/// `chunk_bytes` long and follow the destination map's logical order, so
/// both the read and the write side stay close to sequential.
///
/// # Panics
///
/// Panics on a chunk under one block or a map that does not tile its
/// file ([`assert_tiles`]).
pub fn plan_chunks(
    src_map: &[VolumeExtent],
    dst_map: &[VolumeExtent],
    chunk_bytes: u64,
) -> Vec<RebuildChunk> {
    assert!(chunk_bytes >= 512, "rebuild chunk under one block");
    assert_tiles(src_map, "rebuild source");
    assert_tiles(dst_map, "rebuild destination");
    let mut chunks = Vec::new();
    for e in dst_map {
        let e_lo = e.extent.file_offset;
        let e_hi = e_lo + e.extent.nblocks as u64 * 512;
        let mut lo = e_lo;
        while lo < e_hi {
            let hi = (lo + chunk_bytes).min(e_hi);
            for (off, run) in Stream::runs_in(src_map, lo, hi) {
                chunks.push(RebuildChunk {
                    srcs: vec![SrcRead {
                        vol: run.volume.0,
                        block: run.block,
                        nblocks: run.nblocks,
                    }],
                    dst_vol: e.volume.0,
                    dst_block: e.extent.disk_block + (off - e_lo) / 512,
                    nblocks: run.nblocks,
                });
            }
            lo = hi;
        }
    }
    chunks
}

/// Plans the reconstruction of volume `vol`'s share of one parity-placed
/// movie onto a replacement: every lost *data* unit is recovered from
/// its row's surviving data+parity units
/// ([`Stream::parity_recon_runs`]), and every lost *parity* unit is
/// re-encoded from the row's data units. Destination runs follow the
/// replacement's file maps (`dst_data`/`dst_parity`, whose file offsets
/// address the volume's data and parity files respectively); each chunk
/// covers at most one stripe unit, so no source set mixes rows.
///
/// # Panics
///
/// Panics if a needed source lands on `vol` itself — impossible under
/// the rotating layout (a row never places two units on one volume),
/// so it would mean the maps disagree with the geometry — or if a map
/// does not tile its file ([`assert_tiles`]).
pub fn plan_parity_recon(
    extents: &[VolumeExtent],
    parity: &ParityState,
    dst_data: &[VolumeExtent],
    dst_parity: &[VolumeExtent],
    vol: u32,
) -> Vec<RebuildChunk> {
    assert_tiles(extents, "data");
    for map in &parity.parity_maps {
        assert_tiles(map, "parity");
    }
    assert_tiles(dst_data, "rebuild data");
    assert_tiles(dst_parity, "rebuild parity");
    let geom = parity.geom;
    let g = geom.group as u64;
    let sb = geom.stripe_bytes;
    let mut chunks = Vec::new();
    let src_reads = |runs: Vec<cras_core::VolumeRun>| -> Vec<SrcRead> {
        runs.into_iter()
            .inspect(|r| assert_ne!(r.volume.0, vol, "source on the volume being rebuilt"))
            .map(|r| SrcRead {
                vol: r.volume.0,
                block: r.block,
                nblocks: r.nblocks,
            })
            .collect()
    };
    // Lost data units, in file order (== unit order on this volume).
    for k in 0..geom.data_units() {
        if geom.data_volume(k).0 != vol {
            continue;
        }
        let idx = geom.data_file_index(k);
        let len = geom.unit_len(k);
        for (off, run) in Stream::runs_in(dst_data, idx * sb, idx * sb + len) {
            let rel_a = off - idx * sb;
            let rel_b = len.min(rel_a + run.nblocks as u64 * 512);
            let srcs = Stream::parity_recon_runs(
                extents,
                parity,
                k * sb + rel_a,
                k * sb + rel_b,
                VolumeId(vol),
                &[],
            )
            .expect("rotating layout keeps survivors off the rebuilt volume");
            chunks.push(RebuildChunk {
                srcs: src_reads(srcs),
                dst_vol: vol,
                dst_block: run.block,
                nblocks: run.nblocks,
            });
        }
    }
    // Lost parity units: re-encode from the row's data units.
    for r in 0..geom.rows() {
        if geom.parity_volume(r).0 != vol {
            continue;
        }
        let pidx = geom.parity_file_index(r);
        for (off, run) in Stream::runs_in(dst_parity, pidx * sb, (pidx + 1) * sb) {
            let rel_a = off - pidx * sb;
            let rel_b = rel_a + run.nblocks as u64 * 512;
            let mut srcs = Vec::new();
            for j in 0..g - 1 {
                let k2 = r * (g - 1) + j;
                if k2 * sb >= geom.total_bytes {
                    continue;
                }
                let len2 = geom.unit_len(k2);
                let (a2, b2) = (rel_a.min(len2), rel_b.min(len2));
                if a2 >= b2 {
                    continue;
                }
                for (_, sr) in Stream::runs_in(extents, k2 * sb + a2, k2 * sb + b2) {
                    assert_ne!(sr.volume.0, vol, "source on the volume being rebuilt");
                    srcs.push(SrcRead {
                        vol: sr.volume.0,
                        block: sr.block,
                        nblocks: sr.nblocks,
                    });
                }
            }
            chunks.push(RebuildChunk {
                srcs,
                dst_vol: vol,
                dst_block: run.block,
                nblocks: run.nblocks,
            });
        }
    }
    chunks
}

/// Paced executor over a planned chunk list. The system issues one chunk
/// at a time (all source reads concurrently, then the write); after each
/// completed chunk the manager names the earliest time the next may
/// start.
#[derive(Clone, Debug)]
pub struct RebuildManager {
    vol: u32,
    generation: u64,
    chunks: Vec<RebuildChunk>,
    next: usize,
    rate: f64,
    started_at: Instant,
    /// Pacing frontier: each completed chunk advances it by
    /// `bytes / rate`; a slow copy snaps it to `now` (no catch-up debt
    /// and no catch-up burst).
    budget_until: Instant,
    copied_bytes: u64,
    /// Source reads still outstanding for the in-flight chunk.
    srcs_left: usize,
}

impl RebuildManager {
    /// Creates a manager rebuilding `vol` at `rate` bytes per second.
    /// `generation` tags every disk request and pacing event this
    /// rebuild issues, so completions from an earlier, aborted rebuild
    /// (whose chunk list may differ) can be recognized and dropped.
    pub fn new(
        vol: u32,
        generation: u64,
        chunks: Vec<RebuildChunk>,
        rate: f64,
        now: Instant,
    ) -> RebuildManager {
        assert!(rate > 0.0, "rebuild rate must be positive");
        RebuildManager {
            vol,
            generation,
            chunks,
            next: 0,
            rate,
            started_at: now,
            budget_until: now,
            copied_bytes: 0,
            srcs_left: 0,
        }
    }

    /// The volume being rebuilt.
    pub fn volume(&self) -> u32 {
        self.vol
    }

    /// The generation tag carried by this rebuild's requests.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current pacing rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Retunes the pacing rate (load-aware pacing). Applies to chunks
    /// completed from now on; budget already earned is kept.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite rate.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rebuild rate must be positive"
        );
        self.rate = rate;
    }

    /// Takes the next chunk to issue, tagged with its index, and arms
    /// the source-read countdown for it.
    pub fn take_next(&mut self) -> Option<(u64, RebuildChunk)> {
        let idx = self.next;
        let c = self.chunks.get(idx).cloned()?;
        self.next += 1;
        self.srcs_left = c.srcs.len();
        Some((idx as u64, c))
    }

    /// The chunk behind a routing-tag index.
    ///
    /// # Panics
    ///
    /// Panics on an index this rebuild never issued. The system only
    /// calls this for completions whose generation tag matches
    /// [`RebuildManager::generation`], and every index issued by
    /// [`RebuildManager::take_next`] within a generation is in range —
    /// an out-of-range index here means a tag-routing bug, not a race.
    pub fn chunk(&self, idx: u64) -> &RebuildChunk {
        self.chunks
            .get(idx as usize)
            .unwrap_or_else(|| panic!("rebuild gen {} has no chunk {idx}", self.generation))
    }

    /// Records one completed source read of the in-flight chunk; `true`
    /// when all sources are in and the recovered bytes may be written.
    ///
    /// # Panics
    ///
    /// Panics if no source read was outstanding.
    pub fn source_done(&mut self) -> bool {
        assert!(self.srcs_left > 0, "no rebuild source read outstanding");
        self.srcs_left -= 1;
        self.srcs_left == 0
    }

    /// Records a completed chunk (write done) and returns when the next
    /// chunk may be issued, or `None` if the rebuild is done.
    pub fn chunk_copied(&mut self, idx: u64, now: Instant) -> Option<Instant> {
        let bytes = self.chunks[idx as usize].bytes();
        self.copied_bytes += bytes;
        // Rate pacing, incremental so the rate may change mid-rebuild:
        // each chunk earns bytes/rate of budget; a slow copy forgives
        // the shortfall rather than banking a catch-up burst.
        self.budget_until += Duration::from_secs_f64(bytes as f64 / self.rate);
        if now > self.budget_until {
            self.budget_until = now;
        }
        if self.next >= self.chunks.len() {
            return None;
        }
        Some(self.budget_until)
    }

    /// Whether every chunk has been copied.
    pub fn done(&self) -> bool {
        self.next >= self.chunks.len() && self.copied_bytes >= self.total_bytes()
    }

    /// Bytes recovered so far.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    /// Total bytes the plan writes to the replacement.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(RebuildChunk::bytes).sum()
    }

    /// When the rebuild started.
    pub fn started_at(&self) -> Instant {
        self.started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_core::{ParityGeometry, PARITY_STRIPE_BYTES};
    use cras_ufs::Extent;

    fn ve(vol: u32, file_offset: u64, disk_block: u64, nblocks: u32) -> VolumeExtent {
        VolumeExtent {
            volume: VolumeId(vol),
            extent: Extent {
                file_offset,
                disk_block,
                nblocks,
            },
        }
    }

    fn copy_chunk(nblocks: u32) -> RebuildChunk {
        RebuildChunk {
            srcs: vec![SrcRead {
                vol: 0,
                block: 0,
                nblocks,
            }],
            dst_vol: 1,
            dst_block: 0,
            nblocks,
        }
    }

    #[test]
    fn plan_covers_destination_bytes_once() {
        let src = vec![ve(0, 0, 1000, 256)];
        let dst = vec![ve(2, 0, 5000, 128), ve(2, 128 * 512, 9000, 128)];
        let chunks = plan_chunks(&src, &dst, 64 * 512);
        let total: u64 = chunks.iter().map(RebuildChunk::bytes).sum();
        assert_eq!(total, 256 * 512);
        assert!(chunks
            .iter()
            .all(|c| c.srcs.len() == 1 && c.srcs[0].vol == 0 && c.dst_vol == 2));
        assert!(chunks.iter().all(|c| c.nblocks <= 64));
        // First chunk reads the start of the source and writes the start
        // of the destination.
        assert_eq!(chunks[0].srcs[0].block, 1000);
        assert_eq!(chunks[0].dst_block, 5000);
        // The second destination extent is addressed at its own blocks.
        assert!(chunks.iter().any(|c| c.dst_block == 9000));
    }

    #[test]
    fn plan_follows_fragmented_source() {
        // Source split at an odd boundary: a destination chunk spanning
        // it becomes two copies.
        let src = vec![ve(1, 0, 100, 48), ve(1, 48 * 512, 700, 80)];
        let dst = vec![ve(3, 0, 2000, 128)];
        let chunks = plan_chunks(&src, &dst, 128 * 512);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].srcs[0].block, 100);
        assert_eq!(chunks[0].nblocks, 48);
        assert_eq!(chunks[1].srcs[0].block, 700);
        assert_eq!(chunks[1].dst_block, 2000 + 48);
    }

    /// A geometry-faithful synthetic parity layout (data file then
    /// parity file, contiguous per volume).
    fn parity_layout(group: u32, total: u64) -> (Vec<VolumeExtent>, ParityState) {
        let geom = ParityGeometry::new(0, group, PARITY_STRIPE_BYTES, total);
        let sb = geom.stripe_bytes;
        let pbase = geom.rows() * (sb / 512);
        let extents = (0..geom.data_units())
            .map(|k| {
                ve(
                    geom.data_volume(k).0,
                    k * sb,
                    geom.data_file_index(k) * (sb / 512),
                    geom.unit_len(k).div_ceil(512) as u32,
                )
            })
            .collect();
        let parity_maps = (0..group)
            .map(|v| {
                let bytes = geom.parity_bytes_on(v);
                if bytes == 0 {
                    return Vec::new();
                }
                vec![ve(v, 0, pbase, (bytes / 512) as u32)]
            })
            .collect();
        (extents, ParityState { geom, parity_maps })
    }

    #[test]
    fn parity_recon_plan_covers_every_lost_byte_with_cross_volume_sources() {
        for group in [2u32, 3, 4] {
            let sb = PARITY_STRIPE_BYTES;
            let total = 11 * sb + 1234;
            let (extents, ps) = parity_layout(group, total);
            let geom = ps.geom;
            for vol in 0..group {
                // The replacement's file maps equal the originals on
                // this volume (fs metadata survives the disk).
                let dst_data: Vec<VolumeExtent> = (0..geom.data_units())
                    .filter(|&k| geom.data_volume(k).0 == vol)
                    .map(|k| {
                        ve(
                            vol,
                            geom.data_file_index(k) * sb,
                            geom.data_file_index(k) * (sb / 512),
                            geom.unit_len(k).div_ceil(512) as u32,
                        )
                    })
                    .collect();
                let dst_parity = ps.parity_maps[vol as usize].clone();
                let chunks = plan_parity_recon(&extents, &ps, &dst_data, &dst_parity, vol);
                // Every chunk writes to the rebuilt volume, reads only
                // from the others, and total writes equal the volume's
                // data+parity footprint (block-rounded).
                let expect: u64 = (0..geom.data_units())
                    .filter(|&k| geom.data_volume(k).0 == vol)
                    .map(|k| geom.unit_len(k).div_ceil(512) * 512)
                    .sum::<u64>()
                    + geom.parity_bytes_on(vol);
                let written: u64 = chunks.iter().map(RebuildChunk::bytes).sum();
                assert_eq!(written, expect, "g={group} vol={vol}");
                for c in &chunks {
                    assert_eq!(c.dst_vol, vol);
                    assert!(c.srcs.iter().all(|s| s.vol != vol));
                    assert!(c.bytes() <= sb);
                    // A full mid-movie unit needs exactly g-1 sources.
                    if c.bytes() == sb {
                        let vols: std::collections::BTreeSet<u32> =
                            c.srcs.iter().map(|s| s.vol).collect();
                        assert_eq!(vols.len(), group as usize - 1, "g={group} vol={vol}");
                    }
                }
            }
        }
    }

    #[test]
    fn pacing_never_exceeds_the_rate() {
        let chunks = vec![copy_chunk(128); 4];
        let t0 = Instant::ZERO;
        // 64 KB/s: each 64 KB chunk earns exactly one second of budget.
        let mut rb = RebuildManager::new(1, 1, chunks, 64.0 * 1024.0, t0);
        let (i0, _) = rb.take_next().unwrap();
        let due = rb.chunk_copied(i0, t0 + Duration::from_millis(5)).unwrap();
        assert_eq!(due, t0 + Duration::from_secs(1));
        let (i1, _) = rb.take_next().unwrap();
        let due = rb.chunk_copied(i1, due + Duration::from_millis(5)).unwrap();
        assert_eq!(due, t0 + Duration::from_secs(2));
        assert!(!rb.done());
    }

    #[test]
    fn slow_disk_does_not_owe_catchup_bursts() {
        let chunks = vec![copy_chunk(128); 2];
        let t0 = Instant::ZERO;
        let mut rb = RebuildManager::new(1, 1, chunks, 64.0 * 1024.0, t0);
        let (i0, _) = rb.take_next().unwrap();
        // The copy itself took longer than the pacing budget: the next
        // chunk is due immediately, not at a past instant.
        let late = t0 + Duration::from_secs(5);
        assert_eq!(rb.chunk_copied(i0, late), Some(late));
    }

    #[test]
    fn rate_retune_applies_to_later_chunks_only() {
        let chunks = vec![copy_chunk(128); 3];
        let t0 = Instant::ZERO;
        let mut rb = RebuildManager::new(1, 1, chunks, 64.0 * 1024.0, t0);
        let (i0, _) = rb.take_next().unwrap();
        assert_eq!(rb.chunk_copied(i0, t0), Some(t0 + Duration::from_secs(1)));
        // Doubling the rate halves the budget earned by the next chunk;
        // the second's budget starts where the first's ended.
        rb.set_rate(128.0 * 1024.0);
        let (i1, _) = rb.take_next().unwrap();
        assert_eq!(
            rb.chunk_copied(i1, t0 + Duration::from_secs(1)),
            Some(t0 + Duration::from_millis(1500))
        );
    }

    #[test]
    fn source_countdown_gates_the_write() {
        let mut c = copy_chunk(8);
        c.srcs = vec![
            SrcRead {
                vol: 0,
                block: 0,
                nblocks: 8,
            },
            SrcRead {
                vol: 2,
                block: 0,
                nblocks: 8,
            },
            SrcRead {
                vol: 3,
                block: 0,
                nblocks: 8,
            },
        ];
        let mut rb = RebuildManager::new(1, 1, vec![c], 1e6, Instant::ZERO);
        let (_, chunk) = rb.take_next().unwrap();
        assert_eq!(chunk.srcs.len(), 3);
        assert!(!rb.source_done());
        assert!(!rb.source_done());
        assert!(rb.source_done(), "third source completes the set");
    }

    #[test]
    fn done_after_last_chunk() {
        let chunks = vec![copy_chunk(8)];
        let mut rb = RebuildManager::new(1, 1, chunks, 1e6, Instant::ZERO);
        let (i, c) = rb.take_next().unwrap();
        assert_eq!(c.bytes(), 8 * 512);
        assert_eq!(rb.chunk_copied(i, Instant::ZERO), None);
        assert!(rb.done());
        assert_eq!(rb.copied_bytes(), 8 * 512);
    }
}
