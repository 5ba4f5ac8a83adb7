//! Movie-to-volume placement: which disk(s) a stream's data lives on.
//!
//! With one disk the question never arises; with a [`VolumeSet`] the
//! server must decide where new movies go and how much of each admitted
//! stream's bandwidth lands on each spindle. Two policies are modeled:
//!
//! * **Round-robin** (default) — each whole movie lives on one volume,
//!   chosen cyclically. Streams never span disks, so per-volume load is
//!   simply the sum of the rates of the streams placed there. This is
//!   the conservative policy: a single stream can never exceed one
//!   disk's bandwidth, but N volumes admit ~N× the streams.
//! * **Striped** — a movie's data is split into fixed-size stripe
//!   chunks dealt across all volumes, so even a single stream's load
//!   spreads evenly. Stripe chunks must be a multiple of the 8 KB file
//!   system block so stripe boundaries never split an FFS block.
//! * **Mirrored** — each movie is written in full to a primary volume
//!   *and* to a mirror volume. Admission charges the worst case — the
//!   full rate on *both* replicas — so the guarantee survives either
//!   spindle failing; in exchange the interval scheduler may steer each
//!   interval's reads to whichever replica is lighter, and a stream
//!   keeps its deadline through the loss of one volume.
//! * **Parity** — RAID-5-style rotating parity: a movie is dealt across
//!   a *group* of `g` volumes in fixed stripe units; every row of `g-1`
//!   data units gets one XOR parity unit, and the parity volume rotates
//!   row by row so no single spindle becomes the parity hot spot. A
//!   chunk on a failed volume is reconstructed by reading the same
//!   stripe-relative range of the `g-1` surviving data+parity units and
//!   XORing, so one spindle loss is survived at `g/(g-1)`× capacity
//!   instead of Mirrored's 2×. The geometry lives in
//!   [`ParityGeometry`].
//!
//! [`VolumeSet`]: cras_disk::VolumeSet

use cras_disk::VolumeId;
use cras_ufs::Extent;

/// How new movies are assigned to volumes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PlacementPolicy {
    /// Whole movies on one volume each, chosen cyclically.
    #[default]
    RoundRobin,
    /// Movies dealt across all volumes in `stripe_bytes` chunks.
    Striped {
        /// Stripe chunk size in bytes (multiple of the 8 KB FS block).
        stripe_bytes: u64,
    },
    /// Whole movies written twice: to a primary volume and to a mirror
    /// volume (never the same spindle). Needs at least two volumes.
    Mirrored,
    /// Rotating-parity stripe groups of `group` volumes each. The
    /// volume count must be a multiple of `group`; movies are dealt to
    /// bands of `group` contiguous volumes cyclically, laid out per
    /// [`ParityGeometry`]. Survives one spindle loss per band at
    /// `group/(group-1)`× capacity.
    Parity {
        /// Volumes per parity group (≥ 2; 2 degenerates to mirroring).
        group: usize,
    },
}

/// Stripe unit of the parity layout: 64 KB, a multiple of the 8 KB FS
/// block so a stripe unit never splits an FFS block, and small enough
/// that a degraded read of one unit fans out well under the 256 KB
/// transfer cap on each survivor.
pub const PARITY_STRIPE_BYTES: u64 = 64 * 1024;

/// Rotating-parity layout of one movie over a band of `group` volumes.
///
/// Logical data is cut into `stripe_bytes` units; each *row* holds
/// `group - 1` consecutive data units plus one parity unit (the XOR of
/// the row's data units). Row `r`'s parity lives on band volume
/// `r % group`, and the row's data units fill the remaining volumes in
/// ascending order — the classic left-asymmetric RAID-5 rotation, so
/// sequential playback load and parity load both spread evenly.
///
/// Each band volume stores two files per movie: a *data file* holding
/// that volume's data units in row order, and a *parity file* holding
/// its parity units in row order. All the index math here is pure, so
/// the deploy path, the degraded-read planner and the reconstruction
/// rebuild agree on the layout by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityGeometry {
    /// First volume of the band.
    pub base: u32,
    /// Volumes in the band (≥ 2).
    pub group: u32,
    /// Stripe unit size in bytes.
    pub stripe_bytes: u64,
    /// Logical movie length in bytes.
    pub total_bytes: u64,
}

impl ParityGeometry {
    /// Layout for a `total_bytes` movie on the band starting at `base`.
    pub fn new(base: u32, group: u32, stripe_bytes: u64, total_bytes: u64) -> Self {
        assert!(group >= 2, "parity group needs at least 2 volumes");
        assert!(
            stripe_bytes > 0 && stripe_bytes.is_multiple_of(8192),
            "stripe unit must be a positive multiple of the 8 KB FS block"
        );
        Self {
            base,
            group,
            stripe_bytes,
            total_bytes,
        }
    }

    /// Number of data units (`ceil(total / stripe)`).
    pub fn data_units(&self) -> u64 {
        self.total_bytes.div_ceil(self.stripe_bytes)
    }

    /// Number of stripe rows (`ceil(units / (group-1))`).
    pub fn rows(&self) -> u64 {
        self.data_units().div_ceil(self.group as u64 - 1)
    }

    /// Length in bytes of data unit `k` (short for the movie tail).
    pub fn unit_len(&self, k: u64) -> u64 {
        debug_assert!(k < self.data_units());
        self.stripe_bytes
            .min(self.total_bytes - k * self.stripe_bytes)
    }

    /// Stripe row containing data unit `k`.
    pub fn row_of_unit(&self, k: u64) -> u64 {
        k / (self.group as u64 - 1)
    }

    /// Band volume holding row `r`'s parity unit.
    pub fn parity_volume(&self, r: u64) -> VolumeId {
        VolumeId(self.base + (r % self.group as u64) as u32)
    }

    /// Band volume holding data unit `k`: the `k % (g-1)`-th non-parity
    /// volume of its row, in ascending volume order.
    pub fn data_volume(&self, k: u64) -> VolumeId {
        let g = self.group as u64;
        let j = k % (g - 1);
        let p = self.row_of_unit(k) % g;
        VolumeId(self.base + (if j < p { j } else { j + 1 }) as u32)
    }

    /// Rows before `r` whose parity lands on band-relative volume `v`
    /// (`(r + g - 1 - v) / g` — one every `g` rows, phase `v`).
    fn parity_rows_before(&self, v: u32, r: u64) -> u64 {
        let g = self.group as u64;
        (r + g - 1 - v as u64) / g
    }

    /// Index of data unit `k` within its volume's data file (the unit
    /// starts at `data_file_index(k) * stripe_bytes` in that file).
    pub fn data_file_index(&self, k: u64) -> u64 {
        let r = self.row_of_unit(k);
        let v = self.data_volume(k).0 - self.base;
        // One data unit per row on every non-parity volume: count the
        // earlier rows in which `v` was not the parity volume.
        r - self.parity_rows_before(v, r)
    }

    /// Index of row `r`'s parity unit within its volume's parity file.
    pub fn parity_file_index(&self, r: u64) -> u64 {
        r / self.group as u64
    }

    /// Data bytes stored on band-relative volume `v` (sum of its units'
    /// true lengths — the size of the volume's data file).
    pub fn data_bytes_on(&self, v: u32) -> u64 {
        (0..self.data_units())
            .filter(|&k| self.data_volume(k).0 - self.base == v)
            .map(|k| self.unit_len(k))
            .sum()
    }

    /// Parity bytes stored on band-relative volume `v` (full stripe
    /// units — the size of the volume's parity file).
    pub fn parity_bytes_on(&self, v: u32) -> u64 {
        self.parity_rows_before(v, self.rows()) * self.stripe_bytes
    }

    /// Worst-case per-volume rate shares for admission over `volumes`
    /// total disks. Healthy, a parity stream loads each band spindle
    /// `1/g` of its rate; degraded, every read of a unit on the dead
    /// spindle adds one same-sized read on *each* survivor, doubling
    /// their load. Admission therefore charges `2/g` on every band
    /// volume so streams admitted healthy still meet deadlines
    /// degraded. At `g = 2` this is 1.0 per volume — exactly the
    /// Mirrored worst case, as it must be (2-volume parity *is*
    /// mirroring).
    pub fn admission_shares(&self, volumes: usize) -> Vec<f64> {
        let mut shares = vec![0.0; volumes];
        let worst = 2.0 / self.group as f64;
        for v in self.base..self.base + self.group {
            shares[v as usize] = worst.min(1.0);
        }
        shares
    }
}

/// A contiguous on-disk extent on a specific volume.
///
/// The volume-aware analogue of [`Extent`]: `extent.file_offset` is the
/// offset within the *logical movie file*, while `extent.disk_block`
/// addresses blocks on `volume` only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeExtent {
    /// The disk holding this extent.
    pub volume: VolumeId,
    /// The extent itself (file offset, disk block, length).
    pub extent: Extent,
}

/// Wraps a single-volume extent map onto `volume` (the N=1 case and the
/// round-robin case, where a whole movie lives on one disk).
pub fn on_volume(volume: VolumeId, extents: Vec<Extent>) -> Vec<VolumeExtent> {
    extents
        .into_iter()
        .map(|extent| VolumeExtent { volume, extent })
        .collect()
}

/// Fraction of a movie's *logical* bytes on each of `volumes` disks.
///
/// This is the weight vector the per-volume admission test scales each
/// stream's rate by: a whole-volume movie contributes `1.0` to its home
/// disk, a striped movie close to `1/N` everywhere, and a mirrored
/// movie `1.0` to *each* replica volume (shares sum to the replication
/// factor, not to one — admission must charge the worst-case copy on
/// every spindle that may have to serve the stream alone).
///
/// The denominator is the union of the extents' logical file ranges,
/// not the sum of their on-disk bytes: replica extents cover the same
/// logical bytes twice, and dividing by the summed footprint would
/// undercount each replica's load by the replication factor. For
/// non-replicated maps (disjoint logical ranges) the union equals the
/// sum, so round-robin and striped shares are bitwise unchanged.
pub fn volume_shares(extents: &[VolumeExtent], volumes: usize) -> Vec<f64> {
    let mut bytes = vec![0u64; volumes];
    let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(extents.len());
    for ve in extents {
        let len = ve.extent.nblocks as u64 * 512;
        bytes[ve.volume.index()] += len;
        ranges.push((ve.extent.file_offset, ve.extent.file_offset + len));
    }
    ranges.sort_unstable();
    let mut total = 0u64;
    let mut end = 0u64;
    let mut start_new = true;
    for (lo, hi) in ranges {
        if start_new || lo > end {
            total += hi - lo;
            end = hi;
            start_new = false;
        } else if hi > end {
            total += hi - end;
            end = hi;
        }
    }
    if total == 0 {
        // An empty extent map is charged wholly to volume 0 so its rate
        // is never dropped from the admission test.
        let mut shares = vec![0.0; volumes];
        shares[0] = 1.0;
        return shares;
    }
    bytes
        .into_iter()
        .map(|b| {
            if b == total {
                1.0
            } else {
                b as f64 / total as f64
            }
        })
        .collect()
}

/// Asserts that `map` tiles its file's logical bytes `[0, end)` in
/// order: the first extent starts at offset 0 and each next one starts
/// where the previous one ends. Returns `end` (0 for an empty map).
///
/// [`Stream::runs_in`](crate::Stream::runs_in) binary-searches a map and
/// bounds a range by its last extent's end, which is exact only for a
/// tiling map; maps are checked once, where they enter the server
/// ([`CrasServer::open`](crate::CrasServer::open)) or a rebuild plan.
///
/// # Panics
///
/// Panics, naming `what` and the offending extent, if the map has a gap
/// or an overlap.
pub fn assert_tiles(map: &[VolumeExtent], what: &str) -> u64 {
    let mut end = 0u64;
    for (i, ve) in map.iter().enumerate() {
        assert!(
            ve.extent.file_offset == end,
            "{what} extent map does not tile its file: extent {i} starts at {}, expected {end}",
            ve.extent.file_offset
        );
        end += ve.extent.bytes();
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_maps_pass_and_report_their_end() {
        assert_eq!(assert_tiles(&[], "empty"), 0);
        let ves = on_volume(VolumeId(0), vec![ext(0, 100, 16), ext(8192, 900, 4)]);
        assert_eq!(assert_tiles(&ves, "t"), 8192 + 2048);
    }

    #[test]
    #[should_panic(expected = "does not tile its file: extent 1 starts at 9000")]
    fn a_gap_in_a_map_panics() {
        let ves = on_volume(VolumeId(0), vec![ext(0, 100, 16), ext(9000, 900, 4)]);
        assert_tiles(&ves, "t");
    }

    #[test]
    #[should_panic(expected = "extent 0 starts at 512")]
    fn a_map_not_starting_at_zero_panics() {
        assert_tiles(&on_volume(VolumeId(0), vec![ext(512, 100, 16)]), "t");
    }

    fn ext(file_offset: u64, disk_block: u64, nblocks: u32) -> Extent {
        Extent {
            file_offset,
            disk_block,
            nblocks,
        }
    }

    #[test]
    fn on_volume_preserves_extents() {
        let ves = on_volume(VolumeId(2), vec![ext(0, 100, 16), ext(8192, 900, 16)]);
        assert_eq!(ves.len(), 2);
        assert!(ves.iter().all(|v| v.volume == VolumeId(2)));
        assert_eq!(ves[1].extent.disk_block, 900);
    }

    #[test]
    fn shares_of_whole_volume_movie_are_exactly_one() {
        let ves = on_volume(VolumeId(1), vec![ext(0, 0, 1000)]);
        let shares = volume_shares(&ves, 3);
        // Bitwise 1.0 matters: it keeps N=1 admission identical to the
        // single-disk test (rate * 1.0 == rate).
        assert_eq!(shares, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn shares_of_even_stripe_are_half_each() {
        let mut ves = on_volume(VolumeId(0), vec![ext(0, 0, 128)]);
        ves.extend(on_volume(VolumeId(1), vec![ext(65536, 0, 128)]));
        assert_eq!(volume_shares(&ves, 2), vec![0.5, 0.5]);
    }

    #[test]
    fn mirrored_shares_charge_each_replica_in_full() {
        // The same logical bytes live on volume 0 and volume 2: each
        // replica volume must be charged the full rate (worst case: the
        // other replica is gone), so shares are exactly 1.0 twice.
        let mut ves = on_volume(VolumeId(0), vec![ext(0, 0, 1000)]);
        ves.extend(on_volume(VolumeId(2), vec![ext(0, 5000, 1000)]));
        let shares = volume_shares(&ves, 3);
        assert_eq!(shares, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn mirrored_shares_with_fragmented_replicas() {
        // Replicas may fragment differently; each still covers the
        // whole file, so each volume's share is still exactly 1.0.
        let mut ves = on_volume(VolumeId(1), vec![ext(0, 0, 128), ext(65536, 900, 128)]);
        ves.extend(on_volume(VolumeId(3), vec![ext(0, 77, 256)]));
        let shares = volume_shares(&ves, 4);
        assert_eq!(shares, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn parity_rotation_is_a_permutation_per_row() {
        // Every row must use each band volume exactly once: g-1 data
        // units on distinct volumes, none of them the parity volume.
        for group in [2u32, 3, 4, 5] {
            let g = group as u64;
            let geom = ParityGeometry::new(4, group, PARITY_STRIPE_BYTES, 50 * PARITY_STRIPE_BYTES);
            for r in 0..geom.rows() {
                let p = geom.parity_volume(r);
                assert!(p.0 >= 4 && p.0 < 4 + group);
                let mut seen = vec![false; group as usize];
                seen[(p.0 - 4) as usize] = true;
                for j in 0..g - 1 {
                    let k = r * (g - 1) + j;
                    if k >= geom.data_units() {
                        break;
                    }
                    let v = (geom.data_volume(k).0 - 4) as usize;
                    assert!(!seen[v], "g={group} row {r}: volume reused");
                    seen[v] = true;
                }
            }
        }
    }

    #[test]
    fn parity_file_indices_are_dense_per_volume() {
        // Walking units in logical order, each volume's data-file index
        // sequence must be 0, 1, 2, ... with no gaps, and likewise each
        // volume's parity-file indices — the deploy path sizes the files
        // from exactly these counts.
        for group in [2u32, 3, 4] {
            let geom =
                ParityGeometry::new(0, group, PARITY_STRIPE_BYTES, 41 * PARITY_STRIPE_BYTES + 7);
            let mut next_data = vec![0u64; group as usize];
            for k in 0..geom.data_units() {
                let v = geom.data_volume(k).0 as usize;
                assert_eq!(geom.data_file_index(k), next_data[v], "g={group} unit {k}");
                next_data[v] += 1;
            }
            let mut next_parity = vec![0u64; group as usize];
            for r in 0..geom.rows() {
                let v = geom.parity_volume(r).0 as usize;
                assert_eq!(
                    geom.parity_file_index(r),
                    next_parity[v],
                    "g={group} row {r}"
                );
                next_parity[v] += 1;
            }
            for v in 0..group {
                assert_eq!(
                    next_data[v as usize] * PARITY_STRIPE_BYTES
                        - if geom.data_volume(geom.data_units() - 1).0 == v {
                            PARITY_STRIPE_BYTES - geom.unit_len(geom.data_units() - 1)
                        } else {
                            0
                        },
                    geom.data_bytes_on(v)
                );
                assert_eq!(
                    next_parity[v as usize] * PARITY_STRIPE_BYTES,
                    geom.parity_bytes_on(v)
                );
            }
        }
    }

    #[test]
    fn parity_capacity_overhead_is_g_over_g_minus_one() {
        for group in [2u32, 3, 4, 8] {
            // 420 units divides evenly by every g-1 here, so no partial
            // last row inflates the parity count.
            let geom =
                ParityGeometry::new(0, group, PARITY_STRIPE_BYTES, 420 * PARITY_STRIPE_BYTES);
            let data: u64 = (0..group).map(|v| geom.data_bytes_on(v)).sum();
            let parity: u64 = (0..group).map(|v| geom.parity_bytes_on(v)).sum();
            assert_eq!(data, geom.total_bytes);
            let overhead = (data + parity) as f64 / data as f64;
            let expect = group as f64 / (group - 1) as f64;
            assert!(
                (overhead - expect).abs() < 1e-9,
                "g={group}: overhead {overhead} != {expect}"
            );
        }
    }

    #[test]
    fn parity_admission_shares_are_two_over_g_and_match_mirrored_at_two() {
        let geom = ParityGeometry::new(2, 4, PARITY_STRIPE_BYTES, 1 << 20);
        assert_eq!(
            geom.admission_shares(8),
            vec![0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.0]
        );
        // g = 2 parity is mirroring: worst case charges the full rate on
        // both volumes, exactly like `volume_shares` on a mirrored map.
        let two = ParityGeometry::new(0, 2, PARITY_STRIPE_BYTES, 1 << 20);
        assert_eq!(two.admission_shares(2), vec![1.0, 1.0]);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut ves = on_volume(VolumeId(0), vec![ext(0, 0, 48)]);
        ves.extend(on_volume(VolumeId(1), vec![ext(48 * 512, 0, 112)]));
        ves.extend(on_volume(VolumeId(2), vec![ext(160 * 512, 0, 96)]));
        let shares = volume_shares(&ves, 3);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(shares[1] > shares[2] && shares[2] > shares[0]);
    }
}
