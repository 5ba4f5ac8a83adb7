//! On-disk layout constants and parameters of the FFS-like file system.
//!
//! CRAS "adopts the same disk layout policy as the Unix file system", so
//! both file systems read the same files. The layout matters for the
//! evaluation in two ways:
//!
//! * FFS's *cylinder-group spreading* (`maxbpg`) breaks large files into
//!   extents; the paper's `tunefs` tweak raises the contiguity so CRAS's
//!   256 KB reads stay sequential.
//! * UFS's small block size (8 KB) is why its per-stream throughput is a
//!   fraction of CRAS's: one disk trip per block (plus read-ahead).

use cras_disk::geometry::{BlockNo, DiskGeometry};

/// A file-system block index (not a 512-byte disk block).
pub type FsBlock = u64;

/// An inode number.
pub type Ino = u32;

/// File-system block size in bytes (classic FFS 8 KB).
pub const BSIZE: u32 = 8192;

/// 512-byte disk sectors per file-system block.
pub const SECT_PER_FSBLOCK: u32 = BSIZE / 512;

/// Direct block pointers per inode (classic FFS).
pub(crate) const NDIRECT: usize = 12;

/// Block pointers per indirect block (`BSIZE / 4`).
pub(crate) const NINDIR: usize = (BSIZE / 4) as usize;

/// Parameters chosen at `newfs`/`tunefs` time.
#[derive(Clone, Copy, Debug)]
pub struct MkfsParams {
    /// Cylinders per cylinder group.
    pub cyl_per_group: u32,
    /// Maximum file blocks placed in one cylinder group before the
    /// allocator moves the file to the next group (`tunefs -e`). The
    /// paper's tweak sets this very high so media files are "allocated as
    /// contiguously as possible".
    pub maxbpg: u32,
    /// Buffer-cache capacity in file-system blocks.
    pub cache_blocks: usize,
    /// Read-ahead window in blocks (clustered read-ahead, as in 4.4BSD).
    pub read_ahead: u32,
    /// Maximum physically contiguous blocks transferred per disk command
    /// (`tunefs -a maxcontig`; 8 blocks = 64 KB, which is also where the
    /// admission test's `B_other` comes from).
    pub maxcontig: u32,
}

impl MkfsParams {
    /// A stock-FFS configuration: files spread across groups every
    /// `blocks_per_group / 4` blocks.
    pub fn stock(geom: &DiskGeometry) -> MkfsParams {
        let layout = FsLayout::compute(geom, 16);
        MkfsParams {
            cyl_per_group: 16,
            maxbpg: (layout.blocks_per_group / 4).max(1),
            cache_blocks: 256, // 2 MB of cache on the paper's 32 MB box.
            read_ahead: 7,
            maxcontig: 8,
        }
    }

    /// The paper's `tunefs`-tweaked configuration: blocks "allocated as
    /// contiguously as possible".
    pub fn tuned(geom: &DiskGeometry) -> MkfsParams {
        let mut p = MkfsParams::stock(geom);
        p.maxbpg = u32::MAX;
        p
    }
}

/// Derived geometry of the file system over a given disk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FsLayout {
    /// Total file-system blocks on the disk.
    pub total_blocks: u64,
    /// Cylinder groups.
    pub ngroups: u32,
    /// File-system blocks per group (last group may be short).
    pub blocks_per_group: u32,
}

impl FsLayout {
    /// Computes the layout for a disk with `cyl_per_group` cylinders per
    /// group.
    ///
    /// Groups are sized uniformly in *blocks* from the average cylinder
    /// capacity, which keeps block→group mapping O(1); the zoned disk
    /// means group boundaries only approximate cylinder boundaries, which
    /// is irrelevant to the scheduling behaviour being studied.
    pub(crate) fn compute(geom: &DiskGeometry, cyl_per_group: u32) -> FsLayout {
        assert!(cyl_per_group > 0, "zero cylinders per group");
        let total_blocks = geom.total_blocks() / SECT_PER_FSBLOCK as u64;
        let avg_blocks_per_cyl = total_blocks / geom.cylinders() as u64;
        let blocks_per_group = (avg_blocks_per_cyl * cyl_per_group as u64).max(1) as u32;
        let ngroups = total_blocks.div_ceil(blocks_per_group as u64) as u32;
        FsLayout {
            total_blocks,
            ngroups,
            blocks_per_group,
        }
    }

    /// Group containing a file-system block.
    pub(crate) fn group_of(&self, b: FsBlock) -> u32 {
        (b / self.blocks_per_group as u64) as u32
    }

    /// First block of a group.
    pub(crate) fn group_start(&self, g: u32) -> FsBlock {
        g as u64 * self.blocks_per_group as u64
    }

    /// Number of blocks in group `g` (the last group may be short).
    pub(crate) fn group_len(&self, g: u32) -> u32 {
        let start = self.group_start(g);
        let end = (start + self.blocks_per_group as u64).min(self.total_blocks);
        (end - start) as u32
    }
}

/// Converts a file-system block to its first 512-byte disk block.
pub fn fsblock_to_disk(b: FsBlock) -> BlockNo {
    b * SECT_PER_FSBLOCK as u64
}

/// Maximum file size addressable by the inode structure, in bytes.
pub(crate) fn max_file_size() -> u64 {
    let blocks = NDIRECT as u64 + NINDIR as u64 + (NINDIR as u64 * NINDIR as u64);
    blocks * BSIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_covers_whole_disk() {
        let geom = DiskGeometry::st32550n();
        let l = FsLayout::compute(&geom, 16);
        assert!(l.total_blocks > 200_000, "blocks = {}", l.total_blocks);
        let sum: u64 = (0..l.ngroups).map(|g| l.group_len(g) as u64).sum();
        assert_eq!(sum, l.total_blocks);
    }

    #[test]
    fn group_mapping_roundtrip() {
        let geom = DiskGeometry::st32550n();
        let l = FsLayout::compute(&geom, 16);
        for g in [0, 1, l.ngroups / 2, l.ngroups - 1] {
            let start = l.group_start(g);
            assert_eq!(l.group_of(start), g);
            let last = start + l.group_len(g) as u64 - 1;
            assert_eq!(l.group_of(last), g);
        }
    }

    #[test]
    fn stock_params_spread_files() {
        let geom = DiskGeometry::st32550n();
        let p = MkfsParams::stock(&geom);
        let l = FsLayout::compute(&geom, p.cyl_per_group);
        assert!(p.maxbpg < l.blocks_per_group);
        assert!(MkfsParams::tuned(&geom).maxbpg > l.blocks_per_group);
    }

    #[test]
    fn fsblock_disk_conversion() {
        assert_eq!(fsblock_to_disk(0), 0);
        assert_eq!(fsblock_to_disk(1), 16);
        assert_eq!(fsblock_to_disk(100), 1600);
    }

    #[test]
    fn max_file_size_covers_movies() {
        // Must comfortably exceed the ~100 MB movies in the experiments.
        assert!(max_file_size() > 1 << 30);
    }
}
