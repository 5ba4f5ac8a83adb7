//! Inodes: the classic FFS direct / single-indirect / double-indirect
//! block map.
//!
//! The map matters to the evaluation because *reading it costs disk I/O*:
//! the first access to an indirect region fetches the indirect block
//! through the buffer cache. CRAS avoids that steady-state cost by
//! resolving a file's full extent map once at `crs_open` time.
//!
//! Files only grow at their end, so the map is dense: one vector of data
//! blocks in file order and one of table blocks in the order they were
//! mapped. Which tables a lookup passes through follows from the block
//! index alone.

use crate::layout::{FsBlock, Ino, BSIZE, NDIRECT, NINDIR};

/// Which physical blocks must be read to reach a file block: zero, one or
/// two metadata blocks, then the data block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BmapPath {
    meta: [FsBlock; 2],
    nmeta: usize,
    /// The data block.
    pub data: FsBlock,
}

impl BmapPath {
    /// Metadata (indirect) blocks on the path, outermost first.
    pub(crate) fn meta(&self) -> &[FsBlock] {
        &self.meta[..self.nmeta]
    }
}

/// An in-memory inode.
#[derive(Clone, Debug)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// File length in bytes.
    pub size: u64,
    /// `data[fb]` is file block `fb`.
    data: Vec<FsBlock>,
    /// Table blocks: the single-indirect table, then the double-indirect
    /// root, then each second-level table in file order.
    tables: Vec<FsBlock>,
    /// Allocator state: cylinder group the file is currently filling and
    /// how many blocks it has placed there (for `maxbpg`).
    pub(crate) alloc_group: Option<u32>,
    pub(crate) blocks_in_group: u32,
}

impl Inode {
    /// Creates an empty inode.
    pub(crate) fn new(ino: Ino) -> Inode {
        Inode {
            ino,
            size: 0,
            data: Vec::new(),
            tables: Vec::new(),
            alloc_group: None,
            blocks_in_group: 0,
        }
    }

    /// Number of data blocks implied by `size`.
    pub fn nblocks(&self) -> u64 {
        self.size.div_ceil(BSIZE as u64)
    }

    /// Looks up file block `fb`, returning the metadata path and the data
    /// block, or `None` for an unmapped block.
    pub fn bmap(&self, fb: u64) -> Option<BmapPath> {
        let data = *self.data.get(fb as usize)?;
        let (meta, nmeta) = if fb < NDIRECT as u64 {
            ([0; 2], 0)
        } else if fb < (NDIRECT + NINDIR) as u64 {
            ([self.tables[0], 0], 1)
        } else {
            let l1 = (fb - (NDIRECT + NINDIR) as u64) / NINDIR as u64;
            ([self.tables[1], self.tables[2 + l1 as usize]], 2)
        };
        Some(BmapPath { meta, nmeta, data })
    }

    /// Metadata blocks the *next* append at file block `fb` would need to
    /// allocate (0, 1 or 2 table blocks): the single-indirect table at
    /// its first block, the double-indirect root and a second-level table
    /// at the double-indirect region's first block, and another
    /// second-level table at each `NINDIR` boundary after it.
    pub(crate) fn meta_blocks_needed(&self, fb: u64) -> usize {
        let Some(dind) = fb.checked_sub((NDIRECT + NINDIR) as u64) else {
            return usize::from(fb == NDIRECT as u64);
        };
        usize::from(dind == 0) + usize::from(dind % NINDIR as u64 == 0)
    }

    /// Maps file block `fb`, the next unmapped one, consuming metadata
    /// table blocks from `meta` as needed (caller allocates them via
    /// [`Inode::meta_blocks_needed`]). Two tables at once (the
    /// double-indirect edge) are popped root first.
    ///
    /// # Panics
    ///
    /// Panics if `fb` is already mapped or is not the next unmapped
    /// block, if it is beyond the double-indirect range, or if a required
    /// metadata block was not supplied.
    pub(crate) fn set_bmap(&mut self, fb: u64, data: FsBlock, meta: &mut Vec<FsBlock>) {
        let next = self.data.len() as u64;
        assert!(fb >= next, "remapping block {fb}");
        assert!(fb == next, "mapping block {fb} skips block {next}");
        assert!(
            fb < (NDIRECT + NINDIR + NINDIR * NINDIR) as u64,
            "file block {fb} beyond double-indirect range"
        );
        for _ in 0..self.meta_blocks_needed(fb) {
            self.tables
                .push(meta.pop().expect("missing indirect table block"));
        }
        self.data.push(data);
    }

    /// Makes room in the block map for `n` more data blocks.
    pub(crate) fn reserve_blocks(&mut self, n: usize) {
        self.data.reserve(n);
    }

    /// Data blocks in file order, up to [`Inode::nblocks`].
    pub(crate) fn data_blocks(&self) -> &[FsBlock] {
        &self.data[..self.data.len().min(self.nblocks() as usize)]
    }

    /// All metadata (indirect-table) blocks owned by this inode.
    pub(crate) fn meta_blocks(&self) -> &[FsBlock] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_n(inode: &mut Inode, n: u64) {
        // Map file blocks 0..n to physical blocks 1000+fb, allocating
        // metadata from a counter at 900000.
        let mut next_meta = 900_000u64;
        for fb in 0..n {
            let needed = inode.meta_blocks_needed(fb);
            let mut meta: Vec<FsBlock> = (0..needed)
                .map(|_| {
                    next_meta += 1;
                    next_meta
                })
                .collect();
            inode.set_bmap(fb, 1000 + fb, &mut meta);
            assert!(meta.is_empty(), "unused metadata block");
        }
        inode.size = n * BSIZE as u64;
    }

    #[test]
    fn direct_blocks_have_no_metadata() {
        let mut i = Inode::new(1);
        map_n(&mut i, 12);
        for fb in 0..12 {
            let p = i.bmap(fb).unwrap();
            assert!(p.meta().is_empty());
            assert_eq!(p.data, 1000 + fb);
        }
        assert!(i.meta_blocks().is_empty());
    }

    #[test]
    fn single_indirect_region() {
        let mut i = Inode::new(1);
        map_n(&mut i, NDIRECT as u64 + 5);
        let p = i.bmap(NDIRECT as u64 + 3).unwrap();
        assert_eq!(p.meta().len(), 1);
        assert_eq!(p.data, 1000 + NDIRECT as u64 + 3);
        assert_eq!(i.meta_blocks().len(), 1);
    }

    #[test]
    fn double_indirect_region() {
        let mut i = Inode::new(1);
        let fb = NDIRECT as u64 + NINDIR as u64 + 10;
        map_n(&mut i, fb + 1);
        let p = i.bmap(fb).unwrap();
        assert_eq!(p.meta().len(), 2);
        // Metadata: 1 single-indirect + dindirect root + 1 L2 table.
        assert_eq!(i.meta_blocks().len(), 3);
    }

    #[test]
    fn bmap_out_of_range_is_none() {
        let mut i = Inode::new(1);
        map_n(&mut i, 4);
        assert!(i.bmap(4).is_none());
        assert!(i.bmap(1 << 40).is_none());
    }

    #[test]
    fn nblocks_rounds_up() {
        let mut i = Inode::new(1);
        i.size = 1;
        assert_eq!(i.nblocks(), 1);
        i.size = BSIZE as u64;
        assert_eq!(i.nblocks(), 1);
        i.size = BSIZE as u64 + 1;
        assert_eq!(i.nblocks(), 2);
    }

    #[test]
    fn data_blocks_in_order() {
        let mut i = Inode::new(1);
        map_n(&mut i, 20);
        let blocks = i.data_blocks();
        assert_eq!(blocks.len(), 20);
        assert_eq!(blocks[0], 1000);
        assert_eq!(blocks[19], 1019);
    }

    #[test]
    #[should_panic(expected = "remapping")]
    fn double_map_panics() {
        let mut i = Inode::new(1);
        let mut none = Vec::new();
        i.set_bmap(0, 5, &mut none);
        i.set_bmap(0, 6, &mut none);
    }

    #[test]
    #[should_panic(expected = "skips block 1")]
    fn skipping_a_block_panics() {
        let mut i = Inode::new(1);
        let mut none = Vec::new();
        i.set_bmap(0, 5, &mut none);
        i.set_bmap(2, 6, &mut none);
    }

    #[test]
    fn table_blocks_keep_their_roles() {
        // Through the double-indirect edge and the next `NINDIR`
        // boundary: the single-indirect table, the root, L2 tables 0 and 1.
        let mut i = Inode::new(1);
        let dind_start = (NDIRECT + NINDIR) as u64;
        let end = dind_start + NINDIR as u64 + 1;
        let mut next_meta = 900_000u64;
        let mut supplied = Vec::new();
        for fb in 0..end {
            let mut meta: Vec<FsBlock> = (0..i.meta_blocks_needed(fb))
                .map(|_| {
                    next_meta += 1;
                    next_meta
                })
                .collect();
            supplied.push(meta.clone());
            i.set_bmap(fb, 1000 + fb, &mut meta);
            assert!(meta.is_empty(), "unused metadata block at {fb}");
        }
        i.size = end * BSIZE as u64;
        let (ind, l2_0, root, l2_1) = (900_001, 900_002, 900_003, 900_004);
        // The two blocks supplied at the edge: the root is the second.
        assert_eq!(supplied[dind_start as usize], vec![l2_0, root]);
        assert_eq!(i.meta_blocks(), [ind, root, l2_0, l2_1]);
        for fb in 0..end {
            let want: &[FsBlock] = if fb < NDIRECT as u64 {
                &[]
            } else if fb < dind_start {
                &[ind]
            } else if fb < dind_start + NINDIR as u64 {
                &[root, l2_0]
            } else {
                &[root, l2_1]
            };
            let p = i.bmap(fb).unwrap();
            assert_eq!((p.meta(), p.data), (want, 1000 + fb), "block {fb}");
        }
    }

    #[test]
    fn meta_needed_transitions() {
        let mut i = Inode::new(1);
        assert_eq!(i.meta_blocks_needed(0), 0);
        assert_eq!(i.meta_blocks_needed(NDIRECT as u64), 1);
        let dind_start = (NDIRECT + NINDIR) as u64;
        assert_eq!(i.meta_blocks_needed(dind_start), 2);
        map_n(&mut i, dind_start + 1);
        // Tables now exist.
        assert_eq!(i.meta_blocks_needed(dind_start + 1), 0);
        // A new L2 table is needed at the next boundary.
        assert_eq!(i.meta_blocks_needed(dind_start + NINDIR as u64), 1);
    }

    #[test]
    fn block_map_is_sized_once_per_append() {
        let geom = cras_disk::geometry::DiskGeometry::st32550n();
        let mut fs = crate::Ufs::format(&geom, crate::MkfsParams::tuned(&geom), 7);
        // One append of n blocks to a fresh file: exactly n slots.
        let n = 3_000;
        let ino = fs.create("whole").unwrap();
        fs.append(ino, n as u64 * BSIZE as u64).unwrap();
        let data = &fs.inode(ino).data;
        assert_eq!((data.len(), data.capacity()), (n, n));
        // One block at a time: amortised doubling, never more than twice
        // the blocks mapped.
        let ino = fs.create("grown").unwrap();
        for _ in 0..1_000 {
            fs.append(ino, BSIZE as u64).unwrap();
        }
        let data = &fs.inode(ino).data;
        assert_eq!(data.len(), 1_000);
        assert!(data.capacity() <= 2 * data.len(), "{}", data.capacity());
    }
}
