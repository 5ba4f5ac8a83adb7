//! Inodes: the classic FFS direct / single-indirect / double-indirect
//! block map.
//!
//! The map matters to the evaluation because *reading it costs disk I/O*:
//! the first access to an indirect region fetches the indirect block
//! through the buffer cache. CRAS avoids that steady-state cost by
//! resolving a file's full extent map once at `crs_open` time.

use std::cell::RefCell;

use crate::fs::Extent;
use crate::layout::{FsBlock, Ino, BSIZE, NDIRECT, NINDIR};

/// Which physical blocks must be read to reach a file block: zero, one or
/// two metadata blocks, then the data block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BmapPath {
    /// Metadata (indirect) blocks on the path, outermost first.
    pub meta: Vec<FsBlock>,
    /// The data block.
    pub data: FsBlock,
}

/// An in-memory inode.
#[derive(Clone, Debug)]
pub struct Inode {
    /// Inode number.
    pub ino: Ino,
    /// File length in bytes.
    pub size: u64,
    direct: [Option<FsBlock>; NDIRECT],
    /// Address of the single-indirect table block.
    indirect: Option<FsBlock>,
    ind_entries: Vec<Option<FsBlock>>,
    /// Address of the double-indirect table block.
    dindirect: Option<FsBlock>,
    /// First-level entries of the double-indirect tree:
    /// `(table_block, entries)`.
    dind_tables: Vec<Option<(FsBlock, Vec<Option<FsBlock>>)>>,
    /// Allocator state: cylinder group the file is currently filling and
    /// how many blocks it has placed there (for `maxbpg`).
    pub(crate) alloc_group: Option<u32>,
    pub(crate) blocks_in_group: u32,
    /// The extent map [`Ufs::extent_map`](crate::Ufs::extent_map) last
    /// built from this block map, keyed by the `size` it was built at.
    /// Mapping a block clears it; a size change misses the key.
    pub(crate) extents: RefCell<Option<(u64, Vec<Extent>)>>,
}

impl Inode {
    /// Creates an empty inode.
    pub fn new(ino: Ino) -> Inode {
        Inode {
            ino,
            size: 0,
            direct: [None; NDIRECT],
            indirect: None,
            ind_entries: Vec::new(),
            dindirect: None,
            dind_tables: Vec::new(),
            alloc_group: None,
            blocks_in_group: 0,
            extents: RefCell::new(None),
        }
    }

    /// Number of data blocks implied by `size`.
    pub fn nblocks(&self) -> u64 {
        self.size.div_ceil(BSIZE as u64)
    }

    /// Looks up file block `fb`, returning the metadata path and the data
    /// block, or `None` for a hole / out-of-range block.
    pub fn bmap(&self, fb: u64) -> Option<BmapPath> {
        if fb < NDIRECT as u64 {
            return self.direct[fb as usize].map(|data| BmapPath {
                meta: Vec::new(),
                data,
            });
        }
        let fb = fb - NDIRECT as u64;
        if fb < NINDIR as u64 {
            let table = self.indirect?;
            let data = (*self.ind_entries.get(fb as usize)?)?;
            return Some(BmapPath {
                meta: vec![table],
                data,
            });
        }
        let fb = fb - NINDIR as u64;
        if fb < (NINDIR * NINDIR) as u64 {
            let root = self.dindirect?;
            let (l1_idx, l2_idx) = ((fb / NINDIR as u64) as usize, (fb % NINDIR as u64) as usize);
            let (table, entries) = self.dind_tables.get(l1_idx)?.as_ref()?;
            let data = (*entries.get(l2_idx)?)?;
            return Some(BmapPath {
                meta: vec![root, *table],
                data,
            });
        }
        None
    }

    /// Metadata blocks the *next* append at file block `fb` would need to
    /// allocate (0, 1 or 2 table blocks).
    pub fn meta_blocks_needed(&self, fb: u64) -> usize {
        if fb < NDIRECT as u64 {
            return 0;
        }
        let fb2 = fb - NDIRECT as u64;
        if fb2 < NINDIR as u64 {
            return usize::from(self.indirect.is_none());
        }
        let fb3 = fb2 - NINDIR as u64;
        let mut needed = usize::from(self.dindirect.is_none());
        let l1_idx = (fb3 / NINDIR as u64) as usize;
        let have_l2 = self
            .dind_tables
            .get(l1_idx)
            .map(Option::is_some)
            .unwrap_or(false);
        if !have_l2 {
            needed += 1;
        }
        needed
    }

    /// Installs the mapping for file block `fb`, consuming metadata table
    /// blocks from `meta` as needed (caller allocates them via
    /// [`Inode::meta_blocks_needed`]).
    ///
    /// # Panics
    ///
    /// Panics if `fb` is beyond the double-indirect range, if a required
    /// metadata block was not supplied, or if `fb` is already mapped.
    pub fn set_bmap(&mut self, fb: u64, data: FsBlock, meta: &mut Vec<FsBlock>) {
        *self.extents.get_mut() = None;
        if fb < NDIRECT as u64 {
            assert!(self.direct[fb as usize].is_none(), "remapping block {fb}");
            self.direct[fb as usize] = Some(data);
            return;
        }
        let fb2 = fb - NDIRECT as u64;
        if fb2 < NINDIR as u64 {
            if self.indirect.is_none() {
                self.indirect = Some(meta.pop().expect("missing indirect table block"));
                self.ind_entries = vec![None; NINDIR];
            }
            let slot = &mut self.ind_entries[fb2 as usize];
            assert!(slot.is_none(), "remapping block {fb}");
            *slot = Some(data);
            return;
        }
        let fb3 = fb2 - NINDIR as u64;
        assert!(
            fb3 < (NINDIR * NINDIR) as u64,
            "file block {fb} beyond double-indirect range"
        );
        if self.dindirect.is_none() {
            self.dindirect = Some(meta.pop().expect("missing double-indirect root block"));
            self.dind_tables = Vec::new();
        }
        let l1_idx = (fb3 / NINDIR as u64) as usize;
        let l2_idx = (fb3 % NINDIR as u64) as usize;
        if self.dind_tables.len() <= l1_idx {
            self.dind_tables.resize(l1_idx + 1, None);
        }
        if self.dind_tables[l1_idx].is_none() {
            let table = meta.pop().expect("missing indirect table block");
            self.dind_tables[l1_idx] = Some((table, vec![None; NINDIR]));
        }
        let (_, entries) = self.dind_tables[l1_idx].as_mut().expect("just created");
        assert!(entries[l2_idx].is_none(), "remapping block {fb}");
        entries[l2_idx] = Some(data);
    }

    /// All data blocks in file order (for extent-map construction).
    pub fn data_blocks(&self) -> Vec<FsBlock> {
        let mut out = Vec::with_capacity(self.nblocks() as usize);
        for fb in 0..self.nblocks() {
            if let Some(p) = self.bmap(fb) {
                out.push(p.data);
            }
        }
        out
    }

    /// All metadata (indirect-table) blocks owned by this inode.
    pub fn meta_blocks(&self) -> Vec<FsBlock> {
        let mut out = Vec::new();
        if let Some(b) = self.indirect {
            out.push(b);
        }
        if let Some(b) = self.dindirect {
            out.push(b);
        }
        for t in self.dind_tables.iter().flatten() {
            out.push(t.0);
        }
        out
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
            assert!(p.meta.is_empty());
            assert_eq!(p.data, 1000 + fb);
        }
        assert!(i.meta_blocks().is_empty());
    }

    #[test]
    fn single_indirect_region() {
        let mut i = Inode::new(1);
        map_n(&mut i, NDIRECT as u64 + 5);
        let p = i.bmap(NDIRECT as u64 + 3).unwrap();
        assert_eq!(p.meta.len(), 1);
        assert_eq!(p.data, 1000 + NDIRECT as u64 + 3);
        assert_eq!(i.meta_blocks().len(), 1);
    }

    #[test]
    fn double_indirect_region() {
        let mut i = Inode::new(1);
        let fb = NDIRECT as u64 + NINDIR as u64 + 10;
        map_n(&mut i, fb + 1);
        let p = i.bmap(fb).unwrap();
        assert_eq!(p.meta.len(), 2);
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
}
