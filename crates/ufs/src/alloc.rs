//! The block allocator: cylinder groups, free bitmaps, and the FFS
//! placement policy.
//!
//! Placement rules (classic FFS, simplified to what affects disk-head
//! behaviour):
//!
//! 1. A file's next block goes *immediately after its previous block* when
//!    that block is free (sequential placement).
//! 2. Otherwise the nearest free block in the same cylinder group.
//! 3. After a file has placed `maxbpg` blocks in one group, it is moved to
//!    the group with the most free space (the spreading policy the paper
//!    defeats with `tunefs`).
//! 4. When a group fills, allocation rotates to the next group with space.

use cras_sim::Rng;

use crate::layout::{FsBlock, FsLayout};

/// One cylinder group's allocation state.
#[derive(Clone, Debug)]
pub(crate) struct CylGroup {
    /// Group index.
    pub index: u32,
    /// First file-system block.
    pub start: FsBlock,
    /// Bitmap: `true` = allocated.
    used: Vec<bool>,
    /// Number of free blocks.
    pub nfree: u32,
    /// Rotor: where the last in-group search ended.
    rotor: u32,
}

impl CylGroup {
    fn new(index: u32, start: FsBlock, len: u32) -> CylGroup {
        CylGroup {
            index,
            start,
            used: vec![false; len as usize],
            nfree: len,
            rotor: 0,
        }
    }

    fn len(&self) -> u32 {
        self.used.len() as u32
    }

    fn is_free(&self, b: FsBlock) -> bool {
        !self.used[(b - self.start) as usize]
    }

    fn take(&mut self, b: FsBlock) {
        let i = (b - self.start) as usize;
        assert!(!self.used[i], "double allocation of block {b}");
        self.used[i] = true;
        self.nfree -= 1;
        self.rotor = (i as u32 + 1) % self.len();
    }

    fn release(&mut self, b: FsBlock) {
        let i = (b - self.start) as usize;
        assert!(self.used[i], "freeing free block {b}");
        self.used[i] = false;
        self.nfree += 1;
    }

    /// Finds the first free block at or after the rotor (wrapping).
    fn find_free(&self) -> Option<FsBlock> {
        if self.nfree == 0 {
            return None;
        }
        let n = self.used.len();
        for off in 0..n {
            let i = (self.rotor as usize + off) % n;
            if !self.used[i] {
                return Some(self.start + i as u64);
            }
        }
        None
    }
}

/// The whole-disk allocator.
#[derive(Clone, Debug)]
pub(crate) struct Allocator {
    layout: FsLayout,
    groups: Vec<CylGroup>,
    maxbpg: u32,
    allocated: u64,
}

/// Outcome of one block allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Placed {
    /// The block chosen.
    pub block: FsBlock,
    /// The group it landed in.
    pub group: u32,
}

impl Allocator {
    /// Creates an allocator over `layout` with spreading threshold
    /// `maxbpg`.
    pub(crate) fn new(layout: FsLayout, maxbpg: u32) -> Allocator {
        let groups = (0..layout.ngroups)
            .map(|g| CylGroup::new(g, layout.group_start(g), layout.group_len(g)))
            .collect();
        Allocator {
            layout,
            groups,
            maxbpg,
            allocated: 0,
        }
    }

    /// The layout.
    pub(crate) fn layout(&self) -> &FsLayout {
        &self.layout
    }

    /// The spreading threshold.
    pub(crate) fn maxbpg(&self) -> u32 {
        self.maxbpg
    }

    /// Total free blocks.
    pub(crate) fn free(&self) -> u64 {
        self.groups.iter().map(|g| g.nfree as u64).sum()
    }

    /// Whether a specific block is free.
    pub(crate) fn is_free(&self, b: FsBlock) -> bool {
        let g = self.layout.group_of(b);
        self.groups[g as usize].is_free(b)
    }

    /// Allocates the specific block `b` (used for metadata placed next to
    /// data, and by tests).
    ///
    /// # Panics
    ///
    /// Panics if `b` is already allocated.
    pub(crate) fn alloc_specific(&mut self, b: FsBlock) {
        let g = self.layout.group_of(b);
        self.groups[g as usize].take(b);
        self.allocated += 1;
    }

    /// Frees a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not allocated.
    pub(crate) fn free_block(&mut self, b: FsBlock) {
        let g = self.layout.group_of(b);
        self.groups[g as usize].release(b);
        self.allocated -= 1;
    }

    /// Picks a starting group for a new file: the group with the most free
    /// space, with a random tiebreak so concurrent files spread out.
    pub(crate) fn pick_start_group(&self, rng: &mut Rng) -> u32 {
        let best = self
            .groups
            .iter()
            .map(|g| g.nfree)
            .max()
            .expect("no groups");
        let candidates: Vec<u32> = self
            .groups
            .iter()
            .filter(|g| g.nfree == best)
            .map(|g| g.index)
            .collect();
        *rng.pick(&candidates)
    }

    /// Allocates the next data block for a file.
    ///
    /// `prev` is the file's previous data block (for sequential
    /// placement); `cur_group`/`blocks_in_group` are the file's allocator
    /// cursor (enforcing `maxbpg`).
    ///
    /// Returns `None` when the disk is full.
    pub(crate) fn alloc_data(
        &mut self,
        prev: Option<FsBlock>,
        cur_group: Option<u32>,
        blocks_in_group: u32,
        rng: &mut Rng,
    ) -> Option<Placed> {
        let mut group = cur_group.unwrap_or_else(|| self.pick_start_group(rng));
        // Spreading policy: quota exhausted -> move to the emptiest group.
        let mut fresh_group = false;
        if blocks_in_group >= self.maxbpg {
            group = self.pick_start_group(rng);
            fresh_group = true;
        }
        // Rule 1: sequentially after the previous block, same group only.
        if !fresh_group {
            if let Some(p) = prev {
                let next = p + 1;
                if next < self.layout.total_blocks {
                    let g = self.layout.group_of(next);
                    if g == group && self.groups[g as usize].is_free(next) {
                        self.groups[g as usize].take(next);
                        self.allocated += 1;
                        return Some(Placed { block: next, group });
                    }
                }
            }
        }
        // Rule 2: nearest free in the chosen group, then rotate groups.
        let ng = self.layout.ngroups;
        for off in 0..ng {
            let g = (group + off) % ng;
            if let Some(b) = self.groups[g as usize].find_free() {
                self.groups[g as usize].take(b);
                self.allocated += 1;
                return Some(Placed { block: b, group: g });
            }
        }
        None
    }

    /// Allocates a metadata block near the given data group.
    pub(crate) fn alloc_meta(&mut self, near_group: u32) -> Option<FsBlock> {
        let ng = self.layout.ngroups;
        for off in 0..ng {
            let g = (near_group + off) % ng;
            if let Some(b) = self.groups[g as usize].find_free() {
                self.groups[g as usize].take(b);
                self.allocated += 1;
                return Some(b);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_disk::geometry::DiskGeometry;

    fn small_alloc(maxbpg: u32) -> Allocator {
        let geom = DiskGeometry::uniform(64, 2, 64, 7200);
        // 64*2*64 = 8192 disk blocks = 512 fs blocks; 8 cyl/group.
        let layout = FsLayout::compute(&geom, 8);
        Allocator::new(layout, maxbpg)
    }

    #[test]
    fn sequential_placement_when_contiguous_allowed() {
        let mut a = small_alloc(u32::MAX);
        let mut rng = Rng::new(1);
        let first = a.alloc_data(None, None, 0, &mut rng).unwrap();
        let mut prev = first;
        for i in 1..100u32 {
            let p = a
                .alloc_data(Some(prev.block), Some(prev.group), i, &mut rng)
                .unwrap();
            assert_eq!(p.block, prev.block + 1, "block {i} not sequential");
            prev = p;
        }
    }

    #[test]
    fn maxbpg_forces_group_switch() {
        let mut a = small_alloc(8);
        let mut rng = Rng::new(2);
        let mut prev: Option<Placed> = None;
        let mut groups_used = std::collections::BTreeSet::new();
        let mut in_group = 0;
        for _ in 0..40 {
            let p = a
                .alloc_data(
                    prev.map(|p| p.block),
                    prev.map(|p| p.group),
                    in_group,
                    &mut rng,
                )
                .unwrap();
            if prev.map(|q| q.group) == Some(p.group) {
                in_group += 1;
            } else {
                in_group = 1;
            }
            groups_used.insert(p.group);
            prev = Some(p);
        }
        assert!(
            groups_used.len() >= 4,
            "spreading should use several groups: {groups_used:?}"
        );
    }

    #[test]
    fn fills_whole_disk_then_none() {
        let mut a = small_alloc(u32::MAX);
        let mut rng = Rng::new(3);
        let total = a.layout().total_blocks;
        let mut prev: Option<Placed> = None;
        for _ in 0..total {
            let p = a.alloc_data(prev.map(|p| p.block), prev.map(|p| p.group), 0, &mut rng);
            prev = Some(p.expect("disk should not be full yet"));
        }
        assert_eq!(a.free(), 0);
        assert!(a.alloc_data(None, None, 0, &mut rng).is_none());
    }

    #[test]
    fn free_then_realloc() {
        let mut a = small_alloc(u32::MAX);
        let mut rng = Rng::new(4);
        let p = a.alloc_data(None, None, 0, &mut rng).unwrap();
        assert!(!a.is_free(p.block));
        a.free_block(p.block);
        assert!(a.is_free(p.block));
        assert_eq!(a.allocated, 0);
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_alloc_specific_panics() {
        let mut a = small_alloc(u32::MAX);
        a.alloc_specific(5);
        a.alloc_specific(5);
    }

    #[test]
    fn meta_allocated_near_group() {
        let mut a = small_alloc(u32::MAX);
        let b = a.alloc_meta(3).unwrap();
        assert_eq!(a.layout().group_of(b), 3);
    }

    #[test]
    fn pick_start_group_prefers_empty() {
        let mut a = small_alloc(u32::MAX);
        let mut rng = Rng::new(5);
        // Exhaust group 0 partially; start group should not be 0... unless
        // tie. Fill group 0 completely to be sure.
        let len = a.layout().group_len(0);
        for i in 0..len {
            a.alloc_specific(i as u64);
        }
        for _ in 0..10 {
            assert_ne!(a.pick_start_group(&mut rng), 0);
        }
    }

    #[test]
    fn interleaved_files_fragment() {
        // Two files appended alternately in the same group produce
        // non-contiguous layouts — the §3.2 "editing" problem.
        let mut a = small_alloc(u32::MAX);
        let mut rng = Rng::new(6);
        let mut fa: Option<Placed> = None;
        let mut fb: Option<Placed> = None;
        let mut a_blocks = Vec::new();
        for i in 0..20 {
            if i % 2 == 0 {
                let p = a
                    .alloc_data(fa.map(|p| p.block), Some(0), 0, &mut rng)
                    .unwrap();
                a_blocks.push(p.block);
                fa = Some(p);
            } else {
                let p = a
                    .alloc_data(fb.map(|p| p.block), Some(0), 0, &mut rng)
                    .unwrap();
                fb = Some(p);
            }
        }
        let contiguous = a_blocks.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            contiguous < a_blocks.len() - 1,
            "interleaving must fragment: {a_blocks:?}"
        );
    }
}
