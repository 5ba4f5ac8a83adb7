//! The file system proper: namespace, file allocation, extent maps and
//! cache-aware read planning.
//!
//! Data contents are not stored — the simulation only needs *where* blocks
//! live and *when* they move. A file is its inode plus the block map the
//! allocator produced; reads are planned as the set of blocks that must be
//! fetched (metadata first), the cached remainder, and a read-ahead
//! suggestion.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use cras_disk::geometry::BlockNo;
use cras_sim::Rng;

use crate::alloc::Allocator;
use crate::cache::BufferCache;
use crate::inode::{BmapPath, Inode};
use crate::layout::{
    fsblock_to_disk, max_file_size, FsBlock, FsLayout, Ino, MkfsParams, BSIZE, SECT_PER_FSBLOCK,
};

/// File-system errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Name already exists.
    Exists,
    /// No such file.
    NotFound,
    /// Out of disk space.
    NoSpace,
    /// Beyond the inode's addressable size.
    TooLarge,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::Exists => "file exists",
            FsError::NotFound => "no such file",
            FsError::NoSpace => "no space left on device",
            FsError::TooLarge => "file too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// A run of physically contiguous file data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset within the file where the extent begins.
    pub file_offset: u64,
    /// First 512-byte disk block.
    pub disk_block: BlockNo,
    /// Length in 512-byte disk blocks.
    pub nblocks: u32,
}

impl Extent {
    /// Extent length in bytes.
    pub fn bytes(&self) -> u64 {
        self.nblocks as u64 * 512
    }
}

/// A physically contiguous run of file-system blocks fetched by one disk
/// command (clustered I/O, bounded by `maxcontig`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchRun {
    /// First file-system block.
    pub start: FsBlock,
    /// Number of contiguous blocks.
    pub len: u32,
}

impl FetchRun {
    /// Iterates the blocks of the run.
    pub fn blocks(&self) -> impl Iterator<Item = FsBlock> {
        self.start..self.start + self.len as u64
    }
}

/// Merges an ordered block list into contiguous runs of at most
/// `maxcontig` blocks.
fn merge_runs(blocks: &[FsBlock], maxcontig: u32) -> Vec<FetchRun> {
    let maxcontig = maxcontig.max(1);
    let mut out: Vec<FetchRun> = Vec::new();
    for &b in blocks {
        match out.last_mut() {
            Some(r) if r.start + r.len as u64 == b && r.len < maxcontig => r.len += 1,
            _ => out.push(FetchRun { start: b, len: 1 }),
        }
    }
    out
}

/// The plan for serving one read call.
#[derive(Clone, Debug, Default)]
pub struct ReadPlan {
    /// Cache-missing runs, in fetch order (metadata before the data it
    /// maps); each run is one clustered disk command.
    pub fetch: Vec<FetchRun>,
    /// Blocks served from the cache.
    pub cached: Vec<FsBlock>,
    /// Read-ahead runs (uncached data after the range).
    pub read_ahead: Vec<FetchRun>,
}

/// Fragmentation report for one file (the §3.2 editing problem).
#[derive(Clone, Debug)]
pub struct FragReport {
    /// Number of extents.
    pub extents: usize,
    /// Total data blocks.
    pub blocks: u64,
    /// Mean extent length in file-system blocks.
    pub avg_extent_fsblocks: f64,
    /// Fraction of adjacent block pairs that are physically contiguous.
    pub contiguity: f64,
}

/// The FFS-like file system.
pub struct Ufs {
    params: MkfsParams,
    alloc: Allocator,
    inodes: Vec<Inode>,
    names: BTreeMap<String, Ino>,
    cache: BufferCache,
    /// Blocks written in memory but not yet flushed to disk (the classic
    /// delayed-write path; a syncer drains them).
    dirty: BTreeSet<FsBlock>,
    /// Blocks with a disk read in flight (a synchronous fetch or a
    /// read-ahead), claimed by [`Ufs::claim`] and cleared on arrival.
    in_flight: HashSet<FsBlock>,
    rng: Rng,
}

impl Ufs {
    /// Formats a file system over `geom` with the given parameters. A
    /// multi-disk set formats one per volume; every block number a file
    /// system hands out addresses its own volume.
    pub fn format(geom: &cras_disk::geometry::DiskGeometry, params: MkfsParams, seed: u64) -> Ufs {
        let layout = FsLayout::compute(geom, params.cyl_per_group);
        let mut alloc = Allocator::new(layout, params.maxbpg);
        // Reserve block 0 as the superblock area.
        alloc.alloc_specific(0);
        Ufs {
            params,
            alloc,
            inodes: Vec::new(),
            names: BTreeMap::new(),
            cache: BufferCache::new(params.cache_blocks),
            dirty: BTreeSet::new(),
            in_flight: HashSet::new(),
            rng: Rng::new(seed),
        }
    }

    /// The layout in use.
    pub(crate) fn layout(&self) -> &FsLayout {
        self.alloc.layout()
    }

    /// The buffer cache (for statistics).
    pub fn cache(&self) -> &BufferCache {
        &self.cache
    }

    /// Total free space in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.alloc.free() * BSIZE as u64
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<Ino, FsError> {
        if self.names.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.inodes.len() as Ino;
        self.inodes.push(Inode::new(ino));
        self.names.insert(name.to_string(), ino);
        Ok(ino)
    }

    /// Creates an empty file whose allocation starts in the same cylinder
    /// group as `near`'s current allocation cursor — what happens when an
    /// editor writes scratch data next to the file being edited.
    pub fn create_near(&mut self, name: &str, near: Ino) -> Result<Ino, FsError> {
        let ino = self.create(name)?;
        let group = self.inodes[near as usize].alloc_group;
        self.inodes[ino as usize].alloc_group = group;
        Ok(ino)
    }

    /// Moves `ino`'s allocation cursor into the cylinder group `with` is
    /// currently filling (keeps an editor's scratch writes adjacent to the
    /// file being edited as it grows).
    pub fn colocate_cursor(&mut self, ino: Ino, with: Ino) {
        let group = self.inodes[with as usize].alloc_group;
        let inode = &mut self.inodes[ino as usize];
        if inode.alloc_group != group {
            inode.alloc_group = group;
            inode.blocks_in_group = 0;
        }
    }

    /// Looks a file up by name.
    pub fn lookup(&self, name: &str) -> Result<Ino, FsError> {
        self.names.get(name).copied().ok_or(FsError::NotFound)
    }

    /// File size in bytes.
    pub fn file_size(&self, ino: Ino) -> u64 {
        self.inodes[ino as usize].size
    }

    /// Read access to an inode.
    pub fn inode(&self, ino: Ino) -> &Inode {
        &self.inodes[ino as usize]
    }

    /// Lists all `(name, ino)` pairs.
    pub(crate) fn files(&self) -> impl Iterator<Item = (&str, Ino)> {
        self.names.iter().map(|(n, i)| (n.as_str(), *i))
    }

    /// Appends `bytes` to a file, allocating blocks per the FFS policy.
    /// An append that does not fit fails with [`FsError::NoSpace`] before
    /// it maps anything.
    pub fn append(&mut self, ino: Ino, bytes: u64) -> Result<(), FsError> {
        let inode = &self.inodes[ino as usize];
        let new_size = inode.size + bytes;
        if new_size > max_file_size() {
            return Err(FsError::TooLarge);
        }
        let new_blocks = inode.nblocks()..new_size.div_ceil(BSIZE as u64);
        // Data plus table blocks. The allocator takes a free block from
        // any group while one is left, so an append that fits cannot run
        // out midway.
        let needed: u64 = new_blocks
            .clone()
            .map(|fb| 1 + inode.meta_blocks_needed(fb) as u64)
            .sum();
        if needed > self.alloc.free() {
            return Err(FsError::NoSpace);
        }
        // Size the block map once: a fresh file's map gets exactly its
        // block count, and repeated small appends keep amortised growth.
        self.inodes[ino as usize].reserve_blocks((new_blocks.end - new_blocks.start) as usize);
        for fb in new_blocks {
            self.alloc_file_block(ino, fb)?;
        }
        self.inodes[ino as usize].size = new_size;
        Ok(())
    }

    /// Pre-allocates contiguous space without changing the file size
    /// beyond `bytes` — the §4 extension for constant-rate *writing*
    /// ("the Unix file system must be modified to allocate data blocks in
    /// advance when a file is created or expanded").
    pub fn preallocate(&mut self, ino: Ino, bytes: u64) -> Result<(), FsError> {
        self.append(ino, bytes)
    }

    fn alloc_file_block(&mut self, ino: Ino, fb: u64) -> Result<(), FsError> {
        // Metadata table blocks first, placed near the file's current
        // group.
        let needed = self.inodes[ino as usize].meta_blocks_needed(fb);
        let near = self.inodes[ino as usize].alloc_group.unwrap_or(0);
        let mut meta = Vec::with_capacity(needed);
        for _ in 0..needed {
            meta.push(self.alloc.alloc_meta(near).ok_or(FsError::NoSpace)?);
        }
        let prev = if fb == 0 {
            None
        } else {
            self.inodes[ino as usize].bmap(fb - 1).map(|p| p.data)
        };
        let inode = &mut self.inodes[ino as usize];
        let placed = self
            .alloc
            .alloc_data(
                prev,
                inode.alloc_group,
                inode.blocks_in_group,
                &mut self.rng,
            )
            .ok_or(FsError::NoSpace)?;
        if inode.alloc_group == Some(placed.group) && inode.blocks_in_group < self.alloc.maxbpg() {
            inode.blocks_in_group += 1;
        } else {
            inode.alloc_group = Some(placed.group);
            inode.blocks_in_group = 1;
        }
        inode.set_bmap(fb, placed.block, &mut meta);
        debug_assert!(meta.is_empty());
        Ok(())
    }

    /// Renames a file.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        if self.names.contains_key(to) {
            return Err(FsError::Exists);
        }
        let ino = self.names.remove(from).ok_or(FsError::NotFound)?;
        self.names.insert(to.to_string(), ino);
        Ok(())
    }

    /// Removes a file, freeing all its blocks.
    pub fn remove(&mut self, name: &str) -> Result<(), FsError> {
        let ino = self.lookup(name)?;
        self.names.remove(name);
        let inode = &self.inodes[ino as usize];
        for &b in inode.data_blocks().iter().chain(inode.meta_blocks()) {
            self.alloc.free_block(b);
            self.cache.invalidate(b);
        }
        self.inodes[ino as usize] = Inode::new(ino);
        Ok(())
    }

    /// Builds the file's physical extent map in file order, merging
    /// adjacent file-system blocks into disk-block runs.
    ///
    /// CRAS resolves this once per `crs_open`, which is how it avoids
    /// touching UFS metadata during constant-rate retrieval. Nothing is
    /// memoized: each call is one pass over the inode's dense block list.
    pub fn extent_map(&self, ino: Ino) -> Vec<Extent> {
        let mut file_offset = 0;
        self.inodes[ino as usize]
            .data_blocks()
            .chunk_by(|&a, &b| b == a + 1)
            .map(|run| {
                let e = Extent {
                    file_offset,
                    disk_block: fsblock_to_disk(run[0]),
                    nblocks: run.len() as u32 * SECT_PER_FSBLOCK,
                };
                file_offset += e.bytes();
                e
            })
            .collect()
    }

    /// Plans a read of `[offset, offset+len)` through the buffer cache.
    ///
    /// # Panics
    ///
    /// Panics if the range goes past end-of-file (callers clamp).
    pub fn plan_read(&mut self, ino: Ino, offset: u64, len: u64) -> ReadPlan {
        assert!(len > 0, "zero-length read");
        let inode = &self.inodes[ino as usize];
        assert!(
            offset + len <= inode.size,
            "read past EOF: {}+{} > {}",
            offset,
            len,
            inode.size
        );
        let first = offset / BSIZE as u64;
        let last = (offset + len - 1) / BSIZE as u64;
        let mut plan = ReadPlan::default();
        let mut fetch_blocks: Vec<FsBlock> = Vec::new();
        // A table block maps a contiguous range of file blocks, so it
        // repeats only on consecutive paths: planning it once means
        // skipping the ones already on the previous block's path. Every
        // use still counts in the cache's LRU order.
        let mut prev: Option<BmapPath> = None;
        for fb in first..=last {
            let path = self.inodes[ino as usize]
                .bmap(fb)
                .expect("mapped block within size");
            for &m in path.meta() {
                let hit = self.cache.lookup(m);
                if prev.is_some_and(|p| p.meta().contains(&m)) {
                    continue;
                }
                if hit {
                    plan.cached.push(m);
                } else {
                    fetch_blocks.push(m);
                }
            }
            if self.cache.lookup(path.data) {
                plan.cached.push(path.data);
            } else {
                fetch_blocks.push(path.data);
            }
            prev = Some(path);
        }
        plan.fetch = merge_runs(&fetch_blocks, self.params.maxcontig);
        // Clustered read-ahead (4.4BSD style): when the read reaches the
        // edge of the cached region — the *next* file block is uncached —
        // schedule a whole window of blocks in one go, rather than a
        // sliding one-block-at-a-time window that degenerates into tiny
        // disk commands. Read-ahead blocks are data past `last`, so none
        // is already in `fetch_blocks`.
        let nblocks = self.inodes[ino as usize].nblocks();
        let mut ra_blocks: Vec<FsBlock> = Vec::new();
        let next = last + 1;
        let trigger = next < nblocks
            && self.inodes[ino as usize]
                .bmap(next)
                .map(|p| !self.cache.peek(p.data))
                .unwrap_or(false);
        if trigger {
            for fb in next..(next + self.params.read_ahead as u64).min(nblocks) {
                if let Some(path) = self.inodes[ino as usize].bmap(fb) {
                    if !self.cache.peek(path.data) {
                        ra_blocks.push(path.data);
                    }
                }
            }
        }
        plan.read_ahead = merge_runs(&ra_blocks, self.params.maxcontig);
        plan
    }

    /// Writes `bytes` at the end of the file through the delayed-write
    /// path: blocks are allocated and dirtied in the cache; the syncer
    /// flushes them to disk later ([`Ufs::take_dirty`]). Returns the
    /// number of blocks newly dirtied.
    pub fn append_dirty(&mut self, ino: Ino, bytes: u64) -> Result<usize, FsError> {
        let first_new = self.inodes[ino as usize].nblocks();
        self.append(ino, bytes)?;
        let last_new = self.inodes[ino as usize].nblocks();
        let mut dirtied = 0;
        // The tail block of the previous append is rewritten too when the
        // new data starts mid-block.
        let from = first_new.saturating_sub(1);
        for fb in from..last_new {
            if let Some(p) = self.inodes[ino as usize].bmap(fb) {
                self.cache.insert(p.data);
                if self.dirty.insert(p.data) {
                    dirtied += 1;
                }
            }
        }
        Ok(dirtied)
    }

    /// Number of dirty blocks awaiting the syncer.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }

    /// Drains up to `max_blocks` dirty blocks as clustered write runs for
    /// the syncer to submit to disk.
    pub fn take_dirty(&mut self, max_blocks: usize) -> Vec<FetchRun> {
        let take: Vec<FsBlock> = self.dirty.iter().copied().take(max_blocks).collect();
        for b in &take {
            self.dirty.remove(b);
        }
        merge_runs(&take, self.params.maxcontig)
    }

    /// Whether a file-system block is free in the allocator.
    pub(crate) fn is_block_free(&self, b: FsBlock) -> bool {
        self.alloc.is_free(b)
    }

    /// Frees a block behind the inode's back — corruption injection for
    /// the consistency checker's tests only.
    #[cfg(test)]
    pub(crate) fn free_block_for_tests(&mut self, b: FsBlock) {
        self.alloc.free_block(b);
    }

    /// Claims the blocks of `run` that are neither cached nor already
    /// being read: marks them in flight and returns them as contiguous
    /// runs, one disk command each. A block claimed once is not returned
    /// again until it arrives ([`Ufs::mark_cached`]), so concurrent
    /// readers sleep on one read instead of re-issuing it.
    pub fn claim(&mut self, run: FetchRun) -> Vec<FetchRun> {
        let fresh: Vec<FsBlock> = run
            .blocks()
            .filter(|&b| !self.cache.peek(b) && self.in_flight.insert(b))
            .collect();
        merge_runs(&fresh, self.params.maxcontig)
    }

    /// Whether a block has a disk read in flight.
    pub fn is_in_flight(&self, block: FsBlock) -> bool {
        self.in_flight.contains(&block)
    }

    /// Records that a block arrived from disk: it sits in the cache and
    /// is no longer in flight.
    pub fn mark_cached(&mut self, block: FsBlock) {
        self.cache.insert(block);
        self.in_flight.remove(&block);
    }

    /// Fragmentation report for a file.
    pub fn fragmentation(&self, ino: Ino) -> FragReport {
        let extents = self.extent_map(ino);
        let blocks = self.inodes[ino as usize].nblocks();
        let pairs = blocks.saturating_sub(1);
        let breaks = extents.len().saturating_sub(1) as u64;
        FragReport {
            extents: extents.len(),
            blocks,
            avg_extent_fsblocks: if extents.is_empty() {
                0.0
            } else {
                blocks as f64 / extents.len() as f64
            },
            contiguity: if pairs == 0 {
                1.0
            } else {
                (pairs - breaks.min(pairs)) as f64 / pairs as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_disk::geometry::DiskGeometry;

    fn tuned_fs() -> Ufs {
        let geom = DiskGeometry::st32550n();
        Ufs::format(&geom, MkfsParams::tuned(&geom), 7)
    }

    fn stock_fs() -> Ufs {
        let geom = DiskGeometry::st32550n();
        Ufs::format(&geom, MkfsParams::stock(&geom), 7)
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn create_lookup_append() {
        let mut fs = tuned_fs();
        let ino = fs.create("movie.mov").unwrap();
        assert_eq!(fs.lookup("movie.mov"), Ok(ino));
        assert_eq!(fs.create("movie.mov"), Err(FsError::Exists));
        assert_eq!(fs.lookup("nope"), Err(FsError::NotFound));
        fs.append(ino, 10 * MB).unwrap();
        assert_eq!(fs.file_size(ino), 10 * MB);
    }

    #[test]
    fn tuned_fs_allocates_contiguously() {
        let mut fs = tuned_fs();
        let ino = fs.create("movie").unwrap();
        fs.append(ino, 20 * MB).unwrap();
        let frag = fs.fragmentation(ino);
        assert!(
            frag.contiguity > 0.99,
            "tuned fs should be contiguous: {frag:?}"
        );
        assert!(frag.extents <= 3, "extents = {}", frag.extents);
    }

    #[test]
    fn stock_fs_spreads_large_files() {
        let mut fs = stock_fs();
        let ino = fs.create("movie").unwrap();
        fs.append(ino, 40 * MB).unwrap();
        let frag = fs.fragmentation(ino);
        assert!(
            frag.extents > 3,
            "stock fs should spread a 40 MB file: {frag:?}"
        );
    }

    #[test]
    fn extent_map_covers_file_in_order() {
        let mut fs = tuned_fs();
        let ino = fs.create("movie").unwrap();
        fs.append(ino, 5 * MB).unwrap();
        let extents = fs.extent_map(ino);
        let total: u64 = extents.iter().map(|e| e.bytes()).sum();
        assert_eq!(total, 5 * MB); // 5 MB is block-aligned.
        let mut off = 0;
        for e in &extents {
            assert_eq!(e.file_offset, off);
            off += e.bytes();
        }
    }

    #[test]
    fn extent_map_merges_the_per_block_walk() {
        use crate::layout::{NDIRECT, NINDIR};
        const B: u64 = BSIZE as u64;
        // `bmap(fb).data` for every block below the size, merged by
        // disk adjacency: what `extent_map` must return.
        let by_bmap = |fs: &Ufs, ino: Ino| {
            let inode = fs.inode(ino);
            let mut out: Vec<Extent> = Vec::new();
            for fb in 0..inode.nblocks() {
                let disk = fsblock_to_disk(inode.bmap(fb).unwrap().data);
                match out.last_mut() {
                    Some(e) if e.disk_block + e.nblocks as u64 == disk => {
                        e.nblocks += SECT_PER_FSBLOCK
                    }
                    _ => out.push(Extent {
                        file_offset: fb * B,
                        disk_block: disk,
                        nblocks: SECT_PER_FSBLOCK,
                    }),
                }
            }
            out
        };
        let mut fs = stock_fs();
        let edges = [NDIRECT, NDIRECT + NINDIR, NDIRECT + 2 * NINDIR].map(|e| e as u64 * B);
        let (a, b) = (fs.create("a").unwrap(), fs.create("b").unwrap());
        let mut crossed = 0;
        for step in 0..12u64 {
            // Interleaved growth, so the two files fragment: whole
            // blocks and a partial last block, and a preallocation.
            let before = fs.file_size(a);
            fs.append(a, 3 * MB + step * 1000 + 7).unwrap();
            crossed += edges
                .iter()
                .filter(|&&e| (before..fs.file_size(a)).contains(&e))
                .count();
            fs.preallocate(b, MB / 2 + 7).unwrap();
            for ino in [a, b] {
                assert_eq!(fs.extent_map(ino), by_bmap(&fs, ino), "step {step}");
            }
        }
        assert_eq!(crossed, 3, "file a crosses every map edge");
        assert!(fs.extent_map(a).len() > 3, "interleaving fragments a");
    }

    #[test]
    fn plan_read_miss_then_hit() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, MB).unwrap();
        let plan = fs.plan_read(ino, 0, BSIZE as u64);
        assert_eq!(plan.fetch.len(), 1);
        assert!(plan.cached.is_empty());
        for r in &plan.fetch {
            for b in r.blocks() {
                fs.mark_cached(b);
            }
        }
        let plan2 = fs.plan_read(ino, 0, BSIZE as u64);
        assert!(plan2.fetch.is_empty());
        assert_eq!(plan2.cached.len(), 1);
    }

    #[test]
    fn plan_read_includes_indirect_metadata() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, 2 * MB).unwrap(); // Past the 96 KB direct region.
        let off = NDIRECT_BYTES;
        let plan = fs.plan_read(ino, off, BSIZE as u64);
        let fetched: u64 = plan.fetch.iter().map(|r| r.len as u64).sum();
        assert_eq!(fetched, 2, "indirect table + data");
        const NDIRECT_BYTES: u64 = 12 * BSIZE as u64;
    }

    /// `plan_read` as it was before it de-duplicated table blocks
    /// against the previous block's path: `Vec::contains` scans over
    /// everything planned so far. The differential test below checks
    /// [`Ufs::plan_read`] against it.
    fn plan_read_scan(fs: &mut Ufs, ino: Ino, offset: u64, len: u64) -> ReadPlan {
        let first = offset / BSIZE as u64;
        let last = (offset + len - 1) / BSIZE as u64;
        let mut plan = ReadPlan::default();
        let mut fetch_blocks: Vec<FsBlock> = Vec::new();
        for fb in first..=last {
            let path = fs.inodes[ino as usize].bmap(fb).unwrap();
            for m in path.meta() {
                if fs.cache.lookup(*m) {
                    if !plan.cached.contains(m) {
                        plan.cached.push(*m);
                    }
                } else if !fetch_blocks.contains(m) {
                    fetch_blocks.push(*m);
                }
            }
            if fs.cache.lookup(path.data) {
                plan.cached.push(path.data);
            } else {
                fetch_blocks.push(path.data);
            }
        }
        plan.fetch = merge_runs(&fetch_blocks, fs.params.maxcontig);
        let nblocks = fs.inodes[ino as usize].nblocks();
        let mut ra_blocks: Vec<FsBlock> = Vec::new();
        let next = last + 1;
        let trigger = next < nblocks
            && fs.inodes[ino as usize]
                .bmap(next)
                .map(|p| !fs.cache.peek(p.data) && !fetch_blocks.contains(&p.data))
                .unwrap_or(false);
        if trigger {
            for fb in next..(next + fs.params.read_ahead as u64).min(nblocks) {
                if let Some(path) = fs.inodes[ino as usize].bmap(fb) {
                    if !fs.cache.peek(path.data) && !fetch_blocks.contains(&path.data) {
                        ra_blocks.push(path.data);
                    }
                }
            }
        }
        plan.read_ahead = merge_runs(&ra_blocks, fs.params.maxcontig);
        plan
    }

    #[test]
    fn plan_read_matches_the_contains_scan() {
        use crate::layout::{NDIRECT, NINDIR};
        use cras_sim::Rng;
        const B: u64 = BSIZE as u64;
        // Where the block map changes shape: direct → single indirect →
        // double indirect, and the double-indirect region's first and
        // second table.
        let edges = [
            NDIRECT as u64 * B,
            (NDIRECT + NINDIR) as u64 * B,
            (NDIRECT + 2 * NINDIR) as u64 * B,
        ];
        let (mut meta_hits, mut meta_fetches, mut read_aheads) = (0u64, 0u64, 0u64);
        for seed in 0..12 {
            let mut rng = Rng::new(seed);
            let sizes = [
                1 + rng.below(edges[0]),
                edges[0] + rng.below(edges[1] - edges[0]),
                edges[2] + 1 + rng.below(4 * MB),
            ];
            // Two identically built file systems: one planned each way.
            let build = || {
                let mut fs = tuned_fs();
                for (i, &size) in sizes.iter().enumerate() {
                    let ino = fs.create(&format!("f{i}")).unwrap();
                    fs.append(ino, size).unwrap();
                }
                fs
            };
            let (mut fs, mut reference) = (build(), build());
            let inos: Vec<Ino> = (0..3)
                .map(|i| fs.lookup(&format!("f{i}")).unwrap())
                .collect();
            let metas: Vec<BTreeSet<FsBlock>> = inos
                .iter()
                .map(|&i| {
                    fs.inodes[i as usize]
                        .meta_blocks()
                        .iter()
                        .copied()
                        .collect()
                })
                .collect();
            for op in 0..300 {
                let ctx = format!("seed {seed} op {op}");
                let f = rng.below(3) as usize;
                let size = sizes[f];
                // Half the reads start near a map edge of the file.
                let offset = match rng.below(2) {
                    0 => {
                        let edge = edges[rng.below(3) as usize].min(size - 1);
                        edge.saturating_sub(rng.below(MB / 2))
                    }
                    _ => rng.below(size),
                };
                let len = 1 + rng.below((2 * MB).min(size - offset));
                let plan = fs.plan_read(inos[f], offset, len);
                let want = plan_read_scan(&mut reference, inos[f], offset, len);
                assert_eq!(plan.fetch, want.fetch, "{ctx}: fetch");
                assert_eq!(plan.cached, want.cached, "{ctx}: cached");
                assert_eq!(plan.read_ahead, want.read_ahead, "{ctx}: read-ahead");
                let is_meta = |b: &FsBlock| metas[f].contains(b);
                meta_hits += plan.cached.iter().filter(|b| is_meta(b)).count() as u64;
                meta_fetches += plan
                    .fetch
                    .iter()
                    .flat_map(|r| r.blocks())
                    .filter(|b| is_meta(b))
                    .count() as u64;
                read_aheads += plan.read_ahead.len() as u64;
                // Most fetched and read-ahead runs arrive, evicting older
                // blocks from the 256-block cache.
                for r in plan.fetch.iter().chain(&plan.read_ahead) {
                    if rng.chance(0.8) {
                        for b in r.blocks() {
                            fs.mark_cached(b);
                            reference.mark_cached(b);
                        }
                    }
                }
                assert_eq!(
                    fs.cache.recency(),
                    reference.cache.recency(),
                    "{ctx}: LRU order"
                );
                assert_eq!(fs.cache.hit_stats(), reference.cache.hit_stats(), "{ctx}");
            }
        }
        assert!(
            meta_hits > 0 && meta_fetches > 0 && read_aheads > 0,
            "meta hits {meta_hits}, meta fetches {meta_fetches}, read-aheads {read_aheads}"
        );
    }

    #[test]
    fn read_ahead_suggested() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, MB).unwrap();
        let plan = fs.plan_read(ino, 0, BSIZE as u64);
        let window = fs.params.read_ahead;
        assert_eq!(
            plan.read_ahead.iter().map(|r| r.len).sum::<u32>(),
            window,
            "full cluster window on first touch"
        );
        // Once the window is cached, no further read-ahead triggers until
        // the reader crosses its edge.
        for r in &plan.read_ahead {
            for b in r.blocks() {
                fs.mark_cached(b);
            }
        }
        for r in &plan.fetch {
            for b in r.blocks() {
                fs.mark_cached(b);
            }
        }
        let plan2 = fs.plan_read(ino, 0, BSIZE as u64);
        assert!(plan2.read_ahead.is_empty(), "window still cached");
    }

    #[test]
    fn claimed_blocks_are_returned_once_until_they_arrive() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, MB).unwrap();
        let run = fs.plan_read(ino, 0, 4 * BSIZE as u64).fetch[0];
        assert_eq!(fs.claim(run), vec![run], "an uncached run is claimed whole");
        assert!(run.blocks().all(|b| fs.is_in_flight(b)));
        assert!(fs.claim(run).is_empty(), "a second claim re-issues nothing");
        // The middle block arrives: it is cached and no longer in flight,
        // and a new claim still skips it.
        let mid = run.start + 1;
        fs.mark_cached(mid);
        assert!(!fs.is_in_flight(mid));
        assert!(fs.claim(run).is_empty());
        // The rest arrive: nothing is in flight, and cached blocks are
        // not read again.
        for b in run.blocks() {
            fs.mark_cached(b);
        }
        assert!(run.blocks().all(|b| !fs.is_in_flight(b)));
        assert!(fs.claim(run).is_empty());
    }

    #[test]
    fn claim_splits_around_cached_blocks() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, MB).unwrap();
        let run = fs.plan_read(ino, 0, 4 * BSIZE as u64).fetch[0];
        assert_eq!(run.len, 4);
        fs.mark_cached(run.start + 1);
        assert_eq!(
            fs.claim(run),
            vec![
                FetchRun {
                    start: run.start,
                    len: 1
                },
                FetchRun {
                    start: run.start + 2,
                    len: 2
                },
            ]
        );
    }

    #[test]
    fn append_past_free_space_changes_nothing() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        let free = fs.free_bytes();
        assert_eq!(fs.append(ino, free + MB), Err(FsError::NoSpace));
        assert_eq!(fs.file_size(ino), 0);
        let inode = fs.inode(ino);
        assert_eq!((inode.alloc_group, inode.blocks_in_group), (None, 0));
        let report = crate::check::check(&fs, true);
        assert!(report.is_clean(), "{} errors", report.errors.len());
        assert_eq!(fs.free_bytes(), free, "the failed append leaked blocks");
        fs.append(ino, MB).unwrap();
        assert_eq!(fs.file_size(ino), MB);
        assert!(crate::check::check(&fs, true).is_clean());
    }

    #[test]
    fn append_counts_table_blocks_against_free_space() {
        use crate::layout::NDIRECT;
        const B: u64 = BSIZE as u64;
        // Leave exactly NDIRECT + 1 blocks free: that many data blocks
        // for a new file need one table block too, so the append misses
        // by one block, at the step whose table block would take the
        // last free one.
        let mut fs = tuned_fs();
        let filler = fs.create("filler").unwrap();
        let left = (NDIRECT as u64 + 1) * B;
        fs.append(filler, fs.free_bytes() - left - 512 * B).unwrap();
        while fs.free_bytes() > left {
            fs.append(filler, B).unwrap();
        }
        assert_eq!(fs.free_bytes(), left);
        let ino = fs.create("f").unwrap();
        assert_eq!(fs.append(ino, left), Err(FsError::NoSpace));
        assert_eq!(fs.free_bytes(), left, "the failed append leaked blocks");
        assert!(crate::check::check(&fs, true).is_clean());
        fs.append(ino, NDIRECT as u64 * B).unwrap();
    }

    #[test]
    fn read_ahead_stops_at_eof() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, BSIZE as u64).unwrap();
        let plan = fs.plan_read(ino, 0, BSIZE as u64);
        assert!(plan.read_ahead.is_empty());
    }

    #[test]
    fn remove_frees_space() {
        let mut fs = tuned_fs();
        let before = fs.free_bytes();
        let ino = fs.create("f").unwrap();
        fs.append(ino, 10 * MB).unwrap();
        assert!(fs.free_bytes() < before);
        fs.remove("f").unwrap();
        assert_eq!(fs.free_bytes(), before);
        assert_eq!(fs.lookup("f"), Err(FsError::NotFound));
    }

    #[test]
    fn interleaved_appends_fragment_stock() {
        let mut fs = tuned_fs();
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        // Force both into overlapping allocation by alternating appends.
        for _ in 0..64 {
            fs.append(a, BSIZE as u64).unwrap();
            fs.append(b, BSIZE as u64).unwrap();
        }
        let fa = fs.fragmentation(a);
        // Interleaving cannot be fully contiguous unless the allocator
        // separated the two files into different groups (which
        // pick_start_group tries); accept either but verify consistency.
        assert_eq!(fa.blocks, 64);
        assert!(fa.extents >= 1);
    }

    #[test]
    fn append_dirty_tracks_blocks() {
        let mut fs = tuned_fs();
        let ino = fs.create("w").unwrap();
        let d1 = fs.append_dirty(ino, 3 * BSIZE as u64).unwrap();
        assert_eq!(d1, 3);
        assert_eq!(fs.dirty_blocks(), 3);
        // Partial-block append re-dirties the tail block.
        let d2 = fs.append_dirty(ino, 100).unwrap();
        assert_eq!(d2, 1);
        assert_eq!(fs.dirty_blocks(), 4);
        // Appending more re-dirties the shared tail but it is already
        // dirty, so only new blocks count.
        let d3 = fs.append_dirty(ino, BSIZE as u64).unwrap();
        assert_eq!(d3, 1);
    }

    #[test]
    fn take_dirty_drains_as_runs() {
        let mut fs = tuned_fs();
        let ino = fs.create("w").unwrap();
        fs.append_dirty(ino, 10 * BSIZE as u64).unwrap();
        let runs = fs.take_dirty(4);
        let total: u32 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 4);
        assert_eq!(fs.dirty_blocks(), 6);
        let rest = fs.take_dirty(100);
        assert_eq!(rest.iter().map(|r| r.len).sum::<u32>(), 6);
        assert_eq!(fs.dirty_blocks(), 0);
        // Contiguous allocation means few runs.
        assert!(rest.len() <= 2, "runs {rest:?}");
    }

    #[test]
    #[should_panic(expected = "past EOF")]
    fn read_past_eof_panics() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        fs.append(ino, 100).unwrap();
        fs.plan_read(ino, 0, 200);
    }

    #[test]
    fn too_large_rejected() {
        let mut fs = tuned_fs();
        let ino = fs.create("f").unwrap();
        assert_eq!(fs.append(ino, u64::MAX / 2), Err(FsError::TooLarge));
    }
}
