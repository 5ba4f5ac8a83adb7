//! The buffer cache: an LRU over file-system blocks.
//!
//! UFS reads go through this cache; CRAS deliberately bypasses it ("the
//! server is carefully designed to avoid accessing any non real-time OS
//! servers during constant rate retrieval") and wires its own buffers.

use std::collections::HashMap;

use crate::layout::FsBlock;

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// One cached block's place in the recency list.
#[derive(Clone, Debug)]
struct Node {
    block: FsBlock,
    /// The next less recently used block, or [`NIL`].
    older: u32,
    /// The next more recently used block, or [`NIL`].
    newer: u32,
}

/// LRU buffer cache keyed by file-system block number.
///
/// The blocks form a doubly linked recency list in a slab, least
/// recently used first: a use moves its block to the newest end and an
/// insert past capacity evicts the oldest one, each in `O(1)` rather
/// than by scanning the whole map for the oldest use.
#[derive(Clone, Debug)]
pub struct BufferCache {
    capacity: usize,
    /// block -> its slot in `nodes`.
    map: HashMap<FsBlock, u32>,
    /// The list nodes; slots of dropped blocks wait in `free`.
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// The least and the most recently used block's slots, or [`NIL`].
    oldest: u32,
    newest: u32,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BufferCache {
        assert!(capacity > 0, "zero-capacity cache");
        BufferCache {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters `(hits, misses)` from [`BufferCache::lookup`].
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Checks for `block`, counting a hit or miss and refreshing LRU order
    /// on hit.
    pub fn lookup(&mut self, block: FsBlock) -> bool {
        if let Some(&slot) = self.map.get(&block) {
            self.unlink(slot);
            self.push_newest(slot);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks for `block` without perturbing statistics or LRU order.
    pub fn peek(&self, block: FsBlock) -> bool {
        self.map.contains_key(&block)
    }

    /// Inserts `block`, evicting the least recently used entry if full.
    /// Returns the evicted block, if any.
    pub fn insert(&mut self, block: FsBlock) -> Option<FsBlock> {
        if let Some(&slot) = self.map.get(&block) {
            // Refresh of an existing entry.
            self.unlink(slot);
            self.push_newest(slot);
            return None;
        }
        let node = Node {
            block,
            older: NIL,
            newer: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.push_newest(slot);
        self.map.insert(block, slot);
        if self.map.len() > self.capacity {
            let victim = self.oldest;
            self.unlink(victim);
            self.free.push(victim);
            let block = self.nodes[victim as usize].block;
            self.map.remove(&block);
            return Some(block);
        }
        None
    }

    /// Drops a block (e.g. on file truncation).
    pub fn invalidate(&mut self, block: FsBlock) {
        if let Some(slot) = self.map.remove(&block) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        (self.oldest, self.newest) = (NIL, NIL);
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { older, newer, .. } = self.nodes[slot as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n as usize].older = older,
        }
    }

    /// Links `slot` in as the most recently used block.
    fn push_newest(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        (node.older, node.newer) = (self.newest, NIL);
        match self.newest {
            NIL => self.oldest = slot,
            n => self.nodes[n as usize].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = BufferCache::new(4);
        assert!(!c.lookup(10));
        c.insert(10);
        assert!(c.lookup(10));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.lookup(1));
        let evicted = c.insert(4);
        assert_eq!(evicted, Some(2));
        assert!(c.peek(1) && c.peek(3) && c.peek(4));
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut c = BufferCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.len(), 2);
        // Now 2 is LRU.
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = BufferCache::new(2);
        c.insert(1);
        c.invalidate(1);
        assert!(!c.peek(1));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = BufferCache::new(8);
        for b in 0..100 {
            c.insert(b);
            assert!(c.len() <= 8);
        }
    }

    impl BufferCache {
        /// The cached blocks, least recently used first, walked along
        /// the list's `newer` links and checked against its `older` ones.
        pub(crate) fn recency(&self) -> Vec<FsBlock> {
            let (mut out, mut prev, mut at) = (Vec::new(), NIL, self.oldest);
            while at != NIL {
                let n = &self.nodes[at as usize];
                assert_eq!(n.older, prev, "broken back link");
                out.push(n.block);
                (prev, at) = (at, n.newer);
            }
            assert_eq!(prev, self.newest, "list does not end at the newest block");
            out
        }
    }

    /// The cache as it was before the recency list: the victim is the
    /// `min_by_key` over every entry's last use. The differential test
    /// below checks [`BufferCache`] against it.
    struct ScanCache {
        capacity: usize,
        map: HashMap<FsBlock, u64>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl ScanCache {
        fn lookup(&mut self, block: FsBlock) -> bool {
            self.clock += 1;
            if let Some(seq) = self.map.get_mut(&block) {
                *seq = self.clock;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn insert(&mut self, block: FsBlock) -> Option<FsBlock> {
            self.clock += 1;
            if self.map.insert(block, self.clock).is_some() {
                return None;
            }
            if self.map.len() > self.capacity {
                let victim = *self.map.iter().min_by_key(|&(_, seq)| *seq).unwrap().0;
                self.map.remove(&victim);
                return Some(victim);
            }
            None
        }
    }

    #[test]
    fn recency_list_matches_the_min_scan() {
        use cras_sim::Rng;
        let (mut evictions, mut hits, mut refreshes) = (0u64, 0u64, 0u64);
        for seed in 0..40 {
            let mut rng = Rng::new(seed);
            let capacity = rng.range_inclusive(1, 24) as usize;
            let mut c = BufferCache::new(capacity);
            let mut r = ScanCache {
                capacity,
                map: HashMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            };
            for op in 0..3_000 {
                let ctx = format!("seed {seed} op {op}");
                // Twice the capacity in distinct blocks keeps the cache
                // full and hits common.
                let b = rng.below(2 * capacity as u64 + 2) as FsBlock;
                match rng.below(20) {
                    0..=6 => {
                        let hit = c.lookup(b);
                        assert_eq!(hit, r.lookup(b), "{ctx}: lookup {b}");
                        hits += u64::from(hit);
                    }
                    7..=15 => {
                        refreshes += u64::from(c.peek(b));
                        let victim = c.insert(b);
                        assert_eq!(victim, r.insert(b), "{ctx}: insert {b}");
                        evictions += u64::from(victim.is_some());
                    }
                    16..=17 => assert_eq!(c.peek(b), r.map.contains_key(&b), "{ctx}: peek {b}"),
                    18 => {
                        c.invalidate(b);
                        r.map.remove(&b);
                    }
                    _ => {
                        if rng.chance(0.1) {
                            c.clear();
                            r.map.clear();
                        }
                    }
                }
                assert_eq!(c.hit_stats(), (r.hits, r.misses), "{ctx}: hit_stats");
                assert_eq!(c.len(), r.map.len(), "{ctx}: len");
                // The whole eviction order, not just the next victim.
                let mut by_use: Vec<(u64, FsBlock)> = r.map.iter().map(|(&b, &s)| (s, b)).collect();
                by_use.sort_unstable();
                let order: Vec<FsBlock> = by_use.into_iter().map(|(_, b)| b).collect();
                assert_eq!(c.recency(), order, "{ctx}: recency order");
            }
        }
        assert!(
            evictions > 0 && hits > 0 && refreshes > 0,
            "evictions {evictions}, hits {hits}, refreshes {refreshes}"
        );
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        BufferCache::new(0);
    }
}
