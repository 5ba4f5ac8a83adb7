//! Consistent-hash ring assigning titles to shards.
//!
//! Each shard contributes `vnodes` points to a 64-bit hash circle; a
//! title lands on the first point clockwise of its own hash, and its
//! replicas continue clockwise to the next points owned by *distinct*
//! shards. Adding or removing a shard therefore moves only the titles
//! whose arc changed hands — about `1/N` of the catalog — while every
//! other title keeps its shard set. That stability is what makes
//! shard-level failover cheap: the survivors already hold the replicas
//! the ring said they should.
//!
//! Hashing is deliberately self-contained and deterministic (FNV-1a
//! with a splitmix64 finalizer): the std hasher is randomly seeded per
//! process, which would re-place the whole catalog on every run and
//! break byte-identical replay.

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: FNV-1a alone clusters on short keys; the mix
/// spreads points around the full circle. Also reused by the gateway to
/// derive independent per-shard seeds from the cluster seed.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic position of a title on the circle.
pub fn title_point(title: &str) -> u64 {
    mix(fnv1a(title.as_bytes()))
}

/// A consistent-hash ring over shard ids.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard)` sorted by point (ties broken by shard id, which
    /// can only collide across shards with astronomically small odds).
    points: Vec<(u64, u32)>,
    vnodes: usize,
}

impl Ring {
    /// Builds a ring with `vnodes` points per shard.
    pub fn new(shards: impl IntoIterator<Item = u32>, vnodes: usize) -> Ring {
        assert!(vnodes > 0, "a shard must own at least one point");
        let mut ring = Ring {
            points: Vec::new(),
            vnodes,
        };
        for s in shards {
            ring.add_shard(s);
        }
        ring
    }

    /// Adds a shard's points. Idempotent for a shard already present.
    pub fn add_shard(&mut self, shard: u32) {
        if self.points.iter().any(|&(_, s)| s == shard) {
            return;
        }
        for v in 0..self.vnodes as u64 {
            let point = mix(fnv1a(&shard.to_le_bytes()) ^ mix(v));
            self.points.push((point, shard));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's points (a dead shard stops receiving *new*
    /// placements; titles already recorded keep their replica sets).
    pub fn remove_shard(&mut self, shard: u32) {
        self.points.retain(|&(_, s)| s != shard);
    }

    /// The `k` distinct shards holding `title`, primary first: the walk
    /// starts at the first point clockwise of the title's hash and skips
    /// points of shards already chosen. Returns fewer than `k` when the
    /// ring has fewer distinct shards.
    pub fn replicas(&self, title: &str, k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k);
        if self.points.is_empty() || k == 0 {
            return out;
        }
        let p = title_point(title);
        let start = self.points.partition_point(|&(pt, _)| pt < p);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// The primary shard for `title`.
    pub fn primary(&self, title: &str) -> Option<u32> {
        self.replicas(title, 1).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titles(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("title{i:04}.mov")).collect()
    }

    #[test]
    fn replicas_are_distinct_and_primary_first() {
        let ring = Ring::new(0..4, 64);
        for t in titles(500) {
            let r = ring.replicas(&t, 3);
            assert_eq!(r.len(), 3);
            let mut d = r.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "replicas collide for {t}: {r:?}");
            assert_eq!(r[0], ring.primary(&t).unwrap());
        }
    }

    #[test]
    fn assignment_stable_under_shard_addition() {
        // Adding a fifth shard to a four-shard ring must move only the
        // titles whose arc the newcomer captured — about 1/5 of the
        // catalog — and never reshuffle titles among the old shards.
        let before = Ring::new(0..4, 64);
        let mut after = before.clone();
        after.add_shard(4);
        let ts = titles(2000);
        let mut moved = 0;
        for t in &ts {
            let a = before.primary(t).unwrap();
            let b = after.primary(t).unwrap();
            if a != b {
                assert_eq!(b, 4, "{t} moved between old shards: {a} -> {b}");
                moved += 1;
            }
        }
        let frac = moved as f64 / ts.len() as f64;
        assert!(
            (0.10..=0.35).contains(&frac),
            "expected ~1/5 of titles to move, got {frac:.3}"
        );
    }

    #[test]
    fn assignment_stable_under_shard_removal() {
        // Removing a shard must move exactly the titles it owned, and
        // each of them only to the next shard on its arc.
        let before = Ring::new(0..4, 64);
        let mut after = before.clone();
        after.remove_shard(2);
        let ts = titles(2000);
        let mut moved = 0;
        for t in &ts {
            let a = before.primary(t).unwrap();
            let b = after.primary(t).unwrap();
            if a == 2 {
                assert_ne!(b, 2);
                moved += 1;
            } else {
                assert_eq!(a, b, "{t} moved although shard 2 never owned it");
            }
        }
        let frac = moved as f64 / ts.len() as f64;
        assert!(
            (0.15..=0.40).contains(&frac),
            "expected ~1/4 of titles to move, got {frac:.3}"
        );
    }

    #[test]
    fn replica_sets_stable_under_removal() {
        // For titles that did not use the removed shard, the whole
        // replica set (not just the primary) is unchanged.
        let before = Ring::new(0..5, 64);
        let mut after = before.clone();
        after.remove_shard(3);
        for t in titles(1000) {
            let a = before.replicas(&t, 2);
            if !a.contains(&3) {
                assert_eq!(a, after.replicas(&t, 2), "{t}");
            }
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let ring = Ring::new(0..4, 64);
        let mut counts = [0usize; 4];
        let ts = titles(4000);
        for t in &ts {
            counts[ring.primary(t).unwrap() as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            let share = c as f64 / ts.len() as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "shard {s} owns {share:.3} of the catalog"
            );
        }
    }

    #[test]
    fn ring_walk_handles_short_rings() {
        let ring = Ring::new(0..2, 8);
        assert_eq!(ring.replicas("x", 5).len(), 2);
        let empty = Ring::new(std::iter::empty(), 8);
        assert!(empty.replicas("x", 2).is_empty());
        assert_eq!(empty.primary("x"), None);
    }
}
