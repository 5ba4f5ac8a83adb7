//! `fsck`-style consistency checking.
//!
//! Walks every inode's data and metadata blocks and cross-checks them
//! against the allocator's bitmaps: every referenced block must be
//! allocated, no block may be referenced twice, and (optionally) every
//! allocated block must be referenced. The property tests lean on this to
//! prove the allocator and the fragmenter/rearranger never corrupt the
//! file system.

use std::collections::HashMap;

use crate::fs::Ufs;
use crate::layout::{FsBlock, Ino};

/// A single inconsistency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// An inode references a block the allocator believes is free.
    ReferencedButFree {
        /// The inode.
        ino: Ino,
        /// The block.
        block: FsBlock,
    },
    /// Two references to the same block.
    DoublyReferenced {
        /// First referencing inode.
        first: Ino,
        /// Second referencing inode.
        second: Ino,
        /// The block.
        block: FsBlock,
    },
    /// A block is allocated but no inode references it (a leak).
    AllocatedButUnreferenced {
        /// The block.
        block: FsBlock,
    },
    /// An inode's size disagrees with its mapped block count.
    SizeMismatch {
        /// The inode.
        ino: Ino,
        /// Blocks implied by size.
        expected_blocks: u64,
        /// Blocks actually mapped.
        mapped_blocks: u64,
    },
}

/// Full consistency report.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All inconsistencies found.
    pub errors: Vec<CheckError>,
    /// Blocks referenced by files (data + metadata).
    pub referenced_blocks: u64,
    /// Files checked.
    pub files: usize,
}

impl CheckReport {
    /// Whether the file system is consistent.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Checks the file system. With `check_leaks`, allocated-but-unreferenced
/// blocks are reported too (block 0, the superblock, is exempt).
pub fn check(fs: &Ufs, check_leaks: bool) -> CheckReport {
    let mut owner: HashMap<FsBlock, Ino> = HashMap::new();
    let mut report = CheckReport::default();
    for (_name, ino) in fs.files() {
        report.files += 1;
        let inode = fs.inode(ino);
        let mapped = inode.data_blocks();
        let expected = inode.nblocks();
        if mapped.len() as u64 != expected {
            report.errors.push(CheckError::SizeMismatch {
                ino,
                expected_blocks: expected,
                mapped_blocks: mapped.len() as u64,
            });
        }
        for &b in mapped.iter().chain(inode.meta_blocks()) {
            report.referenced_blocks += 1;
            if fs.is_block_free(b) {
                report
                    .errors
                    .push(CheckError::ReferencedButFree { ino, block: b });
            }
            if let Some(&first) = owner.get(&b) {
                report.errors.push(CheckError::DoublyReferenced {
                    first,
                    second: ino,
                    block: b,
                });
            } else {
                owner.insert(b, ino);
            }
        }
    }
    if check_leaks {
        for b in 1..fs.layout().total_blocks {
            if !fs.is_block_free(b) && !owner.contains_key(&b) {
                report
                    .errors
                    .push(CheckError::AllocatedButUnreferenced { block: b });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{MkfsParams, BSIZE};
    use cras_disk::geometry::DiskGeometry;

    fn fs() -> Ufs {
        let geom = DiskGeometry::st32550n();
        Ufs::format(&geom, MkfsParams::tuned(&geom), 5)
    }

    #[test]
    fn fresh_fs_is_clean() {
        let fs = fs();
        let rep = check(&fs, true);
        assert!(rep.is_clean(), "{:?}", rep.errors);
        assert_eq!(rep.files, 0);
    }

    #[test]
    fn files_survive_check() {
        let mut fs = fs();
        for i in 0..5 {
            let ino = fs.create(&format!("f{i}")).unwrap();
            fs.append(ino, (i as u64 + 1) * 3 * BSIZE as u64 + 100)
                .unwrap();
        }
        let rep = check(&fs, true);
        assert!(rep.is_clean(), "{:?}", rep.errors);
        assert_eq!(rep.files, 5);
        assert!(rep.referenced_blocks > 15);
    }

    #[test]
    fn remove_does_not_leak() {
        let mut fs = fs();
        let a = fs.create("a").unwrap();
        fs.append(a, 20 << 20).unwrap(); // Deep enough for indirects.
        fs.create("b").unwrap();
        let b = fs.lookup("b").unwrap();
        fs.append(b, 1 << 20).unwrap();
        fs.remove("a").unwrap();
        let rep = check(&fs, true);
        assert!(rep.is_clean(), "{:?}", rep.errors);
        assert_eq!(rep.files, 1);
    }

    #[test]
    fn corruption_is_detected() {
        let mut fs = fs();
        let ino = fs.create("x").unwrap();
        fs.append(ino, 4 * BSIZE as u64).unwrap();
        // Corrupt: free a block still referenced by the inode.
        let victim = fs.inode(ino).data_blocks()[1];
        fs.free_block_for_tests(victim);
        let rep = check(&fs, false);
        assert!(!rep.is_clean());
        assert!(matches!(
            rep.errors[0],
            CheckError::ReferencedButFree { block, .. } if block == victim
        ));
    }
}
