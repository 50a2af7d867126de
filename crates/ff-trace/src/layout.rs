//! On-disk block layout.
//!
//! §3.2: *"The blocks of the traced files are sequentially mapped to the
//! local hard disk with a small random distance between files to simulate
//! a real layout of files on the disk."* §2.1 additionally assumes
//! *"sequential data in a file are usually contiguously laid out on
//! disk"* (FFS-style allocation).
//!
//! The layout assigns every file a contiguous extent of 4 KiB blocks; the
//! disk model uses global block addresses to decide whether a request is
//! sequential with the previous one (no seek) or random (seek + rotation).

use crate::model::{FileId, FileSet};
use ff_base::split_seed;
use rand::Rng;

/// Block size used for layout addressing (matches the cache page size).
pub const BLOCK_SIZE: u64 = 4096;

/// A contiguous extent of blocks assigned to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First block of the file.
    pub start: u64,
    /// Number of blocks.
    pub blocks: u64,
}

impl Extent {
    /// Exclusive end block.
    pub fn end(&self) -> u64 {
        self.start + self.blocks
    }
}

/// Sequential-with-gaps mapping of a [`FileSet`] onto disk blocks.
#[derive(Debug, Clone, Default)]
pub struct DiskLayout {
    /// One extent per file, sorted by id (the [`FileSet`] iteration
    /// order), so a lookup is a binary search.
    extents: Vec<(FileId, Extent)>,
}

impl DiskLayout {
    /// Maximum random gap between consecutive files, in blocks ("a small
    /// random distance"): up to 64 blocks = 256 KiB.
    pub const MAX_GAP_BLOCKS: u64 = 64;

    /// Lay out `files` in inode order, separated by a deterministic random
    /// gap derived from `seed`.
    pub fn build(files: &FileSet, seed: u64) -> Self {
        let mut rng = ff_base::seeded_rng(split_seed(seed, 0xD15C));
        let mut extents = Vec::with_capacity(files.len());
        let mut cursor = 0u64;
        for meta in files.iter() {
            let blocks = meta.size.pages().max(1);
            extents.push((
                meta.id,
                Extent {
                    start: cursor,
                    blocks,
                },
            ));
            cursor += blocks + rng.gen_range(1..=Self::MAX_GAP_BLOCKS);
        }
        DiskLayout { extents }
    }

    /// Extent of a file, if laid out.
    pub fn extent(&self, file: FileId) -> Option<Extent> {
        let i = self
            .extents
            .binary_search_by_key(&file, |&(id, _)| id)
            .ok()?;
        self.extents.get(i).map(|&(_, e)| e)
    }

    /// Global block address of byte `offset` within `file`.
    /// Returns `None` for unknown files or offsets past the extent.
    pub fn block_of(&self, file: FileId, offset: u64) -> Option<u64> {
        let e = self.extent(file)?;
        let rel = offset / BLOCK_SIZE;
        (rel < e.blocks).then_some(e.start + rel)
    }

    /// Number of laid-out files.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True iff no files are laid out.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileMeta;
    use ff_base::Bytes;

    fn files(sizes: &[u64]) -> FileSet {
        let mut fs = FileSet::new();
        for (i, &s) in sizes.iter().enumerate() {
            fs.insert(FileMeta {
                id: FileId(i as u64 + 1),
                name: format!("f{i}"),
                size: Bytes(s),
            });
        }
        fs
    }

    #[test]
    fn extents_do_not_overlap_and_are_ordered() {
        let fs = files(&[10_000, 5_000, 123, 4096 * 8]);
        let l = DiskLayout::build(&fs, 7);
        let mut prev_end = 0;
        for i in 1..=4u64 {
            let e = l.extent(FileId(i)).unwrap();
            assert!(e.start >= prev_end, "file {i} overlaps previous");
            assert!(e.start > prev_end || prev_end == 0, "gap must exist");
            prev_end = e.end();
        }
    }

    #[test]
    fn layout_is_deterministic_per_seed() {
        let fs = files(&[10_000, 5_000]);
        let a = DiskLayout::build(&fs, 42);
        let b = DiskLayout::build(&fs, 42);
        let c = DiskLayout::build(&fs, 43);
        assert_eq!(a.extent(FileId(2)), b.extent(FileId(2)));
        // Different seed gives a different gap (overwhelmingly likely).
        assert_ne!(a.extent(FileId(2)), c.extent(FileId(2)));
    }

    #[test]
    fn block_math_within_a_file_is_contiguous() {
        let fs = files(&[BLOCK_SIZE * 10]);
        let l = DiskLayout::build(&fs, 1);
        let b0 = l.block_of(FileId(1), 0).unwrap();
        let b1 = l.block_of(FileId(1), BLOCK_SIZE).unwrap();
        let b9 = l.block_of(FileId(1), BLOCK_SIZE * 9 + 100).unwrap();
        assert_eq!(b1, b0 + 1);
        assert_eq!(b9, b0 + 9);
    }

    #[test]
    fn unknown_file_and_past_extent() {
        let fs = files(&[100]);
        let l = DiskLayout::build(&fs, 1);
        assert!(l.block_of(FileId(99), 0).is_none());
        assert!(l.block_of(FileId(1), BLOCK_SIZE * 5).is_none());
        // Sparse ids inserted out of order: each laid-out id is found,
        // and the ids before, between and after them are not.
        let mut sparse = FileSet::new();
        for id in [30, 10, 20] {
            sparse.insert(FileMeta {
                id: FileId(id),
                name: format!("f{id}"),
                size: Bytes(100),
            });
        }
        let l = DiskLayout::build(&sparse, 1);
        for id in 0..=31 {
            let laid_out = id > 0 && id % 10 == 0;
            assert_eq!(l.extent(FileId(id)).is_some(), laid_out, "file {id}");
        }
    }

    #[test]
    fn tiny_file_occupies_one_block() {
        let fs = files(&[1]);
        let l = DiskLayout::build(&fs, 1);
        assert_eq!(l.extent(FileId(1)).unwrap().blocks, 1);
    }

    #[test]
    fn gaps_are_small() {
        let fs = files(&[4096; 100]);
        let l = DiskLayout::build(&fs, 3);
        // One-block files, each followed by a gap of 1..=64 blocks.
        for i in 1..100u64 {
            let (a, b) = (
                l.extent(FileId(i)).unwrap(),
                l.extent(FileId(i + 1)).unwrap(),
            );
            assert!((1..=DiskLayout::MAX_GAP_BLOCKS).contains(&(b.start - a.end())));
        }
        assert_eq!(l.len(), 100);
    }
}
