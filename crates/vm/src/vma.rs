//! Virtual memory areas and the per-process VMA tree.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{Result, VmError};
use crate::file::VmFile;
use crate::prot::Prot;

/// What backs a mapping.
#[derive(Clone)]
pub enum Backing {
    /// Anonymous memory (zero-filled on first touch).
    Anonymous,
    /// A file, mapped starting at the given page offset (§3.7 of the
    /// paper).
    File {
        /// The backing file.
        file: Arc<VmFile>,
        /// Page offset into the file of the first mapped page.
        pgoff: u64,
    },
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Anonymous => write!(f, "anon"),
            Backing::File { pgoff, .. } => write!(f, "file@pg{pgoff}"),
        }
    }
}

/// Parameters of an `mmap` call.
#[derive(Clone, Debug)]
pub struct MapParams {
    /// Protection of the new region.
    pub prot: Prot,
    /// `MAP_SHARED` (`true`) vs `MAP_PRIVATE` (`false`).
    pub shared: bool,
    /// Back the region with 2 MiB huge pages (`MAP_HUGETLB` analog).
    pub huge: bool,
    /// Backing store.
    pub backing: Backing,
}

impl MapParams {
    /// Private anonymous read-write mapping — the configuration of every
    /// microbenchmark in the paper (§5.2.1).
    pub fn anon_rw() -> Self {
        Self {
            prot: Prot::READ_WRITE,
            shared: false,
            huge: false,
            backing: Backing::Anonymous,
        }
    }

    /// Private anonymous read-write mapping backed by 2 MiB huge pages.
    pub fn anon_rw_huge() -> Self {
        Self {
            huge: true,
            ..Self::anon_rw()
        }
    }
}

/// One virtual memory area: a contiguous range with uniform protection and
/// backing.
#[derive(Clone, Debug)]
pub struct Vma {
    /// First mapped byte.
    pub start: u64,
    /// One past the last mapped byte (page-aligned).
    pub end: u64,
    /// Protection.
    pub prot: Prot,
    /// Shared vs private.
    pub shared: bool,
    /// Whether the region is backed by 2 MiB pages.
    pub huge: bool,
    /// Backing store.
    pub backing: Backing,
}

impl Vma {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the VMA is zero-length (never true for tree members).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the VMA contains an address.
    pub fn contains(&self, addr: u64) -> bool {
        (self.start..self.end).contains(&addr)
    }

    /// File page offset backing a given virtual address, for file VMAs.
    pub fn file_pgoff_of(&self, addr: u64) -> Option<u64> {
        match &self.backing {
            Backing::Anonymous => None,
            Backing::File { pgoff, .. } => {
                Some(pgoff + (addr - self.start) / odf_pmem::PAGE_SIZE as u64)
            }
        }
    }

    /// Splits the VMA at `addr`, returning the upper part and shrinking
    /// `self` to the lower part. File offsets are adjusted.
    ///
    /// # Panics
    ///
    /// Panics unless `start < addr < end` and `addr` is page-aligned.
    pub fn split_at(&mut self, addr: u64) -> Vma {
        assert!(self.start < addr && addr < self.end, "split outside vma");
        assert_eq!(addr % odf_pmem::PAGE_SIZE as u64, 0, "unaligned split");
        let mut upper = self.clone();
        upper.start = addr;
        if let Backing::File { pgoff, .. } = &mut upper.backing {
            *pgoff += (addr - self.start) / odf_pmem::PAGE_SIZE as u64;
        }
        self.end = addr;
        upper
    }
}

/// The per-process set of VMAs, ordered by start address.
///
/// The kernel uses an rbtree (now a maple tree); a `BTreeMap` keyed by
/// start address gives the same interface guarantees: O(log n) lookup of
/// the VMA containing an address, ordered iteration, and range overlap
/// queries.
#[derive(Clone, Default)]
pub struct VmaTree {
    map: BTreeMap<u64, Vma>,
}

impl VmaTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the tree has no VMAs.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The VMA containing `addr`, if any.
    pub fn find(&self, addr: u64) -> Option<&Vma> {
        self.map
            .range(..=addr)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(addr))
    }

    /// Whether any VMA overlaps `[start, end)`.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        self.iter_range(start, end).next().is_some()
    }

    /// Whether VMAs map all of `[start, end)`, with no hole.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        let mut cursor = start;
        for vma in self.iter_range(start, end) {
            if vma.start > cursor {
                return false;
            }
            cursor = vma.end;
        }
        cursor >= end
    }

    /// Iterates over VMAs overlapping `[start, end)`, in address order.
    pub fn iter_range(&self, start: u64, end: u64) -> impl Iterator<Item = &Vma> {
        // The candidate set: the VMA starting at or before `start` plus all
        // VMAs starting inside the range.
        let first = self
            .map
            .range(..=start)
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(start);
        self.map
            .range(first..end)
            .map(|(_, v)| v)
            .filter(move |v| v.end > start && v.start < end)
    }

    /// Iterates over all VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.map.values()
    }

    /// Inserts a VMA.
    ///
    /// Returns [`VmError::Overlap`] if it intersects an existing VMA.
    pub fn insert(&mut self, vma: Vma) -> Result<()> {
        if vma.start >= vma.end {
            return Err(VmError::InvalidArgument);
        }
        if self.overlaps(vma.start, vma.end) {
            return Err(VmError::Overlap);
        }
        self.map.insert(vma.start, vma);
        Ok(())
    }

    /// Removes the parts of all VMAs inside `[start, end)`, splitting
    /// boundary VMAs, and returns the removed pieces.
    pub fn remove_range(&mut self, start: u64, end: u64) -> Vec<Vma> {
        let keys: Vec<u64> = self.iter_range(start, end).map(|v| v.start).collect();
        let mut removed = Vec::new();
        for key in keys {
            let mut vma = self.map.remove(&key).expect("key fetched above");
            if vma.start < start {
                let upper = vma.split_at(start);
                self.map.insert(vma.start, vma);
                vma = upper;
            }
            if vma.end > end {
                let upper = vma.split_at(end);
                self.map.insert(upper.start, upper);
            }
            removed.push(vma);
        }
        removed
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.values().map(Vma::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, end: u64) -> Vma {
        Vma {
            start,
            end,
            prot: Prot::READ_WRITE,
            shared: false,
            huge: false,
            backing: Backing::Anonymous,
        }
    }

    #[test]
    fn find_locates_containing_vma() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x3000)).unwrap();
        t.insert(vma(0x5000, 0x6000)).unwrap();
        assert!(t.find(0x1000).is_some());
        assert!(t.find(0x2FFF).is_some());
        assert!(t.find(0x3000).is_none());
        assert!(t.find(0x4000).is_none());
        assert!(t.find(0x5000).is_some());
    }

    #[test]
    fn overlapping_insert_is_rejected() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x3000)).unwrap();
        assert_eq!(t.insert(vma(0x2000, 0x4000)), Err(VmError::Overlap));
        assert_eq!(t.insert(vma(0x0, 0x1001)), Err(VmError::Overlap));
        assert!(t.insert(vma(0x3000, 0x4000)).is_ok());
    }

    #[test]
    fn empty_vma_is_invalid() {
        let mut t = VmaTree::new();
        assert_eq!(t.insert(vma(0x1000, 0x1000)), Err(VmError::InvalidArgument));
    }

    #[test]
    fn iter_range_returns_overlaps_only() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x2000)).unwrap();
        t.insert(vma(0x3000, 0x4000)).unwrap();
        t.insert(vma(0x5000, 0x6000)).unwrap();
        let hits: Vec<u64> = t.iter_range(0x1800, 0x5001).map(|v| v.start).collect();
        assert_eq!(hits, vec![0x1000, 0x3000, 0x5000]);
        assert_eq!(t.iter_range(0x2000, 0x3000).count(), 0);
    }

    #[test]
    fn remove_range_splits_boundaries() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x9000)).unwrap();
        let removed = t.remove_range(0x3000, 0x5000);
        assert_eq!(removed.len(), 1);
        assert_eq!((removed[0].start, removed[0].end), (0x3000, 0x5000));
        assert_eq!(t.len(), 2);
        assert!(t.find(0x2000).is_some());
        assert!(t.find(0x3000).is_none());
        assert!(t.find(0x4FFF).is_none());
        assert!(t.find(0x5000).is_some());
        assert_eq!(t.mapped_bytes(), 0x6000);
    }

    #[test]
    fn remove_range_spanning_multiple_vmas() {
        let mut t = VmaTree::new();
        t.insert(vma(0x1000, 0x2000)).unwrap();
        t.insert(vma(0x2000, 0x3000)).unwrap();
        t.insert(vma(0x4000, 0x5000)).unwrap();
        let removed = t.remove_range(0x0, 0x10000);
        assert_eq!(removed.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn split_adjusts_file_offset() {
        let file = Arc::new(VmFile::from_bytes(vec![0u8; 0x8000]));
        let mut v = Vma {
            start: 0x10000,
            end: 0x18000,
            prot: Prot::READ,
            shared: false,
            huge: false,
            backing: Backing::File { file, pgoff: 2 },
        };
        let upper = v.split_at(0x14000);
        assert_eq!(v.file_pgoff_of(0x10000), Some(2));
        assert_eq!(upper.file_pgoff_of(0x14000), Some(6));
    }

    #[test]
    fn file_pgoff_walks_with_address() {
        let file = Arc::new(VmFile::from_bytes(vec![0u8; 0x4000]));
        let v = Vma {
            start: 0x1000,
            end: 0x4000,
            prot: Prot::READ,
            shared: true,
            huge: false,
            backing: Backing::File { file, pgoff: 0 },
        };
        assert_eq!(v.file_pgoff_of(0x1000), Some(0));
        assert_eq!(v.file_pgoff_of(0x3FFF), Some(2));
        assert_eq!(vma(0, 0x1000).file_pgoff_of(0), None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn vma(start: u64, end: u64) -> Vma {
        Vma {
            start,
            end,
            prot: Prot::READ_WRITE,
            shared: false,
            huge: false,
            backing: Backing::Anonymous,
        }
    }

    /// A model of the tree: per-page ownership.
    fn model_pages(ranges: &BTreeMap<u64, u64>) -> Vec<u64> {
        ranges
            .iter()
            .flat_map(|(&s, &e)| (s..e).step_by(4096))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Insert/remove sequences agree with a per-page model: `find`
        /// hits exactly the mapped pages, and `mapped_bytes` matches.
        #[test]
        fn tree_matches_page_model(
            ops in proptest::collection::vec(
                (0u64..64, 1u64..16, any::<bool>()), 1..40
            )
        ) {
            let mut tree = VmaTree::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (page, pages, remove) in ops {
                let start = page * 4096;
                let end = (page + pages).min(80) * 4096;
                if remove {
                    tree.remove_range(start, end);
                    // Model removal with splitting.
                    let snapshot: Vec<(u64, u64)> =
                        model.iter().map(|(&s, &e)| (s, e)).collect();
                    for (s, e) in snapshot {
                        if s < end && e > start {
                            model.remove(&s);
                            if s < start {
                                model.insert(s, start);
                            }
                            if e > end {
                                model.insert(end, e);
                            }
                        }
                    }
                } else if !model.iter().any(|(&s, &e)| s < end && e > start) {
                    tree.insert(vma(start, end)).unwrap();
                    model.insert(start, end);
                } else {
                    prop_assert!(tree.insert(vma(start, end)).is_err());
                }
                // Page-level agreement.
                for probe in (0..80u64 * 4096).step_by(4096) {
                    let in_model =
                        model.iter().any(|(&s, &e)| probe >= s && probe < e);
                    prop_assert_eq!(
                        tree.find(probe).is_some(),
                        in_model,
                        "page {:#x}",
                        probe
                    );
                }
                let model_bytes: u64 = model.iter().map(|(&s, &e)| e - s).sum();
                prop_assert_eq!(tree.mapped_bytes(), model_bytes);
                prop_assert_eq!(tree.len(), model.len());
                prop_assert_eq!(model_pages(&model).len() as u64 * 4096, model_bytes);
            }
        }
    }
}
