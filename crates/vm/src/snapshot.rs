//! Address-space capture for the checkpoint/restore subsystem.
//!
//! Two operations make `odf-snapshot` possible without giving it access to
//! the page-table internals:
//!
//! - [`Mm::capture_view`]: a read-locked walk producing the VMA layout and
//!   every present leaf translation (with its backing frame and soft-dirty
//!   state). The serializer turns this into an image, reading page
//!   contents through [`odf_pmem::FramePool::read_frame`].
//! - [`Mm::clear_soft_dirty`]: starts a new snapshot epoch by clearing
//!   every `SOFT_DIRTY` bit reachable from this address space and draining
//!   the epoch dirty-range log. Shared tables (from an On-demand fork) are
//!   **copied** before clearing when they carry soft-dirty bits, so the
//!   other sharers — typically the forked child a snapshot is being
//!   serialized from — keep their dirty view; clean shared tables stay
//!   shared, keeping the sweep cost proportional to the dirtied area.
//!
//! The intended bgsave sequence is: fork (child freezes the state) →
//! `parent.clear_soft_dirty()` (new epoch begins; writes after this are
//! captured by the *next* delta) → serialize the child → destroy the child.

use std::collections::HashSet;

use odf_pagetable::{EntryFlags, Table, ENTRIES_PER_TABLE};
use odf_pmem::FrameId;

use crate::error::Result;
use crate::mm::Mm;
use crate::prot::Prot;
use crate::share::{self, Policy, Slot, Take};
use crate::walk::{self, PmdCursor, PmdSlot, Reach};

/// One VMA of a captured address space, reduced to what a snapshot image
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmaInfo {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
    /// Protection at capture time.
    pub prot: Prot,
    /// `MAP_SHARED` semantics.
    pub shared: bool,
    /// 2 MiB-granular mapping.
    pub huge: bool,
    /// Whether the VMA was file-backed. Restore rebuilds file-backed VMAs
    /// as anonymous memory holding the captured contents (the image does
    /// not reference the original file).
    pub file_backed: bool,
}

/// One present leaf translation: a 4 KiB page, or a 2 MiB compound page
/// for `huge` entries.
#[derive(Clone, Copy, Debug)]
pub struct LeafPage {
    /// Virtual address the page is mapped at (for huge pages, the start of
    /// the captured sub-range — clamped to the VMA).
    pub va: u64,
    /// Backing frame (for huge pages, the first captured sub-frame).
    pub frame: FrameId,
    /// Number of consecutive 4 KiB frames captured (1, or up to 512 for a
    /// huge entry clamped to its VMA).
    pub pages: u32,
    /// Part of a 2 MiB compound mapping.
    pub huge: bool,
    /// Written since the last `clear_soft_dirty` epoch.
    pub soft_dirty: bool,
}

/// A point-in-time view of an address space, produced by
/// [`Mm::capture_view`] and consumed by the `odf-snapshot` serializer.
#[derive(Clone, Debug, Default)]
pub struct AddressSpaceView {
    /// The VMA layout, in address order.
    pub vmas: Vec<VmaInfo>,
    /// Every present leaf translation, in address order.
    pub pages: Vec<LeafPage>,
    /// Ranges re-created or discarded wholesale since the last epoch (see
    /// `MmInner::dirty_ranges`); a delta must not carry previous-epoch
    /// content forward anywhere inside them.
    pub dirty_ranges: Vec<(u64, u64)>,
}

impl Mm {
    /// Captures the VMA layout and all present leaf translations.
    ///
    /// Takes the address-space lock shared: the view is consistent with
    /// respect to mapping changes. Faults also run under the shared lock,
    /// so a capture of a *live* address space may interleave with them —
    /// each leaf is read atomically and a table COWed mid-read is read
    /// again through its copy, but concurrently faulted-in pages may or may
    /// not appear. The bgsave pattern captures a frozen forked child, whose
    /// view is exact.
    pub fn capture_view(&self) -> AddressSpaceView {
        let inner = self.inner.read();
        let machine = self.machine();
        let mut view = AddressSpaceView {
            dirty_ranges: inner.dirty_ranges.clone(),
            ..Default::default()
        };
        let cursor = PmdCursor::new(machine, inner.pgd);
        for vma in inner.vmas.iter() {
            view.vmas.push(VmaInfo {
                start: vma.start,
                end: vma.end,
                prot: vma.prot,
                shared: vma.shared,
                huge: vma.huge,
                file_backed: matches!(vma.backing, crate::vma::Backing::File { .. }),
            });
            // A live capture holds the mm lock shared only: a sibling
            // thread's table COW can re-point a slot mid-read, and the old
            // table's last sharer can then clear, free and reuse it. A
            // chunk's leaves count only if the walk to them held
            // afterwards; otherwise the chunk is read again through the
            // current entry, whose copy holds the same entries (DESIGN.md
            // §4.1 rule 7). Each retry needs a table COW or free, so this
            // ends.
            for c in walk::chunks(vma.start, vma.end) {
                let read = view.pages.len();
                while let Some(pmd) = cursor.slot(c.at) {
                    let e = pmd.load();
                    let held = if !e.is_present() {
                        walk::holds(&[pmd.reach()])
                    } else if e.is_huge() {
                        let ptes = c.ptes();
                        view.pages.push(LeafPage {
                            va: c.at.as_u64(),
                            frame: e.frame().offset(ptes.start),
                            pages: ptes.len() as u32,
                            huge: true,
                            soft_dirty: e.is_soft_dirty(),
                        });
                        walk::holds(&[pmd.reach()])
                    } else if let Ok(reach) = Reach::enter(machine, pmd.table, pmd.idx, e) {
                        for idx in c.ptes() {
                            let mut pte = reach.table.load(idx);
                            // An evicted page still belongs in the snapshot:
                            // fault it back in (capture holds the shared
                            // lock, same as any fault). On allocation failure
                            // the page is skipped — best effort, like a
                            // racing unmap. A swap-in that COWed the table
                            // re-points the slot, and the chunk is re-read.
                            if pte.is_swap()
                                && crate::fault::handle(machine, &inner, c.va(idx), false).is_ok()
                            {
                                pte = reach.table.load(idx);
                            }
                            if pte.is_present() {
                                view.pages.push(LeafPage {
                                    va: c.va(idx).as_u64(),
                                    frame: pte.frame(),
                                    pages: 1,
                                    huge: false,
                                    soft_dirty: pte.is_soft_dirty(),
                                });
                            }
                        }
                        walk::holds(&[pmd.reach(), reach])
                    } else {
                        false
                    };
                    if held {
                        break;
                    }
                    view.pages.truncate(read);
                }
            }
        }
        view
    }

    /// Begins a new snapshot epoch: clears every reachable `SOFT_DIRTY`
    /// bit and drains the dirty-range log. Returns the number of leaf
    /// entries whose bit was cleared.
    ///
    /// Shared tables carrying soft-dirty bits are copied for this process
    /// first (the other sharers keep their view — the §3.4 table-COW rules
    /// applied from the sweep instead of a fault); shared tables with no
    /// soft-dirty bits stay shared untouched.
    pub fn clear_soft_dirty(&self) -> Result<u64> {
        let mut inner = self.inner.write();
        let mut cleared = 0u64;
        // Chunks whose table was already swept (several VMAs can map
        // through one 2 MiB span).
        let mut done = HashSet::new();
        let ranges: Vec<(u64, u64)> = inner.vmas.iter().map(|v| (v.start, v.end)).collect();
        let cursor = PmdCursor::new(self.machine(), inner.pgd);
        for (start, end) in ranges {
            for c in walk::chunks(start, end) {
                if done.insert(c.base()) {
                    if let Some(pmd) = cursor.slot(c.at) {
                        cleared += self.sweep_chunk(pmd)?;
                    }
                }
            }
        }
        inner.dirty_ranges.clear();
        Ok(cleared)
    }

    /// Sweeps the soft-dirty bits of the whole table(s) behind one 2 MiB
    /// chunk.
    fn sweep_chunk(&self, pmd: PmdSlot) -> Result<u64> {
        let machine = self.machine();
        // Huge-page extension: the PMD table itself may be shared through
        // the PUD entry, and the *other* sharer may be COWing it from its
        // fault path concurrently — hence the protocol, not a bare check.
        let pmd = match share::take(machine, Slot::pmd_table(&pmd), copy_if_dirty)? {
            Take::Owned(None) => pmd,
            Take::Owned(Some(owned)) => pmd.with_table(owned),
            _ => return Ok(0),
        };
        let e = pmd.load();
        if !e.is_present() {
            return Ok(0);
        }
        if e.is_huge() {
            let old = pmd.table.fetch_clear(pmd.idx, EntryFlags::SOFT_DIRTY);
            return Ok(old.is_soft_dirty() as u64);
        }
        let table = match share::take(machine, Slot::pte_table(&pmd, e.frame()), copy_if_dirty)? {
            Take::Owned(None) => machine.table(e.frame()),
            Take::Owned(Some(owned)) => owned.table,
            _ => return Ok(0),
        };
        // The table is now exclusively ours: clear every entry's bit.
        let mut cleared = 0u64;
        for idx in 0..ENTRIES_PER_TABLE {
            if table.load(idx).is_soft_dirty() {
                table.fetch_clear(idx, EntryFlags::SOFT_DIRTY);
                cleared += 1;
            }
        }
        Ok(cleared)
    }
}

/// The sweep's policy for a table that is still shared: copy it when it
/// carries soft-dirty bits, so the other sharers keep their dirty view;
/// leave a clean one shared, keeping the sweep O(dirtied area).
fn copy_if_dirty(table: &Table) -> Policy {
    if (0..ENTRIES_PER_TABLE).any(|i| table.load(i).is_soft_dirty()) {
        Policy::Copy
    } else {
        Policy::Leave
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::fork::ForkPolicy;
    use crate::machine::Machine;
    use crate::vma::MapParams;
    use odf_pmem::PAGE_SIZE;

    fn mm() -> Mm {
        Mm::new(Machine::new(128 << 20)).unwrap()
    }

    #[test]
    fn capture_lists_vmas_and_present_pages() {
        let mm = mm();
        let a = mm.mmap(8 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, b"hello").unwrap();
        mm.write(a + 3 * PAGE_SIZE as u64, b"world").unwrap();
        let view = mm.capture_view();
        assert_eq!(view.vmas.len(), 1);
        assert_eq!(view.vmas[0].start, a);
        let vas: Vec<u64> = view.pages.iter().map(|p| p.va).collect();
        assert_eq!(vas, vec![a, a + 3 * PAGE_SIZE as u64]);
        assert!(view.pages.iter().all(|p| p.soft_dirty));
    }

    #[test]
    fn clear_soft_dirty_starts_a_fresh_epoch() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        mm.write(a + PAGE_SIZE as u64, &[2]).unwrap();
        assert_eq!(mm.clear_soft_dirty().unwrap(), 2);
        assert!(mm.capture_view().pages.iter().all(|p| !p.soft_dirty));
        // A new write re-dirties exactly one page.
        mm.write(a + PAGE_SIZE as u64, &[3]).unwrap();
        let dirty: Vec<u64> = mm
            .capture_view()
            .pages
            .iter()
            .filter(|p| p.soft_dirty)
            .map(|p| p.va)
            .collect();
        assert_eq!(dirty, vec![a + PAGE_SIZE as u64]);
    }

    #[test]
    fn clearing_parent_preserves_forked_childs_dirty_view() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[7]).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        // The child — sharing the (formerly) dirty table — still sees the
        // soft-dirty bit; the parent's sweep copied the table for itself.
        assert!(child.capture_view().pages[0].soft_dirty);
        assert!(!mm.capture_view().pages[0].soft_dirty);
        // And the parent's copy still resolves the same content.
        assert_eq!(mm.read_vec(a, 1).unwrap(), vec![7]);
        assert_eq!(child.read_vec(a, 1).unwrap(), vec![7]);
    }

    #[test]
    fn clean_shared_tables_stay_shared_across_the_sweep() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[7]).unwrap();
        mm.clear_soft_dirty().unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        let table_frame = mm.pmd_entry(a).unwrap().frame();
        assert_eq!(mm.machine().pool().pt_share_count(table_frame), 2);
        mm.clear_soft_dirty().unwrap();
        // Nothing was dirty, so no table copy happened.
        assert_eq!(mm.machine().pool().pt_share_count(table_frame), 2);
        drop(child);
    }

    #[test]
    fn discarded_and_remapped_ranges_are_logged() {
        let mm = mm();
        let a = mm.mmap(8 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.clear_soft_dirty().unwrap();
        assert!(mm.capture_view().dirty_ranges.is_empty());
        mm.madvise_dontneed(a, 2 * PAGE_SIZE as u64).unwrap();
        let view = mm.capture_view();
        assert_eq!(view.dirty_ranges, vec![(a, a + 2 * PAGE_SIZE as u64)]);
    }

    #[test]
    fn mremap_marks_moved_pages_soft_dirty() {
        let mm = mm();
        let a = mm.mmap(2 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[9]).unwrap();
        mm.clear_soft_dirty().unwrap();
        let b = mm
            .mremap(a, 2 * PAGE_SIZE as u64, 4 * PAGE_SIZE as u64)
            .unwrap();
        let view = mm.capture_view();
        let moved = view.pages.iter().find(|p| p.va == b).unwrap();
        assert!(moved.soft_dirty, "moved translation must be re-captured");
        assert!(view
            .dirty_ranges
            .iter()
            .any(|&(s, e)| s <= b && b + 4 * PAGE_SIZE as u64 <= e));
    }

    #[test]
    fn huge_pages_capture_and_sweep() {
        let mm = mm();
        let a = mm
            .mmap(2 * crate::HUGE_PAGE_SIZE as u64, MapParams::anon_rw_huge())
            .unwrap();
        mm.write(a, &[5]).unwrap();
        let view = mm.capture_view();
        let page = view.pages.iter().find(|p| p.va == a).unwrap();
        assert!(page.huge);
        assert_eq!(page.pages, ENTRIES_PER_TABLE as u32);
        assert!(page.soft_dirty);
        assert_eq!(mm.clear_soft_dirty().unwrap(), 1);
        assert!(!mm.capture_view().pages[0].soft_dirty);
    }
}
