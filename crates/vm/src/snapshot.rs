//! Address-space capture for the checkpoint/restore subsystem.
//!
//! Two operations make `odf-snapshot` possible without giving it access to
//! the page-table internals:
//!
//! - [`Mm::capture_view`]: a read-locked walk producing the VMA layout and
//!   every present leaf translation (with its backing frame and soft-dirty
//!   state). The serializer turns this into an image, reading page
//!   contents through [`odf_pmem::FramePool::read_frame`].
//! - [`Mm::clear_soft_dirty`]: starts a new snapshot epoch: every
//!   `SOFT_DIRTY` bit reachable from this address space reads as clear
//!   afterwards, and the epoch dirty-range log is drained. A table this
//!   process owns is cleared in place. A table still shared from an
//!   On-demand fork is neither scanned nor copied: the sweep sets
//!   `SOFT_CLEAN` on this process's (write-protected) PMD entry, and the
//!   bits read as clear through it ([`walk::soft_dirty`]) while the other
//!   sharers — typically the forked child a snapshot is being serialized
//!   from — keep reading them. The table is settled before anything is
//!   written into it (`share::take`): the copy a write fault makes sheds
//!   the bits, and so does the table itself once no other process shares
//!   it. So a bgsave's table copies happen at the parent's first write
//!   in each 2 MiB range, outside the fork's stall, where On-demand-fork
//!   puts every table copy. A PMD table shared through a
//!   PUD entry (the §4 huge-page extension) is still copied eagerly when
//!   one of its huge entries is soft-dirty.
//!
//! The intended bgsave sequence is: fork (child freezes the state) →
//! `parent.clear_soft_dirty()` (new epoch begins; writes after this are
//! captured by the *next* delta) → serialize the child → destroy the child.

use odf_pagetable::{EntryFlags, ENTRIES_PER_TABLE};
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
                            soft_dirty: walk::soft_dirty(e, e),
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
                                    soft_dirty: walk::soft_dirty(e, pte),
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

    /// Begins a new snapshot epoch: every reachable `SOFT_DIRTY` bit reads
    /// as clear afterwards, and the dirty-range log is drained. Returns the
    /// number of leaf entries whose bit was cleared in place.
    ///
    /// A table still shared from an On-demand fork is flagged
    /// `SOFT_CLEAN` on this process's entry instead, in O(1) and without
    /// counting: the other sharers keep their view, and this process's
    /// first write in the range copies the table without the bits (module
    /// docs).
    pub fn clear_soft_dirty(&self) -> Result<u64> {
        let mut inner = self.inner.write();
        let mut cleared = 0u64;
        let cursor = PmdCursor::new(self.machine(), inner.pgd);
        // The last chunk swept: VMAs iterate in address order, so a 2 MiB
        // span several VMAs map through repeats only back to back.
        let mut last = None;
        for vma in inner.vmas.iter() {
            for c in walk::chunks(vma.start, vma.end) {
                if last.replace(c.base()) == Some(c.base()) {
                    continue;
                }
                if let Some(pmd) = cursor.slot(c.at) {
                    cleared += self.sweep_chunk(pmd)?;
                }
            }
        }
        inner.dirty_ranges.clear();
        Ok(cleared)
    }

    /// Sweeps the soft-dirty bits of the table (or huge entry) behind one
    /// 2 MiB chunk.
    fn sweep_chunk(&self, pmd: PmdSlot) -> Result<u64> {
        let machine = self.machine();
        let e = pmd.load();
        if !e.is_present() {
            return Ok(0);
        }
        if e.is_huge() {
            if !walk::soft_dirty(e, e) {
                return Ok(0);
            }
            // Huge-page extension: the PMD table itself may be shared
            // through the PUD entry, and the *other* sharer may be COWing
            // it from its fault path concurrently — hence the protocol,
            // which copies the table for this process when it is shared.
            let Some(pmd) = share::own_pmd_table(machine, pmd)? else {
                return Ok(0);
            };
            let old = pmd.table.fetch_clear(pmd.idx, EntryFlags::SOFT_DIRTY);
            return Ok(u64::from(walk::soft_dirty(old, old)));
        }
        let table = match share::take(machine, Slot::pte_table(&pmd, e.frame()), |_| Policy::Leave)?
        {
            Take::Owned(None) => machine.table(e.frame()),
            Take::Owned(Some(owned)) => owned.table,
            Take::StillShared => {
                // The entry is write-protected while the table is shared,
                // and the exclusive mm lock keeps this process's faults
                // off it.
                pmd.table.fetch_set(pmd.idx, EntryFlags::SOFT_CLEAN);
                return Ok(0);
            }
            _ => return Ok(0),
        };
        // The table is now exclusively ours, and settled: clear every
        // entry's bit.
        let owned = pmd.load();
        let mut cleared = 0u64;
        for idx in 0..ENTRIES_PER_TABLE {
            if walk::soft_dirty(owned, table.load(idx)) {
                table.fetch_clear(idx, EntryFlags::SOFT_DIRTY);
                cleared += 1;
            }
        }
        Ok(cleared)
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
        // The child — sharing the dirty table — still sees the soft-dirty
        // bit; the parent's sweep flagged its own entry instead.
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

    const PG: u64 = PAGE_SIZE as u64;

    /// The addresses `mm` reads as soft-dirty.
    fn dirty(mm: &Mm) -> Vec<u64> {
        let view = mm.capture_view();
        view.pages
            .iter()
            .filter(|p| p.soft_dirty)
            .map(|p| p.va)
            .collect()
    }

    fn table_copies(mm: &Mm) -> u64 {
        mm.machine().stats().snapshot().cow_table_copies
    }

    /// The sweep right after a fork copies no table (the old sweep copied
    /// one per dirty table); each copy moves to the parent's first write in
    /// its range. Fails if the sweep takes shared tables with
    /// `Policy::Copy`.
    #[test]
    fn sweep_after_fork_copies_no_table() {
        let mm = mm();
        let a = mm.mmap(4 << 20, MapParams::anon_rw()).unwrap();
        let b = a + (2 << 20);
        mm.write(a, &[1]).unwrap();
        mm.write(b, &[2]).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        let before = table_copies(&mm);
        assert_eq!(mm.clear_soft_dirty().unwrap(), 0);
        assert_eq!(table_copies(&mm), before, "the sweep copied a table");
        assert!(mm.pmd_entry(a).unwrap().is_soft_clean());
        assert!(!mm.pmd_entry(a).unwrap().is_writable());
        mm.write(a, &[3]).unwrap();
        mm.write(b, &[4]).unwrap();
        assert_eq!(table_copies(&mm), before + 2, "one copy per first write");
        drop(child);
    }

    /// The parent writes after the sweep while the child lives: the child
    /// keeps every bit, and the parent's copy has none but the new write.
    /// Fails if the table COW keeps the bits below a flagged entry
    /// (`share::stale_bits` returning 0).
    #[test]
    fn parent_write_after_sweep_copies_the_table_without_the_bits() {
        let mm = mm();
        let a = mm.mmap(8 * PG, MapParams::anon_rw()).unwrap();
        for pg in 0..4 {
            mm.write(a + pg * PG, &[pg as u8]).unwrap();
        }
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        assert!(dirty(&mm).is_empty());
        mm.write(a + PG, &[9]).unwrap();
        assert!(
            !mm.pmd_entry(a).unwrap().is_soft_clean(),
            "the copy is settled"
        );
        assert_eq!(dirty(&mm), vec![a + PG]);
        assert_eq!(
            dirty(&child),
            (0..4).map(|pg| a + pg * PG).collect::<Vec<_>>()
        );
        assert_eq!(child.read_vec(a + PG, 1).unwrap(), vec![1]);
        assert_eq!(mm.read_vec(a + PG, 1).unwrap(), vec![9]);
    }

    /// The child exits, then the parent *reads* a never-populated page in
    /// the range: the table is settled first, so the new page reads
    /// soft-dirty and the old ones clean. Fails if the fault handler
    /// inserts through a flagged entry without `take` (no settle on read
    /// insertion).
    #[test]
    fn read_insertion_below_a_flagged_entry_settles_the_table() {
        let mm = mm();
        let a = mm.mmap(8 * PG, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        drop(child);
        assert!(mm.pmd_entry(a).unwrap().is_soft_clean());
        assert_eq!(mm.read_vec(a + 5 * PG, 1).unwrap(), vec![0]);
        let pmd = mm.pmd_entry(a).unwrap();
        assert!(!pmd.is_soft_clean() && pmd.is_writable(), "settled");
        assert_eq!(dirty(&mm), vec![a + 5 * PG]);
    }

    /// A second On-demand fork while the flag is pending: the new child
    /// shares the table and reads it as the parent does, clean. Fails if
    /// On-demand fork does not carry the flag into the child's entry.
    #[test]
    fn second_on_demand_fork_carries_the_flag() {
        let mm = mm();
        let a = mm.mmap(8 * PG, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        let first = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        let second = mm.fork(ForkPolicy::OnDemand).unwrap();
        assert!(second.pmd_entry(a).unwrap().is_soft_clean());
        assert!(dirty(&second).is_empty());
        assert_eq!(dirty(&first), vec![a]);
        // The second child's own first write settles its copy.
        second.write(a + PG, &[2]).unwrap();
        assert_eq!(dirty(&second), vec![a + PG]);
        assert_eq!(second.read_vec(a, 1).unwrap(), vec![1]);
    }

    /// A Classic fork of a flagged parent: the child's copied entries hold
    /// no stale bit. Fails if `copy_pte_range` copies the raw bits below a
    /// flagged entry.
    #[test]
    fn classic_fork_of_a_flagged_parent_copies_no_stale_bit() {
        let mm = mm();
        let a = mm.mmap(8 * PG, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        mm.write(a + PG, &[2]).unwrap();
        let first = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        let classic = mm.fork(ForkPolicy::Classic).unwrap();
        assert!(!classic.pmd_entry(a).unwrap().is_soft_clean());
        assert!(dirty(&classic).is_empty());
        assert!(classic.pagemap(a, 2 * PG).iter().all(|p| !p.soft_dirty));
        assert_eq!(dirty(&first), vec![a, a + PG]);
        assert_eq!(classic.read_vec(a + PG, 1).unwrap(), vec![2]);
    }

    /// pagemap, `thp_scan` and collapse read through a flagged entry: all
    /// clean. Each fails if its reader takes the raw bit instead of
    /// `walk::soft_dirty` (pagemap's `soft_dirty`, the scan's count, the
    /// collapsed huge entry's aggregated bit).
    #[test]
    fn pagemap_scan_and_collapse_read_through_the_flag() {
        let mm = mm();
        let huge = crate::HUGE_PAGE_SIZE as u64;
        let a = mm
            .mmap_fixed(0x4000_0000, huge, MapParams::anon_rw())
            .unwrap();
        mm.populate(a, huge, true).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        assert!(child.pagemap(a, huge).iter().all(|p| p.soft_dirty));
        assert!(mm
            .pagemap(a, huge)
            .iter()
            .all(|p| p.present && !p.soft_dirty));
        let scan = mm.thp_scan(false);
        assert_eq!(scan.len(), 1);
        assert_eq!((scan[0].resident, scan[0].soft_dirty), (512, 0));
        drop(child);
        assert!(mm.pmd_entry(a).unwrap().is_soft_clean());
        assert_eq!(mm.collapse_huge(a).unwrap(), crate::ThpOutcome::Collapsed);
        let e = mm.pmd_entry(a).unwrap();
        assert!(e.is_huge() && !e.is_soft_dirty() && !e.is_soft_clean());
    }

    /// Evict, then swap in, under a flagged table whose count fell to 1:
    /// the swap entry keeps its raw bit and reads clean through the flag;
    /// the swap-in settles the table first, so the page stays clean. Fails
    /// if the settle clears present entries only.
    #[test]
    fn swap_round_trip_below_a_flagged_count_one_table() {
        let mm = mm();
        let a = mm.mmap(4 * PG, MapParams::anon_rw()).unwrap();
        mm.write_u64(a, 7).unwrap();
        mm.write_u64(a + PG, 8).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        mm.clear_soft_dirty().unwrap();
        drop(child);
        let stats = mm.evict_scan(1, &mut |_| crate::EvictDecision::Evict);
        assert_eq!(stats.evicted, 1);
        let pm = mm.pagemap(a, PG);
        assert!(pm[0].swapped && !pm[0].soft_dirty);
        assert!(mm.pmd_entry(a).unwrap().is_soft_clean());
        assert_eq!(mm.read_u64(a).unwrap(), 7);
        assert!(!mm.pmd_entry(a).unwrap().is_soft_clean());
        assert!(dirty(&mm).is_empty());
        mm.write_u64(a + PG, 9).unwrap();
        assert_eq!(dirty(&mm), vec![a + PG]);
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

/// The sweep flags shared tables and never copies one: no `Policy::Copy`
/// and no `copy_if_dirty` come back in this module. (The §4 shared-PMD
/// path copies through `share::own_pmd_table`.)
#[cfg(test)]
mod guard {
    #[test]
    fn the_sweep_never_copies_a_shared_pte_table() {
        let text = include_str!("snapshot.rs");
        let code = &text[..text.find("#[cfg(test)]").unwrap()];
        for banned in [
            ["Policy::", "Copy"].concat(),
            ["copy_if", "_dirty"].concat(),
        ] {
            assert!(
                !code.contains(banned.as_str()),
                "snapshot.rs names {banned}: the sweep flags a shared table SOFT_CLEAN instead"
            );
        }
    }
}
