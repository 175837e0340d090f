//! Address-space introspection: the `/proc/<pid>/smaps` and
//! `/proc/<pid>/pagemap` analogs.
//!
//! Both walk the real page tables under the shared `mm` lock, so they see
//! exactly what the fault handler sees — including tables still shared
//! from an On-demand fork, which `/proc` on a stock kernel cannot show.
//! The paper's evaluation relies on this visibility to verify that fork
//! deferred the copies it claims to defer (§5.2.3): `smaps()` splits each
//! VMA's resident set into pages reached through *shared* versus
//! *dedicated* tables, and `pagemap()` exposes per-page refcounts.

use std::collections::HashSet;

use odf_pagetable::{Entry, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::PAGE_SIZE;

use crate::mm::Mm;
use crate::walk::{self, PmdCursor, PmdSlot, Reach};

/// Exact frame pin count of one address space: every physical frame
/// reachable from its page tables, split by what the frame holds.
///
/// For a process that shares nothing (never forked, or all siblings have
/// exited), `total()` equals exactly how many frames the pool's free count
/// dropped by since the address space was empty — the property
/// `Kernel::restore` asserts after rebuilding an image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFootprint {
    /// Distinct data frames (compound pages count every tail frame).
    pub data_frames: u64,
    /// Page-table frames: the PGD plus every reachable PUD/PMD/PTE table.
    pub table_frames: u64,
}

impl FrameFootprint {
    /// Total frames pinned.
    pub fn total(&self) -> u64 {
        self.data_frames + self.table_frames
    }
}

/// Per-VMA resident-set breakdown, one `/proc/<pid>/smaps` record.
///
/// All byte totals count 4 KiB page frames actually present in the page
/// tables (huge mappings contribute their clamped sub-range).
#[derive(Clone, Copy, Debug, Default)]
pub struct SmapsEntry {
    /// Inclusive VMA start address.
    pub start: u64,
    /// Exclusive VMA end address.
    pub end: u64,
    /// Reads permitted.
    pub read: bool,
    /// Writes permitted.
    pub write: bool,
    /// `MAP_SHARED` semantics.
    pub map_shared: bool,
    /// Resident bytes (`Rss:`).
    pub rss: u64,
    /// Resident bytes whose page is referenced by more than one mapping,
    /// or reached through a page table still shared from an On-demand
    /// fork — ODF defers the refcount increments, so table sharing *is*
    /// logical page sharing (`Shared_Clean + Shared_Dirty` analog).
    pub shared: u64,
    /// Resident bytes exclusive to this address space (`Private_*`).
    pub private: u64,
    /// Resident bytes mapped by 2 MiB PMD entries (`AnonHugePages:`).
    pub huge: u64,
    /// Bytes evicted to the swap tier (`Swap:`) — pages whose PTE is a
    /// typed swap entry. Not counted in `rss`.
    pub swap: u64,
    /// Last-level tables in this VMA still shared from an On-demand fork
    /// (no `/proc` equivalent; the deferred-copy backlog of §3.1).
    pub shared_tables: u64,
}

/// A full `smaps()` report: per-VMA entries plus whole-space totals.
#[derive(Clone, Debug, Default)]
pub struct Smaps {
    /// One entry per VMA, in address order.
    pub entries: Vec<SmapsEntry>,
}

impl Smaps {
    /// Total resident bytes across all VMAs.
    pub fn rss(&self) -> u64 {
        self.entries.iter().map(|e| e.rss).sum()
    }

    /// Total shared resident bytes.
    pub fn shared(&self) -> u64 {
        self.entries.iter().map(|e| e.shared).sum()
    }

    /// Total private resident bytes.
    pub fn private(&self) -> u64 {
        self.entries.iter().map(|e| e.private).sum()
    }

    /// Total huge-mapped resident bytes.
    pub fn huge(&self) -> u64 {
        self.entries.iter().map(|e| e.huge).sum()
    }

    /// Total bytes evicted to swap.
    pub fn swap(&self) -> u64 {
        self.entries.iter().map(|e| e.swap).sum()
    }

    /// Total last-level tables still shared from an On-demand fork.
    pub fn shared_tables(&self) -> u64 {
        self.entries.iter().map(|e| e.shared_tables).sum()
    }

    /// Renders the report in `/proc/<pid>/smaps` style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{:012x}-{:012x} {}{}{}\n",
                e.start,
                e.end,
                if e.read { 'r' } else { '-' },
                if e.write { 'w' } else { '-' },
                if e.map_shared { 's' } else { 'p' },
            ));
            out.push_str(&format!(
                "Size:           {:8} kB\n",
                (e.end - e.start) / 1024
            ));
            out.push_str(&format!("Rss:            {:8} kB\n", e.rss / 1024));
            out.push_str(&format!("Shared:         {:8} kB\n", e.shared / 1024));
            out.push_str(&format!("Private:        {:8} kB\n", e.private / 1024));
            out.push_str(&format!("AnonHugePages:  {:8} kB\n", e.huge / 1024));
            out.push_str(&format!("Swap:           {:8} kB\n", e.swap / 1024));
            out.push_str(&format!("SharedPtTables: {:8}\n", e.shared_tables));
        }
        out.push_str(&format!(
            "Total Rss: {} kB, Shared: {} kB, Private: {} kB, Swap: {} kB, SharedPtTables: {}\n",
            self.rss() / 1024,
            self.shared() / 1024,
            self.private() / 1024,
            self.swap() / 1024,
            self.shared_tables(),
        ));
        out
    }
}

/// One page's translation state, a `/proc/<pid>/pagemap` record (plus the
/// refcount, which real pagemap keeps in `/proc/kpagecount`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagemapEntry {
    /// Virtual address of the 4 KiB page.
    pub va: u64,
    /// Whether a translation is present.
    pub present: bool,
    /// Effective writability: the AND of the PUD, PMD, and PTE writable
    /// bits (hierarchical attributes, §3.2) — false for a resident page
    /// whose write would fault (COW or shared-table write-protection).
    pub writable: bool,
    /// Mapped by a 2 MiB PMD entry.
    pub huge: bool,
    /// The page is evicted to swap (real pagemap's bit 62). `present` is
    /// false; `frame` holds the swap slot, mirroring how pagemap packs
    /// the swap offset into the PFN bits.
    pub swapped: bool,
    /// Written since the last soft-dirty epoch.
    pub soft_dirty: bool,
    /// Backing frame index (0 when not present; the swap slot when
    /// `swapped`).
    pub frame: u64,
    /// Reference count of the backing page's compound head (0 when not
    /// present). Under ODF this stays at the pre-fork value until the
    /// shared table is COWed, which is exactly the deferral the paper
    /// measures.
    pub refcount: u64,
}

impl Mm {
    /// Counts every physical frame reachable from this address space's
    /// page tables, by direct PGD→PUD→PMD→PTE descent under the shared
    /// `mm` lock.
    ///
    /// Data frames are deduplicated by compound head (a huge page mapped
    /// twice is still 512 frames), and swap entries are skipped — an
    /// evicted page pins a swap slot, not a frame. Table frames shared
    /// from an On-demand fork are counted in full for *each* sharer, so
    /// the exact-pin-count reading of [`FrameFootprint`] only holds for
    /// an address space with no live table sharing.
    pub fn frame_footprint(&self) -> FrameFootprint {
        let inner = self.inner.read();
        let machine = self.machine();
        let pool = machine.pool();
        let mut tables = 1u64; // the PGD itself
        let mut heads: HashSet<odf_pmem::FrameId> = HashSet::new();
        let pgd = machine.table(inner.pgd);
        for pgd_idx in 0..ENTRIES_PER_TABLE {
            let pud_e = pgd.load(pgd_idx);
            if !pud_e.is_present() {
                continue;
            }
            tables += 1;
            let pud = machine.table(pud_e.frame());
            for pud_idx in 0..ENTRIES_PER_TABLE {
                let pmd_e = pud.load(pud_idx);
                if !pmd_e.is_present() {
                    continue;
                }
                tables += 1;
                let pmd = machine.table(pmd_e.frame());
                for pmd_idx in 0..ENTRIES_PER_TABLE {
                    let e = pmd.load(pmd_idx);
                    if !e.is_present() {
                        continue;
                    }
                    if e.is_huge() {
                        heads.insert(pool.compound_head(e.frame()));
                        continue;
                    }
                    tables += 1;
                    let pte_table = machine.table(e.frame());
                    for pte_idx in 0..ENTRIES_PER_TABLE {
                        let pte = pte_table.load(pte_idx);
                        if pte.is_present() {
                            heads.insert(pool.compound_head(pte.frame()));
                        }
                    }
                }
            }
        }
        let data_frames = heads.iter().map(|&h| 1u64 << pool.page(h).order()).sum();
        FrameFootprint {
            data_frames,
            table_frames: tables,
        }
    }

    /// Builds the `/proc/<pid>/smaps` analog: per-VMA resident-set
    /// breakdowns, computed by walking the page tables under the shared
    /// `mm` lock.
    pub fn smaps(&self) -> Smaps {
        let inner = self.inner.read();
        let machine = self.machine();
        let pool = machine.pool();
        let mut report = Smaps::default();
        let cursor = PmdCursor::new(machine, inner.pgd);
        for vma in inner.vmas.iter() {
            let mut e = SmapsEntry {
                start: vma.start,
                end: vma.end,
                read: vma.prot.read,
                write: vma.prot.write,
                map_shared: vma.shared,
                ..SmapsEntry::default()
            };
            for c in walk::chunks(vma.start, vma.end) {
                let Some(pmd) = cursor.slot(c.at) else {
                    continue;
                };
                let pe = pmd.load();
                // The walk holds only the shared mm lock, so a sibling fault
                // can COW a shared table and the old one can be freed and
                // reused while it is read. A span whose walk does not hold
                // afterwards is skipped — /proc/<pid>/smaps is the same kind
                // of racy snapshot.
                if !pe.is_present() {
                    continue;
                }
                if pe.is_huge() {
                    if !walk::holds(&[pmd.reach()]) {
                        continue;
                    }
                    let bytes = c.end.as_u64() - c.at.as_u64();
                    let head = pool.compound_head(pe.frame());
                    let shared = pool.pt_share_count(pmd.frame) > 1 || pool.ref_count(head) > 1;
                    e.rss += bytes;
                    e.huge += bytes;
                    if shared {
                        e.shared += bytes;
                    } else {
                        e.private += bytes;
                    }
                    continue;
                }
                let Ok(reach) = Reach::enter(machine, pmd.table, pmd.idx, pe) else {
                    continue;
                };
                let table_shared = pool.pt_share_count(reach.frame) > 1;
                let before = e;
                e.shared_tables += u64::from(table_shared);
                for idx in c.ptes() {
                    let pte = reach.table.load(idx);
                    if pte.is_swap() {
                        e.swap += PAGE_SIZE as u64;
                        continue;
                    }
                    if !pte.is_present() {
                        continue;
                    }
                    let head = pool.compound_head(pte.frame());
                    let shared = table_shared || pool.ref_count(head) > 1;
                    e.rss += PAGE_SIZE as u64;
                    if shared {
                        e.shared += PAGE_SIZE as u64;
                    } else {
                        e.private += PAGE_SIZE as u64;
                    }
                }
                if !walk::holds(&[pmd.reach(), reach]) {
                    e = before;
                }
            }
            report.entries.push(e);
        }
        report
    }

    /// Builds the `/proc/<pid>/pagemap` analog for `[start, start+len)`:
    /// one entry per 4 KiB page, walked under the shared `mm` lock.
    /// Addresses are page-aligned down/up; unmapped pages report
    /// `present: false`.
    pub fn pagemap(&self, start: u64, len: u64) -> Vec<PagemapEntry> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let inner = self.inner.read();
        let machine = self.machine();
        let pool = machine.pool();
        let first = VirtAddr::new(start).page_align_down();
        let end = VirtAddr::new(start + len - 1).add(1).page_align_up();
        let cursor = PmdCursor::new(machine, inner.pgd);
        for c in walk::chunks(first.as_u64(), end.as_u64()) {
            let pmd = cursor.slot(c.at);
            let pe = pmd.as_ref().map_or(Entry::NONE, PmdSlot::load);
            let upper_writable =
                pmd.is_some_and(|pmd| pmd.load_pud().is_writable()) && pe.is_writable();
            // Shared-mm-lock walk: the slot can be COWed (and the old
            // table freed and reused) while it is read. Report the span
            // absent for this racy snapshot if the walk did not hold.
            let table = match pmd {
                Some(pmd) if pe.is_present() && !pe.is_huge() => {
                    Reach::enter(machine, pmd.table, pmd.idx, pe).ok()
                }
                _ => None,
            };
            let mut ptes: Vec<Entry> = c
                .ptes()
                .map(|idx| match &table {
                    Some(reach) => reach.table.load(idx),
                    // Each 4 KiB piece of a huge mapping reads as a PTE
                    // mapping its sub-frame.
                    None if pe.is_present() && pe.is_huge() => {
                        Entry::page(pe.frame().offset(idx), pe.is_writable())
                    }
                    None => Entry::NONE,
                })
                .collect();
            if !pmd.is_none_or(|pmd| pmd.reach().holds() && table.is_none_or(|r| r.holds())) {
                ptes.fill(Entry::NONE);
            }
            for (idx, pte) in c.ptes().zip(ptes) {
                out.push(PagemapEntry {
                    va: c.va(idx).as_u64(),
                    present: pte.is_present(),
                    writable: pte.is_present() && upper_writable && pte.is_writable(),
                    huge: pte.is_present() && pe.is_huge(),
                    swapped: pte.is_swap(),
                    soft_dirty: (pte.is_present() || pte.is_swap())
                        && walk::soft_dirty(pe, if pe.is_huge() { pe } else { pte }),
                    frame: if pte.is_swap() {
                        u64::from(pte.swap_slot())
                    } else if pte.is_present() {
                        pte.frame().index() as u64
                    } else {
                        0
                    },
                    refcount: if pte.is_present() {
                        u64::from(pool.ref_count(pool.compound_head(pte.frame())))
                    } else {
                        0
                    },
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::ForkPolicy;
    use crate::machine::Machine;
    use crate::vma::MapParams;
    use crate::HUGE_PAGE_SIZE;

    fn mm() -> Mm {
        Mm::new(Machine::new(128 << 20)).unwrap()
    }

    #[test]
    fn frame_footprint_equals_pool_pin_delta() {
        let machine = Machine::new(128 << 20);
        let baseline = machine.pool().balance();
        let mm = Mm::new(machine.clone()).unwrap();
        // Empty space: just the PGD.
        let fp = mm.frame_footprint();
        assert_eq!(
            fp,
            FrameFootprint {
                data_frames: 0,
                table_frames: 1
            }
        );

        let a = mm.mmap(8 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        mm.write(a + 6 * PAGE_SIZE as u64, &[2]).unwrap();
        let h = mm
            .mmap(HUGE_PAGE_SIZE as u64, MapParams::anon_rw_huge())
            .unwrap();
        mm.write(h, &[3]).unwrap();

        let fp = mm.frame_footprint();
        assert_eq!(fp.data_frames, 2 + (HUGE_PAGE_SIZE / PAGE_SIZE) as u64);
        let pinned = (baseline.free_frames - machine.pool().balance().free_frames) as u64;
        assert_eq!(fp.total(), pinned, "footprint must equal the pool delta");
    }

    #[test]
    fn smaps_rss_matches_report_and_splits_private() {
        let mm = mm();
        let a = mm.mmap(8 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[1]).unwrap();
        mm.write(a + 5 * PAGE_SIZE as u64, &[2]).unwrap();
        let s = mm.smaps();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.rss(), 2 * PAGE_SIZE as u64);
        assert_eq!(s.rss(), mm.report().rss_pages * PAGE_SIZE as u64);
        assert_eq!(s.private(), s.rss(), "no fork yet: everything private");
        assert_eq!(s.shared(), 0);
        assert_eq!(s.shared_tables(), 0);
    }

    #[test]
    fn odf_fork_flips_resident_pages_to_shared_via_table_sharing() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[7]).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        // ODF deferred the refcounts; sharing is visible via the table.
        let s = mm.smaps();
        assert_eq!(s.shared(), PAGE_SIZE as u64);
        assert_eq!(s.private(), 0);
        assert_eq!(s.shared_tables(), 1);
        // The child COWs its table on write; the parent's page then shows
        // genuinely shared (refcount 2) until the child's data COW.
        child.write_u64(a, 9).unwrap();
        let s = mm.smaps();
        assert_eq!(s.shared_tables(), 0, "child copied the table away");
        drop(child);
        assert_eq!(mm.smaps().private(), PAGE_SIZE as u64);
    }

    #[test]
    fn pagemap_reports_translation_state_per_page() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a + PAGE_SIZE as u64, &[3]).unwrap();
        let pm = mm.pagemap(a, 4 * PAGE_SIZE as u64);
        assert_eq!(pm.len(), 4);
        assert!(!pm[0].present);
        assert!(pm[1].present && pm[1].writable && pm[1].soft_dirty);
        assert_eq!(pm[1].refcount, 1);
        assert_eq!(pm[1].va, a + PAGE_SIZE as u64);
    }

    #[test]
    fn pagemap_sees_odf_write_protection_and_huge_mappings() {
        let mm = mm();
        let a = mm.mmap(4 * PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(a, &[7]).unwrap();
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        let pm = mm.pagemap(a, PAGE_SIZE as u64);
        assert!(pm[0].present);
        assert!(
            !pm[0].writable,
            "fork write-protected the chunk through the PMD bit"
        );
        drop(child);

        let h = mm
            .mmap(HUGE_PAGE_SIZE as u64, MapParams::anon_rw_huge())
            .unwrap();
        mm.write(h, &[1]).unwrap();
        let pm = mm.pagemap(h, HUGE_PAGE_SIZE as u64);
        assert_eq!(pm.len(), ENTRIES_PER_TABLE);
        assert!(pm.iter().all(|p| p.present && p.huge));
        assert_eq!(pm[1].frame, pm[0].frame + 1, "consecutive sub-frames");
    }
}
