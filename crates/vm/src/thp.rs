//! Transparent huge-page collapse and demotion (the khugepaged analog).
//!
//! [`Mm::collapse_huge`] promotes a 2 MiB-aligned range of 512 resident
//! 4 KiB anonymous pages into one order-9 compound page mapped by a huge
//! PMD entry, and [`Mm::demote_huge`] splits such an entry back into 512
//! PTEs. Together they give the THP lifecycle the paper's huge-page
//! extension (§4) assumes exists underneath it: collapse concentrates a
//! hot range so On-demand-fork can share its PMD table wholesale, and
//! demotion returns cold ranges to 4 KiB granularity so the reclaim
//! scanner ([`Mm::evict_scan`]) can evict them page by page.
//!
//! # Locking
//!
//! **Collapse** runs under the **exclusive** `mm` lock: it retires one
//! whole PTE table and rewrites the PMD entry — the same class of
//! structural change as `munmap`. Faults and `Mm::read`/`Mm::write` all
//! hold the lock shared, so none can run concurrently; the only racing
//! observers are lock-free walkers (`translate` from a pin-revalidate
//! loop), which the GUP pin gate below handles: every writable PTE is
//! write-protected first, and a frame refcount above one afterwards means
//! an in-flight pin — the collapse aborts and restores the bits. This is
//! `collapse_huge_page`'s `page_ref_freeze` discipline, expressed with
//! this crate's pin protocol.
//!
//! **Demotion** is shared-lock-safe: it mutates only one PMD slot under
//! its split-lock stripe, publishing a fully-populated PTE table with a
//! compare-exchange so concurrently-set accessed/dirty bits on the huge
//! entry are never lost (the `pmdp_huge_clear_flush` analog). The
//! compound's references are resolved with page freezing: a sole-owner
//! compound is frozen (refcount 1 → 0, which stalls GUP pins) and split
//! into 512 independent order-0 frames; a COW-shared or pinned compound
//! stays whole and gains 511 references so each new PTE owns one.

use odf_pagetable::{Entry, EntryFlags, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::{PageKind, HUGE_PAGE_SIZE};
use odf_trace::{Hit, Point};

use crate::error::{Result, VmError};
use crate::machine::Machine;
use crate::mm::{Mm, MmInner};
use crate::vma::Backing;
use crate::walk::{self, PmdCursor, Reach};

/// Entry bits that travel between a huge PMD entry and its 512 PTEs when
/// a range changes granularity. `WRITABLE` is deliberately absent: it is
/// re-derived from the source entry, never aggregated. A collapse reads
/// `SOFT_DIRTY` through [`walk::soft_dirty`] instead: below a
/// `SOFT_CLEAN` PMD entry the PTEs' bits read as clear.
const CARRIED_BITS: u64 = HEAT_BITS | EntryFlags::SOFT_DIRTY;

/// The hardware-maintained part of [`CARRIED_BITS`].
const HEAT_BITS: u64 = EntryFlags::ACCESSED | EntryFlags::DIRTY;

/// What a collapse or demotion attempt achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThpOutcome {
    /// 512 PTEs were replaced by one huge PMD entry.
    Collapsed,
    /// A huge PMD entry was split back into 512 PTEs.
    Demoted,
    /// The range is already mapped by a huge entry (collapse only).
    AlreadyHuge,
    /// No huge entry covers the range (demotion only).
    NotHuge,
    /// The range is not a collapse candidate: unmapped, or its VMA is
    /// huge/shared/file-backed, or it maps non-promotable pages.
    Ineligible,
    /// Not every 4 KiB page of the range is resident (absent or swapped
    /// PTEs); fault or swap the range in first.
    NotResident,
    /// The range is reached through a page table still shared from an
    /// On-demand fork; collapsing it would rewrite every sharer's view.
    /// The share dissolves on the next write fault (§3.4).
    SharedTable,
    /// A GUP pin held a page of the range mid-collapse; the attempt was
    /// rolled back. Retrying later almost always succeeds.
    Pinned,
}

/// One 2 MiB-aligned chunk offered to a promotion policy, with the access
/// heat read from the accessed/soft-dirty PTE bits.
#[derive(Clone, Copy, Debug)]
pub struct ThpCandidate {
    /// 2 MiB-aligned virtual address of the chunk.
    pub va: u64,
    /// Whether the chunk is already mapped by a huge PMD entry.
    pub huge: bool,
    /// Resident 4 KiB pages in the chunk (512 when `huge`).
    pub resident: u32,
    /// Pages with the accessed bit set (0 or 512 when `huge`).
    pub accessed: u32,
    /// Pages with the soft-dirty bit set (0 or 512 when `huge`).
    pub soft_dirty: u32,
}

impl Mm {
    /// Collapses the 2 MiB range at `addr` (which must be 2 MiB-aligned)
    /// into one huge page. Takes the `mm` lock exclusively — like the
    /// kernel's khugepaged taking `mmap_lock` for write around
    /// `collapse_huge_page` — so fork/fault latency benchmarks see the
    /// same contention the real daemon causes.
    pub fn collapse_huge(&self, addr: u64) -> Result<ThpOutcome> {
        let inner = self.inner.write();
        collapse_at(self.machine(), &inner, addr)
    }

    /// Splits the huge PMD entry covering `addr` (2 MiB-aligned) back
    /// into 512 PTEs. Shared-lock-safe; contents are preserved.
    pub fn demote_huge(&self, addr: u64) -> Result<ThpOutcome> {
        let inner = self.inner.read();
        demote_at(self.machine(), &inner, addr)
    }

    /// Scans the eligible VMAs (private, anonymous, not `MAP_HUGETLB`)
    /// and reports one [`ThpCandidate`] per fully-covered, at least
    /// partially resident 2 MiB chunk. With `clear_accessed`, accessed
    /// bits are cleared behind the scan (never soft-dirty — that bit
    /// belongs to the snapshot epoch machinery) so the next scan reads
    /// one interval's heat; bits reached through tables still shared from
    /// an On-demand fork are left untouched, since they carry every
    /// sharer's heat.
    pub fn thp_scan(&self, clear_accessed: bool) -> Vec<ThpCandidate> {
        let inner = self.inner.read();
        let machine = self.machine();
        let pool = machine.pool();
        let mut out = Vec::new();
        let cursor = PmdCursor::new(machine, inner.pgd);
        for vma in inner.vmas.iter() {
            if vma.huge || vma.shared || !matches!(vma.backing, Backing::Anonymous) {
                continue;
            }
            for c in walk::chunks(vma.start, vma.end).filter(|c| c.is_full()) {
                let Some(pmd) = cursor.slot(c.at) else {
                    continue;
                };
                let e = pmd.load();
                if e.is_present() && e.is_huge() {
                    if !walk::holds(&[pmd.reach()]) {
                        continue;
                    }
                    out.push(ThpCandidate {
                        va: c.at.as_u64(),
                        huge: true,
                        resident: ENTRIES_PER_TABLE as u32,
                        accessed: if e.is_accessed() {
                            ENTRIES_PER_TABLE as u32
                        } else {
                            0
                        },
                        soft_dirty: if walk::soft_dirty(e, e) {
                            ENTRIES_PER_TABLE as u32
                        } else {
                            0
                        },
                    });
                    if clear_accessed && pool.pt_share_count(pmd.frame) == 1 {
                        pmd.table.fetch_clear(pmd.idx, EntryFlags::ACCESSED);
                    }
                } else if e.is_present() {
                    // The scan holds the mm lock shared only: a sibling
                    // fault can COW the table away meanwhile, and its last
                    // sharer free it. A chunk whose walk does not hold
                    // afterwards is skipped, like the kernel's racy scan.
                    let Ok(reach) = Reach::enter(machine, pmd.table, pmd.idx, e) else {
                        continue;
                    };
                    let table = reach.table;
                    let (mut resident, mut accessed, mut soft_dirty) = (0u32, 0u32, 0u32);
                    for idx in c.ptes() {
                        let pte = table.load(idx);
                        if pte.is_present() {
                            resident += 1;
                            accessed += u32::from(pte.is_accessed());
                            soft_dirty += u32::from(walk::soft_dirty(e, pte));
                        }
                    }
                    if resident == 0 || !walk::holds(&[pmd.reach(), reach]) {
                        continue;
                    }
                    // A table not shared is this process's own, kept by
                    // the mm lock now that the walk to it held.
                    if clear_accessed && pool.pt_share_count(reach.frame) == 1 {
                        for idx in c.ptes() {
                            if table.load(idx).is_accessed() {
                                table.fetch_clear(idx, EntryFlags::ACCESSED);
                            }
                        }
                    }
                    out.push(ThpCandidate {
                        va: c.at.as_u64(),
                        huge: false,
                        resident,
                        accessed,
                        soft_dirty,
                    });
                }
            }
        }
        out
    }
}

/// Collapse with the exclusive `mm` lock already held (see
/// [`Mm::collapse_huge`] for the contract).
pub(crate) fn collapse_at(machine: &Machine, inner: &MmInner, addr: u64) -> Result<ThpOutcome> {
    if !addr.is_multiple_of(HUGE_PAGE_SIZE as u64) {
        return Err(VmError::InvalidArgument);
    }
    let va = VirtAddr::new(addr);
    let Some(vma) = inner.vmas.find(addr) else {
        return Ok(ThpOutcome::Ineligible);
    };
    if vma.huge
        || vma.shared
        || !matches!(vma.backing, Backing::Anonymous)
        || addr + HUGE_PAGE_SIZE as u64 > vma.end
    {
        return Ok(ThpOutcome::Ineligible);
    }
    let cursor = PmdCursor::new(machine, inner.pgd);
    let Some(pmd) = cursor.slot(va) else {
        return Ok(ThpOutcome::NotResident);
    };
    let e = pmd.load();
    if !e.is_present() {
        return Ok(ThpOutcome::NotResident);
    }
    if e.is_huge() {
        return Ok(ThpOutcome::AlreadyHuge);
    }
    let pool = machine.pool();
    let table_frame = e.frame();
    if pool.pt_share_count(pmd.frame) > 1 || pool.pt_share_count(table_frame) > 1 {
        return Ok(ThpOutcome::SharedTable);
    }
    let table = machine.table(table_frame);
    // Qualify every slot before paying for anything: all 512 present, all
    // order-0 anonymous. A compound sub-frame here would mean the range is
    // already huge-backed through some other mapping; a file page would
    // tear the page cache.
    for idx in 0..ENTRIES_PER_TABLE {
        let pte = table.load(idx);
        if !pte.is_present() {
            return Ok(ThpOutcome::NotResident);
        }
        let f = pte.frame();
        if pool.compound_head(f) != f || pool.page(f).kind() != PageKind::Anon {
            return Ok(ThpOutcome::Ineligible);
        }
    }

    let t0 = odf_trace::start();
    odf_trace::emit(Hit::new(Point::CollapseStart, &[addr]));

    // Destination compound, via the compaction path: on contiguity
    // failure, one reclaim pass (file-page drop + other processes'
    // eviction; this mm is locked) may return enough frames for the
    // buddy to merge an order-9 block, so retry once after it.
    let new = match pool.alloc_huge_compact(PageKind::Anon) {
        Ok(f) => f,
        Err(first) => {
            let retried = if machine.reclaim() > 0 {
                pool.alloc_huge_compact(PageKind::Anon)
            } else {
                Err(first)
            };
            match retried {
                Ok(f) => f,
                Err(err) => {
                    machine.stats().thp_collapse_failures.bump();
                    return Err(err.into());
                }
            }
        }
    };

    let guard = machine.split_lock(table_frame);
    // The exclusive mm lock already excludes every fault and access in
    // this address space; the stripe orders us against direct reclaim
    // from *other* processes' allocations probing this table.
    debug_assert!({
        let cur = pmd.load();
        cur.is_present() && !cur.is_huge() && cur.frame() == table_frame
    });

    // GUP pin gate: write-protect first, then read refcounts. A pin
    // (`try_ref_inc`) taken before the protection re-translates afterwards
    // and needs the writable bit for a write, so once the bit is off, a
    // count above one on a previously-writable page is a live pin — the
    // page contents could change under our copy. Roll back and report.
    //
    // Writability is hierarchical (§3.2): a PTE bit only takes effect if
    // the PMD entry's bit is set too. After an On-demand fork the fork
    // cleared the PMD bit, so stale writable PTEs over COW-shared frames
    // (refcount > 1) are *effectively* read-only — stable content, not
    // pins — and the gate must not fire on them; the collapse copy is the
    // COW break.
    let mut was_writable = [false; ENTRIES_PER_TABLE];
    if e.is_writable() {
        for (idx, w) in was_writable.iter_mut().enumerate() {
            if table.load(idx).is_writable() {
                table.fetch_clear(idx, EntryFlags::WRITABLE);
                *w = true;
            }
        }
    }
    let pinned = (0..ENTRIES_PER_TABLE)
        .any(|idx| was_writable[idx] && pool.ref_count(table.load(idx).frame()) > 1);
    if pinned {
        for (idx, &w) in was_writable.iter().enumerate() {
            if w {
                table.fetch_set(idx, EntryFlags::WRITABLE);
            }
        }
        drop(guard);
        pool.ref_dec(new);
        machine.stats().thp_collapse_failures.bump();
        return Ok(ThpOutcome::Pinned);
    }

    // Copy the 512 source pages into the compound, OR-aggregating the
    // accessed/dirty/soft-dirty bits: if *any* page was touched, the huge
    // entry must say so — clearing a set soft-dirty bit would lose a page
    // from the next incremental snapshot. Unmaterialized sources (never
    // written) are logically zero and so is the fresh compound; skipping
    // them is what keeps paper-scale fills collapsible without 2 MiB of
    // host memory per range.
    let mut agg = 0u64;
    for idx in 0..ENTRIES_PER_TABLE {
        let pte = table.load(idx);
        let src = pte.frame();
        if pool.is_materialized(src) {
            pool.copy_block(src, new.offset(idx), 0);
        }
        agg |= pte.0 & HEAT_BITS;
        if walk::soft_dirty(e, pte) {
            agg |= EntryFlags::SOFT_DIRTY;
        }
    }
    pmd.store(Entry::huge_page(new, vma.prot.write).with_set(agg));
    // Drop the displaced references in one batched buddy pass
    // (mmu_gather-style, like `zap_range`). COW-shared frames survive for
    // their other mappers; sole-owner frames return to the allocator.
    let mut batch = pool.free_batch();
    for idx in 0..ENTRIES_PER_TABLE {
        batch.ref_dec(table.load(idx).frame());
        table.store(idx, Entry::NONE);
    }
    batch.flush();
    drop(guard);
    machine.free_table(table_frame);
    // rss is unchanged: 512 resident small pages became one resident huge
    // page, which counts 512 (see `MmInner::rss`).

    let stats = machine.stats();
    odf_trace::emit_counted(&stats.tlb_flushes, Hit::new(Point::TlbFlush, &[]));
    let collapsed = Hit::new(Point::CollapseEnd, &[addr, new.index() as u64])
        .pid(inner.owner_pid)
        .vma(vma.start, vma.end, odf_pmem::HUGE_ORDER);
    odf_trace::emit_counted(&stats.thp_collapses, collapsed.span(t0));
    Ok(ThpOutcome::Collapsed)
}

/// Demotion with the `mm` lock held at least shared. Also called from the
/// reclaim scanner (demote-before-evict) and the partial-coverage unmap/
/// remap/reprotect paths.
pub(crate) fn demote_at(machine: &Machine, inner: &MmInner, addr: u64) -> Result<ThpOutcome> {
    if !addr.is_multiple_of(HUGE_PAGE_SIZE as u64) {
        return Err(VmError::InvalidArgument);
    }
    let va = VirtAddr::new(addr);
    let pool = machine.pool();
    let cursor = PmdCursor::new(machine, inner.pgd);
    let Some(pmd) = cursor.slot(va) else {
        return Ok(ThpOutcome::NotHuge);
    };
    {
        let e = pmd.load();
        if !e.is_present() || !e.is_huge() {
            return Ok(ThpOutcome::NotHuge);
        }
    }
    if pool.pt_share_count(pmd.frame) > 1 {
        // A shared PMD table (huge extension of §4) is every sharer's
        // view; demotion must wait for the table to be COWed away.
        return Ok(ThpOutcome::SharedTable);
    }
    // The PTE table is allocated before taking the stripe: the allocation
    // can trigger direct reclaim, which probes split locks.
    let (table_frame, table) = machine.alloc_table()?;
    let guard = machine.split_lock(pmd.frame);
    let cur = pmd.load();
    if !cur.is_present() || !cur.is_huge() || pool.pt_share_count(pmd.frame) > 1 {
        drop(guard);
        machine.free_table(table_frame);
        return Ok(ThpOutcome::NotHuge);
    }
    let head = cur.frame();
    // Read the flag, not `compound_head`: that counts a lookup, and a
    // debug-only check must not move a profile counter.
    debug_assert!(
        pool.page(head).is_compound_head(),
        "huge PMD entry must reference a compound head"
    );
    let writable = cur.is_writable();
    let keep = cur.0 & CARRIED_BITS;
    // Populate the replacement table completely before publishing it: a
    // concurrent fault observing a half-built table would demand-page
    // zeros over live data.
    for idx in 0..ENTRIES_PER_TABLE {
        table.store(idx, Entry::page(head.offset(idx), writable).with_set(keep));
    }
    // Resolve the compound's references. The huge entry held exactly one:
    // - Sole owner: freeze the head (refcount 1 → 0, making every
    //   concurrent `try_ref_inc` fail, the `page_ref_freeze` trick) and
    //   split the compound into 512 independent frames, each born with
    //   refcount 1 — owned by its new PTE.
    // - COW-shared after a fork (or transiently pinned): the compound
    //   must stay whole. Add 511 references so each PTE owns one; the
    //   per-PTE teardown decrements resolve through `compound_head`, and
    //   the compound frees as one order-9 block at zero.
    if pool.try_freeze(head) {
        let order = pool.split_frozen_compound(head);
        debug_assert_eq!(order, odf_pmem::HUGE_ORDER);
    } else {
        pool.ref_add(head, (ENTRIES_PER_TABLE - 1) as u32);
    }
    // Publish with a compare-exchange so accessed/dirty/soft-dirty bits a
    // lock-free walker sets on the huge entry *during* this demotion are
    // carried over instead of silently dropped (`pmdp_huge_clear_flush`).
    let mut observed = cur;
    loop {
        match pmd
            .table
            .compare_exchange(pmd.idx, observed, Entry::table(table_frame))
        {
            Ok(_) => break,
            Err(actual) => observed = actual,
        }
    }
    let late_bits = (observed.0 & CARRIED_BITS) & !keep;
    if late_bits != 0 {
        for idx in 0..ENTRIES_PER_TABLE {
            table.fetch_set(idx, late_bits);
        }
    }
    drop(guard);
    let _ = inner; // rss is unchanged: one huge page became 512 small ones.

    let stats = machine.stats();
    odf_trace::emit_counted(&stats.tlb_flushes, Hit::new(Point::TlbFlush, &[]));
    let demoted = Hit::new(Point::Demote, &[addr, head.index() as u64]).pid(inner.owner_pid);
    odf_trace::emit_counted(&stats.thp_demotions, demoted.order(odf_pmem::HUGE_ORDER));
    Ok(ThpOutcome::Demoted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::ForkPolicy;
    use crate::vma::MapParams;
    use odf_pmem::PAGE_SIZE;
    use std::sync::Arc;

    const HUGE: u64 = HUGE_PAGE_SIZE as u64;
    const PG: u64 = PAGE_SIZE as u64;

    fn mm() -> Mm {
        Mm::new(crate::Machine::new(64 << 20)).unwrap()
    }

    fn mapped_chunk_at(mm: &Mm, addr: u64) -> u64 {
        let a = mm.mmap_fixed(addr, HUGE, MapParams::anon_rw()).unwrap();
        for pg in 0..ENTRIES_PER_TABLE as u64 {
            mm.write_u64(a + pg * PG, 0xC0_FFEE_0000 + pg).unwrap();
        }
        a
    }

    fn mapped_chunk(mm: &Mm) -> u64 {
        mapped_chunk_at(mm, 0x4000_0000)
    }

    #[test]
    fn collapse_preserves_contents_and_rss() {
        let mm = mm();
        let a = mapped_chunk(&mm);
        let rss = mm.report().rss_pages;
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        assert!(mm.pmd_entry(a).unwrap().is_huge());
        assert_eq!(mm.report().rss_pages, rss, "granularity change, not growth");
        let head = mm.resolve(a).unwrap();
        assert_eq!(mm.resolve(a + 5 * PG).unwrap(), head.offset(5));
        for pg in 0..ENTRIES_PER_TABLE as u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 0xC0_FFEE_0000 + pg);
        }
        // Writes keep working through the huge entry.
        mm.write_u64(a, 42).unwrap();
        assert_eq!(mm.read_u64(a).unwrap(), 42);
        assert_eq!(mm.machine().stats().snapshot().thp_collapses, 1);
    }

    #[test]
    fn collapse_aggregates_soft_dirty_rather_than_inventing_it() {
        let mm = mm();
        let a = mm
            .mmap_fixed(0x4000_0000, HUGE, MapParams::anon_rw())
            .unwrap();
        mm.populate(a, HUGE, true).unwrap();
        mm.clear_soft_dirty().unwrap();
        // One dirty page in the chunk → the huge entry must be soft-dirty.
        mm.write_u64(a + 17 * PG, 9).unwrap();
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        assert!(mm.pmd_entry(a).unwrap().is_soft_dirty());

        // A clean chunk must stay clean: soft-dirty is aggregated, never
        // invented, or every collapse would inflate the next delta
        // snapshot by 2 MiB.
        let b = mm
            .mmap_fixed(0x5000_0000, HUGE, MapParams::anon_rw())
            .unwrap();
        mm.populate(b, HUGE, true).unwrap();
        mm.clear_soft_dirty().unwrap();
        assert_eq!(mm.collapse_huge(b).unwrap(), ThpOutcome::Collapsed);
        assert!(!mm.pmd_entry(b).unwrap().is_soft_dirty());
    }

    #[test]
    fn collapse_refuses_ineligible_and_partial_ranges() {
        let mm = mm();
        assert_eq!(
            mm.collapse_huge(0x123),
            Err(VmError::InvalidArgument),
            "misaligned"
        );
        assert_eq!(
            mm.collapse_huge(0x4000_0000).unwrap(),
            ThpOutcome::Ineligible,
            "unmapped"
        );
        // Partially resident chunk.
        let a = mm
            .mmap_fixed(0x4000_0000, HUGE, MapParams::anon_rw())
            .unwrap();
        mm.write_u64(a, 1).unwrap();
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::NotResident);
        // VMA smaller than 2 MiB.
        let b = mm
            .mmap_fixed(0x5000_0000, PG, MapParams::anon_rw())
            .unwrap();
        assert_eq!(mm.collapse_huge(b).unwrap(), ThpOutcome::Ineligible);
        // Hugetlb-style VMAs are already huge-grained.
        let h = mm
            .mmap_fixed(0x6000_0000, HUGE, MapParams::anon_rw_huge())
            .unwrap();
        mm.write_u64(h, 1).unwrap();
        assert_eq!(mm.collapse_huge(h).unwrap(), ThpOutcome::Ineligible);
        // Double collapse reports AlreadyHuge.
        let c = mapped_chunk_at(&mm, 0x7000_0000);
        assert_eq!(mm.collapse_huge(c).unwrap(), ThpOutcome::Collapsed);
        assert_eq!(mm.collapse_huge(c).unwrap(), ThpOutcome::AlreadyHuge);
    }

    #[test]
    fn collapse_respects_gup_pins_and_rolls_back() {
        let mm = mm();
        let a = mapped_chunk(&mm);
        let frame = mm.resolve(a + 3 * PG).unwrap();
        assert!(mm.machine().pool().try_ref_inc(frame), "simulated pin");
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Pinned);
        // Rolled back: still 4 KiB-mapped, still writable, contents intact.
        assert!(!mm.pmd_entry(a).unwrap().is_huge());
        let pm = mm.pagemap(a + 3 * PG, PG);
        assert!(pm[0].present && pm[0].writable);
        assert_eq!(mm.read_u64(a + 3 * PG).unwrap(), 0xC0_FFEE_0003);
        mm.machine().pool().ref_dec(frame);
        // Pin released: the retry succeeds.
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        assert_eq!(
            mm.machine().stats().snapshot().thp_collapse_failures,
            1,
            "the pinned attempt was counted"
        );
    }

    #[test]
    fn collapse_refuses_odf_shared_tables() {
        let mm = mm();
        let a = mapped_chunk(&mm);
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::SharedTable);
        // The child's write COWs the table away; the parent's is dedicated
        // again — but its pages are still COW-shared with the child, which
        // collapse handles by copying (it owns fresh pages afterwards).
        child.write_u64(a, 7).unwrap();
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        for pg in 1..ENTRIES_PER_TABLE as u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 0xC0_FFEE_0000 + pg);
        }
        assert_eq!(child.read_u64(a).unwrap(), 7);
        drop(child);
        for pg in 0..4u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 0xC0_FFEE_0000 + pg);
        }
    }

    #[test]
    fn demote_roundtrip_preserves_contents_and_bits() {
        let mm = mm();
        let a = mapped_chunk(&mm);
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        mm.clear_soft_dirty().unwrap();
        mm.write_u64(a + 9 * PG, 1234).unwrap();
        assert!(mm.pmd_entry(a).unwrap().is_soft_dirty());
        assert_eq!(mm.demote_huge(a).unwrap(), ThpOutcome::Demoted);
        assert!(!mm.pmd_entry(a).unwrap().is_huge());
        // Every PTE inherited the huge entry's soft-dirty bit (the entry
        // cannot say which sub-page was written, so all carry it).
        let pm = mm.pagemap(a, HUGE);
        assert!(pm.iter().all(|p| p.present && p.soft_dirty && !p.huge));
        assert_eq!(mm.read_u64(a + 9 * PG).unwrap(), 1234);
        for pg in 0..8u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 0xC0_FFEE_0000 + pg);
        }
        assert_eq!(mm.demote_huge(a).unwrap(), ThpOutcome::NotHuge);
        assert_eq!(mm.machine().stats().snapshot().thp_demotions, 1);
    }

    #[test]
    fn collapse_demote_teardown_balances_the_pool() {
        let machine = crate::Machine::new(64 << 20);
        let free_before = machine.pool().free_frames();
        {
            let mm = Mm::new(Arc::clone(&machine)).unwrap();
            let a = mm
                .mmap_fixed(0x4000_0000, 2 * HUGE, MapParams::anon_rw())
                .unwrap();
            for pg in 0..(2 * ENTRIES_PER_TABLE as u64) {
                mm.write_u64(a + pg * PG, pg).unwrap();
            }
            assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
            assert_eq!(mm.collapse_huge(a + HUGE).unwrap(), ThpOutcome::Collapsed);
            // One chunk demoted (split compound), one torn down huge: both
            // teardown shapes in one address space.
            assert_eq!(mm.demote_huge(a).unwrap(), ThpOutcome::Demoted);
        }
        assert_eq!(
            machine.pool().free_frames(),
            free_before,
            "no frame leaked through collapse/demote/teardown"
        );
        assert_eq!(machine.live_tables(), 0);
    }

    #[test]
    fn demote_of_cow_shared_compound_keeps_it_whole() {
        let mm = mm();
        let a = mapped_chunk(&mm);
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        let head = mm.resolve(a).unwrap();
        // Classic fork COW-shares the compound (refcount 2).
        let child = mm.fork(ForkPolicy::Classic).unwrap();
        assert_eq!(mm.machine().pool().ref_count(head), 2);
        assert_eq!(mm.demote_huge(a).unwrap(), ThpOutcome::Demoted);
        // The compound stayed whole: each parent PTE owns a reference.
        assert_eq!(
            mm.machine().pool().compound_head(head.offset(5)),
            head,
            "still a compound"
        );
        // Parent write after demotion COWs one 4 KiB page, not 2 MiB.
        mm.write_u64(a, 77).unwrap();
        assert_eq!(mm.read_u64(a).unwrap(), 77);
        assert_eq!(child.read_u64(a).unwrap(), 0xC0_FFEE_0000);
        assert_eq!(child.read_u64(a + PG).unwrap(), 0xC0_FFEE_0001);
        drop(child);
        assert_eq!(mm.read_u64(a + PG).unwrap(), 0xC0_FFEE_0001);
    }

    #[test]
    fn thp_scan_reports_heat_and_clears_only_accessed() {
        let mm = mm();
        let a = mm
            .mmap_fixed(0x4000_0000, 2 * HUGE, MapParams::anon_rw())
            .unwrap();
        // First chunk fully resident, second half-resident.
        for pg in 0..ENTRIES_PER_TABLE as u64 {
            mm.write_u64(a + pg * PG, pg).unwrap();
        }
        for pg in 0..(ENTRIES_PER_TABLE / 2) as u64 {
            mm.write_u64(a + HUGE + pg * PG, pg).unwrap();
        }
        let c = mm.thp_scan(true);
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].va, c[0].resident), (a, ENTRIES_PER_TABLE as u32));
        assert_eq!(c[0].accessed, ENTRIES_PER_TABLE as u32);
        assert!(c[0].soft_dirty > 0);
        assert_eq!(c[1].resident, (ENTRIES_PER_TABLE / 2) as u32);
        // Accessed was cleared by the scan; soft-dirty must survive (it
        // belongs to the snapshot epoch, not the heat tracker).
        let c2 = mm.thp_scan(false);
        assert_eq!(c2[0].accessed, 0);
        assert!(c2[0].soft_dirty > 0);
        // A huge chunk reports as one hot 512-page candidate.
        assert_eq!(mm.collapse_huge(a).unwrap(), ThpOutcome::Collapsed);
        mm.read_u64(a).unwrap();
        let c3 = mm.thp_scan(false);
        assert!(c3[0].huge && c3[0].accessed == ENTRIES_PER_TABLE as u32);
    }
}
