//! Unmapping, remapping, and reprotection under shared page tables (§3.3).
//!
//! Clearing or moving entries modifies their table, so every table a fork
//! may have shared goes through the ownership protocol first (`share`,
//! DESIGN.md §4.1 "The ownership protocol"): an unmap releases this
//! process's share when none of its VMAs maps through the table any more
//! and copies it otherwise; a move copies both the source and the
//! destination table.

use odf_pagetable::{Entry, EntryFlags, Level, Table, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::PAGE_SIZE;

use crate::error::{Result, VmError};
use crate::machine::Machine;
use crate::mm::MmInner;
use crate::prot::Prot;
use crate::share::{self, Policy, Slot, Take};
use crate::walk::{self, Chunk, PmdCursor, PmdSlot};
use crate::HUGE_PAGE_SIZE;

/// Validates an `(addr, len)` range argument for the given granularity.
fn checked_range(addr: u64, len: u64, align: u64) -> Result<(u64, u64)> {
    if len == 0 || !addr.is_multiple_of(align) {
        return Err(VmError::InvalidArgument);
    }
    let len = len.next_multiple_of(align);
    let end = addr.checked_add(len).ok_or(VmError::InvalidArgument)?;
    if end > VirtAddr::LIMIT {
        return Err(VmError::InvalidArgument);
    }
    Ok((addr, end))
}

/// Granularity required for operations on `[start, end)`: 2 MiB when any
/// huge VMA is touched, 4 KiB otherwise.
fn range_align(inner: &MmInner, start: u64, end: u64) -> u64 {
    if inner.vmas.iter_range(start, end).any(|v| v.huge) {
        HUGE_PAGE_SIZE as u64
    } else {
        PAGE_SIZE as u64
    }
}

/// Implements `munmap`.
pub(crate) fn munmap(machine: &Machine, inner: &mut MmInner, addr: u64, len: u64) -> Result<()> {
    let (start, end) = checked_range(addr, len, PAGE_SIZE as u64)?;
    if range_align(inner, start, end) == HUGE_PAGE_SIZE as u64
        && (start % HUGE_PAGE_SIZE as u64 != 0 || end % HUGE_PAGE_SIZE as u64 != 0)
    {
        return Err(VmError::InvalidArgument);
    }
    let removed = inner.vmas.remove_range(start, end);
    for vma in &removed {
        zap_range(machine, inner, vma.start, vma.end);
    }
    Ok(())
}

/// Clears every translation in `[start, end)`. The VMAs covering the range
/// must already have been removed from the tree (the shared-table release
/// test consults the remaining VMAs).
///
/// Frees are gathered mmu_gather-style: each dying page's reference drop
/// and identity teardown happen in place (so racing GUP-fast pins observe
/// the kernel-equivalent states), but the dead blocks rejoin the buddy in
/// one batched call per sweep — the allocator lock is taken once per
/// `zap_range`, not once per page — flushed before the TLB shootdown that
/// ends the sweep, mirroring `tlb_finish_mmu`.
pub(crate) fn zap_range(machine: &Machine, inner: &mut MmInner, start: u64, end: u64) {
    let mut batch = machine.pool().free_batch();
    let cursor = PmdCursor::new(machine, inner.pgd);
    for c in walk::chunks(start, end) {
        let Some(pmd) = cursor.slot(c.at) else {
            continue;
        };
        // Huge-page extension (§4): the PMD table itself may be shared;
        // resolve ownership at 1 GiB-span granularity before touching any
        // of its entries.
        let pmd = match unmap_take(machine, inner, Slot::pmd_table(&pmd), c.at) {
            Take::Owned(None) => pmd,
            Take::Owned(Some(owned)) => pmd.with_table(owned),
            // Our share of the whole span was released; nothing of it
            // remains mapped in this process.
            _ => continue,
        };
        let mut e = pmd.load();
        if !e.is_present() {
            continue;
        }
        if e.is_huge() && !c.is_full() {
            // A collapsed chunk partly covered by the zap (huge VMAs never
            // get here — their ranges are 2 MiB-aligned by construction).
            // When demotion cannot allocate, drop the whole huge page: the
            // surviving sub-range re-faults as zeros — the same last-resort
            // fallback the shared-table OOM paths take.
            e = demote_first(machine, inner, &pmd, c)
                .ok()
                .flatten()
                .unwrap_or(e);
        }
        if e.is_huge() {
            batch.ref_dec(e.frame());
            pmd.store(Entry::NONE);
            inner.rss_sub(ENTRIES_PER_TABLE as u64);
        } else {
            zap_table_chunk(machine, inner, &pmd, e, c, &mut batch);
        }
    }
    batch.flush();
    let flush = odf_trace::Hit::new(odf_trace::Point::TlbFlush, &[]);
    odf_trace::emit_counted(&machine.stats().tlb_flushes, flush);
}

/// Demotes the collapsed chunk behind `pmd` so an operation that covers it
/// only partly (or moves it off 2 MiB alignment) can work on its PTEs — a
/// compound must never leak page by page into the order-0 free lane.
/// Returns the PMD entry now referencing the PTE table, or `None` if the
/// chunk did not demote; the error is an allocation failure, and each
/// caller keeps its own fallback for it.
fn demote_first(
    machine: &Machine,
    inner: &MmInner,
    pmd: &PmdSlot,
    c: Chunk,
) -> Result<Option<Entry>> {
    if crate::thp::demote_at(machine, inner, c.base().as_u64())? != crate::thp::ThpOutcome::Demoted
    {
        return Ok(None);
    }
    let e = pmd.load();
    Ok((e.is_present() && !e.is_huge()).then_some(e))
}

/// The §3.3 rule on an unmap path, for one slot whose table may be shared:
/// release this process's share when none of its VMAs still maps through
/// the table's span, copy the table otherwise — and release anyway when
/// the copy cannot be allocated (the surviving VMAs re-fault their pages
/// through fresh tables). Released pages leave the rss. Returns `Owned` or
/// `Released`.
fn unmap_take<'m>(machine: &'m Machine, inner: &MmInner, slot: Slot<'m>, at: VirtAddr) -> Take<'m> {
    let span = slot.level.table_span();
    let start = at.as_u64() & !(span - 1);
    let still_needed = |_: &Table| {
        if inner.vmas.overlaps(start, start + span) {
            Policy::Copy
        } else {
            Policy::Release
        }
    };
    let taken = share::take(machine, slot, still_needed).unwrap_or_else(|_| {
        share::take(machine, slot, |_| Policy::Release).expect("a release allocates nothing")
    });
    match taken {
        Take::Released { present } => {
            inner.rss_sub(present as u64 * slot.level.entry_span() / PAGE_SIZE as u64);
        }
        Take::Owned(Some(owned)) if owned.frame != slot.frame => {
            machine.stats().unmap_table_copies.bump();
        }
        Take::Owned(_) => {}
        // Never asked to leave a table shared, and the exclusive mm lock
        // keeps every other thread of this process off the slot.
        Take::StillShared | Take::Raced => unreachable!("unmap paths hold the mm lock exclusively"),
    }
    taken
}

/// Clears the PTEs chunk `c` covers within one last-level table, applying
/// the shared-table rules of §3.3. Dying pages are parked in `batch`; the
/// caller flushes once per sweep.
fn zap_table_chunk(
    machine: &Machine,
    inner: &mut MmInner,
    pmd: &PmdSlot,
    e: Entry,
    c: Chunk,
    batch: &mut odf_pmem::FreeBatch<'_>,
) {
    let pool = machine.pool();
    let (frame, table) = match unmap_take(machine, inner, Slot::pte_table(pmd, e.frame()), c.at) {
        Take::Owned(None) => (e.frame(), machine.table(e.frame())),
        Take::Owned(Some(owned)) => (owned.frame, owned.table),
        // Released: the entries survive for the other sharers.
        _ => return,
    };

    // Dedicated table: clear the range, dropping page references and
    // swap-slot references (an evicted page dies with its mapping, like
    // `free_swap_and_cache` on the kernel's zap path).
    for idx in c.ptes() {
        let pte = table.load(idx);
        if pte.is_present() {
            batch.ref_dec(pool.compound_head(pte.frame()));
            table.store(idx, Entry::NONE);
            inner.rss_sub(1);
        } else if pte.is_swap() {
            machine.swap().slot_put(pte.swap_slot());
            table.store(idx, Entry::NONE);
        }
    }
    if table.is_empty() {
        pmd.store(Entry::NONE);
        machine.free_table(frame);
    }
}

/// Implements `madvise(MADV_DONTNEED)`: drops the translations of a range
/// while keeping the mapping itself, so future touches fault in fresh
/// zero pages. Under On-demand-fork this exercises the same shared-table
/// rules as unmapping (§3.3): a fully-covered shared table is released,
/// a partially-covered one is copied first.
pub(crate) fn madvise_dontneed(
    machine: &Machine,
    inner: &mut MmInner,
    addr: u64,
    len: u64,
) -> Result<()> {
    let (start, end) = checked_range(addr, len, PAGE_SIZE as u64)?;
    let align = range_align(inner, start, end);
    // The whole range must be mapped (madvise on holes is EINVAL here;
    // Linux returns ENOMEM).
    if start % align != 0 || end % align != 0 || !inner.vmas.covers(start, end) {
        return Err(VmError::InvalidArgument);
    }
    // Zapping consults the remaining VMAs for the shared-table release
    // test; with DONTNEED the VMAs stay, so a shared table covering any
    // still-mapped part of its span is copied rather than released —
    // exactly the conservative branch of §3.3.
    zap_range(machine, inner, start, end);
    // The surviving mapping now reads as zeros: record the discard so a
    // delta snapshot does not carry the pre-DONTNEED contents forward.
    inner.log_dirty_range(start, end);
    Ok(())
}

/// Implements `mremap` (shrink in place; grow by moving).
pub(crate) fn mremap(
    machine: &Machine,
    inner: &mut MmInner,
    addr: u64,
    old_len: u64,
    new_len: u64,
) -> Result<u64> {
    let (start, old_end) = checked_range(addr, old_len, PAGE_SIZE as u64)?;
    if new_len == 0 {
        return Err(VmError::InvalidArgument);
    }
    // The old range must lie within a single VMA.
    let vma = inner
        .vmas
        .find(start)
        .ok_or(VmError::InvalidArgument)?
        .clone();
    if old_end > vma.end {
        return Err(VmError::InvalidArgument);
    }
    let align = if vma.huge {
        HUGE_PAGE_SIZE as u64
    } else {
        PAGE_SIZE as u64
    };
    if start % align != 0 || !old_len.is_multiple_of(align) {
        return Err(VmError::InvalidArgument);
    }
    let new_len = new_len.next_multiple_of(align);
    let old_len = old_end - start;

    if new_len == old_len {
        return Ok(start);
    }
    if new_len < old_len {
        munmap(machine, inner, start + new_len, old_len - new_len)?;
        return Ok(start);
    }

    // Grow: move to a fresh range.
    let new_start = inner.find_free(new_len, align)?;
    let mut new_vma = vma.clone();
    new_vma.start = new_start;
    new_vma.end = new_start + new_len;
    if let crate::vma::Backing::File { pgoff, .. } = &mut new_vma.backing {
        *pgoff += (start - vma.start) / PAGE_SIZE as u64;
    }
    inner.vmas.insert(new_vma)?;
    // The destination range's previous-epoch content (none — it was
    // unmapped) must not be carried forward; moved entries get SOFT_DIRTY
    // below so their real contents are captured.
    inner.log_dirty_range(new_start, new_start + new_len);

    move_mappings(machine, inner, start, old_end, new_start)?;

    // Retire the old range: entries are gone, this reclaims empty tables
    // and drops the old VMA piece.
    let removed = inner.vmas.remove_range(start, old_end);
    for piece in &removed {
        zap_range(machine, inner, piece.start, piece.end);
    }
    Ok(new_start)
}

/// Moves every present translation of `[start, end)` to the congruent
/// position at `new_start`, preserving entry bits and page references.
/// Both ends are modified, so both go through the ownership protocol: a
/// source or destination table a fork shared is copied first (§3.3; the
/// old range's VMA still exists, so release is never an option).
fn move_mappings(
    machine: &Machine,
    inner: &mut MmInner,
    start: u64,
    end: u64,
    new_start: u64,
) -> Result<()> {
    let dest = |va: VirtAddr| VirtAddr::new(new_start + (va.as_u64() - start));
    let src_cursor = PmdCursor::new(machine, inner.pgd);
    let dst_cursor = PmdCursor::new(machine, inner.pgd);
    for c in walk::chunks(start, end) {
        let Some(pmd) = src_cursor.slot(c.at) else {
            continue;
        };
        let pmd = own_pmd(machine, pmd)?;
        let mut e = pmd.load();
        if !e.is_present() {
            continue;
        }
        if e.is_huge() {
            let to = dest(c.at);
            if c.is_full() && to.as_u64().is_multiple_of(HUGE_PAGE_SIZE as u64) {
                // Whole chunk, congruent destination: move at PMD
                // granularity (huge VMAs always hit this arm — the caller
                // enforces their alignment).
                let dest_pmd = own_pmd(machine, dst_cursor.slot_create(to)?)?;
                // Mark moved entries soft-dirty: the destination range is
                // in the epoch dirty-range log, and without the bit a delta
                // snapshot would materialize these pages as zeros.
                dest_pmd.store(e.with_set(EntryFlags::SOFT_DIRTY));
                pmd.store(Entry::NONE);
                continue;
            }
            // A collapsed chunk moving partly or to a non-2 MiB-aligned
            // destination moves PTE by PTE.
            let Some(table_e) = demote_first(machine, inner, &pmd, c)? else {
                continue;
            };
            e = table_e;
        }
        let table = own_pte(machine, &pmd, e)?;
        for idx in c.ptes() {
            let pte = table.load(idx);
            // Swap entries move with the mapping — dropping one would
            // leak its slot and lose the page contents.
            if pte.is_present() || pte.is_swap() {
                let to = dest(c.va(idx));
                let dest_pmd = own_pmd(machine, dst_cursor.slot_create(to)?)?;
                let dest_table = own_pte(machine, &dest_pmd, dest_pmd.load())?;
                dest_table.store(to.index(Level::Pte), pte.with_set(EntryFlags::SOFT_DIRTY));
                table.store(idx, Entry::NONE);
            }
        }
    }
    let flush = odf_trace::Hit::new(odf_trace::Point::TlbFlush, &[]);
    odf_trace::emit_counted(&machine.stats().tlb_flushes, flush);
    Ok(())
}

/// [`share::own_pmd_table`] under the exclusive mm lock, where no other
/// thread of this process can re-point the slot. A copy counts as an
/// unmap-path table copy.
fn own_pmd<'m>(machine: &'m Machine, pmd: PmdSlot<'m>) -> Result<PmdSlot<'m>> {
    let shared_frame = pmd.frame;
    let pmd = share::own_pmd_table(machine, pmd)?.expect("the exclusive mm lock pins the slot");
    if pmd.frame != shared_frame {
        machine.stats().unmap_table_copies.bump();
    }
    Ok(pmd)
}

/// The PTE table behind the (non-huge) PMD entry `e` of `pmd`, linked in
/// fresh when absent and copied first when shared, under the exclusive mm
/// lock. A copy counts as an unmap-path table copy.
fn own_pte<'m>(machine: &'m Machine, pmd: &PmdSlot<'m>, e: Entry) -> Result<&'m Table> {
    let reach =
        walk::resolve_table(machine, pmd, e)?.expect("a moved range never lands on a huge entry");
    Ok(
        match share::take(machine, Slot::pte_table(pmd, reach.frame), |_| Policy::Copy)? {
            Take::Owned(Some(owned)) if owned.frame != reach.frame => {
                machine.stats().unmap_table_copies.bump();
                owned.table
            }
            Take::Owned(_) => reach.table,
            _ => unreachable!("the exclusive mm lock pins the slot"),
        },
    )
}

/// Implements `mprotect`.
pub(crate) fn mprotect(
    machine: &Machine,
    inner: &mut MmInner,
    addr: u64,
    len: u64,
    prot: Prot,
) -> Result<()> {
    let (start, end) = checked_range(addr, len, PAGE_SIZE as u64)?;
    let align = range_align(inner, start, end);
    // The whole range must be mapped.
    if start % align != 0 || end % align != 0 || !inner.vmas.covers(start, end) {
        return Err(VmError::InvalidArgument);
    }

    let losing_write = !prot.write;
    // Split at the boundaries and apply the new protection.
    let mut pieces = inner.vmas.remove_range(start, end);
    for piece in &mut pieces {
        piece.prot = prot;
        inner
            .vmas
            .insert(piece.clone())
            .expect("reinserting split piece cannot overlap");
    }

    if losing_write {
        wrprotect_range(machine, inner, start, end);
    }
    let flush = odf_trace::Hit::new(odf_trace::Point::TlbFlush, &[]);
    odf_trace::emit_counted(&machine.stats().tlb_flushes, flush);
    Ok(())
}

/// Write-protects the existing translations of `[start, end)`.
fn wrprotect_range(machine: &Machine, inner: &mut MmInner, start: u64, end: u64) {
    let pool = machine.pool();
    let cursor = PmdCursor::new(machine, inner.pgd);
    for c in walk::chunks(start, end) {
        let Some(pmd) = cursor.slot(c.at) else {
            continue;
        };
        if pool.pt_share_count(pmd.frame) > 1 {
            // Shared PMD table (huge extension): every sharer is already
            // write-protected through the PUD bit, and the eventual
            // dedication write-protects all entries, after which the VMA
            // protection check governs. Nothing to do.
            continue;
        }
        let mut e = pmd.load();
        if !e.is_present() {
            continue;
        }
        if e.is_huge() && !c.is_full() {
            // A collapsed chunk partly reprotected: split it to PTE
            // granularity so the rest keeps its write permission. When
            // demotion cannot allocate, protect the whole entry; writes to
            // the still-writable part COW-fault and are re-validated
            // against their VMA.
            e = demote_first(machine, inner, &pmd, c)
                .ok()
                .flatten()
                .unwrap_or(e);
        }
        if e.is_huge() {
            pmd.store(e.with_cleared(EntryFlags::WRITABLE));
        } else if pool.pt_share_count(e.frame()) > 1 {
            // Already effectively read-only through the cleared PMD
            // writable bit; the fault path re-checks the VMA protection
            // after any future table COW.
        } else {
            let table = machine.table(e.frame());
            for idx in c.ptes() {
                let pte = table.load(idx);
                if pte.is_present() && pte.is_writable() {
                    table.store(idx, pte.with_cleared(EntryFlags::WRITABLE));
                }
            }
        }
    }
}
