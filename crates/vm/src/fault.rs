//! The page fault handler.
//!
//! This module implements §3.4 of the paper. Beyond the classic duties of a
//! fault handler (demand paging, data-page copy-on-write, huge-page COW),
//! it performs the operation On-demand-fork adds: **copy-on-write of a
//! shared last-level page table**, on the first write (or insertion) into
//! a 2 MiB range whose PTE table a fork shared — and one level up for PMD
//! tables shared under the §4 extension. Both go through the ownership
//! protocol in `share` (DESIGN.md §4.1, "The ownership protocol"); this
//! module only decides when a fault needs a dedicated table. The table
//! copy repeats the refcounting classic fork would have done at fork time,
//! which is why the worst-case On-demand-fork fault costs ~5x a classic
//! COW fault (Table 1) — and why it happens at most once per process per
//! 2 MiB range.
//!
//! # Concurrency
//!
//! Faults run while holding the owning `mm` lock only **shared** (Linux's
//! `mmap_sem`-held-for-read fault path), so many threads resolve faults in
//! parallel. Every structural transition — installing a table into an
//! empty slot, taking ownership of a shared table, installing or COWing a
//! huge entry, installing a PTE — happens under the split lock
//! ([`Machine::split_lock`]) of the table holding the entry and
//! *revalidates* the walk after acquiring it (DESIGN.md §4.1).
//!
//! Expensive data copies (the 4 KiB COW) happen *outside* the lock against
//! a pinned source page, with a revalidate-and-install step afterwards —
//! the `wp_page_copy` structure of the kernel. A thread that loses any
//! install race returns [`Outcome::Raced`] and the fault is retried from
//! the top; every transition is conservative toward write-protection, so
//! transient over-protection self-heals on retry.

use std::sync::atomic::Ordering;

use odf_pagetable::{Entry, EntryFlags, Level, Table, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::{FrameId, PageKind, PAGE_SIZE};
use odf_trace::{FaultKind, Hit, LockSite, Point};

use crate::error::{Result, VmError};
use crate::machine::Machine;
use crate::mm::MmInner;
use crate::share::{self, Policy, Slot, Take};
use crate::vma::{Backing, Vma};
use crate::walk::{self, lock_retry, resolve_table, PmdCursor, PmdSlot};

/// Bound on consecutive lost install races for one fault. Losing a race
/// requires another thread to have made progress on the same entry, so any
/// benign schedule resolves far sooner; exhausting this means the handler
/// is livelocked or broken, reported as a typed error.
const MAX_INSTALL_RETRIES: u32 = 64;

/// What one fault attempt achieved.
enum Outcome {
    /// The translation was established (or found already established),
    /// classified by the dominant work the attempt performed.
    Done(FaultKind),
    /// A concurrent fault changed the walk under us; retry from the top.
    Raced,
}

/// Relative cost rank of a fault classification: when one attempt performs
/// several operations (a table COW followed by demand paging, say), the
/// emitted `Fault` event is attributed to the most expensive one.
fn rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::Spurious => 0,
        FaultKind::CowReuse => 1,
        FaultKind::DemandZero => 2,
        FaultKind::DemandHuge => 3,
        FaultKind::CowData => 4,
        FaultKind::SwapIn => 5,
        FaultKind::CowHuge => 6,
        FaultKind::TableCow => 7,
        FaultKind::PmdTableCow => 8,
    }
}

/// The costlier of two classifications (see [`rank`]).
fn stronger(a: FaultKind, b: FaultKind) -> FaultKind {
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// Handles a fault at `va` for the given access kind, returning what the
/// fault did ([`FaultKind::Spurious`] when it found nothing to do).
///
/// Runs under the **shared** `mm` lock (`populate` also calls it under the
/// exclusive lock, which trivially satisfies the contract). Retries
/// internally when an attempt loses an install race to a concurrent fault.
pub(crate) fn handle(
    machine: &Machine,
    inner: &MmInner,
    va: VirtAddr,
    write: bool,
) -> Result<FaultKind> {
    // One timestamp pair serves the ring and the probes; probe-only
    // faults sample the clock (see `start_sampled`).
    let t0 = odf_trace::start_sampled();
    let mut counted = false;
    let mut swapped_slot = None;
    let mut attempts = 0u32;
    loop {
        match try_handle(machine, inner, va, write, &mut counted, &mut swapped_slot)? {
            Outcome::Done(kind) => {
                let mut hit = Hit::new(Point::Fault, &[u64::from(attempts), va.as_u64()])
                    .kind(kind.as_u8())
                    .pid(inner.owner_pid)
                    .span(t0);
                // The VMA lookup costs a BTreeMap walk; only pay it when an
                // attached probe reads the vma/order fields.
                if odf_trace::probe_detail(odf_trace::DETAIL_VMA) {
                    if let Some(vma) = inner.vmas.find(va.as_u64()) {
                        hit = hit.vma(vma.start, vma.end, if vma.huge { 9 } else { 0 });
                    }
                }
                odf_trace::emit(hit);
                // The swap-in record shares the fault's clock reads: the
                // latency an application observes for a major fault *is*
                // the swap-in latency, and a second timestamp pair inside
                // `swap_in` would put two extra clock reads on the hot path
                // for the same number.
                if let Some(slot) = swapped_slot {
                    let swap = Hit::new(Point::SwappedIn, &[slot, hit.latency()]);
                    odf_trace::emit(Hit { at: hit.at, ..swap });
                }
                return Ok(kind);
            }
            Outcome::Raced => {
                machine.stats().install_races_lost.bump();
                attempts += 1;
                if attempts >= MAX_INSTALL_RETRIES {
                    return Err(VmError::FaultRetriesExhausted {
                        addr: va.as_u64(),
                        retries: attempts,
                    });
                }
            }
        }
    }
}

/// One fault attempt: walk, acquire ownership of the relevant table,
/// resolve the access — revalidating after each split-lock acquisition.
fn try_handle(
    machine: &Machine,
    inner: &MmInner,
    va: VirtAddr,
    write: bool,
    counted: &mut bool,
    swapped_slot: &mut Option<u64>,
) -> Result<Outcome> {
    let vma = inner
        .vmas
        .find(va.as_u64())
        .ok_or(VmError::Fault {
            addr: va.as_u64(),
            write,
        })?
        .clone();
    if !vma.prot.allows(write) {
        return Err(VmError::Fault {
            addr: va.as_u64(),
            write,
        });
    }
    if !*counted {
        machine.stats().faults.bump();
        *counted = true;
    }

    let cursor = PmdCursor::new(machine, inner.pgd);
    let pmd = cursor.slot_create(va)?;
    // Huge-page extension (§4): the PMD table itself may be shared. A
    // read of a present entry proceeds through it (accessed bits only);
    // anything else needs a dedicated copy first — the last-level table
    // COW one level up, with the deferred per-huge-page refcounting.
    let pmd_frame_before = pmd.frame;
    let pmd = if write || !pmd.load().is_present() {
        match share::own_pmd_table(machine, pmd)? {
            Some(pmd) => pmd,
            None => return Ok(Outcome::Raced),
        }
    } else {
        pmd
    };
    // A changed frame means the attempt just paid for a PMD-table COW —
    // the dominant cost unless something rarer follows.
    let mut kind = if pmd.frame != pmd_frame_before {
        FaultKind::PmdTableCow
    } else {
        FaultKind::Spurious
    };
    let e = pmd.load();

    if !e.is_present() && vma.huge {
        return Ok(merge(
            fault_in_huge(machine, inner, &vma, &pmd, write)?,
            kind,
        ));
    }
    if e.is_present() && e.is_huge() {
        return Ok(merge(huge_cow(machine, &vma, &pmd, write)?, kind));
    }

    // 4 KiB path. Resolve (or create) the PTE table, without touching
    // sharing state yet.
    let idx = va.index(Level::Pte);
    let Some(reach) = resolve_table(machine, &pmd, e)? else {
        lock_retry(LockSite::PmdInstall);
        return Ok(Outcome::Raced);
    };
    let (table_frame, table) = (reach.frame, reach.table);
    // Up to here the walk was lockless: the PTE table (and, for a read
    // through a PMD table the §4 extension shares, the PMD table too) may
    // have been freed and reused since it was reached.
    let path = [pmd.reach(), reach];
    let shared = machine.pool().pt_share_count(table_frame) > 1;
    if shared && !write {
        let pte = table.load(idx);
        if pte.is_present() {
            // Read of a present PTE through the shared table: only the
            // accessed bit is touched, which §3.2 permits.
            if !walk::set_bits(&path, table, idx, pte, EntryFlags::ACCESSED) {
                return Ok(Outcome::Raced);
            }
            return Ok(Outcome::Done(kind));
        }
    }
    // Any structural change to a shared table — a write, or inserting a
    // missing PTE (populating a shared table would leak the mapping into
    // every sharer) — needs a dedicated copy first (§3.4); a write through
    // a table whose sharers have all left restores its write permission.
    // A `SOFT_CLEAN` entry goes through `take` even for a read: the table
    // must be settled before a page is inserted, or the new page would
    // read clean through the flag and the next delta would miss it.
    // `take` revalidates under the table's split lock. A table that is
    // not shared is this process's own once the walk to it holds, and
    // only this process's exclusive operations free it.
    let pe = pmd.load();
    let (table_frame, table) = if shared || (write && !pe.is_writable()) || pe.is_soft_clean() {
        match share::take(machine, Slot::pte_table(&pmd, table_frame), |_| {
            Policy::Copy
        })? {
            Take::Owned(None) => (table_frame, table),
            Take::Owned(Some(owned)) => {
                if owned.frame != table_frame {
                    kind = stronger(kind, FaultKind::TableCow);
                }
                (owned.frame, owned.table)
            }
            _ => return Ok(Outcome::Raced),
        }
    } else if walk::holds(&path) {
        (table_frame, table)
    } else {
        return Ok(Outcome::Raced);
    };

    let mut pte = table.load(idx);
    if !pte.is_present() {
        // Demand paging or swap-in. The backing frame is prepared
        // *outside* the split lock — like `do_anonymous_page` allocating
        // the folio before taking the PTE lock — so a direct-reclaim pass
        // triggered by this very allocation can still evict from this
        // table (its stripe is free). The locked re-check below detects a
        // racing install, releasing the prepared frame.
        let prepared = map_new_page(machine, &vma, va)?;
        let _guard = machine.split_lock(table_frame);
        let cur = pmd.load();
        if !cur.is_present() || cur.is_huge() || cur.frame() != table_frame {
            machine.pool().ref_dec(prepared.frame());
            lock_retry(LockSite::PmdInstall);
            return Ok(Outcome::Raced);
        }
        pte = table.load(idx);
        if pte.is_swap() {
            // Major fault: read the evicted page back from its swap slot
            // into the prepared frame (swap entries only occur in
            // anonymous VMAs, so `prepared` is a fresh anonymous frame).
            *swapped_slot = Some(u64::from(pte.swap_slot()));
            pte = swap_in(machine, inner, &vma, table, cur, idx, pte, prepared.frame());
            kind = stronger(kind, FaultKind::SwapIn);
        } else if !pte.is_present() {
            machine.stats().faults_demand.bump();
            pte = prepared;
            table.store(idx, pte);
            inner.rss.fetch_add(1, Ordering::Relaxed);
            kind = stronger(kind, FaultKind::DemandZero);
        } else {
            // Another thread installed the page meanwhile; drop ours.
            machine.pool().ref_dec(prepared.frame());
        }
    }

    if write && !pte.is_writable() {
        match cow_or_enable_write(machine, &vma, &pmd, table, table_frame, idx)? {
            Outcome::Done(k) => kind = stronger(kind, k),
            Outcome::Raced => return Ok(Outcome::Raced),
        }
    }
    let mut bits = EntryFlags::ACCESSED;
    if write {
        bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    }
    table.fetch_set(idx, bits);
    Ok(Outcome::Done(kind))
}

/// Folds the classification accumulated *before* a sub-handler ran into
/// the sub-handler's outcome.
fn merge(outcome: Outcome, earlier: FaultKind) -> Outcome {
    match outcome {
        Outcome::Done(k) => Outcome::Done(stronger(earlier, k)),
        Outcome::Raced => Outcome::Raced,
    }
}

/// Maps a brand-new page for an absent PTE (demand paging).
///
/// Newly instantiated entries carry `SOFT_DIRTY`: the page's content (zero
/// or file-backed) is only now observable at this address, so an
/// incremental snapshot must not carry the previous epoch's content
/// forward here.
fn map_new_page(machine: &Machine, vma: &Vma, va: VirtAddr) -> Result<Entry> {
    match &vma.backing {
        Backing::Anonymous => {
            let frame = machine.alloc_page(PageKind::Anon)?;
            Ok(Entry::page(frame, vma.prot.write).with_set(EntryFlags::SOFT_DIRTY))
        }
        Backing::File { file, .. } => {
            let pgoff = vma
                .file_pgoff_of(va.as_u64())
                .expect("file vma has offsets");
            let frame = file.map_page(machine.pool(), pgoff)?;
            // File pages always start read-only: the first write faults,
            // which either marks the page-cache page dirty (shared
            // mapping, write-through) or COWs it to anonymous memory
            // (private mapping). This is how the kernel tracks writeback
            // candidates.
            Ok(Entry::page(frame, false).with_set(EntryFlags::SOFT_DIRTY))
        }
    }
}

/// Swaps an evicted page back in: reads the slot contents into the
/// caller-prepared frame and installs the present PTE in `table`, which
/// the PMD entry `pmd` references. Caller holds the split lock of the
/// (dedicated, settled) table, so the swap entry cannot change
/// underneath; the frame was allocated outside that lock.
///
/// Every faulting process gets its own frame — there is no swap cache.
/// That is COW-correct without sharing machinery: two processes holding
/// references to the same slot (after a table COW or classic fork) were
/// COW-sharing identical contents, and each copy read from the slot is
/// byte-identical; any divergence after the swap-in is exactly the
/// divergence COW would have produced.
#[allow(clippy::too_many_arguments)]
fn swap_in(
    machine: &Machine,
    inner: &MmInner,
    vma: &Vma,
    table: &Table,
    pmd: Entry,
    idx: usize,
    pte: Entry,
    frame: FrameId,
) -> Entry {
    let slot = pte.swap_slot();
    let mut buf = vec![0u8; PAGE_SIZE];
    machine.swap().read(slot, &mut buf);
    if buf.iter().any(|&b| b != 0) {
        machine.pool().write_frame(frame, 0, &buf);
    }
    let mut entry = Entry::page(frame, vma.prot.write).with_set(EntryFlags::ACCESSED);
    if walk::soft_dirty(pmd, pte) {
        // Soft-dirty survives the round trip: a page dirtied since the
        // last epoch sweep stays dirty for the next snapshot even if it
        // spent the interim in swap.
        entry = entry.with_set(EntryFlags::SOFT_DIRTY);
    }
    table.store(idx, entry);
    machine.swap().slot_put(slot);
    inner.rss.fetch_add(1, Ordering::Relaxed);
    machine.stats().pages_swapped_in.bump();
    // The `SwappedIn` trace record is emitted by the enclosing fault
    // handler, sharing the fault's timestamp pair (see `handle`).
    entry
}

/// Grants write access to a present but write-protected PTE: write-through
/// for shared mappings, COW (or exclusive reuse) for private ones.
///
/// The COW copy follows the kernel's `wp_page_copy` shape: decide and pin
/// the source under the split lock, copy *outside* it, then revalidate the
/// entry and install (or undo and report the lost race).
fn cow_or_enable_write(
    machine: &Machine,
    vma: &Vma,
    pmd: &PmdSlot,
    table: &Table,
    table_frame: FrameId,
    idx: usize,
) -> Result<Outcome> {
    let pool = machine.pool();
    if vma.shared {
        // Shared mapping: the page itself is the shared store. Mark the
        // page-cache page dirty so writeback picks it up.
        let _guard = machine.split_lock(table_frame);
        let pte = table.load(idx);
        if !pte.is_present() {
            lock_retry(LockSite::PteInstall);
            return Ok(Outcome::Raced);
        }
        if let Backing::File { file, .. } = &vma.backing {
            file.mark_dirty(pool, pte.frame());
        }
        table.fetch_set(idx, EntryFlags::WRITABLE);
        return Ok(Outcome::Done(FaultKind::CowReuse));
    }
    let (pte, head) = {
        let _guard = machine.split_lock(table_frame);
        let cur = pmd.load();
        if !cur.is_present() || cur.is_huge() || cur.frame() != table_frame {
            lock_retry(LockSite::PteInstall);
            return Ok(Outcome::Raced);
        }
        let pte = table.load(idx);
        if !pte.is_present() {
            lock_retry(LockSite::PteInstall);
            return Ok(Outcome::Raced);
        }
        if pte.is_writable() {
            // Another thread of this process resolved the write meanwhile.
            return Ok(Outcome::Done(FaultKind::Spurious));
        }
        let head = pool.compound_head(pte.frame());
        if pool.page(head).kind() == PageKind::Anon && pool.ref_count(head) == 1 {
            // Sole owner: reuse in place.
            machine.stats().cow_reuses.bump();
            table.fetch_set(idx, EntryFlags::WRITABLE);
            return Ok(Outcome::Done(FaultKind::CowReuse));
        }
        // Pin the source so no concurrent COW-and-release elsewhere can
        // free it while we copy outside the lock.
        pool.ref_inc(head);
        (pte, head)
    };
    // Copy-on-write to a fresh anonymous page, outside the lock.
    machine.stats().cow_data_copies.bump();
    let new = match machine.alloc_page(PageKind::Anon) {
        Ok(f) => f,
        Err(err) => {
            pool.ref_dec(head);
            return Err(err);
        }
    };
    pool.copy_block(pte.frame(), new, 0);
    let _guard = machine.split_lock(table_frame);
    let cur = table.load(idx);
    const MUTABLE_BITS: u64 = EntryFlags::ACCESSED | EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    if (cur.0 & !MUTABLE_BITS) != (pte.0 & !MUTABLE_BITS) {
        // Lost the install race: discard the copy and our pin.
        pool.ref_dec(new);
        pool.ref_dec(head);
        lock_retry(LockSite::PteInstall);
        return Ok(Outcome::Raced);
    }
    table.store(idx, Entry::page(new, true).with_set(EntryFlags::ACCESSED));
    pool.ref_dec(head); // the displaced PTE's reference
    pool.ref_dec(head); // our pin
                        // No separate CowCopy record here: a `Fault { kind: CowData }` is
                        // exactly one 4 KiB copy (the FrameAlloc record carries the new
                        // frame), so a dedicated copy event would double the hot-path record
                        // volume without adding information. CowCopy is reserved for compound
                        // copies, where order/bytes vary.
    Ok(Outcome::Done(FaultKind::CowData))
}

/// First touch of a huge-mapped 2 MiB range: allocate and map a compound
/// page, under the split lock of the PMD table so concurrent first
/// touches agree on one compound page.
fn fault_in_huge(
    machine: &Machine,
    inner: &MmInner,
    vma: &Vma,
    pmd: &PmdSlot,
    write: bool,
) -> Result<Outcome> {
    let _guard = machine.split_lock(pmd.frame);
    let pud_e = pmd.load_pud();
    if !pud_e.is_present() || pud_e.frame() != pmd.frame {
        // The PMD table was COWed out from under us; ours is stale.
        lock_retry(LockSite::PmdOwnership);
        return Ok(Outcome::Raced);
    }
    let e = pmd.load();
    if e.is_present() {
        // A concurrent fault won the install race. If it established the
        // translation this access needs, finish its A/D bookkeeping and
        // report success instead of forcing a full re-walk.
        if e.is_huge() && (!write || e.is_writable()) {
            let mut bits = EntryFlags::ACCESSED;
            if write {
                bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
            }
            pmd.table.fetch_set(pmd.idx, bits);
            return Ok(Outcome::Done(FaultKind::Spurious));
        }
        lock_retry(LockSite::PmdInstall);
        return Ok(Outcome::Raced);
    }
    machine.stats().faults_demand.bump();
    let frame = machine.alloc_huge(PageKind::Anon)?;
    let mut entry = Entry::huge_page(frame, vma.prot.write)
        .with_set(EntryFlags::ACCESSED | EntryFlags::SOFT_DIRTY);
    if write {
        entry = entry.with_set(EntryFlags::DIRTY);
    }
    pmd.store(entry);
    inner
        .rss
        .fetch_add(ENTRIES_PER_TABLE as u64, Ordering::Relaxed);
    Ok(Outcome::Done(FaultKind::DemandHuge))
}

/// Write access to a write-protected huge mapping: reuse or copy the whole
/// 2 MiB page.
///
/// The 2 MiB copy runs while *holding* the split lock (unlike the 4 KiB
/// path) — the kernel does the same under the PMD lock to fence THP
/// operations, and it is one of the costs On-demand-fork avoids (§5.2.2).
/// Our own PMD reference keeps the source compound page alive for the
/// duration, so no pin is needed.
fn huge_cow(machine: &Machine, vma: &Vma, pmd: &PmdSlot, write: bool) -> Result<Outcome> {
    let mut bits = EntryFlags::ACCESSED;
    let mut kind = FaultKind::Spurious;
    if write {
        let _guard = machine.split_lock(pmd.frame);
        let pud_e = pmd.load_pud();
        if !pud_e.is_present() || pud_e.frame() != pmd.frame {
            // The PMD table was COWed out from under us; ours is stale.
            lock_retry(LockSite::PmdOwnership);
            return Ok(Outcome::Raced);
        }
        let e = pmd.load();
        if !e.is_present() || !e.is_huge() {
            lock_retry(LockSite::PmdInstall);
            return Ok(Outcome::Raced);
        }
        if !e.is_writable() {
            if !vma.shared {
                let pool = machine.pool();
                let head = pool.compound_head(e.frame());
                if pool.ref_count(head) == 1 {
                    machine.stats().cow_reuses.bump();
                    pmd.set_flags(EntryFlags::WRITABLE);
                    kind = FaultKind::CowReuse;
                } else {
                    machine.stats().cow_huge_copies.bump();
                    let new = machine.alloc_huge(PageKind::Anon)?;
                    pool.copy_block(head, new, odf_pmem::HUGE_ORDER);
                    pool.ref_dec(head);
                    pmd.store(Entry::huge_page(new, true).with_set(EntryFlags::ACCESSED));
                    let order = u64::from(odf_pmem::HUGE_ORDER);
                    let words = [order, crate::HUGE_PAGE_SIZE as u64, new.index() as u64];
                    odf_trace::emit(Hit::new(Point::CowCopy, &words));
                    kind = FaultKind::CowHuge;
                }
            } else {
                pmd.set_flags(EntryFlags::WRITABLE);
                kind = FaultKind::CowReuse;
            }
        }
        bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    }
    // A read did not take the lock: the PMD table may be one the §4
    // extension shares, reached without a lock that keeps it.
    let e = pmd.load();
    if e.is_present() && !walk::set_bits(&[pmd.reach()], pmd.table, pmd.idx, e, bits) {
        return Ok(Outcome::Raced);
    }
    Ok(Outcome::Done(kind))
}

/// Pre-faults a range: the `MAP_POPULATE` / benchmark-fill path.
///
/// Equivalent to touching every page (`write` selects the access kind) but
/// batched per 2 MiB chunk so upper-level walks are amortized, exactly as a
/// sequential fill would behave. Runs under the **exclusive** `mm` lock, so
/// no fault can race it — the race-aware helpers it shares with the fault
/// path cannot report `Raced` here, and the per-page fallback keeps it
/// robust regardless.
pub(crate) fn populate(
    machine: &Machine,
    inner: &MmInner,
    addr: u64,
    len: u64,
    write: bool,
) -> Result<()> {
    if len == 0 {
        return Ok(());
    }
    let start = VirtAddr::new(addr).page_align_down().as_u64();
    let end = VirtAddr::new(addr + len - 1)
        .add(1)
        .page_align_up()
        .as_u64();
    let cursor = PmdCursor::new(machine, inner.pgd);
    let mut at = start;
    // One VMA piece at a time (ranges can span VMAs); the first hole or
    // forbidden VMA fails the call, with the pages before it populated.
    while at < end {
        let vma = inner
            .vmas
            .find(at)
            .filter(|vma| vma.prot.allows(write))
            .ok_or(VmError::Fault { addr: at, write })?
            .clone();
        let stop = end.min(vma.end);
        for c in walk::chunks(at, stop) {
            let pmd = cursor.slot_create(c.at)?;
            if vma.huge {
                // Whole-PMD granularity.
                if !pmd.load().is_present() {
                    if let Some(pmd) = share::own_pmd_table(machine, pmd)? {
                        if let Outcome::Done(_) = fault_in_huge(machine, inner, &vma, &pmd, write)?
                        {
                            machine.stats().pages_populated.bump();
                        }
                    }
                }
                continue;
            }
            // Fast bulk path only for a pristine chunk: a fresh (or absent)
            // dedicated, writable table. Anything touched by sharing goes
            // through the real fault handler so the table-COW rules of
            // §3.4 apply.
            let fast_table = match share::own_pmd_table(machine, pmd)? {
                Some(pmd) => {
                    let e = pmd.load();
                    let fast = !e.is_present()
                        || (!e.is_huge()
                            && e.is_writable()
                            && machine.pool().pt_share_count(e.frame()) == 1);
                    if fast {
                        resolve_table(machine, &pmd, e)?.map(|reach| reach.table)
                    } else {
                        None
                    }
                }
                None => None,
            };
            let Some(table) = fast_table else {
                for idx in c.ptes() {
                    handle(machine, inner, c.va(idx), write)?;
                }
                continue;
            };
            for idx in c.ptes() {
                let cur = table.load(idx);
                if cur.is_swap() {
                    // Evicted page: the bulk path must not clobber the swap
                    // entry with a zero page — route through the fault
                    // handler's swap-in.
                    handle(machine, inner, c.va(idx), write)?;
                } else if !cur.is_present() {
                    let entry = map_new_page(machine, &vma, c.va(idx))?;
                    table.store(idx, entry.with_set(EntryFlags::ACCESSED));
                    inner.rss.fetch_add(1, Ordering::Relaxed);
                    machine.stats().pages_populated.bump();
                } else if write && !cur.is_writable() {
                    handle(machine, inner, c.va(idx), true)?;
                }
            }
        }
        at = stop;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::Mm;
    use crate::vma::MapParams;
    use std::sync::Arc;

    /// A fault that arrives at `fault_in_huge` after a concurrent fault
    /// already installed a satisfying huge translation must finish the
    /// fault (`Done`), not force a full re-walk; an unsatisfying one (a
    /// write against a write-protected entry) must still re-walk.
    #[test]
    fn huge_install_race_that_satisfies_the_access_resolves_in_place() {
        let machine = Machine::new(32 << 20);
        let mm = Mm::new(Arc::clone(&machine)).unwrap();
        let addr = mm
            .mmap(crate::HUGE_PAGE_SIZE as u64, MapParams::anon_rw_huge())
            .unwrap();
        // Install the huge translation (the racing "winner").
        mm.write_u64(addr, 7).unwrap();

        let inner = mm.inner.read();
        let va = VirtAddr::new(addr);
        let vma = inner.vmas.find(addr).unwrap().clone();
        let cursor = PmdCursor::new(&machine, inner.pgd);
        let pmd = cursor.slot(va).unwrap();
        assert!(pmd.load().is_present() && pmd.load().is_huge());

        let rss_before = inner.rss.load(Ordering::Relaxed);
        let demand_before = machine.stats().snapshot().faults_demand;
        assert!(matches!(
            fault_in_huge(&machine, &inner, &vma, &pmd, false).unwrap(),
            Outcome::Done(FaultKind::Spurious)
        ));
        assert!(matches!(
            fault_in_huge(&machine, &inner, &vma, &pmd, true).unwrap(),
            Outcome::Done(FaultKind::Spurious)
        ));
        // The loser neither installed a page nor charged rss.
        assert_eq!(inner.rss.load(Ordering::Relaxed), rss_before);
        assert_eq!(machine.stats().snapshot().faults_demand, demand_before);

        // Write-protect the entry: a racing write is no longer satisfied.
        pmd.store(pmd.load().with_cleared(EntryFlags::WRITABLE));
        assert!(matches!(
            fault_in_huge(&machine, &inner, &vma, &pmd, true).unwrap(),
            Outcome::Raced
        ));
        // A read through the protected entry still is.
        assert!(matches!(
            fault_in_huge(&machine, &inner, &vma, &pmd, false).unwrap(),
            Outcome::Done(FaultKind::Spurious)
        ));
    }

    /// `fault_in_huge` and `huge_cow` must refuse to operate through a
    /// stale `PmdSlot` whose PMD table the PUD entry no longer references
    /// (a concurrent shared-PMD-table COW replaced it).
    #[test]
    fn stale_pmd_slot_is_rejected_under_the_split_lock() {
        let machine = Machine::new(32 << 20);
        let mm = Mm::new(Arc::clone(&machine)).unwrap();
        let addr = mm
            .mmap(crate::HUGE_PAGE_SIZE as u64, MapParams::anon_rw_huge())
            .unwrap();
        mm.write_u64(addr, 7).unwrap();

        let inner = mm.inner.read();
        let va = VirtAddr::new(addr);
        let vma = inner.vmas.find(addr).unwrap().clone();
        let cursor = PmdCursor::new(&machine, inner.pgd);
        let stale = cursor.slot(va).unwrap();
        // Simulate the concurrent COW: repoint the PUD entry at a copy.
        let (new_frame, new_table) =
            share::cow_table(&machine, stale.table, Level::Pmd, 0).unwrap();
        stale.store_pud(Entry::table(new_frame));

        // The unlocked fast path must not hand the stale slot back even
        // though its table's share count is 1 and the (replaced) PUD entry
        // is writable — the entry no longer references this table.
        assert!(share::own_pmd_table(&machine, stale).unwrap().is_none());
        assert!(matches!(
            fault_in_huge(&machine, &inner, &vma, &stale, true).unwrap(),
            Outcome::Raced
        ));
        assert!(matches!(
            huge_cow(&machine, &vma, &stale, true).unwrap(),
            Outcome::Raced
        ));
        // Undo the simulated copy so teardown accounting balances.
        stale.store_pud(Entry::table(stale.frame));
        let pool = machine.pool();
        for i in 0..ENTRIES_PER_TABLE {
            let e = new_table.load(i);
            if e.is_present() {
                pool.ref_dec(pool.compound_head(e.frame()));
            }
        }
        machine.free_table(new_frame);
    }
}
