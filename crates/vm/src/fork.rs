//! The fork engines: classic copy-everything fork and On-demand-fork.
//!
//! Both engines take the parent's `mm` lock exclusively, build a fresh
//! child address space, and differ only in how the last-level page tables
//! are handled:
//!
//! - **Classic** (`copy_page_range` analog): walks every present PTE of the
//!   parent and, per entry, resolves the page's `compound_head`, atomically
//!   increments its reference count, write-protects both copies for private
//!   mappings, and stores the entry into a freshly allocated child table.
//!   These per-entry operations are the two hot spots of Figure 3, and the
//!   reason fork cost grows linearly with mapped memory (Figure 2). Huge
//!   (PMD-mapped) entries are copied at PMD granularity under the PMD
//!   split lock (Figure 4).
//!
//! - **On-demand** (§3.1): copies only the upper levels. For each present
//!   PMD entry referencing a PTE table, it increments the table's
//!   shared-table counter (stored in the `struct Page` of the frame backing
//!   the table), clears the writable bit in *both* the parent's and the
//!   child's PMD entry — hierarchical attributes write-protect the whole
//!   2 MiB range in one store (§3.2) — and points the child's PMD entry at
//!   the same table. Cost per 2 MiB drops from 512 refcounted entry copies
//!   to one counter increment and two entry stores, which is the ~65x–270x
//!   invocation speedup of §5.2.2. The increments are batched (see
//!   `ForkScratch::share`): the counters of a cold process sit on cold
//!   lines, and one locked increment per chunk would take their misses one
//!   at a time.

use std::sync::atomic::Ordering;

use odf_pagetable::{Entry, EntryFlags, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::{FrameId, FramePool};
use odf_trace::{Hit, Point};

use crate::error::Result;
use crate::machine::Machine;
use crate::mm::MmInner;
use crate::share;
use crate::walk::{self, Chunk, PmdCursor, PmdSlot};

/// Which fork implementation to use.
///
/// The paper exposes the choice per process via procfs (§4 "Flexibility");
/// the `odf-core` crate layers that interface on top of this enum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ForkPolicy {
    /// The traditional fork: copy all page-table levels, refcount every
    /// mapped page.
    #[default]
    Classic,
    /// On-demand-fork: share last-level tables, copy them at fault time.
    OnDemand,
    /// On-demand-fork plus the huge-page extension sketched in §4 of the
    /// paper ("Huge Page Support"): PMD tables whose entries all describe
    /// 2 MiB pages are shared through the PUD entry, giving huge-page
    /// mappings the same deferred-copy treatment 4 KiB mappings get. The
    /// paper's artifact did not implement this; it is included here as an
    /// evaluated extension (see the `ablation_odf_huge` bench).
    OnDemandHuge,
}

impl ForkPolicy {
    /// The trace-layer tag for this policy (stable labels for exporters).
    pub fn trace_kind(self) -> odf_trace::ForkPolicyKind {
        match self {
            ForkPolicy::Classic => odf_trace::ForkPolicyKind::Classic,
            ForkPolicy::OnDemand => odf_trace::ForkPolicyKind::OnDemand,
            ForkPolicy::OnDemandHuge => odf_trace::ForkPolicyKind::OnDemandHuge,
        }
    }
}

/// Per-invocation fork work tally, reported in the `ForkEnd` hit.
///
/// Kept local to the invocation (rather than differencing the global
/// [`VmStats`](crate::VmStats)) so concurrent forks of other processes on the same
/// machine cannot pollute the numbers.
#[derive(Default)]
struct ForkTally {
    /// Leaf entries copied the classic way (PTEs and huge PMD entries).
    pte_copies: u64,
    /// Last-level tables shared instead of copied (PTE and PMD tables).
    tables_shared: u64,
}

/// Reusable scratch buffers for the batched passes of one fork
/// invocation, recycled across every 2 MiB chunk so they never allocate.
struct ForkScratch {
    /// `(pte index, parent entry)` for each present or swap entry of one
    /// chunk (Classic).
    entries: Vec<(usize, Entry)>,
    /// The entries' frames, resolved in place to compound heads (Classic).
    heads: Vec<FrameId>,
    /// Tables the child references whose share counts are not raised yet
    /// (On-demand); at most one PMD table's worth.
    shared: Vec<FrameId>,
}

impl ForkScratch {
    fn new() -> Self {
        ForkScratch {
            entries: Vec::new(),
            heads: Vec::new(),
            shared: Vec::with_capacity(ENTRIES_PER_TABLE),
        }
    }

    /// Records that the child now references `table` alongside the
    /// parent. Its count is raised by the next [`ForkScratch::flush_shares`],
    /// which runs whenever the batch fills: the batch's `struct Page`
    /// lines, about 32 KiB, stay cached between the flush's load pass and
    /// its increments.
    fn share(&mut self, pool: &FramePool, table: FrameId) {
        self.shared.push(table);
        if self.shared.len() == ENTRIES_PER_TABLE {
            self.flush_shares(pool);
        }
    }

    /// Raises the share count of every table recorded since the last flush.
    fn flush_shares(&mut self, pool: &FramePool) {
        pool.pt_share_inc_many(&self.shared);
        self.shared.clear();
    }
}

/// Forks `parent` under `policy`, returning the child's address space
/// contents. The caller holds the parent's `mm` lock exclusively — which
/// excludes every concurrent *parent* fault, so the sharing transitions
/// below (raising a table's share count + clearing the PMD/PUD writable
/// bits) need no split locks. Table pointers are published safely: the
/// child's tree is private until this function returns, and the child
/// `Mm` is handed to other threads only through the `RwLock` the caller
/// wraps it in.
///
/// Concurrent faults in *other* processes already sharing the parent's
/// tables are harmless: they only ever COW *away* from a shared table
/// (decrementing its count), never mutate it, and the count updates are
/// atomic.
///
/// The share counts are raised in batches, after the child's entries are
/// stored ([`ForkScratch::share`]). In between, a table's count misses
/// only the new child, and nothing decides on that under-count: the child
/// is unpublished until this function returns; the parent, which
/// references every table in the batch, is excluded by its own lock; any
/// other process that reaches the table (a sharer's fault or exit, or
/// reclaim and THP through such a sharer) is itself counted, so it sees a
/// count of at least 2 and only ever lowers it. The batch is flushed
/// before `copy_all` returns, on failure too: the partial child's teardown
/// drops a share for every table it references.
pub(crate) fn run(machine: &Machine, parent: &mut MmInner, policy: ForkPolicy) -> Result<MmInner> {
    let stats = machine.stats();
    let kind = policy.trace_kind().as_u8();
    let t0 = odf_trace::start();
    odf_trace::emit_counted(
        match policy {
            ForkPolicy::Classic => &stats.forks_classic,
            ForkPolicy::OnDemand | ForkPolicy::OnDemandHuge => &stats.forks_odf,
        },
        Hit::new(Point::ForkStart, &[]).kind(kind),
    );
    let mut tally = ForkTally::default();
    let mut child = MmInner::empty(machine)?;
    child.vmas = parent.vmas.clone();
    child
        .rss
        .store(parent.rss.load(Ordering::Relaxed), Ordering::Relaxed);
    child.next_mmap = parent.next_mmap;
    // The child inherits the epoch dirty-range log: relative to the last
    // snapshot epoch, everything logged in the parent has changed in the
    // child too (fork also carries every soft-dirty bit below, as the
    // parent reads it).
    child.dirty_ranges = parent.dirty_ranges.clone();

    let mut scratch = ForkScratch::new();
    let result = copy_all(machine, parent, &child, policy, &mut tally, &mut scratch);
    if let Err(e) = result {
        // Failed mid-copy (allocation failure): unwind the partial child.
        // The wholesale rss copy above over-counts the pages actually
        // transferred before the failure; reset it so teardown accounting
        // (which only subtracts what is really mapped) balances.
        child.rss.store(0, Ordering::Relaxed);
        child.destroy(machine);
        return Err(e);
    }
    // The parent's write-protection changes require a TLB shootdown.
    odf_trace::emit_counted(&stats.tlb_flushes, Hit::new(Point::TlbFlush, &[]));
    let tally = [tally.pte_copies, tally.tables_shared];
    odf_trace::emit(
        Hit::new(Point::ForkEnd, &tally)
            .kind(kind)
            .pid(parent.owner_pid)
            .span(t0),
    );
    Ok(child)
}

fn copy_all(
    machine: &Machine,
    parent: &MmInner,
    child: &MmInner,
    policy: ForkPolicy,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<()> {
    let parent_cursor = PmdCursor::new(machine, parent.pgd);
    let child_cursor = PmdCursor::new(machine, child.pgd);
    // Iterate VMAs in address order, chunked at PTE-table (2 MiB) spans.
    let mut copied = Ok(());
    'vmas: for vma in parent.vmas.iter() {
        for c in walk::chunks(vma.start, vma.end) {
            let Some(parent_pmd) = parent_cursor.slot(c.at) else {
                continue;
            };
            copied = copy_chunk(
                machine,
                &parent_pmd,
                &child_cursor,
                policy,
                vma,
                c,
                tally,
                scratch,
            );
            if copied.is_err() {
                break 'vmas;
            }
        }
    }
    // Flush on failure too: the unwind's teardown of the partial child
    // drops a share for every table the child references.
    scratch.flush_shares(machine.pool());
    copied
}

/// Copies (or shares) the translations of one 2 MiB chunk restricted to
/// the part `c` of one VMA, from the parent's slot `parent_pmd`.
#[allow(clippy::too_many_arguments)]
fn copy_chunk(
    machine: &Machine,
    parent_pmd: &PmdSlot,
    child: &PmdCursor,
    policy: ForkPolicy,
    vma: &crate::vma::Vma,
    c: Chunk,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<()> {
    let at = c.at;
    let pe = parent_pmd.load();
    if !pe.is_present() {
        return Ok(());
    }

    if pe.is_huge() {
        if policy == ForkPolicy::OnDemandHuge
            && try_share_pmd_table(machine, child, parent_pmd, at, tally, scratch)?
        {
            return Ok(());
        }
        return copy_huge_entry(machine, child, vma, parent_pmd, pe, at, tally);
    }

    match policy {
        ForkPolicy::OnDemand | ForkPolicy::OnDemandHuge => {
            share_pte_table(machine, child, parent_pmd, pe, at, tally, scratch)
        }
        ForkPolicy::Classic => copy_pte_range(machine, child, vma, pe, c, tally, scratch),
    }
}

/// The huge-page extension (§4): if the parent's PMD table for this 1 GiB
/// span consists solely of huge entries, share the whole table through the
/// PUD entries — one counter increment and two entry stores replace up to
/// 512 per-huge-page copies. Returns whether the chunk was handled.
fn try_share_pmd_table(
    machine: &Machine,
    child: &PmdCursor,
    parent_pmd: &PmdSlot,
    at: VirtAddr,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<bool> {
    let (child_pud, child_idx) = child.pud_create(at)?;
    let existing = child_pud.load(child_idx);
    if existing.is_present() {
        // Either this span was already shared by an earlier chunk
        // (nothing left to do), or the child built its own PMD table for
        // it (mixed span: fall back to per-entry handling).
        return Ok(existing.frame() == parent_pmd.frame);
    }
    // Qualify: every present entry must describe a huge page.
    let mut present = 0usize;
    for (_, e) in parent_pmd.table.iter_present() {
        if !e.is_huge() {
            return Ok(false);
        }
        present += 1;
    }
    if present == 0 {
        return Ok(false);
    }
    scratch.share(machine.pool(), parent_pmd.frame);
    parent_pmd.store_pud(parent_pmd.load_pud().with_cleared(EntryFlags::WRITABLE));
    child_pud.store(
        child_idx,
        Entry::table(parent_pmd.frame).with_cleared(EntryFlags::WRITABLE),
    );
    machine.stats().fork_pmd_tables_shared.bump();
    tally.tables_shared += 1;
    Ok(true)
}

/// On-demand-fork sharing of one last-level table (§3.1, §3.5).
fn share_pte_table(
    machine: &Machine,
    child: &PmdCursor,
    parent_pmd: &PmdSlot,
    pe: Entry,
    at: VirtAddr,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<()> {
    let child_pmd = child.slot_create(at)?;
    if child_pmd.load().is_present() {
        // A previous VMA in the same 2 MiB chunk already shared this
        // table; the share count tracks processes, not VMAs.
        return Ok(());
    }
    let table_frame = pe.frame();
    scratch.share(machine.pool(), table_frame);
    // One store write-protects the parent's whole 2 MiB range...
    parent_pmd.store(pe.with_cleared(EntryFlags::WRITABLE));
    // ...and the child references the same table, equally protected. It
    // reads the table's soft-dirty bits as the parent does: a
    // `SOFT_CLEAN` flag the epoch sweep left on the parent's entry is
    // carried.
    child_pmd.store(
        Entry::table(table_frame)
            .with_cleared(EntryFlags::WRITABLE)
            .with_set(pe.0 & EntryFlags::SOFT_CLEAN),
    );
    machine.stats().fork_tables_shared.bump();
    tally.tables_shared += 1;
    Ok(())
}

/// Classic per-PTE copy of one chunk (the `copy_one_pte` loop of Figure 3),
/// batched: the per-entry `compound_head` + `ref_inc` pair is the table
/// copy's refcount pass ([`share::ref_entries`], shared with the fault-time
/// table COW), so a full 512-entry table costs one stats update and one
/// grouped atomic pass instead of 512 independent calls. Safe because fork
/// holds the parent's mm lock exclusively: no entry can change between the
/// refcount pass and the store pass, and references are taken *before* any
/// child entry becomes visible, so the invariant "a stored entry holds a
/// reference" is never violated mid-copy. Unlike the table COW it copies a
/// sub-range and write-protects the parent's entries one by one. Below a
/// `SOFT_CLEAN` parent entry `pe` the child's copies shed their stale
/// soft-dirty bits, so the child reads the parent's view.
fn copy_pte_range(
    machine: &Machine,
    child: &PmdCursor,
    vma: &crate::vma::Vma,
    pe: Entry,
    c: Chunk,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<()> {
    let pool = machine.pool();
    let parent_table_frame = pe.frame();
    let parent_table = machine.table(parent_table_frame);
    let stale = share::stale_bits(pe);
    // If the parent's table is shared (a prior On-demand-fork), its
    // entries are read-only sources: the parent is already write-protected
    // through its PMD bit and the entries must not be mutated.
    let parent_is_shared = pool.pt_share_count(parent_table_frame) > 1;

    let child_pmd = child.slot_create(c.at)?;
    let ce = child_pmd.load();
    let child_table = if ce.is_present() {
        machine.table(ce.frame())
    } else {
        let (frame, table) = machine.alloc_table()?;
        child_pmd.store(Entry::table(frame));
        table
    };

    // The two hot spots of Figure 3, batched over the range. Evicted pages
    // are inherited as swap entries: the child takes its own slot
    // reference and swaps in independently (the `copy_one_pte` swap arm).
    scratch.entries.clear();
    share::ref_entries(
        machine,
        parent_table,
        c.ptes(),
        &mut scratch.heads,
        |idx, pte| scratch.entries.push((idx, pte)),
    );

    // Publish child entries; write-protect the parent's copies.
    for &(idx, pte) in scratch.entries.iter() {
        let mut child_pte = pte.with_cleared(stale);
        if pte.is_present() && !vma.shared {
            child_pte = child_pte.with_cleared(EntryFlags::WRITABLE);
            if !parent_is_shared {
                parent_table.store(idx, pte.with_cleared(EntryFlags::WRITABLE));
            }
        }
        child_table.store(idx, child_pte);
    }
    let copied = scratch.entries.len() as u64;
    machine.stats().fork_pte_copies.add(copied);
    tally.pte_copies += copied;
    Ok(())
}

/// Copies one PMD-mapped huge entry (both policies; the paper's
/// implementation supports 4 KiB pages and handles huge entries the
/// classic way, §4 "Huge Page Support").
fn copy_huge_entry(
    machine: &Machine,
    child: &PmdCursor,
    vma: &crate::vma::Vma,
    parent_pmd: &PmdSlot,
    pe: Entry,
    at: VirtAddr,
    tally: &mut ForkTally,
) -> Result<()> {
    let child_pmd = child.slot_create(at)?;
    if child_pmd.load().is_present() {
        return Ok(());
    }
    // The kernel must hold the PMD split lock while copying huge entries
    // (to fence THP splits/merges) — a cost On-demand-fork's 4 KiB path
    // avoids (§5.2.2).
    let _guard = machine.split_lock(parent_pmd.frame);
    let pool = machine.pool();
    // If the parent's PMD table is itself shared (a previous huge-
    // extension fork), its entries are read-only sources: the parent is
    // already write-protected through its PUD bit.
    let parent_is_shared = pool.pt_share_count(parent_pmd.frame) > 1;
    let head = pool.compound_head(pe.frame());
    pool.ref_inc(head);
    let mut ce = pe;
    if !vma.shared {
        ce = ce.with_cleared(EntryFlags::WRITABLE);
        if !parent_is_shared {
            parent_pmd.store(pe.with_cleared(EntryFlags::WRITABLE));
        }
    }
    child_pmd.store(ce);
    machine.stats().fork_huge_copies.bump();
    tally.pte_copies += 1;
    Ok(())
}

#[cfg(test)]
mod guard {
    #[test]
    fn fork_raises_share_counts_only_in_batches() {
        let text = include_str!("fork.rs");
        let code = &text[..text.find("#[cfg(test)]").unwrap()];
        for line in code.lines() {
            assert!(
                !line.contains("pt_share_inc("),
                "fork.rs raises one share count at a time: record the table with ForkScratch::share\n{line}"
            );
        }
    }
}
