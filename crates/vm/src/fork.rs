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
//!
//! Both engines go through one loop (`copy_spans`): the parent's VMAs, each
//! cut into 1 GiB spans, each span into its 2 MiB chunks. A span's PMD
//! tables are resolved once per tree ([`walk::PmdSpan`]), so a chunk costs
//! only its own entry loads and stores, and the work is counted once per
//! fork ([`ForkTally`]).

use std::sync::atomic::Ordering;

use odf_pagetable::{Entry, EntryFlags, VirtAddr, ENTRIES_PER_TABLE};
use odf_pmem::{FrameId, FramePool};
use odf_trace::{Hit, Point};

use crate::error::Result;
use crate::machine::Machine;
use crate::mm::MmInner;
use crate::share;
use crate::stats::VmStats;
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

/// Per-invocation fork work tally: reported in the `ForkEnd` hit, and
/// added to the machine's [`VmStats`] once per fork.
///
/// Kept local to the invocation (rather than differencing the global
/// counters) so concurrent forks of other processes on the same machine
/// cannot pollute the numbers.
#[derive(Debug, Default, PartialEq, Eq)]
struct ForkTally {
    /// PTEs copied the classic way.
    pte_copies: u64,
    /// Huge PMD entries copied the classic way.
    huge_copies: u64,
    /// PTE tables shared instead of copied.
    pte_tables_shared: u64,
    /// PMD tables shared through a PUD entry (the huge-page extension).
    pmd_tables_shared: u64,
}

impl ForkTally {
    /// The `ForkEnd` payload: leaf entries copied, last-level tables
    /// shared.
    fn words(&self) -> [u64; 2] {
        [
            self.pte_copies + self.huge_copies,
            self.pte_tables_shared + self.pmd_tables_shared,
        ]
    }

    fn count(&self, stats: &VmStats) {
        stats.fork_pte_copies.add(self.pte_copies);
        stats.fork_huge_copies.add(self.huge_copies);
        stats.fork_tables_shared.add(self.pte_tables_shared);
        stats.fork_pmd_tables_shared.add(self.pmd_tables_shared);
    }
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
/// before the child is returned or unwound: the partial child's teardown
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
    let child = fork_tree(machine, parent, policy, &mut tally)?;
    // The parent's write-protection changes require a TLB shootdown.
    odf_trace::emit_counted(&stats.tlb_flushes, Hit::new(Point::TlbFlush, &[]));
    odf_trace::emit(
        Hit::new(Point::ForkEnd, &tally.words())
            .kind(kind)
            .pid(parent.owner_pid)
            .span(t0),
    );
    Ok(child)
}

/// Builds the child's address space and tree, and counts `tally` into the
/// machine's stats (on failure too: what was copied before it counts).
fn fork_tree(
    machine: &Machine,
    parent: &MmInner,
    policy: ForkPolicy,
    tally: &mut ForkTally,
) -> Result<MmInner> {
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
    let result = copy_spans(machine, parent, &child, policy, tally, &mut scratch);
    // Flush on failure too: the unwind's teardown of the partial child
    // drops a share for every table the child references.
    scratch.flush_shares(machine.pool());
    tally.count(machine.stats());
    if let Err(e) = result {
        // Failed mid-copy (allocation failure): unwind the partial child.
        // The wholesale rss copy above over-counts the pages actually
        // transferred before the failure; reset it so teardown accounting
        // (which only subtracts what is really mapped) balances.
        child.rss.store(0, Ordering::Relaxed);
        child.destroy(machine);
        return Err(e);
    }
    Ok(child)
}

/// The one loop of every policy: the parent's VMAs in address order, each
/// cut into 1 GiB spans, each span into its 2 MiB chunks. A span's PMD
/// tables are resolved once: the parent's as the span is entered, the
/// child's (created if absent) at the first chunk that needs a slot. No
/// slot is re-validated between chunks: the parent's exclusive lock keeps
/// its path, and nobody else can see the child's yet (DESIGN.md §4.1).
fn copy_spans(
    machine: &Machine,
    parent: &MmInner,
    child: &MmInner,
    policy: ForkPolicy,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<()> {
    let parent_cursor = PmdCursor::new(machine, parent.pgd);
    let child_cursor = PmdCursor::new(machine, child.pgd);
    for vma in parent.vmas.iter() {
        for span in walk::spans(vma.start, vma.end) {
            let Some(parent_pmds) = parent_cursor.span(span.at) else {
                continue;
            };
            if policy == ForkPolicy::OnDemandHuge
                && try_share_pmd_table(
                    machine,
                    &child_cursor,
                    &parent_pmds.slot(span.at),
                    span.at,
                    tally,
                    scratch,
                )?
            {
                continue;
            }
            let mut child_pmds = None;
            for c in span.chunks() {
                let parent_pmd = parent_pmds.slot(c.at);
                let pe = parent_pmd.load();
                if !pe.is_present() {
                    continue;
                }
                let child_pmds = match child_pmds {
                    Some(pmds) => pmds,
                    None => *child_pmds.insert(child_cursor.span_create(c.at)?),
                };
                let child_pmd = child_pmds.slot(c.at);
                if pe.is_huge() {
                    copy_huge_entry(machine, &child_pmd, vma, &parent_pmd, pe, tally);
                } else if policy == ForkPolicy::Classic {
                    copy_pte_range(machine, &child_pmd, vma, pe, c, tally, scratch)?;
                } else {
                    share_pte_table(machine, &child_pmd, &parent_pmd, pe, tally, scratch);
                }
            }
        }
    }
    Ok(())
}

/// The huge-page extension (§4), decided once per 1 GiB span: if the
/// parent's PMD table for the span consists solely of huge entries, share
/// the whole table through the PUD entries — one counter increment and two
/// entry stores replace up to 512 per-huge-page copies. Returns whether
/// the span is handled.
fn try_share_pmd_table(
    machine: &Machine,
    child: &PmdCursor,
    parent_pmd: &PmdSlot,
    at: VirtAddr,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) -> Result<bool> {
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
    let (child_pud, child_idx) = child.pud_create(at)?;
    let existing = child_pud.load(child_idx);
    if existing.is_present() {
        // Either an earlier VMA in this span already shared it (nothing
        // left to do), or the child built its own PMD table for it (mixed
        // span: fall back to per-entry handling).
        return Ok(existing.frame() == parent_pmd.frame);
    }
    scratch.share(machine.pool(), parent_pmd.frame);
    parent_pmd.store_pud(parent_pmd.load_pud().with_cleared(EntryFlags::WRITABLE));
    child_pud.store(
        child_idx,
        Entry::table(parent_pmd.frame).with_cleared(EntryFlags::WRITABLE),
    );
    tally.pmd_tables_shared += 1;
    Ok(true)
}

/// On-demand-fork sharing of one last-level table (§3.1, §3.5).
fn share_pte_table(
    machine: &Machine,
    child_pmd: &PmdSlot,
    parent_pmd: &PmdSlot,
    pe: Entry,
    tally: &mut ForkTally,
    scratch: &mut ForkScratch,
) {
    if child_pmd.load().is_present() {
        // A previous VMA in the same 2 MiB chunk already shared this
        // table; the share count tracks processes, not VMAs.
        return;
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
    tally.pte_tables_shared += 1;
}

/// Classic per-PTE copy of one chunk (the `copy_one_pte` loop of Figure 3),
/// batched: the per-entry `compound_head` + `ref_inc` pair is the table
/// copy's refcount pass ([`share::ref_entries`], shared with the fault-time
/// table COW), so a full 512-entry table costs one grouped atomic pass
/// instead of 512 independent calls. Safe because fork holds the parent's
/// mm lock exclusively: no entry can change between the refcount pass and
/// the store pass, and references are taken *before* any child entry
/// becomes visible, so the invariant "a stored entry holds a reference" is
/// never violated mid-copy. Unlike the table COW it copies a sub-range and
/// write-protects the parent's entries one by one. Below a `SOFT_CLEAN`
/// parent entry `pe` the child's copies shed their stale soft-dirty bits,
/// so the child reads the parent's view.
fn copy_pte_range(
    machine: &Machine,
    child_pmd: &PmdSlot,
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
    tally.pte_copies += scratch.entries.len() as u64;
    Ok(())
}

/// Copies one PMD-mapped huge entry (both policies; the paper's
/// implementation supports 4 KiB pages and handles huge entries the
/// classic way, §4 "Huge Page Support").
fn copy_huge_entry(
    machine: &Machine,
    child_pmd: &PmdSlot,
    vma: &crate::vma::Vma,
    parent_pmd: &PmdSlot,
    pe: Entry,
    tally: &mut ForkTally,
) {
    if child_pmd.load().is_present() {
        return;
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
    tally.huge_copies += 1;
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use odf_pmem::{HUGE_PAGE_SIZE, PAGE_SIZE};

    use super::*;
    use crate::mm::Mm;
    use crate::vma::MapParams;

    const GIB: u64 = 1 << 30;
    /// What one PMD entry maps.
    const CHUNK: u64 = HUGE_PAGE_SIZE as u64;
    const PG: u64 = PAGE_SIZE as u64;
    const POLICIES: [ForkPolicy; 3] = [
        ForkPolicy::Classic,
        ForkPolicy::OnDemand,
        ForkPolicy::OnDemandHuge,
    ];

    /// A parent layout, and what forking it does under each of
    /// [`POLICIES`].
    struct Shape {
        name: &'static str,
        /// `(start, length, huge)` of each VMA, private and read-write.
        vmas: Vec<(u64, u64, bool)>,
        /// Addresses written before the fork.
        writes: Vec<u64>,
        /// Addresses whose PMD entry the epoch sweep flagged `SOFT_CLEAN`
        /// (write-protected, as on a table whose other sharer has left).
        soft_clean: Vec<u64>,
        /// Per policy: PTEs copied, huge entries copied, PTE tables
        /// shared, PMD tables shared, PMD tables resolved (parent's and
        /// child's, a span with no PMD table included).
        expect: [[u64; 5]; 3],
    }

    fn shapes() -> Vec<Shape> {
        vec![
            Shape {
                name: "three whole spans, one page per chunk",
                vmas: vec![(4 * GIB, 3 * GIB, false)],
                writes: (0..3 * GIB / CHUNK)
                    .map(|i| 4 * GIB + i * CHUNK + PG)
                    .collect(),
                soft_clean: vec![],
                expect: [[1536, 0, 0, 0, 6], [0, 0, 1536, 0, 6], [0, 0, 1536, 0, 6]],
            },
            Shape {
                name: "two VMAs in one chunk",
                vmas: vec![
                    (8 * GIB, 16 * PG, false),
                    (8 * GIB + 16 * PG, 16 * PG, false),
                ],
                writes: vec![8 * GIB + PG, 8 * GIB + 20 * PG],
                soft_clean: vec![],
                expect: [[2, 0, 0, 0, 4], [0, 0, 1, 0, 4], [0, 0, 1, 0, 4]],
            },
            Shape {
                name: "a VMA straddling a 1 GiB boundary",
                vmas: vec![(10 * GIB - 2 * CHUNK, 4 * CHUNK, false)],
                writes: (0..4)
                    .map(|i| 10 * GIB - 2 * CHUNK + i * CHUNK + PG)
                    .collect(),
                soft_clean: vec![],
                expect: [[4, 0, 0, 0, 4], [0, 0, 4, 0, 4], [0, 0, 4, 0, 4]],
            },
            Shape {
                name: "holes: an absent PMD entry, a span with no PMD table",
                vmas: vec![(12 * GIB, 3 * GIB, false)],
                writes: vec![
                    12 * GIB + PG,
                    12 * GIB + 2 * CHUNK + PG,
                    15 * GIB - CHUNK + PG,
                ],
                soft_clean: vec![],
                expect: [[3, 0, 0, 0, 5], [0, 0, 3, 0, 5], [0, 0, 3, 0, 5]],
            },
            Shape {
                name: "a huge entry among tables",
                vmas: vec![
                    (16 * GIB, 2 * CHUNK, true),
                    (16 * GIB + 2 * CHUNK, 2 * CHUNK, false),
                ],
                writes: vec![
                    16 * GIB,
                    16 * GIB + 2 * CHUNK + PG,
                    16 * GIB + 3 * CHUNK + PG,
                ],
                soft_clean: vec![],
                expect: [[2, 1, 0, 0, 4], [0, 1, 2, 0, 4], [0, 1, 2, 0, 4]],
            },
            Shape {
                name: "a SOFT_CLEAN entry beside a plain one",
                vmas: vec![(18 * GIB, 2 * CHUNK, false)],
                writes: vec![18 * GIB + PG, 18 * GIB + 5 * PG, 18 * GIB + CHUNK + PG],
                soft_clean: vec![18 * GIB],
                expect: [[3, 0, 0, 0, 2], [0, 0, 2, 0, 2], [0, 0, 2, 0, 2]],
            },
            Shape {
                name: "an all-huge span",
                vmas: vec![(20 * GIB, 8 * CHUNK, true)],
                writes: vec![20 * GIB, 20 * GIB + 2 * CHUNK, 20 * GIB + 5 * CHUNK],
                soft_clean: vec![],
                expect: [[0, 3, 0, 0, 2], [0, 3, 0, 0, 2], [0, 0, 0, 1, 1]],
            },
        ]
    }

    /// A parent PMD entry as the fork found it.
    struct Before {
        pe: Entry,
        /// The PMD table holding the entry.
        pmd_frame: FrameId,
        /// Whether every present entry of that table is huge (and one is).
        all_huge: bool,
        /// The present PTEs below a table entry.
        ptes: Vec<(usize, Entry)>,
    }

    fn build(m: &Arc<Machine>, shape: &Shape) -> Mm {
        let mm = Mm::new(Arc::clone(m)).unwrap();
        for &(start, len, huge) in &shape.vmas {
            let params = if huge {
                MapParams::anon_rw_huge()
            } else {
                MapParams::anon_rw()
            };
            mm.mmap_fixed(start, len, params).unwrap();
        }
        for &va in &shape.writes {
            mm.write(va, &[7]).unwrap();
        }
        let inner = mm.inner.read();
        let cursor = PmdCursor::new(m, inner.pgd);
        for &va in &shape.soft_clean {
            let slot = cursor.slot(VirtAddr::new(va)).unwrap();
            let pe = slot.load();
            assert!(
                pe.is_present() && !pe.is_huge(),
                "{}: flag a table",
                shape.name
            );
            slot.store(
                pe.with_cleared(EntryFlags::WRITABLE)
                    .with_set(EntryFlags::SOFT_CLEAN),
            );
        }
        drop(inner);
        mm
    }

    /// Every PMD entry of the parent's VMAs, by the address of its chunk.
    fn entries(m: &Machine, inner: &MmInner) -> BTreeMap<u64, Option<Before>> {
        let cursor = PmdCursor::new(m, inner.pgd);
        let mut found = BTreeMap::new();
        for vma in inner.vmas.iter() {
            for c in walk::chunks(vma.start, vma.end) {
                let before = cursor.slot(c.at).map(|slot| {
                    let pe = slot.load();
                    let mut present = slot.table.iter_present().peekable();
                    let all_huge = present.peek().is_some() && present.all(|(_, e)| e.is_huge());
                    let ptes = if pe.is_present() && !pe.is_huge() {
                        m.table(pe.frame()).iter_present().collect()
                    } else {
                        Vec::new()
                    };
                    Before {
                        pe,
                        pmd_frame: slot.frame,
                        all_huge,
                        ptes,
                    }
                });
                found.insert(c.base().as_u64(), before);
            }
        }
        found
    }

    /// Checks each PMD entry of the parent and the child against the entry
    /// the fork found.
    fn check_entries(
        m: &Machine,
        case: &str,
        policy: ForkPolicy,
        before: &BTreeMap<u64, Option<Before>>,
        parent: &MmInner,
        child: &MmInner,
    ) {
        let ro = |e: Entry| e.with_cleared(EntryFlags::WRITABLE);
        let shares = |f| m.pool().pt_share_count(f);
        let (pc, cc) = (PmdCursor::new(m, parent.pgd), PmdCursor::new(m, child.pgd));
        for (&va, b) in before {
            let at = VirtAddr::new(va);
            let here = format!("{case}, {policy:?}, chunk {va:#x}");
            let child_slot = cc.slot(at);
            let ce = child_slot.map_or(Entry::NONE, |s| s.load());
            let Some(b) = b.as_ref().filter(|b| b.pe.is_present()) else {
                assert!(!ce.is_present(), "{here}: an absent entry stays absent");
                continue;
            };
            let parent_slot = pc.slot(at).unwrap();
            let pe = parent_slot.load();
            let child_slot = child_slot.expect("a present entry gives the child a PMD table");
            if policy == ForkPolicy::OnDemandHuge && b.all_huge {
                assert_eq!(
                    child_slot.frame, b.pmd_frame,
                    "{here}: the PMD table is shared"
                );
                assert_eq!(
                    child_slot.load_pud(),
                    ro(Entry::table(b.pmd_frame)),
                    "{here}"
                );
                assert!(
                    !parent_slot.load_pud().is_writable(),
                    "{here}: parent's PUD entry"
                );
                assert_eq!(pe, b.pe, "{here}: the shared table's entries stay");
                assert_eq!(shares(b.pmd_frame), 2, "{here}");
                continue;
            }
            assert_ne!(
                child_slot.frame, b.pmd_frame,
                "{here}: the child's own PMD table"
            );
            if b.pe.is_huge() {
                assert_eq!((pe, ce), (ro(b.pe), ro(b.pe)), "{here}: huge entry copied");
            } else if policy == ForkPolicy::Classic {
                assert_eq!(pe, b.pe, "{here}: the parent's PMD entry stays");
                assert!(ce.is_present() && ce.is_writable(), "{here}: a child table");
                assert_ne!(ce.frame(), b.pe.frame(), "{here}: a copied table");
                assert_eq!((shares(b.pe.frame()), shares(ce.frame())), (1, 1), "{here}");
                let (parent_ptes, child_ptes) = (m.table(b.pe.frame()), m.table(ce.frame()));
                let stale = share::stale_bits(b.pe);
                for &(idx, pte) in &b.ptes {
                    assert_eq!(parent_ptes.load(idx), ro(pte), "{here}: PTE {idx}");
                    assert_eq!(
                        child_ptes.load(idx),
                        ro(pte).with_cleared(stale),
                        "{here}: PTE {idx}"
                    );
                }
                assert_eq!(child_ptes.iter_present().count(), b.ptes.len(), "{here}");
            } else {
                let shared =
                    ro(Entry::table(b.pe.frame())).with_set(b.pe.0 & EntryFlags::SOFT_CLEAN);
                assert_eq!(
                    (pe, ce),
                    (ro(b.pe), shared),
                    "{here}: the PTE table is shared"
                );
                assert_eq!(shares(b.pe.frame()), 2, "{here}");
            }
        }
    }

    #[test]
    fn each_fork_shape_shares_copies_and_counts_per_policy() {
        for shape in shapes() {
            for (policy, expect) in POLICIES.into_iter().zip(shape.expect) {
                let case = shape.name;
                let m = Machine::new(64 << 20);
                let baseline = m.pool().balance();
                let mm = build(&m, &shape);
                let parent = mm.inner.write();
                let before = entries(&m, &parent);
                let mut ptes = before.values().flatten().flat_map(|b| &b.ptes);
                assert!(
                    ptes.all(|(_, e)| e.is_soft_dirty()),
                    "{case}: written pages read as soft-dirty"
                );
                let stats = m.stats().snapshot();
                let resolved = walk::pmd_resolutions();
                let mut tally = ForkTally::default();
                let mut child = fork_tree(&m, &parent, policy, &mut tally).unwrap();
                let resolved = walk::pmd_resolutions() - resolved;
                let d = m.stats().snapshot() - stats;

                let [pte_copies, huge_copies, pte_tables_shared, pmd_tables_shared, resolutions] =
                    expect;
                let want = ForkTally {
                    pte_copies,
                    huge_copies,
                    pte_tables_shared,
                    pmd_tables_shared,
                };
                assert_eq!(tally, want, "{case}, {policy:?}: the tally");
                assert_eq!(
                    tally.words(),
                    [
                        pte_copies + huge_copies,
                        pte_tables_shared + pmd_tables_shared
                    ],
                    "{case}, {policy:?}: the ForkEnd payload"
                );
                assert_eq!(
                    [
                        d.fork_pte_copies,
                        d.fork_huge_copies,
                        d.fork_tables_shared,
                        d.fork_pmd_tables_shared
                    ],
                    [
                        pte_copies,
                        huge_copies,
                        pte_tables_shared,
                        pmd_tables_shared
                    ],
                    "{case}, {policy:?}: the counters, once per fork"
                );
                assert_eq!(
                    resolved, resolutions,
                    "{case}, {policy:?}: PMD tables resolved"
                );
                check_entries(&m, case, policy, &before, &parent, &child);

                child.destroy(&m);
                drop(parent);
                drop(mm);
                assert_eq!(m.live_tables(), 0, "{case}, {policy:?}");
                odf_pmem::assert_pool_balanced(m.pool(), baseline);
            }
        }
    }
}

#[cfg(test)]
mod guard {
    /// The code of `fork.rs`, tests left out.
    fn code() -> &'static str {
        let text = include_str!("fork.rs");
        &text[..text.find("#[cfg(test)]").unwrap()]
    }

    #[test]
    fn fork_raises_share_counts_only_in_batches() {
        for line in code().lines() {
            assert!(
                !line.contains("pt_share_inc("),
                "fork.rs raises one share count at a time: record the table with ForkScratch::share\n{line}"
            );
        }
    }

    /// Fork resolves each span's PMD tables once ([`walk::PmdSpan`]) and
    /// counts its work once ([`ForkTally::count`](super::ForkTally)): no
    /// chunk looks its slot up through a cursor, and no chunk bumps a
    /// fork counter. (Patterns are assembled so this text does not match
    /// them.)
    #[test]
    fn fork_resolves_slots_per_span_and_counts_per_fork() {
        let per_chunk = [
            ["slot", "_create("].concat(),
            ["cursor", ".slot("].concat(),
            ["child", ".slot("].concat(),
        ];
        for line in code().lines() {
            for call in &per_chunk {
                assert!(
                    !line.contains(call.as_str()),
                    "fork.rs resolves a PMD slot per chunk: take it from the span's walk::PmdSpan\n{line}"
                );
            }
        }
        let counters = [
            "fork_pte_copies",
            "fork_huge_copies",
            "fork_tables_shared",
            "fork_pmd_tables_shared",
        ];
        for f in code().split("fn ").skip(1) {
            let name = f.split('(').next().unwrap_or_default();
            for counter in counters {
                assert!(
                    name == "count" || !f.contains(&format!("{counter}.")),
                    "fork.rs counts {counter} in {name}: add it to the ForkTally, counted once per fork"
                );
            }
        }
    }
}
