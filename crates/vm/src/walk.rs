//! Page-table walkers.
//!
//! Three walks cover every need of the subsystem (plus [`resolve_table`]
//! and [`lock_retry`], shared by the fault, unmap and ownership paths):
//!
//! - [`chunks`]: cuts an address range into the parts each PMD entry's
//!   2 MiB span covers — On-demand-fork's unit of work (§3.1–3.5): fork
//!   shares, the first write copies, and unmap/mremap/mprotect decide per
//!   chunk. Every range operation of the crate iterates through it, so the
//!   PTE-index arithmetic and the "is this chunk whole?" test live here
//!   only.
//! - [`PmdCursor`]: resolves (or builds) the path from the PGD down to the
//!   PMD entry covering an address. The fork engines and the fault handler
//!   operate at PMD granularity, because that is where On-demand-fork's
//!   table sharing lives.
//! - [`translate`]: the simulated MMU's translation: full walk with
//!   hierarchical attribute resolution (effective writability is the AND of
//!   the writable bits along the path, §3.2) and accessed/dirty bit
//!   updates, exactly like the hardware walker.
//!
//! A table is found by indexing the machine's table slots with its frame.
//! Walkers whose locks keep the path read it as it is. Lockless walkers
//! reach each table through a [`Reach`] and count what they read only if
//! the path [holds](holds) afterwards (DESIGN.md §4.1 rule 7).

use std::cell::Cell;
use std::ops::Range;

use odf_pagetable::{Entry, EntryFlags, Level, Table, TableSlot, VirtAddr, PTE_TABLE_SPAN};
use odf_pmem::{FrameId, PAGE_SIZE};
use odf_trace::{Hit, LockSite};

use crate::error::Result;
use crate::machine::Machine;

/// The part of one PMD entry's 2 MiB span that a range covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Chunk {
    /// First covered address.
    pub at: VirtAddr,
    /// One past the last covered address; never past the span's end.
    pub end: VirtAddr,
}

impl Chunk {
    /// Start of the 2 MiB span (the first address the PMD entry maps).
    pub fn base(self) -> VirtAddr {
        self.at.pte_table_align_down()
    }

    /// Whether the range covers the whole span.
    pub fn is_full(self) -> bool {
        self.at == self.base() && self.end.as_u64() - self.at.as_u64() == PTE_TABLE_SPAN
    }

    /// Indices of the covered entries of the span's PTE table (or
    /// sub-frames of its huge page); never past 512.
    pub fn ptes(self) -> Range<usize> {
        let covered = (self.end.as_u64() - self.base().as_u64()) as usize;
        self.at.index(Level::Pte)..covered.div_ceil(PAGE_SIZE)
    }

    /// The address that PTE index `idx` of the span maps.
    pub fn va(self, idx: usize) -> VirtAddr {
        self.base().add((idx * PAGE_SIZE) as u64)
    }
}

/// Cuts `[start, end)` into [`Chunk`]s, in address order.
pub(crate) fn chunks(start: u64, end: u64) -> impl Iterator<Item = Chunk> {
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let next = ((at & !(PTE_TABLE_SPAN - 1)) + PTE_TABLE_SPAN).min(end);
            let chunk = Chunk {
                at: VirtAddr::new(at),
                end: VirtAddr::new(next),
            };
            at = next;
            chunk
        })
    })
}

/// Emits a `LockRetry` hit. The lock class rides in `kind`, so
/// `count_by kind` probes attribute contention per site.
pub(crate) fn lock_retry(site: LockSite) {
    odf_trace::emit(Hit::new(odf_trace::Point::LockRetry, &[]).kind(site.as_u8()));
}

/// A lower table a lockless walker reached through an upper entry, with
/// the state word its slot had then: the one validation of DESIGN.md §4.1
/// rule 7. Table slots are type-stable, so a table the walker reads may be
/// freed, or freed and re-allocated, while it reads; reading it is safe,
/// but what was read counts only if [`Reach::holds`] afterwards.
#[derive(Clone, Copy)]
pub(crate) struct Reach<'m> {
    upper: &'m Table,
    idx: usize,
    /// The lower table's frame, as `upper[idx]` named it.
    pub frame: FrameId,
    /// The lower table.
    pub table: &'m Table,
    slot: &'m TableSlot,
    state: u64,
}

/// A lockless walk read a table that was freed (and maybe re-allocated)
/// meanwhile, or whose upper entry moved: what it read counts for nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Raced;

fn names(e: Entry, frame: FrameId) -> bool {
    e.is_present() && !e.is_huge() && e.frame() == frame
}

impl<'m> Reach<'m> {
    /// Follows `e`, read from `upper[idx]` (present, not huge), to its
    /// table: stamps the state of the slot the frame uses, then looks the
    /// slot up and re-reads the entry again. If the frame still uses the
    /// slot and the entry still names the frame, the stamp belongs to the
    /// table the entry names, and that table was installed (so filled)
    /// before the re-read; otherwise the walk raced.
    pub fn enter(
        machine: &'m Machine,
        upper: &'m Table,
        idx: usize,
        e: Entry,
    ) -> std::result::Result<Self, Raced> {
        let frame = e.frame();
        let found = machine.slots().find(frame).ok_or(Raced)?;
        let slot = found.slot();
        let state = slot.stamp().ok_or(Raced)?;
        if !found.current() || !names(upper.load(idx), frame) {
            return Err(Raced);
        }
        race_at(Point::Entered(frame));
        Ok(Reach {
            upper,
            idx,
            frame,
            table: slot.table(),
            slot,
            state,
        })
    }

    /// Whether the upper entry still names the table and the table was
    /// not freed since [`Reach::enter`]: everything read from it between
    /// the two was read from the table the entry named.
    pub fn holds(&self) -> bool {
        self.slot.state() == self.state && names(self.upper.load(self.idx), self.frame)
    }

    /// This reach again, for a walker that re-read `upper[idx]` naming the
    /// same frame: still valid if the table was not freed meanwhile (the
    /// entry named it between the stamp and now).
    fn again(self, upper: &Table, idx: usize, frame: FrameId) -> Option<Self> {
        (std::ptr::eq(self.upper, upper)
            && self.idx == idx
            && self.frame == frame
            && self.slot.state() == self.state)
            .then_some(self)
    }
}

/// Whether every table of a lockless walk's `path` [holds](Reach::holds).
pub(crate) fn holds(path: &[Reach<'_>]) -> bool {
    path.iter().all(Reach::holds)
}

/// Sets the hardware-managed `bits` on `table[idx]`, which a lockless
/// walk read as `e`, after validating the walk's `path`: by
/// compare-exchange against `e`, and only when a bit is missing. A table
/// freed and reused after the validation takes the bits only if it holds
/// the identical entry, which over-approximates accessed/dirty bits and
/// nothing else (DESIGN.md §4.1 rule 7). Returns `false` (a raced walk)
/// if the path no longer holds or the entry changed in more than those
/// bits.
pub(crate) fn set_bits(
    path: &[Reach<'_>],
    table: &Table,
    idx: usize,
    mut e: Entry,
    bits: u64,
) -> bool {
    const HARDWARE: u64 = EntryFlags::ACCESSED | EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    if !holds(path) {
        return false;
    }
    race_at(Point::Validated);
    while e.0 & bits != bits {
        match table.compare_exchange(idx, e, e.with_set(bits)) {
            Ok(_) => break,
            Err(now) if now.0 & !HARDWARE == e.0 & !HARDWARE => e = now,
            Err(_) => return false,
        }
    }
    true
}

/// Whether `leaf`, reached through the PMD entry `pmd`, reads as
/// soft-dirty: written since this process's last snapshot epoch. Never
/// below a `SOFT_CLEAN` entry, whose epoch began after every bit in its
/// table was set. A huge leaf is its own PMD entry: pass it twice.
///
/// The one reader of a leaf's soft-dirty bit (see the guard below): a
/// raw read would count a shared table's bits that the epoch sweep only
/// flagged.
pub(crate) fn soft_dirty(pmd: Entry, leaf: Entry) -> bool {
    leaf.is_soft_dirty() && !pmd.is_soft_clean()
}

/// A handle on one PMD entry: the PMD table, its backing frame, the entry
/// index for a given address — plus the PUD slot referencing the PMD
/// table, needed by the huge-page extension to copy-on-write whole PMD
/// tables (§4 "Huge Page Support").
#[derive(Clone, Copy)]
pub(crate) struct PmdSlot<'m> {
    /// The PUD table whose entry references this PMD table.
    pub pud_table: &'m Table,
    /// Index of that entry within the PUD table.
    pub pud_idx: usize,
    /// The PMD table containing the entry: the cursor's, or the table the
    /// ownership protocol put in its place ([`PmdSlot::with_table`]).
    pub table: &'m Table,
    /// Frame backing the PMD table (used for split-lock striping and as
    /// the anchor of the shared-PMD-table reference counter).
    pub frame: FrameId,
    /// Entry index within the PMD table.
    pub idx: usize,
    /// The PMD table as the cursor reached it.
    reach: Reach<'m>,
}

impl<'m> PmdSlot<'m> {
    fn new(reach: Reach<'m>, idx: usize) -> Self {
        PmdSlot {
            pud_table: reach.upper,
            pud_idx: reach.idx,
            table: reach.table,
            frame: reach.frame,
            idx,
            reach,
        }
    }

    /// Loads the PMD entry.
    pub fn load(&self) -> Entry {
        self.table.load(self.idx)
    }

    /// Stores the PMD entry.
    pub fn store(&self, e: Entry) {
        self.table.store(self.idx, e);
    }

    /// Loads the PUD entry referencing this PMD table.
    pub fn load_pud(&self) -> Entry {
        self.pud_table.load(self.pud_idx)
    }

    /// Stores the PUD entry referencing this PMD table.
    pub fn store_pud(&self, e: Entry) {
        self.pud_table.store(self.pud_idx, e);
    }

    /// Atomically sets flag bits on the PMD entry (preserves A/D bits set
    /// concurrently by the walker).
    pub fn set_flags(&self, bits: u64) -> Entry {
        self.table.fetch_set(self.idx, bits)
    }

    /// The PMD table as a lockless walker reached it, for validation.
    pub fn reach(&self) -> Reach<'m> {
        self.reach
    }

    /// The same PMD entry, reached through the table the ownership
    /// protocol put in place under its lock.
    pub fn with_table(self, owned: Reach<'m>) -> PmdSlot<'m> {
        PmdSlot::new(owned, self.idx)
    }
}

/// The one way to a PMD slot: a walk's path from its PGD down to the PMD
/// entries it visits. A table is found by indexing the machine's table
/// slots; the cursor also keeps the PUD table and the PMD table it last
/// reached, so a range walk resolves the slot of each 2 MiB chunk with
/// two entry loads and a state load until it enters another 1 GiB span.
pub(crate) struct PmdCursor<'m> {
    machine: &'m Machine,
    pgd: &'m Table,
    pud: Cell<Option<(FrameId, &'m Table)>>,
    pmd: Cell<Option<Reach<'m>>>,
}

impl<'m> PmdCursor<'m> {
    /// A cursor over the tree rooted at `pgd`.
    pub fn new(machine: &'m Machine, pgd: FrameId) -> Self {
        PmdCursor {
            machine,
            pgd: machine.table(pgd),
            pud: Cell::new(None),
            pmd: Cell::new(None),
        }
    }

    /// The PUD table in `frame`. PUD tables are freed only at teardown,
    /// never during a walk, so the one last resolved is kept by frame
    /// alone.
    fn pud_table(&self, frame: FrameId) -> &'m Table {
        match self.pud.get() {
            Some((f, table)) if f == frame => table,
            _ => {
                let table = self.machine.table(frame);
                self.pud.set(Some((frame, table)));
                table
            }
        }
    }

    /// The PMD slot `pud_table[pud_idx]` leads to, reached as a lockless
    /// walker reaches it: with a stamp taken while the entry named it.
    fn reach_pmd(&self, va: VirtAddr, pud_table: &'m Table) -> Option<PmdSlot<'m>> {
        let pud_idx = va.index(Level::Pud);
        loop {
            let pmd_e = pud_table.load(pud_idx);
            if !pmd_e.is_present() {
                return None;
            }
            let frame = pmd_e.frame();
            let held = self
                .pmd
                .get()
                .and_then(|r| r.again(pud_table, pud_idx, frame));
            // Under a lock that keeps the path this enters at once; a
            // lockless walker re-reads an entry a sibling fault re-pointed.
            match held.map_or_else(|| Reach::enter(self.machine, pud_table, pud_idx, pmd_e), Ok) {
                Ok(pmd) => {
                    self.pmd.set(Some(pmd));
                    return Some(PmdSlot::new(pmd, va.index(Level::Pmd)));
                }
                Err(Raced) if pud_table.load(pud_idx) == pmd_e => {
                    panic!("no table registered for {frame:?}")
                }
                Err(Raced) => {}
            }
        }
    }

    /// Resolves the PMD entry covering `va`, without creating tables.
    pub fn slot(&self, va: VirtAddr) -> Option<PmdSlot<'m>> {
        let pud_e = self.pgd.load(va.index(Level::Pgd));
        if !pud_e.is_present() {
            return None;
        }
        self.reach_pmd(va, self.pud_table(pud_e.frame()))
    }

    /// Resolves the PMD entry covering `va`, creating the PUD/PMD tables
    /// on the way if absent.
    ///
    /// Building the upper levels of a child tree at fork time is the only
    /// table-construction work On-demand-fork performs (§3.1: "copies the
    /// top levels of page tables of the parent").
    pub fn slot_create(&self, va: VirtAddr) -> Result<PmdSlot<'m>> {
        let (pud_table, pud_idx) = self.pud_create(va)?;
        ensure_child_table(self.machine, pud_table, pud_idx)?;
        Ok(self
            .reach_pmd(va, pud_table)
            .expect("PMD tables are freed only under the exclusive mm lock"))
    }

    /// Resolves (creating if needed) the PUD table and entry index covering
    /// `va` — the level at which the huge-page extension shares PMD tables.
    pub fn pud_create(&self, va: VirtAddr) -> Result<(&'m Table, usize)> {
        let pud_frame = ensure_child_table(self.machine, self.pgd, va.index(Level::Pgd))?;
        Ok((self.pud_table(pud_frame), va.index(Level::Pud)))
    }
}

/// Resolves the PTE table referenced by a PMD entry, allocating and linking
/// a fresh one under the split lock if the entry is absent. No sharing
/// decisions are made here. Returns `None` when the slot turned huge
/// meanwhile, or when the walk to a present entry's table raced (either
/// way dispatch must be redone).
///
/// `e` is a pre-lock read, and the split lock taken below stripes on the
/// *PMD table's* frame — it does not exclude a sibling thread's table-COW
/// of this slot, which stripes on the PTE table's frame. So a present
/// entry's table is reached as a lockless walker reaches it: a caller that
/// acts on what it reads without taking the table's own lock first
/// validates the returned [`Reach`].
pub(crate) fn resolve_table<'m>(
    machine: &'m Machine,
    pmd: &PmdSlot<'m>,
    e: Entry,
) -> Result<Option<Reach<'m>>> {
    if e.is_present() {
        return Ok(Reach::enter(machine, pmd.table, pmd.idx, e).ok());
    }
    let _guard = machine.split_lock(pmd.frame);
    let cur = pmd.load();
    if cur.is_present() {
        if cur.is_huge() {
            return Ok(None);
        }
        return Ok(Reach::enter(machine, pmd.table, pmd.idx, cur).ok());
    }
    let (frame, _) = machine.alloc_table()?;
    pmd.store(Entry::table(frame));
    Ok(Reach::enter(machine, pmd.table, pmd.idx, Entry::table(frame)).ok())
}

/// Returns the child-table frame of `table[idx]`, allocating and linking a
/// fresh table if the entry is absent.
///
/// The link is published with a compare-exchange so concurrent faults under
/// the shared `mm` lock can race to build the same path: the loser frees
/// its table and adopts the winner's. Upper-level tables are only ever
/// *freed* under the exclusive lock (unmap/teardown), so a frame observed
/// here cannot disappear mid-fault.
fn ensure_child_table(machine: &Machine, table: &Table, idx: usize) -> Result<FrameId> {
    let e = table.load(idx);
    if e.is_present() {
        return Ok(e.frame());
    }
    let (frame, _) = machine.alloc_table()?;
    match table.compare_exchange(idx, e, Entry::table(frame)) {
        Ok(_) => Ok(frame),
        Err(winner) => {
            machine.free_table(frame);
            debug_assert!(winner.is_present(), "raced install left slot empty");
            Ok(winner.frame())
        }
    }
}

/// A successful translation.
pub(crate) struct Translation {
    /// The 4 KiB frame holding the byte at the translated address (for a
    /// huge mapping, the right sub-frame of the compound page).
    pub frame: FrameId,
    /// Effective write permission along the whole walk.
    pub writable: bool,
}

/// Translates `va` like the hardware walker: returns the backing frame and
/// effective permissions, setting the accessed (and, for permitted writes,
/// dirty) bits. Returns `Ok(None)` when any level is not present — the
/// caller raises a page fault — and [`Raced`] when a table it read was
/// freed or re-pointed meanwhile — the caller walks again.
///
/// The walk applies hierarchical attributes: a cleared writable bit at
/// *any* level write-protects everything below it. This is the mechanism
/// On-demand-fork relies on to protect a shared last-level table with a
/// single PMD-entry bit (§3.2); the A/D-bit behavior matches the paper too
/// — the CPU keeps setting accessed bits on entries of shared tables, and
/// the dirty bit can never be set through one because writes through a
/// shared table are never permitted.
///
/// The walk is lock-free: below the PGD (kept by the caller's mm lock)
/// each table is [reached](Reach::enter) and the whole path validated
/// before the A/D bits are set by compare-exchange ([`set_bits`]). A "not
/// present" read from a stale table is not validated: the fault it raises
/// re-resolves under the locks.
pub(crate) fn translate(
    machine: &Machine,
    pgd: FrameId,
    va: VirtAddr,
    write: bool,
) -> std::result::Result<Option<Translation>, Raced> {
    let mut bits = EntryFlags::ACCESSED;
    if write {
        bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    }
    let leaf = |path: &[Reach<'_>], table: &Table, idx, e: Entry, writable: bool, frame| {
        if write && !writable {
            Ok(None)
        } else if set_bits(path, table, idx, e, bits) {
            Ok(Some(Translation { frame, writable }))
        } else {
            Err(Raced)
        }
    };
    let pgd_table = machine.table(pgd);
    let pgd_idx = va.index(Level::Pgd);
    let pud_e = pgd_table.load(pgd_idx);
    if !pud_e.is_present() {
        return Ok(None);
    }
    let pud = Reach::enter(machine, pgd_table, pgd_idx, pud_e)?;
    let pud_idx = va.index(Level::Pud);
    let pmd_te = pud.table.load(pud_idx);
    if !pmd_te.is_present() {
        return Ok(None);
    }
    let pmd = Reach::enter(machine, pud.table, pud_idx, pmd_te)?;
    let pmd_idx = va.index(Level::Pmd);
    let pmd_e = pmd.table.load(pmd_idx);
    if !pmd_e.is_present() {
        return Ok(None);
    }
    let writable = pud_e.is_writable() && pmd_te.is_writable() && pmd_e.is_writable();
    if pmd_e.is_huge() {
        let frame = pmd_e.frame().offset(va.index(Level::Pte));
        return leaf(&[pud, pmd], pmd.table, pmd_idx, pmd_e, writable, frame);
    }
    let pte_table = Reach::enter(machine, pmd.table, pmd_idx, pmd_e)?;
    let idx = va.index(Level::Pte);
    let pte = pte_table.table.load(idx);
    if !pte.is_present() {
        return Ok(None);
    }
    let writable = writable && pte.is_writable();
    leaf(
        &[pud, pmd, pte_table],
        pte_table.table,
        idx,
        pte,
        writable,
        pte.frame(),
    )
}

/// A point of a lockless walk, where a unit test stages a race
/// (`tests::once_at`). Outside tests the points compile to nothing.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Point {
    /// A table was reached (stamped, its upper entry re-read); the walker
    /// reads it next.
    Entered(FrameId),
    /// The path was validated; the A/D bits are set next.
    Validated,
}

#[inline(always)]
fn race_at(point: Point) {
    #[cfg(test)]
    tests::race_at(point);
    let _ = point;
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_pagetable::ENTRIES_PER_TABLE;
    use odf_pmem::PageKind;
    use std::sync::Arc;

    fn setup() -> (Arc<Machine>, FrameId) {
        let m = Machine::new(4 << 20);
        let (pgd, _) = m.alloc_table().unwrap();
        (m, pgd)
    }

    #[test]
    fn create_then_lookup_round_trips() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x1234_5678_9000);
        assert!(PmdCursor::new(&m, pgd).slot(va).is_none());
        let create = PmdCursor::new(&m, pgd);
        let slot = create.slot_create(va).unwrap();
        assert!(!slot.load().is_present());
        let lookup = PmdCursor::new(&m, pgd);
        let again = lookup.slot(va).unwrap();
        assert_eq!(again.frame, slot.frame);
        assert_eq!(again.idx, slot.idx);
        // Three tables were created: PGD existed, plus PUD and PMD.
        assert_eq!(m.live_tables(), 3);
    }

    #[test]
    fn create_is_idempotent() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let a = PmdCursor::new(&m, pgd).slot_create(va).unwrap().frame;
        let b = PmdCursor::new(&m, pgd).slot_create(va).unwrap().frame;
        assert_eq!(a, b);
        assert_eq!(m.live_tables(), 3);
    }

    #[test]
    fn a_cursor_re_resolves_where_an_upper_entry_names_another_table() {
        let (m, pgd) = setup();
        const GIB: u64 = 1 << 30;
        // The last chunk below 1 GiB, the first above it, and the first
        // above 512 GiB: three PMD tables, the last under its own PUD table.
        let vas = [GIB - PTE_TABLE_SPAN, GIB, 512 * GIB].map(VirtAddr::new);
        let cursor = PmdCursor::new(&m, pgd);
        let mut frames = Vec::new();
        for va in vas {
            let slot = cursor.slot_create(va).unwrap();
            assert_eq!(slot.idx, va.index(Level::Pmd));
            frames.push(slot.frame);
        }
        assert_eq!(
            m.live_tables(),
            1 + 2 + 3,
            "PGD, two PUD and three PMD tables"
        );
        // Walking back and forth, the cursor lands on each span's own table.
        for (va, frame) in vas
            .into_iter()
            .zip(&frames)
            .rev()
            .chain(vas.into_iter().zip(&frames))
        {
            assert_eq!(cursor.slot(va).unwrap().frame, *frame);
            assert_eq!(PmdCursor::new(&m, pgd).slot(va).unwrap().frame, *frame);
        }
        // Re-pointing or clearing the PUD entry above the reached table (a
        // PMD-table COW, a release) shows at the next slot of the span.
        assert_eq!(cursor.slot(vas[0]).unwrap().frame, frames[0]);
        let (copy, _) = m.alloc_table().unwrap();
        let other = PmdCursor::new(&m, pgd);
        let slot = other.slot(vas[0]).unwrap();
        let pud_e = slot.load_pud();
        slot.store_pud(Entry::table(copy));
        assert_eq!(
            cursor.slot(vas[0].add(PAGE_SIZE as u64)).unwrap().frame,
            copy
        );
        slot.store_pud(Entry::NONE);
        assert!(cursor.slot(vas[0]).is_none());
        slot.store_pud(pud_e);
        assert_eq!(cursor.slot(vas[0]).unwrap().frame, frames[0]);
        m.free_table(copy);
    }

    #[test]
    fn translate_resolves_pte_mappings_and_sets_bits() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x7000_2000);
        let cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(va).unwrap();
        let (ptf, pte_table) = m.alloc_table().unwrap();
        slot.store(Entry::table(ptf));
        let data = m.pool().alloc_page(PageKind::Anon).unwrap();
        pte_table.store(va.index(Level::Pte), Entry::page(data, true));

        let t = translate(&m, pgd, va, true).unwrap().unwrap();
        assert_eq!(t.frame, data);
        assert!(t.writable);
        let e = pte_table.load(va.index(Level::Pte));
        assert!(e.is_accessed());
        assert!(e.is_dirty());
    }

    #[test]
    fn hierarchical_writable_bit_blocks_writes() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x7000_2000);
        let cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(va).unwrap();
        let (ptf, pte_table) = m.alloc_table().unwrap();
        // PTE says writable, but the PMD entry write-protects the table —
        // exactly the On-demand-fork shared-table state.
        slot.store(Entry::table(ptf).with_cleared(EntryFlags::WRITABLE));
        let data = m.pool().alloc_page(PageKind::Anon).unwrap();
        pte_table.store(va.index(Level::Pte), Entry::page(data, true));

        assert!(
            translate(&m, pgd, va, true).unwrap().is_none(),
            "write must fault"
        );
        let t = translate(&m, pgd, va, false).unwrap().unwrap();
        assert!(!t.writable, "effective permission is read-only");
        // Reads through a shared table still set the accessed bit (§3.2).
        assert!(pte_table.load(va.index(Level::Pte)).is_accessed());
        // The dirty bit is never set through a write-protected path.
        assert!(!pte_table.load(va.index(Level::Pte)).is_dirty());
    }

    #[test]
    fn translate_resolves_huge_mappings_to_subframes() {
        let (m, pgd) = setup();
        let base = VirtAddr::new(0x4020_0000); // 2 MiB aligned
        let cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(base).unwrap();
        let huge = m.pool().alloc_huge(PageKind::Anon).unwrap();
        slot.store(Entry::huge_page(huge, true));

        let t = translate(&m, pgd, base.add(5 * 4096 + 7), false)
            .unwrap()
            .unwrap();
        assert_eq!(t.frame, huge.offset(5));
        assert!(slot.load().is_accessed());
        assert!(!slot.load().is_dirty());
        let t = translate(&m, pgd, base, true).unwrap().unwrap();
        assert_eq!(t.frame, huge);
        assert!(slot.load().is_dirty());
    }

    #[test]
    fn absent_levels_translate_to_none() {
        let (m, pgd) = setup();
        assert!(translate(&m, pgd, VirtAddr::new(0x1000), false)
            .unwrap()
            .is_none());
        let va = VirtAddr::new(0x5000_0000);
        let _ = PmdCursor::new(&m, pgd).slot_create(va).unwrap();
        // PMD entry still absent.
        assert!(translate(&m, pgd, va, false).unwrap().is_none());
    }

    #[test]
    fn chunks_tile_the_range_one_span_at_a_time() {
        const SPAN: u64 = PTE_TABLE_SPAN;
        const PG: u64 = PAGE_SIZE as u64;
        let base = 0x4000_0000u64;
        // (case, start, end, whether each expected chunk is a whole span)
        let cases: [(&str, u64, u64, &[bool]); 6] = [
            ("inside one chunk", base + 3 * PG, base + 9 * PG, &[false]),
            ("exactly one chunk", base, base + SPAN, &[true]),
            (
                "straddling a boundary",
                base + SPAN - 2 * PG,
                base + SPAN + 5 * PG,
                &[false, false],
            ),
            (
                "ending on a boundary",
                base + 7 * PG,
                base + 2 * SPAN,
                &[false, true],
            ),
            (
                "starting mid-chunk",
                base + SPAN / 2,
                base + 3 * SPAN + PG,
                &[false, true, true, false],
            ),
            ("an empty range", base + 5 * PG, base + 5 * PG, &[]),
        ];
        for (case, start, end, full) in cases {
            let got: Vec<Chunk> = chunks(start, end).collect();
            assert_eq!(
                got.iter().map(|c| c.is_full()).collect::<Vec<_>>(),
                full,
                "{case}: chunk count and whole spans"
            );
            let mut cursor = start;
            for c in got {
                assert_eq!(c.at.as_u64(), cursor, "{case}: chunks tile in order");
                assert!(c.at < c.end, "{case}: no empty chunk");
                assert_eq!(c.base().as_u64() % SPAN, 0, "{case}");
                assert!(
                    c.end.as_u64() <= c.base().as_u64() + SPAN,
                    "{case}: one span"
                );
                let ptes = c.ptes();
                assert!(ptes.end <= ENTRIES_PER_TABLE, "{case}: ptes within 0..512");
                assert_eq!(ptes.len() as u64 * PG, c.end.as_u64() - c.at.as_u64());
                assert_eq!(c.va(ptes.start), c.at, "{case}");
                for idx in ptes {
                    let va = c.va(idx);
                    assert_eq!(va.index(Level::Pte), idx, "{case}: va round-trips");
                    assert!(c.at <= va && va < c.end, "{case}");
                }
                cursor = c.end.as_u64();
            }
            assert_eq!(cursor, end, "{case}: chunks cover the range");
        }
    }

    /// The PTE table in `old` behind `slot` is freed, and the next table
    /// allocated lands in the same frame (and slot); it maps PTE `idx` as
    /// `entry` and is installed where the old table was.
    fn reuse(m: &Machine, slot: PmdSlot<'_>, old: FrameId, idx: usize, entry: Entry) {
        slot.store(Entry::NONE);
        m.free_table(old);
        let (again, table) = m.alloc_table().unwrap();
        assert_eq!(again, old, "the freed frame is allocated again");
        assert!(table.is_empty(), "a reused slot starts empty");
        table.store(idx, entry);
        slot.store(Entry::table(again));
    }

    /// A table mapping `va` to a fresh page, and a second fresh page.
    fn mapped(m: &Arc<Machine>, pgd: FrameId, va: VirtAddr) -> (FrameId, FrameId, FrameId) {
        let slot = PmdCursor::new(m, pgd).slot_create(va).unwrap();
        let (ptf, pte_table) = m.alloc_table().unwrap();
        slot.store(Entry::table(ptf));
        let old = m.pool().alloc_page(PageKind::Anon).unwrap();
        let new = m.pool().alloc_page(PageKind::Anon).unwrap();
        pte_table.store(va.index(Level::Pte), Entry::page(old, true));
        (ptf, old, new)
    }

    /// A staged race: what to run when a walk passes a point.
    type Hook = (Point, Box<dyn FnOnce()>);

    thread_local! {
        /// What this thread's walks run at the next [`Point`] they pass.
        static HOOK: std::cell::Cell<Option<Hook>> = const { std::cell::Cell::new(None) };
    }

    pub(super) fn race_at(point: Point) {
        match HOOK.take() {
            Some((at, f)) if at == point => f(),
            hook => HOOK.set(hook),
        }
    }

    /// Runs `f` once, the first time a walk of this thread passes `at`.
    fn once_at(at: Point, f: impl FnOnce() + 'static) {
        HOOK.set(Some((at, Box::new(f))));
    }

    #[test]
    fn a_walk_whose_table_is_reused_under_it_reports_a_race() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x7000_2000);
        let idx = va.index(Level::Pte);
        let (ptf, _, new) = mapped(&m, pgd, va);
        // After the walker reads the PMD entry naming the PTE table, and
        // before it reads the table, the table is freed and the frame
        // becomes a table again, installed under the same PMD entry. The
        // entry still names the frame; only the generation moved.
        let hooked = Arc::clone(&m);
        once_at(Point::Entered(ptf), move || {
            let slot = PmdCursor::new(&hooked, pgd).slot(va).unwrap();
            reuse(&hooked, slot, ptf, idx, Entry::page(new, true));
        });
        let raced = translate(&m, pgd, va, false).err();
        HOOK.set(None);
        assert_eq!(raced, Some(Raced), "the walk read a reused table");
        assert!(
            !m.table(ptf).load(idx).is_accessed(),
            "a raced walk sets no bit"
        );
        // Walked again, the new table's mapping is found.
        assert_eq!(translate(&m, pgd, va, false).unwrap().unwrap().frame, new);
    }

    #[test]
    fn a_table_reused_after_the_walk_validated_takes_no_bit() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x7000_2000);
        let idx = va.index(Level::Pte);
        let (ptf, _, new) = mapped(&m, pgd, va);
        // The walk validated its path; before it sets the accessed and
        // dirty bits, the table is freed and reused for another mapping.
        let hooked = Arc::clone(&m);
        once_at(Point::Validated, move || {
            let slot = PmdCursor::new(&hooked, pgd).slot(va).unwrap();
            reuse(&hooked, slot, ptf, idx, Entry::page(new, true));
        });
        let raced = translate(&m, pgd, va, true).err();
        HOOK.set(None);
        assert_eq!(raced, Some(Raced), "the entry changed under the walk");
        let e = m.table(ptf).load(idx);
        assert_eq!(
            e,
            Entry::page(new, true),
            "the new table's entry is untouched"
        );
    }

    #[test]
    fn a_reused_table_holding_the_identical_entry_takes_the_bits() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x7000_2000);
        let idx = va.index(Level::Pte);
        let (ptf, old, _) = mapped(&m, pgd, va);
        // The reuse maps the same page the same way: the compare-exchange
        // lands, and the page reads as accessed a little early — an
        // over-approximation of the accessed bit, and nothing else.
        let hooked = Arc::clone(&m);
        once_at(Point::Validated, move || {
            let slot = PmdCursor::new(&hooked, pgd).slot(va).unwrap();
            reuse(&hooked, slot, ptf, idx, Entry::page(old, true));
        });
        let t = translate(&m, pgd, va, false).unwrap().unwrap();
        HOOK.set(None);
        assert_eq!(t.frame, old);
        let e = m.table(ptf).load(idx);
        assert_eq!(e, Entry::page(old, true).with_set(EntryFlags::ACCESSED));
    }

    /// A table COW that cannot allocate its copy, with the pool exhausted:
    /// the failure leaves no slot live and no generation moved, and the
    /// COW succeeds once a frame is free again.
    #[test]
    fn a_table_cow_that_runs_out_of_frames_leaves_the_slots_untouched() {
        use crate::share::{self, Policy, Slot, Take};
        let m = Machine::new(64 * PAGE_SIZE as u64);
        let pool = m.pool();
        let baseline = pool.balance();
        // Two processes' upper tables share one PTE table mapping a page.
        let (ours, our_table) = m.alloc_table().unwrap();
        let (theirs, their_table) = m.alloc_table().unwrap();
        let (shared, lower) = m.alloc_table().unwrap();
        let page = m.alloc_page(PageKind::Anon).unwrap();
        lower.store(0, Entry::page(page, true));
        pool.pt_share_inc(shared);
        let e = Entry::table(shared).with_cleared(EntryFlags::WRITABLE);
        our_table.store(7, e);
        their_table.store(7, e);
        let tables = [ours, theirs, shared];
        let state = |f| m.slots().slot(f).map(|s| s.state());
        let states = tables.map(state);
        let live = m.live_tables();
        let mut hog = Vec::new();
        while let Ok(f) = pool.alloc_page(PageKind::Anon) {
            hog.push(f);
        }
        let slot = Slot {
            upper: our_table,
            idx: 7,
            frame: shared,
            level: Level::Pte,
        };
        let copy = |m| share::take(m, slot, |_| Policy::Copy);
        assert_eq!(copy(&m).err(), Some(crate::VmError::NoMemory));
        assert_eq!(m.live_tables(), live, "no slot became live");
        assert_eq!(tables.map(state), states, "no generation moved");
        assert_eq!(
            our_table.load(7),
            e,
            "the slot still names the shared table"
        );
        assert_eq!(pool.pt_share_count(shared), 2);
        // One frame back, and the copy is made.
        pool.ref_dec(hog.pop().unwrap());
        let Ok(Take::Owned(Some(owned))) = copy(&m) else {
            panic!("the retried COW did not copy");
        };
        assert_ne!(owned.frame, shared);
        assert_eq!(m.live_tables(), live + 1);
        // Teardown: both page references, the three tables and the copy.
        for f in hog {
            pool.ref_dec(f);
        }
        for table in [owned.frame, shared] {
            assert_eq!(m.table(table).load(0).frame(), page);
            pool.ref_dec(page);
            m.free_table(table);
        }
        m.free_table(ours);
        m.free_table(theirs);
        assert_eq!(m.live_tables(), 0);
        odf_pmem::assert_pool_balanced(pool, baseline);
    }
}

/// The 2 MiB span arithmetic and the walk down to a PMD slot are written
/// in this module only, so neither a hand-rolled range loop nor a
/// per-chunk upper-level lookup can come back silently: every other source
/// file iterates ranges through [`chunks`] (`lib.rs` only re-exports the
/// span) and reaches PMD slots through a [`PmdCursor`].
#[cfg(test)]
mod guard {
    #[test]
    fn only_the_walk_module_does_span_arithmetic() {
        for (name, text) in crate::sources::except("walk.rs") {
            for line in text.lines() {
                let reexport = name == "lib.rs" && line.starts_with("pub use ");
                assert!(
                    reexport
                        || !(line.contains("pte_table_align_down")
                            || line.contains("PTE_TABLE_SPAN")),
                    "{name} does span arithmetic outside walk.rs: iterate with walk::chunks\n{line}"
                );
            }
        }
    }

    #[test]
    fn only_the_walk_module_resolves_pmd_slots() {
        for (name, text) in crate::sources::except("walk.rs") {
            for line in text.lines() {
                assert!(
                    ![
                        "PmdSlot {",
                        "walk::pmd_slot",
                        "index(Level::Pgd)",
                        "index(Level::Pud)",
                        "index(Level::Pmd)",
                    ]
                    .iter()
                    .any(|walk| line.contains(walk)),
                    "{name} resolves a PMD slot outside walk.rs: use a walk::PmdCursor\n{line}"
                );
            }
        }
    }

    /// A leaf's soft-dirty bit is read through [`soft_dirty`](super::soft_dirty)
    /// only, which applies the PMD entry's `SOFT_CLEAN` flag. The one
    /// raw-bit carrier is listed: reclaim's swap entry, which keeps the
    /// bit below the same PMD entry, so the flag still applies to it. The
    /// other carriers copy whole entries and read no bit: the table COW
    /// (`Table::copy_from`) and Classic fork's entry copy, both of which
    /// clear the bits below a flagged entry instead. Test modules may read
    /// raw bits.
    #[test]
    fn only_the_helper_reads_a_leafs_soft_dirty_bit() {
        let carriers = [("reclaim.rs", "Entry::swap(slot, latest.is_soft_dirty())")];
        let reads = [
            ["is_soft", "_dirty()"].concat(),
            ["& EntryFlags::", "SOFT_DIRTY"].concat(),
        ];
        for (name, text) in crate::sources::except("") {
            let code = &text[..text.find("#[cfg(test)]").unwrap_or(text.len())];
            for line in code.lines() {
                let helper = name == "walk.rs" && line.contains("leaf.is_soft_dirty() &&");
                let carrier = carriers.iter().any(|&(f, l)| f == name && line.contains(l));
                assert!(
                    helper || carrier || !reads.iter().any(|r| line.contains(r.as_str())),
                    "{name} reads a leaf's soft-dirty bit raw: use walk::soft_dirty\n{line}"
                );
            }
        }
    }

    /// Page tables live in the machine's frame-indexed slots: no table
    /// store or reference-counted table comes back, only
    /// `Machine::alloc_table` and `Machine::free_table` write a slot, and
    /// only [`Reach`](super::Reach) and [`PmdSlot`](super::PmdSlot), here,
    /// read a generation. (Patterns are assembled so this text does not
    /// match them.)
    #[test]
    fn tables_are_slots_written_by_two_functions_and_validated_here() {
        let gone = [
            ["Pt", "Store"].concat(),
            ["Arc<", "Table>"].concat(),
            [".store()", ".get("].concat(),
            ["try", "_get("].concat(),
        ];
        let writers = [
            ["tables", ".claim("].concat(),
            ["tables", ".release("].concat(),
        ];
        let readers = [".stamp(", ".state(", ".slots()"].map(|r| r.to_string());
        for (name, text) in crate::sources::except("") {
            for g in &gone {
                assert!(
                    !text.contains(g.as_str()),
                    "{name} names {g}: tables live in slots"
                );
            }
            for w in &writers {
                // Each writer call lies in its own function of machine.rs.
                let owners = text
                    .split("fn ")
                    .filter(|f| f.contains(w.as_str()))
                    .map(|f| (name, f.split('(').next().unwrap_or_default()))
                    .collect::<Vec<_>>();
                let ok: &[_] = match w.contains("claim") {
                    true if name == "machine.rs" => &[("machine.rs", "alloc_table")],
                    false if name == "machine.rs" => &[("machine.rs", "free_table")],
                    _ => &[],
                };
                assert_eq!(
                    owners, ok,
                    "{name} writes a table slot outside alloc_table/free_table"
                );
            }
            if name != "walk.rs" {
                for r in &readers {
                    assert!(
                        !text.contains(r.as_str()),
                        "{name} reads a table generation ({r}): validate through walk::Reach"
                    );
                }
            }
        }
    }
}
