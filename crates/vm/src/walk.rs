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
//!   table sharing lives. A range walk takes one cursor and resolves each
//!   chunk through it, so the upper tables are looked up once per 1 GiB
//!   span, not once per chunk; a per-address caller uses it once.
//! - [`translate`]: the simulated MMU's translation: full walk with
//!   hierarchical attribute resolution (effective writability is the AND of
//!   the writable bits along the path, §3.2) and accessed/dirty bit
//!   updates, exactly like the hardware walker.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use odf_pagetable::{Entry, EntryFlags, Level, Table, VirtAddr, PTE_TABLE_SPAN};
use odf_pmem::{FrameId, PAGE_SIZE};
use odf_trace::{Event, LockSite};

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

/// Emits a `LockRetry` trace event and mirrors it to the probe layer. The
/// probe context carries the lock class in `kind` so `count_by kind`
/// programs attribute contention per site.
pub(crate) fn lock_retry(site: LockSite) {
    odf_trace::emit(Event::LockRetry { site });
    if odf_trace::probes_active() {
        let mut cx = odf_trace::ProbeContext::at(odf_trace::ProbePoint::LockRetry);
        cx.kind = site.as_u8();
        odf_trace::probe_hit(&cx);
    }
}

/// A handle on one PMD entry: the PMD table, its backing frame, the entry
/// index for a given address — plus the PUD slot referencing the PMD
/// table, needed by the huge-page extension to copy-on-write whole PMD
/// tables (§4 "Huge Page Support"). It borrows the tables of the
/// [`PmdCursor`] that resolved it.
#[derive(Clone)]
pub(crate) struct PmdSlot<'t> {
    /// The PUD table whose entry references this PMD table.
    pub pud_table: &'t Table,
    /// Index of that entry within the PUD table.
    pub pud_idx: usize,
    /// The PMD table containing the entry: the cursor's, or the table the
    /// ownership protocol put in its place ([`PmdSlot::with_table`]).
    pub table: Cow<'t, Arc<Table>>,
    /// Frame backing the PMD table (used for split-lock striping and as
    /// the anchor of the shared-PMD-table reference counter).
    pub frame: FrameId,
    /// Entry index within the PMD table.
    pub idx: usize,
}

impl<'t> PmdSlot<'t> {
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

    /// The same PMD entry, reached through `table` (backed by `frame`): the
    /// PMD table the PUD entry references once the ownership protocol ran.
    pub fn with_table(self, (frame, table): (FrameId, Arc<Table>)) -> PmdSlot<'t> {
        PmdSlot {
            table: Cow::Owned(table),
            frame,
            ..self
        }
    }
}

/// The one way to a PMD slot: a walk's path from its PGD down to the PMD
/// entries it visits. It holds the PUD and PMD tables of the last slot it
/// resolved. At each address it reloads the PGD entry and the PUD entry
/// from the tables it holds (loads only), and reuses a held table only if
/// it was reached through that same entry and the entry still names its
/// frame; otherwise it looks the table up (or creates it). A range walk
/// takes one cursor, so resolving the slot of each 2 MiB chunk costs two
/// entry loads, and a store lookup only where the walk enters another
/// 1 GiB (PUD) or 512 GiB (PGD) span or an entry was re-pointed meanwhile
/// (a PMD-table COW, a release). DESIGN.md §4.1 rule 8 says, per lock
/// mode, why an entry that still names the held frame still names the held
/// table.
pub(crate) struct PmdCursor<'m> {
    machine: &'m Machine,
    pgd: Arc<Table>,
    pud: Held,
    pmd: Held,
}

/// One level's table as a [`PmdCursor`] last resolved it, with the upper
/// entry it was reached through (numbered by the address span it maps).
#[derive(Default)]
struct Held(Option<(u64, FrameId, Arc<Table>)>);

impl Held {
    /// The table backing `frame`, which the `level` entry covering `va`
    /// names: the held one if it was reached through that same entry and
    /// the entry still names its frame, else the store's.
    fn resolve(
        &mut self,
        machine: &Machine,
        level: Level,
        va: VirtAddr,
        frame: FrameId,
    ) -> &Arc<Table> {
        let entry = va.as_u64() >> level.index_shift();
        if !matches!(&self.0, Some((e, f, _)) if *e == entry && *f == frame) {
            self.0 = Some((entry, frame, machine.store().get(frame)));
        }
        &self.0.as_ref().expect("resolved above").2
    }
}

impl<'m> PmdCursor<'m> {
    /// A cursor over the tree rooted at `pgd`, holding no lower table yet.
    pub fn new(machine: &'m Machine, pgd: FrameId) -> Self {
        PmdCursor {
            machine,
            pgd: machine.store().get(pgd),
            pud: Held::default(),
            pmd: Held::default(),
        }
    }

    /// Resolves the PMD entry covering `va`, without creating tables.
    pub fn slot(&mut self, va: VirtAddr) -> Option<PmdSlot<'_>> {
        let pud_e = self.pgd.load(va.index(Level::Pgd));
        if !pud_e.is_present() {
            return None;
        }
        let pud_table = self
            .pud
            .resolve(self.machine, Level::Pgd, va, pud_e.frame());
        let pud_idx = va.index(Level::Pud);
        let pmd_e = pud_table.load(pud_idx);
        if !pmd_e.is_present() {
            return None;
        }
        let frame = pmd_e.frame();
        Some(PmdSlot {
            pud_table,
            pud_idx,
            table: Cow::Borrowed(self.pmd.resolve(self.machine, Level::Pud, va, frame)),
            frame,
            idx: va.index(Level::Pmd),
        })
    }

    /// Resolves the PMD entry covering `va`, creating the PUD/PMD tables
    /// on the way if absent.
    ///
    /// Building the upper levels of a child tree at fork time is the only
    /// table-construction work On-demand-fork performs (§3.1: "copies the
    /// top levels of page tables of the parent").
    pub fn slot_create(&mut self, va: VirtAddr) -> Result<PmdSlot<'_>> {
        let pud_frame = ensure_child_table(self.machine, &self.pgd, va.index(Level::Pgd))?;
        let pud_table = self.pud.resolve(self.machine, Level::Pgd, va, pud_frame);
        let pud_idx = va.index(Level::Pud);
        let frame = ensure_child_table(self.machine, pud_table, pud_idx)?;
        Ok(PmdSlot {
            pud_table,
            pud_idx,
            table: Cow::Borrowed(self.pmd.resolve(self.machine, Level::Pud, va, frame)),
            frame,
            idx: va.index(Level::Pmd),
        })
    }

    /// Resolves (creating if needed) the PUD table and entry index covering
    /// `va` — the level at which the huge-page extension shares PMD tables.
    pub fn pud_create(&mut self, va: VirtAddr) -> Result<(&Table, usize)> {
        let pud_frame = ensure_child_table(self.machine, &self.pgd, va.index(Level::Pgd))?;
        let pud_table = self.pud.resolve(self.machine, Level::Pgd, va, pud_frame);
        Ok((pud_table, va.index(Level::Pud)))
    }
}

/// Resolves the PTE table referenced by a PMD entry, allocating and linking
/// a fresh one under the split lock if the entry is absent. No sharing
/// decisions are made here. Returns `None` when the slot turned huge
/// meanwhile, or when the referenced table vanished mid-walk (either way
/// dispatch must be redone).
///
/// Both lookups use `try_get`: `e` is a pre-lock read, and the split lock
/// taken below stripes on the *PMD table's* frame — it does not exclude a
/// sibling thread's table-COW of this slot, which stripes on the PTE
/// table's frame. Either way the referenced table can be COWed away and,
/// once its last co-referencing process exits, freed before the lookup. A
/// miss is that race (the kernel RCU-frees page tables to bridge the same
/// window), surfaced as `Outcome::Raced` so the attempt re-walks.
pub(crate) fn resolve_table(
    machine: &Machine,
    pmd: &PmdSlot,
    e: Entry,
) -> Result<Option<(FrameId, Arc<Table>)>> {
    if e.is_present() {
        let frame = e.frame();
        return Ok(machine.store().try_get(frame).map(|t| (frame, t)));
    }
    let _guard = machine.split_lock(pmd.frame);
    let cur = pmd.load();
    if cur.is_present() {
        if cur.is_huge() {
            return Ok(None);
        }
        let frame = cur.frame();
        return Ok(machine.store().try_get(frame).map(|t| (frame, t)));
    }
    let (frame, table) = machine.alloc_table()?;
    pmd.store(Entry::table(frame));
    Ok(Some((frame, table)))
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
/// dirty) bits. Returns `None` when any level is not present — the caller
/// raises a page fault.
///
/// The walk applies hierarchical attributes: a cleared writable bit at
/// *any* level write-protects everything below it. This is the mechanism
/// On-demand-fork relies on to protect a shared last-level table with a
/// single PMD-entry bit (§3.2); the A/D-bit behavior matches the paper too
/// — the CPU keeps setting accessed bits on entries of shared tables, and
/// the dirty bit can never be set through one because writes through a
/// shared table are never permitted.
///
/// The walk is lock-free, so every level below the PGD resolves with
/// `try_get`: an entry read here can go stale before its table is looked
/// up — a sibling fault COWs the slot, the table's last co-referent exits,
/// and the table vanishes from the store (the kernel RCU-frees page tables
/// so its lockless walkers survive the same window). A vanished table
/// reads as "not present": the caller raises a fault, which re-resolves
/// under the mm lock, and the access loop retries.
pub(crate) fn translate(
    machine: &Machine,
    pgd: FrameId,
    va: VirtAddr,
    write: bool,
) -> Option<Translation> {
    let pgd_table = machine.store().get(pgd);
    let pud_e = pgd_table.load(va.index(Level::Pgd));
    if !pud_e.is_present() {
        return None;
    }
    let mut writable = pud_e.is_writable();
    let pud_table = machine.store().try_get(pud_e.frame())?;
    let pmd_te = pud_table.load(va.index(Level::Pud));
    if !pmd_te.is_present() {
        return None;
    }
    writable &= pmd_te.is_writable();
    let pmd_table = machine.store().try_get(pmd_te.frame())?;
    let pmd_idx = va.index(Level::Pmd);
    let pmd_e = pmd_table.load(pmd_idx);
    if !pmd_e.is_present() {
        return None;
    }
    writable &= pmd_e.is_writable();
    if pmd_e.is_huge() {
        if write && !writable {
            return None;
        }
        let mut bits = EntryFlags::ACCESSED;
        if write {
            bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
        }
        pmd_table.fetch_set(pmd_idx, bits);
        return Some(Translation {
            frame: pmd_e.frame().offset(va.index(Level::Pte)),
            writable,
        });
    }
    let pte_table = machine.store().try_get(pmd_e.frame())?;
    let pte_idx = va.index(Level::Pte);
    let pte = pte_table.load(pte_idx);
    if !pte.is_present() {
        return None;
    }
    writable &= pte.is_writable();
    if write && !writable {
        return None;
    }
    let mut bits = EntryFlags::ACCESSED;
    if write {
        bits |= EntryFlags::DIRTY | EntryFlags::SOFT_DIRTY;
    }
    pte_table.fetch_set(pte_idx, bits);
    Some(Translation {
        frame: pte.frame(),
        writable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_pagetable::ENTRIES_PER_TABLE;
    use odf_pmem::PageKind;

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
        let mut create = PmdCursor::new(&m, pgd);
        let slot = create.slot_create(va).unwrap();
        assert!(!slot.load().is_present());
        let mut lookup = PmdCursor::new(&m, pgd);
        let again = lookup.slot(va).unwrap();
        assert_eq!(again.frame, slot.frame);
        assert_eq!(again.idx, slot.idx);
        // Three tables were created: PGD existed, plus PUD and PMD.
        assert_eq!(m.store().len(), 3);
    }

    #[test]
    fn create_is_idempotent() {
        let (m, pgd) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let a = PmdCursor::new(&m, pgd).slot_create(va).unwrap().frame;
        let b = PmdCursor::new(&m, pgd).slot_create(va).unwrap().frame;
        assert_eq!(a, b);
        assert_eq!(m.store().len(), 3);
    }

    #[test]
    fn a_cursor_re_resolves_where_an_upper_entry_names_another_table() {
        let (m, pgd) = setup();
        const GIB: u64 = 1 << 30;
        // The last chunk below 1 GiB, the first above it, and the first
        // above 512 GiB: three PMD tables, the last under its own PUD table.
        let vas = [GIB - PTE_TABLE_SPAN, GIB, 512 * GIB].map(VirtAddr::new);
        let mut cursor = PmdCursor::new(&m, pgd);
        let mut frames = Vec::new();
        for va in vas {
            let slot = cursor.slot_create(va).unwrap();
            assert_eq!(slot.idx, va.index(Level::Pmd));
            frames.push(slot.frame);
        }
        assert_eq!(
            m.store().len(),
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
        // Re-pointing or clearing the PUD entry above the held table (a
        // PMD-table COW, a release) shows at the next slot of the span.
        assert_eq!(cursor.slot(vas[0]).unwrap().frame, frames[0]);
        let (copy, _) = m.alloc_table().unwrap();
        let mut other = PmdCursor::new(&m, pgd);
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
        let mut cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(va).unwrap();
        let (ptf, pte_table) = m.alloc_table().unwrap();
        slot.store(Entry::table(ptf));
        let data = m.pool().alloc_page(PageKind::Anon).unwrap();
        pte_table.store(va.index(Level::Pte), Entry::page(data, true));

        let t = translate(&m, pgd, va, true).unwrap();
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
        let mut cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(va).unwrap();
        let (ptf, pte_table) = m.alloc_table().unwrap();
        // PTE says writable, but the PMD entry write-protects the table —
        // exactly the On-demand-fork shared-table state.
        slot.store(Entry::table(ptf).with_cleared(EntryFlags::WRITABLE));
        let data = m.pool().alloc_page(PageKind::Anon).unwrap();
        pte_table.store(va.index(Level::Pte), Entry::page(data, true));

        assert!(translate(&m, pgd, va, true).is_none(), "write must fault");
        let t = translate(&m, pgd, va, false).unwrap();
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
        let mut cursor = PmdCursor::new(&m, pgd);
        let slot = cursor.slot_create(base).unwrap();
        let huge = m.pool().alloc_huge(PageKind::Anon).unwrap();
        slot.store(Entry::huge_page(huge, true));

        let t = translate(&m, pgd, base.add(5 * 4096 + 7), false).unwrap();
        assert_eq!(t.frame, huge.offset(5));
        assert!(slot.load().is_accessed());
        assert!(!slot.load().is_dirty());
        let t = translate(&m, pgd, base, true).unwrap();
        assert_eq!(t.frame, huge);
        assert!(slot.load().is_dirty());
    }

    #[test]
    fn absent_levels_translate_to_none() {
        let (m, pgd) = setup();
        assert!(translate(&m, pgd, VirtAddr::new(0x1000), false).is_none());
        let va = VirtAddr::new(0x5000_0000);
        let _ = PmdCursor::new(&m, pgd).slot_create(va).unwrap();
        // PMD entry still absent.
        assert!(translate(&m, pgd, va, false).is_none());
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
}
