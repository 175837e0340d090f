//! The shared-table ownership protocol (§3.3–3.5), written once.
//!
//! A table a fork shared (count > 1) may be read through, but before
//! anything in it changes it is copied for the changing process — or
//! released, when that process's unmap covers all it maps through it.
//! [`take`] is that rule for PTE tables and, under the §4 extension, PMD
//! tables; this module alone drops shares and builds copied tables.
//! DESIGN.md §4.1 "The ownership protocol" lists the callers and policies.

use std::ops::Range;

use odf_pagetable::{Entry, EntryFlags, Level, Table, ENTRIES_PER_TABLE};
use odf_pmem::FrameId;
use odf_trace::LockSite;

use crate::error::Result;
use crate::machine::Machine;
use crate::walk::{self, PmdSlot, Reach};

/// An entry in an upper table that references a lower table a fork may
/// have shared: a PMD entry and its PTE table, or a PUD entry and its PMD
/// table.
#[derive(Clone, Copy)]
pub(crate) struct Slot<'a> {
    /// The table holding the entry.
    pub upper: &'a Table,
    /// The entry's index in `upper`.
    pub idx: usize,
    /// The lower table's frame as the entry referenced it when read: the
    /// split-lock stripe and the share counter's home.
    pub frame: FrameId,
    /// The lower table's level: [`Level::Pte`] or [`Level::Pmd`].
    pub level: Level,
}

impl<'a> Slot<'a> {
    /// The PMD entry of `pmd`, which referenced the PTE table in `frame`.
    pub fn pte_table(pmd: &PmdSlot<'a>, frame: FrameId) -> Self {
        Slot {
            upper: pmd.table,
            idx: pmd.idx,
            frame,
            level: Level::Pte,
        }
    }

    /// The PUD entry referencing `pmd`'s PMD table.
    pub fn pmd_table(pmd: &PmdSlot<'a>) -> Self {
        Slot {
            upper: pmd.pud_table,
            idx: pmd.pud_idx,
            frame: pmd.frame,
            level: Level::Pmd,
        }
    }

    fn references(&self, e: Entry) -> bool {
        e.is_present() && !e.is_huge() && e.frame() == self.frame
    }
}

/// What to do with a table still shared under the split lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Copy the table and re-point the slot at the copy.
    Copy,
    /// Drop this process's share and clear the slot; the entries stay for
    /// the other sharers (§3.5).
    Release,
    /// Keep sharing.
    Leave,
}

/// The outcome of [`take`].
pub(crate) enum Take<'m> {
    /// The table is this process's alone and the slot writable: the
    /// caller's own (`None`, seen without locking), or the one the slot
    /// references now (`Some`: the original after its count collapsed to
    /// 1, or the copy that replaced it).
    Owned(Option<Reach<'m>>),
    /// The share was dropped; `present` entries were this process's.
    Released { present: usize },
    /// Still shared, untouched ([`Policy::Leave`]).
    StillShared,
    /// Another thread re-pointed the slot meanwhile; re-walk.
    Raced,
}

/// Applies the rule to `slot`: an unlocked fast path for an unshared,
/// writable table; else, under the split lock, revalidate the slot,
/// recheck the count, and either restore write permission (the count
/// collapsed to 1) or do what `policy` says for a table still shared. The
/// locked recheck is sound because only fork raises a count, under the
/// exclusive mm lock: during a fault a count only falls, so two sharers
/// racing on 2 end with one copy and one owner, never two decrements.
/// Fails only when a copy cannot be allocated.
#[inline]
pub(crate) fn take<'m>(
    machine: &'m Machine,
    slot: Slot<'m>,
    policy: impl FnOnce(&Table) -> Policy,
) -> Result<Take<'m>> {
    take_racing(machine, slot, policy, || ())
}

/// [`take`], running `racer` between the unlocked check and the lock: the
/// window the unit tests stage races in.
#[inline]
fn take_racing<'m>(
    machine: &'m Machine,
    slot: Slot<'m>,
    policy: impl FnOnce(&Table) -> Policy,
    racer: impl FnOnce(),
) -> Result<Take<'m>> {
    let e = slot.upper.load(slot.idx);
    if slot.references(e) && e.is_writable() && machine.pool().pt_share_count(slot.frame) == 1 {
        return Ok(Take::Owned(None));
    }
    racer();
    take_locked(machine, slot, policy)
}

fn take_locked<'m>(
    machine: &'m Machine,
    slot: Slot<'m>,
    policy: impl FnOnce(&Table) -> Policy,
) -> Result<Take<'m>> {
    let pool = machine.pool();
    let _guard = machine.split_lock(slot.frame);
    let e = slot.upper.load(slot.idx);
    if !slot.references(e) {
        walk::lock_retry(match slot.level {
            Level::Pmd => LockSite::PmdOwnership,
            _ => LockSite::TableOwnership,
        });
        return Ok(Take::Raced);
    }
    let table = machine.table(slot.frame);
    if pool.pt_share_count(slot.frame) == 1 {
        // §3.4: "both the previously shared table and the new table become
        // dedicated". A former sharer's copy may still co-reference these
        // pages: write-protect them before re-enabling the slot. Below a
        // `SOFT_CLEAN` entry the same pass settles the table: its
        // soft-dirty bits are cleared before the flag is dropped, so no
        // reader sees them without it.
        if !e.is_writable() {
            table.wrprotect_all(stale_bits(e));
            if e.is_soft_clean() {
                slot.upper.fetch_clear(slot.idx, EntryFlags::SOFT_CLEAN);
            }
            slot.upper.fetch_set(slot.idx, EntryFlags::WRITABLE);
        }
        return Ok(Take::Owned(Some(held(machine, slot, e))));
    }
    Ok(match policy(table) {
        Policy::Leave => Take::StillShared,
        Policy::Release => {
            let present = table.count_present();
            pool.pt_share_dec(slot.frame);
            slot.upper.store(slot.idx, Entry::NONE);
            Take::Released { present }
        }
        Policy::Copy => {
            let (copy, _) = cow_table(machine, table, slot.level, stale_bits(e))?;
            pool.pt_share_dec(slot.frame);
            slot.upper.store(slot.idx, Entry::table(copy));
            Take::Owned(Some(held(machine, slot, Entry::table(copy))))
        }
    })
}

/// The table `slot`'s entry names as `e`, under the split lock.
fn held<'m>(machine: &'m Machine, slot: Slot<'m>, e: Entry) -> Reach<'m> {
    Reach::enter(machine, slot.upper, slot.idx, e).expect("the split lock keeps the entry")
}

/// [`take`] with [`Policy::Copy`] on the PUD entry above `pmd`: `pmd`
/// through a PMD table it may modify, or `None` if raced. Inlined: on the
/// fault path an unshared, writable PMD table costs a few loads.
#[inline]
pub(crate) fn own_pmd_table<'m>(
    machine: &'m Machine,
    pmd: PmdSlot<'m>,
) -> Result<Option<PmdSlot<'m>>> {
    Ok(
        match take(machine, Slot::pmd_table(&pmd), |_| Policy::Copy)? {
            Take::Owned(None) => Some(pmd),
            Take::Owned(Some(owned)) => Some(pmd.with_table(owned)),
            _ => None,
        },
    )
}

/// The bits beside `WRITABLE` a table reached through `e` sheds when this
/// process takes it, or a Classic child copies its entries: every
/// soft-dirty bit, below a `SOFT_CLEAN` entry (the epoch sweep flagged the
/// table instead of copying it).
pub(crate) fn stale_bits(e: Entry) -> u64 {
    if e.is_soft_clean() {
        EntryFlags::SOFT_DIRTY
    } else {
        0
    }
}

/// Copies a shared table for the calling process — the fork-time work
/// On-demand-fork deferred: entries as stored (accessed bits too, §3.2),
/// the references classic fork would have taken, then write-protection so
/// each page faults before its first write, clearing the bits `also` in
/// the same pass. Caller holds `src`'s split lock.
pub(crate) fn cow_table<'m>(
    machine: &'m Machine,
    src: &Table,
    level: Level,
    also: u64,
) -> Result<(FrameId, &'m Table)> {
    let stats = machine.stats();
    match level {
        Level::Pmd => &stats.cow_pmd_table_copies,
        _ => &stats.cow_table_copies,
    }
    .bump();
    let (frame, table) = machine.alloc_table()?;
    table.copy_from(src);
    let heads = &mut Vec::with_capacity(ENTRIES_PER_TABLE);
    ref_entries(machine, table, 0..ENTRIES_PER_TABLE, heads, |_, _| ());
    table.wrprotect_all(also);
    Ok((frame, table))
}

/// The refcount pass of a table copy, shared by the table COW and Classic
/// fork: one reference per present entry's page and per swap entry's slot
/// in `table[range]`, with Figure 3's two hot spots (`compound_head`,
/// `page_ref_inc`) batched over the range in `heads` (scratch space).
/// `referenced` sees each entry that took a reference.
#[inline]
pub(crate) fn ref_entries(
    machine: &Machine,
    table: &Table,
    range: Range<usize>,
    heads: &mut Vec<FrameId>,
    mut referenced: impl FnMut(usize, Entry),
) {
    heads.clear();
    for idx in range {
        let e = table.load(idx);
        if e.is_present() {
            heads.push(e.frame());
        } else if e.is_swap() {
            machine.swap().slot_get(e.swap_slot());
        } else {
            continue;
        }
        referenced(idx, e);
    }
    let pool = machine.pool();
    pool.compound_heads(heads);
    pool.ref_inc_many(heads);
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use odf_pmem::{assert_pool_balanced, PageKind, PoolBalance, PAGE_SIZE};
    use std::sync::Arc;

    /// Index of the slot under test in both upper tables.
    const IDX: usize = 5;

    /// What the slot looks like when `take` runs.
    #[derive(Clone, Copy, Debug)]
    enum State {
        /// Unshared, writable slot.
        One,
        /// Shared with one other process; both slots write-protected.
        Two,
        /// `Two` at the unlocked check; the other sharer drops its share
        /// before the split lock is taken.
        Collapsing,
        /// `Two` at the unlocked check; a sibling thread COWs the slot away
        /// before the split lock is taken.
        Repointed,
        /// The sibling's COW happened before the call: the slot names a
        /// table (count 1, held by the other sharer) it no longer
        /// references.
        Stale,
    }

    #[derive(Debug, PartialEq)]
    enum Got {
        Same,
        Copied,
        Released,
        StillShared,
        Raced,
    }

    /// Which table our slot references afterwards, and whether the slot
    /// is writable.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Target {
        Original(bool),
        NewTable(bool),
        Cleared,
    }

    /// What our slot reads of the original's soft-dirty bits after a run
    /// whose slot started flagged `SOFT_CLEAN` (PTE level; every entry of
    /// the original soft-dirty).
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Soft {
        /// Not run flagged: the flag is only ever set on a
        /// write-protected slot.
        Never,
        /// Still flagged, over the original.
        Flagged,
        /// Unflagged, over a table with no soft-dirty bit left.
        Settled,
        /// The slot was cleared.
        Gone,
    }

    /// One row: the inputs, then every expectation.
    struct Row {
        state: State,
        policy: Policy,
        got: Got,
        /// Share count of the original table afterwards.
        count: u32,
        /// Reference count of every mapped page (and swap slot) afterwards.
        refs: u32,
        target: Target,
        /// Whether the original table's present entries are all
        /// write-protected afterwards (they start writable).
        original_wp: bool,
        /// The flagged run's soft-dirty view.
        soft: Soft,
    }

    #[allow(clippy::too_many_arguments)]
    const fn row(
        state: State,
        policy: Policy,
        got: Got,
        count: u32,
        refs: u32,
        target: Target,
        original_wp: bool,
        soft: Soft,
    ) -> Row {
        Row {
            state,
            policy,
            got,
            count,
            refs,
            target,
            original_wp,
            soft,
        }
    }

    use Got::*;
    use Policy::{Copy, Leave, Release};
    use Soft::{Flagged, Gone, Never, Settled};
    use State::*;
    use Target::*;

    #[rustfmt::skip]
    const ROWS: [Row; 15] = [
        // state        policy   outcome      count refs slot afterwards  orig wp flagged
        row(One,        Copy,    Same,        1,    1,   Original(true),  false,  Never),
        row(One,        Release, Same,        1,    1,   Original(true),  false,  Never),
        row(One,        Leave,   Same,        1,    1,   Original(true),  false,  Never),
        row(Two,        Copy,    Copied,      1,    2,   NewTable(true),  false,  Settled),
        row(Two,        Release, Released,    1,    1,   Cleared,         false,  Gone),
        row(Two,        Leave,   StillShared, 2,    1,   Original(false), false,  Flagged),
        row(Collapsing, Copy,    Same,        1,    1,   Original(true),  true,   Settled),
        row(Collapsing, Release, Same,        1,    1,   Original(true),  true,   Settled),
        row(Collapsing, Leave,   Same,        1,    1,   Original(true),  true,   Settled),
        row(Repointed,  Copy,    Raced,       1,    2,   NewTable(true),  false,  Settled),
        row(Repointed,  Release, Raced,       1,    2,   NewTable(true),  false,  Settled),
        row(Repointed,  Leave,   Raced,       1,    2,   NewTable(true),  false,  Settled),
        row(Stale,      Copy,    Raced,       1,    2,   NewTable(true),  false,  Settled),
        row(Stale,      Release, Raced,       1,    2,   NewTable(true),  false,  Settled),
        row(Stale,      Leave,   Raced,       1,    2,   NewTable(true),  false,  Settled),
    ];

    /// Two processes' upper tables and one lower table of `level` mapping
    /// a few pages (plus a swap entry at the PTE level, every entry there
    /// soft-dirty), in the sharing state a row starts from — with our slot
    /// flagged `SOFT_CLEAN` when `flagged`.
    struct World {
        machine: Arc<Machine>,
        baseline: PoolBalance,
        level: Level,
        flagged: bool,
        /// Our upper table's frame, and the other sharer's.
        ours: FrameId,
        theirs: FrameId,
        original: FrameId,
        /// The mapped pages (compound heads at the PMD level).
        pages: Vec<FrameId>,
        swap_slot: Option<u32>,
    }

    impl World {
        fn new(level: Level, state: State, flagged: bool) -> World {
            let machine = Machine::new(16 << 20);
            let baseline = machine.pool().balance();
            let (ours, our_table) = machine.alloc_table().unwrap();
            let (theirs, their_table) = machine.alloc_table().unwrap();
            let (original, lower) = machine.alloc_table().unwrap();
            let mut pages = Vec::new();
            let mut swap_slot = None;
            if level == Level::Pte {
                for idx in [0, 7, 511] {
                    let f = machine.alloc_page(PageKind::Anon).unwrap();
                    lower.store(idx, Entry::page(f, true).with_set(EntryFlags::SOFT_DIRTY));
                    pages.push(f);
                }
                let slot = machine.swap().alloc_slot(&[0x5a; PAGE_SIZE]);
                lower.store(9, Entry::swap(slot, true));
                swap_slot = Some(slot);
            } else {
                for idx in [0, 3] {
                    let f = machine.alloc_huge(PageKind::Anon).unwrap();
                    lower.store(idx, Entry::huge_page(f, true));
                    pages.push(f);
                }
            }
            if let One = state {
                our_table.store(IDX, Entry::table(original));
            } else {
                machine.pool().pt_share_inc(original);
                let shared = Entry::table(original).with_cleared(EntryFlags::WRITABLE);
                let flag = if flagged { EntryFlags::SOFT_CLEAN } else { 0 };
                our_table.store(IDX, shared.with_set(flag));
                their_table.store(IDX, shared);
            }
            World {
                machine,
                baseline,
                level,
                flagged,
                ours,
                theirs,
                original,
                pages,
                swap_slot,
            }
        }

        /// The other sharer leaves: drops its share and clears its slot.
        fn other_sharer_leaves(&self) {
            self.machine.pool().pt_share_dec(self.original);
            self.machine.table(self.theirs).store(IDX, Entry::NONE);
        }

        /// A sibling thread of our process COWs our slot away.
        fn sibling_copies(&self) {
            let m = &self.machine;
            let stale = stale_bits(m.table(self.ours).load(IDX));
            let (copy, _) = cow_table(m, m.table(self.original), self.level, stale).unwrap();
            m.pool().pt_share_dec(self.original);
            m.table(self.ours).store(IDX, Entry::table(copy));
        }

        fn run(&self, state: State, policy: Policy) -> Got {
            if let Stale = state {
                self.sibling_copies();
            }
            let slot = Slot {
                upper: self.machine.table(self.ours),
                idx: IDX,
                frame: self.original,
                level: self.level,
            };
            let racer = || match state {
                Collapsing => self.other_sharer_leaves(),
                Repointed => self.sibling_copies(),
                _ => {}
            };
            match take_racing(&self.machine, slot, |_| policy, racer).unwrap() {
                Take::Owned(None) => Same,
                Take::Owned(Some(owned)) if owned.frame == self.original => Same,
                Take::Owned(Some(_)) => Copied,
                Take::Released { present } => {
                    assert_eq!(present, self.pages.len(), "released entries");
                    Released
                }
                Take::StillShared => StillShared,
                Take::Raced => Raced,
            }
        }

        fn check(&self, row: &Row, got: Got, ctx: &str) {
            let pool = self.machine.pool();
            assert_eq!(got, row.got, "{ctx}: outcome");
            assert_eq!(
                pool.pt_share_count(self.original),
                row.count,
                "{ctx}: share count"
            );
            for &page in &self.pages {
                assert_eq!(pool.ref_count(page), row.refs, "{ctx}: page refcount");
            }
            if let Some(slot) = self.swap_slot {
                let refs = u32::from(self.machine.swap().ref_count(slot));
                assert_eq!(refs, row.refs, "{ctx}: swap slot refcount");
            }
            let e = self.machine.table(self.ours).load(IDX);
            let target = match e {
                e if !e.is_present() => Cleared,
                e if e.frame() == self.original => Original(e.is_writable()),
                e => NewTable(e.is_writable()),
            };
            assert_eq!(target, row.target, "{ctx}: slot afterwards");
            let original = self.machine.table(self.original);
            if let NewTable(_) = target {
                // A copy maps the original's pages, all write-protected
                // (and, taken through a flagged slot, none soft-dirty).
                assert_eq!(pool.pt_share_count(e.frame()), 1, "{ctx}: copy share count");
                let copy = self.machine.table(e.frame());
                for idx in 0..ENTRIES_PER_TABLE {
                    let (c, o) = (copy.load(idx), original.load(idx));
                    let sd = if self.flagged {
                        EntryFlags::SOFT_DIRTY
                    } else {
                        0
                    };
                    let rw = EntryFlags::WRITABLE | sd;
                    assert_eq!(c.with_cleared(rw), o.with_cleared(rw), "{ctx}: entry {idx}");
                    assert!(
                        !c.is_present() || !c.is_writable(),
                        "{ctx}: entry {idx} writable"
                    );
                }
            }
            let wp = original.iter_present().all(|(_, e)| !e.is_writable());
            assert_eq!(wp, row.original_wp, "{ctx}: original write-protection");
            if self.flagged {
                self.check_soft(row.soft, e, ctx);
            }
        }

        /// The flagged run: our slot's view of the soft-dirty bits, and
        /// the original's bits kept for the other sharer unless our
        /// process settled the original itself.
        fn check_soft(&self, soft: Soft, e: Entry, ctx: &str) {
            let dirty = |frame| {
                let t = self.machine.table(frame);
                (0..ENTRIES_PER_TABLE)
                    .map(|i| t.load(i))
                    .filter(|e| e.is_present() || e.is_swap())
                    .map(|e| e.is_soft_dirty())
                    .collect::<Vec<_>>()
            };
            let got = match e {
                e if !e.is_present() => Gone,
                e if e.is_soft_clean() => {
                    assert_eq!(e.frame(), self.original, "{ctx}: flag over a copy");
                    Flagged
                }
                e => {
                    assert!(!dirty(e.frame()).contains(&true), "{ctx}: unsettled");
                    Settled
                }
            };
            assert_eq!(got, soft, "{ctx}: soft-dirty view");
            let settled_original = soft == Settled && e.frame() == self.original;
            assert_eq!(
                dirty(self.original).iter().all(|&d| d),
                !settled_original,
                "{ctx}: the other sharer's bits"
            );
        }

        /// Tears both processes' slots down through the protocol itself,
        /// then requires every frame, table and swap slot back.
        fn teardown(self, ctx: &str) {
            let m = &self.machine;
            for upper in [self.ours, self.theirs].map(|f| m.table(f)) {
                let e = upper.load(IDX);
                if !e.is_present() {
                    continue;
                }
                let slot = Slot {
                    upper,
                    idx: IDX,
                    frame: e.frame(),
                    level: self.level,
                };
                match take(m, slot, |_| Release).unwrap() {
                    Take::Released { .. } => {}
                    Take::Owned(_) => {
                        let table = m.table(e.frame());
                        for idx in 0..ENTRIES_PER_TABLE {
                            let pe = table.load(idx);
                            if pe.is_present() {
                                m.pool().ref_dec(m.pool().compound_head(pe.frame()));
                            } else if pe.is_swap() {
                                m.swap().slot_put(pe.swap_slot());
                            }
                        }
                        upper.store(IDX, Entry::NONE);
                        m.free_table(e.frame());
                    }
                    _ => panic!("{ctx}: teardown slot raced"),
                }
            }
            for frame in [self.ours, self.theirs] {
                m.free_table(frame);
            }
            assert_eq!(m.swap().used_slots(), 0, "{ctx}: swap slots leaked");
            assert_eq!(m.live_tables(), 0, "{ctx}: page tables leaked");
            assert_eq!(m.pool().balance(), self.baseline, "{ctx}: pool balance");
        }
    }

    /// {PTE, PMD} × {Copy, Release, Leave} × {count 1, count 2, count
    /// collapsing to 1 before the lock, slot re-pointed before the lock,
    /// slot re-pointed before the call}: outcome, share counts, page and
    /// swap-slot refcounts, the slot's target and writable bit, and pool
    /// balance after a teardown that itself goes through `take`.
    #[test]
    fn take_follows_the_protocol_at_both_levels() {
        for level in [Level::Pte, Level::Pmd] {
            for row in &ROWS {
                let ctx = format!("{level:?} {:?} {:?}", row.state, row.policy);
                let world = World::new(level, row.state, false);
                let got = world.run(row.state, row.policy);
                world.check(row, got, &ctx);
                world.teardown(&ctx);
            }
        }
    }

    /// Every row again with our PTE-level slot flagged `SOFT_CLEAN` (as
    /// the epoch sweep leaves a shared table): the same outcomes, counts
    /// and targets, and the flagged column's view — a copy or a settled
    /// original sheds every soft-dirty bit, present and swap, and drops
    /// the flag; a table left shared keeps the flag and, like a released
    /// or copied-away original, every bit the other sharer reads.
    #[test]
    fn take_settles_a_flagged_table_before_owning_it() {
        for row in ROWS.iter().filter(|row| row.soft != Never) {
            let ctx = format!("flagged {:?} {:?}", row.state, row.policy);
            let world = World::new(Level::Pte, row.state, true);
            let got = world.run(row.state, row.policy);
            world.check(row, got, &ctx);
            world.teardown(&ctx);
        }
    }

    /// The policy is asked about shared tables only.
    #[test]
    fn unshared_writable_slot_never_consults_the_policy() {
        let world = World::new(Level::Pte, One, false);
        let calls = Cell::new(0);
        let slot = Slot {
            upper: world.machine.table(world.ours),
            idx: IDX,
            frame: world.original,
            level: Level::Pte,
        };
        let out = take(&world.machine, slot, |_| {
            calls.set(calls.get() + 1);
            Copy
        });
        assert!(matches!(out, Ok(Take::Owned(None))));
        assert_eq!(
            calls.get(),
            0,
            "the policy is only asked about shared tables"
        );
        world.teardown("fast path");
    }

    /// The refcount pass takes one reference per entry: compound tails
    /// resolve to their head, and swap entries reference their slot.
    #[test]
    fn ref_entries_references_heads_and_swap_slots() {
        let m = Machine::new(16 << 20);
        let pool = m.pool();
        let baseline = pool.balance();
        let (frame, table) = m.alloc_table().unwrap();
        let huge = m.alloc_huge(PageKind::Anon).unwrap();
        pool.ref_add(huge, 2);
        for idx in 0..3 {
            table.store(idx, Entry::page(huge.offset(idx), false));
        }
        let slot = m.swap().alloc_slot(&[1; PAGE_SIZE]);
        table.store(3, Entry::swap(slot, false));
        let mut referenced = Vec::new();
        ref_entries(&m, table, 1..ENTRIES_PER_TABLE, &mut Vec::new(), |i, _| {
            referenced.push(i)
        });
        assert_eq!(referenced, [1, 2, 3]);
        assert_eq!(pool.ref_count(huge), 5);
        assert_eq!(m.swap().ref_count(slot), 2);
        for _ in 0..5 {
            pool.ref_dec(huge);
        }
        m.swap().slot_put(slot);
        m.swap().slot_put(slot);
        m.free_table(frame);
        assert_pool_balanced(pool, baseline);
    }
}

/// Dropping a table share (`pt_share_dec`) is written in this module only,
/// so a tenth copy of the protocol cannot come back silently (every other
/// source file of the crate is checked).
#[cfg(test)]
mod guard {
    #[test]
    fn only_the_share_module_drops_table_shares() {
        for (name, text) in crate::sources::except("share.rs") {
            assert!(
                !text.contains("pt_share_dec("),
                "{name} drops a table share outside share.rs: route it through share::take"
            );
        }
    }
}
