//! The table slots: a frame's page-table contents, found by frame index.
//!
//! In the kernel, a page table's contents live in the physical frame itself
//! and are reached through the direct map. The simulation keeps them in a
//! typed [`Table`] in a slot that a frame-indexed array names, so resolving
//! a table is an array index: no lock, no reference count. The slots are
//! **global per simulated machine** (shared by every process), because
//! On-demand-fork shares last-level tables across processes: a child's PMD
//! entry names a table frame owned jointly with its parent.
//!
//! Slots are *type-stable* (the kernel's `SLAB_TYPESAFE_BY_RCU`): a slot,
//! once built, stays valid for the machine's life, and is zeroed whenever
//! it holds a table again — the same frame's or, recycled, another's. A
//! lockless walker may therefore read a table that was freed, or freed and
//! re-allocated, while it read; memory safety never depends on the walk.
//! Each slot's state word counts allocations and frees (odd while live),
//! so the generation — the state without its live bit — moves exactly when
//! the table is freed, and a walker detects a reuse by comparing states.
//!
//! Both arrays are two-level and built on first use: the frame index in
//! blocks of 64 frames (256 B each), the slots in blocks of 64 slots
//! (256 KiB). A freed slot is recycled by the next allocation, so host
//! memory follows the most tables ever live at once, not the pool and not
//! the number of frames that have ever held a table.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use odf_pmem::FrameId;
use parking_lot::Mutex;

use crate::table::Table;

/// Entries per block of either array.
const BLOCK: usize = 64;

/// One table and its state word.
pub struct TableSlot {
    table: Table,
    /// Allocations plus frees: odd while the slot holds a live table.
    ///
    /// Ordering: both writers bump it with an `AcqRel` read-modify-write
    /// before they change the table (`claim` zeroes it with `Release`
    /// stores after the bump; a freed table is changed only after its next
    /// claim). Readers load it with `Acquire` before and after reading
    /// entries, which they load with `Acquire`, so the second load cannot
    /// move before the entry loads. An entry written after a bump, read
    /// by a walker, makes that bump visible to the walker's second load.
    state: AtomicU64,
}

impl TableSlot {
    /// The table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The state word, if the slot holds a live table now: the first half
    /// of a lockless walker's validation. The walker reads the table, then
    /// compares [`TableSlot::state`] with the stamp: equal means no free
    /// (and no reuse) happened between the two.
    pub fn stamp(&self) -> Option<u64> {
        let state = self.state();
        (state & 1 == 1).then_some(state)
    }

    /// The current state word.
    pub fn state(&self) -> u64 {
        self.state.load(Ordering::Acquire)
    }
}

/// A two-level array built on first use, [`BLOCK`] entries per block.
struct Lazy<T>(Box<[OnceLock<Box<[T]>>]>);

impl<T> Lazy<T> {
    fn new(len: usize) -> Self {
        Lazy((0..len.div_ceil(BLOCK)).map(|_| OnceLock::new()).collect())
    }

    fn get(&self, i: usize) -> Option<&T> {
        self.0.get(i / BLOCK)?.get()?.get(i % BLOCK)
    }

    fn get_or_build(&self, i: usize, build: impl FnMut(usize) -> T) -> &T {
        &self.0[i / BLOCK].get_or_init(|| (0..BLOCK).map(build).collect())[i % BLOCK]
    }
}

/// A frame's slot as a lockless walker found it: the slot, and whether
/// the frame still uses it.
#[derive(Clone, Copy)]
pub struct Found<'a> {
    at: &'a AtomicU32,
    id: u32,
    slot: &'a TableSlot,
}

impl<'a> Found<'a> {
    /// The slot.
    pub fn slot(&self) -> &'a TableSlot {
        self.slot
    }

    /// Whether the frame still uses the slot (a freed slot can move to
    /// another frame).
    pub fn current(&self) -> bool {
        self.at.load(Ordering::Acquire) == self.id
    }
}

/// The table slots of one machine: which slot each table frame uses, and
/// the slots.
pub struct TableSlots {
    /// Per frame, 1 + the index of its table's slot; 0 for none.
    index: Lazy<AtomicU32>,
    slots: Lazy<TableSlot>,
    /// Freed slots, reused last-in first-out, and the number ever built.
    free: Mutex<(Vec<u32>, u32)>,
    live: AtomicUsize,
}

impl TableSlots {
    /// Slots for frames `0..frames`; none is built yet.
    pub fn new(frames: usize) -> Self {
        TableSlots {
            index: Lazy::new(frames),
            slots: Lazy::new(frames),
            free: Mutex::new((Vec::new(), 0)),
            live: AtomicUsize::new(0),
        }
    }

    /// The slot `frame`'s table uses, if `frame` holds a table: for a
    /// lockless walker, which [stamps](TableSlot::stamp) it, checks the
    /// frame still uses it ([`Found::current`]), reads the table and
    /// compares [states](TableSlot::state) after.
    pub fn find(&self, frame: FrameId) -> Option<Found<'_>> {
        let at = self.index.get(frame.index())?;
        let id = at.load(Ordering::Acquire);
        let slot = self.slots.get(id.checked_sub(1)? as usize)?;
        Some(Found { at, id, slot })
    }

    /// The slot `frame`'s table uses, if `frame` holds a table.
    pub fn slot(&self, frame: FrameId) -> Option<&TableSlot> {
        self.find(frame).map(|found| found.slot)
    }

    /// Makes `frame`, just allocated as a page table, a live empty table,
    /// in the slot freed last (or a new one).
    ///
    /// # Panics
    ///
    /// Panics if the frame already holds a live table (a double
    /// allocation) or lies outside the machine.
    pub fn claim(&self, frame: FrameId) -> &Table {
        let at = self
            .index
            .get_or_build(frame.index(), |_| AtomicU32::new(0));
        assert!(
            at.load(Ordering::Relaxed) == 0,
            "table frame {frame:?} allocated twice"
        );
        let i = {
            let mut free = self.free.lock();
            free.0.pop().unwrap_or_else(|| {
                free.1 += 1;
                free.1 - 1
            })
        };
        let slot = self.slots.get_or_build(i as usize, |_| TableSlot {
            table: Table::new(),
            state: AtomicU64::new(0),
        });
        // The state moves before the zeroing, so a stale reader that sees
        // a zeroed entry also sees a new state; the index moves last, so a
        // walker that finds the slot through it finds it live.
        slot.state.fetch_add(1, Ordering::AcqRel);
        slot.table.zero();
        at.store(i + 1, Ordering::Release);
        self.live.fetch_add(1, Ordering::Relaxed);
        &slot.table
    }

    /// Marks `frame`'s table dead, bumping its slot's generation, and
    /// frees the slot. Its contents stay readable (stale) until the slot is
    /// claimed again.
    ///
    /// # Panics
    ///
    /// Panics if the frame holds no live table.
    pub fn release(&self, frame: FrameId) {
        let at = self.index.get(frame.index());
        let i = at.map_or(0, |at| at.swap(0, Ordering::AcqRel));
        assert!(i != 0, "no table registered for {frame:?}");
        let slot = self.slots.get(i as usize - 1);
        slot.expect("an indexed slot is built")
            .state
            .fetch_add(1, Ordering::AcqRel);
        self.free.lock().0.push(i - 1);
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// `frame`'s table, for a walker whose locks keep it alive.
    ///
    /// # Panics
    ///
    /// Panics if the frame holds no table: a paging-structure corruption,
    /// not a recoverable condition.
    pub fn get(&self, frame: FrameId) -> &Table {
        match self.slot(frame) {
            Some(slot) => &slot.table,
            None => panic!("no table registered for {frame:?}"),
        }
    }

    /// Number of live tables (for leak checks).
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;

    #[test]
    fn claim_get_release_round_trip() {
        let slots = TableSlots::new(1024);
        let t = slots.claim(FrameId(9));
        t.store(3, Entry::page(FrameId(77), true));
        assert_eq!(slots.live(), 1);
        assert_eq!(slots.get(FrameId(9)).load(3).frame(), FrameId(77));
        let slot = slots.slot(FrameId(9)).unwrap();
        let state = slot.stamp().unwrap();
        slots.release(FrameId(9));
        assert_eq!(slots.live(), 0);
        assert!(slot.stamp().is_none(), "a dead table stamps nothing");
        assert_ne!(slot.state(), state);
        // A reuse zeroes the table and moves the state again.
        assert!(slots.claim(FrameId(9)).is_empty());
        assert_eq!(slot.state(), state + 2);
        assert!(
            std::ptr::eq(slots.slot(FrameId(9)).unwrap(), slot),
            "reused, not rebuilt"
        );
    }

    #[test]
    fn slots_are_built_only_where_tables_were() {
        let slots = TableSlots::new(4096);
        assert!(slots.slot(FrameId(700)).is_none());
        slots.claim(FrameId(700));
        assert!(slots.slot(FrameId(700)).is_some());
        assert!(slots.slot(FrameId(701)).is_none(), "a neighbour is unbuilt");
        assert!(slots.slot(FrameId(5000)).is_none(), "outside the machine");
    }

    #[test]
    fn a_freed_slot_is_recycled_for_another_frame() {
        let slots = TableSlots::new(1024);
        slots
            .claim(FrameId(3))
            .store(0, Entry::page(FrameId(8), true));
        let slot = slots.slot(FrameId(3)).unwrap();
        let state = slot.stamp().unwrap();
        slots.release(FrameId(3));
        assert!(slots.claim(FrameId(500)).is_empty());
        assert!(std::ptr::eq(slots.slot(FrameId(500)).unwrap(), slot));
        assert!(slots.slot(FrameId(3)).is_none(), "the old frame lost it");
        assert_eq!(slot.stamp(), Some(state + 2), "a stale stamp fails");
        let fresh = slots.claim(FrameId(3));
        assert!(
            !std::ptr::eq(fresh, slot.table()),
            "two live tables, two slots"
        );
    }

    #[test]
    #[should_panic(expected = "no table registered")]
    fn missing_table_panics() {
        let slots = TableSlots::new(1024);
        let _ = slots.get(FrameId(1));
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_claim_panics() {
        let slots = TableSlots::new(1024);
        slots.claim(FrameId(1));
        slots.claim(FrameId(1));
    }

    #[test]
    #[should_panic(expected = "no table registered")]
    fn double_release_panics() {
        let slots = TableSlots::new(1024);
        slots.claim(FrameId(1));
        slots.release(FrameId(1));
        slots.release(FrameId(1));
    }

    #[test]
    fn concurrent_claims_in_one_block_are_safe() {
        let slots = TableSlots::new(4 * 1024);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let slots = &slots;
                s.spawn(move || {
                    for round in 0..50 {
                        for i in 0..8u32 {
                            let f = FrameId(t * 8 + i);
                            slots.claim(f).store(0, Entry::page(FrameId(round), true));
                            assert_eq!(slots.get(f).load(0).frame(), FrameId(round));
                            slots.release(f);
                        }
                    }
                });
            }
        });
        assert_eq!(slots.live(), 0);
    }
}
