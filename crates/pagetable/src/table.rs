//! The 512-entry page table.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::entry::{Entry, EntryFlags};

/// Entries per table at every level (9 index bits).
pub const ENTRIES_PER_TABLE: usize = 512;

/// A page table: 512 atomically accessed 64-bit entries.
///
/// A `Table` occupies exactly 4 KiB — the same size as the physical frame
/// that backs it in the simulation (and in the kernel).
///
/// Entries are atomics because, as in the kernel, translations (reads by the
/// simulated MMU, which also set the accessed/dirty bits) run concurrently
/// with entry updates performed under the owning process's `mm` lock.
/// Relaxed/acquire-release orderings suffice: cross-table invariants are
/// protected by the `mm` locks in `odf-vm`, not by entry ordering.
pub struct Table {
    entries: [AtomicU64; ENTRIES_PER_TABLE],
}

impl Default for Table {
    fn default() -> Self {
        Self::new()
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            entries: [(); ENTRIES_PER_TABLE].map(|()| AtomicU64::new(0)),
        }
    }

    /// Loads the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    pub fn load(&self, index: usize) -> Entry {
        Entry(self.entries[index].load(Ordering::Acquire))
    }

    /// Stores an entry at `index`.
    pub fn store(&self, index: usize, entry: Entry) {
        self.entries[index].store(entry.0, Ordering::Release);
    }

    /// Atomically sets flag bits on the entry at `index`, returning the
    /// previous entry.
    ///
    /// Used by the simulated MMU to set the accessed/dirty bits during
    /// translation, concurrently with readers.
    pub fn fetch_set(&self, index: usize, bits: u64) -> Entry {
        Entry(self.entries[index].fetch_or(bits, Ordering::AcqRel))
    }

    /// Atomically clears flag bits on the entry at `index`, returning the
    /// previous entry.
    pub fn fetch_clear(&self, index: usize, bits: u64) -> Entry {
        Entry(self.entries[index].fetch_and(!bits, Ordering::AcqRel))
    }

    /// Atomically replaces the entry at `index` with `new` if it still
    /// equals `current`; returns `Ok(current)` on success or
    /// `Err(observed)` with the entry that was actually there.
    ///
    /// This is the install primitive of the concurrent fault path: two
    /// threads resolving the same not-present slot both prepare an entry,
    /// and the compare-exchange decides which install wins — the loser
    /// releases its frame and retries with the winner's entry.
    pub fn compare_exchange(
        &self,
        index: usize,
        current: Entry,
        new: Entry,
    ) -> Result<Entry, Entry> {
        self.entries[index]
            .compare_exchange(current.0, new.0, Ordering::AcqRel, Ordering::Acquire)
            .map(Entry)
            .map_err(Entry)
    }

    /// Number of present entries.
    pub fn count_present(&self) -> usize {
        (0..ENTRIES_PER_TABLE)
            .filter(|&i| self.load(i).is_present())
            .count()
    }

    /// Whether the table holds no entries at all — not even non-present
    /// ones such as swap entries.
    ///
    /// This is deliberately stricter than "no present entry": a table
    /// whose only contents are swap entries still owns swap-slot
    /// references, and freeing it would leak them. Unmap paths that want
    /// to reclaim a table must first clear (and account) every entry,
    /// swap entries included.
    pub fn is_empty(&self) -> bool {
        (0..ENTRIES_PER_TABLE).all(|i| self.load(i) == Entry::NONE)
    }

    /// Copies every raw entry of `src` into this table.
    ///
    /// This is the table-copy primitive of the On-demand-fork fault handler
    /// (§3.4): all 512 slots are moved, preserving the accessed bits — the
    /// paper explicitly duplicates the accessed bit when copying shared
    /// tables (§3.2). The writable bits are copied as stored; the caller
    /// adjusts protection afterwards as the semantics require.
    pub fn copy_from(&self, src: &Table) {
        for i in 0..ENTRIES_PER_TABLE {
            self.entries[i].store(src.entries[i].load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Iterates over `(index, entry)` pairs of present entries.
    pub fn iter_present(&self) -> impl Iterator<Item = (usize, Entry)> + '_ {
        (0..ENTRIES_PER_TABLE).filter_map(move |i| {
            let e = self.load(i);
            e.is_present().then_some((i, e))
        })
    }

    /// Zeroes every entry, for a frame that becomes a table again.
    pub fn zero(&self) {
        for e in &self.entries {
            e.store(0, Ordering::Release);
        }
    }

    /// Clears the writable bit of every present entry, and the bits `also`
    /// of every entry holding them, present or swap — one pass.
    ///
    /// This models the per-entry write-protection sweep that classic fork
    /// performs on last-level tables (and that On-demand-fork avoids by
    /// clearing a single PMD-entry bit instead). `also` is
    /// `EntryFlags::SOFT_DIRTY` when the table is settled below a
    /// `SOFT_CLEAN` PMD entry, and 0 otherwise.
    ///
    /// Each clear is an atomic read-modify-write, so accessed/dirty bits
    /// set concurrently by the simulated MMU (`fetch_set` during
    /// translation) are never clobbered. A not-present slot observed here
    /// may be racing a concurrent install, but fresh installs are made by
    /// the exclusive owner of the page and need no protection.
    pub fn wrprotect_all(&self, also: u64) {
        let bits = EntryFlags::WRITABLE | also;
        for e in &self.entries {
            let raw = e.load(Ordering::Acquire);
            if raw & EntryFlags::PRESENT != 0 || raw & also != 0 {
                e.fetch_and(!bits, Ordering::AcqRel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_pmem::FrameId;

    #[test]
    fn a_table_is_exactly_one_page() {
        assert_eq!(std::mem::size_of::<Table>(), 4096);
    }

    #[test]
    fn new_table_is_empty() {
        let t = Table::new();
        assert!(t.is_empty());
        assert_eq!(t.count_present(), 0);
    }

    #[test]
    fn store_load_round_trips() {
        let t = Table::new();
        let e = Entry::page(FrameId(99), true);
        t.store(7, e);
        assert_eq!(t.load(7), e);
        assert_eq!(t.count_present(), 1);
    }

    #[test]
    fn copy_from_preserves_all_bits() {
        let a = Table::new();
        a.store(
            0,
            Entry::page(FrameId(1), true).with_set(EntryFlags::ACCESSED),
        );
        a.store(
            511,
            Entry::page(FrameId(2), false).with_set(EntryFlags::DIRTY),
        );
        let b = Table::new();
        b.copy_from(&a);
        assert!(b.load(0).is_accessed());
        assert!(b.load(511).is_dirty());
        assert_eq!(b.count_present(), 2);
    }

    #[test]
    fn wrprotect_all_clears_only_writable() {
        let t = Table::new();
        t.store(
            1,
            Entry::page(FrameId(5), true).with_set(EntryFlags::ACCESSED),
        );
        t.store(2, Entry::page(FrameId(6), false));
        t.wrprotect_all(0);
        assert!(!t.load(1).is_writable());
        assert!(t.load(1).is_accessed());
        assert!(!t.load(2).is_writable());
        assert_eq!(t.count_present(), 2);
    }

    #[test]
    fn wrprotect_all_clears_extra_bits_on_swap_entries_too() {
        let t = Table::new();
        let sd = EntryFlags::SOFT_DIRTY;
        t.store(1, Entry::page(FrameId(5), true).with_set(sd));
        t.store(2, Entry::swap(7, true));
        t.wrprotect_all(sd);
        assert!(!t.load(1).is_writable() && !t.load(1).is_soft_dirty());
        assert_eq!(t.load(2), Entry::swap(7, false));
    }

    #[test]
    fn fetch_set_and_clear_are_atomic_rmw() {
        let t = Table::new();
        t.store(3, Entry::page(FrameId(8), false));
        let prev = t.fetch_set(3, EntryFlags::ACCESSED);
        assert!(!prev.is_accessed());
        assert!(t.load(3).is_accessed());
        let prev = t.fetch_clear(3, EntryFlags::ACCESSED);
        assert!(prev.is_accessed());
        assert!(!t.load(3).is_accessed());
    }

    #[test]
    fn compare_exchange_installs_once() {
        let t = Table::new();
        let winner = Entry::page(FrameId(11), true);
        let loser = Entry::page(FrameId(12), true);
        assert_eq!(t.compare_exchange(4, Entry(0), winner), Ok(Entry(0)));
        // A second install prepared against the empty slot loses and
        // observes the winner.
        assert_eq!(t.compare_exchange(4, Entry(0), loser), Err(winner));
        assert_eq!(t.load(4), winner);
    }

    #[test]
    fn wrprotect_all_preserves_concurrent_flag_updates() {
        // wrprotect must be a per-entry atomic RMW: interleave a fetch_set
        // (the MMU setting ACCESSED) between its load and its clear and the
        // bit must survive. We simulate the interleaving by setting the bit
        // first — a plain load-then-store sweep would have clobbered it in
        // the concurrent schedule this guards against.
        let t = Table::new();
        t.store(9, Entry::page(FrameId(3), true));
        t.fetch_set(9, EntryFlags::ACCESSED | EntryFlags::DIRTY);
        t.wrprotect_all(0);
        let e = t.load(9);
        assert!(!e.is_writable());
        assert!(e.is_accessed());
        assert!(e.is_dirty());
    }

    #[test]
    fn iter_present_yields_in_order() {
        let t = Table::new();
        t.store(100, Entry::page(FrameId(1), true));
        t.store(5, Entry::page(FrameId(2), true));
        let idx: Vec<usize> = t.iter_present().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![5, 100]);
    }
}
