//! The 64-bit page table entry encoding.

use odf_pmem::{FrameId, PAGE_SHIFT};

/// Flag bits of a page table entry, following the x86-64 layout.
pub struct EntryFlags;

impl EntryFlags {
    /// The entry references a frame (P bit).
    pub const PRESENT: u64 = 1 << 0;
    /// Writes are permitted through this entry (R/W bit).
    ///
    /// At non-leaf levels this participates in hierarchical attribute
    /// resolution: a cleared writable bit write-protects the whole subtree,
    /// which is the mechanism On-demand-fork uses to protect a shared PTE
    /// table via its PMD entry (§3.2).
    pub const WRITABLE: u64 = 1 << 1;
    /// User-mode access permitted (U/S bit).
    pub const USER: u64 = 1 << 2;
    /// Set by the MMU when the entry is used in a translation (A bit).
    pub const ACCESSED: u64 = 1 << 5;
    /// Set by the MMU on a write through the entry (D bit).
    pub const DIRTY: u64 = 1 << 6;
    /// At the PMD level: the entry maps a 2 MiB page directly (PS bit).
    pub const HUGE: u64 = 1 << 7;
    /// Software-tracked dirty bit for incremental snapshots (bit 9, one of
    /// the ignored bits in the hardware layout — Linux uses bit 58 at PTE
    /// level for the same purpose).
    ///
    /// Unlike `DIRTY`, which COW and write-protection logic may reset,
    /// this bit is retired only by the `clear_soft_dirty` epoch sweep, so
    /// "set" means "written since the last snapshot epoch". It is set on
    /// writes and whenever a leaf entry is newly instantiated or moved
    /// (demand paging, populate, mremap), so a delta image can never carry
    /// stale content forward at a reused address.
    ///
    /// The sweep clears it in place in a table the process owns; above a
    /// table still shared from an On-demand fork it sets
    /// [`SOFT_CLEAN`](Self::SOFT_CLEAN) on the PMD entry instead, and the
    /// bit reads as clear through that entry.
    pub const SOFT_DIRTY: u64 = 1 << 9;
    /// On a non-leaf PMD entry: this process's snapshot epoch began after
    /// the `SOFT_DIRTY` bits in the PTE table below were set, so every one
    /// of them reads as clear through this entry (bit 10, ignored by the
    /// hardware walker).
    ///
    /// The epoch sweep sets it on an entry whose table is still shared
    /// from an On-demand fork, instead of copying the table: the other
    /// sharers keep reading the bits. The entry is write-protected while
    /// the flag is set, and the table is settled (the bits cleared in this
    /// process's own copy, or in place once no other process shares it)
    /// before anything is written into it. Never set on a huge leaf.
    pub const SOFT_CLEAN: u64 = 1 << 10;

    /// The entry is a typed swap entry: not present, its frame bits hold a
    /// swap-slot index instead of a frame number (bit 62, outside both the
    /// frame mask and the hardware-defined flags — Linux overloads the
    /// non-present encoding the same way via `swp_entry_t`).
    pub const SWAP: u64 = 1 << 62;

    /// Mask of all defined flag bits.
    pub const ALL: u64 = Self::PRESENT
        | Self::WRITABLE
        | Self::USER
        | Self::ACCESSED
        | Self::DIRTY
        | Self::HUGE
        | Self::SOFT_DIRTY
        | Self::SOFT_CLEAN;
}

/// Mask of the frame-number bits (bits 12..48).
const FRAME_MASK: u64 = 0x0000_FFFF_FFFF_F000;

/// A decoded page table entry.
///
/// Entries are stored in tables as raw `u64` (see [`Table`](crate::Table));
/// `Entry` is the typed view used by the walkers and fork engines.
///
/// # Examples
///
/// ```
/// use odf_pagetable::{Entry, EntryFlags};
/// use odf_pmem::FrameId;
///
/// let e = Entry::page(FrameId(42), true);
/// assert!(e.is_present());
/// assert!(e.is_writable());
/// assert_eq!(e.frame(), FrameId(42));
/// let ro = e.with_cleared(EntryFlags::WRITABLE);
/// assert!(!ro.is_writable());
/// assert_eq!(ro.frame(), FrameId(42));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Entry(pub u64);

impl Entry {
    /// The empty (not-present) entry.
    pub const NONE: Entry = Entry(0);

    /// Builds a leaf entry mapping a 4 KiB page.
    pub fn page(frame: FrameId, writable: bool) -> Entry {
        let mut raw = frame.phys_addr() | EntryFlags::PRESENT | EntryFlags::USER;
        if writable {
            raw |= EntryFlags::WRITABLE;
        }
        Entry(raw)
    }

    /// Builds a PMD-level entry mapping a 2 MiB huge page.
    pub fn huge_page(frame: FrameId, writable: bool) -> Entry {
        Entry(Entry::page(frame, writable).0 | EntryFlags::HUGE)
    }

    /// Builds a swap entry: a non-present PTE whose frame bits carry the
    /// index of the swap slot holding the evicted page's contents.
    ///
    /// `soft_dirty` carries the evicted PTE's soft-dirty bit across the
    /// round trip, so an incremental snapshot taken while (or after) the
    /// page is swapped out still knows it changed in this epoch.
    pub fn swap(slot: u32, soft_dirty: bool) -> Entry {
        let mut raw = ((slot as u64) << PAGE_SHIFT) | EntryFlags::SWAP;
        if soft_dirty {
            raw |= EntryFlags::SOFT_DIRTY;
        }
        Entry(raw)
    }

    /// Builds a non-leaf entry referencing a lower-level table.
    ///
    /// Table references are created writable; write protection of shared
    /// PTE tables is applied by explicitly clearing the bit.
    pub fn table(frame: FrameId) -> Entry {
        Entry(frame.phys_addr() | EntryFlags::PRESENT | EntryFlags::WRITABLE | EntryFlags::USER)
    }

    /// Whether the present bit is set.
    pub fn is_present(self) -> bool {
        self.0 & EntryFlags::PRESENT != 0
    }

    /// Whether the writable bit is set *on this entry* (not the effective,
    /// hierarchy-resolved permission).
    pub fn is_writable(self) -> bool {
        self.0 & EntryFlags::WRITABLE != 0
    }

    /// Whether this PMD entry maps a huge page.
    pub fn is_huge(self) -> bool {
        self.0 & EntryFlags::HUGE != 0
    }

    /// Whether this is a swap entry (not present, contents evicted to a
    /// swap slot).
    pub fn is_swap(self) -> bool {
        self.0 & (EntryFlags::SWAP | EntryFlags::PRESENT) == EntryFlags::SWAP
    }

    /// The swap-slot index of a swap entry (the frame-bit field reused as
    /// a slot number). Meaningless unless [`Entry::is_swap`].
    pub fn swap_slot(self) -> u32 {
        ((self.0 & FRAME_MASK) >> PAGE_SHIFT) as u32
    }

    /// Whether the accessed bit is set.
    pub fn is_accessed(self) -> bool {
        self.0 & EntryFlags::ACCESSED != 0
    }

    /// Whether the dirty bit is set.
    pub fn is_dirty(self) -> bool {
        self.0 & EntryFlags::DIRTY != 0
    }

    /// Whether the software dirty bit is set (written since the last
    /// snapshot epoch).
    pub fn is_soft_dirty(self) -> bool {
        self.0 & EntryFlags::SOFT_DIRTY != 0
    }

    /// Whether this PMD entry reads the soft-dirty bits of its table as
    /// clear ([`EntryFlags::SOFT_CLEAN`]).
    pub fn is_soft_clean(self) -> bool {
        self.0 & EntryFlags::SOFT_CLEAN != 0
    }

    /// The referenced frame.
    pub fn frame(self) -> FrameId {
        FrameId(((self.0 & FRAME_MASK) >> PAGE_SHIFT) as u32)
    }

    /// Returns a copy with the given flag bits set.
    pub fn with_set(self, bits: u64) -> Entry {
        Entry(self.0 | bits)
    }

    /// Returns a copy with the given flag bits cleared.
    pub fn with_cleared(self, bits: u64) -> Entry {
        Entry(self.0 & !bits)
    }
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_swap() {
            return write!(
                f,
                "Entry(swap slot {}{})",
                self.swap_slot(),
                if self.is_soft_dirty() { " SD" } else { "" },
            );
        }
        if !self.is_present() {
            return write!(f, "Entry(none)");
        }
        write!(
            f,
            "Entry({:?}{}{}{}{}{}{}{})",
            self.frame(),
            if self.is_writable() { " W" } else { " RO" },
            if self.is_huge() { " HUGE" } else { "" },
            if self.is_accessed() { " A" } else { "" },
            if self.is_dirty() { " D" } else { "" },
            if self.is_soft_dirty() { " SD" } else { "" },
            if self.is_soft_clean() { " SC" } else { "" },
            if self.0 & EntryFlags::USER != 0 {
                " U"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_encoding_round_trips() {
        for raw in [0u32, 1, 511, 512, 0xFFFFF, u32::MAX >> 12] {
            let f = FrameId(raw);
            assert_eq!(Entry::page(f, true).frame(), f);
            assert_eq!(Entry::table(f).frame(), f);
        }
    }

    #[test]
    fn flag_manipulation_preserves_frame() {
        let e = Entry::page(FrameId(1234), true);
        let e2 = e
            .with_cleared(EntryFlags::WRITABLE)
            .with_set(EntryFlags::ACCESSED | EntryFlags::DIRTY);
        assert_eq!(e2.frame(), FrameId(1234));
        assert!(!e2.is_writable());
        assert!(e2.is_accessed());
        assert!(e2.is_dirty());
    }

    #[test]
    fn huge_entries_carry_the_ps_bit() {
        let e = Entry::huge_page(FrameId(512), false);
        assert!(e.is_huge());
        assert!(!e.is_writable());
        assert!(e.is_present());
        assert!(!Entry::page(FrameId(512), false).is_huge());
    }

    #[test]
    fn soft_dirty_is_independent_of_dirty() {
        let e = Entry::page(FrameId(7), true).with_set(EntryFlags::SOFT_DIRTY);
        assert!(e.is_soft_dirty());
        assert!(!e.is_dirty());
        let cleared = e.with_cleared(EntryFlags::SOFT_DIRTY);
        assert!(!cleared.is_soft_dirty());
        assert_eq!(cleared.frame(), FrameId(7));
    }

    #[test]
    fn soft_clean_is_a_table_entry_flag_apart_from_the_frame() {
        let e = Entry::table(FrameId(9)).with_set(EntryFlags::SOFT_CLEAN);
        assert!(e.is_soft_clean());
        assert!(!e.is_soft_dirty());
        assert_eq!(e.frame(), FrameId(9));
        assert!(format!("{e:?}").contains(" SC"));
        assert!(!Entry::table(FrameId(9)).is_soft_clean());
    }

    #[test]
    fn none_entry_is_not_present() {
        assert!(!Entry::NONE.is_present());
        assert_eq!(format!("{:?}", Entry::NONE), "Entry(none)");
    }

    #[test]
    fn swap_entries_round_trip_and_are_not_present() {
        let e = Entry::swap(0xBEEF, true);
        assert!(e.is_swap());
        assert!(!e.is_present());
        assert!(e.is_soft_dirty());
        assert_eq!(e.swap_slot(), 0xBEEF);
        let clean = Entry::swap(7, false);
        assert!(!clean.is_soft_dirty());
        assert_eq!(clean.swap_slot(), 7);
        // A racing A-bit OR (hardware walker semantics) must not disturb
        // the slot index.
        assert_eq!(
            clean.with_set(EntryFlags::ACCESSED).swap_slot(),
            7,
            "flag bits must not alias slot bits"
        );
        assert!(!Entry::NONE.is_swap());
        assert!(!Entry::page(FrameId(7), true).is_swap());
        assert!(format!("{:?}", e).contains("swap slot 48879"));
    }

    #[test]
    fn frame_bits_do_not_collide_with_flags() {
        let e = Entry::page(FrameId(u32::MAX >> 12), false);
        assert!(e.is_present());
        assert!(!e.is_writable());
        assert!(!e.is_huge());
        assert!(!e.is_dirty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Any combination of frame and flag manipulations preserves the
        /// frame bits and only the targeted flags.
        #[test]
        fn flag_ops_never_corrupt_the_frame(
            frame in 0u32..(1 << 20),
            set_bits in 0u64..64,
            clear_bits in 0u64..64,
            writable in any::<bool>(),
        ) {
            let set_mask = set_bits & EntryFlags::ALL;
            let clear_mask = clear_bits & EntryFlags::ALL;
            let e = Entry::page(FrameId(frame), writable)
                .with_set(set_mask)
                .with_cleared(clear_mask);
            prop_assert_eq!(e.frame(), FrameId(frame));
            // Cleared bits are definitely absent.
            prop_assert_eq!(e.0 & clear_mask, 0);
            // Set bits survive unless also cleared.
            prop_assert_eq!(e.0 & (set_mask & !clear_mask), set_mask & !clear_mask);
        }

        /// Table entries round-trip through every accessor.
        #[test]
        fn table_store_load_round_trips(
            idx in 0usize..512,
            frame in 0u32..(1 << 20),
            huge in any::<bool>(),
            writable in any::<bool>(),
        ) {
            let t = crate::Table::new();
            let e = if huge {
                Entry::huge_page(FrameId(frame), writable)
            } else {
                Entry::page(FrameId(frame), writable)
            };
            t.store(idx, e);
            let back = t.load(idx);
            prop_assert_eq!(back, e);
            prop_assert_eq!(back.is_huge(), huge);
            prop_assert_eq!(back.is_writable(), writable);
            prop_assert_eq!(t.count_present(), 1);
        }
    }
}
