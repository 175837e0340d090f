//! Virtual addresses.

use odf_pmem::{PAGE_SHIFT, PAGE_SIZE};

use crate::level::Level;

/// A 48-bit canonical virtual address in a simulated address space.
///
/// The simulation uses the x86-64 user-space layout: addresses are valid in
/// `[0, 2^47)`. Kernel-half addresses are never used.
///
/// # Examples
///
/// ```
/// use odf_pagetable::{Level, VirtAddr};
///
/// let va = VirtAddr::new(0x7f12_3456_7000);
/// assert_eq!(va.page_offset(), 0);
/// assert_eq!(va.index(Level::Pte), (0x7f12_3456_7000u64 >> 12) as usize & 511);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Highest valid user address + 1 (the 47-bit user canonical limit).
    pub const LIMIT: u64 = 1 << 47;

    /// Creates a virtual address.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the user canonical range.
    pub fn new(addr: u64) -> Self {
        assert!(addr < Self::LIMIT, "non-canonical address {addr:#x}");
        Self(addr)
    }

    /// Raw address value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Offset within the containing 4 KiB page.
    pub fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Rounds down to the containing page boundary.
    pub fn page_align_down(self) -> Self {
        Self(self.0 & !(PAGE_SIZE as u64 - 1))
    }

    /// Rounds up to the next page boundary.
    ///
    /// # Panics
    ///
    /// Panics if rounding up leaves the canonical range.
    pub fn page_align_up(self) -> Self {
        Self::new(self.0.div_ceil(PAGE_SIZE as u64) << PAGE_SHIFT)
    }

    /// The 9-bit table index this address selects at a given level.
    pub fn index(self, level: Level) -> usize {
        ((self.0 >> level.index_shift()) & 0x1FF) as usize
    }

    /// Adds a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the canonical range.
    #[allow(clippy::should_implement_trait)] // offset arithmetic, not `Add`
    pub fn add(self, bytes: u64) -> Self {
        Self::new(self.0 + bytes)
    }

    /// Rounds down to the start of the 2 MiB range covered by the
    /// containing last-level page table.
    pub fn pte_table_align_down(self) -> Self {
        Self(self.0 & !(crate::PTE_TABLE_SPAN - 1))
    }
}

impl std::fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr::new(0x1234);
        assert_eq!(va.page_align_down().as_u64(), 0x1000);
        assert_eq!(va.page_align_up().as_u64(), 0x2000);
        assert_eq!(va.page_align_down().page_offset(), 0);
        assert_eq!(va.page_offset(), 0x234);
        let aligned = VirtAddr::new(0x3000);
        assert_eq!(aligned.page_align_up().as_u64(), 0x3000);
    }

    #[test]
    fn index_extraction_matches_x86_layout() {
        // Address with distinct indices at each level:
        // pgd=1, pud=2, pmd=3, pte=4, offset=5.
        let addr = (1u64 << 39) | (2 << 30) | (3 << 21) | (4 << 12) | 5;
        let va = VirtAddr::new(addr);
        assert_eq!(va.index(Level::Pgd), 1);
        assert_eq!(va.index(Level::Pud), 2);
        assert_eq!(va.index(Level::Pmd), 3);
        assert_eq!(va.index(Level::Pte), 4);
        assert_eq!(va.page_offset(), 5);
    }

    #[test]
    #[should_panic(expected = "non-canonical")]
    fn non_canonical_addresses_panic() {
        let _ = VirtAddr::new(1 << 47);
    }

    #[test]
    fn pte_table_alignment_is_2mib() {
        let va = VirtAddr::new(0x40_0000 + 0x1234);
        assert_eq!(va.pte_table_align_down().as_u64(), 0x40_0000);
    }
}
