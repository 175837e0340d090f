//! Frame identifiers and size constants.

/// Base page size in bytes (4 KiB), matching x86-64.
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Allocation order of a 2 MiB huge page (512 base pages).
pub const HUGE_ORDER: u8 = 9;

/// Size in bytes of a 2 MiB huge page.
pub const HUGE_PAGE_SIZE: usize = PAGE_SIZE << HUGE_ORDER;

/// Largest allocation order supported by the buddy allocator.
///
/// Order 10 (4 MiB) mirrors Linux's `MAX_ORDER` and leaves headroom above
/// the huge-page order.
pub const MAX_ORDER: u8 = 10;

/// Identifies one 4 KiB physical frame in a [`FramePool`](crate::FramePool).
///
/// Frame numbers are dense indices starting at 0; the simulated physical
/// address of a frame is `id * PAGE_SIZE`. A `u32` index supports pools up
/// to 16 TiB of simulated memory, far beyond the paper's 50 GiB sweeps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

impl FrameId {
    /// Returns the frame's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the frame `n` places after this one.
    ///
    /// Used to address the tail frames of a compound (huge) page.
    pub fn offset(self, n: usize) -> FrameId {
        FrameId(self.0 + n as u32)
    }

    /// Simulated physical address of the first byte of this frame.
    pub fn phys_addr(self) -> u64 {
        u64::from(self.0) << PAGE_SHIFT
    }
}

impl std::fmt::Debug for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
        assert_eq!(HUGE_PAGE_SIZE, 2 * 1024 * 1024);
        const { assert!(HUGE_ORDER < MAX_ORDER) };
    }

    #[test]
    fn debug_formatting_is_compact() {
        assert_eq!(format!("{:?}", FrameId(7)), "frame#7");
    }
}
