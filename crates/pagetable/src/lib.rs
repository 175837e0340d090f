//! Hierarchical paging structures for the On-demand-fork reproduction.
//!
//! Models the x86-64 4-level radix page table the paper's implementation
//! manipulates (§3.1): PGD → PUD → PMD → PTE, 512 entries per table, 4 KiB
//! base pages, and 2 MiB huge pages described directly in PMD entries.
//!
//! The crate provides:
//!
//! - [`VirtAddr`]: 48-bit canonical virtual addresses with per-level index
//!   extraction.
//! - [`Entry`]: the 64-bit entry encoding (present / writable / user /
//!   accessed / dirty / huge bits plus the target frame number), at every
//!   level. **Hierarchical attributes** (§3.2) are honored by the walkers in
//!   `odf-vm`: the effective write permission of a translation is the AND of
//!   the writable bits along the walk, which is exactly the capability
//!   On-demand-fork exploits to write-protect an entire 2 MiB range by
//!   clearing one PMD entry bit.
//! - [`Table`]: a 512-entry table of atomic entries. A `Table` is exactly
//!   4 KiB, like the frame that backs it.
//! - [`TableSlots`]: each table frame's contents, found by frame index —
//!   the direct map of the simulation. Every table is backed by a frame
//!   from the [`odf_pmem::FramePool`], so the On-demand-fork shared-table
//!   reference counter lives in that frame's `struct Page` (the paper's
//!   union trick, §4) and the contents in the slot the frame's index
//!   entry names. Slots are type-stable and carry a generation, so
//!   lockless walkers validate what they read instead of pinning tables.
//! - [`Level`]: the level lattice with spans and child relationships.

#![forbid(unsafe_code)]

mod addr;
mod entry;
mod level;
mod slots;
mod table;

pub use addr::VirtAddr;
pub use entry::{Entry, EntryFlags};
pub use level::Level;
pub use slots::{Found, TableSlot, TableSlots};
pub use table::{Table, ENTRIES_PER_TABLE};

/// Bytes mapped by one last-level (PTE) table: 2 MiB.
///
/// This is the granularity at which On-demand-fork shares and copies page
/// tables; the paper's "2 MB range" (§3.1).
pub const PTE_TABLE_SPAN: u64 = (ENTRIES_PER_TABLE as u64) * odf_pmem::PAGE_SIZE as u64;
