//! Physical memory substrate for the On-demand-fork reproduction.
//!
//! The paper's artifact is a patch to the Linux 5.6 memory subsystem; the
//! costs it measures are dominated by operations on *physical page metadata*
//! (`struct page`): the `compound_head()` resolution and the atomic
//! `page_ref_inc()` that run for every mapped page during `fork` (§2.2,
//! Figure 3 of the paper). This crate reproduces that substrate in user
//! space:
//!
//! - [`FramePool`]: a fixed-size pool of 4 KiB physical frames with a
//!   tiered allocator — per-thread frame magazines (the pcplist analog,
//!   bulk refill/drain) in front of a buddy allocator supporting orders 0
//!   (4 KiB) through 9 (2 MiB compound pages, the "huge page" backing) —
//!   plus [`FreeBatch`], the mmu_gather analog that returns whole unmap
//!   sweeps to the pool under one lock.
//! - [`Page`]: per-frame metadata with a **real atomic reference counter**
//!   and a field that, exactly like the paper's implementation trick (§4,
//!   "Memory Usage"), is reused as the shared-page-table reference counter
//!   when the frame backs a last-level page table.
//! - Lazily materialized frame data: a frame costs only metadata until the
//!   first write, which is what makes paper-scale (multi-GiB) fork sweeps
//!   possible inside a small container.
//! - [`PoolStats`]: counters for the hot-spot operations so the Figure 3
//!   profile can be regenerated.
//!
//! All fork engines in `odf-vm` run on top of this pool and perform the same
//! per-entry metadata work as the kernel code path they model, which is why
//! wall-clock measurements of the simulator reproduce the paper's scaling
//! shapes.

#![forbid(unsafe_code)]

mod buddy;
mod error;
mod frame;
mod gather;
mod page;
mod pcp;
mod pool;
mod spin;
mod stats;
mod swap;

pub use error::{PmemError, Result};
pub use frame::{FrameId, HUGE_ORDER, HUGE_PAGE_SIZE, MAX_ORDER, PAGE_SHIFT, PAGE_SIZE};
pub use gather::FreeBatch;
pub use page::{Page, PageFlags, PageKind};
pub use pool::{assert_pool_balanced, FramePool, PoolBalance, Watermarks};
pub use stats::{PoolStats, StatsSnapshot};
pub use swap::SwapMap;
