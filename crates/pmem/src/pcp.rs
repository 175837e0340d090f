//! Per-thread frame magazines: the pcplist analog in front of the buddy.
//!
//! Linux keeps order-0 (and, since 5.13, pageblock-order) free pages on
//! per-CPU lists (`struct per_cpu_pages`) so the page allocator fast path
//! never touches the zone lock; refill and spill move pages between the
//! pcplist and the buddy in batches, amortizing one lock acquisition over
//! `pcp->batch` pages. This module reproduces that tier in user space:
//!
//! - [`PcpCache`] holds a fixed array of cache-line-padded, mutex-guarded
//!   [`Magazine`]s. Threads are assigned a slot round-robin on first use,
//!   so with up to [`SLOTS`] concurrently allocating threads every thread
//!   has an uncontended fast path (a slot mutex nobody else holds).
//! - Each magazine has three lanes, one per kind of block the fork/fault
//!   paths allocate: order-0 movable frames (data pages), order-0
//!   unmovable frames (page tables) and order-[`HUGE_ORDER`] blocks
//!   (2 MiB compound pages). The two order-0 lanes are the kernel's
//!   per-migratetype pcplists: a table lane refills from unmovable
//!   pageblocks, so a process's page tables sit together in frame order
//!   instead of one between every ~511 data frames, and a fork's
//!   shared-table counters ([`crate::Page`]) share cache lines.
//! - An empty lane refills from the buddy via [`Buddy::alloc_bulk`] (one
//!   lock for the whole batch); a lane past its watermark spills the
//!   coldest half back via [`Buddy::free_bulk`].
//! - [`PcpCache::drain_all`] returns every cached block to the buddy so
//!   whole-pool accounting ([`crate::PoolBalance`]) stays exact and
//!   fragmented order-0 frames can merge back into huge blocks.
//!
//! Frames parked in a magazine are *free*: their [`crate::Page`] metadata
//! is in the `Free` state and their data buffers are dropped, exactly as
//! if they sat in the buddy. Only the pool's bookkeeping knows which tier
//! a free frame is in, which is why magazine transfers emit the dedicated
//! `MagRefill`/`MagDrain` trace events instead of per-frame
//! `FrameAlloc`/`FrameFree` records.
//!
//! Lock order: a slot mutex is always acquired before the buddy spinlock,
//! and never two slot mutexes at once (drain iterates slots one at a
//! time), so the hierarchy is two levels deep and cycle-free. The slot
//! mutexes stay sleeping locks (the kernel's pcplists are per-CPU and
//! lock-free; an uncontended futex mutex is the closest cheap analog),
//! while the buddy behind them carries the kernel's spinning `zone->lock`
//! cost model ([`crate::spin`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use odf_trace::{Hit, Point};
use parking_lot::Mutex;

use crate::buddy::{Buddy, MigrateType};
use crate::frame::{FrameId, HUGE_ORDER};
use crate::spin::SpinMutex;
use crate::stats::PoolStats;

/// Number of magazine slots (the per-CPU analog). More slots than the
/// machine has cores costs only idle memory; fewer would re-serialize
/// threads that hash to the same slot.
pub(crate) const SLOTS: usize = 16;

/// Blocks moved per order-0 refill/spill (`pcp->batch`).
const SMALL_BATCH: usize = 32;

/// Blocks moved per huge-order refill/spill. Huge blocks are 512 frames
/// each, so a small batch already amortizes the lock while keeping at most
/// a few MiB of simulated memory parked per thread.
const HUGE_BATCH: usize = 4;

/// A lane spills back to the buddy when it grows past `2 * batch` blocks
/// (the kernel's `pcp->high` watermark).
fn high_watermark(batch: usize) -> usize {
    2 * batch
}

/// Round-robin slot assignment: each thread claims an index on first
/// allocator use and keeps it for life. Shared across pools — the index
/// is just a stripe selector.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// One thread-slot's cached free blocks, LIFO per lane (the most recently
/// freed block is the warmest and is handed out first).
#[derive(Default)]
struct Magazine {
    /// Order-0 movable frames: data pages.
    small: Vec<FrameId>,
    /// Order-0 unmovable frames: page tables.
    tables: Vec<FrameId>,
    huge: Vec<FrameId>,
}

impl Magazine {
    fn lane_mut(&mut self, order: u8, mt: MigrateType) -> &mut Vec<FrameId> {
        match (order, mt) {
            (0, MigrateType::Movable) => &mut self.small,
            (0, MigrateType::Unmovable) => &mut self.tables,
            _ => {
                debug_assert_eq!(order, HUGE_ORDER);
                &mut self.huge
            }
        }
    }
}

/// Pad each slot to its own cache line so neighbouring slots' mutexes do
/// not false-share.
#[repr(align(64))]
struct Slot(Mutex<Magazine>);

/// The striped per-thread magazine tier. See the module docs.
pub(crate) struct PcpCache {
    slots: Vec<Slot>,
}

impl PcpCache {
    pub(crate) fn new() -> Self {
        Self {
            slots: (0..SLOTS)
                .map(|_| Slot(Mutex::new(Magazine::default())))
                .collect(),
        }
    }

    /// Whether this order is served by a magazine lane at all.
    pub(crate) fn caches(order: u8) -> bool {
        order == 0 || order == HUGE_ORDER
    }

    fn batch(order: u8) -> usize {
        if order == 0 {
            SMALL_BATCH
        } else {
            HUGE_BATCH
        }
    }

    /// Pops one free block of `order` for the calling thread.
    ///
    /// Fast path: pop from the thread's own magazine lane (no buddy lock).
    /// On a miss, refill the lane from the buddy in one bulk call. When the
    /// buddy itself is empty, drain *all* magazines back (merging stranded
    /// order-0 frames into larger blocks, and making every cached block
    /// reachable) and retry once — the analog of the kernel draining
    /// pcplists before declaring OOM — so exhaustion behaviour is
    /// indistinguishable from a flat buddy-only pool.
    ///
    /// An order-0 request is served from the lane of its migratetype `mt`,
    /// so a page table never gets a frame a data page parked, nor the
    /// reverse. The huge lane serves any `mt` (only data is huge).
    pub(crate) fn alloc(
        &self,
        buddy: &SpinMutex<Buddy>,
        order: u8,
        mt: MigrateType,
        stats: &PoolStats,
    ) -> Option<FrameId> {
        debug_assert!(Self::caches(order));
        let slot = MY_SLOT.with(|s| *s);
        {
            let mut mag = self.slots[slot].0.lock();
            let lane = mag.lane_mut(order, mt);
            if let Some(f) = lane.pop() {
                stats.pcp_hits.bump();
                return Some(f);
            }
            stats.pcp_misses.bump();
            let got = buddy.lock().alloc_bulk(order, mt, Self::batch(order), lane);
            if got > 0 {
                let refill = Hit::new(Point::MagRefill, &[order.into(), got as u64]);
                odf_trace::emit_counted(&stats.pcp_refills, refill);
                return lane.pop();
            }
        }
        // Buddy empty. Release our slot lock (drain takes them in turn),
        // push every cached block back, and retry for a single block so a
        // scarce pool is not re-hoarded by one thread's refill.
        self.drain_all(buddy);
        let mut mag = self.slots[slot].0.lock();
        let lane = mag.lane_mut(order, mt);
        if let Some(f) = lane.pop() {
            // A racing free landed in our magazine since the drain.
            stats.pcp_hits.bump();
            return Some(f);
        }
        if buddy.lock().alloc_bulk(order, mt, 1, lane) > 0 {
            return lane.pop();
        }
        None
    }

    /// Returns one free block of `order` to the calling thread's magazine
    /// lane for `mt`, spilling the coldest `batch` blocks to the buddy past
    /// the watermark.
    pub(crate) fn free(
        &self,
        buddy: &SpinMutex<Buddy>,
        head: FrameId,
        order: u8,
        mt: MigrateType,
        stats: &PoolStats,
    ) {
        debug_assert!(Self::caches(order));
        let slot = MY_SLOT.with(|s| *s);
        let mut mag = self.slots[slot].0.lock();
        let lane = mag.lane_mut(order, mt);
        lane.push(head);
        let batch = Self::batch(order);
        if lane.len() > high_watermark(batch) {
            stats.pcp_spills.bump();
            let spill: Vec<(FrameId, u8)> = lane.drain(..batch).map(|f| (f, order)).collect();
            buddy.lock().free_bulk(&spill);
            odf_trace::emit(Hit::new(Point::MagDrain, &[order.into(), batch as u64]));
        }
    }

    /// Moves every cached block in every slot back to the buddy. Called
    /// before exact accounting reads ([`crate::FramePool::balance`]) and on
    /// allocation failure; afterwards (and absent concurrent traffic) the
    /// buddy's free count is the pool's free count.
    pub(crate) fn drain_all(&self, buddy: &SpinMutex<Buddy>) {
        for slot in &self.slots {
            let mut mag = slot.0.lock();
            let small = mag.small.len() + mag.tables.len();
            let huge = mag.huge.len();
            if small == 0 && huge == 0 {
                continue;
            }
            let mag = &mut *mag;
            let mut blocks: Vec<(FrameId, u8)> = Vec::with_capacity(small + huge);
            blocks.extend(
                mag.small
                    .drain(..)
                    .chain(mag.tables.drain(..))
                    .map(|f| (f, 0u8)),
            );
            blocks.extend(mag.huge.drain(..).map(|f| (f, HUGE_ORDER)));
            buddy.lock().free_bulk(&blocks);
            for (order, blocks) in [(0, small), (HUGE_ORDER, huge)] {
                if blocks > 0 {
                    odf_trace::emit(Hit::new(Point::MagDrain, &[order.into(), blocks as u64]));
                }
            }
        }
    }

    /// Free base frames currently parked across all magazines. Takes each
    /// slot lock in turn (none held across iterations), feeding the
    /// read-side sum in [`crate::FramePool::free_frames`].
    pub(crate) fn cached_frames(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                let mag = s.0.lock();
                mag.small.len() + mag.tables.len() + (mag.huge.len() << HUGE_ORDER)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOV: MigrateType = MigrateType::Movable;
    const UNMOV: MigrateType = MigrateType::Unmovable;

    /// The calling thread's magazine, for inspecting its lanes.
    fn my_magazine(pcp: &PcpCache) -> parking_lot::MutexGuard<'_, Magazine> {
        pcp.slots[MY_SLOT.with(|s| *s)].0.lock()
    }

    #[test]
    fn miss_refills_a_batch_then_hits() {
        let buddy = SpinMutex::new(Buddy::new(256));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let f = pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        // One bulk refill took SMALL_BATCH frames from the buddy...
        assert_eq!(buddy.lock().free_frames(), 256 - SMALL_BATCH);
        // ...and the rest of the batch is parked for this thread.
        assert_eq!(pcp.cached_frames(), SMALL_BATCH - 1);
        for _ in 0..SMALL_BATCH - 1 {
            pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.pcp_refills, 1);
        assert_eq!(snap.pcp_hits, SMALL_BATCH as u64 - 1);
        pcp.free(&buddy, f, 0, MOV, &stats);
        assert_eq!(pcp.cached_frames(), 1);
    }

    #[test]
    fn watermark_spills_cold_blocks_back() {
        let buddy = SpinMutex::new(Buddy::new(512));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let frames: Vec<FrameId> = (0..=high_watermark(SMALL_BATCH))
            .map(|_| buddy.lock().alloc(0, MOV).unwrap())
            .collect();
        for f in frames {
            pcp.free(&buddy, f, 0, MOV, &stats);
        }
        // Crossing the watermark pushed one batch back to the buddy.
        assert_eq!(stats.snapshot().pcp_spills, 1);
        assert_eq!(
            pcp.cached_frames(),
            high_watermark(SMALL_BATCH) + 1 - SMALL_BATCH
        );
    }

    #[test]
    fn table_requests_never_pop_a_frame_parked_by_a_data_free() {
        let buddy = SpinMutex::new(Buddy::new(1 << 11));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let data = pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        pcp.free(&buddy, data, 0, MOV, &stats);
        let parked = my_magazine(&pcp).small.clone();
        assert_eq!(parked.len(), SMALL_BATCH);
        // Two refills' worth of tables: none is a parked data frame, and
        // none shares a pageblock with one.
        let tables: Vec<FrameId> = (0..2 * SMALL_BATCH)
            .map(|_| pcp.alloc(&buddy, 0, UNMOV, &stats).unwrap())
            .collect();
        for t in &tables {
            assert!(!parked.contains(t), "table got parked data frame {t:?}");
            assert_ne!(t.0 >> HUGE_ORDER, data.0 >> HUGE_ORDER);
        }
        assert_eq!(my_magazine(&pcp).small, parked);
    }

    #[test]
    fn drain_returns_everything_and_merges() {
        let buddy = SpinMutex::new(Buddy::new(1 << 11));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let small = pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        let table = pcp.alloc(&buddy, 0, UNMOV, &stats).unwrap();
        let huge = pcp.alloc(&buddy, HUGE_ORDER, MOV, &stats).unwrap();
        pcp.free(&buddy, small, 0, MOV, &stats);
        pcp.free(&buddy, table, 0, UNMOV, &stats);
        pcp.free(&buddy, huge, HUGE_ORDER, MOV, &stats);
        {
            let mag = my_magazine(&pcp);
            assert!(!mag.small.is_empty() && !mag.tables.is_empty() && !mag.huge.is_empty());
        }
        assert_eq!(pcp.cached_frames() + buddy.lock().free_frames(), 1 << 11);
        pcp.drain_all(&buddy);
        assert_eq!(pcp.cached_frames(), 0);
        assert_eq!(buddy.lock().free_frames(), 1 << 11);
        // Order-0 residue merged back: the full pool is one max-order run.
        assert!(buddy.lock().alloc(crate::frame::MAX_ORDER, MOV).is_some());
    }

    #[test]
    fn exhaustion_drains_magazines_before_failing() {
        // Pool of exactly one batch: the first alloc parks everything in
        // this thread's magazine; after freeing, a huge-order alloc can
        // only succeed if the drain path gives the frames back.
        let buddy = SpinMutex::new(Buddy::new(512));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let f = pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        pcp.free(&buddy, f, 0, MOV, &stats);
        assert_eq!(buddy.lock().free_frames(), 512 - SMALL_BATCH);
        let huge = pcp.alloc(&buddy, HUGE_ORDER, MOV, &stats).unwrap();
        assert_eq!(huge.0 % 512, 0);
        // And true exhaustion still reports failure.
        assert!(pcp.alloc(&buddy, HUGE_ORDER, MOV, &stats).is_none());
        pcp.free(&buddy, huge, HUGE_ORDER, MOV, &stats);
    }

    #[test]
    fn exhaustion_drains_the_table_lane_too() {
        // A pool of one batch, all of it parked in the table lane: a data
        // request succeeds only through the drain.
        let buddy = SpinMutex::new(Buddy::new(SMALL_BATCH));
        let pcp = PcpCache::new();
        let stats = PoolStats::default();
        let t = pcp.alloc(&buddy, 0, UNMOV, &stats).unwrap();
        pcp.free(&buddy, t, 0, UNMOV, &stats);
        assert_eq!(my_magazine(&pcp).tables.len(), SMALL_BATCH);
        assert_eq!(buddy.lock().free_frames(), 0);
        let d = pcp.alloc(&buddy, 0, MOV, &stats).unwrap();
        assert!(my_magazine(&pcp).tables.is_empty());
        pcp.free(&buddy, d, 0, MOV, &stats);
    }
}
