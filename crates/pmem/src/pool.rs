//! The frame pool: metadata, tiered (magazine + buddy) allocation, and
//! lazily materialized data.

use std::collections::VecDeque;
use std::sync::Arc;

use odf_trace::{Hit, Point};
use parking_lot::{Mutex, RwLock};

use crate::buddy::{Buddy, MigrateType};
use crate::error::{PmemError, Result};
use crate::frame::{FrameId, HUGE_ORDER, MAX_ORDER, PAGE_SIZE};
use crate::page::{Page, PageFlags, PageKind};
use crate::pcp::PcpCache;
use crate::spin::SpinMutex;
use crate::stats::PoolStats;

/// One frame's lazily materialized backing store.
type FrameData = RwLock<Option<Box<[u8; PAGE_SIZE]>>>;

/// The all-zeros page used as the source for reads of unmaterialized frames.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Most freed data buffers the pool keeps for reuse (64 MiB of host memory).
const SPARE_BUFFERS: usize = 16 * 1024;

/// Free-frame thresholds that drive the reclaim subsystem — the
/// `zone->watermark[]` analog.
///
/// The background daemon wakes when free frames drop below `low` and scans
/// until they recover above `high`; an allocation that fails outright
/// triggers direct reclaim regardless of the watermarks. Both are in base
/// (order-0) frames, fixed at pool construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermarks {
    /// Wake the background reclaim daemon below this many free frames.
    pub low: usize,
    /// The daemon stops scanning once free frames recover above this.
    pub high: usize,
}

impl Watermarks {
    /// Derives the default watermarks for a pool of `total` frames:
    /// low ≈ total/32 (clamped to stay meaningful for tiny test pools),
    /// high = 2 × low.
    pub fn for_pool(total: usize) -> Self {
        let low = (total / 32).max(8).min(total / 4).max(1);
        let high = (low * 2).min(total / 2).max(low);
        Self { low, high }
    }
}

/// A point-in-time frame-accounting snapshot of a [`FramePool`].
///
/// Captured via [`FramePool::balance`] before a test scenario and compared
/// with [`assert_pool_balanced`] after every process involved has exited.
/// Because every page and page-table reference ultimately pins frames in the
/// buddy allocator, free-frame equality is a whole-system refcount-balance
/// check: a leaked reference shows up as missing free frames, a double
/// decrement as extra ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolBalance {
    /// Frames free in the buddy allocator at capture time.
    pub free_frames: usize,
    /// Total frames managed by the pool (invariant for a pool's lifetime).
    pub total_frames: usize,
}

/// Asserts that the pool's frame accounting matches `baseline`.
///
/// Panics with a leak/over-free diagnostic when the free-frame count moved,
/// which means some reference count did not return to its starting value
/// (e.g. a COW path pinned a source page and never released it, or a shared
/// page table was decremented twice).
///
/// # Panics
///
/// Panics if the current balance differs from `baseline`.
pub fn assert_pool_balanced(pool: &FramePool, baseline: PoolBalance) {
    let now = pool.balance();
    assert_eq!(
        now.total_frames, baseline.total_frames,
        "pool size changed mid-test: {} -> {} total frames",
        baseline.total_frames, now.total_frames
    );
    match now.free_frames.cmp(&baseline.free_frames) {
        std::cmp::Ordering::Equal => {}
        std::cmp::Ordering::Less => {
            dump_frame_history(pool);
            panic!(
                "frame leak: {} frames still referenced after teardown \
                 ({} free at baseline, {} free now)",
                baseline.free_frames - now.free_frames,
                baseline.free_frames,
                now.free_frames
            )
        }
        std::cmp::Ordering::Greater => {
            dump_frame_history(pool);
            panic!(
                "over-free: {} more frames free than at baseline \
                 ({} free at baseline, {} free now) — some reference was \
                 decremented twice",
                now.free_frames - baseline.free_frames,
                baseline.free_frames,
                now.free_frames
            )
        }
    }
}

/// How many still-allocated frames (and events per frame) the failure dump
/// covers.
const DUMP_FRAMES: usize = 8;
const DUMP_EVENTS_PER_FRAME: usize = 16;

/// On an imbalance, prints the per-frame trace history of the frames still
/// allocated — the alloc/COW/free event sequence that shows *which* path
/// took the unreturned reference. Only does work when tracing is enabled
/// (`ODF_TRACE=1`), and only runs on the failure path.
fn dump_frame_history(pool: &FramePool) {
    if !odf_trace::enabled() {
        eprintln!("(set ODF_TRACE=1 to dump per-frame trace history on imbalance)");
        return;
    }
    if !odf_trace::class_enabled(odf_trace::EventClass::Kmem) {
        // Frame alloc/free events are masked by default for fault-path
        // overhead; the per-frame history needs them.
        eprintln!(
            "(enable odf_trace::EventClass::Kmem to record per-frame \
             alloc/free history for this dump)"
        );
    }
    let trace = odf_trace::snapshot();
    let suspects: Vec<FrameId> = (0..pool.total_frames())
        .map(|i| FrameId(i as u32))
        .filter(|f| {
            let p = pool.page(*f);
            p.kind() != PageKind::Free && !p.is_compound_tail()
        })
        .collect();
    eprintln!(
        "pool imbalance: {} blocks still allocated; last {} trace events for \
         up to {} of them:",
        suspects.len(),
        DUMP_EVENTS_PER_FRAME,
        DUMP_FRAMES
    );
    for f in suspects.iter().rev().take(DUMP_FRAMES) {
        eprintln!("  frame {} ({:?}):", f.index(), pool.page(*f).kind());
        for r in trace.for_frame(f.index() as u64, DUMP_EVENTS_PER_FRAME) {
            eprintln!("    [{} t{}] {:?}", r.ts_ns, r.thread, r.hit);
        }
    }
}

/// A fixed-size pool of simulated physical frames.
///
/// The pool is the single authority over physical memory in the simulation:
/// it owns the per-frame [`Page`] metadata (including the reference counters
/// the fork engines exercise), the buddy allocator, and the frame contents.
///
/// Frame contents are materialized lazily: a frame holds no data buffer
/// until the first [`FramePool::write_frame`] or an explicit copy targets
/// it. Reads of unmaterialized frames observe zeros, matching anonymous
/// memory semantics. This keeps paper-scale sweeps cheap: a mapped-but-clean
/// 16 GiB simulated region costs ~45 bytes of host memory per frame instead
/// of 4 KiB.
///
/// All operations are thread-safe; the pool is shared via [`Arc`] between
/// every simulated process.
///
/// Allocation is tiered: a striped per-thread magazine cache
/// ([`crate::pcp`]) sits in front of the buddy allocator, so the alloc/free
/// fast path touches only the calling thread's own magazine mutex and the
/// global buddy lock is taken once per ~32-block batch. Construct with
/// [`FramePool::new_flat`] to disable the magazine tier (every operation
/// goes straight through the buddy lock) — used as the differential-test
/// oracle and as the single-global-lock baseline in benchmarks.
pub struct FramePool {
    meta: Box<[Page]>,
    data: Box<[FrameData]>,
    /// The buddy allocator behind a *spinning* lock — the `zone->lock`
    /// analog (see [`crate::spin`]). Alloc/free traffic mostly stays in
    /// the magazine tier and takes this lock once per batch.
    buddy: SpinMutex<Buddy>,
    /// The magazine tier; `None` for flat (buddy-only) pools.
    pcp: Option<PcpCache>,
    /// Pool size, invariant for the pool's lifetime — monitoring reads it
    /// without touching the buddy lock.
    total: usize,
    /// Reclaim trigger thresholds, fixed at construction.
    watermarks: Watermarks,
    stats: PoolStats,
    /// Data buffers of freed frames, handed to the next materialization
    /// instead of back to the host allocator. A snapshot child's exit
    /// frees thousands of them at once; returned to the allocator, they
    /// would make whichever thread allocates next pay to sort them. First
    /// in, first out: a sweep that frees frames in address order and
    /// materializes them again in that order gets the same buffers back in
    /// the same order, pass after pass.
    spare: Mutex<VecDeque<Box<[u8; PAGE_SIZE]>>>,
}

impl FramePool {
    /// Creates a pool with the given number of 4 KiB frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or exceeds `u32::MAX`.
    pub fn new(frames: usize) -> Arc<Self> {
        Self::build(frames, true)
    }

    /// Creates a pool with the magazine tier disabled: every alloc/free
    /// serializes on the buddy lock, as the pool did before the tiered
    /// allocator existed. Observable behaviour (metadata, refcounts, data,
    /// accounting, exhaustion) is identical to [`FramePool::new`]; only
    /// the locking/placement strategy differs.
    pub fn new_flat(frames: usize) -> Arc<Self> {
        Self::build(frames, false)
    }

    fn build(frames: usize, tiered: bool) -> Arc<Self> {
        assert!(frames > 0, "pool must have at least one frame");
        assert!(frames <= u32::MAX as usize, "pool too large for u32 ids");
        let meta: Box<[Page]> = (0..frames).map(|_| Page::new()).collect();
        let data: Box<[FrameData]> = (0..frames).map(|_| RwLock::new(None)).collect();
        Arc::new(Self {
            meta,
            data,
            buddy: SpinMutex::new(Buddy::new(frames)),
            pcp: tiered.then(PcpCache::new),
            total: frames,
            watermarks: Watermarks::for_pool(frames),
            stats: PoolStats::default(),
            spare: Mutex::new(VecDeque::new()),
        })
    }

    /// Creates a pool sized to hold `bytes` of simulated memory (rounded up
    /// to whole frames).
    pub fn with_bytes(bytes: u64) -> Arc<Self> {
        Self::new(bytes.div_ceil(PAGE_SIZE as u64) as usize)
    }

    /// Total frames managed by the pool. Lock-free: the size is fixed at
    /// construction, so metric exporters never touch the buddy lock here.
    pub fn total_frames(&self) -> usize {
        self.total
    }

    /// The pool's reclaim watermarks (fixed at construction, lock-free).
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Whether free frames have dropped below the low watermark — the
    /// background reclaim daemon's wake condition, and fork's pre-check.
    /// Magazine residue only adds free frames, so when the buddy alone
    /// holds `low` the answer is no without taking the 16 stripe locks.
    pub fn below_low_watermark(&self) -> bool {
        let buddy_free = self.buddy.lock().free_frames();
        buddy_free < self.watermarks.low && self.free_frames() < self.watermarks.low
    }

    /// Currently free base frames, summed over both tiers: blocks in the
    /// buddy allocator *plus* blocks parked in per-thread magazines (which
    /// are free memory — only their placement differs). The two tiers are
    /// read one lock at a time (never nested, preserving the slot-before-
    /// buddy lock order), so the sum is exact when the pool is quiescent
    /// and transiently stale by in-flight operations otherwise. Leak
    /// checks that need exactness under any history go through
    /// [`FramePool::balance`], which drains the magazines first and then
    /// reads the buddy alone. Keeping this a read-side sum (rather than a
    /// counter bumped on every alloc/free) keeps the hot path free of
    /// accounting atomics.
    pub fn free_frames(&self) -> usize {
        let cached = match &self.pcp {
            Some(pcp) => pcp.cached_frames(),
            None => 0,
        };
        cached + self.buddy.lock().free_frames()
    }

    /// Point-in-time frame-accounting snapshot, for leak assertions.
    ///
    /// Drains every per-thread magazine back into the buddy first, so the
    /// count reflects *reachable* free memory and magazine residue can
    /// never mask a leak (or fake one): after the drain, buddy-free equals
    /// pool-free exactly.
    pub fn balance(&self) -> PoolBalance {
        self.drain_magazines();
        let buddy = self.buddy.lock();
        PoolBalance {
            free_frames: buddy.free_frames(),
            total_frames: self.total,
        }
    }

    /// Returns every magazine-cached block to the buddy allocator (the
    /// explicit `drain_all` of the pcplist analog). Merges stranded
    /// order-0 frames back into larger blocks; called automatically by
    /// [`FramePool::balance`] and on allocation failure.
    pub fn drain_magazines(&self) {
        if let Some(pcp) = &self.pcp {
            pcp.drain_all(&self.buddy);
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Returns the metadata of a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame id is outside the pool.
    pub fn page(&self, frame: FrameId) -> &Page {
        &self.meta[frame.index()]
    }

    /// Resolves a frame to the head of its compound page.
    ///
    /// This is the `compound_head()` hot spot of Figure 3: it loads the
    /// frame's `struct page` (a likely cache miss at fork scale) to decide
    /// whether the frame is a compound tail, and chases the head pointer if
    /// so. The lookup is counted in [`PoolStats`].
    pub fn compound_head(&self, frame: FrameId) -> FrameId {
        self.stats.compound_head_lookups.bump();
        let page = &self.meta[frame.index()];
        if page.is_compound_tail() {
            FrameId(page.compound_head_index())
        } else {
            frame
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Obtains one free block of `2^order` frames from the tiered
    /// allocator: magazine fast path for the cached orders (0 and huge),
    /// buddy directly otherwise, draining the magazines and retrying once
    /// before reporting exhaustion so parked-but-free memory is never the
    /// reason an allocation fails.
    fn alloc_block(&self, order: u8, mt: MigrateType) -> Result<FrameId> {
        let head = match &self.pcp {
            Some(pcp) if PcpCache::caches(order) => pcp.alloc(&self.buddy, order, mt, &self.stats),
            _ => match self.buddy.lock().alloc(order, mt) {
                Some(f) => Some(f),
                None if self.pcp.is_some() => {
                    self.drain_magazines();
                    self.buddy.lock().alloc(order, mt)
                }
                None => None,
            },
        };
        head.ok_or_else(|| {
            self.stats.alloc_failures.bump();
            PmemError::OutOfFrames {
                order,
                free_frames: self.free_frames() as u64,
                low_watermark: self.watermarks.low as u64,
            }
        })
    }

    /// Page-table frames are unmovable (nothing can relocate a live table;
    /// entries point at it by frame number), so they are steered to
    /// unmovable pageblocks and their own magazine lane; every data kind
    /// is movable — reclaim can evict it and a collapse can migrate it.
    fn migrate_type(kind_flags: u32) -> MigrateType {
        if kind_flags & PageFlags::PAGETABLE != 0 {
            MigrateType::Unmovable
        } else {
            MigrateType::Movable
        }
    }

    /// Allocates a block of `2^order` frames with raw metadata.
    fn alloc_order(&self, order: u8, kind_flags: u32) -> Result<FrameId> {
        assert!(order <= MAX_ORDER);
        let head = self.alloc_block(order, Self::migrate_type(kind_flags))?;
        let alloc = Hit::new(Point::FrameAlloc, &[head.index() as u64, order.into()]);
        odf_trace::emit_counted(&self.stats.allocs, alloc);
        if order == 0 {
            self.meta[head.index()].set_allocated(kind_flags, 0);
        } else {
            self.meta[head.index()].set_allocated(
                kind_flags | PageFlags::COMPOUND_HEAD | PageFlags::with_order(order),
                0,
            );
            for i in 1..(1usize << order) {
                self.meta[head.index() + i]
                    .set_allocated(kind_flags | PageFlags::COMPOUND_TAIL, head.0);
            }
        }
        Ok(head)
    }

    /// Allocates one 4 KiB data frame of the given kind with refcount 1.
    pub fn alloc_page(&self, kind: PageKind) -> Result<FrameId> {
        self.alloc_order(0, Self::kind_flags(kind))
    }

    /// Allocates a 2 MiB compound (huge) page of the given kind.
    ///
    /// The head frame carries the reference count for the whole compound
    /// page, as in the kernel.
    pub fn alloc_huge(&self, kind: PageKind) -> Result<FrameId> {
        self.alloc_order(HUGE_ORDER, Self::kind_flags(kind))
    }

    /// Allocates a frame to back a page table and runs the page-table
    /// constructor: the shared-table counter starts at 1 (§3.5).
    pub fn alloc_page_table(&self) -> Result<FrameId> {
        let f = self.alloc_order(0, PageFlags::PAGETABLE)?;
        self.meta[f.index()].pt_share_init();
        Ok(f)
    }

    fn kind_flags(kind: PageKind) -> u32 {
        match kind {
            PageKind::Anon => PageFlags::ANON,
            PageKind::File => PageFlags::FILE,
            PageKind::PageTable => PageFlags::PAGETABLE,
            PageKind::Raw | PageKind::Free => 0,
        }
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// Allocates a 2 MiB compound page, running a compaction pass when the
    /// fast path cannot find a contiguous block — the THP collapse
    /// allocation entry point.
    ///
    /// The compaction pass drains every per-thread magazine back into the
    /// buddy so stranded order-0 frames merge into larger blocks (the
    /// dominant source of assemblable contiguity here: a collapse frees
    /// 512 scattered movable frames, and they must coalesce to serve the
    /// *next* collapse), then retries. Failure is reported as
    /// [`PmemError::CompactionFailed`], distinguishing "fragmented" from
    /// "empty": the caller can tell whether reclaim would help (it would
    /// not — only demotion/teardown of unmovable pins would).
    ///
    /// Migration happens one level up: the VM layer's collapse copies 512
    /// movable frames into the new compound and frees the originals, which
    /// *is* the migration step — the pool itself never moves live data.
    pub fn alloc_huge_compact(&self, kind: PageKind) -> Result<FrameId> {
        match self.alloc_huge(kind) {
            Ok(f) => return Ok(f),
            Err(PmemError::OutOfFrames { .. }) => {}
            Err(e) => return Err(e),
        }
        self.drain_magazines();
        let frag_milli = (self.external_fragmentation(HUGE_ORDER) * 1000.0) as u64;
        let scan = Hit::new(Point::CompactScan, &[self.free_frames() as u64, frag_milli]);
        odf_trace::emit_counted(&self.stats.compact_scans, scan);
        match self.alloc_huge(kind) {
            Ok(f) => Ok(f),
            Err(PmemError::OutOfFrames { free_frames, .. }) => {
                self.stats.compact_failures.bump();
                Err(PmemError::CompactionFailed {
                    order: HUGE_ORDER,
                    free_frames,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Free blocks currently on the buddy free lists, indexed by order.
    /// Magazine-parked frames are not included (they sit outside the buddy
    /// until spilled or drained); exporters pair this with
    /// [`FramePool::free_frames`] for the total.
    pub fn free_blocks_per_order(&self) -> Vec<u64> {
        self.buddy.lock().free_blocks_per_order()
    }

    /// External-fragmentation index for allocations of `order`, in `0.0
    /// ..= 1.0`: the fraction of buddy-free memory that is *unusable* for
    /// a block of that order because it sits in smaller fragments.
    /// `0.0` means every free frame is reachable through a block of the
    /// requested order (or the pool is simply empty, where fragmentation
    /// is meaningless); `1.0` means plenty may be free but none of it
    /// contiguous enough — the `CompactionFailed` regime.
    pub fn external_fragmentation(&self, order: u8) -> f64 {
        let counts = self.buddy.lock().free_blocks_per_order();
        let total: u64 = counts.iter().enumerate().map(|(o, &c)| c << o as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let usable: u64 = counts
            .iter()
            .enumerate()
            .skip(usize::from(order))
            .map(|(o, &c)| c << o as u64)
            .sum();
        1.0 - (usable as f64 / total as f64)
    }

    /// Cross-migratetype fallback allocations served so far (movable
    /// request from unmovable lists or vice versa) — the leading indicator
    /// of future fragmentation.
    pub fn mt_fallbacks(&self) -> u64 {
        self.buddy.lock().mt_fallbacks()
    }

    /// Pageblocks stolen (re-tagged to the requesting migratetype) by
    /// pageblock-sized fallbacks so far.
    pub fn mt_steals(&self) -> u64 {
        self.buddy.lock().mt_steals()
    }

    // ------------------------------------------------------------------
    // Reference counting
    // ------------------------------------------------------------------

    /// Increments a frame's reference count (the `page_ref_inc` hot spot).
    ///
    /// The count lives on the compound head for huge pages; callers pass the
    /// head (obtained via [`FramePool::compound_head`]).
    pub fn ref_inc(&self, frame: FrameId) {
        self.stats.page_ref_incs.bump();
        self.meta[frame.index()].ref_inc();
    }

    /// Batched [`FramePool::ref_inc`]: takes one reference on every frame
    /// in `heads` (already compound-head-resolved), with a single stats
    /// update for the whole slice and one atomic `fetch_add` per *run* of
    /// consecutive identical heads. A page-table sweep over a huge-page
    /// region resolves 512 PTEs to the same compound head, so the run
    /// grouping turns 512 contended RMWs into one.
    ///
    /// Per-entry atomic semantics are preserved: each run's `fetch_add(n)`
    /// is indivisible, so a concurrent `ref_dec`/`try_ref_inc` observes a
    /// subset of the states `n` sequential `ref_inc` calls could produce —
    /// never a torn or intermediate count. Callers hold the same locks
    /// they would for the per-entry path: the parent's mm write lock
    /// during Classic fork, and — for the fault-time copy of a shared page
    /// table — only the faulting process's mm lock *shared* plus the
    /// shared table's split lock. That is still sound: the heads come from
    /// a table other processes share, whose entries no sharer changes
    /// (reclaim and THP skip shared tables), so each head is held by that
    /// table's own reference for the whole pass and cannot be freed or
    /// split under it; the increments land before the copy is published.
    pub fn ref_inc_many(&self, heads: &[FrameId]) {
        if heads.is_empty() {
            return;
        }
        self.stats.page_ref_incs.add(heads.len() as u64);
        let mut i = 0;
        while i < heads.len() {
            let head = heads[i];
            let mut n = 1;
            while i + n < heads.len() && heads[i + n] == head {
                n += 1;
            }
            self.meta[head.index()].ref_add(n as u32);
            i += n;
        }
    }

    /// Batched [`FramePool::compound_head`]: resolves every frame in the
    /// slice to its compound head in place, with a single stats update for
    /// the whole slice. Each entry still performs the real per-frame
    /// metadata load (the Figure 3 cache-miss cost is physical, not
    /// bookkeeping); only the counter traffic is amortized.
    pub fn compound_heads(&self, frames: &mut [FrameId]) {
        if frames.is_empty() {
            return;
        }
        self.stats.compound_head_lookups.add(frames.len() as u64);
        for f in frames.iter_mut() {
            let page = &self.meta[f.index()];
            if page.is_compound_tail() {
                *f = FrameId(page.compound_head_index());
            }
        }
    }

    /// Takes a reference on a frame only if it is still live (reference
    /// count non-zero) — the `get_page_unless_zero` step of a lock-free
    /// page pin (GUP-fast). Returns whether the reference was taken.
    ///
    /// Callers pass the compound head and must revalidate afterwards that
    /// the mapping they resolved the frame through still exists: a `true`
    /// return alone only guarantees the block will not be freed (or
    /// recycled) until the matching [`FramePool::ref_dec`].
    pub fn try_ref_inc(&self, frame: FrameId) -> bool {
        let taken = self.meta[frame.index()].try_ref_inc();
        if taken {
            self.stats.page_ref_incs.bump();
        }
        taken
    }

    /// Adds `n` references to a frame in one atomic add (the batched
    /// `page_ref_add`). Used when one holder fans out into many — e.g. a
    /// huge-page demotion that could not split the compound turns the
    /// single PMD reference into 512 per-PTE references on the same head.
    pub fn ref_add(&self, frame: FrameId, n: u32) {
        if n == 0 {
            return;
        }
        self.stats.page_ref_incs.add(u64::from(n));
        self.meta[frame.index()].ref_add(n);
    }

    /// Freezes a sole-owner page: atomically takes its reference count
    /// from exactly 1 to 0, so no lock-free pin ([`FramePool::try_ref_inc`]
    /// fails on 0) can land while the caller rewrites compound metadata —
    /// the `page_ref_freeze` of the kernel's THP split. Returns whether
    /// the freeze won; on `false` the caller saw a concurrent reference
    /// (GUP pin, COW share) and must fall back to a non-destructive path.
    pub fn try_freeze(&self, frame: FrameId) -> bool {
        self.meta[frame.index()].try_freeze()
    }

    /// Splits a frozen compound page into independent order-0 frames — the
    /// THP-demotion analog of `__split_huge_page`. Each constituent frame
    /// keeps the data-bearing flags it had as part of the compound (kind,
    /// dirty, materialization) but loses its head/tail mark and gets its
    /// own reference count of 1, matching the 512 PTEs the demotion is
    /// about to install. Returns the compound's order.
    ///
    /// The caller must have won [`FramePool::try_freeze`] on the head:
    /// with the count at zero no pin can land mid-split, so the metadata
    /// rewrite needs no lock.
    ///
    /// # Panics
    ///
    /// Panics if `head` is not a frozen (refcount-zero) compound head.
    pub fn split_frozen_compound(&self, head: FrameId) -> u8 {
        let hp = &self.meta[head.index()];
        assert!(hp.is_compound_head(), "split of a non-compound frame");
        assert_eq!(hp.ref_count(), 0, "split of an unfrozen compound");
        let order = hp.order();
        let keep = PageFlags::ANON | PageFlags::FILE | PageFlags::DIRTY | PageFlags::HAS_DATA;
        for i in 0..(1usize << order) {
            let flags = self.meta[head.index() + i].flags() & keep;
            self.meta[head.index() + i].set_allocated(flags, 0);
        }
        self.stats.compound_splits.bump();
        order
    }

    /// Decrements a frame's reference count, freeing the block when it
    /// reaches zero. Returns `true` if the block was freed.
    pub fn ref_dec(&self, frame: FrameId) -> bool {
        self.stats.page_ref_decs.bump();
        let page = &self.meta[frame.index()];
        debug_assert!(
            !page.is_compound_tail(),
            "refcount operations must target the compound head"
        );
        if page.ref_dec() == 0 {
            self.release(frame);
            true
        } else {
            false
        }
    }

    /// Current reference count of a frame.
    pub fn ref_count(&self, frame: FrameId) -> u32 {
        self.meta[frame.index()].ref_count()
    }

    /// Increments the shared-page-table counter of a page-table frame.
    pub fn pt_share_inc(&self, frame: FrameId) {
        debug_assert_eq!(self.meta[frame.index()].kind(), PageKind::PageTable);
        self.stats.pt_share_incs.bump();
        self.meta[frame.index()].pt_share_inc();
    }

    /// Batched [`FramePool::pt_share_inc`]: raises the shared-page-table
    /// counter of every page-table frame in `tables` by one, with a single
    /// stats update for the slice. A fork shares hundreds of tables whose
    /// `struct Page` lines are cold; a locked `fetch_add` on each in turn
    /// lets no later miss start until it retires, so the misses serialize.
    /// One tight pass of plain loads first lets them overlap, and the
    /// increments then hit warm lines. Keep the slice small enough (a few
    /// hundred frames) that its lines stay cached between the two passes.
    pub fn pt_share_inc_many(&self, tables: &[FrameId]) {
        if tables.is_empty() {
            return;
        }
        let mut warm = 0u32;
        for t in tables {
            let page = &self.meta[t.index()];
            debug_assert_eq!(page.kind(), PageKind::PageTable);
            warm = warm.wrapping_add(page.pt_share_count());
        }
        std::hint::black_box(warm);
        self.stats.pt_share_incs.add(tables.len() as u64);
        for t in tables {
            self.meta[t.index()].pt_share_inc();
        }
    }

    /// Decrements the shared-page-table counter, returning the new value.
    pub fn pt_share_dec(&self, frame: FrameId) -> u32 {
        debug_assert_eq!(self.meta[frame.index()].kind(), PageKind::PageTable);
        self.stats.pt_share_decs.bump();
        self.meta[frame.index()].pt_share_dec()
    }

    /// Current shared-page-table counter of a page-table frame.
    pub fn pt_share_count(&self, frame: FrameId) -> u32 {
        self.meta[frame.index()].pt_share_count()
    }

    /// Returns the block to the free tier and drops its data. The
    /// migratetype is read before the teardown clears the flags, so a
    /// freed table goes back to the table lane.
    fn release(&self, head: FrameId) {
        let mt = Self::migrate_type(self.meta[head.index()].flags());
        let order = self.release_prepare(head);
        self.free_block(head, order, mt);
    }

    /// Tears down a zero-refcount block's identity — metadata to the free
    /// state, data buffers dropped, per-frame `FrameFree` provenance
    /// emitted, `frees` counted — *without* returning it to an allocator
    /// tier yet. Split out so [`crate::FreeBatch`] can defer the tier
    /// return and amortize one buddy lock over a whole unmap sweep.
    /// Returns the block's order; the caller owes a matching
    /// [`FramePool::free_block`]-equivalent hand-back.
    pub(crate) fn release_prepare(&self, head: FrameId) -> u8 {
        let order = self.meta[head.index()].order();
        let n = 1usize << order;
        // A compound must leave through its head and as one whole block —
        // never sub-frame by sub-frame into the order-0 lane, which would
        // strand its tails as permanently allocated metadata and corrupt
        // buddy merging. Freeing through the head with the order read from
        // its metadata guarantees that structurally; these asserts pin the
        // head/tail invariants it depends on.
        debug_assert!(
            !self.meta[head.index()].is_compound_tail(),
            "compound {head:?} freed through a tail frame"
        );
        debug_assert!(
            order == 0 || self.meta[head.index()].is_compound_head(),
            "block {head:?} has order {order} but no compound-head mark"
        );
        for i in 0..n {
            let page = &self.meta[head.index() + i];
            debug_assert!(
                i == 0 || (page.is_compound_tail() && page.compound_head_index() == head.0),
                "compound {head:?} tail {i} inconsistent at free \
                 (flags {:#x}, head link {})",
                page.flags(),
                page.compound_head_index(),
            );
            // Only frames that were actually written own a buffer; the
            // HAS_DATA flag (set under the data lock at materialization)
            // lets clean frames skip the per-frame data lock here.
            if page.flags() & PageFlags::HAS_DATA != 0 {
                let buf = self.data[head.index() + i].write().take();
                let mut spare = self.spare.lock();
                if let Some(buf) = buf.filter(|_| spare.len() < SPARE_BUFFERS) {
                    spare.push_back(buf);
                }
            }
            page.set_free();
        }
        let free = Hit::new(Point::FrameFree, &[head.index() as u64, order.into()]);
        odf_trace::emit_counted(&self.stats.frees, free);
        order
    }

    /// Hands a torn-down block back to the free tier: the calling thread's
    /// magazine lane for cached orders, the buddy otherwise.
    fn free_block(&self, head: FrameId, order: u8, mt: MigrateType) {
        match &self.pcp {
            Some(pcp) if PcpCache::caches(order) => {
                pcp.free(&self.buddy, head, order, mt, &self.stats)
            }
            _ => self.buddy.lock().free(head, order),
        }
    }

    /// Returns a batch of torn-down blocks (from [`FreeBatch`] flushes) to
    /// the buddy in one lock acquisition.
    pub(crate) fn free_blocks_bulk(&self, blocks: &[(FrameId, u8)]) {
        if blocks.is_empty() {
            return;
        }
        self.buddy.lock().free_bulk(blocks);
    }

    /// Crate-internal stats handle (for [`crate::FreeBatch`], which lives
    /// in a sibling module and batches its counter updates at flush time).
    pub(crate) fn stats_ref(&self) -> &PoolStats {
        &self.stats
    }

    /// Reference-count decrement with *deferred* free: drops one reference
    /// and, when the block dies, tears its identity down immediately
    /// (metadata, data, provenance) but does **not** hand it back to an
    /// allocator tier — the caller collects `(head, order)` and returns the
    /// batch via [`FramePool::free_blocks_bulk`]. The stats bump for the
    /// decrement is also left to the caller so a 512-entry sweep is one
    /// counter add. Used only by [`crate::FreeBatch`].
    pub(crate) fn ref_dec_deferred(&self, head: FrameId) -> Option<u8> {
        let page = &self.meta[head.index()];
        debug_assert!(
            !page.is_compound_tail(),
            "refcount operations must target the compound head"
        );
        if page.ref_dec() == 0 {
            Some(self.release_prepare(head))
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    /// Hands `f` the `len` bytes of one frame at `offset`, borrowed under
    /// the frame's data lock, and returns what `f` returns.
    ///
    /// Unmaterialized frames read as the zero page. `f` runs with the data
    /// lock held, so it must not write to this frame.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds the frame size.
    pub fn view_frame<R>(
        &self,
        frame: FrameId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        assert!(offset + len <= PAGE_SIZE, "read crosses frame end");
        let slot = self.data[frame.index()].read();
        let page: &[u8; PAGE_SIZE] = slot.as_deref().unwrap_or(&ZERO_PAGE);
        f(&page[offset..offset + len])
    }

    /// Reads bytes from one frame into `out`: a copy through
    /// [`FramePool::view_frame`].
    ///
    /// # Panics
    ///
    /// Panics if `offset + out.len()` exceeds the frame size.
    pub fn read_frame(&self, frame: FrameId, offset: usize, out: &mut [u8]) {
        self.view_frame(frame, offset, out.len(), |bytes| out.copy_from_slice(bytes));
    }

    /// Writes bytes into one frame, materializing its buffer on first use.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len()` exceeds the frame size.
    pub fn write_frame(&self, frame: FrameId, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= PAGE_SIZE, "write crosses frame end");
        let mut slot = self.data[frame.index()].write();
        if slot.is_none() {
            *slot = Some(self.materialize(frame, true));
        }
        let buf = slot.as_deref_mut().expect("just materialized");
        buf[offset..offset + src.len()].copy_from_slice(src);
    }

    /// A data buffer for `frame`, which has none: a spare one if the pool
    /// holds any, else a fresh one. Zeroed when `zeroed`; otherwise the
    /// caller overwrites all of it.
    fn materialize(&self, frame: FrameId, zeroed: bool) -> Box<[u8; PAGE_SIZE]> {
        self.stats.materializations.bump();
        self.meta[frame.index()].set_flags(PageFlags::HAS_DATA);
        let spare = self.spare.lock().pop_front();
        match spare {
            Some(mut buf) => {
                if zeroed {
                    buf.fill(0);
                }
                buf
            }
            None => Box::new([0; PAGE_SIZE]),
        }
    }

    /// Whether the frame's data buffer has been materialized.
    pub fn is_materialized(&self, frame: FrameId) -> bool {
        self.data[frame.index()].read().is_some()
    }

    /// Copies the full contents of a block of `2^order` frames.
    ///
    /// This is the COW data copy: like the kernel's `copy_user_huge_page` /
    /// `cow_user_page`, it always moves the full `2^order * 4 KiB`, so the
    /// measured cost of a huge-page COW fault is genuinely ~512x the 4 KiB
    /// case (Table 1 of the paper). Unmaterialized source sub-frames are
    /// copied from the zero page; the destination is fully materialized.
    pub fn copy_block(&self, src: FrameId, dst: FrameId, order: u8) {
        let n = 1usize << order;
        for i in 0..n {
            let src_slot = self.data[src.index() + i].read();
            let src_buf: &[u8; PAGE_SIZE] = match src_slot.as_deref() {
                Some(buf) => buf,
                None => &ZERO_PAGE,
            };
            let mut dst_slot = self.data[dst.index() + i].write();
            if dst_slot.is_none() {
                *dst_slot = Some(self.materialize(FrameId(dst.0 + i as u32), false));
            }
            let dst_buf = dst_slot.as_deref_mut().expect("just materialized");
            dst_buf.copy_from_slice(src_buf);
        }
        self.stats.bytes_copied.add((n * PAGE_SIZE) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_page_sets_metadata() {
        let pool = FramePool::new(64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(pool.page(f).kind(), PageKind::Anon);
        assert_eq!(pool.ref_count(f), 1);
        assert_eq!(pool.free_frames(), 63);
    }

    #[test]
    fn ref_dec_to_zero_frees_the_frame() {
        let pool = FramePool::new(64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        pool.ref_inc(f);
        assert!(!pool.ref_dec(f));
        assert!(pool.ref_dec(f));
        assert_eq!(pool.page(f).kind(), PageKind::Free);
        assert_eq!(pool.free_frames(), 64);
    }

    #[test]
    fn try_ref_inc_pins_live_frames_and_refuses_dead_ones() {
        let pool = FramePool::new(64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        assert!(pool.try_ref_inc(f));
        assert_eq!(pool.ref_count(f), 2);
        // The pin keeps the frame alive past the owner's release...
        assert!(!pool.ref_dec(f));
        assert!(pool.ref_dec(f));
        // ...and a dead frame is never revived by a racing pin.
        assert!(!pool.try_ref_inc(f));
        assert_eq!(pool.ref_count(f), 0);
        assert_eq!(pool.free_frames(), 64);
    }

    #[test]
    fn huge_page_marks_head_and_tails() {
        let pool = FramePool::new(2048);
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        assert!(pool.page(h).is_compound_head());
        assert_eq!(pool.page(h).order(), HUGE_ORDER);
        for i in 1..512usize {
            let t = h.offset(i);
            assert!(pool.page(t).is_compound_tail());
            assert_eq!(pool.compound_head(t), h);
        }
        assert_eq!(pool.compound_head(h), h);
    }

    #[test]
    fn freeing_huge_page_releases_all_frames() {
        let pool = FramePool::new(1024);
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        assert_eq!(pool.free_frames(), 512);
        pool.write_frame(h.offset(3), 0, &[1, 2, 3]);
        assert!(pool.ref_dec(h));
        assert_eq!(pool.free_frames(), 1024);
        assert!(!pool.is_materialized(h.offset(3)));
    }

    #[test]
    fn page_table_frames_start_with_share_count_one() {
        let pool = FramePool::new(16);
        let t = pool.alloc_page_table().unwrap();
        assert_eq!(pool.page(t).kind(), PageKind::PageTable);
        assert_eq!(pool.pt_share_count(t), 1);
        pool.pt_share_inc(t);
        assert_eq!(pool.pt_share_count(t), 2);
        assert_eq!(pool.pt_share_dec(t), 1);
    }

    #[test]
    fn pt_share_inc_many_raises_each_count_once() {
        let pool = FramePool::new(16);
        let tables: Vec<FrameId> = (0..3).map(|_| pool.alloc_page_table().unwrap()).collect();
        pool.pt_share_inc(tables[1]);
        let before = pool.stats().snapshot();
        pool.pt_share_inc_many(&tables);
        pool.pt_share_inc_many(&[]);
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.pt_share_incs, 3);
        let counts: Vec<u32> = tables.iter().map(|&t| pool.pt_share_count(t)).collect();
        assert_eq!(counts, [2, 3, 2]);
    }

    #[test]
    fn balance_round_trips_and_detects_leaks() {
        let pool = FramePool::new(64);
        let baseline = pool.balance();
        assert_eq!(baseline.total_frames, 64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(pool.balance().free_frames, baseline.free_frames - 1);
        assert!(pool.ref_dec(f));
        assert_pool_balanced(&pool, baseline);
    }

    #[test]
    #[should_panic(expected = "frame leak: 1 frames")]
    fn unbalanced_pool_panics_with_leak_diagnostic() {
        let pool = FramePool::new(64);
        let baseline = pool.balance();
        let _leaked = pool.alloc_page(PageKind::Anon).unwrap();
        assert_pool_balanced(&pool, baseline);
    }

    #[test]
    #[should_panic(expected = "frame leak: 1 frames")]
    fn imbalance_dump_walks_the_leaked_frames_trace_history() {
        // With tracing on and the kmem class unmasked, the failure path
        // prints each still-allocated frame's event history (alloc/COW/
        // free) before panicking.
        odf_trace::set_enabled(true);
        odf_trace::set_class_enabled(odf_trace::EventClass::Kmem, true);
        let pool = FramePool::new(64);
        let baseline = pool.balance();
        let _leaked = pool.alloc_page(PageKind::Anon).unwrap();
        assert_pool_balanced(&pool, baseline);
    }

    #[test]
    fn unmaterialized_frames_read_zero() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        let mut buf = [0xAAu8; 32];
        pool.read_frame(f, 100, &mut buf);
        assert_eq!(buf, [0u8; 32]);
        assert!(!pool.is_materialized(f));
    }

    #[test]
    fn write_then_read_round_trips() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        pool.write_frame(f, 4000, b"hello");
        let mut buf = [0u8; 5];
        pool.read_frame(f, 4000, &mut buf);
        assert_eq!(&buf, b"hello");
        assert!(pool.is_materialized(f));
    }

    #[test]
    fn a_freed_frames_buffer_is_reused_and_reads_zero_again() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        pool.write_frame(f, 0, &[0xEE; PAGE_SIZE]);
        assert!(pool.ref_dec(f));
        assert!(!pool.is_materialized(f), "a free frame holds no data");
        assert_eq!(pool.spare.lock().len(), 1);

        // A partial write gets the spare buffer, zeroed around the write.
        let g = pool.alloc_page(PageKind::Anon).unwrap();
        pool.write_frame(g, 100, b"x");
        assert!(pool.spare.lock().is_empty(), "the buffer was reused");
        let expect = |at: usize| if at == 100 { b'x' } else { 0 };
        pool.view_frame(g, 0, PAGE_SIZE, |b| {
            assert!(b.iter().enumerate().all(|(at, &x)| x == expect(at)))
        });

        // A block copy overwrites a reused buffer whole.
        let h = pool.alloc_page(PageKind::Anon).unwrap();
        pool.write_frame(h, 0, &[0x11; PAGE_SIZE]);
        assert!(pool.ref_dec(h));
        let dst = pool.alloc_page(PageKind::Anon).unwrap();
        pool.copy_block(g, dst, 0);
        pool.view_frame(dst, 0, PAGE_SIZE, |b| {
            assert!(b.iter().enumerate().all(|(at, &x)| x == expect(at)))
        });
    }

    #[test]
    fn views_borrow_the_frame_or_the_zero_page() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        assert!(pool.view_frame(f, 0, PAGE_SIZE, |b| b.iter().all(|&x| x == 0)));
        assert!(!pool.is_materialized(f), "a view never materializes");
        pool.write_frame(f, PAGE_SIZE - 3, b"end");
        assert_eq!(pool.view_frame(f, PAGE_SIZE - 3, 3, <[u8]>::to_vec), b"end");
        assert_eq!(pool.view_frame(f, PAGE_SIZE, 0, |b| b.len()), 0);
    }

    #[test]
    fn copy_block_copies_data_and_zeros() {
        let pool = FramePool::new(64);
        let a = pool.alloc_page(PageKind::Anon).unwrap();
        let b = pool.alloc_page(PageKind::Anon).unwrap();
        pool.write_frame(a, 10, b"xyz");
        pool.copy_block(a, b, 0);
        let mut buf = [0u8; 3];
        pool.read_frame(b, 10, &mut buf);
        assert_eq!(&buf, b"xyz");
        // Copying an unmaterialized source still materializes (zero) dest.
        let c = pool.alloc_page(PageKind::Anon).unwrap();
        let d = pool.alloc_page(PageKind::Anon).unwrap();
        pool.copy_block(c, d, 0);
        assert!(pool.is_materialized(d));
    }

    #[test]
    fn copy_block_counts_full_huge_page_bytes() {
        let pool = FramePool::new(2048);
        let a = pool.alloc_huge(PageKind::Anon).unwrap();
        let b = pool.alloc_huge(PageKind::Anon).unwrap();
        let before = pool.stats().snapshot();
        pool.copy_block(a, b, HUGE_ORDER);
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.bytes_copied, 2 * 1024 * 1024);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let pool = FramePool::new(4);
        for _ in 0..4 {
            pool.alloc_page(PageKind::Anon).unwrap();
        }
        let before = pool.stats().snapshot();
        let err = pool.alloc_page(PageKind::Anon).unwrap_err();
        // The error carries the watermark state observed at failure time,
        // and the failure is counted.
        assert_eq!(
            err,
            PmemError::OutOfFrames {
                order: 0,
                free_frames: 0,
                low_watermark: pool.watermarks().low as u64,
            }
        );
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.alloc_failures, 1);
    }

    #[test]
    fn watermarks_scale_with_pool_size_and_stay_sane_when_tiny() {
        let big = FramePool::new(65536);
        let w = big.watermarks();
        assert_eq!(w.low, 65536 / 32);
        assert_eq!(w.high, 2 * w.low);
        assert!(!big.below_low_watermark());
        let tiny = FramePool::new(4);
        let w = tiny.watermarks();
        assert!(w.low >= 1 && w.low <= 4);
        assert!(w.high >= w.low);
        for _ in 0..4 {
            tiny.alloc_page(PageKind::Anon).unwrap();
        }
        assert!(tiny.below_low_watermark());
    }

    #[test]
    fn stats_count_hot_spots() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        let before = pool.stats().snapshot();
        pool.compound_head(f);
        pool.ref_inc(f);
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.compound_head_lookups, 1);
        assert_eq!(delta.page_ref_incs, 1);
    }

    #[test]
    fn free_frames_counts_magazine_residue() {
        // After a tiered alloc, part of the refill batch is parked in the
        // calling thread's magazine. The lock-free gauge must count those
        // parked frames as free (they are — just placed differently), and
        // balance() must drain them so buddy-free equals pool-free.
        let pool = FramePool::new(256);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(pool.free_frames(), 255);
        assert!(pool.ref_dec(f));
        assert_eq!(pool.free_frames(), 256);
        let b = pool.balance();
        assert_eq!(b.free_frames, 256);
        assert_eq!(pool.free_frames(), 256);
    }

    #[test]
    fn watermark_check_agrees_with_free_frames_whatever_the_lanes_hold() {
        // Fill the pool a data page, a table and a huge page at a time,
        // then free it all, so every lane holds residue at some point; the
        // buddy-first check must answer as the full sum does throughout.
        let pool = FramePool::new(4096);
        let low = pool.watermarks().low;
        let mut residue_decided = 0;
        let mut check = |pool: &FramePool| {
            let free = pool.free_frames();
            assert_eq!(
                pool.below_low_watermark(),
                free < low,
                "{free} free, low {low}"
            );
            if pool.buddy.lock().free_frames() < low && free >= low {
                residue_decided += 1;
            }
        };
        let mut live = Vec::new();
        loop {
            let got = [
                pool.alloc_page(PageKind::Anon),
                pool.alloc_page_table(),
                pool.alloc_huge(PageKind::Anon),
            ];
            let before = live.len();
            live.extend(got.into_iter().flatten());
            check(&pool);
            if live.len() == before {
                break;
            }
        }
        assert_eq!(pool.free_frames(), 0);
        while let Some(f) = live.pop() {
            assert!(pool.ref_dec(f));
            check(&pool);
        }
        assert!(
            residue_decided > 0,
            "magazine residue never decided the check"
        );
    }

    #[test]
    fn a_freed_table_is_reused_as_a_table_not_as_data() {
        let pool = FramePool::new(2048);
        let t = pool.alloc_page_table().unwrap();
        assert!(pool.ref_dec(t));
        let d = pool.alloc_page(PageKind::Anon).unwrap();
        assert_ne!(d, t, "a freed table went to the data lane");
        assert_eq!(pool.alloc_page_table().unwrap(), t);
    }

    #[test]
    fn flat_pool_matches_tiered_observables() {
        for pool in [FramePool::new(128), FramePool::new_flat(128)] {
            let f = pool.alloc_page(PageKind::Anon).unwrap();
            let h = pool.alloc_page_table().unwrap();
            assert_eq!(pool.free_frames(), 126);
            assert_eq!(pool.page(f).kind(), PageKind::Anon);
            assert_eq!(pool.pt_share_count(h), 1);
            pool.write_frame(f, 0, b"abc");
            assert!(pool.ref_dec(f));
            assert!(pool.ref_dec(h));
            assert_eq!(pool.balance().free_frames, 128);
            // Freed data never leaks into the next allocation.
            let g = pool.alloc_page(PageKind::Anon).unwrap();
            let mut buf = [0xFFu8; 3];
            pool.read_frame(g, 0, &mut buf);
            assert_eq!(buf, [0, 0, 0]);
        }
    }

    #[test]
    fn ref_inc_many_groups_runs_per_compound_head() {
        let pool = FramePool::new(2048);
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        let p = pool.alloc_page(PageKind::Anon).unwrap();
        // A PTE sweep over a huge region: 512 tail frames resolve to one
        // head, then a lone small page.
        let mut frames: Vec<FrameId> = (0..512).map(|i| h.offset(i)).collect();
        frames.push(p);
        let before = pool.stats().snapshot();
        pool.compound_heads(&mut frames);
        assert!(frames[..512].iter().all(|&f| f == h));
        pool.ref_inc_many(&frames);
        let delta = pool.stats().snapshot() - before;
        // One bulk stats update each, covering all 513 entries.
        assert_eq!(delta.compound_head_lookups, 513);
        assert_eq!(delta.page_ref_incs, 513);
        assert_eq!(pool.ref_count(h), 513);
        assert_eq!(pool.ref_count(p), 2);
        for _ in 0..512 {
            pool.ref_dec(h);
        }
        pool.ref_dec(p);
        assert_eq!(pool.ref_count(h), 1);
    }

    #[test]
    fn tiered_exhaustion_reclaims_parked_frames_first() {
        // 512 frames, all churned through a magazine; a huge-page request
        // must succeed by draining the magazines (merging the order-0
        // residue), not fail while free memory sits parked.
        let pool = FramePool::new(512);
        let frames: Vec<FrameId> = (0..16)
            .map(|_| pool.alloc_page(PageKind::Anon).unwrap())
            .collect();
        for f in frames {
            assert!(pool.ref_dec(f));
        }
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        assert_eq!(pool.free_frames(), 0);
        assert!(matches!(
            pool.alloc_page(PageKind::Anon),
            Err(PmemError::OutOfFrames {
                order: 0,
                free_frames: 0,
                ..
            })
        ));
        assert!(pool.ref_dec(h));
        assert_eq!(pool.balance().free_frames, 512);
    }

    #[test]
    fn compaction_assembles_huge_block_from_magazine_residue() {
        // Churn order-0 allocations so free frames sit parked in a
        // magazine, fragmenting the buddy's view. The compact path must
        // drain and merge them into an order-9 block instead of failing.
        let pool = FramePool::new(512);
        let frames: Vec<FrameId> = (0..16)
            .map(|_| pool.alloc_page(PageKind::Anon).unwrap())
            .collect();
        for f in frames {
            assert!(pool.ref_dec(f));
        }
        let before = pool.stats().snapshot();
        let h = pool.alloc_huge_compact(PageKind::Anon).unwrap();
        assert_eq!(h.0 % 512, 0);
        assert!(pool.ref_dec(h));
        assert_eq!(pool.balance().free_frames, 512);
        let delta = pool.stats().snapshot() - before;
        assert!(delta.compact_scans <= 1);
        assert_eq!(delta.compact_failures, 0);
    }

    #[test]
    fn compaction_failure_is_typed_and_counted() {
        // Pin one unmovable frame inside each 512-frame pageblock so no
        // order-9 block can ever be assembled, then ask for one: the
        // failure must be CompactionFailed (fragmented), not OutOfFrames
        // (empty), and free memory must indeed be plentiful.
        let pool = FramePool::new_flat(1024);
        let mut pins = Vec::new();
        let mut scattered = Vec::new();
        // Allocate everything, then free all but one frame per pageblock.
        for _ in 0..1024 {
            scattered.push(pool.alloc_page_table().unwrap());
        }
        for (i, f) in scattered.iter().enumerate() {
            if f.0 == 0 || f.0 == 512 {
                pins.push(*f);
            } else {
                assert!(pool.ref_dec(scattered[i]));
            }
        }
        assert_eq!(pins.len(), 2);
        let before = pool.stats().snapshot();
        let err = pool.alloc_huge_compact(PageKind::Anon).unwrap_err();
        assert_eq!(
            err,
            PmemError::CompactionFailed {
                order: HUGE_ORDER,
                free_frames: 1022,
            }
        );
        let delta = pool.stats().snapshot() - before;
        assert_eq!(delta.compact_scans, 1);
        assert_eq!(delta.compact_failures, 1);
        assert!(pool.external_fragmentation(HUGE_ORDER) > 0.9);
        for f in pins {
            assert!(pool.ref_dec(f));
        }
        assert_eq!(pool.balance().free_frames, 1024);
    }

    #[test]
    fn fragmentation_index_tracks_per_order_counts() {
        let pool = FramePool::new_flat(1024);
        // Pristine pool: all free memory is huge-reachable.
        assert_eq!(pool.external_fragmentation(HUGE_ORDER), 0.0);
        let counts = pool.free_blocks_per_order();
        assert_eq!(counts.iter().sum::<u64>(), 1);
        assert_eq!(counts[usize::from(MAX_ORDER)], 1);
        // One order-0 bite splits a chain of halves off the big block.
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        let frag = pool.external_fragmentation(HUGE_ORDER);
        assert!(frag > 0.0 && frag < 1.0, "frag index {frag} out of range");
        let counts = pool.free_blocks_per_order();
        assert_eq!(counts[0], 1);
        assert!(pool.ref_dec(f));
        assert_eq!(pool.external_fragmentation(HUGE_ORDER), 0.0);
        // Fully allocated: zero free is defined as zero fragmentation.
        let all: Vec<FrameId> = (0..1024)
            .map(|_| pool.alloc_page(PageKind::Anon).unwrap())
            .collect();
        assert_eq!(pool.external_fragmentation(HUGE_ORDER), 0.0);
        for f in all {
            pool.ref_dec(f);
        }
    }

    #[test]
    fn unmovable_tables_and_movable_data_segregate_pageblocks() {
        let pool = FramePool::new_flat(2048);
        let t = pool.alloc_page_table().unwrap();
        let d = pool.alloc_page(PageKind::Anon).unwrap();
        // With 4 pristine pageblocks there is room to honour both types:
        // the table and the data page must land in different pageblocks.
        // The table's bootstrap fallback (everything starts movable) steals
        // a whole pageblock for the unmovable type rather than lodging the
        // table inside a movable one.
        assert_ne!(t.0 / 512, d.0 / 512, "migratetypes not segregated");
        assert_eq!(pool.mt_fallbacks(), 1);
        assert_eq!(pool.mt_steals(), 1);
        assert!(pool.ref_dec(t));
        assert!(pool.ref_dec(d));
    }

    #[test]
    fn split_frozen_compound_yields_independent_frames() {
        let pool = FramePool::new(1024);
        let baseline = pool.balance();
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        pool.write_frame(h.offset(7), 0, b"tail-data");
        assert!(pool.try_freeze(h));
        let order = pool.split_frozen_compound(h);
        assert_eq!(order, HUGE_ORDER);
        // Every former tail is now its own order-0 anon frame, refcount 1,
        // data preserved.
        for i in 0..512usize {
            let f = h.offset(i);
            assert!(!pool.page(f).is_compound_tail());
            assert!(!pool.page(f).is_compound_head());
            assert_eq!(pool.page(f).kind(), PageKind::Anon);
            assert_eq!(pool.ref_count(f), 1);
            assert_eq!(pool.compound_head(f), f);
        }
        let mut buf = [0u8; 9];
        pool.read_frame(h.offset(7), 0, &mut buf);
        assert_eq!(&buf, b"tail-data");
        // Freeing them one by one returns every frame: no leak, no
        // over-free, and the buddy merges the block back together.
        for i in 0..512usize {
            assert!(pool.ref_dec(h.offset(i)));
        }
        assert_pool_balanced(&pool, baseline);
        assert_eq!(pool.stats().snapshot().compound_splits, 1);
    }

    #[test]
    fn freeze_fails_on_shared_compound() {
        let pool = FramePool::new(1024);
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        pool.ref_inc(h); // a second mapping (COW share)
        assert!(!pool.try_freeze(h));
        // The fallback: fan the sharer's single reference out per-PTE.
        pool.ref_add(h, 511);
        assert_eq!(pool.ref_count(h), 513);
        for _ in 0..513 {
            pool.ref_dec(h);
        }
        assert_eq!(pool.balance().free_frames, 1024);
    }

    #[test]
    fn concurrent_refcounting_is_consistent() {
        let pool = FramePool::new(16);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        pool.ref_inc(f);
                    }
                    for _ in 0..1000 {
                        pool.ref_dec(f);
                    }
                });
            }
        });
        assert_eq!(pool.ref_count(f), 1);
    }
}
