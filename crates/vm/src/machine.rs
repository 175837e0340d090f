//! The simulated machine: shared physical memory, table slots, and stats.

use std::sync::{Arc, Weak};

use odf_pagetable::{Table, TableSlots};
use odf_pmem::{FrameId, FramePool, PageKind, SwapMap};
use parking_lot::{Mutex, MutexGuard};

use crate::error::Result;
use crate::file::VmFile;
use crate::mm::Mm;
use crate::stats::VmStats;

/// Number of split-lock stripes.
const SPLIT_LOCK_STRIPES: usize = 256;

/// Upper bound on frames evicted by one direct-reclaim pass. Direct
/// reclaim runs synchronously inside a failed allocation, so it evicts
/// just enough to let the allocation (and a short burst after it)
/// succeed; restoring the watermarks is the background daemon's job.
const DIRECT_RECLAIM_BATCH: usize = 32;

/// The shared state of one simulated machine.
///
/// Every process ([`Mm`](crate::Mm)) of the same machine shares the frame
/// pool, the page-table slots (required for cross-process table sharing),
/// the VM statistics, and the PMD lock stripes that model the kernel's
/// split page-table locks.
pub struct Machine {
    pool: Arc<FramePool>,
    tables: TableSlots,
    stats: VmStats,
    /// Striped locks standing in for the kernel's split page-table
    /// spinlocks (per-PMD `page->ptl`).
    ///
    /// The concurrent fault path holds the owning `mm` lock only *shared*,
    /// so every structural page-table transition — installing a table into
    /// an empty slot, COWing a shared table, restoring sole ownership,
    /// installing or COWing a huge entry — serializes on the stripe keyed
    /// by the frame of the table being transitioned, and revalidates the
    /// walk after acquiring it.
    ///
    /// Lock order: `mm` lock (shared or exclusive) → at most **one**
    /// split-lock stripe. Stripes are keyed by frame index modulo the
    /// stripe count, so two distinct frames may share a stripe — nesting
    /// stripes would deadlock and is never done.
    pmd_locks: Vec<Mutex<()>>,
    /// Files registered for reclaim under memory pressure.
    files: Mutex<Vec<Weak<VmFile>>>,
    /// The swap tier: evicted anonymous pages live here until a swap-in
    /// fault brings them back.
    swap: Arc<SwapMap>,
    /// Address spaces registered for anonymous-page eviction (the LRU
    /// list analog). Weak: registration must not keep a dead process's
    /// address space alive.
    mms: Mutex<Vec<Weak<Mm>>>,
}

impl Machine {
    /// Creates a machine with `bytes` of simulated physical memory and a
    /// compressed in-memory swap tier (the zswap analog).
    pub fn new(bytes: u64) -> Arc<Self> {
        let pool = FramePool::with_bytes(bytes);
        Arc::new(Self {
            tables: TableSlots::new(pool.total_frames()),
            pool,
            stats: VmStats::default(),
            pmd_locks: (0..SPLIT_LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            files: Mutex::new(Vec::new()),
            swap: Arc::default(),
            mms: Mutex::new(Vec::new()),
        })
    }

    /// The physical frame pool.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// The table in `frame`, for a walker whose locks keep it alive: the
    /// mm lock, exclusive or (for this process's own unshared tables)
    /// shared, or the split lock under which the entry naming it was
    /// revalidated. A lockless walker goes through `walk::Reach` instead.
    ///
    /// # Panics
    ///
    /// Panics if `frame` never held a table.
    pub fn table(&self, frame: FrameId) -> &Table {
        self.tables.get(frame)
    }

    /// The table slots, for the lockless walkers' validation in `walk.rs`.
    pub(crate) fn slots(&self) -> &TableSlots {
        &self.tables
    }

    /// Number of live page tables, over every process (for leak checks).
    pub fn live_tables(&self) -> usize {
        self.tables.live()
    }

    /// Virtual-memory operation counters.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// The swap tier holding evicted anonymous pages.
    pub fn swap(&self) -> &Arc<SwapMap> {
        &self.swap
    }

    /// Registers a file so reclaim can drop its clean pages under memory
    /// pressure.
    pub fn register_file(&self, file: &Arc<VmFile>) {
        self.files.lock().push(Arc::downgrade(file));
    }

    /// Registers an address space as an eviction target: reclaim (direct
    /// and the background daemon) scans registered spaces for anonymous
    /// pages to push to swap. Unregistered spaces are never evicted from.
    pub fn register_mm(&self, mm: &Arc<Mm>) {
        let mut mms = self.mms.lock();
        mms.retain(|w| w.strong_count() > 0);
        // Idempotent: re-registering (e.g. `munlockall` after `mlockall`)
        // must not make the daemon scan the space twice per pass.
        if !mms
            .iter()
            .any(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(mm)))
        {
            mms.push(Arc::downgrade(mm));
        }
    }

    /// Removes an address space from the eviction-target list (the
    /// `mlockall` analog): reclaim will no longer swap its pages out, so
    /// allocations fail with a hard out-of-memory error once the pool and
    /// the remaining eviction targets are exhausted.
    pub fn unregister_mm(&self, mm: &Arc<Mm>) {
        let target = Arc::as_ptr(mm);
        self.mms
            .lock()
            .retain(|w| w.strong_count() > 0 && !std::ptr::eq(w.as_ptr(), target));
    }

    /// Snapshot of the currently registered (still-live) eviction targets.
    /// The background reclaim daemon iterates these for its scan passes.
    pub fn eviction_targets(&self) -> Vec<Arc<Mm>> {
        let mut mms = self.mms.lock();
        mms.retain(|w| w.strong_count() > 0);
        mms.iter().filter_map(Weak::upgrade).collect()
    }

    /// Acquires the split lock covering `table_frame` — the frame of the
    /// page table (or huge-entry-holding PMD table) being transitioned.
    ///
    /// Callers hold the `mm` lock (shared suffices) and must not hold any
    /// other stripe; after acquiring, re-load the upper-level entry that
    /// led here and bail out if it no longer points at `table_frame`.
    pub(crate) fn split_lock(&self, table_frame: FrameId) -> MutexGuard<'_, ()> {
        self.pmd_locks[table_frame.index() & (SPLIT_LOCK_STRIPES - 1)].lock()
    }

    /// Non-blocking variant of [`Machine::split_lock`], for direct reclaim.
    ///
    /// Direct reclaim runs inside a failed allocation, which may itself be
    /// under a split-lock stripe (e.g. a demand fault allocating under the
    /// table's stripe). Blocking on a second stripe there would violate
    /// the one-stripe lock order; trying and skipping contended tables
    /// keeps direct reclaim deadlock-free at the cost of missing some
    /// candidates.
    pub(crate) fn try_split_lock(&self, table_frame: FrameId) -> Option<MutexGuard<'_, ()>> {
        self.pmd_locks[table_frame.index() & (SPLIT_LOCK_STRIPES - 1)].try_lock()
    }

    /// Allocates a page-table frame and makes its slot a live, empty
    /// table. One of the two writers of a slot.
    pub(crate) fn alloc_table(&self) -> Result<(FrameId, &Table)> {
        let frame = self.retry_after_reclaim(|| self.pool.alloc_page_table())?;
        Ok((frame, self.tables.claim(frame)))
    }

    /// Frees a page-table frame, bumping its slot's generation so that a
    /// lockless walker still reading it sees a raced walk. The other
    /// writer of a slot.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the frame's refcount does not drop to
    /// zero — table frames are owned exclusively by the paging tree.
    pub(crate) fn free_table(&self, frame: FrameId) {
        self.tables.release(frame);
        let freed = self.pool.ref_dec(frame);
        debug_assert!(freed, "page-table frame {frame:?} still referenced");
    }

    /// Allocates a data frame, running reclaim and retrying once on
    /// exhaustion.
    pub(crate) fn alloc_page(&self, kind: PageKind) -> Result<FrameId> {
        self.retry_after_reclaim(|| self.pool.alloc_page(kind))
    }

    /// Allocates a huge compound frame, with reclaim retry.
    pub(crate) fn alloc_huge(&self, kind: PageKind) -> Result<FrameId> {
        self.retry_after_reclaim(|| self.pool.alloc_huge(kind))
    }

    fn retry_after_reclaim(
        &self,
        alloc: impl Fn() -> odf_pmem::Result<FrameId>,
    ) -> Result<FrameId> {
        let mut last = match alloc() {
            Ok(f) => return Ok(f),
            Err(e) => e,
        };
        // Keep reclaiming while progress is being made. A pass that frees
        // nothing can be a transient — the background daemon may hold the
        // very stripes direct reclaim needs while it is itself freeing
        // frames — so exhaustion is declared only after two consecutive
        // zero-progress passes.
        let mut zero_streak = 0;
        for _ in 0..32 {
            let freed = self.reclaim();
            match alloc() {
                Ok(f) => return Ok(f),
                Err(e) => last = e,
            }
            if freed == 0 {
                zero_streak += 1;
                if zero_streak >= 2 {
                    break;
                }
                std::thread::yield_now();
            } else {
                zero_streak = 0;
            }
        }
        Err(last.into())
    }

    /// Direct reclaim: drops clean unreferenced page-cache pages from
    /// every registered file, then — if the pool is still at or below its
    /// low watermark — evicts anonymous pages from registered address
    /// spaces to the swap tier. Returns the number of frames freed.
    pub fn reclaim(&self) -> usize {
        let mut freed = 0;
        {
            let mut files = self.files.lock();
            files.retain(|weak| match weak.upgrade() {
                Some(file) => {
                    freed += file.drop_clean_pages(&self.pool);
                    true
                }
                None => false,
            });
        }
        if self.pool.free_frames() <= self.pool.watermarks().low {
            let budget = DIRECT_RECLAIM_BATCH
                .min(self.pool.total_frames() / 2)
                .max(1);
            for mm in self.eviction_targets() {
                let remaining = budget.saturating_sub(freed);
                if remaining == 0 {
                    break;
                }
                freed += mm.try_evict_direct(remaining);
            }
        }
        let pass = odf_trace::Hit::new(odf_trace::Point::Reclaim, &[freed as u64]);
        odf_trace::emit_counted(&self.stats.reclaim_runs, pass);
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_table_registers_in_store() {
        let m = Machine::new(1 << 20);
        let (f, t) = m.alloc_table().unwrap();
        assert!(std::ptr::eq(m.table(f), t));
        assert_eq!(m.pool().pt_share_count(f), 1);
        m.free_table(f);
        assert_eq!(m.live_tables(), 0);
        assert_eq!(m.pool().free_frames(), m.pool().total_frames());
    }

    #[test]
    fn reclaim_frees_clean_file_pages() {
        let m = Machine::new(16 * 4096);
        let file = Arc::new(VmFile::with_len(8 * 4096));
        m.register_file(&file);
        // Fill the cache (one mapping ref each, then release the mapping).
        for pg in 0..8 {
            let f = file.map_page(m.pool(), pg).unwrap();
            m.pool().ref_dec(f);
        }
        assert_eq!(file.cached_pages(), 8);
        let freed = m.reclaim();
        assert_eq!(freed, 8);
        assert_eq!(file.cached_pages(), 0);
    }

    #[test]
    fn alloc_retries_after_reclaim() {
        let m = Machine::new(4 * 4096);
        let file = Arc::new(VmFile::with_len(4 * 4096));
        m.register_file(&file);
        // Exhaust the pool with clean cache pages.
        for pg in 0..4 {
            let f = file.map_page(m.pool(), pg).unwrap();
            m.pool().ref_dec(f);
        }
        assert_eq!(m.pool().free_frames(), 0);
        // A fresh allocation succeeds because reclaim kicks in.
        let f = m.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(m.pool().page(f).kind(), PageKind::Anon);
    }

    #[test]
    fn exhaustion_with_nothing_reclaimable_is_an_error() {
        let m = Machine::new(2 * 4096);
        let _a = m.alloc_page(PageKind::Anon).unwrap();
        let _b = m.alloc_page(PageKind::Anon).unwrap();
        assert_eq!(m.alloc_page(PageKind::Anon), Err(crate::VmError::NoMemory));
    }
}
