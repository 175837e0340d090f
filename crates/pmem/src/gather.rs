//! mmu_gather-style batched frees for unmap/exit/teardown sweeps.
//!
//! The kernel never frees pages one at a time while tearing down a
//! mapping: `zap_pte_range` accumulates dying pages in a `struct
//! mmu_gather` and `tlb_finish_mmu` releases them in batches, so the page
//! allocator lock is taken once per batch instead of once per page.
//! [`FreeBatch`] is that structure for the simulator: the unmap paths
//! call [`FreeBatch::ref_dec`] per entry, dead blocks accumulate, and one
//! [`FreeBatch::flush`] returns them all to the buddy under a single lock
//! acquisition (with a single counter update for the sweep's reference
//! decrements).
//!
//! A block's *identity* still dies immediately at the `ref_dec` that hits
//! zero — metadata goes to `Free`, data buffers drop, the per-frame
//! `FrameFree` provenance event fires — so `try_ref_inc` (GUP-fast pins)
//! and `dump_frame_history` observe exactly the states the unbatched path
//! produces. Only the hand-back to the allocator is deferred, which is
//! invisible to everything except the free-frame gauge (transiently lower
//! until the flush, never higher).

use crate::frame::FrameId;
use crate::pool::FramePool;

/// Accumulates blocks whose refcount hit zero during a teardown sweep and
/// returns them to the pool in one batched call. Obtained from
/// [`FramePool::free_batch`]; flushes on drop.
pub struct FreeBatch<'a> {
    pool: &'a FramePool,
    /// Dead blocks awaiting their buddy hand-back: `(head, order)`.
    blocks: Vec<(FrameId, u8)>,
    /// Reference decrements performed since the last flush (batched into
    /// one `page_ref_decs` update at flush time).
    decs: u64,
}

impl FramePool {
    /// Starts an mmu_gather-style batched free sweep against this pool.
    pub fn free_batch(&self) -> FreeBatch<'_> {
        FreeBatch {
            pool: self,
            blocks: Vec::new(),
            decs: 0,
        }
    }
}

impl FreeBatch<'_> {
    /// Decrements a block's reference count (compound head, as for
    /// [`FramePool::ref_dec`]). A block that reaches zero is torn down
    /// immediately but parked in the batch; it rejoins the buddy at the
    /// next [`FreeBatch::flush`]. Returns `true` if the block died.
    pub fn ref_dec(&mut self, head: FrameId) -> bool {
        self.decs += 1;
        match self.pool.ref_dec_deferred(head) {
            Some(order) => {
                self.blocks.push((head, order));
                true
            }
            None => false,
        }
    }

    /// Dead blocks currently parked in the batch.
    pub fn pending_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns every parked block to the buddy under one lock acquisition
    /// and settles the sweep's counters. Idempotent; also runs on drop.
    pub fn flush(&mut self) {
        if self.decs > 0 {
            self.pool.stats_ref().page_ref_decs.add(self.decs);
            self.decs = 0;
        }
        if self.blocks.is_empty() {
            return;
        }
        let frames: u64 = self.blocks.iter().map(|&(_, o)| 1u64 << o).sum();
        self.pool.free_blocks_bulk(&self.blocks);
        let stats = self.pool.stats_ref();
        let blocks = self.blocks.len() as u64;
        stats.bulk_freed_blocks.add(blocks);
        let flush = odf_trace::Hit::new(odf_trace::Point::BulkFree, &[blocks, frames]);
        odf_trace::emit_counted(&stats.bulk_free_batches, flush);
        self.blocks.clear();
    }
}

impl Drop for FreeBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn batch_defers_the_buddy_return_until_flush() {
        let pool = FramePool::new_flat(64);
        let frames: Vec<FrameId> = (0..8)
            .map(|_| pool.alloc_page(PageKind::Anon).unwrap())
            .collect();
        assert_eq!(pool.free_frames(), 56);
        let mut batch = pool.free_batch();
        for &f in &frames {
            assert!(batch.ref_dec(f));
            // Identity dies immediately...
            assert_eq!(pool.page(f).kind(), PageKind::Free);
        }
        // ...but the frames rejoin the free count only at flush.
        assert_eq!(pool.free_frames(), 56);
        assert_eq!(batch.pending_blocks(), 8);
        batch.flush();
        assert_eq!(pool.free_frames(), 64);
        let snap = pool.stats().snapshot();
        assert_eq!(snap.bulk_free_batches, 1);
        assert_eq!(snap.bulk_freed_blocks, 8);
        assert_eq!(snap.page_ref_decs, 8);
        assert_eq!(snap.frees, 8);
    }

    #[test]
    fn surviving_references_do_not_enter_the_batch() {
        let pool = FramePool::new_flat(64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        pool.ref_inc(f);
        let mut batch = pool.free_batch();
        assert!(!batch.ref_dec(f));
        assert_eq!(batch.pending_blocks(), 0);
        batch.flush();
        assert_eq!(pool.ref_count(f), 1);
        assert!(pool.ref_dec(f));
        assert_eq!(pool.free_frames(), 64);
    }

    #[test]
    fn drop_flushes_implicitly() {
        let pool = FramePool::new(1024);
        let h = pool.alloc_huge(PageKind::Anon).unwrap();
        {
            let mut batch = pool.free_batch();
            batch.ref_dec(h);
        }
        assert_eq!(pool.balance().free_frames, 1024);
    }

    #[test]
    fn dead_frames_refuse_gup_pins_while_parked() {
        // Between ref_dec-to-zero and flush, a block is torn down but not
        // yet in the buddy; a racing lock-free pin must fail exactly as it
        // does against the unbatched free path.
        let pool = FramePool::new(64);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        let mut batch = pool.free_batch();
        batch.ref_dec(f);
        assert!(!pool.try_ref_inc(f));
        batch.flush();
        assert!(!pool.try_ref_inc(f));
    }
}
