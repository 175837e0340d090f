//! Anonymous-page eviction: the clock-scan half of the memory-pressure
//! subsystem (the `kswapd`/`shrink_folio_list` analog).
//!
//! An eviction scan walks the last-level page tables of one address space
//! under the **shared** `mm` lock, offering each resident anonymous page
//! to a policy callback. Pages the policy elects to evict are copied out
//! to the machine's swap tier and their PTEs replaced by typed swap
//! entries; a later touch takes a swap-in fault
//! ([`FaultKind::SwapIn`](odf_trace::FaultKind)).
//!
//! ## What is evictable
//!
//! Order-0 anonymous pages of private, non-huge VMAs, reached through
//! *dedicated* (share count 1) last-level tables. Shared tables are
//! skipped outright: mutating one would alter every sharer's view, and
//! the monotone-share-count argument of the fault path only covers the
//! transition *away* from sharing. File pages have their own reclaim
//! (clean-page drop in [`Machine::reclaim`]); huge mappings are never
//! split by pressure here.
//!
//! ## Locking and races
//!
//! The scan holds the `mm` lock shared — faults in the same address space
//! keep running. Each table is mutated only under its split-lock stripe,
//! with the PMD entry revalidated after acquisition, exactly like the
//! fault path. The eviction of one PTE must not race an in-flight
//! GUP-fast writer, so a writable PTE is first write-protected
//! (`fetch_clear(WRITABLE)`) and then the frame refcount is checked: a
//! count above one means an active pin (or a genuine CO-mapping) — the
//! bit is restored and the page skipped. Once the PTE is non-writable
//! and the count is one, no new writer can establish itself (GUP-fast
//! re-translates after pinning and requires the writable bit), so the
//! page contents are stable while they are copied to swap.

use std::sync::atomic::Ordering;

use odf_pagetable::{Entry, EntryFlags, Table};
use odf_pmem::{FrameId, PageKind, PAGE_SIZE};
use odf_trace::{Hit, Point};

use crate::machine::Machine;
use crate::mm::{Mm, MmInner};
use crate::vma::Backing;
use crate::walk::{self, Chunk, PmdCursor, PmdSlot};

/// One page offered to the eviction policy.
#[derive(Clone, Copy, Debug)]
pub struct EvictCandidate {
    /// Virtual address of the page.
    pub va: u64,
    /// Backing frame.
    pub frame: FrameId,
    /// Accessed bit of the PTE (set by translations since last cleared).
    pub accessed: bool,
    /// Dirty bit of the PTE.
    pub dirty: bool,
}

/// Policy verdict for one candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictDecision {
    /// Evict the page to swap.
    Evict,
    /// Leave the page alone.
    Skip,
    /// Clear the accessed bit and move on — the "second chance" arm of a
    /// clock policy.
    ClearAccessed,
}

/// Outcome of one eviction scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Candidates offered to the policy.
    pub scanned: u64,
    /// Pages evicted to swap.
    pub evicted: u64,
    /// Accessed bits cleared (second chances given).
    pub cleared: u64,
    /// Candidates skipped (policy said so, or the page was pinned).
    pub skipped: u64,
}

impl Mm {
    /// Runs one eviction scan over this address space, evicting at most
    /// `max_evict` pages. The scan resumes at the clock hand left by the
    /// previous scan and wraps around once; `policy` is consulted for
    /// every candidate.
    ///
    /// Takes the `mm` lock shared and blocks on split-lock stripes — this
    /// is the background daemon's entry point. For the allocation-failure
    /// path use [`Machine::reclaim`], which routes through the
    /// non-blocking variant.
    pub fn evict_scan(
        &self,
        max_evict: usize,
        policy: &mut dyn FnMut(&EvictCandidate) -> EvictDecision,
    ) -> EvictStats {
        let inner = self.inner.read();
        self.scan(&inner, max_evict, false, policy)
    }

    /// Direct-reclaim scan: non-blocking locks throughout (the caller may
    /// already hold this `mm`'s lock or a split-lock stripe), always-evict
    /// policy. Returns the number of pages evicted.
    pub(crate) fn try_evict_direct(&self, max_evict: usize) -> usize {
        let Some(inner) = self.inner.try_read() else {
            return 0;
        };
        let mut always = |_c: &EvictCandidate| EvictDecision::Evict;
        self.scan(&inner, max_evict, true, &mut always).evicted as usize
    }

    fn scan(
        &self,
        inner: &MmInner,
        max_evict: usize,
        try_locks: bool,
        policy: &mut dyn FnMut(&EvictCandidate) -> EvictDecision,
    ) -> EvictStats {
        let machine = self.machine();
        let pool = machine.pool();
        let marks = [pool.free_frames() as u64, pool.watermarks().low as u64];
        let scan = Hit::new(Point::ReclaimScanStart, &marks);
        odf_trace::emit_counted(&machine.stats().reclaim_scans, scan);

        let mut stats = EvictStats::default();
        if max_evict == 0 {
            return stats;
        }
        // Evictable VMAs: private anonymous small-page mappings.
        let ranges: Vec<(u64, u64)> = inner
            .vmas
            .iter()
            .filter(|v| !v.huge && !v.shared && matches!(v.backing, Backing::Anonymous))
            .map(|v| (v.start, v.end))
            .collect();
        if ranges.is_empty() {
            return stats;
        }
        let hand = self.clock_hand.load(Ordering::Relaxed);
        // Rotate so the scan starts at the range containing (or first
        // after) the hand, giving clock semantics across VMAs.
        let pivot = ranges.partition_point(|&(_, end)| end <= hand);
        let ordered = ranges[pivot..].iter().chain(ranges[..pivot].iter());
        let cursor = PmdCursor::new(machine, inner.pgd);

        'scan: for &(start, end) in ordered {
            let from = if (start..end).contains(&hand) {
                hand
            } else {
                start
            };
            for c in walk::chunks(from, end) {
                let Some(pmd) = cursor.slot(c.at) else {
                    continue;
                };
                self.scan_chunk(inner, &pmd, c, try_locks, policy, max_evict, &mut stats);
                if stats.evicted as usize >= max_evict {
                    self.clock_hand.store(c.end.as_u64(), Ordering::Relaxed);
                    break 'scan;
                }
            }
        }
        if (stats.evicted as usize) < max_evict {
            // Full revolution without filling the budget: park the hand at
            // the lowest range so the next scan starts fresh.
            self.clock_hand.store(0, Ordering::Relaxed);
        }
        stats
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_chunk(
        &self,
        inner: &MmInner,
        pmd: &PmdSlot,
        c: Chunk,
        try_locks: bool,
        policy: &mut dyn FnMut(&EvictCandidate) -> EvictDecision,
        max_evict: usize,
        stats: &mut EvictStats,
    ) {
        let machine = self.machine();
        let pool = machine.pool();
        let e = pmd.load();
        if !e.is_present() {
            return;
        }
        if e.is_huge() {
            // Demote-before-evict handshake with the THP layer: pressure
            // never splits a huge page directly. An accessed one gets its
            // second chance (clock semantics at huge granularity); a cold
            // one is demoted to 512 PTEs so the *next* pass can evict them
            // page by page. Direct reclaim (`try_locks`) skips entirely —
            // demotion allocates a PTE table, and allocating while already
            // inside an allocation's reclaim pass could recurse.
            if try_locks || pool.pt_share_count(pmd.frame) > 1 {
                return;
            }
            stats.scanned += 1;
            if e.is_accessed() {
                pmd.table.fetch_clear(pmd.idx, EntryFlags::ACCESSED);
                stats.cleared += 1;
            } else {
                let demoted = crate::thp::demote_at(machine, inner, c.base().as_u64())
                    .map(|o| o == crate::thp::ThpOutcome::Demoted)
                    .unwrap_or(false);
                if !demoted {
                    stats.skipped += 1;
                }
            }
            return;
        }
        let table_frame = e.frame();
        if pool.pt_share_count(table_frame) > 1 {
            // Dedicated tables only; a shared table's entries belong to
            // every sharer.
            return;
        }
        let guard = if try_locks {
            match machine.try_split_lock(table_frame) {
                Some(g) => g,
                None => return,
            }
        } else {
            machine.split_lock(table_frame)
        };
        // Revalidate under the stripe, as the fault path does.
        let cur = pmd.load();
        if !cur.is_present() || cur.is_huge() || cur.frame() != table_frame {
            return;
        }
        if pool.pt_share_count(table_frame) > 1 {
            return;
        }
        let table = machine.table(table_frame);

        for idx in c.ptes() {
            if stats.evicted as usize >= max_evict {
                break;
            }
            let pte = table.load(idx);
            if !pte.is_present() {
                continue;
            }
            let frame = pte.frame();
            if pool.compound_head(frame) != frame || pool.page(frame).kind() != PageKind::Anon {
                continue;
            }
            let candidate = EvictCandidate {
                va: c.va(idx).as_u64(),
                frame,
                accessed: pte.is_accessed(),
                dirty: pte.is_dirty(),
            };
            stats.scanned += 1;
            match policy(&candidate) {
                EvictDecision::Skip => stats.skipped += 1,
                EvictDecision::ClearAccessed => {
                    table.fetch_clear(idx, EntryFlags::ACCESSED);
                    stats.cleared += 1;
                }
                EvictDecision::Evict => {
                    if evict_one(machine, inner, table, idx, pte, frame) {
                        stats.evicted += 1;
                    } else {
                        stats.skipped += 1;
                    }
                }
            }
        }
        drop(guard);
    }
}

/// Evicts one resident anonymous page to swap. Caller holds the shared
/// `mm` lock and the split-lock stripe of the (dedicated) table.
///
/// Returns `false` if the page turned out to be pinned or co-mapped and
/// was left in place.
fn evict_one(
    machine: &Machine,
    inner: &MmInner,
    table: &Table,
    idx: usize,
    pte: Entry,
    frame: FrameId,
) -> bool {
    let pool = machine.pool();
    let t0 = odf_trace::start();

    if pte.is_writable() {
        // Write-protect first, then check for pins: a GUP-fast writer
        // pins before re-translating, and the re-translate requires the
        // writable bit — so once the bit is off and the count is one, no
        // writer exists and none can appear.
        table.fetch_clear(idx, EntryFlags::WRITABLE);
        if pool.ref_count(frame) > 1 {
            table.fetch_set(idx, EntryFlags::WRITABLE);
            return false;
        }
    }
    // Non-writable with refcount > 1 is the COW-shared case: each mapper
    // evicts its own reference; the frame itself lives on for the others.

    let mut buf = vec![0u8; PAGE_SIZE];
    pool.read_frame(frame, 0, &mut buf);
    let slot = machine.swap().alloc_slot(&buf);
    // Reload for the freshest soft-dirty view (translations may have set
    // ACCESSED since `pte` was read; DIRTY/SOFT_DIRTY cannot change while
    // the entry is non-writable).
    let latest = table.load(idx);
    table.store(idx, Entry::swap(slot, latest.is_soft_dirty()));
    inner.rss.fetch_sub(1, Ordering::Relaxed);
    pool.ref_dec(frame);
    let evicted = Hit::new(Point::Evicted, &[frame.index() as u64, u64::from(slot)]);
    odf_trace::emit_counted(
        &machine.stats().pages_swapped_out,
        evicted.pid(inner.owner_pid).span(t0),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::ForkPolicy;
    use crate::vma::MapParams;
    use std::sync::Arc;

    const PG: u64 = PAGE_SIZE as u64;

    fn mm() -> Mm {
        Mm::new(Machine::new(64 << 20)).unwrap()
    }

    #[test]
    fn evict_and_fault_back_round_trips_data() {
        let mm = mm();
        let a = mm.mmap(8 * PG, MapParams::anon_rw()).unwrap();
        for pg in 0..8u64 {
            mm.write_u64(a + pg * PG, 0xBEEF_0000 + pg).unwrap();
        }
        let before = mm.report().rss_pages;
        let stats = mm.evict_scan(usize::MAX, &mut |_| EvictDecision::Evict);
        assert_eq!(stats.evicted, 8);
        assert_eq!(mm.report().rss_pages, before - 8);
        assert!(mm.machine().swap().used_slots() >= 8);
        for pg in 0..8u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 0xBEEF_0000 + pg);
        }
        assert_eq!(mm.report().rss_pages, before, "swap-ins restored rss");
        assert_eq!(
            mm.machine().swap().used_slots(),
            0,
            "slots freed on swap-in"
        );
        let snap = mm.machine().stats().snapshot();
        assert_eq!(snap.pages_swapped_out, 8);
        assert_eq!(snap.pages_swapped_in, 8);
    }

    #[test]
    fn second_chance_clears_accessed_then_evicts() {
        let mm = mm();
        let a = mm.mmap(PG, MapParams::anon_rw()).unwrap();
        mm.write_u64(a, 7).unwrap();
        // Clock policy: accessed pages get their bit cleared, cold pages go.
        let mut clock = |c: &EvictCandidate| {
            if c.accessed {
                EvictDecision::ClearAccessed
            } else {
                EvictDecision::Evict
            }
        };
        let s1 = mm.evict_scan(usize::MAX, &mut clock);
        assert_eq!(
            (s1.cleared, s1.evicted),
            (1, 0),
            "first pass: second chance"
        );
        let s2 = mm.evict_scan(usize::MAX, &mut clock);
        assert_eq!(
            (s2.cleared, s2.evicted),
            (0, 1),
            "second pass: cold, evicted"
        );
    }

    #[test]
    fn pinned_pages_are_skipped_and_keep_their_writable_bit() {
        let mm = mm();
        let a = mm.mmap(PG, MapParams::anon_rw()).unwrap();
        mm.write_u64(a, 1).unwrap();
        let frame = mm.resolve(a).unwrap();
        // An extra frame reference models an in-flight GUP pin.
        assert!(mm.machine().pool().try_ref_inc(frame));
        let stats = mm.evict_scan(usize::MAX, &mut |_| EvictDecision::Evict);
        assert_eq!((stats.evicted, stats.skipped), (0, 1));
        let pm = mm.pagemap(a, PG);
        assert!(pm[0].present && pm[0].writable, "writable bit restored");
        mm.machine().pool().ref_dec(frame);
    }

    #[test]
    fn eviction_survives_odf_fork_cow_round_trip() {
        let mm = mm();
        let a = mm.mmap(4 * PG, MapParams::anon_rw()).unwrap();
        for pg in 0..4u64 {
            mm.write_u64(a + pg * PG, 100 + pg).unwrap();
        }
        let child = mm.fork(ForkPolicy::OnDemand).unwrap();
        // Child writes → its table is COWed away → parent's table is
        // dedicated again and evictable. The pages are COW-shared
        // (refcount 2 after the child's table COW), so eviction of the
        // parent's references copies them to swap per-mapping.
        child.write_u64(a, 999).unwrap();
        let stats = mm.evict_scan(usize::MAX, &mut |_| EvictDecision::Evict);
        assert!(stats.evicted > 0, "dedicated parent table evictable");
        for pg in 0..4u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), 100 + pg);
        }
        assert_eq!(child.read_u64(a).unwrap(), 999);
        drop(child);
    }

    #[test]
    fn direct_reclaim_rescues_exhausted_pool() {
        // Pool sized so the working set cannot fit: 64 frames total.
        let machine = Machine::new(64 * PG);
        let mm = Arc::new(Mm::new(Arc::clone(&machine)).unwrap());
        machine.register_mm(&mm);
        // A working set half again the pool size: the fill cannot fit
        // without eviction, so direct reclaim must push older pages to
        // swap to keep the faults succeeding.
        let a = mm.mmap(96 * PG, MapParams::anon_rw()).unwrap();
        for pg in 0..96u64 {
            mm.write_u64(a + pg * PG, pg).unwrap();
        }
        assert!(machine.stats().snapshot().pages_swapped_out > 0);
        for pg in 0..96u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), pg);
        }
    }
}
