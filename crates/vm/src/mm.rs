//! The per-process address space (`mm_struct` analog).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odf_pagetable::{Entry, Level, VirtAddr};
use odf_pmem::{FrameId, PAGE_SIZE};
use parking_lot::RwLock;

use crate::error::{Result, VmError};
use crate::fork::{self, ForkPolicy};
use crate::machine::Machine;
use crate::prot::Prot;
use crate::unmap;
use crate::vma::{Backing, MapParams, Vma, VmaTree};
use crate::walk::PmdCursor;
use crate::{fault, HUGE_PAGE_SIZE};

/// Lowest address handed out by the `mmap` address allocator.
const MMAP_BASE: u64 = 0x1000_0000;

/// The lock-protected contents of an address space.
pub(crate) struct MmInner {
    /// Root of the page-table tree.
    pub pgd: FrameId,
    /// The VMA tree.
    pub vmas: VmaTree,
    /// Resident pages, in 4 KiB units (a huge page counts 512). Atomic
    /// because the fault path updates it while holding the `mm` lock only
    /// shared.
    pub rss: AtomicU64,
    /// Search cursor of the address allocator.
    pub next_mmap: u64,
    /// Set once the address space has been torn down.
    pub dead: bool,
    /// Epoch log of ranges whose contents were (re)created or discarded
    /// wholesale since the last [`Mm::clear_soft_dirty`] sweep: fresh
    /// mmaps, mremap destinations, `MADV_DONTNEED` ranges. Incremental
    /// snapshots treat any page inside these ranges as changed (its
    /// current content is either soft-dirty — carried as payload — or
    /// demand-zero), so stale content from the previous epoch can never be
    /// carried forward across a discard-and-reuse of an address.
    pub dirty_ranges: Vec<(u64, u64)>,
    /// Owning process id for probe attribution (0 until adopted by a
    /// kernel). Written under the exclusive `mm` lock, read under the
    /// shared lock by the fault path, which stamps it on every fault hit.
    pub owner_pid: u64,
}

impl MmInner {
    pub(crate) fn empty(machine: &Machine) -> Result<Self> {
        let (pgd, _) = machine.alloc_table()?;
        Ok(Self {
            pgd,
            vmas: VmaTree::new(),
            rss: AtomicU64::new(0),
            next_mmap: MMAP_BASE,
            dead: false,
            dirty_ranges: Vec::new(),
            owner_pid: 0,
        })
    }

    /// Subtracts `n` resident pages, saturating at zero. Callers hold the
    /// exclusive `mm` lock (the unmap/teardown paths), so the load/store
    /// pair is race-free; the atomic type exists for the shared-lock fault
    /// path's increments.
    pub(crate) fn rss_sub(&self, n: u64) {
        let cur = self.rss.load(Ordering::Relaxed);
        self.rss.store(cur.saturating_sub(n), Ordering::Relaxed);
    }

    /// Records `[start, end)` in the epoch dirty-range log, merging with
    /// the previous record when they touch (the common mmap-after-mmap
    /// pattern) to keep the log compact.
    pub(crate) fn log_dirty_range(&mut self, start: u64, end: u64) {
        if let Some(last) = self.dirty_ranges.last_mut() {
            if start <= last.1 && end >= last.0 {
                last.0 = last.0.min(start);
                last.1 = last.1.max(end);
                return;
            }
        }
        self.dirty_ranges.push((start, end));
    }

    /// Finds a free, suitably aligned address range of `len` bytes.
    pub(crate) fn find_free(&mut self, len: u64, align: u64) -> Result<u64> {
        let mut candidate = self.next_mmap.max(MMAP_BASE).next_multiple_of(align);
        loop {
            if candidate + len > VirtAddr::LIMIT {
                // Wrap once and rescan from the base before giving up.
                if self.next_mmap == MMAP_BASE {
                    return Err(VmError::NoVirtualSpace);
                }
                self.next_mmap = MMAP_BASE;
                candidate = MMAP_BASE.next_multiple_of(align);
            }
            match self
                .vmas
                .iter_range(candidate, candidate + len)
                .map(|v| v.end)
                .max()
            {
                None => {
                    self.next_mmap = candidate + len;
                    return Ok(candidate);
                }
                Some(conflict_end) => {
                    candidate = conflict_end.next_multiple_of(align);
                }
            }
        }
    }

    /// Tears down every mapping and frees the whole page-table tree.
    pub(crate) fn destroy(&mut self, machine: &Machine) {
        if self.dead {
            return;
        }
        self.dead = true;
        // Drain all VMAs first so shared-table release sees no remaining
        // users, then zap each range.
        let all: Vec<Vma> = self.vmas.remove_range(0, VirtAddr::LIMIT);
        for vma in &all {
            unmap::zap_range(machine, self, vma.start, vma.end);
        }
        debug_assert!(self.vmas.is_empty(), "vma tree drained at teardown");
        // Free the (now childless at the leaf level) upper tables.
        Self::free_upper(machine, self.pgd, Level::Pgd);
        debug_assert_eq!(self.rss.load(Ordering::Relaxed), 0, "rss leak at teardown");
    }

    fn free_upper(machine: &Machine, table_frame: FrameId, level: Level) {
        let table = machine.table(table_frame);
        if level != Level::Pmd {
            for (_, e) in table.iter_present() {
                Self::free_upper(machine, e.frame(), level.child().expect("non-leaf"));
            }
        } else {
            debug_assert!(
                table.is_empty(),
                "PMD entries must be cleared before teardown"
            );
        }
        machine.free_table(table_frame);
    }
}

/// A point-in-time report of an address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmReport {
    /// Total mapped bytes across all VMAs.
    pub mapped_bytes: u64,
    /// Resident pages in 4 KiB units.
    pub rss_pages: u64,
    /// Number of VMAs.
    pub vma_count: usize,
}

/// A process address space.
///
/// All operations are internally synchronized by a per-`Mm` readers-writer
/// lock (the `mmap_sem` analog), with Linux's discipline:
///
/// - **Shared**: translations *and page faults*. Concurrent faults from
///   many threads resolve in parallel; every structural page-table
///   transition the fault path makes is serialized by the machine's split
///   locks ([`Machine::split_lock`](crate::machine)) and revalidated after
///   acquiring, and entry installs are atomic, so a fault that loses an
///   install race simply retries.
/// - **Exclusive**: everything that changes the mapping picture or walks
///   the whole tree assuming quiescence — `mmap`/`munmap`/`mremap`/
///   `mprotect`/`madvise`/`populate`/`fork`/`clear_soft_dirty`/`destroy`.
///
/// Lock order is `mm` lock → at most one split-lock stripe; nothing ever
/// takes a second `mm` lock or a second stripe while holding one.
///
/// `fork` takes the **parent's** lock exclusively for the duration of the
/// call — which is precisely the window during which, e.g., Redis cannot
/// serve requests (§5.3.3), and what the latency benchmarks measure.
pub struct Mm {
    machine: Arc<Machine>,
    pub(crate) inner: RwLock<MmInner>,
    /// Resume address of the clock-reclaim scanner (the kswapd scan
    /// cursor): the next eviction scan picks up where the previous one
    /// stopped, so pressure rotates through the whole address space
    /// instead of hammering the lowest VMAs.
    pub(crate) clock_hand: AtomicU64,
}

impl Mm {
    /// Creates an empty address space on the given machine.
    pub fn new(machine: Arc<Machine>) -> Result<Self> {
        let inner = MmInner::empty(&machine)?;
        Ok(Self {
            machine,
            inner: RwLock::new(inner),
            clock_hand: AtomicU64::new(0),
        })
    }

    /// The machine this address space lives on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Tags this address space with its owning process id (probe
    /// attribution; the kernel calls this at adoption/fork time).
    pub fn set_owner_pid(&self, pid: u64) {
        self.inner.write().owner_pid = pid;
    }

    /// The owning process id, 0 when unowned.
    pub fn owner_pid(&self) -> u64 {
        self.inner.read().owner_pid
    }

    /// Maps `len` bytes (rounded up to page or huge-page granularity) at a
    /// kernel-chosen address. Returns the mapped address.
    pub fn mmap(&self, len: u64, params: MapParams) -> Result<u64> {
        if len == 0 {
            return Err(VmError::InvalidArgument);
        }
        let align = Self::validate_params(&params)?;
        let len = len.next_multiple_of(align);
        let mut inner = self.inner.write();
        let addr = inner.find_free(len, align)?;
        inner.vmas.insert(Self::build_vma(addr, len, params))?;
        inner.log_dirty_range(addr, addr + len);
        Ok(addr)
    }

    /// Maps `len` bytes at the exact address `addr`.
    pub fn mmap_fixed(&self, addr: u64, len: u64, params: MapParams) -> Result<u64> {
        let align = Self::validate_params(&params)?;
        if len == 0 || !addr.is_multiple_of(align) {
            return Err(VmError::InvalidArgument);
        }
        let len = len.next_multiple_of(align);
        if addr + len > VirtAddr::LIMIT {
            return Err(VmError::InvalidArgument);
        }
        let mut inner = self.inner.write();
        inner.vmas.insert(Self::build_vma(addr, len, params))?;
        inner.log_dirty_range(addr, addr + len);
        Ok(addr)
    }

    fn validate_params(params: &MapParams) -> Result<u64> {
        if params.huge {
            // Huge mappings must be anonymous (the hugetlbfs-like
            // restriction) and 2 MiB granular.
            if !matches!(params.backing, Backing::Anonymous) {
                return Err(VmError::InvalidArgument);
            }
            Ok(HUGE_PAGE_SIZE as u64)
        } else {
            Ok(PAGE_SIZE as u64)
        }
    }

    fn build_vma(addr: u64, len: u64, params: MapParams) -> Vma {
        Vma {
            start: addr,
            end: addr + len,
            prot: params.prot,
            shared: params.shared,
            huge: params.huge,
            backing: params.backing,
        }
    }

    /// Unmaps `[addr, addr + len)`.
    pub fn munmap(&self, addr: u64, len: u64) -> Result<()> {
        let mut inner = self.inner.write();
        unmap::munmap(&self.machine, &mut inner, addr, len)
    }

    /// Remaps `[addr, addr + old_len)` to a new length, moving it if it
    /// grows. Returns the (possibly new) address.
    pub fn mremap(&self, addr: u64, old_len: u64, new_len: u64) -> Result<u64> {
        let mut inner = self.inner.write();
        unmap::mremap(&self.machine, &mut inner, addr, old_len, new_len)
    }

    /// Changes the protection of `[addr, addr + len)`.
    pub fn mprotect(&self, addr: u64, len: u64, prot: Prot) -> Result<()> {
        let mut inner = self.inner.write();
        unmap::mprotect(&self.machine, &mut inner, addr, len, prot)
    }

    /// Discards the contents of `[addr, addr + len)` without unmapping it
    /// (the `madvise(MADV_DONTNEED)` analog): subsequent reads observe
    /// zeros, subsequent writes fault in fresh pages.
    pub fn madvise_dontneed(&self, addr: u64, len: u64) -> Result<()> {
        let mut inner = self.inner.write();
        unmap::madvise_dontneed(&self.machine, &mut inner, addr, len)
    }

    /// Pre-faults `[addr, addr + len)`, the `MAP_POPULATE` analog and the
    /// "fill the buffer with data" step of the paper's benchmarks.
    ///
    /// With `write = true`, pages are mapped as if the process had written
    /// zeros to each (present and writable, subject to the VMA protection),
    /// but the frame data stays unmaterialized — this is what allows
    /// paper-scale fill-then-fork sweeps without 4 KiB of host memory per
    /// simulated page.
    pub fn populate(&self, addr: u64, len: u64, write: bool) -> Result<()> {
        let inner = self.inner.write();
        fault::populate(&self.machine, &inner, addr, len, write)
    }

    /// Handles a page fault at `addr` (normally invoked internally by
    /// [`Mm::read`]/[`Mm::write`]; public for fault-injection tests).
    ///
    /// Runs under the **shared** `mm` lock, like every fault.
    pub fn fault(&self, addr: u64, write: bool) -> Result<()> {
        let inner = self.inner.read();
        self.machine.stats().faults_shared_lock.bump();
        fault::handle(&self.machine, &inner, VirtAddr::new(addr), write).map(drop)
    }

    /// Forks this address space under the given policy, returning the
    /// child.
    pub fn fork(&self, policy: ForkPolicy) -> Result<Mm> {
        // Fork allocates child tables while holding this lock exclusively
        // — a state in which neither direct reclaim nor the background
        // daemon can scan this address space (both need at least the
        // shared lock). Replenish the pool up front instead, while
        // eviction is still possible.
        while self.machine.pool().below_low_watermark() && self.machine.reclaim() > 0 {}
        let mut inner = self.inner.write();
        let child = fork::run(&self.machine, &mut inner, policy)?;
        Ok(Mm {
            machine: Arc::clone(&self.machine),
            inner: RwLock::new(child),
            clock_hand: AtomicU64::new(0),
        })
    }

    /// Reports mapping statistics.
    pub fn report(&self) -> MmReport {
        let inner = self.inner.read();
        MmReport {
            mapped_bytes: inner.vmas.mapped_bytes(),
            rss_pages: inner.rss.load(Ordering::Relaxed),
            vma_count: inner.vmas.len(),
        }
    }

    /// Resolves the physical frame currently backing `addr`, if present
    /// (no fault, no permission check; test/diagnostic helper).
    pub fn resolve(&self, addr: u64) -> Option<FrameId> {
        let inner = self.inner.read();
        let va = VirtAddr::new(addr);
        let cursor = PmdCursor::new(&self.machine, inner.pgd);
        let slot = cursor.slot(va)?;
        let e = slot.load();
        if !e.is_present() {
            return None;
        }
        if e.is_huge() {
            return Some(e.frame().offset(va.index(Level::Pte)));
        }
        let pte = self.machine.table(e.frame()).load(va.index(Level::Pte));
        pte.is_present().then(|| pte.frame())
    }

    /// Returns the raw PMD entry covering `addr` (diagnostic helper used by
    /// tests to observe sharing state).
    pub fn pmd_entry(&self, addr: u64) -> Option<Entry> {
        let inner = self.inner.read();
        let cursor = PmdCursor::new(&self.machine, inner.pgd);
        let slot = cursor.slot(VirtAddr::new(addr))?;
        let e = slot.load();
        e.is_present().then_some(e)
    }

    /// Tears the address space down, freeing all frames and tables.
    ///
    /// Called automatically on drop; explicit calls make teardown timing
    /// deterministic in benchmarks ("tearing down the child virtual memory
    /// has non-negligible costs", §5.2.1).
    pub fn destroy(&self) {
        let mut inner = self.inner.write();
        inner.destroy(&self.machine);
        let flush = odf_trace::Hit::new(odf_trace::Point::TlbFlush, &[]);
        odf_trace::emit_counted(&self.machine.stats().tlb_flushes, flush);
    }
}

impl Drop for Mm {
    fn drop(&mut self) {
        self.destroy();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Arc<Machine> {
        Machine::new(64 << 20)
    }

    #[test]
    fn mmap_returns_aligned_disjoint_ranges() {
        let mm = Mm::new(machine()).unwrap();
        let a = mm.mmap(10, MapParams::anon_rw()).unwrap();
        let b = mm.mmap(PAGE_SIZE as u64 * 3, MapParams::anon_rw()).unwrap();
        assert_eq!(a % PAGE_SIZE as u64, 0);
        assert!(b >= a + PAGE_SIZE as u64, "rounded-up region reserved");
        assert_eq!(mm.report().vma_count, 2);
        assert_eq!(
            mm.report().mapped_bytes,
            PAGE_SIZE as u64 + 3 * PAGE_SIZE as u64
        );
    }

    #[test]
    fn huge_mmap_is_2mib_aligned() {
        let mm = Mm::new(machine()).unwrap();
        let a = mm.mmap(1, MapParams::anon_rw_huge()).unwrap();
        assert_eq!(a % HUGE_PAGE_SIZE as u64, 0);
        assert_eq!(mm.report().mapped_bytes, HUGE_PAGE_SIZE as u64);
    }

    #[test]
    fn fixed_mapping_rejects_overlap() {
        let mm = Mm::new(machine()).unwrap();
        mm.mmap_fixed(0x2000_0000, 0x4000, MapParams::anon_rw())
            .unwrap();
        assert_eq!(
            mm.mmap_fixed(0x2000_2000, 0x4000, MapParams::anon_rw()),
            Err(VmError::Overlap)
        );
    }

    #[test]
    fn zero_length_and_misaligned_requests_fail() {
        let mm = Mm::new(machine()).unwrap();
        assert_eq!(
            mm.mmap(0, MapParams::anon_rw()),
            Err(VmError::InvalidArgument)
        );
        assert_eq!(
            mm.mmap_fixed(0x123, 0x1000, MapParams::anon_rw()),
            Err(VmError::InvalidArgument)
        );
    }

    #[test]
    fn file_backed_huge_mapping_is_rejected() {
        let mm = Mm::new(machine()).unwrap();
        let file = Arc::new(crate::VmFile::with_len(1 << 20));
        let params = MapParams {
            huge: true,
            backing: Backing::File { file, pgoff: 0 },
            ..MapParams::anon_rw()
        };
        assert_eq!(mm.mmap(1 << 20, params), Err(VmError::InvalidArgument));
    }

    #[test]
    fn destroy_releases_everything() {
        let m = machine();
        let free_before = m.pool().free_frames();
        let mm = Mm::new(Arc::clone(&m)).unwrap();
        let addr = mm.mmap(4 << 20, MapParams::anon_rw()).unwrap();
        mm.populate(addr, 4 << 20, true).unwrap();
        assert!(m.pool().free_frames() < free_before);
        drop(mm);
        assert_eq!(m.pool().free_frames(), free_before);
        assert_eq!(m.live_tables(), 0);
    }

    #[test]
    fn address_allocator_skips_existing_mappings() {
        let mm = Mm::new(machine()).unwrap();
        // Pin a fixed mapping right where the allocator would land next.
        let a = mm.mmap(0x1000, MapParams::anon_rw()).unwrap();
        mm.mmap_fixed(a + 0x1000, 0x1000, MapParams::anon_rw())
            .unwrap();
        let c = mm.mmap(0x1000, MapParams::anon_rw()).unwrap();
        assert!(c >= a + 0x2000);
    }
}
