//! Simulated processes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odf_snapshot::{capture_delta, capture_full, SnapshotError, SnapshotImage};
use odf_vm::{ForkPolicy, MapParams, Mm, MmReport, Prot, Result};

use crate::kernel::{Kernel, Pid};

/// A simulated process: a PID plus an address space on a [`Kernel`].
///
/// Process handles are `Send` and may be moved across host threads; in the
/// application substrates (Redis snapshotting, the AFL fork server) parent
/// and child run concurrently on real threads, contending on real locks —
/// which is what makes the latency measurements meaningful.
///
/// Dropping the handle exits the process: the address space is torn down
/// (releasing shared page-table references per §3.5) and the PID retired.
pub struct Process {
    kernel: Arc<Kernel>,
    pid: Pid,
    /// Shared so the machine's reclaim machinery can hold a weak
    /// registration (eviction target list) without pinning the process.
    mm: Arc<Mm>,
    /// Checkpoint epochs taken so far; epoch `n` diffs against `n - 1`.
    epoch: AtomicU64,
}

impl Process {
    pub(crate) fn new(kernel: Arc<Kernel>, pid: Pid, mm: Arc<Mm>) -> Self {
        Self {
            kernel,
            pid,
            mm,
            epoch: AtomicU64::new(0),
        }
    }

    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The kernel this process runs on.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Direct access to the address space (advanced use and tests).
    pub fn mm(&self) -> &Mm {
        &self.mm
    }

    /// Pins this process's memory resident (the `mlockall` analog):
    /// removes its address space from the machine's eviction-target list
    /// so reclaim never swaps its pages out. Without eviction targets to
    /// make progress on, allocations once the pool is exhausted fail with
    /// [`odf_vm::VmError::NoMemory`] instead of overcommitting into swap.
    ///
    /// Like `mlock`, the pin is per-address-space and is not inherited by
    /// forked children.
    pub fn mlockall(&self) {
        self.kernel.machine().unregister_mm(&self.mm);
    }

    /// Undoes [`Process::mlockall`], making the address space an eviction
    /// target again.
    pub fn munlockall(&self) {
        self.kernel.machine().register_mm(&self.mm);
    }

    // ------------------------------------------------------------------
    // Memory mapping
    // ------------------------------------------------------------------

    /// Maps a private anonymous read-write region (the configuration of
    /// every microbenchmark in the paper).
    pub fn mmap_anon(&self, len: u64) -> Result<u64> {
        self.mm.mmap(len, MapParams::anon_rw())
    }

    /// Maps a private anonymous read-write region backed by 2 MiB huge
    /// pages (the Figure 4 baseline).
    pub fn mmap_anon_huge(&self, len: u64) -> Result<u64> {
        self.mm.mmap(len, MapParams::anon_rw_huge())
    }

    /// Maps `len` bytes with explicit parameters.
    pub fn mmap(&self, len: u64, params: MapParams) -> Result<u64> {
        self.mm.mmap(len, params)
    }

    /// Maps `len` bytes at a fixed address.
    pub fn mmap_fixed(&self, addr: u64, len: u64, params: MapParams) -> Result<u64> {
        self.mm.mmap_fixed(addr, len, params)
    }

    /// Unmaps a range.
    pub fn munmap(&self, addr: u64, len: u64) -> Result<()> {
        self.mm.munmap(addr, len)
    }

    /// Resizes (possibly moving) a mapping; returns its new address.
    pub fn mremap(&self, addr: u64, old_len: u64, new_len: u64) -> Result<u64> {
        self.mm.mremap(addr, old_len, new_len)
    }

    /// Changes protection of a range.
    pub fn mprotect(&self, addr: u64, len: u64, prot: Prot) -> Result<()> {
        self.mm.mprotect(addr, len, prot)
    }

    /// Pre-faults a range (`MAP_POPULATE` / the benchmark "fill" step).
    pub fn populate(&self, addr: u64, len: u64, write: bool) -> Result<()> {
        self.mm.populate(addr, len, write)
    }

    /// Discards a range's contents without unmapping it
    /// (`madvise(MADV_DONTNEED)`).
    pub fn madvise_dontneed(&self, addr: u64, len: u64) -> Result<()> {
        self.mm.madvise_dontneed(addr, len)
    }

    // ------------------------------------------------------------------
    // Memory access
    // ------------------------------------------------------------------

    /// Reads bytes at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.mm.read(addr, out)
    }

    /// Hands `f` the bytes from `addr` to `addr + max` or the end of its
    /// page, whichever comes first, in one access and with no copy (see
    /// [`Mm::read_with`]: `f` must not touch any address space).
    pub fn read_with<R>(&self, addr: u64, max: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.mm.read_with(addr, max, f)
    }

    /// Writes bytes at `addr`.
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<()> {
        self.mm.write(addr, data)
    }

    /// Fills a range with a byte.
    pub fn fill(&self, addr: u64, len: usize, byte: u8) -> Result<()> {
        self.mm.fill(addr, len, byte)
    }

    /// Reads bytes at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        self.mm.read_vec(addr, len)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        self.mm.read_u64(addr)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        self.mm.write_u64(addr, value)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32> {
        self.mm.read_u32(addr)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&self, addr: u64, value: u32) -> Result<()> {
        self.mm.write_u32(addr, value)
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /// Forks this process using its configured policy (see
    /// [`Kernel::set_fork_policy`]); the application-transparent path.
    pub fn fork(&self) -> Result<Process> {
        self.fork_with(self.kernel.effective_fork_policy(self.pid))
    }

    /// Forks with an explicit policy — calling `fork` vs `on_demand_fork`
    /// directly.
    pub fn fork_with(&self, policy: ForkPolicy) -> Result<Process> {
        let child_mm = self.mm.fork(policy)?;
        let child = self.kernel.adopt(child_mm);
        // The child continues the parent's checkpoint lineage: its pages
        // carry the same soft-dirty view, so a delta taken from either side
        // diffs against the same base epoch.
        child
            .epoch
            .store(self.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(child)
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore
    // ------------------------------------------------------------------

    /// Checkpoint epochs taken on this process so far.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Takes a full checkpoint of the address space and starts a new
    /// soft-dirty epoch, so a later [`checkpoint_delta`](Self::checkpoint_delta)
    /// captures exactly the pages written after this call.
    ///
    /// For a pause-free checkpoint of a live process, fork first (ideally
    /// with [`ForkPolicy::OnDemand`]) and checkpoint the frozen child — the
    /// pattern `odf-kvstore`'s `bgsave` uses.
    pub fn checkpoint(&self) -> odf_snapshot::Result<SnapshotImage> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let image = capture_full(&self.mm, epoch);
        self.mm.clear_soft_dirty()?;
        self.epoch.store(epoch + 1, Ordering::Relaxed);
        Ok(image)
    }

    /// Advances this process's checkpoint lineage without serializing:
    /// clears the soft-dirty state and bumps the epoch; returns the new
    /// epoch count.
    ///
    /// This is the parent half of the bgsave pattern: a forked child
    /// serializes epoch `n` in the background while the parent — whose
    /// pages carry the same dirty view — must start accumulating epoch
    /// `n + 1` *before any post-fork write*, or the next delta silently
    /// misses those writes.
    pub fn advance_checkpoint_epoch(&self) -> Result<u64> {
        self.mm.clear_soft_dirty()?;
        Ok(self.epoch.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Takes an incremental checkpoint: only pages dirtied since the last
    /// `checkpoint`/`checkpoint_delta`, as a delta image chained onto that
    /// epoch. Fails with [`SnapshotError::NoBaseEpoch`] if no base
    /// checkpoint was ever taken.
    pub fn checkpoint_delta(&self) -> odf_snapshot::Result<SnapshotImage> {
        let epoch = self.epoch.load(Ordering::Relaxed);
        if epoch == 0 {
            return Err(SnapshotError::NoBaseEpoch);
        }
        let image = capture_delta(&self.mm, epoch, epoch - 1);
        self.mm.clear_soft_dirty()?;
        self.epoch.store(epoch + 1, Ordering::Relaxed);
        Ok(image)
    }

    /// Exits the process, tearing down its address space now.
    ///
    /// Equivalent to dropping the handle; the explicit form makes teardown
    /// timing visible in benchmarks.
    pub fn exit(self) {
        drop(self);
    }

    /// Address-space statistics.
    pub fn memory_report(&self) -> MmReport {
        self.mm.report()
    }

    // ------------------------------------------------------------------
    // Introspection (the /proc/<pid>/ surface)
    // ------------------------------------------------------------------

    /// Per-VMA resident-set breakdown — the `/proc/<pid>/smaps` analog,
    /// walked from the real page tables under the shared `mm` lock. Unlike
    /// real smaps, it also reports pages reached through tables still
    /// shared by an On-demand fork (see [`odf_vm::SmapsEntry::shared`]).
    pub fn smaps(&self) -> odf_vm::Smaps {
        self.mm.smaps()
    }

    /// Per-page translation state for `[addr, addr+len)` — the
    /// `/proc/<pid>/pagemap` analog (plus each page's refcount).
    pub fn pagemap(&self, addr: u64, len: u64) -> Vec<odf_vm::PagemapEntry> {
        self.mm.pagemap(addr, len)
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        self.mm.destroy();
        self.kernel.retire(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn fork_uses_configured_policy() {
        let k = Kernel::new(32 << 20);
        let p = k.spawn().unwrap();
        let addr = p.mmap_anon(2 << 20).unwrap();
        p.populate(addr, 2 << 20, true).unwrap();

        let before = k.stats();
        let c1 = p.fork().unwrap(); // default Classic
        let mid = k.stats();
        assert_eq!((mid - before).vm.forks_classic, 1);

        k.set_fork_policy(p.pid(), Some(ForkPolicy::OnDemand));
        let c2 = p.fork().unwrap();
        let after = k.stats();
        assert_eq!((after - mid).vm.forks_odf, 1);
        drop((c1, c2));
    }

    #[test]
    fn children_are_distinct_processes() {
        let k = Kernel::new(32 << 20);
        let p = k.spawn().unwrap();
        let c = p.fork_with(ForkPolicy::OnDemand).unwrap();
        assert_ne!(p.pid(), c.pid());
        assert_eq!(k.process_count(), 2);
        c.exit();
        assert_eq!(k.process_count(), 1);
    }

    #[test]
    fn memory_report_reflects_population() {
        let k = Kernel::new(32 << 20);
        let p = k.spawn().unwrap();
        let addr = p.mmap_anon(1 << 20).unwrap();
        assert_eq!(p.memory_report().rss_pages, 0);
        p.populate(addr, 1 << 20, true).unwrap();
        let r = p.memory_report();
        assert_eq!(r.rss_pages, 256);
        assert_eq!(r.mapped_bytes, 1 << 20);
        assert_eq!(r.vma_count, 1);
    }

    #[test]
    fn checkpoint_restore_round_trips_through_the_kernel() {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let a = p.mmap_anon(1 << 20).unwrap();
        p.write(a + 4096, b"checkpointed state").unwrap();

        let img = p.checkpoint().unwrap();
        assert_eq!(p.checkpoint_epoch(), 1);
        let q = k.restore(&img).unwrap();
        assert_eq!(q.read_vec(a + 4096, 18).unwrap(), b"checkpointed state");
        assert_ne!(p.pid(), q.pid());
    }

    #[test]
    fn delta_checkpoints_chain_and_need_a_base() {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        assert!(matches!(
            p.checkpoint_delta(),
            Err(crate::SnapshotError::NoBaseEpoch)
        ));

        let a = p.mmap_anon(256 << 10).unwrap();
        p.write(a, b"base").unwrap();
        let base = p.checkpoint().unwrap();
        p.write(a + 8192, b"delta-1").unwrap();
        let d1 = p.checkpoint_delta().unwrap();
        p.write(a, b"over").unwrap();
        let d2 = p.checkpoint_delta().unwrap();
        assert_eq!(p.checkpoint_epoch(), 3);

        let merged = crate::materialize(&base, &[&d1, &d2]).unwrap();
        let q = k.restore(&merged).unwrap();
        assert_eq!(q.read_vec(a, 4).unwrap(), b"over");
        assert_eq!(q.read_vec(a + 8192, 7).unwrap(), b"delta-1");
    }

    #[test]
    fn forked_child_checkpoints_on_the_parents_lineage() {
        // The bgsave pattern: checkpoint a frozen child, keep serving in
        // the parent, then take a delta from a later child.
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let a = p.mmap_anon(256 << 10).unwrap();
        p.write(a, b"v1").unwrap();

        let c1 = p.fork_with(ForkPolicy::OnDemand).unwrap();
        let base = c1.checkpoint().unwrap();
        c1.exit();
        assert_eq!(p.advance_checkpoint_epoch().unwrap(), 1);

        p.write(a, b"v2").unwrap();
        let c2 = p.fork_with(ForkPolicy::OnDemand).unwrap();
        assert_eq!(c2.checkpoint_epoch(), 1);
        let d = c2.checkpoint_delta().unwrap();
        c2.exit();

        let merged = crate::materialize(&base, &[&d]).unwrap();
        let q = k.restore(&merged).unwrap();
        assert_eq!(q.read_vec(a, 2).unwrap(), b"v2");
    }

    #[test]
    fn process_handles_move_across_threads() {
        let k = Kernel::new(32 << 20);
        let p = k.spawn().unwrap();
        let addr = p.mmap_anon(1 << 20).unwrap();
        p.write_u64(addr, 7).unwrap();
        let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
        let handle = std::thread::spawn(move || {
            let v = child.read_u64(addr).unwrap();
            child.write_u64(addr, v + 1).unwrap();
            child.read_u64(addr).unwrap()
        });
        assert_eq!(handle.join().unwrap(), 8);
        assert_eq!(p.read_u64(addr).unwrap(), 7);
    }
}
