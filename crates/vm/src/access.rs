//! The memory access front end (the "MMU" the simulated applications use).
//!
//! Reads and writes go through [`Mm::read`] / [`Mm::write`]: each page-sized
//! piece is translated under the **shared** `mm` lock (setting accessed/dirty
//! bits like the hardware walker); a failed translation runs the page fault
//! handler under the *same shared guard* and retries — mirroring the
//! fault/retry loop of a real CPU access.
//!
//! # Concurrency
//!
//! Faults no longer upgrade to the exclusive `mm` lock. The handler in
//! [`crate::fault`] serialises structural page-table transitions through
//! per-table split locks and CAS entry installs, so any number of threads may
//! fault concurrently under shared guards; only mapping changes
//! (`mmap`/`munmap`/`mprotect`/`fork`/...) take the lock exclusively. A
//! thread that loses an install race simply re-translates: the retry loop
//! here absorbs both benign races (a concurrent table COW replacing the
//! entry we just installed) and the handler's own `Raced` outcomes. The
//! bound counts only iterations that made no progress — a pin that missed,
//! a fault that found nothing to do — and converts a livelocked or buggy
//! handler into a typed [`VmError::FaultRetriesExhausted`] instead of
//! spinning forever. A fault that did real work resets it even when its
//! translation is gone again by the re-walk (a swap-in the evictor undid, a
//! sibling's COW): that is thrashing, a latency problem, not a failure.
//!
//! Because the walk is lock-free, a successful translation can be
//! invalidated before the copy runs: a sibling thread's COW swaps the PTE
//! and drops its reference, and once the other sharing process drops its
//! own the frame is freed (and possibly recycled). Each access therefore
//! *pins* the translated frame GUP-fast style — take a reference on the
//! compound head unless the page is already dead, re-walk and require the
//! same frame and head, copy, unpin — so `op` always reads a live frame:
//! either the current mapping or an intact pre-COW snapshot.

use odf_pagetable::VirtAddr;
use odf_pmem::PAGE_SIZE;
use odf_trace::FaultKind;

use crate::error::{Result, VmError};
use crate::fault;
use crate::machine::Machine;
use crate::mm::{Mm, MmInner};
use crate::walk;

/// Per-page visitor for `access_inner`: frame, in-page offset, buffer
/// range, and the pool to read/write through.
type AccessOp<'a> =
    dyn FnMut(odf_pmem::FrameId, usize, std::ops::Range<usize>, &odf_pmem::FramePool) + 'a;

/// Fault handler invoked when a translation is missing, returning what the
/// fault did. Injectable so tests can exercise the retry-exhaustion path
/// deterministically.
type FaultFn<'a> = dyn Fn(&Machine, &MmInner, VirtAddr, bool) -> Result<FaultKind> + 'a;

/// Bound on consecutive no-progress iterations of the translate/fault
/// loop. A handful absorbs benign races (e.g. a concurrent table COW);
/// exceeding it means the handler keeps claiming success without doing
/// anything, which is surfaced as [`VmError::FaultRetriesExhausted`].
const MAX_FAULT_RETRIES: u32 = 32;

#[cfg(debug_assertions)]
thread_local! {
    /// Set while a [`Mm::read_with`] closure runs on this thread.
    static IN_VIEW: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Clears [`IN_VIEW`] when dropped, also when a view's closure panics.
#[cfg(debug_assertions)]
struct ViewMark;

#[cfg(debug_assertions)]
impl Drop for ViewMark {
    fn drop(&mut self) {
        IN_VIEW.set(false);
    }
}

impl Mm {
    /// Reads `out.len()` bytes from the address space at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<()> {
        self.access(addr, out.len(), |frame, off, range, pool| {
            pool.read_frame(frame, off, &mut out[range]);
        })
    }

    /// Hands `f` the bytes from `addr` up to `addr + max` or the end of
    /// `addr`'s page, whichever comes first, in one access and with no
    /// copy: a borrowed page view. Returns what `f` returns.
    ///
    /// The view is the frame [`Mm::read`] would copy from, translated,
    /// faulted in and pinned the same way; an unmaterialized frame reads
    /// as zeros. `f` runs under the shared mm guard, the pin and the
    /// frame's data lock, so it must not touch any address space: a nested
    /// access would take the shared guard a second time, and the guard
    /// favours a queued writer, so that deadlocks. Debug builds assert it.
    pub fn read_with<R>(&self, addr: u64, max: usize, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let len = max.min(PAGE_SIZE - (addr % PAGE_SIZE as u64) as usize);
        let mut f = Some(f);
        let mut viewed = None;
        self.access(addr, len, |frame, off, range, pool| {
            let f = f.take().expect("a view spans one page");
            viewed = Some(pool.view_frame(frame, off, range.len(), |bytes| {
                #[cfg(debug_assertions)]
                let _mark = {
                    IN_VIEW.set(true);
                    ViewMark
                };
                f(bytes)
            }));
        })?;
        Ok(match viewed {
            Some(r) => r,
            // `len` is 0: there was nothing to translate.
            None => f.expect("an empty view has not run")(&[]),
        })
    }

    /// Writes `data` into the address space at `addr`.
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<()> {
        self.access_write(addr, data.len(), |frame, off, range, pool| {
            pool.write_frame(frame, off, &data[range]);
        })
    }

    /// Fills `len` bytes at `addr` with `byte`.
    pub fn fill(&self, addr: u64, len: usize, byte: u8) -> Result<()> {
        let chunk = [byte; PAGE_SIZE];
        self.access_write(addr, len, |frame, off, range, pool| {
            pool.write_frame(frame, off, &chunk[..range.len()]);
        })
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&self, addr: u64, value: u32) -> Result<()> {
        self.write(addr, &value.to_le_bytes())
    }

    fn access(
        &self,
        addr: u64,
        len: usize,
        mut op: impl FnMut(odf_pmem::FrameId, usize, std::ops::Range<usize>, &odf_pmem::FramePool),
    ) -> Result<()> {
        self.access_inner(addr, len, false, &mut op)
    }

    fn access_write(
        &self,
        addr: u64,
        len: usize,
        mut op: impl FnMut(odf_pmem::FrameId, usize, std::ops::Range<usize>, &odf_pmem::FramePool),
    ) -> Result<()> {
        self.access_inner(addr, len, true, &mut op)
    }

    fn access_inner(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        op: &mut AccessOp<'_>,
    ) -> Result<()> {
        self.access_with_handler(addr, len, write, op, &|machine, inner, va, w| {
            fault::handle(machine, inner, va, w)
        })
    }

    /// The translate/fault/retry loop, parameterised over the fault handler.
    ///
    /// Each iteration holds one shared guard spanning both the walk and (on a
    /// miss) the handler call, so the mapping the handler sees is the mapping
    /// the walk failed against. The guard is released between iterations to
    /// let exclusive operations (munmap, fork, ...) make progress.
    fn access_with_handler(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        op: &mut AccessOp<'_>,
        handler: &FaultFn<'_>,
    ) -> Result<()> {
        #[cfg(debug_assertions)]
        assert!(
            !IN_VIEW.get(),
            "an access from inside a read_with view: the closure must not touch an address space"
        );
        if len == 0 {
            return Ok(());
        }
        if addr
            .checked_add(len as u64)
            .is_none_or(|e| e > VirtAddr::LIMIT)
        {
            return Err(VmError::Fault { addr, write });
        }
        let machine = self.machine();
        let mut done = 0usize;
        while done < len {
            let va = VirtAddr::new(addr + done as u64);
            let page_off = va.page_offset();
            let piece = (PAGE_SIZE - page_off).min(len - done);
            // Consecutive iterations without progress, and handler calls.
            let mut stalled: u32 = 0;
            let mut faults: u32 = 0;
            loop {
                if stalled >= MAX_FAULT_RETRIES {
                    return Err(VmError::FaultRetriesExhausted {
                        addr: va.as_u64(),
                        retries: stalled,
                    });
                }
                let inner = self.inner.read();
                match walk::translate(machine, inner.pgd, va, write) {
                    Ok(Some(t)) => {
                        debug_assert!(
                            t.writable || !write,
                            "walker permitted a write without effective write permission"
                        );
                        // Pin the frame for the duration of `op` (GUP-fast).
                        // Faults run under the shared lock, so a sibling
                        // thread's COW can swap this PTE and drop its
                        // reference concurrently with the other sharing
                        // process dropping its own — without a pin the frame
                        // could reach refcount zero and be recycled while
                        // `op` is still copying. Take a reference unless the
                        // page is already dead, then re-walk and require the
                        // same frame with the same compound head: a changed
                        // walk means the pin landed after the translation was
                        // invalidated, so drop it and re-translate.
                        let pool = machine.pool();
                        let head = pool.compound_head(t.frame);
                        if pool.try_ref_inc(head) {
                            let live = matches!(
                                walk::translate(machine, inner.pgd, va, write),
                                Ok(Some(t2)) if t2.frame == t.frame
                                    && pool.compound_head(t2.frame) == head
                            );
                            if live {
                                op(t.frame, page_off, done..done + piece, pool);
                                pool.ref_dec(head);
                                break;
                            }
                            pool.ref_dec(head);
                        }
                    }
                    // A table the walk read was freed or re-pointed meanwhile.
                    Err(walk::Raced) => {}
                    Ok(None) => {
                        if faults > 0 {
                            machine.stats().fault_retries.bump();
                        }
                        faults += 1;
                        machine.stats().faults_shared_lock.bump();
                        if handler(machine, &inner, va, write)? == FaultKind::Spurious {
                            stalled += 1;
                        } else {
                            stalled = 0;
                        }
                        continue;
                    }
                }
                // Benign race: a concurrent COW invalidated the
                // translation between the walk and the pin, or a table
                // the walk read. Counted against the retry bound so a
                // buggy walk cannot spin forever, but no fault handler
                // runs — the next iteration simply re-translates.
                machine.stats().access_pin_retries.bump();
                stalled += 1;
            }
            done += piece;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::MapParams;
    use std::sync::Arc;

    #[test]
    fn retry_exhaustion_returns_typed_error() {
        let machine = Machine::new(16 << 20);
        let mm = Mm::new(Arc::clone(&machine)).unwrap();
        let addr = mm.mmap(PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();

        // A handler that claims success without ever establishing the
        // translation: the loop must bail out with the typed error rather
        // than asserting or spinning.
        let mut op =
            |_: odf_pmem::FrameId, _: usize, _: std::ops::Range<usize>, _: &odf_pmem::FramePool| {};
        let err = mm
            .access_with_handler(addr, 1, true, &mut op, &|_, _, _, _| {
                Ok(FaultKind::Spurious)
            })
            .unwrap_err();
        assert_eq!(
            err,
            VmError::FaultRetriesExhausted {
                addr,
                retries: MAX_FAULT_RETRIES,
            }
        );

        // The retry counter saw every re-iteration after the first fault.
        let snap = machine.stats().snapshot();
        assert_eq!(snap.fault_retries, MAX_FAULT_RETRIES as u64 - 1);
        assert_eq!(snap.faults_shared_lock, MAX_FAULT_RETRIES as u64);
    }

    #[test]
    fn real_handler_establishes_translation_first_try() {
        let machine = Machine::new(16 << 20);
        let mm = Mm::new(Arc::clone(&machine)).unwrap();
        let addr = mm.mmap(PAGE_SIZE as u64, MapParams::anon_rw()).unwrap();
        mm.write(addr, &[0xAB; 64]).unwrap();
        let mut back = [0u8; 64];
        mm.read(addr, &mut back).unwrap();
        assert_eq!(back, [0xAB; 64]);
        assert_eq!(machine.stats().snapshot().fault_retries, 0);
    }

    fn mm_with(bytes: u64, params: MapParams) -> (Arc<Machine>, Mm, u64) {
        let machine = Machine::new(16 << 20);
        let mm = Mm::new(Arc::clone(&machine)).unwrap();
        let addr = mm.mmap(bytes, params).unwrap();
        (machine, mm, addr)
    }

    #[test]
    fn a_view_stops_at_the_page_end() {
        let page = PAGE_SIZE as u64;
        let (_machine, mm, addr) = mm_with(2 * page, MapParams::anon_rw());
        let bytes: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        mm.write(addr, &bytes).unwrap();
        let at = PAGE_SIZE - 10;
        let view = mm.read_with(addr + at as u64, 100, <[u8]>::to_vec).unwrap();
        assert_eq!(view, &bytes[at..PAGE_SIZE]);
        let view = mm.read_with(addr + at as u64, 4, <[u8]>::to_vec).unwrap();
        assert_eq!(view, &bytes[at..at + 4]);
        let view = mm
            .read_with(addr + page, usize::MAX, <[u8]>::to_vec)
            .unwrap();
        assert_eq!(view, &bytes[PAGE_SIZE..]);
        assert_eq!(mm.read_with(addr, 0, <[u8]>::len).unwrap(), 0);
    }

    #[test]
    fn a_never_touched_page_demand_faults_once_and_reads_zeros() {
        let (machine, mm, addr) = mm_with(PAGE_SIZE as u64, MapParams::anon_rw());
        let faults = || machine.stats().snapshot().faults;
        let before = faults();
        let zeros = |b: &[u8]| b.len() == PAGE_SIZE && b.iter().all(|&x| x == 0);
        assert!(mm.read_with(addr, PAGE_SIZE, zeros).unwrap());
        assert_eq!(faults() - before, 1);
        assert!(mm.read_with(addr, PAGE_SIZE, zeros).unwrap());
        assert_eq!(faults() - before, 1, "the second view hits");
    }

    #[test]
    fn an_unmapped_or_out_of_range_view_faults() {
        let (_machine, mm, addr) = mm_with(PAGE_SIZE as u64, MapParams::anon_rw());
        let unmapped = addr + PAGE_SIZE as u64;
        for at in [unmapped, VirtAddr::LIMIT, VirtAddr::LIMIT + 5, u64::MAX] {
            assert_eq!(
                mm.read_with(at, 8, |_| ()),
                Err(VmError::Fault {
                    addr: at,
                    write: false
                }),
                "{at:#x}"
            );
        }
    }

    #[test]
    fn a_huge_page_is_viewed_at_its_sub_frame() {
        let huge = crate::HUGE_PAGE_SIZE as u64;
        let (_machine, mm, addr) = mm_with(huge, MapParams::anon_rw_huge());
        let at = addr + 7 * PAGE_SIZE as u64 + 100;
        mm.write(at, b"sub-frame seven").unwrap();
        mm.write(at - PAGE_SIZE as u64, b"sub-frame six").unwrap();
        let view = mm.read_with(at, 15, <[u8]>::to_vec).unwrap();
        assert_eq!(view, b"sub-frame seven");
        let end = addr + 8 * PAGE_SIZE as u64;
        assert_eq!(
            mm.read_with(at, usize::MAX, <[u8]>::len).unwrap() as u64,
            end - at
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "from inside a read_with view")]
    fn an_access_from_inside_a_view_panics() {
        let (_machine, mm, addr) = mm_with(PAGE_SIZE as u64, MapParams::anon_rw());
        mm.write_u64(addr, 1).unwrap();
        let _ = mm.read_with(addr, 8, |_| mm.read_u64(addr));
    }
}
