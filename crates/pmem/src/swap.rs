//! The swap tier: compressed page-out storage behind the frame pool.
//!
//! Under memory pressure the reclaim subsystem evicts cold anonymous pages
//! out of the [`crate::FramePool`] into a *swap slot* — an index into a
//! [`SwapMap`], whose storage is a [`CompressedStore`] (the zswap
//! analog). The page-table layer encodes the slot in a non-present *swap
//! entry* PTE; a later fault reads the data back and releases the slot.
//!
//! Slot lifetime mirrors the kernel's `swap_map` counts: each physical PTE
//! copy holding a swap entry owns one reference on the slot (a classic fork
//! copies swap entries into the child, a table COW duplicates every swap
//! entry in the copied table), and the slot's storage is released when the
//! last reference drops — at swap-in or at unmap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::frame::PAGE_SIZE;

/// Compressed in-memory page store — the zswap analog.
///
/// Pages are run-length encoded before storage: evicted pages in the
/// simulation are dominated by zero runs and small working-set writes, so
/// RLE captures the "compressed pool much smaller than the pages it holds"
/// property that makes zswap worthwhile, without pulling in a compression
/// dependency. Incompressible pages are stored raw (never more than one
/// byte of overhead), so the pool is bounded by `pages * (PAGE_SIZE + 1)`.
#[derive(Default)]
struct CompressedStore {
    store: Mutex<HashMap<u32, Box<[u8]>>>,
}

/// Leading tag byte of a stored buffer: run-length encoded payload.
const TAG_RLE: u8 = 0;
/// Leading tag byte of a stored buffer: raw page bytes (incompressible).
const TAG_RAW: u8 = 1;

impl CompressedStore {
    fn compress(data: &[u8]) -> Box<[u8]> {
        // (run_length, byte) pairs; runs cap at 255.
        let mut out = Vec::with_capacity(64);
        out.push(TAG_RLE);
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while run < 255 && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
            if out.len() > data.len() {
                // Incompressible: fall back to a raw copy so storage never
                // exceeds one page plus the tag byte.
                let mut raw = Vec::with_capacity(data.len() + 1);
                raw.push(TAG_RAW);
                raw.extend_from_slice(data);
                return raw.into_boxed_slice();
            }
        }
        out.into_boxed_slice()
    }

    fn decompress(stored: &[u8], out: &mut [u8]) {
        match stored[0] {
            TAG_RAW => out.copy_from_slice(&stored[1..]),
            TAG_RLE => {
                let mut pos = 0usize;
                for pair in stored[1..].chunks_exact(2) {
                    let (run, b) = (pair[0] as usize, pair[1]);
                    out[pos..pos + run].fill(b);
                    pos += run;
                }
                assert_eq!(pos, out.len(), "corrupt RLE payload");
            }
            tag => panic!("corrupt swap payload tag {tag}"),
        }
    }

    /// Stores one page of data under `slot`, replacing any prior contents.
    fn write(&self, slot: u32, data: &[u8]) {
        self.store
            .lock()
            .unwrap()
            .insert(slot, Self::compress(data));
    }

    /// Reads the page stored under `slot` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the slot has no stored data (a [`SwapMap`] accounting bug).
    fn read(&self, slot: u32, out: &mut [u8]) {
        let store = self.store.lock().unwrap();
        let stored = store
            .get(&slot)
            .unwrap_or_else(|| panic!("swap slot {slot} read before write"));
        Self::decompress(stored, out);
    }

    /// Releases the storage held for `slot`.
    fn free(&self, slot: u32) {
        self.store.lock().unwrap().remove(&slot);
    }
}

/// Per-slot reference counts plus the free-slot list.
#[derive(Default)]
struct SlotTable {
    /// Reference count per slot ever handed out; 0 = free.
    refs: Vec<u16>,
    /// Freed slot ids available for reuse.
    free: Vec<u32>,
}

/// The swap-slot map: allocation, reference counting, and data routing for
/// evicted pages — the `swap_map` + `swap_info_struct` analog.
///
/// Thread-safe; shared via `Arc` between the reclaim daemon and every
/// faulting process. Slot data goes to the store outside the slot lock, so
/// concurrent swap-ins do not serialize on the slot table.
#[derive(Default)]
pub struct SwapMap {
    store: CompressedStore,
    slots: Mutex<SlotTable>,
    swap_outs: AtomicU64,
    swap_ins: AtomicU64,
}

impl SwapMap {
    /// Allocates a slot with reference count 1 and stores one page of data
    /// in it. Returns the slot id to encode into the swap-entry PTE.
    pub fn alloc_slot(&self, data: &[u8]) -> u32 {
        assert_eq!(data.len(), PAGE_SIZE, "swap slots hold whole pages");
        let slot = {
            let mut t = self.slots.lock().unwrap();
            match t.free.pop() {
                Some(s) => {
                    t.refs[s as usize] = 1;
                    s
                }
                None => {
                    t.refs.push(1);
                    (t.refs.len() - 1) as u32
                }
            }
        };
        self.store.write(slot, data);
        self.swap_outs.fetch_add(1, Ordering::Relaxed);
        slot
    }

    /// Reads the page stored in `slot` into `out` (swap-in data path).
    /// Does not change the slot's reference count.
    pub fn read(&self, slot: u32, out: &mut [u8]) {
        assert_eq!(out.len(), PAGE_SIZE, "swap slots hold whole pages");
        debug_assert!(self.ref_count(slot) > 0, "read of a free swap slot");
        self.store.read(slot, out);
        self.swap_ins.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes one more reference on a live slot — called when a swap-entry
    /// PTE is duplicated (classic fork copy, shared-table COW).
    pub fn slot_get(&self, slot: u32) {
        let mut t = self.slots.lock().unwrap();
        let r = &mut t.refs[slot as usize];
        assert!(*r > 0, "slot_get on free swap slot {slot}");
        *r += 1;
    }

    /// Drops one reference; frees the slot's storage when it reaches zero
    /// (swap-in consumed the data, or the last mapping was unmapped).
    /// Returns whether the slot was freed.
    pub fn slot_put(&self, slot: u32) -> bool {
        let freed = {
            let mut t = self.slots.lock().unwrap();
            let r = &mut t.refs[slot as usize];
            assert!(*r > 0, "slot_put on free swap slot {slot}");
            *r -= 1;
            *r == 0
        };
        if freed {
            // The payload is freed outside the slot lock, so the slot must
            // not become allocatable until that is done: push to the free
            // list only afterwards, or a concurrent `alloc_slot` could
            // reuse the id and have its freshly written payload deleted by
            // this late free.
            self.store.free(slot);
            self.slots.lock().unwrap().free.push(slot);
        }
        freed
    }

    /// Current reference count of a slot (0 = free).
    pub fn ref_count(&self, slot: u32) -> u16 {
        self.slots.lock().unwrap().refs[slot as usize]
    }

    /// Slots currently live (the `Swap used` gauge).
    pub fn used_slots(&self) -> usize {
        let t = self.slots.lock().unwrap();
        t.refs.len() - t.free.len()
    }

    /// Pages ever swapped out through this map.
    pub fn swap_outs(&self) -> u64 {
        self.swap_outs.load(Ordering::Relaxed)
    }

    /// Pages ever swapped back in through this map.
    pub fn swap_ins(&self) -> u64 {
        self.swap_ins.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Vec<u8> {
        vec![byte; PAGE_SIZE]
    }

    #[test]
    fn round_trip_through_the_map() {
        let map = SwapMap::default();
        let mut data = page_of(0);
        data[17] = 0xAB;
        data[PAGE_SIZE - 1] = 0xCD;
        let slot = map.alloc_slot(&data);
        let mut out = page_of(0xFF);
        map.read(slot, &mut out);
        assert_eq!(out, data);
        assert_eq!(map.used_slots(), 1);
        assert!(map.slot_put(slot));
        assert_eq!(map.used_slots(), 0);
        assert_eq!(map.swap_outs(), 1);
        assert_eq!(map.swap_ins(), 1);
    }

    #[test]
    fn slots_are_reference_counted_and_reused() {
        let map = SwapMap::default();
        let a = map.alloc_slot(&page_of(1));
        map.slot_get(a);
        assert_eq!(map.ref_count(a), 2);
        assert!(!map.slot_put(a));
        assert!(map.slot_put(a));
        // The freed id is recycled before a fresh one is minted.
        let b = map.alloc_slot(&page_of(2));
        assert_eq!(b, a);
        let c = map.alloc_slot(&page_of(3));
        assert_ne!(c, b);
        let mut out = page_of(0);
        map.read(b, &mut out);
        assert_eq!(out[0], 2);
        map.slot_put(b);
        map.slot_put(c);
        assert_eq!(map.used_slots(), 0);
    }

    #[test]
    fn compressed_backend_shrinks_sparse_pages_and_survives_noise() {
        let be = CompressedStore::default();
        let stored = |slot| be.store.lock().unwrap().get(&slot).map_or(0, |b| b.len());
        // A near-zero page compresses far below PAGE_SIZE...
        let mut sparse = page_of(0);
        sparse[100] = 7;
        be.write(0, &sparse);
        assert!(stored(0) < 256, "{} bytes", stored(0));
        // ...and an incompressible page is stored raw, bounded at +1 byte.
        let noisy: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 131 + i / 7) as u8).collect();
        be.write(1, &noisy);
        assert!(stored(1) <= PAGE_SIZE + 1);
        let mut out = page_of(0);
        be.read(0, &mut out);
        assert_eq!(out, sparse);
        be.read(1, &mut out);
        assert_eq!(out[..], noisy[..]);
        be.free(0);
        be.free(1);
        assert!(be.store.lock().unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "slot_put on free swap slot")]
    fn double_put_is_detected() {
        let map = SwapMap::default();
        let s = map.alloc_slot(&page_of(0));
        map.slot_put(s);
        map.slot_put(s);
    }
}
