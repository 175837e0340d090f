//! The hash table in simulated memory.

use odf_core::{Process, Result, UserHeap, VmError};

/// Layout of the table header, at `Store::header`:
///
/// ```text
/// +0   bucket count (u64, power of two)
/// +8   item count   (u64)
/// +16  address of the bucket array (u64)
/// ```
/// Bucket array: `bucket_count` u64 slots, each the address of the first
/// entry in the chain (0 = empty).
///
/// Entry block layout (one heap allocation per entry):
///
/// ```text
/// +0   next entry address (u64, 0 = end of chain)
/// +8   key length   (u32)
/// +12  value length (u32)
/// +16  key bytes, then value bytes
/// ```
const HDR_BUCKETS: u64 = 0;
const HDR_ITEMS: u64 = 8;
const HDR_ARRAY: u64 = 16;
const HEADER_SIZE: u64 = 24;

const ENT_NEXT: u64 = 0;
const ENT_KLEN: u64 = 8;
const ENT_VLEN: u64 = 12;
const ENT_DATA: u64 = 16;

/// Bytes one chain probe reads from an entry: the header plus up to
/// `PROBE - ENT_DATA` key bytes, in one access. A probe must stay inside
/// its entry's heap block even when the stored key is shorter than the one
/// looked up, so this may not exceed the block of the smallest entry (a
/// 1-byte key and an empty value); `smallest_entry_holds_a_probe` checks
/// that against the heap's size classes.
const PROBE: usize = 32;

/// Bucket slots [`Store::serialize`] reads per access: one page's worth.
const SERIALIZE_BUCKETS: u64 = 512;

fn u64_at(bytes: &[u8], at: u64) -> u64 {
    let at = at as usize;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn u32_at(bytes: &[u8], at: u64) -> u32 {
    let at = at as usize;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Whether the bytes stored at `at` equal `bytes`, compared a stack buffer
/// at a time.
fn stored_equals(proc: &Process, mut at: u64, bytes: &[u8]) -> Result<bool> {
    let mut buf = [0u8; PROBE];
    for part in bytes.chunks(PROBE) {
        let stored = &mut buf[..part.len()];
        proc.read(at, stored)?;
        if stored != part {
            return Ok(false);
        }
        at += part.len() as u64;
    }
    Ok(true)
}

/// A chained hash table whose every byte lives in simulated process
/// memory.
///
/// The handle holds only addresses; operations take the [`Process`] whose
/// address space to operate in. After a fork, the *same* handle used with
/// the child process reads the child's copy-on-write image — which is how
/// the snapshot serializer sees a frozen point-in-time view.
#[derive(Clone, Copy, Debug)]
pub struct Store {
    heap: UserHeap,
    header: u64,
}

impl Store {
    /// Creates an empty store with its own heap.
    ///
    /// `heap_capacity` bounds the dataset size; `buckets` is rounded up to
    /// a power of two.
    pub fn create(proc: &Process, heap_capacity: u64, buckets: u64) -> Result<Store> {
        let heap = UserHeap::create(proc, heap_capacity)?;
        let buckets = buckets.next_power_of_two().max(16);
        let header = heap.alloc(proc, HEADER_SIZE)?;
        let array = heap.alloc(proc, buckets * 8)?;
        proc.write_u64(header + HDR_BUCKETS, buckets)?;
        proc.write_u64(header + HDR_ITEMS, 0)?;
        proc.write_u64(header + HDR_ARRAY, array)?;
        // Zero the bucket array.
        proc.fill(array, (buckets * 8) as usize, 0)?;
        Ok(Store { heap, header })
    }

    /// The heap backing this store.
    pub fn heap(&self) -> UserHeap {
        self.heap
    }

    /// Address of the table header inside the heap.
    pub fn header_addr(&self) -> u64 {
        self.header
    }

    /// Re-creates a handle onto a store that already lives in a process's
    /// address space — the durability path uses this after a snapshot
    /// restore rebuilds the memory image byte-for-byte (the handle holds
    /// only addresses, so the geometry round-trips through the chain
    /// manifest).
    pub fn attach(heap: UserHeap, header: u64) -> Store {
        Store { heap, header }
    }

    fn hash(key: &[u8]) -> u64 {
        // FNV-1a.
        let mut h = 0xcbf29ce484222325u64;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    fn bucket_addr(&self, proc: &Process, key: &[u8]) -> Result<u64> {
        let mut header = [0u8; HEADER_SIZE as usize];
        proc.read(self.header, &mut header)?;
        let buckets = u64_at(&header, HDR_BUCKETS);
        let array = u64_at(&header, HDR_ARRAY);
        Ok(array + (Self::hash(key) & (buckets - 1)) * 8)
    }

    /// Finds `key`, returning the address and length of its value.
    ///
    /// Each probe of the chain is one access: the entry header and the
    /// first key bytes together (see [`PROBE`]). Only an entry whose key
    /// length and leading bytes match reads the rest of its key, through a
    /// stack buffer; no value is read.
    pub(crate) fn lookup(&self, proc: &Process, key: &[u8]) -> Result<Option<(u64, usize)>> {
        let bucket = self.bucket_addr(proc, key)?;
        let (head, tail) = key.split_at(key.len().min(PROBE - ENT_DATA as usize));
        let mut probe = [0u8; PROBE];
        let probe = &mut probe[..ENT_DATA as usize + head.len()];
        let mut at = proc.read_u64(bucket)?;
        while at != 0 {
            proc.read(at, probe)?;
            if u32_at(probe, ENT_KLEN) as usize == key.len()
                && probe[ENT_DATA as usize..] == *head
                && stored_equals(proc, at + ENT_DATA + head.len() as u64, tail)?
            {
                let value = at + ENT_DATA + key.len() as u64;
                return Ok(Some((value, u32_at(probe, ENT_VLEN) as usize)));
            }
            at = u64_at(probe, ENT_NEXT);
        }
        Ok(None)
    }

    /// Number of items.
    pub fn len(&self, proc: &Process) -> Result<u64> {
        proc.read_u64(self.header + HDR_ITEMS)
    }

    /// Whether the store holds no items.
    pub fn is_empty(&self, proc: &Process) -> Result<bool> {
        Ok(self.len(proc)? == 0)
    }

    /// Inserts or replaces a key.
    pub fn set(&self, proc: &Process, key: &[u8], value: &[u8]) -> Result<()> {
        if key.is_empty() || key.len() > u32::MAX as usize || value.len() > u32::MAX as usize {
            return Err(VmError::InvalidArgument);
        }
        // Replace = delete + insert at chain head (Redis semantics: SET
        // overwrites).
        self.del(proc, key)?;
        let bucket = self.bucket_addr(proc, key)?;
        let head = proc.read_u64(bucket)?;
        let entry = self
            .heap
            .alloc(proc, ENT_DATA + key.len() as u64 + value.len() as u64)?;
        proc.write_u64(entry + ENT_NEXT, head)?;
        proc.write_u32(entry + ENT_KLEN, key.len() as u32)?;
        proc.write_u32(entry + ENT_VLEN, value.len() as u32)?;
        proc.write(entry + ENT_DATA, key)?;
        proc.write(entry + ENT_DATA + key.len() as u64, value)?;
        proc.write_u64(bucket, entry)?;
        let items = proc.read_u64(self.header + HDR_ITEMS)?;
        proc.write_u64(self.header + HDR_ITEMS, items + 1)?;
        Ok(())
    }

    /// Looks a key up.
    pub fn get(&self, proc: &Process, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.lookup(proc, key)?
            .map(|(value, len)| proc.read_vec(value, len))
            .transpose()
    }

    /// Removes a key, returning whether it existed.
    pub fn del(&self, proc: &Process, key: &[u8]) -> Result<bool> {
        // This walk keeps its field-at-a-time reads instead of `lookup`'s
        // probe on purpose. `set` is a `del` plus an insert, so a faster
        // walk here speeds up every write, and on the durable workload
        // peak RSS grows with write throughput (`CrashFs` keeps every byte
        // ever written): see DESIGN.md §11, "GET path".
        let bucket = self.bucket_addr(proc, key)?;
        let mut prev: Option<u64> = None;
        let mut at = proc.read_u64(bucket)?;
        while at != 0 {
            let klen = proc.read_u32(at + ENT_KLEN)? as usize;
            let next = proc.read_u64(at + ENT_NEXT)?;
            if klen == key.len() && proc.read_vec(at + ENT_DATA, klen)? == key {
                match prev {
                    Some(p) => proc.write_u64(p + ENT_NEXT, next)?,
                    None => proc.write_u64(bucket, next)?,
                }
                self.heap.free(proc, at)?;
                let items = proc.read_u64(self.header + HDR_ITEMS)?;
                proc.write_u64(self.header + HDR_ITEMS, items - 1)?;
                return Ok(true);
            }
            prev = Some(at);
            at = next;
        }
        Ok(false)
    }

    /// Whether a key exists (`EXISTS`).
    pub fn exists(&self, proc: &Process, key: &[u8]) -> Result<bool> {
        Ok(self.lookup(proc, key)?.is_some())
    }

    /// The value `INCR key` would store: a missing key counts as 0; a
    /// non-integer value or an overflow is `InvalidArgument`. The durable
    /// server validates with this before journaling, so the check it runs
    /// is the one replay runs.
    pub fn next_incr(&self, proc: &Process, key: &[u8]) -> Result<i64> {
        let current = match self.get(proc, key)? {
            None => 0,
            Some(bytes) => std::str::from_utf8(&bytes)
                .ok()
                .and_then(|s| s.parse::<i64>().ok())
                .ok_or(VmError::InvalidArgument)?,
        };
        current.checked_add(1).ok_or(VmError::InvalidArgument)
    }

    /// Increments the integer value of a key (`INCR`), returning the new
    /// value.
    pub fn incr(&self, proc: &Process, key: &[u8]) -> Result<i64> {
        let next = self.next_incr(proc, key)?;
        self.set(proc, key, next.to_string().as_bytes())?;
        Ok(next)
    }

    /// Appends bytes to a key's value (`APPEND`), creating it if missing.
    /// Returns the new value length.
    pub fn append(&self, proc: &Process, key: &[u8], suffix: &[u8]) -> Result<usize> {
        let mut value = self.get(proc, key)?.unwrap_or_default();
        value.extend_from_slice(suffix);
        let len = value.len();
        self.set(proc, key, &value)?;
        Ok(len)
    }

    /// Serializes the full store (the RDB dump analog), walking the image
    /// visible to `proc` — for a forked child, the frozen COW snapshot.
    ///
    /// Format: `[item count: u64]` then per item
    /// `[klen: u32][vlen: u32][key][value]`.
    ///
    /// Two accesses per item: the entry header, then key and value straight
    /// into the dump (an entry's length fields are already the dump's item
    /// header). The bucket array is read [`SERIALIZE_BUCKETS`] slots at a
    /// time.
    pub fn serialize(&self, proc: &Process) -> Result<Vec<u8>> {
        let mut header = [0u8; HEADER_SIZE as usize];
        proc.read(self.header, &mut header)?;
        let buckets = u64_at(&header, HDR_BUCKETS);
        let items = u64_at(&header, HDR_ITEMS);
        let array = u64_at(&header, HDR_ARRAY);
        let mut out = Vec::with_capacity(64 + items as usize * 32);
        out.extend_from_slice(&items.to_le_bytes());
        let mut heads = [0u8; SERIALIZE_BUCKETS as usize * 8];
        let mut entry = [0u8; ENT_DATA as usize];
        for first in (0..buckets).step_by(SERIALIZE_BUCKETS as usize) {
            let heads = &mut heads[..(buckets - first).min(SERIALIZE_BUCKETS) as usize * 8];
            proc.read(array + first * 8, heads)?;
            for head in heads.chunks_exact(8) {
                let mut at = u64_at(head, 0);
                while at != 0 {
                    proc.read(at, &mut entry)?;
                    out.extend_from_slice(&entry[ENT_KLEN as usize..ENT_DATA as usize]);
                    let len = u32_at(&entry, ENT_KLEN) as usize + u32_at(&entry, ENT_VLEN) as usize;
                    let from = out.len();
                    out.resize(from + len, 0);
                    proc.read(at + ENT_DATA, &mut out[from..])?;
                    at = u64_at(&entry, ENT_NEXT);
                }
            }
        }
        Ok(out)
    }

    /// Rebuilds a store from a serialized dump (recovery).
    ///
    /// A dump that is cut short, or runs on past its last item, is
    /// [`VmError::InvalidArgument`]; it is checked whole before the store
    /// is created.
    pub fn restore(proc: &Process, heap_capacity: u64, buckets: u64, dump: &[u8]) -> Result<Store> {
        let entries = parse_dump(dump).ok_or(VmError::InvalidArgument)?;
        let store = Store::create(proc, heap_capacity, buckets)?;
        for (key, value) in entries {
            store.set(proc, key, value)?;
        }
        Ok(store)
    }
}

/// The `(key, value)` items of a [`Store::serialize`] dump, or `None` when
/// its length disagrees with what its item count and lengths announce.
fn parse_dump(dump: &[u8]) -> Option<Vec<(&[u8], &[u8])>> {
    let (items, mut rest) = dump.split_first_chunk::<8>()?;
    let mut entries = Vec::new();
    for _ in 0..u64::from_le_bytes(*items) {
        let (klen, after) = rest.split_first_chunk::<4>()?;
        let (vlen, after) = after.split_first_chunk::<4>()?;
        let klen = u32::from_le_bytes(*klen) as usize;
        let vlen = u32::from_le_bytes(*vlen) as usize;
        if after.len() < klen + vlen {
            return None;
        }
        let (key, after) = after.split_at(klen);
        let (value, after) = after.split_at(vlen);
        entries.push((key, value));
        rest = after;
    }
    rest.is_empty().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_core::{ForkPolicy, Kernel};

    fn setup() -> (std::sync::Arc<Kernel>, Process, Store) {
        let k = Kernel::new(128 << 20);
        let p = k.spawn().unwrap();
        let s = Store::create(&p, 32 << 20, 256).unwrap();
        (k, p, s)
    }

    #[test]
    fn set_get_del_round_trip() {
        let (_k, p, s) = setup();
        assert_eq!(s.get(&p, b"missing").unwrap(), None);
        s.set(&p, b"alpha", b"1").unwrap();
        s.set(&p, b"beta", b"2").unwrap();
        assert_eq!(s.get(&p, b"alpha").unwrap().unwrap(), b"1");
        assert_eq!(s.get(&p, b"beta").unwrap().unwrap(), b"2");
        assert_eq!(s.len(&p).unwrap(), 2);
        assert!(s.del(&p, b"alpha").unwrap());
        assert!(!s.del(&p, b"alpha").unwrap());
        assert_eq!(s.get(&p, b"alpha").unwrap(), None);
        assert_eq!(s.len(&p).unwrap(), 1);
    }

    #[test]
    fn set_overwrites() {
        let (_k, p, s) = setup();
        s.set(&p, b"k", b"first").unwrap();
        s.set(&p, b"k", b"second-value").unwrap();
        assert_eq!(s.get(&p, b"k").unwrap().unwrap(), b"second-value");
        assert_eq!(s.len(&p).unwrap(), 1);
    }

    #[test]
    fn collisions_chain_correctly() {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        // 16 buckets force heavy chaining across 500 keys.
        let s = Store::create(&p, 16 << 20, 1).unwrap();
        for i in 0..500u32 {
            s.set(&p, format!("key-{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert_eq!(s.len(&p).unwrap(), 500);
        for i in (0..500u32).rev() {
            assert_eq!(
                s.get(&p, format!("key-{i}").as_bytes()).unwrap().unwrap(),
                i.to_le_bytes()
            );
        }
        // Delete the middle of chains.
        for i in (0..500u32).step_by(3) {
            assert!(s.del(&p, format!("key-{i}").as_bytes()).unwrap());
        }
        for i in 0..500u32 {
            let present = s.get(&p, format!("key-{i}").as_bytes()).unwrap().is_some();
            assert_eq!(present, i % 3 != 0, "key-{i}");
        }
    }

    #[test]
    fn serialize_restore_preserves_content() {
        let (_k, p, s) = setup();
        for i in 0..100u32 {
            s.set(
                &p,
                format!("k{i}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        let dump = s.serialize(&p).unwrap();
        let k2 = Kernel::new(128 << 20);
        let p2 = k2.spawn().unwrap();
        let s2 = Store::restore(&p2, 32 << 20, 256, &dump).unwrap();
        assert_eq!(s2.len(&p2).unwrap(), 100);
        for i in 0..100u32 {
            assert_eq!(
                s2.get(&p2, format!("k{i}").as_bytes()).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn serialize_matches_a_field_at_a_time_walk_across_bucket_blocks() {
        // Buckets span several SERIALIZE_BUCKETS blocks and chains run
        // several entries deep; the dump must be the bytes a walk that reads
        // each field on its own produces, for the parent and a forked child.
        let k = Kernel::new(128 << 20);
        let p = k.spawn().unwrap();
        let s = Store::create(&p, 32 << 20, 4 * SERIALIZE_BUCKETS + 1).unwrap();
        for i in 0..20_000u32 {
            let value = "v".repeat(i as usize % 300);
            s.set(&p, format!("key-{i}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
        s.set(&p, b"key-7", b"after the fork").unwrap();
        for proc in [&p, &child] {
            let buckets = proc.read_u64(s.header + HDR_BUCKETS).unwrap();
            let array = proc.read_u64(s.header + HDR_ARRAY).unwrap();
            let mut expected = proc
                .read_u64(s.header + HDR_ITEMS)
                .unwrap()
                .to_le_bytes()
                .to_vec();
            for b in 0..buckets {
                let mut at = proc.read_u64(array + b * 8).unwrap();
                while at != 0 {
                    let klen = proc.read_u32(at + ENT_KLEN).unwrap();
                    let vlen = proc.read_u32(at + ENT_VLEN).unwrap();
                    expected.extend_from_slice(&klen.to_le_bytes());
                    expected.extend_from_slice(&vlen.to_le_bytes());
                    expected.extend(
                        proc.read_vec(at + ENT_DATA, (klen + vlen) as usize)
                            .unwrap(),
                    );
                    at = proc.read_u64(at + ENT_NEXT).unwrap();
                }
            }
            assert_eq!(s.serialize(proc).unwrap(), expected);
        }
        assert_eq!(
            parse_dump(&s.serialize(&child).unwrap()).unwrap().len(),
            20_000
        );
        child.exit();
    }

    #[test]
    fn snapshot_is_a_frozen_point_in_time_view() {
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let (_k, p, s) = setup();
            s.set(&p, b"key", b"before").unwrap();
            let child = p.fork_with(policy).unwrap();
            // Parent mutates after the fork...
            s.set(&p, b"key", b"after").unwrap();
            s.set(&p, b"new", b"entry").unwrap();
            // ...the child's image is frozen.
            assert_eq!(s.get(&child, b"key").unwrap().unwrap(), b"before");
            assert_eq!(s.get(&child, b"new").unwrap(), None);
            let dump = s.serialize(&child).unwrap();
            assert!(
                dump.windows(6).any(|w| w == b"before"),
                "{policy:?}: snapshot holds pre-fork value"
            );
            assert!(!dump.windows(5).any(|w| w == b"after"), "{policy:?}");
        }
    }

    #[test]
    fn exists_incr_append_semantics() {
        let (_k, p, s) = setup();
        assert!(!s.exists(&p, b"ctr").unwrap());
        assert_eq!(s.incr(&p, b"ctr").unwrap(), 1);
        assert_eq!(s.incr(&p, b"ctr").unwrap(), 2);
        assert!(s.exists(&p, b"ctr").unwrap());
        assert_eq!(s.get(&p, b"ctr").unwrap().unwrap(), b"2");

        s.set(&p, b"text", b"not-a-number").unwrap();
        assert_eq!(s.incr(&p, b"text"), Err(VmError::InvalidArgument));

        assert_eq!(s.append(&p, b"log", b"hello").unwrap(), 5);
        assert_eq!(s.append(&p, b"log", b", world").unwrap(), 12);
        assert_eq!(s.get(&p, b"log").unwrap().unwrap(), b"hello, world");
        assert_eq!(s.len(&p).unwrap(), 3);
    }

    #[test]
    fn counters_diverge_after_fork() {
        let (_k, p, s) = setup();
        s.incr(&p, b"ctr").unwrap();
        let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
        assert_eq!(s.incr(&p, b"ctr").unwrap(), 2);
        assert_eq!(s.incr(&child, b"ctr").unwrap(), 2);
        assert_eq!(s.incr(&child, b"ctr").unwrap(), 3);
        assert_eq!(s.get(&p, b"ctr").unwrap().unwrap(), b"2");
    }

    #[test]
    fn empty_keys_are_rejected() {
        let (_k, p, s) = setup();
        assert!(s.set(&p, b"", b"v").is_err());
    }

    #[test]
    fn smallest_entry_holds_a_probe() {
        // A probe reads PROBE bytes of an entry whatever its stored key
        // length; a heap class below that would let it read past the block.
        let (_k, p, s) = setup();
        s.set(&p, b"k", b"").unwrap();
        let (value, len) = s.lookup(&p, b"k").unwrap().unwrap();
        assert_eq!(len, 0);
        let entry = value - ENT_DATA - 1;
        assert!(s.heap().size_of(&p, entry).unwrap() >= PROBE as u64);
    }

    #[test]
    fn restore_rejects_a_cut_or_overlong_dump() {
        let (_k, p, s) = setup();
        let items = [(&b"a"[..], &b""[..]), (b"bb", b"22"), (b"ccc", b"333")];
        for (key, value) in items {
            s.set(&p, key, value).unwrap();
        }
        let dump = s.serialize(&p).unwrap();
        for cut in 0..dump.len() {
            assert_eq!(
                Store::restore(&p, 1 << 20, 16, &dump[..cut]).map(|_| ()),
                Err(VmError::InvalidArgument),
                "cut at {cut}"
            );
        }
        let whole = Store::restore(&p, 1 << 20, 16, &dump).unwrap();
        assert_eq!(whole.len(&p).unwrap(), 3);
        for (key, value) in items {
            assert_eq!(whole.get(&p, key).unwrap().unwrap(), value);
        }
        let mut overlong = dump.clone();
        overlong.push(0);
        assert_eq!(
            Store::restore(&p, 1 << 20, 16, &overlong).map(|_| ()),
            Err(VmError::InvalidArgument)
        );
        // An item count past what the bytes hold.
        let mut inflated = dump;
        inflated[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Store::restore(&p, 1 << 20, 16, &inflated).map(|_| ()),
            Err(VmError::InvalidArgument)
        );
    }

    #[test]
    fn large_values_round_trip() {
        let (_k, p, s) = setup();
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        s.set(&p, b"big", &big).unwrap();
        assert_eq!(s.get(&p, b"big").unwrap().unwrap(), big);
    }
}
