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

/// Bucket slots one page holds: [`Store::serialize`] copies the bucket
/// array out one view (one page) at a time.
const SERIALIZE_BUCKETS: usize = odf_core::PAGE_SIZE / 8;

fn u64_at(bytes: &[u8], at: u64) -> u64 {
    let at = at as usize;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn u32_at(bytes: &[u8], at: u64) -> u32 {
    let at = at as usize;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// An entry's header as `(next, key length, value length)`, or `None` when
/// `bytes` ends inside it.
fn entry_header(bytes: &[u8]) -> Option<(u64, usize, usize)> {
    (bytes.len() >= ENT_DATA as usize).then(|| {
        (
            u64_at(bytes, ENT_NEXT),
            u32_at(bytes, ENT_KLEN) as usize,
            u32_at(bytes, ENT_VLEN) as usize,
        )
    })
}

/// Reads the header of the entry at `at` whole: the fallback for a view
/// that ended inside it.
fn read_entry_header(proc: &Process, at: u64) -> Result<(u64, usize, usize)> {
    let mut header = [0u8; ENT_DATA as usize];
    proc.read(at, &mut header)?;
    Ok(entry_header(&header).expect("a whole header"))
}

/// Whether the bytes stored at `at` equal `bytes`, compared one view per
/// page: the fallback for a key that crosses its view's page end.
fn stored_equals(proc: &Process, mut at: u64, mut bytes: &[u8]) -> Result<bool> {
    while !bytes.is_empty() {
        let matched = proc.read_with(at, bytes.len(), |stored| {
            (*stored == bytes[..stored.len()]).then_some(stored.len())
        })?;
        let Some(n) = matched else {
            return Ok(false);
        };
        bytes = &bytes[n..];
        at += n as u64;
    }
    Ok(true)
}

/// A key [`Store::probe`] found.
#[derive(Debug)]
pub(crate) struct Hit {
    /// Address of the value.
    pub value: u64,
    /// Length of the value.
    pub len: usize,
    /// Leading value bytes the probe's view held and handed over; the rest
    /// starts at `value + held`, past the view's page end.
    pub held: usize,
}

/// What one view of a chain entry decided.
enum Step {
    /// Not the key: the next entry's address.
    Next(u64),
    /// The key: its value's length, and how many value bytes the view held.
    Hit(usize, usize),
    /// The view ended inside the header (`None`), or inside the key after
    /// `matched` bytes that equal the key's.
    Split(Option<(u64, usize, usize)>, usize),
}

/// A chained hash table whose every byte lives in simulated process
/// memory.
///
/// The handle holds addresses and the table's geometry, which never
/// changes after [`Store::create`]; operations take the [`Process`] whose
/// address space to operate in. After a fork, the *same* handle used with
/// the child process reads the child's copy-on-write image — which is how
/// the snapshot serializer sees a frozen point-in-time view.
#[derive(Clone, Copy, Debug)]
pub struct Store {
    heap: UserHeap,
    header: u64,
    /// Bucket count minus one (the count is a power of two).
    mask: u64,
    /// Address of the bucket array.
    array: u64,
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
        Ok(Store {
            heap,
            header,
            mask: buckets - 1,
            array,
        })
    }

    /// The heap backing this store.
    pub fn heap(&self) -> UserHeap {
        self.heap
    }

    /// Address of the table header inside the heap.
    pub fn header_addr(&self) -> u64 {
        self.header
    }

    /// Re-creates a handle onto a store that already lives in `proc`'s
    /// address space — the durability path uses this after a snapshot
    /// restore rebuilds the memory image byte-for-byte (the heap and header
    /// addresses round-trip through the chain manifest). Reads the geometry
    /// from the table header, once; a bucket count that is not a power of
    /// two is [`VmError::InvalidArgument`].
    pub fn attach(proc: &Process, heap: UserHeap, header: u64) -> Result<Store> {
        let mut bytes = [0u8; HEADER_SIZE as usize];
        proc.read(header, &mut bytes)?;
        let buckets = u64_at(&bytes, HDR_BUCKETS);
        if !buckets.is_power_of_two() {
            return Err(VmError::InvalidArgument);
        }
        Ok(Store {
            heap,
            header,
            mask: buckets - 1,
            array: u64_at(&bytes, HDR_ARRAY),
        })
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

    /// Address of `key`'s bucket slot: no access, the geometry is in the
    /// handle.
    fn slot(&self, key: &[u8]) -> u64 {
        self.array + (Self::hash(key) & self.mask) * 8
    }

    /// Finds `key`: the one probe routine behind every read.
    ///
    /// One access reads the bucket slot, then one view per chain entry
    /// checks its header, compares the key and, on a hit, hands `take` the
    /// value's length and the value bytes the view holds, all in that
    /// access. `take` runs inside the view, so it must not touch an address
    /// space. Only an entry whose header or key crosses its page end is
    /// finished field by field; a value that crosses it is left to the
    /// caller, from `value + held`.
    pub(crate) fn probe(
        &self,
        proc: &Process,
        key: &[u8],
        take: impl FnOnce(usize, &[u8]),
    ) -> Result<Option<Hit>> {
        let mut take = Some(take);
        let mut at = proc.read_u64(self.slot(key))?;
        while at != 0 {
            let step = proc.read_with(at, usize::MAX, |view| {
                let Some((next, klen, vlen)) = entry_header(view) else {
                    return Step::Split(None, 0);
                };
                if klen != key.len() {
                    return Step::Next(next);
                }
                let stored = &view[ENT_DATA as usize..];
                let held = stored.len().min(klen);
                if stored[..held] != key[..held] {
                    return Step::Next(next);
                }
                if held < klen {
                    return Step::Split(Some((next, klen, vlen)), held);
                }
                let value = &stored[klen..stored.len().min(klen + vlen)];
                take.take().expect("one hit")(vlen, value);
                Step::Hit(vlen, value.len())
            })?;
            let (len, held) = match step {
                Step::Next(next) => {
                    at = next;
                    continue;
                }
                Step::Hit(len, held) => (len, held),
                Step::Split(header, matched) => {
                    let (next, klen, vlen) = match header {
                        Some(header) => header,
                        None => read_entry_header(proc, at)?,
                    };
                    let rest = at + ENT_DATA + matched as u64;
                    if klen != key.len() || !stored_equals(proc, rest, &key[matched..])? {
                        at = next;
                        continue;
                    }
                    take.take().expect("one hit")(vlen, &[]);
                    (vlen, 0)
                }
            };
            let value = at + ENT_DATA + key.len() as u64;
            return Ok(Some(Hit { value, len, held }));
        }
        Ok(None)
    }

    /// Appends `key`'s value to `out` and returns whether the key exists.
    /// `start(out, len)` runs first, to write whatever goes before the
    /// value (a reply header) or to reserve room; it may run inside the
    /// probe's view, so it must not touch an address space.
    ///
    /// The value goes straight from simulated memory into `out`: the part
    /// the probe's view held in that access, the rest (when the value
    /// crosses a page end) in one more read. If that read fails, `out` is
    /// cut back to its length on entry.
    pub(crate) fn get_into(
        &self,
        proc: &Process,
        key: &[u8],
        out: &mut Vec<u8>,
        start: impl FnOnce(&mut Vec<u8>, usize),
    ) -> Result<bool> {
        let from = out.len();
        let found = self.probe(proc, key, |len, held| {
            start(out, len);
            out.extend_from_slice(held);
        })?;
        let Some(hit) = found else {
            return Ok(false);
        };
        let to = out.len();
        out.resize(to + hit.len - hit.held, 0);
        if let Err(e) = proc.read(hit.value + hit.held as u64, &mut out[to..]) {
            out.truncate(from);
            return Err(e);
        }
        Ok(true)
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
        let bucket = self.slot(key);
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
        let mut value = Vec::new();
        let found = self.get_into(proc, key, &mut value, Vec::reserve_exact)?;
        Ok(found.then_some(value))
    }

    /// Removes a key, returning whether it existed.
    pub fn del(&self, proc: &Process, key: &[u8]) -> Result<bool> {
        // This walk keeps its field-at-a-time reads instead of `probe`'s
        // views on purpose. `set` is a `del` plus an insert, so a faster
        // walk here speeds up every write, and on the durable workload
        // peak RSS grows with write throughput: see DESIGN.md §11, "GET
        // path".
        let bucket = self.slot(key);
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
        Ok(self.probe(proc, key, |_, _| ())?.is_some())
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
    /// One view per item: an entry's length fields are already the dump's
    /// item header, so header, key and value go into the dump in the access
    /// that reads the header (`dump_entry`). The bucket array is copied out
    /// one view (up to [`SERIALIZE_BUCKETS`] slots) per page.
    pub fn serialize(&self, proc: &Process) -> Result<Vec<u8>> {
        let items = proc.read_u64(self.header + HDR_ITEMS)?;
        let mut out = Vec::with_capacity(64 + items as usize * 32);
        out.extend_from_slice(&items.to_le_bytes());
        let mut heads = [0u64; SERIALIZE_BUCKETS];
        let end = self.array + (self.mask + 1) * 8;
        let mut slot = self.array;
        while slot < end {
            // Slots are 8-byte aligned, so none crosses a page end.
            let n = proc.read_with(slot, (end - slot) as usize, |view| {
                for (head, bytes) in heads.iter_mut().zip(view.chunks_exact(8)) {
                    *head = u64_at(bytes, 0);
                }
                view.len() / 8
            })?;
            for &head in &heads[..n] {
                let mut at = head;
                while at != 0 {
                    at = Self::dump_entry(proc, at, &mut out)?;
                }
            }
            slot += n as u64 * 8;
        }
        Ok(out)
    }

    /// Appends the entry at `at` to a dump as `[klen][vlen][key][value]` and
    /// returns the next entry's address. One view copies whatever of the
    /// entry it holds; only an entry that crosses its page end reads the
    /// rest (and a header cut by the page end is read whole).
    fn dump_entry(proc: &Process, at: u64, out: &mut Vec<u8>) -> Result<u64> {
        let from = out.len();
        let viewed = proc.read_with(at, usize::MAX, |view| {
            let (next, klen, vlen) = entry_header(view)?;
            let item = &view[ENT_KLEN as usize..];
            out.extend_from_slice(&item[..item.len().min(8 + klen + vlen)]);
            Some((next, klen, vlen))
        })?;
        let (next, klen, vlen) = match viewed {
            Some(header) => header,
            None => {
                let header = read_entry_header(proc, at)?;
                out.extend_from_slice(&(header.1 as u32).to_le_bytes());
                out.extend_from_slice(&(header.2 as u32).to_le_bytes());
                header
            }
        };
        let have = out.len() - from;
        out.resize(from + 8 + klen + vlen, 0);
        proc.read(at + ENT_KLEN + have as u64, &mut out[from + have..])?;
        Ok(next)
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

    /// The `(key, value)` entries of the chain `s` hashes `key` to, or of
    /// bucket `bucket` when `key` is `None`, each field read on its own:
    /// the oracle the views are checked against.
    fn oracle_chain(
        s: &Store,
        proc: &Process,
        bucket: Option<u64>,
        key: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let buckets = proc.read_u64(s.header + HDR_BUCKETS).unwrap();
        let array = proc.read_u64(s.header + HDR_ARRAY).unwrap();
        let bucket = bucket.unwrap_or(Store::hash(key) & (buckets - 1));
        let mut at = proc.read_u64(array + bucket * 8).unwrap();
        let mut entries = Vec::new();
        while at != 0 {
            let klen = proc.read_u32(at + ENT_KLEN).unwrap() as usize;
            let vlen = proc.read_u32(at + ENT_VLEN).unwrap() as usize;
            let key = proc.read_vec(at + ENT_DATA, klen).unwrap();
            let value = proc.read_vec(at + ENT_DATA + klen as u64, vlen).unwrap();
            entries.push((key, value));
            at = proc.read_u64(at + ENT_NEXT).unwrap();
        }
        entries
    }

    fn oracle_get(s: &Store, proc: &Process, key: &[u8]) -> Option<Vec<u8>> {
        oracle_chain(s, proc, None, key)
            .into_iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The dump a walk that reads each field on its own produces.
    fn oracle_dump(s: &Store, proc: &Process) -> Vec<u8> {
        let mut dump = proc
            .read_u64(s.header + HDR_ITEMS)
            .unwrap()
            .to_le_bytes()
            .to_vec();
        for bucket in 0..proc.read_u64(s.header + HDR_BUCKETS).unwrap() {
            for (key, value) in oracle_chain(s, proc, Some(bucket), b"") {
                dump.extend_from_slice(&(key.len() as u32).to_le_bytes());
                dump.extend_from_slice(&(value.len() as u32).to_le_bytes());
                dump.extend(key);
                dump.extend(value);
            }
        }
        dump
    }

    /// `GET key` through the command table, the reply's payload decoded.
    fn wire_get(s: Store, proc: &Process, key: &[u8]) -> Option<Vec<u8>> {
        let argv: [&[u8]; 2] = [b"GET", key];
        let mut out = crate::ReplyBuf::new();
        let spec = crate::command::resolve(&argv, &mut out).unwrap();
        crate::command::execute(spec, s, proc, &argv, &mut out);
        let mut wire = Vec::new();
        out.flush_into(&mut wire);
        match crate::RespValue::decode(&wire) {
            Some((crate::RespValue::Bulk(value), used)) if used == wire.len() => value,
            other => panic!("not one bulk reply: {other:?}"),
        }
    }

    #[test]
    fn entries_crossing_a_page_end_read_like_a_field_at_a_time_walk() {
        // Every entry is carved at the heap's bump cursor (nothing is
        // freed), so padding with 16-byte blocks (24 bytes a block, and
        // gcd(24, 4096) = 8) places its payload any 8-byte multiple short
        // of a page end. Keys of one length differ only in their last
        // byte's high bits, so with 16 buckets they share one chain and
        // every probe passes over the others' split entries.
        let page = odf_core::PAGE_SIZE as u64;
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let s = Store::create(&p, 16 << 20, 16).unwrap();
        let key = |len: usize, last: u8| {
            let mut key: Vec<u8> = (0..len - 1).map(|i| b'a' + (i % 26) as u8).collect();
            key.push(last << 4);
            key
        };
        // (bytes of the entry before the page end, key length, value length)
        let mut cases = Vec::new();
        // Each key length has 15 cases; their keys end in 0..15 and 15 is
        // the miss.
        let last_byte = |case: usize| (case % 15) as u8;
        for klen in [3, 8, 20, 5000] {
            for before_end in [8, 16, 24, 40, 64] {
                for vlen in [0, 30, 9000] {
                    cases.push((before_end, klen, vlen));
                }
            }
        }
        let (mut header_split, mut key_split, mut value_split) = (0, 0, 0);
        for (i, &(before_end, klen, vlen)) in cases.iter().enumerate() {
            while (s.heap().used(&p).unwrap() + 8) % page != page - before_end {
                s.heap().alloc(&p, 16).unwrap();
            }
            let value: Vec<u8> = (0..vlen).map(|j| (i * 7 + j) as u8).collect();
            s.set(&p, &key(klen, last_byte(i)), &value).unwrap();
            let end = before_end as usize;
            header_split += usize::from(end < ENT_DATA as usize);
            key_split += usize::from((16..16 + klen).contains(&end));
            value_split += usize::from((16 + klen..16 + klen + vlen).contains(&end));
        }
        assert!(header_split > 0 && key_split > 0 && value_split > 0);
        let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
        s.set(&p, &key(20, 2), b"after the fork").unwrap();
        for proc in [&p, &child] {
            for (i, &(_, klen, _)) in cases.iter().enumerate() {
                // Each stored key, and a miss of the same length and chain.
                for last in [last_byte(i), 15] {
                    let key = key(klen, last);
                    let want = oracle_get(&s, proc, &key);
                    assert_eq!(want.is_some(), last != 15);
                    assert_eq!(s.get(proc, &key).unwrap(), want, "get {i}");
                    assert_eq!(s.exists(proc, &key).unwrap(), want.is_some(), "exists {i}");
                    assert_eq!(wire_get(s, proc, &key), want, "GET {i}");
                }
            }
            assert_eq!(s.serialize(proc).unwrap(), oracle_dump(&s, proc));
        }
        child.exit();
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
        let s = Store::create(&p, 32 << 20, 4 * SERIALIZE_BUCKETS as u64 + 1).unwrap();
        for i in 0..20_000u32 {
            let value = "v".repeat(i as usize % 300);
            s.set(&p, format!("key-{i}").as_bytes(), value.as_bytes())
                .unwrap();
        }
        let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
        s.set(&p, b"key-7", b"after the fork").unwrap();
        for proc in [&p, &child] {
            assert_eq!(s.serialize(proc).unwrap(), oracle_dump(&s, proc));
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

#[cfg(test)]
mod guard {
    /// `(function, line)` for each line of this file before its tests:
    /// the function whose body the line is in, or the last one declared
    /// above it ("" before the first).
    fn lines_by_fn() -> Vec<(&'static str, &'static str)> {
        let src = include_str!("store.rs");
        let code = &src[..src.find("#[cfg(test)]").expect("a test module")];
        let mut current = "";
        let mut lines = Vec::new();
        for line in code.lines() {
            if let Some((before, after)) = line.split_once("fn ") {
                if before
                    .trim()
                    .chars()
                    .all(|c| c.is_alphanumeric() || "() ".contains(c))
                {
                    current = after.split(['(', '<']).next().unwrap_or("");
                }
            }
            lines.push((current, line));
        }
        lines
    }

    #[test]
    fn only_create_and_attach_read_the_geometry() {
        for (name, line) in lines_by_fn() {
            let geometry = line.contains("HDR_BUCKETS") || line.contains("HDR_ARRAY");
            let declared = line.starts_with("const ");
            assert!(
                !geometry || declared || ["create", "attach"].contains(&name),
                "{name} reads the table geometry: it lives in the Store handle\n{line}"
            );
        }
    }

    #[test]
    fn read_paths_take_entry_fields_from_views() {
        let read_paths = [
            "probe",
            "get_into",
            "get",
            "exists",
            "serialize",
            "dump_entry",
        ];
        for (name, line) in lines_by_fn() {
            let field_read = line.contains("read_u32(")
                || (line.contains("read_u64(")
                    && !line.contains("self.slot(")
                    && !line.contains("HDR_ITEMS"));
            assert!(
                !(read_paths.contains(&name) && field_read),
                "{name} reads an entry field on its own: take it from the entry's view\n{line}"
            );
        }
    }
}
