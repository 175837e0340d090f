//! Model-based property tests: the in-simulation store vs a HashMap.
//!
//! Keys run from 1 to 80 bytes and keys of one length differ only in their
//! last byte, so a lookup keeps probing entries whose length and leading
//! bytes match its key. Every read is checked three ways — `get`,
//! `exists` and a wire `GET` — on the live store and on an OnDemand-forked
//! child, and a read sweep over a fully written store must not fault. The
//! `serialize` dump's items, as a multiset, equal the model.

use std::collections::HashMap;

use odf_core::{ForkPolicy, Kernel, Process, PAGE_SIZE};
use odf_kvstore::{command, ReplyBuf, RespValue, Store};
use proptest::prelude::*;

/// A key: its length and which of [`LAST_BYTES`] last bytes it ends in
/// (see [`key_bytes`]).
type Key = (usize, u8);

/// Key lengths either side of 16 and 32 bytes, and the longest key, so
/// probes compare keys of every length against entries that share their
/// length and leading bytes.
const EDGE_LENS: [usize; 9] = [1, 2, 15, 16, 17, 32, 48, 49, 80];

/// Last bytes a key may end in.
const LAST_BYTES: u8 = 8;

#[derive(Clone, Debug)]
enum Op {
    Set { key: Key, value: Vec<u8> },
    Del { key: Key },
    Get { key: Key },
    Exists { key: Key },
    WireGet { key: Key },
    Dump,
}

fn key_strategy() -> impl Strategy<Value = Key> {
    let len = prop_oneof![
        3 => (0..EDGE_LENS.len()).prop_map(|i| EDGE_LENS[i]),
        1 => 1usize..81,
    ];
    (len, 0..LAST_BYTES)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The long values straddle pages.
    let value = prop_oneof![
        6 => proptest::collection::vec(any::<u8>(), 0..200),
        1 => proptest::collection::vec(any::<u8>(), 200..6000),
    ];
    prop_oneof![
        4 => (key_strategy(), value).prop_map(|(key, value)| Op::Set { key, value }),
        2 => key_strategy().prop_map(|key| Op::Del { key }),
        2 => key_strategy().prop_map(|key| Op::Get { key }),
        1 => key_strategy().prop_map(|key| Op::Exists { key }),
        1 => key_strategy().prop_map(|key| Op::WireGet { key }),
        1 => Just(Op::Dump),
    ]
}

/// Keys of one length share every byte but the last, and their last bytes
/// differ only above the low four bits. FNV-1a ends in an xor and a
/// multiply by an odd prime, which keeps the low four bits of the hash a
/// function of the low four bits of the last byte: every key of one
/// length lands on one chain of the store's 16 buckets.
fn key_bytes((len, last): Key) -> Vec<u8> {
    let mut key: Vec<u8> = (0..len - 1).map(|i| b'a' + (i % 26) as u8).collect();
    key.push(last << 4);
    key
}

/// `GET key` through the command table, its reply decoded.
fn wire_get(store: Store, proc: &Process, key: &[u8]) -> RespValue {
    let argv: [&[u8]; 2] = [b"GET", key];
    let mut out = ReplyBuf::new();
    let spec = command::resolve(&argv, &mut out).expect("GET is a command");
    command::execute(spec, store, proc, &argv, &mut out);
    let mut wire = Vec::new();
    out.flush_into(&mut wire);
    let (reply, used) = RespValue::decode(&wire).expect("one whole reply");
    assert_eq!(used, wire.len());
    reply
}

/// `get`, `exists` and a wire `GET` all agree with `model` on `key`.
fn reads_agree(
    store: Store,
    proc: &Process,
    model: &HashMap<Key, Vec<u8>>,
    key: Key,
) -> Result<(), TestCaseError> {
    let want = model.get(&key);
    let bytes = key_bytes(key);
    let got = store.get(proc, &bytes).unwrap();
    prop_assert_eq!(got.as_ref(), want, "{:?}", key);
    prop_assert_eq!(store.exists(proc, &bytes).unwrap(), want.is_some());
    prop_assert_eq!(
        wire_get(store, proc, &bytes),
        RespValue::Bulk(want.cloned())
    );
    Ok(())
}

/// The items of `store.serialize`, taken as a multiset, equal `model`,
/// and the dump's item count is the model's size.
fn dump_agrees(
    store: Store,
    proc: &Process,
    model: &HashMap<Key, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let dump = store.serialize(proc).unwrap();
    let (count, mut rest) = dump.split_at(8);
    prop_assert_eq!(
        u64::from_le_bytes(count.try_into().unwrap()),
        model.len() as u64
    );
    let mut items = Vec::new();
    while !rest.is_empty() {
        let len = |at: usize| u32::from_le_bytes(rest[at..at + 4].try_into().unwrap()) as usize;
        let (klen, vlen) = (len(0), len(4));
        let (key, value) = rest[8..8 + klen + vlen].split_at(klen);
        items.push((key.to_vec(), value.to_vec()));
        rest = &rest[8 + klen + vlen..];
    }
    let mut want: Vec<_> = model
        .iter()
        .map(|(&key, value)| (key_bytes(key), value.clone()))
        .collect();
    items.sort();
    want.sort();
    prop_assert_eq!(items, want);
    Ok(())
}

/// Reads every key `model` holds and every edge-length key, present or
/// not, checking each against `model`. No read may fault: every byte a
/// lookup touches belongs to an entry some write put there.
fn sweep(
    kernel: &Kernel,
    store: Store,
    proc: &Process,
    model: &HashMap<Key, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let faults = kernel.stats().vm.faults;
    let edges = EDGE_LENS
        .iter()
        .flat_map(|&len| (0..LAST_BYTES).map(move |last| (len, last)));
    for key in model.keys().copied().chain(edges) {
        reads_agree(store, proc, model, key)?;
    }
    prop_assert_eq!(kernel.stats().vm.faults, faults, "a read sweep faulted");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The store agrees with a HashMap model under arbitrary command
    /// sequences (few buckets force heavy chain surgery).
    #[test]
    fn store_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let kernel = Kernel::new(64 << 20);
        let proc = kernel.spawn().unwrap();
        let store = Store::create(&proc, 16 << 20, 1).unwrap();
        let mut model: HashMap<Key, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::Set { key, value } => {
                    store.set(&proc, &key_bytes(key), &value).unwrap();
                    model.insert(key, value);
                }
                Op::Del { key } => {
                    let existed = store.del(&proc, &key_bytes(key)).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some());
                }
                Op::Get { key } => {
                    let got = store.get(&proc, &key_bytes(key)).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key));
                }
                Op::Exists { key } => {
                    let exists = store.exists(&proc, &key_bytes(key)).unwrap();
                    prop_assert_eq!(exists, model.contains_key(&key));
                }
                Op::WireGet { key } => {
                    let reply = wire_get(store, &proc, &key_bytes(key));
                    prop_assert_eq!(reply, RespValue::Bulk(model.get(&key).cloned()));
                }
                Op::Dump => dump_agrees(store, &proc, &model)?,
            }
            prop_assert_eq!(store.len(&proc).unwrap(), model.len() as u64);
        }
        // Final full sweep.
        for (key, value) in &model {
            let got = store.get(&proc, &key_bytes(*key)).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
        sweep(&kernel, store, &proc, &model)?;
    }

    /// A snapshot taken through a forked child equals the model at fork
    /// time, regardless of post-fork mutations.
    #[test]
    fn snapshots_freeze_the_model(
        before in proptest::collection::vec(op_strategy(), 1..40),
        after in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let kernel = Kernel::new(64 << 20);
        let proc = kernel.spawn().unwrap();
        let store = Store::create(&proc, 16 << 20, 8).unwrap();
        let mut model: HashMap<Key, Vec<u8>> = HashMap::new();
        for op in before {
            if let Op::Set { key, value } = op {
                store.set(&proc, &key_bytes(key), &value).unwrap();
                model.insert(key, value);
            }
        }
        let frozen = model.clone();
        let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
        for op in after {
            if let Op::Set { key, value } = op {
                store.set(&proc, &key_bytes(key), &value).unwrap();
                model.insert(key, value);
            }
        }
        // The child's view matches the frozen model exactly.
        prop_assert_eq!(store.len(&child).unwrap(), frozen.len() as u64);
        for (key, value) in &frozen {
            let got = store.get(&child, &key_bytes(*key)).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
        sweep(&kernel, store, &child, &frozen)?;
        dump_agrees(store, &child, &frozen)?;
        // And the parent's matches the live model.
        for (key, value) in &model {
            let got = store.get(&proc, &key_bytes(*key)).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
        sweep(&kernel, store, &proc, &model)?;
        dump_agrees(store, &proc, &model)?;
    }
}

/// Entries whose header or key straddles a page boundary and a 100 kB
/// value, read from the store and from an OnDemand-forked child.
#[test]
fn page_straddling_entries_and_a_large_value() {
    let kernel = Kernel::new(64 << 20);
    let proc = kernel.spawn().unwrap();
    let store = Store::create(&proc, 4 << 20, 1).unwrap();
    let heap = store.heap();
    let page = PAGE_SIZE as u64;
    let mut model: HashMap<Key, Vec<u8>> = HashMap::new();
    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    store.set(&proc, &key_bytes((3, 0)), &big).unwrap();
    model.insert((3, 0), big);
    for (i, before_end) in [8u64, 16, 24, 32, 40, 48].into_iter().enumerate() {
        for len in [1, 16, 17, 80] {
            // Nothing is freed here, so the entry is carved at the bump
            // cursor: pad with 16-byte blocks until its payload starts
            // `before_end` bytes short of a page boundary.
            while (heap.used(&proc).unwrap() + 8) % page != page - before_end {
                heap.alloc(&proc, 16).unwrap();
            }
            let key = (len, i as u8);
            let value = vec![len as u8; 40 * i];
            store.set(&proc, &key_bytes(key), &value).unwrap();
            model.insert(key, value);
        }
    }
    // Last, the smallest entry, its 32-byte block ending on a page that
    // nothing else reaches: a probe reading past it would fault.
    while !(heap.used(&proc).unwrap() + 8 + 32).is_multiple_of(page) {
        heap.alloc(&proc, 16).unwrap();
    }
    store.set(&proc, &key_bytes((1, 7)), b"").unwrap();
    model.insert((1, 7), Vec::new());
    sweep(&kernel, store, &proc, &model).unwrap();
    let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
    sweep(&kernel, store, &child, &model).unwrap();
}
