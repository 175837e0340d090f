//! A hash-partitioned store: the data layout under the per-core tier.
//!
//! Keys are routed by hash onto independent shards — each shard a
//! [`Store`] with its own simulated heap in the *same* address space — so
//! one fork freezes every shard at once and one thread per shard can serve
//! without sharing any store state
//! ([`PerCoreServer`](crate::PerCoreServer)).

use odf_core::{Process, Result};

use crate::store::Store;

/// Routes a key to a shard (FNV-1a, decoupled from the intra-shard bucket
/// hash so shards don't all collide on the same buckets).
fn shard_hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A hash-partitioned set of [`Store`]s inside one simulated process.
///
/// The handle is `Copy` like `Store` itself is not — it owns the shard
/// vector — but it is cheap to clone and, like `Store`, all state lives in
/// simulated memory, so clones and the forked child see the same data.
#[derive(Clone)]
pub struct ShardedStore {
    shards: Vec<Store>,
}

impl ShardedStore {
    /// Creates `shards` independent stores in `proc`'s address space, each
    /// with its own `heap_per_shard`-byte heap and `buckets` hash buckets.
    pub fn create(
        proc: &Process,
        shards: usize,
        heap_per_shard: u64,
        buckets: u64,
    ) -> Result<ShardedStore> {
        assert!(shards > 0, "need at least one shard");
        let shards = (0..shards)
            .map(|_| Store::create(proc, heap_per_shard, buckets))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedStore { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index serving `key`.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        (shard_hash(key) % self.shards.len() as u64) as usize
    }

    /// The shard store at `index`.
    pub fn shard(&self, index: usize) -> Store {
        self.shards[index]
    }

    /// Serializes every shard (in shard order) from `proc`'s view.
    pub fn serialize(&self, proc: &Process) -> Result<Vec<Vec<u8>>> {
        self.shards.iter().map(|s| s.serialize(proc)).collect()
    }
}

/// Report from one background snapshot of the whole sharded store.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    /// Time spent inside the fork call (the only serving stall).
    pub fork_ns: u64,
    /// Per-shard serialized dumps from the frozen child.
    pub dumps: Vec<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_core::Kernel;

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        let k = Kernel::new(128 << 20);
        let proc = k.spawn().unwrap();
        let store = ShardedStore::create(&proc, 4, 8 << 20, 128).unwrap();
        let mut hit = [false; 4];
        for i in 0..64u32 {
            let key = format!("key-{i}");
            let shard = store.shard_for(key.as_bytes());
            hit[shard] = true;
            store
                .shard(shard)
                .set(&proc, key.as_bytes(), key.as_bytes())
                .unwrap();
        }
        assert!(hit.iter().all(|&h| h), "64 keys must touch all 4 shards");
        for i in 0..64u32 {
            let key = format!("key-{i}");
            let shard = store.shard(store.shard_for(key.as_bytes()));
            assert_eq!(
                shard.get(&proc, key.as_bytes()).unwrap().unwrap(),
                key.as_bytes()
            );
        }
        proc.exit();
    }
}
