//! BPF-map analog: a sharded, bounded per-key aggregation map.
//!
//! Every attached probe owns one [`ShardedMap`]. Hits hash their key to one
//! of [`SHARDS`] lock-striped shards, so concurrent faulting threads rarely
//! contend on the same mutex. Cardinality is bounded: each shard holds at
//! most `ceil(max_keys / SHARDS)` slots, and inserting into a full shard
//! evicts the least-hit slot (the analog of an LRU BPF map under pressure),
//! counting the eviction so readers can see the map saturated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use odf_metrics::Histogram;

/// Lock stripes per map. Eight shards keep an 8-thread fault storm mostly
/// contention-free while costing only eight mutexes per probe.
pub const SHARDS: usize = 8;

/// Default per-map key bound (overridable per probe via `maxkeys=`).
pub const DEFAULT_MAX_KEYS: usize = 64;

/// Count of live maps in the process — the leak oracle the probe tests
/// assert against after `detach_all`.
static LIVE_MAPS: AtomicUsize = AtomicUsize::new(0);

/// One key's accumulator. Programs decide which fields they touch; unused
/// fields stay zero and are omitted from reports.
#[derive(Clone)]
pub struct Slot {
    /// Human-readable key label, fixed on first hit (`"pid 3"`,
    /// `"0x10000-0x20000"`, `"cow_data"`, ...).
    pub label: String,
    /// Hits aggregated into this slot.
    pub hits: u64,
    /// Sum of the program's sample (for `sum_by` means; `u128` so long
    /// runs cannot overflow).
    pub sum: u128,
    /// High watermark of the program's sample.
    pub max: u64,
    /// Latency distribution (`lat_hist` only; boxed lazily because a
    /// histogram is a few KiB and counting programs never need one).
    pub hist: Option<Box<Histogram>>,
}

impl Slot {
    pub(crate) fn new(label: String) -> Slot {
        Slot {
            label,
            hits: 0,
            sum: 0,
            max: 0,
            hist: None,
        }
    }
}

/// The sharded bounded map itself.
pub struct ShardedMap {
    shards: Vec<Mutex<HashMap<u64, Slot>>>,
    per_shard_cap: usize,
    evicted: AtomicU64,
}

impl ShardedMap {
    /// Creates a map bounded at (approximately) `max_keys` keys.
    pub fn new(max_keys: usize) -> ShardedMap {
        LIVE_MAPS.fetch_add(1, Ordering::Relaxed);
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap: max_keys.max(1).div_ceil(SHARDS),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: u64) -> &Mutex<HashMap<u64, Slot>> {
        // Fibonacci hash spreads small sequential keys (pids, orders)
        // across shards instead of clustering them in shard 0.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Aggregates one hit into `key`'s slot, creating it (label from
    /// `label`) or evicting the shard's least-hit slot when full.
    pub fn update(&self, key: u64, label: impl FnOnce() -> String, apply: impl FnOnce(&mut Slot)) {
        let mut shard = self.shard_of(key).lock().unwrap();
        // Cheap length check first: below cap (the common case) the single
        // `entry` lookup below is the only hash of the key.
        if shard.len() >= self.per_shard_cap && !shard.contains_key(&key) {
            // Evict the coldest slot to admit the newcomer; a key that
            // re-heats simply re-enters and re-accumulates.
            if let Some(victim) = shard.iter().min_by_key(|(_, s)| s.hits).map(|(k, _)| *k) {
                shard.remove(&victim);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = shard.entry(key).or_insert_with(|| Slot::new(label()));
        apply(slot);
    }

    /// Current key count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots evicted to honor the cardinality bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Clones out every slot, hottest first (ties broken by label so
    /// reports are deterministic).
    pub fn snapshot(&self) -> Vec<Slot> {
        let mut out: Vec<Slot> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().values().cloned());
        }
        out.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.label.cmp(&b.label)));
        out
    }

    /// Drops every slot (window reset).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }

    /// Process-wide count of live maps (leak detection in tests).
    pub fn live_maps() -> usize {
        LIVE_MAPS.load(Ordering::Relaxed)
    }
}

impl Drop for ShardedMap {
    fn drop(&mut self) {
        LIVE_MAPS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_creates_and_aggregates() {
        let _serial = crate::serial_maps();
        let m = ShardedMap::new(DEFAULT_MAX_KEYS);
        for _ in 0..5 {
            m.update(42, || "k42".into(), |s| s.hits += 1);
        }
        m.update(7, || "k7".into(), |s| s.hits += 1);
        assert_eq!(m.len(), 2);
        let snap = m.snapshot();
        assert_eq!(snap[0].label, "k42");
        assert_eq!(snap[0].hits, 5);
        assert_eq!(snap[1].hits, 1);
        assert_eq!(m.evicted(), 0);
    }

    #[test]
    fn cardinality_is_bounded_with_least_hit_eviction() {
        let _serial = crate::serial_maps();
        let m = ShardedMap::new(16);
        // Two hits make key 0 hot; a flood of cold keys must never evict
        // more than the bound allows and must keep the map at cap.
        m.update(0, || "hot".into(), |s| s.hits += 1);
        m.update(0, || "hot".into(), |s| s.hits += 1);
        for k in 1..1000u64 {
            m.update(k, || format!("k{k}"), |s| s.hits += 1);
        }
        assert!(m.len() <= 16, "len {} exceeds bound", m.len());
        assert!(m.evicted() >= 1000 - 16);
    }

    #[test]
    fn snapshot_orders_hottest_first_deterministically() {
        let _serial = crate::serial_maps();
        let m = ShardedMap::new(DEFAULT_MAX_KEYS);
        for (k, n) in [(1u64, 3u64), (2, 7), (3, 3)] {
            for _ in 0..n {
                m.update(k, || format!("k{k}"), |s| s.hits += 1);
            }
        }
        let snap = m.snapshot();
        let labels: Vec<&str> = snap.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["k2", "k1", "k3"]);
    }

    #[test]
    fn live_map_accounting_balances() {
        let _serial = crate::serial_maps();
        let before = ShardedMap::live_maps();
        {
            let _a = ShardedMap::new(8);
            let _b = ShardedMap::new(8);
            assert_eq!(ShardedMap::live_maps(), before + 2);
        }
        assert_eq!(ShardedMap::live_maps(), before);
    }

    #[test]
    fn clear_empties_but_keeps_capacity_semantics() {
        let _serial = crate::serial_maps();
        let m = ShardedMap::new(8);
        for k in 0..100u64 {
            m.update(k, || format!("k{k}"), |s| s.hits += 1);
        }
        m.clear();
        assert!(m.is_empty());
        m.update(5, || "k5".into(), |s| s.hits += 1);
        assert_eq!(m.len(), 1);
    }
}
