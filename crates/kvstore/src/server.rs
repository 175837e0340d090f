//! The serving loop with BGSAVE-style snapshots.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use odf_core::{ForkPolicy, Kernel, Process, Result};
use odf_metrics::{Stopwatch, Summary};
use odf_snapshot::{capture_delta, capture_full, SnapshotImage};

use crate::command;
use crate::resp::ReplyBuf;
use crate::store::Store;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Simulated heap capacity for the dataset.
    pub heap_capacity: u64,
    /// Extra resident memory populated at startup, standing in for the
    /// full in-memory footprint of the paper's 996 MB Redis instance
    /// (allocator arenas, expiry metadata, replication buffers).
    pub resident_bytes: u64,
    /// Hash bucket count.
    pub buckets: u64,
    /// Take a snapshot after this many changed keys (the Redis
    /// "save 60 10000" analog the paper configures; §5.3.3).
    pub snapshot_every: u64,
    /// Fork policy used for snapshots.
    pub fork_policy: ForkPolicy,
    /// Serialize incremental (delta) images after the first full one,
    /// carrying only pages dirtied since the previous snapshot, instead of
    /// a full image every time.
    pub incremental: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            heap_capacity: 64 << 20,
            resident_bytes: 0,
            buckets: 4096,
            snapshot_every: 10_000,
            fork_policy: ForkPolicy::Classic,
            incremental: false,
        }
    }
}

/// Outcome of one background snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotReport {
    /// Submission index of the `bgsave` that produced this report
    /// (0-based). Serializer threads finish in arbitrary order — a small
    /// delta image completes before the full base it follows — so
    /// [`Server::wait_snapshots`] sorts by this field to hand reports back
    /// in the order the snapshots were taken.
    pub seq: u64,
    /// Time spent inside the fork call, in nanoseconds (the
    /// `latest_fork_usec` analog — the window during which the server
    /// cannot serve).
    pub fork_ns: u64,
    /// Size of the serialized dump.
    pub dump_bytes: usize,
    /// Items captured.
    pub items: u64,
    /// Size of the serialized snapshot image (full or delta) produced by
    /// `odf-snapshot` from the child's address space.
    pub image_bytes: usize,
    /// Shared-frame dedup ratio of that image: payload references per
    /// unique payload stored (1.0 = no sharing).
    pub dedup_ratio: f64,
    /// Whether the image is an incremental delta.
    pub incremental: bool,
    /// Time the background thread spent serializing, in nanoseconds —
    /// work that overlaps serving, unlike `fork_ns`.
    pub serialize_ns: u64,
}

/// Forks a snapshot child with `policy`, measuring the stall, and runs the
/// soft-dirty epoch handshake every snapshotting path must get right: the
/// child's frozen view belongs to epoch `n`, and when `incremental` the
/// parent advances to epoch `n + 1` *before any post-fork write* — on the
/// calling (serving) thread — so the next delta cannot miss a write.
///
/// Returns `(child, fork_ns, epoch, delta)` where `delta` says whether the
/// caller should serialize an incremental image.
pub(crate) fn fork_snapshot_child(
    proc: &Process,
    policy: ForkPolicy,
    incremental: bool,
) -> Result<(Process, u64, u64, bool)> {
    let sw = Stopwatch::start();
    let child = proc.fork_with(policy)?;
    let fork_ns = sw.elapsed_ns();
    let epoch = child.checkpoint_epoch();
    let delta = incremental && epoch > 0;
    if incremental {
        proc.advance_checkpoint_epoch()?;
    }
    Ok((child, fork_ns, epoch, delta))
}

/// Walks the frozen child into a snapshot image at `epoch`: a delta over
/// the previous epoch when `delta`, the full address space otherwise.
pub(crate) fn capture_frozen(child: &Process, epoch: u64, delta: bool) -> SnapshotImage {
    if delta {
        capture_delta(child.mm(), epoch, epoch - 1)
    } else {
        capture_full(child.mm(), epoch)
    }
}

/// A single-threaded Redis-like server with background snapshots.
///
/// `execute`-style operations run on the caller's thread (the "event
/// loop"); when the changed-key counter crosses the configured threshold, a
/// snapshot child is forked **on the serving thread** (blocking it, exactly
/// like Redis) and handed to a background thread that serializes the frozen
/// image and exits.
pub struct Server {
    proc: Process,
    store: Store,
    config: ServerConfig,
    dirty: u64,
    fork_times: Summary,
    pending: Vec<JoinHandle<()>>,
    results_rx: mpsc::Receiver<SnapshotReport>,
    results_tx: mpsc::Sender<SnapshotReport>,
    completed: Vec<SnapshotReport>,
}

impl Server {
    /// Boots a server process on the kernel and creates an empty store.
    pub fn new(kernel: &Arc<Kernel>, config: ServerConfig) -> Result<Server> {
        let proc = kernel.spawn()?;
        let store = Store::create(&proc, config.heap_capacity, config.buckets)?;
        if config.resident_bytes > 0 {
            let arena = proc.mmap_anon(config.resident_bytes)?;
            proc.populate(arena, config.resident_bytes, true)?;
        }
        let (tx, rx) = mpsc::channel();
        Ok(Server {
            proc,
            store,
            config,
            dirty: 0,
            fork_times: Summary::new(),
            pending: Vec::new(),
            results_rx: rx,
            results_tx: tx,
            completed: Vec::new(),
        })
    }

    /// The serving process (for direct store access in tests/benches).
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// The store handle.
    pub fn store(&self) -> Store {
        self.store
    }

    /// Handles a SET request.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.store.set(&self.proc, key, value)?;
        self.note_dirty()?;
        Ok(())
    }

    /// Handles a GET request.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.store.get(&self.proc, key)
    }

    /// Handles a DEL request.
    pub fn del(&mut self, key: &[u8]) -> Result<bool> {
        let existed = self.store.del(&self.proc, key)?;
        if existed {
            self.note_dirty()?;
        }
        Ok(existed)
    }

    /// Handles an EXISTS request.
    pub fn exists(&mut self, key: &[u8]) -> Result<bool> {
        self.store.exists(&self.proc, key)
    }

    /// Handles an INCR request.
    pub fn incr(&mut self, key: &[u8]) -> Result<i64> {
        let v = self.store.incr(&self.proc, key)?;
        self.note_dirty()?;
        Ok(v)
    }

    /// Handles an APPEND request.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<usize> {
        let n = self.store.append(&self.proc, key, suffix)?;
        self.note_dirty()?;
        Ok(n)
    }

    fn note_dirty(&mut self) -> Result<()> {
        self.dirty += 1;
        if self.dirty >= self.config.snapshot_every {
            self.bgsave()?;
            self.dirty = 0;
        }
        Ok(())
    }

    /// Executes one RESP command given as borrowed argument slices,
    /// writing the reply to `out` — the wire-path front end over
    /// [`crate::command`].
    pub fn execute(&mut self, argv: &[&[u8]], out: &mut ReplyBuf) {
        let Some(spec) = command::resolve(argv, out) else {
            return;
        };
        if spec.key_pos > 0 {
            if command::execute(spec, self.store, &self.proc, argv, out) {
                // The change is applied and acknowledged whatever becomes
                // of the snapshot it triggers: a failed one leaves `dirty`
                // over the threshold, so the next change tries again, and
                // an explicit BGSAVE reports the error.
                let _ = self.note_dirty();
            }
            return;
        }
        match spec.name {
            b"DBSIZE" => match self.store.len(&self.proc) {
                Ok(n) => out.integer(n as i64),
                Err(e) => out.error(&format!("ERR {e}")),
            },
            b"BGSAVE" => match self.bgsave() {
                Ok(()) => out.simple("Background saving started"),
                Err(e) => out.error(&format!("ERR {e}")),
            },
            b"INFO" => command::info(
                &self.proc,
                self.config.fork_policy,
                !self.pending.is_empty(),
                &self.fork_times,
                argv.get(1).copied(),
                out,
            ),
            _ => command::execute_admin(spec, self.proc.kernel(), argv, out),
        }
    }

    /// Forks a snapshot child now (blocking, measured) and serializes it in
    /// the background.
    pub fn bgsave(&mut self) -> Result<()> {
        let (child, fork_ns, epoch, delta) =
            fork_snapshot_child(&self.proc, self.config.fork_policy, self.config.incremental)?;
        self.fork_times.record(fork_ns as f64);
        let seq = self.fork_times.count() - 1;
        let store = self.store;
        let tx = self.results_tx.clone();
        self.pending.push(std::thread::spawn(move || {
            // The child serializes its frozen image ("disk I/O" is the
            // in-memory dump) and exits.
            let ser = Stopwatch::start();
            let image = capture_frozen(&child, epoch, delta);
            let image_bytes = image.to_bytes().len();
            let stats = image.stats();
            let serialize_ns = ser.elapsed_ns();
            if let Ok(dump) = store.serialize(&child) {
                let items = u64::from_le_bytes(dump[0..8].try_into().expect("header"));
                let _ = tx.send(SnapshotReport {
                    seq,
                    fork_ns,
                    dump_bytes: dump.len(),
                    items,
                    image_bytes,
                    dedup_ratio: stats.dedup_ratio(),
                    incremental: delta,
                    serialize_ns,
                });
            }
            child.exit();
        }));
        Ok(())
    }

    /// Waits for all in-flight snapshots and returns every completed
    /// report so far, in the order the snapshots were submitted (the
    /// channel delivers in *completion* order, which races).
    pub fn wait_snapshots(&mut self) -> &[SnapshotReport] {
        for h in self.pending.drain(..) {
            let _ = h.join();
        }
        while let Ok(r) = self.results_rx.try_recv() {
            self.completed.push(r);
        }
        self.completed.sort_by_key(|r| r.seq);
        &self.completed
    }

    /// Distribution of time spent inside the snapshot fork call
    /// (nanoseconds) — the data behind Table 5.
    pub fn fork_times(&self) -> &Summary {
        &self.fork_times
    }

    /// Number of snapshots started.
    pub fn snapshots_started(&self) -> u64 {
        self.fork_times.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: ForkPolicy, every: u64) -> ServerConfig {
        ServerConfig {
            heap_capacity: 16 << 20,
            resident_bytes: 8 << 20,
            buckets: 512,
            snapshot_every: every,
            fork_policy: policy,
            incremental: false,
        }
    }

    #[test]
    fn serves_requests() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::Classic, u64::MAX)).unwrap();
        s.set(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap().unwrap(), b"1");
        assert!(s.del(b"a").unwrap());
        assert_eq!(s.get(b"a").unwrap(), None);
    }

    #[test]
    fn snapshot_triggers_on_changed_keys() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::OnDemand, 50)).unwrap();
        for i in 0..120u32 {
            s.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(s.snapshots_started(), 2, "one per 50 changed keys");
        let reports = s.wait_snapshots();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.items >= 50));
        assert!(reports.iter().all(|r| r.dump_bytes > 8));
    }

    #[test]
    fn incr_and_append_count_as_changes() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::OnDemand, 4)).unwrap();
        s.incr(b"a").unwrap();
        s.incr(b"a").unwrap();
        s.append(b"b", b"x").unwrap();
        assert_eq!(s.snapshots_started(), 0);
        s.append(b"b", b"y").unwrap();
        assert_eq!(s.snapshots_started(), 1);
        assert!(s.exists(b"a").unwrap());
        s.wait_snapshots();
    }

    #[test]
    fn gets_do_not_trigger_snapshots() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::Classic, 5)).unwrap();
        s.set(b"x", b"1").unwrap();
        for _ in 0..100 {
            let _ = s.get(b"x").unwrap();
            let _ = s.get(b"missing").unwrap();
        }
        assert_eq!(s.snapshots_started(), 0);
    }

    #[test]
    fn reports_carry_image_size_and_dedup() {
        let k = Kernel::new(128 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::OnDemand, u64::MAX)).unwrap();
        for i in 0..500u32 {
            s.set(format!("k{i}").as_bytes(), &[7u8; 64]).unwrap();
        }
        s.bgsave().unwrap();
        let r = &s.wait_snapshots()[0];
        assert!(!r.incremental);
        assert!(
            r.image_bytes > r.items as usize * 64,
            "a full image holds at least the payload data"
        );
        assert!(r.dedup_ratio >= 1.0);
        assert!(r.serialize_ns > 0);
    }

    #[test]
    fn incremental_images_shrink_with_fraction_dirtied() {
        let k = Kernel::new(128 << 20);
        let mut cfg = config(ForkPolicy::OnDemand, u64::MAX);
        cfg.incremental = true;
        let mut s = Server::new(&k, cfg).unwrap();
        for i in 0..2000u32 {
            s.set(format!("k{i:04}").as_bytes(), &[3u8; 64]).unwrap();
        }
        s.bgsave().unwrap(); // full base

        // Touch 5% of the keys, snapshot, then 50%, snapshot again.
        for i in 0..100u32 {
            s.set(format!("k{i:04}").as_bytes(), &[4u8; 64]).unwrap();
        }
        s.bgsave().unwrap();
        for i in 0..1000u32 {
            s.set(format!("k{i:04}").as_bytes(), &[5u8; 64]).unwrap();
        }
        s.bgsave().unwrap();
        let reports = s.wait_snapshots().to_vec();
        assert_eq!(reports.len(), 3);
        let (base, small, large) = (&reports[0], &reports[1], &reports[2]);
        assert!(!base.incremental);
        assert!(small.incremental && large.incremental);
        assert!(
            small.image_bytes * 2 < base.image_bytes,
            "5% dirtied must give a much smaller delta ({} vs {})",
            small.image_bytes,
            base.image_bytes
        );
        assert!(
            small.image_bytes < large.image_bytes,
            "delta size grows with the fraction dirtied ({} vs {})",
            small.image_bytes,
            large.image_bytes
        );
        // Every snapshot still produces the classic dump of all items.
        assert!(reports.iter().all(|r| r.items == 2000));
    }

    #[test]
    fn server_keeps_serving_while_snapshot_runs() {
        let k = Kernel::new(128 << 20);
        let mut s = Server::new(&k, config(ForkPolicy::OnDemand, u64::MAX)).unwrap();
        for i in 0..1000u32 {
            s.set(format!("k{i}").as_bytes(), &[0u8; 128]).unwrap();
        }
        s.bgsave().unwrap();
        // Mutations after the fork must not appear in the snapshot.
        for i in 0..1000u32 {
            s.set(format!("k{i}").as_bytes(), &[1u8; 128]).unwrap();
        }
        let reports = s.wait_snapshots().to_vec();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].items, 1000);
        assert!(s.fork_times().count() == 1 && s.fork_times().mean() > 0.0);
        // The live store sees the new values.
        assert_eq!(s.get(b"k0").unwrap().unwrap(), vec![1u8; 128]);
    }
}
