//! `kv_durable`: a `DurableServer` acking journaled writes over an in-memory
//! `CrashFs`, snapshotting by fork every fixed number of writes, then losing
//! power and recovering from what had reached stable storage.
//!
//! `CrashFs` and not a directory on disk: a crash there drops exactly the
//! bytes no fsync covered (killing a process would not), the storage
//! operations it counts repeat exactly from run to run, and the benchmark
//! may write nowhere but its checkout. Its latency is memory's, not a
//! device's: the timings rank the code above the storage layer and say
//! nothing about a disk.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api_surface::{
    capture_delta, capture_full, dump_entries, durability_stats, program_tracing_off, recover,
    ChainStore, Command, CrashFs, DurabilityStatsSnapshot, DurableConfig, DurableServer,
    ForkPolicy, FsyncPolicy, Kernel, StorageFs, Wal, WalConfig,
};
use crate::gen::{fill_value, key_bytes, Digest, Rng, KEY_LEN, VALUE_HEADER};
use crate::spec::Metrics;
use crate::stats::{median, Timeline};
use crate::trace::Tracer;
use crate::workloads::{
    client_and_counts, end_to_end, finish_setups, measure, replay, span_metrics, timed_setup,
    Checks, Machine, Outcome, RunCfg, Window, WindowResult,
};

const VALUE_LEN: usize = 128;
/// Group commit: one fsync per this many acknowledged writes.
const FSYNC_EVERY: u32 = 32;
/// The count metrics cover set-up's end to the end of this epoch, a fixed
/// point in the write sequence whatever the machine's speed.
const COUNT_EPOCHS: u64 = 4;
/// Snapshots per run. Every snapshot after the first is a delta, and
/// recovery follows at most 64 links back to the full image; epochs past
/// this many only grow the log.
const MAX_SNAPSHOTS: u64 = 48;
/// Writes folded into the input digest.
const DIGEST_WRITES: u64 = 4096;

enum Write {
    Set {
        key: u64,
        value: [u8; VALUE_LEN],
    },
    Del {
        key: u64,
    },
    Append {
        key: u64,
        suffix: [u8; VALUE_HEADER],
    },
}

/// The write stream: a function of the seed alone. Writes `0..keys` load
/// every key; after them 80 % `SET`, 10 % `DEL`, 10 % `APPEND` on uniform
/// keys.
struct Stream {
    rng: Rng,
    keys: u64,
    next: u64,
}

impl Stream {
    fn new(seed: u64, keys: u64) -> Stream {
        Stream {
            rng: Rng::stream(seed, 0),
            keys,
            next: 0,
        }
    }

    fn next_write(&mut self) -> Write {
        let index = self.next;
        self.next += 1;
        let set = |key: u64| {
            let mut value = [0; VALUE_LEN];
            fill_value(&mut value, key, index);
            Write::Set { key, value }
        };
        if index < self.keys {
            return set(index);
        }
        let key = self.rng.below(self.keys);
        match self.rng.below(10) {
            0 => Write::Del { key },
            1 => {
                let mut suffix = [0; VALUE_HEADER];
                fill_value(&mut suffix, key, index);
                Write::Append { key, suffix }
            }
            _ => set(key),
        }
    }
}

/// The store's contents after the first `writes` writes of the stream.
fn model_after(seed: u64, keys: u64, writes: u64) -> HashMap<u64, Vec<u8>> {
    let mut stream = Stream::new(seed, keys);
    let mut model = HashMap::new();
    for _ in 0..writes {
        match stream.next_write() {
            Write::Set { key, value } => {
                model.insert(key, value.to_vec());
            }
            Write::Del { key } => {
                model.remove(&key);
            }
            Write::Append { key, suffix } => {
                model.entry(key).or_default().extend_from_slice(&suffix);
            }
        }
    }
    model
}

fn durable_config(keys: u64) -> DurableConfig {
    DurableConfig {
        heap_capacity: (keys * 1024).max(8 << 20),
        buckets: keys,
        fork_policy: ForkPolicy::OnDemand,
        incremental: true,
        // Snapshots are taken by the workload, at fixed points of the
        // write sequence.
        snapshot_every: 0,
        wal: WalConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
        },
    }
}

/// Counters that repeat exactly for a given seed.
#[derive(Clone, Copy, Default)]
struct Counted {
    durability: DurabilityStatsSnapshot,
    fs_ops: u64,
    writes: u64,
    user_bytes: u64,
}

struct Rig {
    machine: Machine,
    fs: CrashFs,
    server: DurableServer,
    stream: Stream,
    keys: u64,
    epoch_writes: u64,
    epochs: u64,
    user_bytes: u64,
    /// Highest sequence number acknowledged as durable.
    durable_acked: u64,
    /// Writes covered by the snapshot being published, and by the last
    /// one whose publication was joined.
    forked_through: u64,
    published_through: u64,
    at_setup: Counted,
    at_count_epoch: Option<Counted>,
    digest: Digest,
}

impl Rig {
    fn counted(&self) -> Counted {
        Counted {
            durability: durability_stats(),
            fs_ops: self.fs.ops(),
            writes: self.stream.next,
            user_bytes: self.user_bytes,
        }
    }

    /// Issues the stream's next write; returns whether it was acknowledged
    /// with the sequence number it must have.
    fn write(&mut self) -> bool {
        let index = self.stream.next;
        let write = self.stream.next_write();
        let (key, payload): (u64, &[u8]) = match &write {
            Write::Set { key, value } => (*key, value),
            Write::Del { key } => (*key, &[]),
            Write::Append { key, suffix } => (*key, suffix),
        };
        let key_bytes = key_bytes(key);
        if index < DIGEST_WRITES {
            self.digest.update(&key_bytes);
            self.digest.update(payload);
        }
        self.user_bytes += (KEY_LEN + payload.len()) as u64;
        let acked = match &write {
            Write::Set { value, .. } => self.server.set(&key_bytes, value),
            Write::Del { .. } => self.server.del(&key_bytes),
            Write::Append { suffix, .. } => self.server.append(&key_bytes, suffix),
        };
        match acked {
            Ok(ack) => {
                if ack.durable {
                    self.durable_acked = ack.seq;
                }
                ack.seq == index + 1
            }
            Err(_) => false,
        }
    }
}

fn build(cfg: &RunCfg) -> Rig {
    let keys = cfg.scale.size(50_000);
    let config = durable_config(keys);
    let machine = Machine::boot(4 * config.heap_capacity + (128 << 20));
    let fs = CrashFs::new();
    let (server, _) = DurableServer::open(&machine.kernel, Arc::new(fs.clone()), config)
        .expect("open durable server");
    let mut digest = Digest::default();
    digest.update(&keys.to_le_bytes());
    let mut rig = Rig {
        machine,
        fs,
        server,
        stream: Stream::new(cfg.seed, keys),
        keys,
        epoch_writes: cfg.scale.size(40_000),
        epochs: 0,
        user_bytes: 0,
        durable_acked: 0,
        forked_through: 0,
        published_through: 0,
        at_setup: Counted::default(),
        at_count_epoch: None,
        digest,
    };
    for _ in 0..keys {
        assert!(rig.write(), "preload write is refused");
    }
    rig.at_setup = rig.counted();
    rig
}

fn teardown(rig: Rig, checks: &mut Checks) {
    let Rig {
        machine, server, ..
    } = rig;
    drop(server);
    checks.op(machine.balanced());
}

/// Whole epochs of writes until `length` has passed. At each epoch's end
/// the previous snapshot is joined (truncating the log it covers) and the
/// next one forked.
fn window(rig: &mut Rig, length: Duration, tr: &mut Tracer, checks: &mut Checks) -> WindowResult {
    let w = Window::open(&rig.machine.kernel);
    let mut latency = Timeline::default();
    let mut fork_ns = Vec::new();
    let mut stall_ns = Vec::new();
    let mut ops = 0u64;
    // A run too short to reach the count interval's end is extended to it.
    while w.started.elapsed() < length || rig.epochs < COUNT_EPOCHS {
        for _ in 0..rig.epoch_writes {
            let op = rig.stream.next;
            let started = Instant::now();
            let ok = tr.span("kvstore.persist.write", op, || rig.write());
            latency.push(w.elapsed_ns(), started.elapsed().as_nanos() as u64);
            checks.op(ok);
        }
        ops += rig.epoch_writes;
        rig.epochs += 1;
        let joined = tr.span("durability.chain.join", rig.epochs, || {
            rig.server.wait_bgsave()
        });
        match joined {
            Ok(Some((_, fork))) => {
                fork_ns.push(fork);
                rig.published_through = rig.forked_through;
            }
            Ok(None) => {}
            Err(_) => checks.op(false),
        }
        if rig.epochs == COUNT_EPOCHS {
            rig.at_count_epoch = Some(rig.counted());
        }
        if rig.epochs <= MAX_SNAPSHOTS {
            let started = Instant::now();
            let forked = tr.span("kvstore.persist.bgsave", rig.epochs, || {
                rig.server.bgsave_async()
            });
            stall_ns.push(started.elapsed().as_nanos() as u64);
            rig.forked_through = rig.stream.next;
            checks.op(forked.is_ok());
        }
    }
    w.close(&rig.machine.kernel, ops, latency, fork_ns, stall_ns)
}

/// What the run knows about the writes it made, for judging a recovery.
#[derive(Clone, Copy)]
struct Written {
    seed: u64,
    keys: u64,
    durable_acked: u64,
    published_through: u64,
}

/// Recovers from `fs` and checks the result against the model: the store
/// must equal the stream replayed through the last recovered write, and no
/// write acknowledged as durable may be missing. Returns the verdict, how
/// long recovery took, and how many log records it replayed.
fn recover_and_check(
    kernel: &Arc<Kernel>,
    written: Written,
    fs: Arc<dyn StorageFs>,
) -> (bool, Duration, u64) {
    let started = Instant::now();
    let opened = DurableServer::open(kernel, fs, durable_config(written.keys));
    let took = started.elapsed();
    let Ok((server, report)) = opened else {
        return (false, took, 0);
    };
    // A published snapshot holds every write made before its fork, synced
    // to the log or not; the log holds the rest.
    let recovered_through = server.durable_seq().max(written.published_through);
    let model = model_after(written.seed, written.keys, recovered_through);
    let Ok(dump) = server.dump() else {
        return (false, took, 0);
    };
    let (items, mut entries) = dump_entries(&dump);
    let ok = recovered_through >= written.durable_acked
        && items == model.len() as u64
        && entries.all(|(key, value)| {
            std::str::from_utf8(&key[4..])
                .ok()
                .and_then(|digits| digits.parse::<u64>().ok())
                .and_then(|id| model.get(&id))
                .is_some_and(|want| want.as_slice() == value)
        });
    (ok, took, report.wal_records_to_replay)
}

pub fn run(cfg: RunCfg) -> Outcome {
    let program_tracing = program_tracing_off();
    let mut checks = Checks::default();
    let (mut rig, first_setup_s) = timed_setup(|| build(&cfg));

    let (results, mut tracer) =
        measure(&cfg, |length, tr| window(&mut rig, length, tr, &mut checks));
    // The last snapshot is published; half an epoch of writes follows it, so
    // recovery has a log tail to replay on top of the chain.
    checks.op(rig.server.wait_bgsave().is_ok());
    rig.published_through = rig.forked_through;
    for _ in 0..rig.epoch_writes / 2 {
        let ok = rig.write();
        checks.op(ok);
    }

    // Power fails. Up to FSYNC_EVERY - 1 acknowledged-but-unsynced writes
    // are gone; everything else must come back.
    let disk = rig.fs.crash();
    let written = Written {
        seed: cfg.seed,
        keys: rig.keys,
        durable_acked: rig.durable_acked,
        published_through: rig.published_through,
    };
    let input_digest = rig.digest.value();
    let mut m = Metrics::default();
    if cfg.trace {
        let (untraced, traced) = (&results[0], &results[1]);
        layer_replay(&rig, &cfg, &mut tracer, &mut m);
        count_metrics(&rig, &mut m);
        recovery_metrics(&rig, written, &disk, &mut tracer, &mut m, &mut checks);
        client_and_counts(&mut m, untraced, traced, checks, program_tracing);
        span_metrics(&mut m, &tracer);
        // What a write call costs beyond the log and the store under it:
        // command encoding, dispatch, bookkeeping.
        m.set_one(
            "kvstore.persist.residual_ns",
            untraced.latency.p50() as f64
                - m.value("durability.wal.append_commit_ns")
                - m.value("kvstore.store.set_ns"),
        );
        let footprint = rig.server.process().mm().frame_footprint();
        m.set_one("pagetable.table_frames", footprint.table_frames as f64);
        teardown(rig, &mut checks);
    } else {
        // The server and its disk go first: the crashed copy is all that is
        // left when a machine restarts.
        let Rig {
            machine,
            server,
            fs,
            ..
        } = rig;
        drop((server, fs));
        let (ok, _, _) = recover_and_check(&machine.kernel, written, Arc::new(disk));
        checks.op(ok);
        checks.op(machine.balanced());
        end_to_end(&mut m, &results[0], &results[0].fork_ns);
        finish_setups(
            &mut m,
            first_setup_s,
            || build(&cfg),
            |rig| teardown(rig, &mut checks),
        );
    }
    Outcome {
        checks,
        metrics: m,
        input_digest,
        tracer: cfg.trace.then_some(tracer),
    }
}

/// Replays against the layers under a write, on the live server's process
/// (the crash copy is already taken, so the store may be written directly).
fn layer_replay(rig: &Rig, cfg: &RunCfg, tr: &mut Tracer, m: &mut Metrics) {
    let proc = rig.server.process();
    let store = rig.server.store();
    let mut rng = Rng::stream(cfg.seed, 100);

    // The log alone: the same records, appended and committed under the
    // same group-commit policy, on a file system of their own.
    let fs: Arc<dyn StorageFs> = Arc::new(CrashFs::new());
    let (mut wal, _) = Wal::open(fs, durable_config(rig.keys).wal).expect("open log");
    let mut stream = Stream::new(cfg.seed, rig.keys);
    for _ in 0..20_000 {
        let payload = match stream.next_write() {
            Write::Set { key, value } => Command::Set {
                key: key_bytes(key).to_vec(),
                value: value.to_vec(),
            },
            Write::Del { key } => Command::Del {
                key: key_bytes(key).to_vec(),
            },
            Write::Append { key, suffix } => Command::Append {
                key: key_bytes(key).to_vec(),
                suffix: suffix.to_vec(),
            },
        }
        .encode();
        tr.span("durability.wal.append_commit", 0, || {
            wal.append(&payload).expect("append");
            wal.commit().expect("commit")
        });
    }

    // Image capture from a frozen child, as a snapshot does it.
    let live_bytes: usize = dump_entries(&rig.server.dump().expect("dump"))
        .1
        .map(|(key, value)| key.len() + value.len())
        .sum();
    for _ in 0..3 {
        let child = proc.fork_with(ForkPolicy::OnDemand).expect("fork");
        let epoch = child.checkpoint_epoch();
        let full = tr.span("snapshot.capture_full", epoch, || {
            capture_full(child.mm(), epoch)
        });
        let delta = tr.span("snapshot.capture_delta", epoch, || {
            capture_delta(child.mm(), epoch, epoch.saturating_sub(1))
        });
        std::hint::black_box(delta.pages.len());
        if m.get("snapshot.image_bytes_per_user_byte").is_none() {
            m.set_one(
                "snapshot.image_bytes_per_user_byte",
                full.serialized_len() as f64 / live_bytes as f64,
            );
        }
        child.exit();
    }

    let key_ids: Vec<u64> = (0..2_000).map(|_| rng.below(rig.keys)).collect();
    replay::store_ops(tr, proc, store, &key_ids, VALUE_LEN, 3);
    let heap = store.heap();
    let entry = (16 + KEY_LEN + VALUE_LEN) as u64;
    replay::heap_alloc_free(tr, proc, heap, entry, 200);
    let used = heap.used(proc).expect("heap cursor");
    let scratch = proc.mmap_anon(used).expect("scratch");
    let reads: Vec<u64> = (0..3_200)
        .map(|_| heap.base() + (rng.below(used - 64) & !63))
        .collect();
    let writes: Vec<u64> = (0..3_200)
        .map(|_| scratch + (rng.below(used - 64) & !63))
        .collect();
    replay::vm_access(tr, proc, &reads, &writes);
    proc.munmap(scratch, used).expect("unmap scratch");
    replay::pmem_alloc_free(tr, &rig.machine.kernel, 200);
    replay::forks(tr, proc, ForkPolicy::OnDemand, "vm.fork.ondemand", 15);
    replay::forks(tr, proc, ForkPolicy::Classic, "vm.fork.classic", 5);
}

/// Counts per write over the fixed count interval.
fn count_metrics(rig: &Rig, m: &mut Metrics) {
    let (from, to) = (
        rig.at_setup,
        rig.at_count_epoch.expect("run spans the count interval"),
    );
    let d = to.durability - from.durability;
    let writes = (to.writes - from.writes) as f64;
    let user_bytes = (to.user_bytes - from.user_bytes) as f64;
    m.set_one(
        "durability.wal.fsyncs_per_kop",
        d.wal_fsyncs as f64 * 1e3 / writes,
    );
    m.set_one(
        "durability.wal.bytes_per_user_byte",
        d.wal_bytes_appended as f64 / user_bytes,
    );
    m.set_one(
        "durability.fs.ops_per_write",
        (to.fs_ops - from.fs_ops) as f64 / writes,
    );
    m.set(
        "durability.chain.bytes_per_snapshot",
        d.snapshot_bytes_published as f64 / d.snapshots_published.max(1) as f64,
        d.snapshots_published,
    );
}

/// Three recoveries from copies of the crashed disk, whole and in parts.
fn recovery_metrics(
    rig: &Rig,
    written: Written,
    disk: &CrashFs,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let wal_config = durable_config(rig.keys).wal;
    let mut whole_ns = Vec::new();
    let mut replay_ns_per_record = Vec::new();
    for _ in 0..3 {
        let (ok, whole, records) =
            recover_and_check(&rig.machine.kernel, written, Arc::new(disk.crash()));
        checks.op(ok);
        whole_ns.push(whole.as_nanos() as u64);

        // The same recovery by its parts: chain selection and
        // materialization, the log scan, the restore into a fresh process.
        let fs: Arc<dyn StorageFs> = Arc::new(disk.crash());
        let loaded = tr.span("durability.recover.chain", 0, || {
            ChainStore::open(Arc::clone(&fs))
                .and_then(|chain| chain.load_best())
                .expect("load chain")
        });
        std::hint::black_box(loaded.map(|l| l.links));
        let started = Instant::now();
        let recovered = recover::open(fs, wal_config).expect("recover");
        let image = recovered.image.expect("a published snapshot");
        let restored = rig.machine.kernel.restore(&image).expect("restore");
        let parts = started.elapsed();
        restored.exit();
        replay_ns_per_record.push(whole.saturating_sub(parts).as_nanos() as u64 / records.max(1));
    }
    m.set("client.recovery_ms", median(&whole_ns) as f64 / 1e6, 3);
    m.set(
        "durability.recover.replay_us_per_record",
        median(&replay_ns_per_record) as f64 / 1e3,
        3,
    );
}
