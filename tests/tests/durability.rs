//! Deterministic crash-injection harness for the durability stack.
//!
//! The contract under test (ISSUE 8): after simulated power loss at *any*
//! write/fsync boundary, recovery yields a state equal to some prefix of
//! the mutation order that contains every acknowledged-durable write, and
//! recovering twice is idempotent.
//!
//! Mechanics: a recording pass replays a scripted kv workload against a
//! [`CrashFs`] and counts every mutating storage operation. The harness
//! then re-runs the same workload once per operation index with a
//! [`CrashPlan`] armed at that index — simulating power loss *before* the
//! op (and, for fsyncs, a torn half-persisted fsync) — recovers from the
//! surviving bytes, and compares the recovered store against a
//! prefix-consistency oracle built from a pure [`BTreeMap`] model.
//!
//! Every failure message embeds the seed, crash index, and mode, so any
//! reported counterexample reruns exactly with `ODF_CRASH_SEED`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};

use odf_core::{ForkPolicy, ImageKind, Kernel};
use odf_durability::{
    CrashFs, CrashMode, CrashPlan, FsError, FsyncPolicy, OpKind, StorageFs, WalConfig,
};
use odf_kvstore::{Acked, DurableConfig, DurableServer, PersistError};
use odf_tests::{kv_script, KvOp};
use proptest::prelude::*;

const MIB: u64 = 1 << 20;
const OPS: usize = 24;
const KEY_SPACE: u64 = 6;

/// The shape of one crash sweep: script length and snapshot cadence.
#[derive(Clone, Copy, Debug)]
struct Sweep {
    ops: usize,
    snapshot_every: u64,
}

/// Three snapshots, all in one generation.
const SHORT: Sweep = Sweep {
    ops: OPS,
    snapshot_every: 8,
};

/// Twenty snapshots: full images at epochs 0, 8 and 16 (two re-bases), and
/// the prune after epoch 16 removes the first generation's eight files.
const REBASE: Sweep = Sweep {
    ops: 40,
    snapshot_every: 2,
};

fn config(fsync: FsyncPolicy, snapshot_every: u64) -> DurableConfig {
    DurableConfig {
        heap_capacity: 2 * MIB,
        buckets: 64,
        fork_policy: ForkPolicy::OnDemand,
        incremental: true,
        // Several bgsaves per script, so crash points land inside the
        // fork/publish/truncate sequence too.
        snapshot_every,
        wal: WalConfig {
            segment_bytes: 2048, // small segments force mid-script rotation
            fsync,
        },
    }
}

/// `prune_failures` is process-wide: the tests that can fail a prune take
/// turns, so one of them can read the counter exactly.
fn prunes() -> MutexGuard<'static, ()> {
    static PRUNES: Mutex<()> = Mutex::new(());
    PRUNES.lock().unwrap_or_else(|e| e.into_inner())
}

fn kernel() -> Arc<Kernel> {
    Kernel::new(48 * MIB)
}

/// The pure model the recovered store is diffed against.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn apply_model(m: &mut Model, op: &KvOp) {
    match op {
        KvOp::Set { key, value } => {
            m.insert(key.clone(), value.clone());
        }
        KvOp::Del { key } => {
            m.remove(key);
        }
        KvOp::Incr { key } => {
            let current = m
                .get(key)
                .map(|v| {
                    String::from_utf8(v.clone())
                        .unwrap()
                        .parse::<i64>()
                        .unwrap()
                })
                .unwrap_or(0);
            m.insert(key.clone(), (current + 1).to_string().into_bytes());
        }
        KvOp::Append { key, suffix } => {
            m.entry(key.clone()).or_default().extend_from_slice(suffix);
        }
    }
}

/// Model states after every prefix: `states[j]` is the store after the
/// first `j` ops.
fn prefix_states(script: &[KvOp]) -> Vec<Model> {
    let mut states = vec![Model::new()];
    let mut m = Model::new();
    for op in script {
        apply_model(&mut m, op);
        states.push(m.clone());
    }
    states
}

/// Parses `Store::serialize` output into a comparable map.
fn parse_dump(dump: &[u8]) -> Model {
    let items = u64::from_le_bytes(dump[0..8].try_into().unwrap());
    let mut m = Model::new();
    let mut at = 8usize;
    for _ in 0..items {
        let klen = u32::from_le_bytes(dump[at..at + 4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(dump[at + 4..at + 8].try_into().unwrap()) as usize;
        at += 8;
        let key = dump[at..at + klen].to_vec();
        at += klen;
        let value = dump[at..at + vlen].to_vec();
        at += vlen;
        m.insert(key, value);
    }
    assert_eq!(at, dump.len(), "trailing bytes in dump");
    m
}

fn apply(srv: &mut DurableServer, op: &KvOp) -> Result<Acked, PersistError> {
    match op {
        KvOp::Set { key, value } => srv.set(key, value),
        KvOp::Del { key } => srv.del(key),
        KvOp::Incr { key } => srv.incr(key),
        KvOp::Append { key, suffix } => srv.append(key, suffix),
    }
}

struct RunOutcome {
    /// Ops attempted, including the one interrupted by the crash.
    started: usize,
    /// Ops known acknowledged-durable when the crash hit.
    acked: usize,
    crashed: bool,
}

/// Drives the script against a (possibly armed) fs until completion or
/// simulated power loss.
fn run(fs: &Arc<CrashFs>, script: &[KvOp], cfg: DurableConfig) -> RunOutcome {
    let k = kernel();
    let mut srv = match DurableServer::open(&k, fs.clone(), cfg) {
        Ok((srv, _)) => srv,
        Err(PersistError::Fs(FsError::Crashed)) => {
            return RunOutcome {
                started: 0,
                acked: 0,
                crashed: true,
            }
        }
        Err(e) => panic!("open failed non-crash: {e}"),
    };
    let mut acked = 0;
    for (i, op) in script.iter().enumerate() {
        match apply(&mut srv, op) {
            Ok(a) => {
                if a.durable {
                    acked = i + 1;
                }
            }
            Err(PersistError::Fs(FsError::Crashed)) => {
                return RunOutcome {
                    started: i + 1,
                    acked,
                    crashed: true,
                }
            }
            Err(e) => panic!("op {i} failed non-crash: {e}"),
        }
    }
    RunOutcome {
        started: script.len(),
        acked,
        crashed: false,
    }
}

/// Recovers from `fs` and returns the materialized store contents.
fn recovered_state(fs: &Arc<CrashFs>, cfg: DurableConfig, ctx: &str) -> Model {
    let k = kernel();
    let (srv, _) = DurableServer::open(&k, fs.clone(), cfg)
        .unwrap_or_else(|e| panic!("recovery failed ({ctx}): {e}"));
    parse_dump(
        &srv.dump()
            .unwrap_or_else(|e| panic!("dump failed ({ctx}): {e}")),
    )
}

/// Crashes at storage-op `at`, recovers, and checks the oracle.
fn check_crash_point(
    script: &[KvOp],
    states: &[Model],
    cfg: DurableConfig,
    at: u64,
    mode: CrashMode,
    seed: u64,
) {
    let fs = Arc::new(CrashFs::new());
    fs.arm(CrashPlan { at, mode });
    let out = run(&fs, script, cfg);
    let ctx = format!("seed {seed}, crash at op {at}, mode {mode:?}");
    assert!(out.crashed, "plan must fire within the workload ({ctx})");

    let survivor = Arc::new(fs.crash());
    let recovered = recovered_state(&survivor, cfg, &ctx);
    let again = recovered_state(&survivor, cfg, &ctx);
    assert_eq!(recovered, again, "recovery is not idempotent ({ctx})");

    let matched = (out.acked..=out.started).any(|j| states[j] == recovered);
    assert!(
        matched,
        "recovered state is not a prefix in [acked {}..=started {}] ({ctx}); \
         recovered {} keys",
        out.acked,
        out.started,
        recovered.len()
    );
}

/// Exhaustively enumerates every storage-operation boundary for one seed.
fn check_seed(seed: u64, sweep: Sweep) {
    let script = kv_script(seed, sweep.ops, KEY_SPACE);
    let states = prefix_states(&script);
    let cfg = config(FsyncPolicy::Always, sweep.snapshot_every);

    // Recording pass: how many storage ops does the full run make, and
    // which of them are fsyncs (candidates for torn-fsync injection)?
    let fs = Arc::new(CrashFs::new());
    let out = run(&fs, &script, cfg);
    assert!(!out.crashed, "recording pass must complete");
    assert_eq!(out.acked, sweep.ops, "Always policy acks everything");
    let op_log = fs.op_log();

    // The completed run must recover to exactly the final state.
    let survivor = Arc::new(fs.crash());
    let final_ctx = format!("seed {seed}, clean shutdown");
    assert_eq!(
        recovered_state(&survivor, cfg, &final_ctx),
        states[sweep.ops],
        "clean recovery lost acknowledged writes ({final_ctx})"
    );

    let torn = op_log.iter().filter(|&&k| k == OpKind::Fsync).count();
    eprintln!(
        "seed {seed}, {sweep:?}: {} boundaries, {} crash points",
        op_log.len(),
        op_log.len() + torn
    );
    for at in 0..op_log.len() as u64 {
        check_crash_point(&script, &states, cfg, at, CrashMode::Before, seed);
        if op_log[at as usize] == OpKind::Fsync {
            check_crash_point(&script, &states, cfg, at, CrashMode::TornFsync, seed);
        }
    }
}

#[test]
fn crash_at_every_boundary_fixed_seed() {
    check_seed(0xD15C_0C0A, SHORT);
}

/// Crash points inside two re-bases and a prune that removes files.
#[test]
fn crash_at_every_boundary_across_rebases_and_a_prune() {
    let _prunes = prunes();
    check_seed(0xD15C_0C0A, REBASE);
}

/// CI sets `ODF_CRASH_SEED` to sweep extra seeds without recompiling.
#[test]
fn crash_at_every_boundary_env_seed() {
    if let Ok(seed) = std::env::var("ODF_CRASH_SEED") {
        let seed = seed.parse::<u64>().expect("ODF_CRASH_SEED must be a u64");
        eprintln!("crash-injection sweep with ODF_CRASH_SEED={seed}");
        check_seed(seed, SHORT);
        let _prunes = prunes();
        check_seed(seed, REBASE);
    }
}

/// Seventy snapshots — past the 64 links recovery once followed — stay
/// within two generations on disk and recover from one.
#[test]
fn seventy_snapshots_stay_bounded_and_recoverable() {
    let k = DurableServer::GENERATION_IMAGES;
    let cfg = config(FsyncPolicy::Always, 0);
    let script = kv_script(0x70, 210, KEY_SPACE);
    let states = prefix_states(&script);
    let fs = Arc::new(CrashFs::new());
    let snap_files = |fs: &CrashFs| {
        let names = fs.list().unwrap();
        names.iter().filter(|n| n.starts_with("snap-")).count()
    };
    {
        let (mut srv, _) = DurableServer::open(&kernel(), fs.clone(), cfg).unwrap();
        for (i, op) in script.iter().enumerate() {
            apply(&mut srv, op).unwrap();
            if (i + 1) % 3 == 0 {
                srv.bgsave().unwrap();
                assert!(snap_files(&fs) <= 2 * k, "after {} snapshots", (i + 1) / 3);
            }
        }
    }
    let survivor = Arc::new(fs.crash());
    assert!(snap_files(&survivor) <= 2 * k);
    let (srv, report) = DurableServer::open(&kernel(), survivor, cfg).unwrap();
    assert_eq!(report.chain_epoch, Some(69));
    assert!(report.chain_links <= k, "{} links", report.chain_links);
    assert_eq!(parse_dump(&srv.dump().unwrap()), states[script.len()]);
}

/// Under `Always`, with `BGSAVE` forking under either policy, every write
/// is acknowledged durable, and recovery after a crash replays the WAL
/// tail past the last snapshot onto the chain and lands on the final state.
#[test]
fn always_acks_every_write_durable_under_both_fork_policies() {
    let script = kv_script(0xA1, OPS, KEY_SPACE);
    let states = prefix_states(&script);
    for fork_policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let cfg = DurableConfig {
            fork_policy,
            ..config(FsyncPolicy::Always, 5)
        };
        let fs = Arc::new(CrashFs::new());
        let out = run(&fs, &script, cfg);
        assert!(!out.crashed);
        assert_eq!(out.acked, OPS, "{fork_policy:?}: a non-durable ack");
        let (srv, report) = DurableServer::open(&kernel(), Arc::new(fs.crash()), cfg).unwrap();
        assert!(report.chain_epoch.is_some(), "{fork_policy:?}: no BGSAVE");
        assert!(
            report.wal_records_to_replay > 0,
            "{fork_policy:?}: recovery replayed no WAL tail"
        );
        assert_eq!(
            parse_dump(&srv.dump().unwrap()),
            states[OPS],
            "{fork_policy:?}"
        );
    }
}

/// A [`CrashFs`] on which, once armed, the next `kind` operation (a
/// `rename` or a `remove`) on a file whose name starts with `prefix` fails
/// the way a host I/O error would: nothing changes, and the store keeps
/// running.
struct FailNext {
    fs: CrashFs,
    kind: OpKind,
    prefix: &'static str,
    armed: AtomicBool,
}

impl FailNext {
    fn check(&self, kind: OpKind, name: &str) -> Result<(), FsError> {
        if kind == self.kind && name.starts_with(self.prefix) && self.armed.swap(false, SeqCst) {
            return Err(FsError::Io(format!("injected: {kind:?} {name}")));
        }
        Ok(())
    }
}

impl StorageFs for FailNext {
    fn create(&self, name: &str) -> Result<(), FsError> {
        self.fs.create(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<(), FsError> {
        self.fs.append(name, data)
    }
    fn fsync(&self, name: &str) -> Result<(), FsError> {
        self.fs.fsync(name)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        self.fs.read(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.check(OpKind::Rename, from)?;
        self.fs.rename(from, to)
    }
    fn remove(&self, name: &str) -> Result<(), FsError> {
        self.check(OpKind::Remove, name)?;
        self.fs.remove(name)
    }
    fn sync_dir(&self) -> Result<(), FsError> {
        self.fs.sync_dir()
    }
    fn list(&self) -> Result<Vec<String>, FsError> {
        self.fs.list()
    }
    fn exists(&self, name: &str) -> Result<bool, FsError> {
        self.fs.exists(name)
    }
}

/// A publish that fails leaves its epoch without a row, so the next image
/// cannot be a delta on it: it is a full one, and recovery holds every
/// write.
#[test]
fn a_failed_publish_is_followed_by_a_full_image() {
    let cfg = config(FsyncPolicy::Always, 0);
    let fs = CrashFs::new();
    let failing = Arc::new(FailNext {
        fs: fs.clone(),
        kind: OpKind::Rename,
        prefix: "manifest",
        armed: AtomicBool::new(false),
    });
    let (mut srv, _) = DurableServer::open(&kernel(), failing.clone(), cfg).unwrap();
    let writes: [&[u8]; 3] = [b"a", b"b", b"c"];
    srv.set(writes[0], b"0").unwrap();
    srv.bgsave().unwrap();
    srv.set(writes[1], b"1").unwrap();
    failing.armed.store(true, SeqCst);
    assert!(
        srv.bgsave().is_err(),
        "epoch 1's manifest was not published"
    );
    srv.set(writes[2], b"2").unwrap();
    let entry = srv.bgsave().unwrap();
    assert_eq!((entry.epoch, entry.kind), (2, ImageKind::Full));
    drop(srv);
    let (mut srv, report) = DurableServer::open(&kernel(), Arc::new(fs.crash()), cfg).unwrap();
    assert_eq!(
        (report.chain_epoch, report.manifest_corrupt),
        (Some(2), false)
    );
    for (i, key) in writes.iter().enumerate() {
        assert_eq!(srv.get(key).unwrap(), Some(i.to_string().into_bytes()));
    }
}

/// A prune that fails does not fail its snapshot: the image and manifest
/// are durable before the prune starts. The failure is counted, the next
/// prune sweeps what it left, and recovery holds every write — after an
/// I/O error at a prune's `remove`, and after a crash there.
#[test]
fn a_failed_prune_is_counted_and_the_snapshot_stands() {
    let _prunes = prunes();
    let failures = || odf_durability::stats().snapshot().prune_failures;
    // Segments large enough that no WAL truncation removes a file: every
    // `remove` is a prune's.
    let cfg = DurableConfig {
        wal: WalConfig {
            segment_bytes: MIB,
            fsync: FsyncPolicy::Always,
        },
        ..config(FsyncPolicy::Always, 0)
    };
    // 27 snapshots: prunes after the full images at epochs 16 and 24.
    let script = kv_script(0xD15C_0C0A, 54, KEY_SPACE);
    let states = prefix_states(&script);
    // A bgsave after every two writes, up to the first failure; returns
    // the writes applied (all of them acknowledged durable).
    let run = |fs: Arc<dyn StorageFs>| {
        let (mut srv, _) = DurableServer::open(&kernel(), fs, cfg).unwrap();
        for (i, op) in script.iter().enumerate() {
            if apply(&mut srv, op).is_err() {
                return i;
            }
            if i % 2 == 1 && srv.bgsave().is_err() {
                return i + 1;
            }
        }
        script.len()
    };
    let recover = |fs: CrashFs| {
        let (srv, report) = DurableServer::open(&kernel(), Arc::new(fs), cfg).unwrap();
        (parse_dump(&srv.dump().unwrap()), report.chain_epoch)
    };

    // An I/O error: every bgsave returns Ok, and the prune after epoch 24
    // removes what the one after epoch 16 left.
    let fs = CrashFs::new();
    let before = failures();
    let failing = Arc::new(FailNext {
        fs: fs.clone(),
        kind: OpKind::Remove,
        prefix: "snap-",
        armed: AtomicBool::new(true),
    });
    assert_eq!(run(failing), script.len(), "a bgsave failed");
    assert_eq!(failures() - before, 1);
    let snaps = fs.list().unwrap();
    let snaps = snaps.iter().filter(|n| n.starts_with("snap-")).count();
    assert!(
        snaps <= 2 * DurableServer::GENERATION_IMAGES,
        "{snaps} files"
    );
    assert_eq!(
        recover(fs.crash()),
        (states[script.len()].clone(), Some(26))
    );

    // Power lost at the first prune's first `remove`: the full image at
    // epoch 16 stands, and no acknowledged write is lost. (The bgsave
    // itself reports the crash, met again by the WAL truncation after
    // the prune.)
    let recording = CrashFs::new();
    run(Arc::new(recording.clone()));
    let at = recording.op_log().iter().position(|&k| k == OpKind::Remove);
    let fs = CrashFs::new();
    fs.arm(CrashPlan {
        at: at.expect("the script prunes") as u64,
        mode: CrashMode::Before,
    });
    let before = failures();
    let applied = run(Arc::new(fs.clone()));
    assert_eq!(failures() - before, 1);
    assert_eq!(recover(fs.crash()), (states[applied].clone(), Some(16)));
}

/// Lazy-fsync policies may lose un-acked tails but never acked writes:
/// spot-check a few boundaries per seed under `EveryN` group commit.
#[test]
fn lazy_group_commit_never_loses_acked_writes() {
    let cfg = config(FsyncPolicy::EveryN(4), SHORT.snapshot_every);
    for seed in [1u64, 2, 3] {
        let script = kv_script(seed, OPS, KEY_SPACE);
        let states = prefix_states(&script);
        let fs = Arc::new(CrashFs::new());
        let out = run(&fs, &script, cfg);
        assert!(!out.crashed);
        let total = fs.ops();
        for at in (0..total).step_by(7) {
            let fs = Arc::new(CrashFs::new());
            fs.arm(CrashPlan {
                at,
                mode: CrashMode::Before,
            });
            let out = run(&fs, &script, cfg);
            assert!(out.crashed);
            let survivor = Arc::new(fs.crash());
            let ctx = format!("lazy seed {seed}, crash at {at}");
            let recovered = recovered_state(&survivor, cfg, &ctx);
            let matched = (out.acked..=out.started).any(|j| states[j] == recovered);
            assert!(matched, "prefix violation ({ctx})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 2 } else { 6 },
        ..ProptestConfig::default()
    })]

    /// Property: for a random workload seed, every storage-op boundary
    /// recovers to a consistent prefix. (Seeds print in any failure via
    /// the embedded context string; rerun with ODF_CRASH_SEED=<seed>.)
    #[test]
    fn prop_random_workloads_survive_all_crash_points(seed in 0u64..1_000_000) {
        check_seed(seed, SHORT);
    }
}
