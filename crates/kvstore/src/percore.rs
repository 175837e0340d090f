//! Thread-per-core shared-nothing serving tier.
//!
//! The seastar/glommio shape: each shard owns **one long-lived pinned
//! worker** running a non-blocking event loop that parses RESP in place,
//! executes against its shard, and writes replies run-to-completion — with
//! **no cross-thread channels on the request path**.
//!
//! The invariants:
//!
//! - **Connection placement**: a connection belongs to exactly one worker
//!   (chosen at [`PerCoreServer::connect`] time). All of its request
//!   parsing, execution, and reply encoding happen on that worker. Keys
//!   that hash to another shard are answered with a Redis-Cluster-style
//!   `-MOVED <shard>` redirect instead of being forwarded — smart clients
//!   route keys to the right connection and never see one.
//! - **Run to completion**: a shard-local command goes request-bytes →
//!   borrowed arg slices ([`RecvBuf`]) → store call → reply bytes
//!   ([`ReplyBuf`]) without yielding, locking shared state, or allocating
//!   per request. The per-connection inbox/outbox `Mutex`es model the
//!   socket between client and server; they are touched by exactly one
//!   client thread and one worker.
//! - **Mailboxes for the rare ops only**: `DBSIZE` (cross-shard sum) and
//!   `BGSAVE`/shutdown coordination travel over an SPSC mailbox mesh —
//!   each cell written by one thread and drained by one thread. A
//!   cross-shard reply parks in a pending [`ReplyBuf`] slot so younger
//!   shard-local replies still leave in request order.
//! - **Per-thread state binds at startup**: the worker warms its shard
//!   before serving, so the first allocator touch pins this thread's
//!   frame-magazine stripe, the first fault event lands in this thread's
//!   trace ring, and probe caches attach here — not lazily mid-benchmark.
//!
//! BGSAVE runs off the serving threads: the coordinator thread stalls all
//! workers at an epoch barrier for the duration of the fork call *only*
//! (the paper's microsecond window), then releases them and serializes the
//! frozen child itself while serving continues.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use odf_core::{ForkPolicy, Kernel, Process, Result};
use odf_metrics::Summary;

use crate::command;
use crate::resp::{skip_reply, Parsed, RecvBuf, ReplyBuf};
use crate::server::fork_snapshot_child;
use crate::sharded::{ShardedSnapshot, ShardedStore};
use crate::store::Store;

/// Configuration for a [`PerCoreServer`].
#[derive(Clone, Copy, Debug)]
pub struct PerCoreConfig {
    /// Worker (and shard) count.
    pub shards: usize,
    /// Simulated heap bytes per shard.
    pub heap_per_shard: u64,
    /// Hash buckets per shard.
    pub buckets: u64,
    /// Fork policy for BGSAVE.
    pub fork_policy: ForkPolicy,
}

impl Default for PerCoreConfig {
    fn default() -> Self {
        PerCoreConfig {
            shards: 4,
            heap_per_shard: 8 << 20,
            buckets: 1024,
            fork_policy: ForkPolicy::OnDemand,
        }
    }
}

/// A message in the SPSC mailbox mesh. Every variant is a rare control or
/// cross-shard operation — data commands never travel here.
#[derive(Debug)]
enum Msg {
    /// Worker `from` asks a peer for its shard's item count.
    LenReq { from: usize, token: u64 },
    /// The peer's answer, routed back by `token`.
    LenReply { token: u64, count: Result<u64> },
    /// To the coordinator: run a BGSAVE. `from` is the worker serving the
    /// client's `BGSAVE` command, or `None` for an external caller.
    BgsaveReq { from: Option<usize>, token: u64 },
    /// Coordinator → worker: spin at the fork barrier for `epoch`.
    Barrier { epoch: u64 },
    /// Coordinator → requesting worker: the fork was attempted; tell the
    /// client how it went.
    BgsaveForked { token: u64, forked: Result<()> },
    /// Coordinator → worker: finish draining client inboxes, then ack.
    Quiesce,
    /// Worker → coordinator: inboxes drained, no new cross-shard requests
    /// will be issued.
    QuiesceAck { from: usize },
    /// Coordinator → worker: answer remaining mailbox traffic and exit.
    /// External caller → coordinator: begin the shutdown protocol.
    Shutdown,
}

/// The mailbox mesh: `slots`² cells, cell `(to, from)` written only by
/// participant `from` and drained only by participant `to` — single
/// producer, single consumer, and never on the data path.
struct Mesh {
    slots: usize,
    cells: Vec<Mutex<VecDeque<Msg>>>,
}

impl Mesh {
    fn new(slots: usize) -> Mesh {
        Mesh {
            slots,
            cells: (0..slots * slots)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        }
    }

    fn post(&self, to: usize, from: usize, msg: Msg) {
        self.cells[to * self.slots + from]
            .lock()
            .expect("mailbox poisoned")
            .push_back(msg);
    }

    /// Drains every cell addressed to `to`, preserving per-sender order.
    fn drain_row(&self, to: usize, into: &mut Vec<(usize, Msg)>) {
        for from in 0..self.slots {
            let mut cell = self.cells[to * self.slots + from]
                .lock()
                .expect("mailbox poisoned");
            while let Some(msg) = cell.pop_front() {
                into.push((from, msg));
            }
        }
    }
}

/// Fork-barrier state: the coordinator posts a target epoch, workers
/// arrive and spin until the matching release — the spin window covers
/// exactly the fork call.
struct Barrier {
    epoch: AtomicU64,
    arrived: AtomicUsize,
    released: AtomicU64,
}

/// In-flight/completed snapshot accounting behind [`PerCoreServer::bgsave`].
#[derive(Default)]
struct SnapshotBox {
    in_flight: u64,
    done: Vec<ShardedSnapshot>,
    /// Fork stall of every snapshot started, nanoseconds (for `INFO`).
    fork_times: Summary,
}

/// One registered client connection: the inbox/outbox pair models the
/// socket. Exactly one client thread writes the inbox and reads the
/// outbox; exactly one worker does the reverse.
struct ConnShared {
    inbox: Mutex<Vec<u8>>,
    outbox: Mutex<Vec<u8>>,
    closed: AtomicBool,
    /// The owning worker, unparked on send.
    worker: Thread,
    /// The client thread blocked on replies, unparked after a flush. A
    /// park/unpark handoff instead of client-side spinning: with more
    /// threads than cores, a spinning client starves the very worker it
    /// is waiting for.
    reader: Mutex<Option<Thread>>,
}

/// A client's handle to one connection, placed on one shard's worker.
pub struct Connection {
    shared: Arc<ConnShared>,
    shard: usize,
}

impl Connection {
    /// The shard (and worker) this connection is placed on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Queues request bytes (RESP commands, possibly pipelined) and wakes
    /// the owning worker.
    pub fn send(&self, bytes: &[u8]) {
        self.shared
            .inbox
            .lock()
            .expect("inbox poisoned")
            .extend_from_slice(bytes);
        self.shared.worker.unpark();
    }

    /// Drains available reply bytes into `out`, returning how many arrived.
    pub fn recv_into(&self, out: &mut Vec<u8>) -> usize {
        let mut outbox = self.shared.outbox.lock().expect("outbox poisoned");
        let n = outbox.len();
        out.extend_from_slice(&outbox);
        outbox.clear();
        n
    }

    /// Whether the server side has closed this connection.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Parks the calling thread until reply bytes are available (or the
    /// connection closes). The owning worker unparks the reader right
    /// after flushing replies into the outbox.
    pub fn wait_readable(&self) {
        loop {
            if !self
                .shared
                .outbox
                .lock()
                .expect("outbox poisoned")
                .is_empty()
                || self.is_closed()
            {
                return;
            }
            *self.shared.reader.lock().expect("reader poisoned") = Some(std::thread::current());
            // Re-check after registering: the worker may have flushed (and
            // consumed no reader) between our check and the registration.
            if !self
                .shared
                .outbox
                .lock()
                .expect("outbox poisoned")
                .is_empty()
                || self.is_closed()
            {
                return;
            }
            std::thread::park_timeout(Duration::from_micros(200));
        }
    }

    /// Blocks until `n` complete replies have been appended to `out`.
    /// Returns how many of them were errors.
    pub fn await_replies(&self, n: usize, out: &mut Vec<u8>) -> usize {
        let mut scanned = out.len();
        let mut got = 0;
        let mut errors = 0;
        while got < n {
            if self.recv_into(out) == 0 {
                if self.is_closed() {
                    break;
                }
                self.wait_readable();
                continue;
            }
            while got < n {
                let Some(used) = skip_reply(&out[scanned..]) else {
                    break;
                };
                if out[scanned] == b'-' {
                    errors += 1;
                }
                scanned += used;
                got += 1;
            }
        }
        errors
    }
}

/// Everything the workers, the coordinator, and the external handle share.
struct Shared {
    store: ShardedStore,
    /// Taken (and exited) at shutdown, once every thread has dropped its
    /// clone.
    proc: Mutex<Option<Arc<Process>>>,
    mesh: Mesh,
    barrier: Barrier,
    /// Thread handles for unparking: workers `0..n`, coordinator at `n`.
    threads: Mutex<Vec<Thread>>,
    /// Per-worker registration queues for new connections.
    incoming: Vec<Mutex<Vec<Arc<ConnShared>>>>,
    snapshots: Mutex<SnapshotBox>,
    snapshots_cv: Condvar,
    policy: ForkPolicy,
}

impl Shared {
    fn proc(&self) -> Arc<Process> {
        Arc::clone(
            self.proc
                .lock()
                .expect("proc poisoned")
                .as_ref()
                .expect("server not shut down"),
        )
    }

    fn wake(&self, participant: usize) {
        let threads = self.threads.lock().expect("threads poisoned");
        if let Some(t) = threads.get(participant) {
            t.unpark();
        }
    }
}

/// The thread-per-core server: `shards` pinned workers plus one
/// coordinator thread, all serving one simulated process.
pub struct PerCoreServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    ctl: Option<JoinHandle<()>>,
    next_conn: AtomicUsize,
    down: bool,
    shards: usize,
}

/// Mesh slot of the coordinator for a server with `n` workers.
fn ctl_slot(n: usize) -> usize {
    n
}

/// Mesh slot external callers ([`PerCoreServer`] methods) post from.
fn ext_slot(n: usize) -> usize {
    n + 1
}

impl PerCoreServer {
    /// Boots the serving process, creates the sharded store, and spawns
    /// one worker per shard plus the coordinator. Workers bind their
    /// per-thread allocator stripe, trace ring, and probe cache before the
    /// server is returned to the caller.
    pub fn new(kernel: &Arc<Kernel>, cfg: PerCoreConfig) -> Result<PerCoreServer> {
        assert!(cfg.shards > 0, "need at least one shard");
        let proc = kernel.spawn()?;
        let store = ShardedStore::create(&proc, cfg.shards, cfg.heap_per_shard, cfg.buckets)?;
        let n = cfg.shards;
        let shared = Arc::new(Shared {
            store,
            proc: Mutex::new(Some(Arc::new(proc))),
            mesh: Mesh::new(n + 2),
            barrier: Barrier {
                epoch: AtomicU64::new(0),
                arrived: AtomicUsize::new(0),
                released: AtomicU64::new(0),
            },
            threads: Mutex::new(Vec::new()),
            incoming: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            snapshots: Mutex::new(SnapshotBox::default()),
            snapshots_cv: Condvar::new(),
            policy: cfg.fork_policy,
        });
        let mut workers = Vec::with_capacity(n);
        for me in 0..n {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("percore-{me}"))
                    .spawn(move || worker_main(me, &shared))
                    .expect("spawn worker"),
            );
        }
        let ctl = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("percore-ctl".into())
                .spawn(move || ctl_main(n, &shared))
                .expect("spawn coordinator")
        };
        {
            let mut threads = shared.threads.lock().expect("threads poisoned");
            threads.extend(workers.iter().map(|h| h.thread().clone()));
            threads.push(ctl.thread().clone());
        }
        Ok(PerCoreServer {
            shared,
            workers,
            ctl: Some(ctl),
            next_conn: AtomicUsize::new(0),
            down: false,
            shards: n,
        })
    }

    /// Number of shards (= workers).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard whose worker serves `key` — clients use this to place
    /// connections so data commands never cross shards.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        self.shared.store.shard_for(key)
    }

    /// The sharded store handle (for direct inspection in tests).
    pub fn store(&self) -> &ShardedStore {
        &self.shared.store
    }

    /// The serving process.
    pub fn process(&self) -> Arc<Process> {
        self.shared.proc()
    }

    /// Opens a connection placed round-robin across shards.
    pub fn connect(&self) -> Connection {
        let shard = self.next_conn.fetch_add(1, Ordering::Relaxed) % self.shards;
        self.connect_to(shard)
    }

    /// Opens a connection placed on `shard`'s worker.
    pub fn connect_to(&self, shard: usize) -> Connection {
        assert!(shard < self.shards, "shard out of range");
        let worker = self.shared.threads.lock().expect("threads poisoned")[shard].clone();
        let conn = Arc::new(ConnShared {
            inbox: Mutex::new(Vec::new()),
            outbox: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            worker,
            reader: Mutex::new(None),
        });
        self.shared.incoming[shard]
            .lock()
            .expect("incoming poisoned")
            .push(Arc::clone(&conn));
        self.shared.wake(shard);
        Connection {
            shared: conn,
            shard,
        }
    }

    /// Requests a background snapshot: the coordinator stalls workers for
    /// the fork call only, then serializes the frozen child while serving
    /// continues. Collect results with [`PerCoreServer::wait_snapshots`].
    pub fn bgsave(&self) {
        {
            let mut snaps = self.shared.snapshots.lock().expect("snapshots poisoned");
            snaps.in_flight += 1;
        }
        self.shared.mesh.post(
            ctl_slot(self.shards),
            ext_slot(self.shards),
            Msg::BgsaveReq {
                from: None,
                token: 0,
            },
        );
        self.shared.wake(ctl_slot(self.shards));
    }

    /// Blocks until every requested snapshot has materialized, returning
    /// them in completion order.
    pub fn wait_snapshots(&self) -> Vec<ShardedSnapshot> {
        let mut snaps = self.shared.snapshots.lock().expect("snapshots poisoned");
        while snaps.in_flight > 0 {
            snaps = self
                .shared
                .snapshots_cv
                .wait(snaps)
                .expect("snapshots poisoned");
        }
        snaps.done.drain(..).collect()
    }

    /// Stops the server: workers drain every request received so far plus
    /// all in-flight mailbox traffic (pending cross-shard replies
    /// complete), then exit; the serving process exits last. Idempotent.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shared
            .mesh
            .post(ctl_slot(self.shards), ext_slot(self.shards), Msg::Shutdown);
        self.shared.wake(ctl_slot(self.shards));
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(ctl) = self.ctl.take() {
            let _ = ctl.join();
        }
        let proc = self
            .shared
            .proc
            .lock()
            .expect("proc poisoned")
            .take()
            .expect("shutdown runs once");
        Arc::try_unwrap(proc)
            .ok()
            .expect("all threads joined, no process handle leaks")
            .exit();
    }
}

impl Drop for PerCoreServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

fn ctl_main(n: usize, shared: &Shared) {
    let proc = shared.proc();
    let me = ctl_slot(n);
    let mut row: Vec<(usize, Msg)> = Vec::new();
    let mut shutdown_requested = false;
    loop {
        shared.mesh.drain_row(me, &mut row);
        let progressed = !row.is_empty();
        for (_, msg) in row.drain(..) {
            match msg {
                Msg::BgsaveReq { from, token } => run_bgsave(n, shared, &proc, from, token),
                Msg::QuiesceAck { .. } => unreachable!("acks are consumed by run_shutdown"),
                Msg::Shutdown => shutdown_requested = true,
                other => unreachable!("coordinator got {other:?}"),
            }
        }
        if shutdown_requested {
            run_shutdown(n, shared, &proc);
            return;
        }
        if !progressed {
            std::thread::park_timeout(Duration::from_millis(5));
        }
    }
}

/// Stalls every worker at the barrier, forks (the only serving stall),
/// releases them, then serializes the frozen child on this thread.
fn run_bgsave(n: usize, shared: &Shared, proc: &Arc<Process>, from: Option<usize>, token: u64) {
    let epoch = shared.barrier.epoch.load(Ordering::Relaxed) + 1;
    shared.barrier.arrived.store(0, Ordering::Release);
    shared.barrier.epoch.store(epoch, Ordering::Release);
    for w in 0..n {
        shared.mesh.post(w, ctl_slot(n), Msg::Barrier { epoch });
        shared.wake(w);
    }
    while shared.barrier.arrived.load(Ordering::Acquire) < n {
        // Yield, don't spin: with fewer cores than workers a spinning
        // coordinator would stop stragglers from ever reaching the barrier.
        std::thread::yield_now();
    }
    // Every worker is spinning between two requests: a quiescent point.
    // The fork call is the entire stall the serving tier observes.
    let forked = fork_snapshot_child(proc, shared.policy, false);
    shared.barrier.released.store(epoch, Ordering::Release);
    if let Some(w) = from {
        let forked = forked.as_ref().map(|_| ()).map_err(|&e| e);
        shared
            .mesh
            .post(w, ctl_slot(n), Msg::BgsaveForked { token, forked });
        shared.wake(w);
    }
    if let Ok((_, fork_ns, _, _)) = forked {
        let mut snaps = shared.snapshots.lock().expect("snapshots poisoned");
        snaps.fork_times.record(fork_ns as f64);
    }
    let result = forked.and_then(|(child, fork_ns, _, _)| {
        let dumps = shared.store.serialize(&child)?;
        child.exit();
        Ok(ShardedSnapshot { fork_ns, dumps })
    });
    let mut snaps = shared.snapshots.lock().expect("snapshots poisoned");
    snaps.in_flight -= 1;
    if let Ok(snapshot) = result {
        snaps.done.push(snapshot);
    }
    shared.snapshots_cv.notify_all();
}

/// Two-phase shutdown: quiesce every worker (drain client inboxes, stop
/// issuing new cross-shard requests), run any BGSAVEs those drains queued,
/// then release the workers to answer residual mailbox traffic and exit.
fn run_shutdown(n: usize, shared: &Shared, proc: &Arc<Process>) {
    for w in 0..n {
        shared.mesh.post(w, ctl_slot(n), Msg::Quiesce);
        shared.wake(w);
    }
    let mut acked = vec![false; n];
    let mut row: Vec<(usize, Msg)> = Vec::new();
    while acked.iter().any(|&a| !a) {
        shared.mesh.drain_row(ctl_slot(n), &mut row);
        let progressed = !row.is_empty();
        for (_, msg) in row.drain(..) {
            match msg {
                // Per-cell FIFO: a worker's BgsaveReqs precede its ack, so
                // every snapshot queued by the final drain still runs.
                Msg::BgsaveReq { from, token } => run_bgsave(n, shared, proc, from, token),
                Msg::QuiesceAck { from } => acked[from] = true,
                Msg::Shutdown => {} // duplicate external shutdown
                other => unreachable!("coordinator got {other:?} during shutdown"),
            }
        }
        if !progressed {
            std::thread::park_timeout(Duration::from_micros(200));
        }
    }
    for w in 0..n {
        shared.mesh.post(w, ctl_slot(n), Msg::Shutdown);
        shared.wake(w);
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A connection as the owning worker sees it: reusable parse and reply
/// buffers live here, not per request.
struct WorkerConn {
    shared: Arc<ConnShared>,
    rx: RecvBuf,
    reply: ReplyBuf,
}

/// A cross-shard operation awaiting mailbox replies; its client reply slot
/// is already reserved so ordering is preserved.
struct PendingOp {
    conn: usize,
    reply_token: u64,
    kind: PendingKind,
}

enum PendingKind {
    Len { remaining: usize, sum: Result<u64> },
    Bgsave,
}

struct WorkerState {
    conns: Vec<WorkerConn>,
    pending: HashMap<u64, PendingOp>,
    next_token: u64,
    quiesced: bool,
    shutdown: bool,
}

fn worker_main(me: usize, shared: &Shared) {
    let proc = shared.proc();
    let store = shared.store.shard(me);
    let n = shared.store.shard_count();

    // Bind this thread's lazily-initialized per-CPU state *before* serving:
    // the set/del pair touches the allocator (magazine stripe), faults
    // pages (trace ring), and crosses the probe points — so none of them
    // initialize in the middle of a latency measurement.
    let _ = store.set(&proc, b"__percore-warm__", b"w");
    let _ = store.del(&proc, b"__percore-warm__");

    let mut state = WorkerState {
        conns: Vec::new(),
        pending: HashMap::new(),
        next_token: 0,
        quiesced: false,
        shutdown: false,
    };
    let mut row: Vec<(usize, Msg)> = Vec::new();
    let mut args: Vec<(usize, usize)> = Vec::new();
    let mut quiesce_seen = false;
    loop {
        let mut progressed = false;

        // Adopt newly registered connections.
        {
            let mut incoming = shared.incoming[me].lock().expect("incoming poisoned");
            for conn in incoming.drain(..) {
                state.conns.push(WorkerConn {
                    shared: conn,
                    rx: RecvBuf::new(),
                    reply: ReplyBuf::new(),
                });
                progressed = true;
            }
        }

        // Control-plane mailbox traffic (rare).
        shared.mesh.drain_row(me, &mut row);
        for (_, msg) in row.drain(..) {
            progressed = true;
            handle_msg(me, shared, &proc, store, &mut state, msg, &mut quiesce_seen);
        }

        // The request path: parse → execute → reply, run to completion.
        for i in 0..state.conns.len() {
            progressed |= pump_conn(me, n, shared, &proc, store, &mut state, i, &mut args);
        }

        if quiesce_seen && !state.quiesced {
            // All inboxes were drained of complete frames this iteration;
            // from here this worker issues no new cross-shard requests.
            state.quiesced = true;
            shared
                .mesh
                .post(ctl_slot(n), me, Msg::QuiesceAck { from: me });
            shared.wake(ctl_slot(n));
            progressed = true;
        }

        if state.shutdown && state.pending.is_empty() && !progressed {
            break;
        }

        if !progressed {
            // Park immediately: every producer (connection send, mesh
            // post, registration) unparks this worker, and an unpark that
            // races this park leaves a token that makes it return at once
            // — so idle workers burn no cycles and no wakeup is lost. The
            // timeout is a safety net only.
            std::thread::park_timeout(Duration::from_millis(5));
        }
    }
    for conn in &state.conns {
        conn.shared.closed.store(true, Ordering::Release);
        if let Some(reader) = conn.shared.reader.lock().expect("reader poisoned").take() {
            reader.unpark();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_msg(
    me: usize,
    shared: &Shared,
    proc: &Arc<Process>,
    store: Store,
    state: &mut WorkerState,
    msg: Msg,
    quiesce_seen: &mut bool,
) {
    match msg {
        Msg::LenReq { from, token } => {
            let count = store.len(proc);
            shared.mesh.post(from, me, Msg::LenReply { token, count });
            shared.wake(from);
        }
        Msg::LenReply { token, count } => {
            let op = state.pending.get_mut(&token).expect("pending len op");
            let PendingKind::Len { remaining, sum } = &mut op.kind else {
                panic!("token {token} is not a DBSIZE op");
            };
            *sum = sum.and_then(|sum| Ok(sum + count?));
            *remaining -= 1;
            if *remaining == 0 {
                let sum = *sum;
                let op = state.pending.remove(&token).expect("pending len op");
                state.conns[op.conn]
                    .reply
                    .complete(op.reply_token, |buf| write_len(buf, sum));
            }
        }
        Msg::Barrier { epoch } => {
            shared.barrier.arrived.fetch_add(1, Ordering::AcqRel);
            // The wait below is the *entire* stall a worker experiences
            // during BGSAVE: the coordinator forks, then releases.
            while shared.barrier.released.load(Ordering::Acquire) < epoch {
                std::thread::yield_now();
            }
        }
        Msg::BgsaveForked { token, forked } => {
            let op = state.pending.remove(&token).expect("pending bgsave op");
            assert!(matches!(op.kind, PendingKind::Bgsave));
            state.conns[op.conn]
                .reply
                .complete(op.reply_token, |buf| match forked {
                    Ok(()) => buf.extend_from_slice(b"+Background saving started\r\n"),
                    Err(e) => {
                        let _ = write!(buf, "-ERR {e}\r\n");
                    }
                });
        }
        Msg::Quiesce => *quiesce_seen = true,
        Msg::Shutdown => state.shutdown = true,
        other => unreachable!("worker got {other:?}"),
    }
}

/// Drains one connection's inbox, executes every complete frame, and
/// flushes ready replies to the outbox. Returns whether anything happened.
#[allow(clippy::too_many_arguments)]
fn pump_conn(
    me: usize,
    n: usize,
    shared: &Shared,
    proc: &Arc<Process>,
    store: Store,
    state: &mut WorkerState,
    conn_index: usize,
    args: &mut Vec<(usize, usize)>,
) -> bool {
    let mut progressed = false;
    if !state.quiesced {
        {
            let conn = &mut state.conns[conn_index];
            let mut inbox = conn.shared.inbox.lock().expect("inbox poisoned");
            if !inbox.is_empty() {
                conn.rx.push(&inbox);
                inbox.clear();
                progressed = true;
            }
        }
        loop {
            let parsed = state.conns[conn_index].rx.parse_command(args);
            match parsed {
                Parsed::Incomplete => break,
                Parsed::Error { used, msg } => {
                    let conn = &mut state.conns[conn_index];
                    conn.reply.error(&format!("ERR {msg}"));
                    conn.rx.consume(used);
                    progressed = true;
                }
                Parsed::Cmd { used } => {
                    execute_command(me, n, shared, proc, store, state, conn_index, args);
                    state.conns[conn_index].rx.consume(used);
                    progressed = true;
                }
            }
        }
    }
    let conn = &mut state.conns[conn_index];
    let flushed = {
        let mut outbox = conn.shared.outbox.lock().expect("outbox poisoned");
        conn.reply.flush_into(&mut outbox)
    };
    if flushed > 0 {
        progressed = true;
        if let Some(reader) = conn.shared.reader.lock().expect("reader poisoned").take() {
            reader.unpark();
        }
    }
    progressed
}

/// Executes one parsed command (`args` ranges into the connection's
/// `RecvBuf`) run to completion: a data command against this worker's
/// shard — or a `-MOVED` redirect when the key lives elsewhere — and the
/// two cross-shard operations over the mailbox mesh.
#[allow(clippy::too_many_arguments)]
fn execute_command(
    me: usize,
    n: usize,
    shared: &Shared,
    proc: &Arc<Process>,
    store: Store,
    state: &mut WorkerState,
    conn_index: usize,
    args: &[(usize, usize)],
) {
    // Split-borrow the worker state: the connection's rx (read-only arg
    // slices) and reply (written), plus the pending-op table.
    let WorkerState {
        conns,
        pending,
        next_token,
        ..
    } = state;
    let WorkerConn { rx, reply, .. } = &mut conns[conn_index];
    rx.with_argv(args, |argv| {
        let Some(spec) = command::resolve(argv, reply) else {
            return;
        };
        if spec.key_pos > 0 {
            // Data commands belong to this shard or get a smart-client
            // redirect, before anything executes.
            let shard = shared.store.shard_for(argv[spec.key_pos]);
            if shard == me {
                command::execute(spec, store, proc, argv, reply);
            } else {
                reply.error(&format!("MOVED {shard}"));
            }
            return;
        }
        match spec.name {
            b"DBSIZE" => {
                // The cross-shard op: reserve the reply slot (ordering),
                // count locally, and ask every peer over the mailbox mesh.
                let reply_token = reply.reserve_pending();
                let local = store.len(proc);
                if n == 1 {
                    reply.complete(reply_token, |buf| write_len(buf, local));
                    return;
                }
                *next_token += 1;
                let token = *next_token;
                pending.insert(
                    token,
                    PendingOp {
                        conn: conn_index,
                        reply_token,
                        kind: PendingKind::Len {
                            remaining: n - 1,
                            sum: local,
                        },
                    },
                );
                for peer in (0..n).filter(|&p| p != me) {
                    shared.mesh.post(peer, me, Msg::LenReq { from: me, token });
                    shared.wake(peer);
                }
            }
            b"BGSAVE" => {
                let reply_token = reply.reserve_pending();
                *next_token += 1;
                let token = *next_token;
                pending.insert(
                    token,
                    PendingOp {
                        conn: conn_index,
                        reply_token,
                        kind: PendingKind::Bgsave,
                    },
                );
                {
                    let mut snaps = shared.snapshots.lock().expect("snapshots poisoned");
                    snaps.in_flight += 1;
                }
                shared.mesh.post(
                    ctl_slot(n),
                    me,
                    Msg::BgsaveReq {
                        from: Some(me),
                        token,
                    },
                );
                shared.wake(ctl_slot(n));
            }
            b"INFO" => {
                // Copy the numbers out: rendering walks the address space,
                // and the coordinator takes this lock around every fork.
                let (saving, fork_times) = {
                    let snaps = shared.snapshots.lock().expect("snapshots poisoned");
                    (snaps.in_flight > 0, snaps.fork_times.clone())
                };
                let section = argv.get(1).copied();
                command::info(proc, shared.policy, saving, &fork_times, section, reply);
            }
            _ => command::execute_admin(spec, proc.kernel(), argv, reply),
        }
    });
}

/// Encodes a `DBSIZE` reply: the count, or the error reading it hit.
fn write_len(buf: &mut Vec<u8>, len: Result<u64>) {
    let _ = match len {
        Ok(len) => write!(buf, ":{len}\r\n"),
        Err(e) => write!(buf, "-ERR {e}\r\n"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::encode_command;

    fn boot(shards: usize) -> (Arc<Kernel>, PerCoreServer) {
        let kernel = Kernel::new(256 << 20);
        let server = PerCoreServer::new(
            &kernel,
            PerCoreConfig {
                shards,
                heap_per_shard: 8 << 20,
                buckets: 256,
                fork_policy: ForkPolicy::OnDemand,
            },
        )
        .unwrap();
        (kernel, server)
    }

    /// Sends one command on `conn` and returns the raw reply.
    fn roundtrip(conn: &Connection, parts: &[&[u8]]) -> Vec<u8> {
        conn.send(&encode_command(parts));
        let mut out = Vec::new();
        conn.await_replies(1, &mut out);
        out
    }

    #[test]
    fn shard_local_commands_round_trip() {
        let (_k, mut server) = boot(4);
        let key = b"hello";
        let conn = server.connect_to(server.shard_for(key));
        assert_eq!(roundtrip(&conn, &[b"PING"]), b"+PONG\r\n");
        assert_eq!(roundtrip(&conn, &[b"SET", key, b"world"]), b"+OK\r\n");
        assert_eq!(roundtrip(&conn, &[b"GET", key]), b"$5\r\nworld\r\n");
        assert_eq!(roundtrip(&conn, &[b"EXISTS", key]), b":1\r\n");
        assert_eq!(roundtrip(&conn, &[b"APPEND", key, b"!"]), b":6\r\n");
        assert_eq!(roundtrip(&conn, &[b"DEL", key]), b":1\r\n");
        assert_eq!(roundtrip(&conn, &[b"GET", key]), b"$-1\r\n");
        server.shutdown();
    }

    #[test]
    fn wrong_shard_keys_get_moved_redirects() {
        let (_k, mut server) = boot(4);
        // Find a key owned by a different shard than the connection's.
        let conn = server.connect_to(0);
        let key = (0..u32::MAX)
            .map(|i| format!("k{i}").into_bytes())
            .find(|k| server.shard_for(k) != 0)
            .unwrap();
        let reply = roundtrip(&conn, &[b"SET", &key, b"v"]);
        let expect = format!("-MOVED {}\r\n", server.shard_for(&key));
        assert_eq!(reply, expect.as_bytes());
        // Following the redirect works.
        let conn2 = server.connect_to(server.shard_for(&key));
        assert_eq!(roundtrip(&conn2, &[b"SET", &key, b"v"]), b"+OK\r\n");
        server.shutdown();
    }

    #[test]
    fn dbsize_sums_across_shards_over_the_mesh() {
        let (_k, mut server) = boot(4);
        let conns: Vec<Connection> = (0..4).map(|s| server.connect_to(s)).collect();
        let mut total = 0u64;
        for i in 0..64u32 {
            let key = format!("key-{i}").into_bytes();
            let shard = server.shard_for(&key);
            let reply = roundtrip(&conns[shard], &[b"SET", &key, b"v"]);
            assert_eq!(reply, b"+OK\r\n");
            total += 1;
        }
        let reply = roundtrip(&conns[1], &[b"DBSIZE"]);
        assert_eq!(reply, format!(":{total}\r\n").into_bytes());
        server.shutdown();
    }

    #[test]
    fn pipelined_replies_keep_request_order_around_dbsize() {
        let (_k, mut server) = boot(2);
        let key = b"ordered";
        let conn = server.connect_to(server.shard_for(key));
        // SET, DBSIZE (cross-shard, completes late), GET — the GET's reply
        // must still arrive after the DBSIZE's.
        let mut burst = Vec::new();
        burst.extend_from_slice(&encode_command(&[b"SET", key, b"v"]));
        burst.extend_from_slice(&encode_command(&[b"DBSIZE"]));
        burst.extend_from_slice(&encode_command(&[b"GET", key]));
        conn.send(&burst);
        let mut out = Vec::new();
        conn.await_replies(3, &mut out);
        assert_eq!(out, b"+OK\r\n:1\r\n$1\r\nv\r\n");
        server.shutdown();
    }

    #[test]
    fn bgsave_command_freezes_an_image_while_serving() {
        let (_k, mut server) = boot(2);
        let conns: Vec<Connection> = (0..2).map(|s| server.connect_to(s)).collect();
        for i in 0..50u32 {
            let key = format!("k{i}").into_bytes();
            let shard = server.shard_for(&key);
            roundtrip(&conns[shard], &[b"SET", &key, b"gen0"]);
        }
        let reply = roundtrip(&conns[0], &[b"BGSAVE"]);
        assert_eq!(reply, b"+Background saving started\r\n");
        // Keep writing while the snapshot serializes.
        for i in 0..50u32 {
            let key = format!("k{i}").into_bytes();
            let shard = server.shard_for(&key);
            roundtrip(&conns[shard], &[b"SET", &key, b"gen1"]);
        }
        let snaps = server.wait_snapshots();
        assert_eq!(snaps.len(), 1);
        let items: u64 = snaps[0]
            .dumps
            .iter()
            .map(|d| u64::from_le_bytes(d[0..8].try_into().unwrap()))
            .sum();
        assert_eq!(items, 50, "frozen image holds exactly gen0");
        assert!(snaps[0].fork_ns > 0);
        server.shutdown();
    }

    #[test]
    fn stats_render_locally() {
        let (_k, mut server) = boot(2);
        let conn = server.connect_to(0);
        let reply = roundtrip(&conn, &[b"STATS"]);
        let text = String::from_utf8(reply).unwrap();
        assert!(text.contains("odf_vm_faults_total"));
        server.shutdown();
    }

    #[test]
    fn unknown_commands_error_and_serving_continues() {
        let (_k, mut server) = boot(1);
        let conn = server.connect_to(0);
        let reply = roundtrip(&conn, &[b"FLUSHALL"]);
        assert!(reply.starts_with(b"-ERR unknown command"));
        assert_eq!(roundtrip(&conn, &[b"PING"]), b"+PONG\r\n");
        server.shutdown();
    }
}
