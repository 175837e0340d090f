//! Thread-per-core shared-nothing serving tier — the one wire engine.
//!
//! The seastar/glommio shape: each shard owns **one long-lived pinned
//! worker** running a non-blocking event loop that parses RESP in place,
//! executes against its shard, and writes replies run-to-completion — with
//! **no cross-thread channels on the request path**. One shard is the
//! paper's single Redis event loop (Tables 4–5).
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
//! - **Mailboxes for the rare ops only**: `DBSIZE` (cross-shard sum), the
//!   `BGSAVE` barrier and shutdown travel over an SPSC mailbox mesh — each
//!   cell written by one thread and drained by one thread. A cross-shard
//!   reply parks in a pending [`ReplyBuf`] slot so younger shard-local
//!   replies still leave in request order.
//! - **Per-thread state binds at startup**: the worker warms its shard
//!   before serving, so the first allocator touch pins this thread's
//!   frame-magazine stripe, the first fault event lands in this thread's
//!   trace ring, and probe caches attach here — not lazily mid-benchmark.
//!
//! `BGSAVE` forks on the worker that parsed it, between two requests of
//! that connection, as Redis forks inside its event loop: the snapshot
//! holds exactly the writes served before the `BGSAVE`, and the fork call
//! is the client's stall. At one shard nothing else happens. At more, that
//! worker leads a barrier that holds every peer between two of its own
//! requests for the fork call only. The frozen child then goes to the
//! `percore-ctl` thread, which serializes it while serving continues.

use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use odf_core::{ForkPolicy, Kernel, Process, Result};
use odf_metrics::{Stopwatch, Summary};

use crate::command;
use crate::resp::{skip_reply, Parsed, RecvBuf, ReplyBuf};
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
    /// Barrier leader → worker: hold at the fork barrier for `epoch`.
    Barrier { epoch: u64 },
    /// Shutdown caller → worker: finish draining client inboxes, then ack.
    Quiesce,
    /// Worker → shutdown caller: inboxes drained, no new cross-shard
    /// requests or barriers will be issued.
    QuiesceAck,
    /// Shutdown caller → worker: answer remaining mailbox traffic and exit.
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

/// No worker leads the fork barrier.
const NO_LEADER: usize = usize::MAX;

/// Fork-barrier state. One worker at a time leads: it posts the next
/// epoch, waits for every peer to arrive, forks, and releases the epoch.
struct Barrier {
    /// The leading worker or [`NO_LEADER`]: claimed with an `Acquire`
    /// CAS, handed back with a `Release` store, so each leader sees the
    /// previous one's writes to the fields below.
    leader: AtomicUsize,
    /// Peers at the current epoch's barrier: each adds itself (`AcqRel`),
    /// the leader waits for all of them (`Acquire`).
    arrived: AtomicUsize,
    /// The last epoch released (`Release`); held peers spin until they
    /// read theirs (`Acquire`). Only the leader writes it.
    released: AtomicU64,
}

/// Snapshot accounting, shared by the workers that fork, the serializer,
/// and [`PerCoreServer::wait_snapshots`].
#[derive(Default)]
struct Snapshots {
    /// Forked children awaiting the serializer, with their fork stall.
    frozen: VecDeque<(Process, u64)>,
    /// Forked and not yet serialized.
    in_flight: u64,
    done: Vec<ShardedSnapshot>,
    /// Fork stall of every snapshot started, nanoseconds (for `INFO`).
    fork_times: Summary,
    /// Set at shutdown: the serializer exits once `frozen` is empty.
    closed: bool,
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

/// Everything the workers, the serializer, and the external handle share.
struct Shared {
    store: ShardedStore,
    /// Taken (and exited) at shutdown, once every thread has dropped its
    /// clone.
    proc: Mutex<Option<Arc<Process>>>,
    mesh: Mesh,
    barrier: Barrier,
    /// Thread handles for unparking: workers `0..n`, then the thread
    /// running [`PerCoreServer::shutdown`] at `n`.
    threads: Mutex<Vec<Thread>>,
    /// Per-worker registration queues for new connections.
    incoming: Vec<Mutex<Vec<Arc<ConnShared>>>>,
    snapshots: Mutex<Snapshots>,
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

/// The thread-per-core server: `shards` pinned workers plus the
/// `percore-ctl` serializer thread, all serving one simulated process.
pub struct PerCoreServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    serializer: Option<JoinHandle<()>>,
    down: bool,
    shards: usize,
}

impl PerCoreServer {
    /// Boots the serving process, creates the sharded store, and spawns
    /// one worker per shard plus the serializer. Workers bind their
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
            mesh: Mesh::new(n + 1),
            barrier: Barrier {
                leader: AtomicUsize::new(NO_LEADER),
                arrived: AtomicUsize::new(0),
                released: AtomicU64::new(0),
            },
            threads: Mutex::new(Vec::new()),
            incoming: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            snapshots: Mutex::new(Snapshots::default()),
            snapshots_cv: Condvar::new(),
            policy: cfg.fork_policy,
        });
        let workers: Vec<JoinHandle<()>> = (0..n)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("percore-{me}"))
                    .spawn(move || worker_main(me, &shared))
                    .expect("spawn worker")
            })
            .collect();
        let serializer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("percore-ctl".into())
                .spawn(move || serializer_main(&shared))
                .expect("spawn serializer")
        };
        shared
            .threads
            .lock()
            .expect("threads poisoned")
            .extend(workers.iter().map(|h| h.thread().clone()));
        Ok(PerCoreServer {
            shared,
            workers,
            serializer: Some(serializer),
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

    /// Blocks until every snapshot a `BGSAVE` started has been serialized,
    /// returning them in completion order.
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
    /// complete), then exit; the serializer finishes the children already
    /// forked; the serving process exits last. Idempotent.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        let n = self.shards;
        self.shared
            .threads
            .lock()
            .expect("threads poisoned")
            .push(std::thread::current());
        quiesce(n, &self.shared);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared
            .snapshots
            .lock()
            .expect("snapshots poisoned")
            .closed = true;
        self.shared.snapshots_cv.notify_all();
        if let Some(serializer) = self.serializer.take() {
            let _ = serializer.join();
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

/// Two-phase shutdown, on the calling thread (mesh slot `n`): quiesce
/// every worker (drain client inboxes, finish the `BGSAVE`s they parse,
/// stop issuing cross-shard requests), then release them to answer
/// residual mailbox traffic and exit.
fn quiesce(n: usize, shared: &Shared) {
    for w in 0..n {
        shared.mesh.post(w, n, Msg::Quiesce);
        shared.wake(w);
    }
    let mut acked = 0;
    let mut row: Vec<(usize, Msg)> = Vec::new();
    while acked < n {
        shared.mesh.drain_row(n, &mut row);
        if row.is_empty() {
            std::thread::park_timeout(Duration::from_micros(200));
        }
        for (_, msg) in row.drain(..) {
            assert!(matches!(msg, Msg::QuiesceAck), "shutdown got {msg:?}");
            acked += 1;
        }
    }
    for w in 0..n {
        shared.mesh.post(w, n, Msg::Shutdown);
        shared.wake(w);
    }
}

/// The `percore-ctl` thread: serializes each frozen child off the serving
/// threads, then exits it.
fn serializer_main(shared: &Shared) {
    let mut snaps = shared.snapshots.lock().expect("snapshots poisoned");
    loop {
        if let Some((child, fork_ns)) = snaps.frozen.pop_front() {
            drop(snaps);
            let dumps = shared.store.serialize(&child);
            child.exit();
            snaps = shared.snapshots.lock().expect("snapshots poisoned");
            snaps.in_flight -= 1;
            if let Ok(dumps) = dumps {
                snaps.done.push(ShardedSnapshot { fork_ns, dumps });
            }
            shared.snapshots_cv.notify_all();
        } else if snaps.closed {
            return;
        } else {
            snaps = shared.snapshots_cv.wait(snaps).expect("snapshots poisoned");
        }
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

/// A `DBSIZE` awaiting its peers' counts; its client reply slot is already
/// reserved so ordering is preserved.
struct PendingLen {
    conn: usize,
    reply_token: u64,
    remaining: usize,
    sum: Result<u64>,
}

/// What one worker owns. `me` and `n` are its shard and the shard count.
struct Worker<'a> {
    me: usize,
    n: usize,
    shared: &'a Shared,
    proc: Arc<Process>,
    store: Store,
    conns: Vec<WorkerConn>,
    pending: HashMap<u64, PendingLen>,
    next_token: u64,
    /// Mailbox drain buffer, reused.
    row: Vec<(usize, Msg)>,
    quiesce_seen: bool,
    quiesced: bool,
    shutdown: bool,
}

fn worker_main(me: usize, shared: &Shared) {
    let proc = shared.proc();
    let store = shared.store.shard(me);

    // Bind this thread's lazily-initialized per-CPU state *before* serving:
    // the set/del pair touches the allocator (magazine stripe), faults
    // pages (trace ring), and crosses the probe points — so none of them
    // initialize in the middle of a latency measurement.
    let _ = store.set(&proc, b"__percore-warm__", b"w");
    let _ = store.del(&proc, b"__percore-warm__");

    let mut w = Worker {
        me,
        n: shared.store.shard_count(),
        shared,
        proc,
        store,
        conns: Vec::new(),
        pending: HashMap::new(),
        next_token: 0,
        row: Vec::new(),
        quiesce_seen: false,
        quiesced: false,
        shutdown: false,
    };
    let mut args: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut progressed = false;

        // Adopt newly registered connections.
        {
            let mut incoming = shared.incoming[me].lock().expect("incoming poisoned");
            for conn in incoming.drain(..) {
                w.conns.push(WorkerConn {
                    shared: conn,
                    rx: RecvBuf::new(),
                    reply: ReplyBuf::new(),
                });
                progressed = true;
            }
        }

        // Control-plane mailbox traffic (rare).
        progressed |= w.drain_mailbox();

        // The request path: parse → execute → reply, run to completion. A
        // quiesce first seen *during* this pass waits for the next one, so
        // every connection is drained after it.
        let quiescing = w.quiesce_seen;
        for i in 0..w.conns.len() {
            progressed |= w.pump_conn(i, &mut args);
        }

        if quiescing && !w.quiesced {
            // All inboxes were drained of complete frames this iteration;
            // from here this worker issues no new cross-shard requests.
            w.quiesced = true;
            shared.mesh.post(w.n, me, Msg::QuiesceAck);
            shared.wake(w.n);
            progressed = true;
        }

        if w.shutdown && w.pending.is_empty() && !progressed {
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
    for conn in &w.conns {
        conn.shared.closed.store(true, Ordering::Release);
        if let Some(reader) = conn.shared.reader.lock().expect("reader poisoned").take() {
            reader.unpark();
        }
    }
}

impl Worker<'_> {
    /// Handles every message addressed to this worker; returns whether
    /// there were any.
    fn drain_mailbox(&mut self) -> bool {
        let mut row = std::mem::take(&mut self.row);
        self.shared.mesh.drain_row(self.me, &mut row);
        let progressed = !row.is_empty();
        for (_, msg) in row.drain(..) {
            self.handle_msg(msg);
        }
        self.row = row;
        progressed
    }

    fn handle_msg(&mut self, msg: Msg) {
        let shared = self.shared;
        match msg {
            Msg::LenReq { from, token } => {
                let count = self.store.len(&self.proc);
                shared
                    .mesh
                    .post(from, self.me, Msg::LenReply { token, count });
                shared.wake(from);
            }
            Msg::LenReply { token, count } => {
                let op = self.pending.get_mut(&token).expect("pending DBSIZE");
                op.sum = op.sum.and_then(|sum| Ok(sum + count?));
                op.remaining -= 1;
                if op.remaining == 0 {
                    let op = self.pending.remove(&token).expect("pending DBSIZE");
                    self.conns[op.conn]
                        .reply
                        .complete(op.reply_token, |buf| write_len(buf, op.sum));
                }
            }
            Msg::Barrier { epoch } => {
                shared.barrier.arrived.fetch_add(1, Ordering::AcqRel);
                // The wait below is the *entire* stall a peer experiences
                // during BGSAVE: the leader forks, then releases.
                while shared.barrier.released.load(Ordering::Acquire) < epoch {
                    std::thread::yield_now();
                }
            }
            Msg::Quiesce => self.quiesce_seen = true,
            Msg::Shutdown => self.shutdown = true,
            Msg::QuiesceAck => unreachable!("worker got {msg:?}"),
        }
    }

    /// Drains one connection's inbox, executes every complete frame, and
    /// flushes ready replies to the outbox. Returns whether anything
    /// happened.
    fn pump_conn(&mut self, i: usize, args: &mut Vec<(usize, usize)>) -> bool {
        let mut progressed = false;
        if !self.quiesced {
            {
                let conn = &mut self.conns[i];
                let mut inbox = conn.shared.inbox.lock().expect("inbox poisoned");
                if !inbox.is_empty() {
                    conn.rx.push(&inbox);
                    inbox.clear();
                    progressed = true;
                }
            }
            loop {
                let parsed = self.conns[i].rx.parse_command(args);
                match parsed {
                    Parsed::Incomplete => break,
                    Parsed::Error { used, msg } => {
                        let conn = &mut self.conns[i];
                        conn.reply.error(&format!("ERR {msg}"));
                        conn.rx.consume(used);
                    }
                    Parsed::Cmd { used } => {
                        if self.execute_command(i, args) {
                            let forked = self.bgsave();
                            let reply = &mut self.conns[i].reply;
                            match forked {
                                Ok(()) => reply.simple("Background saving started"),
                                Err(e) => reply.error(&format!("ERR {e}")),
                            }
                        }
                        self.conns[i].rx.consume(used);
                    }
                }
                progressed = true;
            }
        }
        let conn = &mut self.conns[i];
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

    /// Executes one parsed command (`args` ranges into connection `i`'s
    /// `RecvBuf`) run to completion: a data command against this worker's
    /// shard — or a `-MOVED` redirect when the key lives elsewhere — and
    /// the keyless commands. Returns `true` for a `BGSAVE`, which the
    /// caller runs before the connection's next request.
    fn execute_command(&mut self, i: usize, args: &[(usize, usize)]) -> bool {
        let (me, n, shared, proc, store) = (self.me, self.n, self.shared, &*self.proc, self.store);
        let WorkerConn { rx, reply, .. } = &mut self.conns[i];
        let (pending, next_token) = (&mut self.pending, &mut self.next_token);
        rx.with_argv(args, |argv| {
            let Some(spec) = command::resolve(argv, reply) else {
                return false;
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
                return false;
            }
            match spec.name {
                b"DBSIZE" => {
                    // The cross-shard op: reserve the reply slot (ordering),
                    // count locally, and ask every peer over the mailbox mesh.
                    let reply_token = reply.reserve_pending();
                    let local = store.len(proc);
                    if n == 1 {
                        reply.complete(reply_token, |buf| write_len(buf, local));
                        return false;
                    }
                    *next_token += 1;
                    let token = *next_token;
                    pending.insert(
                        token,
                        PendingLen {
                            conn: i,
                            reply_token,
                            remaining: n - 1,
                            sum: local,
                        },
                    );
                    for peer in (0..n).filter(|&p| p != me) {
                        shared.mesh.post(peer, me, Msg::LenReq { from: me, token });
                        shared.wake(peer);
                    }
                }
                b"BGSAVE" => return true,
                b"INFO" => {
                    // Copy the numbers out: rendering walks the address
                    // space, and every fork takes this lock.
                    let (saving, fork_times) = {
                        let snaps = shared.snapshots.lock().expect("snapshots poisoned");
                        (snaps.in_flight > 0, snaps.fork_times.clone())
                    };
                    let section = argv.get(1).copied();
                    command::info(proc, shared.policy, saving, &fork_times, section, reply);
                }
                _ => command::execute_admin(spec, proc.kernel(), argv, reply),
            }
            false
        })
    }

    /// Runs a `BGSAVE` between two requests of the connection that sent
    /// it: forks — at more than one shard, with every peer held at the
    /// barrier for the fork call only — and hands the frozen child to the
    /// serializer.
    fn bgsave(&mut self) -> Result<()> {
        let epoch = (self.n > 1).then(|| self.lead_barrier());
        let sw = Stopwatch::start();
        let forked = self.proc.fork_with(self.shared.policy);
        let fork_ns = sw.elapsed_ns();
        if let Some(epoch) = epoch {
            let barrier = &self.shared.barrier;
            barrier.released.store(epoch, Ordering::Release);
            barrier.leader.store(NO_LEADER, Ordering::Release);
        }
        let child = forked?;
        let mut snaps = self.shared.snapshots.lock().expect("snapshots poisoned");
        snaps.fork_times.record(fork_ns as f64);
        snaps.in_flight += 1;
        snaps.frozen.push_back((child, fork_ns));
        self.shared.snapshots_cv.notify_all();
        Ok(())
    }

    /// Makes this worker the barrier's one leader and holds every peer at
    /// it; returns the epoch to release. While another worker leads, this
    /// one keeps answering its mailbox — that leader's barrier post
    /// included — so two workers parsing `BGSAVE` at once take turns.
    fn lead_barrier(&mut self) -> u64 {
        let barrier = &self.shared.barrier;
        while barrier
            .leader
            .compare_exchange(NO_LEADER, self.me, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.drain_mailbox();
            std::thread::yield_now();
        }
        // Every peer arrived at the previous epoch before it was released,
        // and only the leader writes `released`.
        let epoch = barrier.released.load(Ordering::Relaxed) + 1;
        barrier.arrived.store(0, Ordering::Relaxed);
        for peer in (0..self.n).filter(|&p| p != self.me) {
            self.shared.mesh.post(peer, self.me, Msg::Barrier { epoch });
            self.shared.wake(peer);
        }
        while barrier.arrived.load(Ordering::Acquire) < self.n - 1 {
            // Yield, don't spin: with fewer cores than workers a spinning
            // leader would stop stragglers from ever reaching the barrier.
            std::thread::yield_now();
        }
        epoch
    }
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

    /// The value `key` holds in a `Store::serialize` dump, if any.
    fn dumped_value<'a>(mut dump: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
        dump = &dump[8..];
        while !dump.is_empty() {
            let len = |at: usize| u32::from_le_bytes(dump[at..at + 4].try_into().unwrap());
            let (klen, vlen) = (len(0) as usize, len(4) as usize);
            let (k, v) = dump[8..8 + klen + vlen].split_at(klen);
            if k == key {
                return Some(v);
            }
            dump = &dump[8 + klen + vlen..];
        }
        None
    }

    #[test]
    fn bgsave_freezes_exactly_the_writes_sent_before_it() {
        for shards in [1, 2] {
            let (_k, mut server) = boot(shards);
            let key = b"ordered";
            let shard = server.shard_for(key);
            let conn = server.connect_to(shard);
            let mut burst = encode_command(&[b"SET", key, b"before"]);
            burst.extend_from_slice(&encode_command(&[b"BGSAVE"]));
            for _ in 0..8 {
                burst.extend_from_slice(&encode_command(&[b"SET", key, b"after"]));
            }
            conn.send(&burst);
            let mut out = Vec::new();
            assert_eq!(conn.await_replies(10, &mut out), 0);
            let snaps = server.wait_snapshots();
            assert_eq!(snaps.len(), 1);
            assert_eq!(
                dumped_value(&snaps[0].dumps[shard], key),
                Some(&b"before"[..]),
                "{shards} shards: the snapshot holds what was served before BGSAVE"
            );
            server.shutdown();
        }
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

/// What keeps the one engine one: a check over this crate's sources, each
/// cut at its first `#[cfg(test)]`.
#[cfg(test)]
mod guard {
    /// `(file, function, line)` for each line of every source file before
    /// its tests: the function whose body the line is in, or the last one
    /// declared above it ("" before the first).
    fn lines_by_fn() -> Vec<(String, String, String)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut lines = Vec::new();
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("source entry").path();
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("source file");
            let code = &src[..src.find("#[cfg(test)]").unwrap_or(src.len())];
            let mut current = "";
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
                lines.push((file.clone(), current.to_owned(), line.to_owned()));
            }
        }
        lines
    }

    #[test]
    fn one_wire_front_end_parses_requests() {
        let loops: Vec<_> = lines_by_fn()
            .into_iter()
            .filter(|(_, _, line)| line.contains(".parse_command("))
            .map(|(file, name, _)| format!("{file}:{name}"))
            .collect();
        assert_eq!(
            loops,
            ["percore.rs:pump_conn"],
            "a second RESP front end: serve requests through PerCoreServer"
        );
    }

    #[test]
    fn only_bgsave_and_the_durable_snapshot_fork() {
        for (file, name, line) in lines_by_fn() {
            let allowed = (file == "percore.rs" && name == "bgsave")
                || (file == "persist.rs" && name == "bgsave_async");
            assert!(
                !line.contains("fork_with(") || allowed,
                "{file}:{name} forks: snapshots fork in BGSAVE or in persist.rs\n{line}"
            );
        }
    }
}
