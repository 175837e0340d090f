//! `kv_serve` and `kv_bgsave`: a `PerCoreServer` with one shard, driven over
//! its in-memory connections the way memtier drives Redis — closed loop,
//! pipelined — from one client thread.
//!
//! The client holds two connections and keeps one pipelined batch in flight
//! on each, awaiting them in turn, so the worker always has a batch queued
//! and never parks between batches. Each connection owns half of the key
//! space: commands on one connection are served in order, so the client
//! knows what every `GET` must return.

use std::time::{Duration, Instant};

use crate::api_surface::{
    dump_entries, program_tracing_off, skip_reply, Connection, ForkPolicy, PerCoreConfig,
    PerCoreServer, ShardedSnapshot,
};
use crate::gen::{fill_value, key_bytes, parse_value, push_command, Digest, Ranks, Rng, KEY_LEN};
use crate::spec::Metrics;
use crate::stats::Timeline;
use crate::trace::Tracer;
use crate::workloads::{
    client_and_counts, end_to_end, finish_setups, measure, replay, span_metrics, timed_setup,
    Checks, Machine, Outcome, RunCfg, Window, WindowResult,
};

/// Commands per pipelined batch.
pub const PIPELINE: usize = 16;
const CONNS: u64 = 2;
/// Batches per connection folded into the input digest.
const DIGEST_BATCHES: u32 = 64;
/// Forks of the serving process timed after `kv_serve`'s window, which
/// itself never forks.
const PROBE_FORKS: usize = 200;

const BGSAVE_COMMAND: &[u8] = b"*1\r\n$6\r\nBGSAVE\r\n";
const BGSAVE_REPLY: &[u8] = b"+Background saving started\r\n";

struct Params {
    keys_per_conn: u64,
    value_len: usize,
    /// Zipf exponent of the key popularity; 0 is uniform.
    theta: f64,
    set_percent: u64,
    /// Populated memory mapped into the serving process beside the store.
    ballast: u64,
    bgsave_every: Option<Duration>,
}

fn params(workload: &str, cfg: &RunCfg) -> Params {
    match workload {
        "kv_serve" => Params {
            keys_per_conn: cfg.scale.size(100_000),
            value_len: 128,
            theta: 0.99,
            set_percent: 10,
            ballast: 0,
            bgsave_every: None,
        },
        "kv_bgsave" => Params {
            keys_per_conn: cfg.scale.size(50_000),
            value_len: 256,
            theta: 0.0,
            set_percent: 50,
            ballast: cfg.scale.size(1 << 30),
            // Once a second at full size; a smoke run's window is shorter
            // than that and must still see snapshots.
            bgsave_every: Some(Duration::from_secs_f64(cfg.seconds / 10.0)),
        },
        other => unreachable!("not a kv workload: {other}"),
    }
}

impl Params {
    fn keys(&self) -> u64 {
        self.keys_per_conn * CONNS
    }
}

enum Expect {
    Ok,
    /// The value written by write number `version` of the connection's key
    /// number `rank`.
    Value {
        rank: u64,
        version: u64,
    },
}

#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    expects: Vec<Expect>,
}

enum InFlight {
    Nothing,
    Batch,
    Bgsave,
}

/// One connection and the client's model of the keys it owns.
struct Client {
    conn: Connection,
    id: u64,
    rng: Rng,
    /// Writes so far per key rank; `GET` must return the last one.
    versions: Vec<u32>,
    sent: Batch,
    next: Batch,
    in_flight: InFlight,
    sent_at: Instant,
    replies: Vec<u8>,
    /// One value's worth of scratch, and the bulk-string header every
    /// `GET` reply starts with.
    scratch: Vec<u8>,
    value_header: Vec<u8>,
    /// Over this connection's first [`DIGEST_BATCHES`] batches: the two
    /// connections' batches interleave as timing has it, their contents do not.
    digest: Digest,
    digest_batches: u32,
}

impl Client {
    fn key_id(&self, rank: u64) -> u64 {
        rank * CONNS + self.id
    }

    /// Generates the next batch into `self.next`.
    fn build(&mut self, p: &Params, ranks: &Ranks) {
        self.next.bytes.clear();
        self.next.expects.clear();
        for _ in 0..PIPELINE {
            let rank = ranks.sample(&mut self.rng);
            let key = key_bytes(self.key_id(rank));
            if self.rng.below(100) < p.set_percent {
                self.versions[rank as usize] += 1;
                let version = u64::from(self.versions[rank as usize]);
                let id = self.key_id(rank);
                fill_value(&mut self.scratch, id, version);
                push_command(&mut self.next.bytes, &[b"SET", &key, &self.scratch]);
                self.next.expects.push(Expect::Ok);
            } else {
                push_command(&mut self.next.bytes, &[b"GET", &key]);
                self.next.expects.push(Expect::Value {
                    rank,
                    version: u64::from(self.versions[rank as usize]),
                });
            }
        }
        if self.digest_batches > 0 {
            self.digest_batches -= 1;
            self.digest.update(&self.next.bytes);
        }
    }

    fn send_next(&mut self) {
        std::mem::swap(&mut self.sent, &mut self.next);
        self.sent_at = Instant::now();
        self.conn.send(&self.sent.bytes);
        self.in_flight = InFlight::Batch;
    }

    fn send_bgsave(&mut self) {
        self.sent_at = Instant::now();
        self.conn.send(BGSAVE_COMMAND);
        self.in_flight = InFlight::Bgsave;
    }

    /// Blocks until what is in flight has been answered; returns how long
    /// that took from its send.
    fn await_replies(&mut self) -> u64 {
        let n = match self.in_flight {
            InFlight::Nothing => unreachable!("nothing in flight"),
            InFlight::Batch => self.sent.expects.len(),
            InFlight::Bgsave => 1,
        };
        self.replies.clear();
        self.conn.await_replies(n, &mut self.replies);
        self.sent_at.elapsed().as_nanos() as u64
    }

    /// Checks the replies to `self.sent` against the model; returns how
    /// many were missing or wrong.
    fn verify(&mut self) -> u64 {
        let mut at = 0;
        let mut failed = 0;
        for expect in &self.sent.expects {
            let rest = &self.replies[at..];
            let ok = match expect {
                Expect::Ok => rest.starts_with(b"+OK\r\n"),
                Expect::Value { rank, version } => {
                    fill_value(&mut self.scratch, rank * CONNS + self.id, *version);
                    rest.strip_prefix(self.value_header.as_slice())
                        .and_then(|body| body.strip_prefix(self.scratch.as_slice()))
                        .is_some_and(|tail| tail.starts_with(b"\r\n"))
                }
            };
            failed += u64::from(!ok);
            match skip_reply(rest) {
                Some(used) => at += used,
                None => at = self.replies.len(),
            }
        }
        failed
    }
}

/// The server, its clients, and the machine under them.
struct Rig {
    machine: Machine,
    server: PerCoreServer,
    clients: Vec<Client>,
    ranks: Ranks,
    ballast_at: u64,
    digest: Digest,
}

fn build(p: &Params, seed: u64) -> Rig {
    // Store heap: every entry sits in the allocator's next power-of-two
    // class; tables, COW copies and replay scratch ride on top.
    let heap = (p.keys() * 1024).max(8 << 20);
    let machine = Machine::boot(p.ballast + 3 * heap + (256 << 20));
    let server = PerCoreServer::new(
        &machine.kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: heap,
            buckets: p.keys(),
            fork_policy: ForkPolicy::OnDemand,
        },
    )
    .expect("boot server");
    let mut ballast_at = 0;
    if p.ballast > 0 {
        let proc = server.process();
        ballast_at = proc.mmap_anon(p.ballast).expect("map ballast");
        proc.populate(ballast_at, p.ballast, true)
            .expect("populate ballast");
    }
    let mut digest = Digest::default();
    digest.update(&p.keys().to_le_bytes());
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|id| Client {
            conn: server.connect_to(0),
            id,
            rng: Rng::stream(seed, id),
            versions: vec![0; p.keys_per_conn as usize],
            sent: Batch::default(),
            next: Batch::default(),
            in_flight: InFlight::Nothing,
            sent_at: Instant::now(),
            replies: Vec::new(),
            scratch: vec![0; p.value_len],
            value_header: format!("${}\r\n", p.value_len).into_bytes(),
            digest: Digest::default(),
            digest_batches: DIGEST_BATCHES,
        })
        .collect();
    // Preload every key at version 0, 256 commands per round trip.
    for c in &mut clients {
        let mut rank = 0;
        while rank < p.keys_per_conn {
            let mut bytes = Vec::new();
            let n = (p.keys_per_conn - rank).min(256);
            for r in rank..rank + n {
                let id = c.key_id(r);
                fill_value(&mut c.scratch, id, 0);
                push_command(&mut bytes, &[b"SET", &key_bytes(id), &c.scratch]);
            }
            c.conn.send(&bytes);
            c.replies.clear();
            let errors = c.conn.await_replies(n as usize, &mut c.replies);
            assert_eq!(errors, 0, "preload is refused");
            rank += n;
        }
    }
    Rig {
        machine,
        server,
        clients,
        ranks: Ranks::new(p.keys_per_conn, p.theta),
        ballast_at,
        digest,
    }
}

/// Shuts the server down and checks that every frame came back.
fn teardown(rig: Rig, checks: &mut Checks) {
    let Rig {
        machine,
        mut server,
        clients,
        ..
    } = rig;
    drop(clients);
    server.shutdown();
    drop(server);
    checks.op(machine.balanced());
}

/// Takes the finished snapshots: records their fork times and checks that
/// each froze every key with a value the generator had written by then.
fn collect_snapshots(rig: &Rig, p: &Params, fork_ns: &mut Vec<u64>, checks: &mut Checks) {
    let snapshots: Vec<ShardedSnapshot> = rig.server.wait_snapshots();
    for (i, snap) in snapshots.iter().enumerate() {
        fork_ns.push(snap.fork_ns);
        let dump = &snap.dumps[0];
        let mut ok = dump_entries(dump).0 == p.keys();
        // Walking a whole dump costs as much as serving a few thousand
        // requests; the last one of each collection stands for the rest.
        if ok && i + 1 == snapshots.len() {
            ok = dump_is_consistent(dump, &rig.clients, p);
        }
        checks.op(ok);
    }
}

fn dump_is_consistent(dump: &[u8], clients: &[Client], p: &Params) -> bool {
    dump_entries(dump).1.all(|(key, value)| {
        key.len() == KEY_LEN
            && value.len() == p.value_len
            && parse_value(value).is_some_and(|(id, version)| {
                id < p.keys()
                    && version
                        <= u64::from(clients[(id % CONNS) as usize].versions[(id / CONNS) as usize])
            })
    })
}

/// Drives both connections for `length`, then drains them.
fn window(
    rig: &mut Rig,
    p: &Params,
    length: Duration,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> WindowResult {
    let w = Window::open(&rig.machine.kernel);
    let length_ns = length.as_nanos() as u64;
    let mut latency = Timeline::default();
    let mut stall_ns = Vec::new();
    let mut fork_ns = Vec::new();
    let mut ops = 0u64;
    let mut batch_no = 0u64;
    let mut next_bgsave = p.bgsave_every.map(|every| every / 2);

    for c in &mut rig.clients {
        c.send_next();
        c.build(p, &rig.ranks);
    }
    let mut turn = 0;
    let mut draining = false;
    loop {
        let c = &mut rig.clients[turn];
        if matches!(c.in_flight, InFlight::Nothing) {
            // Draining, and the other connection was the last one out.
            break;
        }
        batch_no += 1;
        let batch = tr.begin("client.batch", batch_no);
        let took = tr.span("client.await", batch_no, || c.await_replies());
        let now = w.elapsed_ns();
        match c.in_flight {
            InFlight::Bgsave => {
                stall_ns.push(took);
                checks.op(c.replies == BGSAVE_REPLY);
            }
            _ => {
                latency.push(now, took);
                let n = c.sent.expects.len() as u64;
                ops += n;
                checks.ops(n, c.verify());
            }
        }
        c.in_flight = InFlight::Nothing;
        draining |= now >= length_ns;
        if !draining {
            let bgsave_due = turn == 0 && next_bgsave.is_some_and(|at| now >= at.as_nanos() as u64);
            if bgsave_due {
                // The previous snapshot has had a whole period to finish;
                // taking it here keeps one dump in memory, not one per second.
                collect_snapshots(rig, p, &mut fork_ns, checks);
                let c = &mut rig.clients[turn];
                tr.span("client.send", batch_no, || c.send_bgsave());
                next_bgsave = next_bgsave.map(|at| at + p.bgsave_every.expect("period"));
            } else {
                tr.span("client.send", batch_no, || c.send_next());
                c.build(p, &rig.ranks);
            }
        }
        tr.end(batch);
        turn ^= 1;
    }
    collect_snapshots(rig, p, &mut fork_ns, checks);
    w.close(&rig.machine.kernel, ops, latency, fork_ns, stall_ns)
}

pub fn run(workload: &str, cfg: RunCfg) -> Outcome {
    let program_tracing = program_tracing_off();
    let p = params(workload, &cfg);
    let mut checks = Checks::default();
    let (mut rig, first_setup_s) = timed_setup(|| build(&p, cfg.seed));
    for c in &mut rig.clients {
        c.build(&p, &rig.ranks);
    }
    let (results, mut tracer) = measure(&cfg, |length, tr| {
        window(&mut rig, &p, length, tr, &mut checks)
    });

    let mut m = Metrics::default();
    if cfg.trace {
        let (untraced, traced) = (&results[0], &results[1]);
        layer_replay(&mut rig, &p, cfg.seed, &mut tracer);
        client_and_counts(&mut m, untraced, traced, checks, program_tracing);
        per_layer(&mut m, &rig, &p, untraced, &tracer);
    } else {
        let mut fork_ns = results[0].fork_ns.clone();
        if p.bgsave_every.is_none() {
            let proc = rig.server.process();
            for _ in 0..PROBE_FORKS {
                let started = Instant::now();
                let child = proc.fork_with(ForkPolicy::OnDemand).expect("probe fork");
                fork_ns.push(started.elapsed().as_nanos() as u64);
                child.exit();
            }
        }
        end_to_end(&mut m, &results[0], &fork_ns);
    }
    // A short run may not have generated the digested prefix yet.
    for c in &mut rig.clients {
        while c.digest_batches > 0 {
            c.build(&p, &rig.ranks);
        }
    }
    for c in &rig.clients {
        rig.digest.update(&c.digest.value().to_le_bytes());
    }
    let input_digest = rig.digest.value();
    teardown(rig, &mut checks);
    if !cfg.trace {
        finish_setups(
            &mut m,
            first_setup_s,
            || build(&p, cfg.seed),
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

/// Replays the workload's own stream against each layer it uses, on the
/// idle server's process and store.
fn layer_replay(rig: &mut Rig, p: &Params, seed: u64, tr: &mut Tracer) {
    let proc = rig.server.process();
    let store = rig.server.store().shard(0);
    let mut rng = Rng::stream(seed, 100);

    // Wire work: one client batch, as generated.
    let c = &mut rig.clients[0];
    c.build(p, &rig.ranks);
    replay::resp(tr, &c.next.bytes, PIPELINE, p.value_len, 2_000);

    let key_ids: Vec<u64> = (0..2_000)
        .map(|_| rig.ranks.sample(&mut rng) * CONNS)
        .collect();
    replay::store_ops(tr, &proc, store, &key_ids, p.value_len, 3);
    let entry = (16 + KEY_LEN + p.value_len) as u64;
    replay::heap_alloc_free(tr, &proc, store.heap(), entry, 200);

    // Reads land in the store's heap with the workload's key skew (hot ranks
    // sit at low addresses, as preloaded); writes go to scratch of the same
    // footprint so the store stays intact.
    let heap = store.heap();
    let used = heap.used(&proc).expect("heap cursor");
    let footprint = p.keys_per_conn * entry;
    let scratch = proc.mmap_anon(footprint).expect("scratch");
    let skewed = |rng: &mut Rng, span: u64| ((rig.ranks.sample(rng) * entry) % (span - 64)) & !63;
    let reads: Vec<u64> = (0..3_200)
        .map(|_| heap.base() + skewed(&mut rng, used))
        .collect();
    let writes: Vec<u64> = (0..3_200)
        .map(|_| scratch + skewed(&mut rng, footprint))
        .collect();
    replay::vm_access(tr, &proc, &reads, &writes);
    proc.munmap(scratch, footprint).expect("unmap scratch");
    replay::pmem_alloc_free(tr, &rig.machine.kernel, 200);

    if p.bgsave_every.is_some() {
        replay::forks(tr, &proc, ForkPolicy::OnDemand, "vm.fork.ondemand", 15);
        replay::forks(tr, &proc, ForkPolicy::Classic, "vm.fork.classic", 5);
        replay::faults(tr, &proc, rig.ballast_at, p.ballast, 3, &mut rng);
    }
}

fn per_layer(m: &mut Metrics, rig: &Rig, p: &Params, untraced: &WindowResult, tracer: &Tracer) {
    span_metrics(m, tracer);
    m.set_one(
        "bench.span_coverage_frac",
        tracer.child_coverage("client.batch"),
    );

    // What one request costs the serving path beyond the store and the
    // wire: queueing between client and worker, dispatch, wake-ups.
    let set_share = p.set_percent as f64 / 100.0;
    let layers_ns = m.value("kvstore.resp.parse_reply_ns")
        + set_share * m.value("kvstore.store.set_ns")
        + (1.0 - set_share) * m.value("kvstore.store.get_ns");
    m.set(
        "kvstore.percore.residual_ns",
        1e9 / untraced.throughput() - layers_ns,
        untraced.ops,
    );
    if p.bgsave_every.is_some() {
        // The part of the client's BGSAVE stall that is not the fork call:
        // waking the coordinator, the barrier, the reply's way back.
        m.set_one(
            "kvstore.percore.barrier_overhead_us",
            m.value("client.bgsave_stall_p50_us") - m.value("vm.fork.ondemand_us"),
        );
    }
    let footprint = rig.server.process().mm().frame_footprint();
    m.set_one("pagetable.table_frames", footprint.table_frames as f64);
}
