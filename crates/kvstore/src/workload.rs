//! A memtier_benchmark-like traffic generator.
//!
//! The paper drives Redis with memtier_benchmark using pipelined
//! connections (§5.3.3) and reports client-observed latency percentiles.
//! This generator reproduces that measurement model: requests are issued in
//! pipeline batches; each request's latency is measured from its enqueue
//! time to its completion, so a fork-induced stall inside a batch inflates
//! the tail exactly as a blocked server inflates memtier's.
//!
//! It also plays the paper's snapshot policy, Redis's `save <n>` rule:
//! given a period, the clients send `BGSAVE` in-band right after every n-th
//! SET, so each snapshot holds exactly the writes sent before it.

use std::sync::atomic::{AtomicU64, Ordering};

use odf_metrics::{Histogram, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::percore::PerCoreServer;
use crate::resp::{encode_command, skip_reply};
use crate::sharded::ShardedSnapshot;

/// Traffic generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of distinct keys addressed.
    pub key_space: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Fraction of SET requests (the rest are GETs), in `[0, 1]`.
    pub set_ratio: f64,
    /// Requests per pipeline batch.
    pub pipeline: usize,
    /// RNG seed (fixed for reproducibility).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            key_space: 10_000,
            value_size: 64,
            set_ratio: 0.5,
            pipeline: 100,
            seed: 42,
        }
    }
}

fn key_bytes(i: u64) -> Vec<u8> {
    format!("memtier-{i:012}").into_bytes()
}

/// Result of a [`run_percore`] drive: merged client-observed latencies plus
/// whatever snapshots the run triggered.
pub struct PerCoreReport {
    /// Per-request latency, nanoseconds, merged across all connections
    /// (`BGSAVE` replies excluded).
    pub latency: Histogram,
    /// Requests completed (reply received and parsed).
    pub requests: u64,
    /// Wall-clock duration of the drive.
    pub wall_ns: u64,
    /// Error replies observed (should be zero: keys are routed per shard,
    /// so `-MOVED` never fires).
    pub errors: u64,
    /// The snapshots the run's `BGSAVE`s produced.
    pub snapshots: Vec<ShardedSnapshot>,
}

/// Pre-loads the per-core server over RESP connections, one per shard,
/// each loading only the keys its shard owns.
pub fn preload_percore(server: &PerCoreServer, config: &WorkloadConfig) {
    let value = vec![0xABu8; config.value_size];
    let conns: Vec<_> = (0..server.shard_count())
        .map(|s| server.connect_to(s))
        .collect();
    let mut out = Vec::new();
    let mut in_flight = vec![0usize; conns.len()];
    for i in 0..config.key_space {
        let key = key_bytes(i);
        let shard = server.shard_for(&key);
        conns[shard].send(&encode_command(&[b"SET", &key, &value]));
        in_flight[shard] += 1;
        if in_flight[shard] >= 256 {
            out.clear();
            conns[shard].await_replies(in_flight[shard], &mut out);
            in_flight[shard] = 0;
        }
    }
    for (conn, pending) in conns.iter().zip(in_flight) {
        out.clear();
        conn.await_replies(pending, &mut out);
    }
}

/// Drives a [`PerCoreServer`] with `conns_per_shard` pipelined RESP
/// connections per shard from real client threads, memtier-style: each
/// connection issues `config.pipeline` requests per batch and records each
/// reply's latency from the batch's send time — a fork stall lands in the
/// tail exactly as it does on a blocked socket.
///
/// Keys are routed to the owning shard's connection (the smart-client
/// model), so the run exercises the shard-local fast path; exactly
/// `total_requests` are issued, split as evenly as they go across
/// connections. With `bgsave_every = Some(n)` (n > 0), the connection that
/// sends the n-th, 2n-th, … SET of the run sends a `BGSAVE` right behind
/// it, and the report carries the resulting snapshots.
pub fn run_percore(
    server: &PerCoreServer,
    config: &WorkloadConfig,
    conns_per_shard: usize,
    total_requests: u64,
    bgsave_every: Option<u64>,
) -> PerCoreReport {
    assert_ne!(bgsave_every, Some(0), "a BGSAVE period is at least one SET");
    let shards = server.shard_count();
    let nconns = (shards * conns_per_shard) as u64;
    let sets = AtomicU64::new(0);
    let errors = AtomicU64::new(0);

    // Pre-route the key space: connection c (on shard s) draws only from
    // keys s owns, so every data command is shard-local.
    let mut keys_by_shard: Vec<Vec<Vec<u8>>> = (0..shards).map(|_| Vec::new()).collect();
    for i in 0..config.key_space {
        let key = key_bytes(i);
        keys_by_shard[server.shard_for(&key)].push(key);
    }

    let sw = Stopwatch::start();
    let mut histograms: Vec<Histogram> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..nconns {
            let shard = c as usize % shards;
            let conn = server.connect_to(shard);
            let keys = &keys_by_shard[shard];
            let quota = total_requests / nconns + u64::from(c < total_requests % nconns);
            let (sets, errors) = (&sets, &errors);
            handles.push(scope.spawn(move || {
                let mut hist = Histogram::new();
                if keys.is_empty() {
                    return hist;
                }
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(c));
                let value = vec![0xCDu8; config.value_size];
                let mut picks: Vec<(usize, bool)> = Vec::new();
                let mut batch = Vec::new();
                // Per reply slot of the batch: whether it answers a BGSAVE.
                let mut is_bgsave: Vec<bool> = Vec::new();
                let mut replies = Vec::new();
                let mut done = 0u64;
                while done < quota {
                    let n = config.pipeline.min((quota - done) as usize);
                    picks.clear();
                    for _ in 0..n {
                        picks.push((rng.gen_range(0..keys.len()), rng.gen_bool(config.set_ratio)));
                    }
                    let mut set_no = match bgsave_every {
                        Some(_) => {
                            let batch_sets = picks.iter().filter(|&&(_, set)| set).count();
                            sets.fetch_add(batch_sets as u64, Ordering::Relaxed)
                        }
                        None => 0,
                    };
                    batch.clear();
                    is_bgsave.clear();
                    for &(k, set) in &picks {
                        let key = &keys[k];
                        is_bgsave.push(false);
                        if !set {
                            batch.extend_from_slice(&encode_command(&[b"GET", key]));
                            continue;
                        }
                        batch.extend_from_slice(&encode_command(&[b"SET", key, &value]));
                        set_no += 1;
                        if bgsave_every.is_some_and(|every| set_no % every == 0) {
                            batch.extend_from_slice(&encode_command(&[b"BGSAVE"]));
                            is_bgsave.push(true);
                        }
                    }
                    let bsw = Stopwatch::start();
                    conn.send(&batch);
                    // Record each reply as it lands: earlier replies in the
                    // pipeline finish earlier, like on a real socket.
                    replies.clear();
                    let mut scanned = 0;
                    let mut got = 0;
                    while got < is_bgsave.len() {
                        if conn.recv_into(&mut replies) == 0 {
                            if conn.is_closed() {
                                return hist;
                            }
                            conn.wait_readable();
                            continue;
                        }
                        while got < is_bgsave.len() {
                            let Some(used) = skip_reply(&replies[scanned..]) else {
                                break;
                            };
                            if replies[scanned] == b'-' {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            if !is_bgsave[got] {
                                hist.record(bsw.elapsed_ns());
                            }
                            scanned += used;
                            got += 1;
                        }
                    }
                    done += n as u64;
                }
                hist
            }));
        }
        histograms = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });
    let wall_ns = sw.elapsed_ns();
    let snapshots = server.wait_snapshots();

    let mut latency = Histogram::new();
    for h in &histograms {
        latency.merge(h);
    }
    let requests = latency.count();
    PerCoreReport {
        latency,
        requests,
        wall_ns,
        errors: errors.load(Ordering::Relaxed),
        snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerCoreConfig;
    use odf_core::{ForkPolicy, Kernel};

    fn boot(shards: usize) -> PerCoreServer {
        let k = Kernel::new(256 << 20);
        PerCoreServer::new(
            &k,
            PerCoreConfig {
                shards,
                heap_per_shard: 8 << 20,
                buckets: 256,
                fork_policy: ForkPolicy::OnDemand,
            },
        )
        .unwrap()
    }

    /// Sends one command on a fresh connection to `shard`; returns the reply.
    fn call(server: &PerCoreServer, shard: usize, parts: &[&[u8]]) -> Vec<u8> {
        let conn = server.connect_to(shard);
        conn.send(&encode_command(parts));
        let mut reply = Vec::new();
        conn.await_replies(1, &mut reply);
        reply
    }

    #[test]
    fn preload_fills_the_key_space() {
        let s = boot(1);
        let cfg = WorkloadConfig {
            key_space: 100,
            ..Default::default()
        };
        preload_percore(&s, &cfg);
        assert_eq!(call(&s, 0, &[b"DBSIZE"]), b":100\r\n");
        let reply = call(&s, 0, &[b"GET", &key_bytes(57)]);
        assert!(reply.starts_with(b"$64\r\n"), "{reply:?}");
    }

    #[test]
    fn run_records_every_request() {
        let s = boot(1);
        let cfg = WorkloadConfig {
            key_space: 50,
            pipeline: 7,
            ..Default::default()
        };
        preload_percore(&s, &cfg);
        let report = run_percore(&s, &cfg, 1, 123, None);
        assert_eq!(report.requests, 123);
        assert!(report.snapshots.is_empty());
        let hist = &report.latency;
        assert!(hist.percentile(99.0) >= hist.percentile(50.0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run_once = || {
            let s = boot(1);
            let cfg = WorkloadConfig {
                key_space: 64,
                set_ratio: 1.0,
                ..Default::default()
            };
            preload_percore(&s, &cfg);
            run_percore(&s, &cfg, 1, 200, Some(40)).snapshots
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.len(), 5, "one BGSAVE per 40 SETs");
        let dumps = |snaps: &[ShardedSnapshot]| -> Vec<Vec<Vec<u8>>> {
            snaps.iter().map(|s| s.dumps.clone()).collect()
        };
        assert_eq!(dumps(&a), dumps(&b));
    }

    /// Under either fork policy: smart-client routing never sees `MOVED`,
    /// and the multi-shard `BGSAVE` forks and dumps every shard.
    #[test]
    fn percore_drive_completes_and_routes_cleanly() {
        for fork_policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let k = Kernel::new(256 << 20);
            let config = PerCoreConfig {
                shards: 2,
                heap_per_shard: 8 << 20,
                buckets: 256,
                fork_policy,
            };
            let server = PerCoreServer::new(&k, config).unwrap();
            let cfg = WorkloadConfig {
                key_space: 200,
                pipeline: 8,
                ..Default::default()
            };
            preload_percore(&server, &cfg);
            assert_eq!(call(&server, 0, &[b"DBSIZE"]), b":200\r\n");
            // About 200 of the 400 requests are SETs.
            let report = run_percore(&server, &cfg, 2, 400, Some(150));
            assert_eq!(report.requests, 400);
            assert_eq!(report.errors, 0, "smart-client routing never sees MOVED");
            assert_eq!(report.snapshots.len(), 1);
            assert!(report.snapshots[0].fork_ns > 0, "{fork_policy:?}: no fork");
            assert_eq!(report.snapshots[0].dumps.len(), 2, "one dump per shard");
            assert!(report.latency.percentile(99.0) >= report.latency.percentile(50.0));
        }
    }

    #[test]
    fn every_request_is_issued_and_a_period_past_the_end_never_fires() {
        let s = boot(1);
        let cfg = WorkloadConfig {
            key_space: 50,
            ..Default::default()
        };
        preload_percore(&s, &cfg);
        let report = run_percore(&s, &cfg, 2, 1_001, Some(1_000));
        assert_eq!(report.requests, 1_001, "the odd request is not dropped");
        assert!(report.snapshots.is_empty(), "about 500 SETs, period 1 000");
    }
}
