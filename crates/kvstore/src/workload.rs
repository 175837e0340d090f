//! A memtier_benchmark-like traffic generator.
//!
//! The paper drives Redis with memtier_benchmark using pipelined
//! connections (§5.3.3) and reports client-observed latency percentiles.
//! This generator reproduces that measurement model: requests are issued in
//! pipeline batches; each request's latency is measured from its enqueue
//! time to its completion, so a fork-induced stall inside a batch inflates
//! the tail exactly as a blocked server inflates memtier's.

use std::sync::atomic::{AtomicU64, Ordering};

use odf_metrics::{Histogram, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::percore::PerCoreServer;
use crate::resp::{encode_command, skip_reply};
use crate::server::Server;
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

/// Pre-loads the store with every key in the key space (the "populate
/// Redis with N MB of data before the experiment" step).
pub fn preload(server: &mut Server, config: &WorkloadConfig) -> odf_core::Result<()> {
    let value = vec![0xABu8; config.value_size];
    for i in 0..config.key_space {
        server.set(key_bytes(i).as_slice(), &value)?;
    }
    Ok(())
}

/// Runs `total_requests` against the server, returning the per-request
/// latency histogram (nanoseconds).
pub fn run(
    server: &mut Server,
    config: &WorkloadConfig,
    total_requests: u64,
) -> odf_core::Result<Histogram> {
    let mut hist = Histogram::new();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let value = vec![0xCDu8; config.value_size];
    let mut issued = 0u64;
    while issued < total_requests {
        let batch = config.pipeline.min((total_requests - issued) as usize);
        let sw = Stopwatch::start();
        for slot in 0..batch {
            let key = key_bytes(rng.gen_range(0..config.key_space));
            if rng.gen_bool(config.set_ratio) {
                server.set(&key, &value)?;
            } else {
                let _ = server.get(&key)?;
            }
            // Latency of request `slot`: queued at batch start, completed
            // now. Requests later in a batch accumulate the batch's
            // service time, like a pipelined connection.
            let _ = slot;
            hist.record(sw.elapsed_ns());
        }
        issued += batch as u64;
    }
    Ok(hist)
}

fn key_bytes(i: u64) -> Vec<u8> {
    format!("memtier-{i:012}").into_bytes()
}

/// Result of a [`run_percore`] drive: merged client-observed latencies plus
/// whatever snapshots the run triggered.
pub struct PerCoreReport {
    /// Per-request latency, nanoseconds, merged across all connections.
    pub latency: Histogram,
    /// Requests completed (reply received and parsed).
    pub requests: u64,
    /// Wall-clock duration of the drive.
    pub wall_ns: u64,
    /// Error replies observed (should be zero: keys are routed per shard,
    /// so `-MOVED` never fires).
    pub errors: u64,
    /// Snapshots collected if `bgsave_at` fired.
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
/// model), so the run exercises the shard-local fast path; `total_requests`
/// is split evenly across connections. If `bgsave_at` is set, the main
/// thread triggers a BGSAVE once that many requests have completed
/// globally, and the report carries the resulting snapshots.
pub fn run_percore(
    server: &PerCoreServer,
    config: &WorkloadConfig,
    conns_per_shard: usize,
    total_requests: u64,
    bgsave_at: Option<u64>,
) -> PerCoreReport {
    let shards = server.shard_count();
    let nconns = shards * conns_per_shard;
    let per_conn = total_requests / nconns as u64;
    let progress = AtomicU64::new(0);
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
        let mut handles = Vec::with_capacity(nconns);
        for c in 0..nconns {
            let shard = c % shards;
            let conn = server.connect_to(shard);
            let keys = &keys_by_shard[shard];
            let progress = &progress;
            let errors = &errors;
            handles.push(scope.spawn(move || {
                let mut hist = Histogram::new();
                if keys.is_empty() {
                    return hist;
                }
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(c as u64));
                let value = vec![0xCDu8; config.value_size];
                let mut batch = Vec::new();
                let mut replies = Vec::new();
                let mut done = 0u64;
                while done < per_conn {
                    let n = config.pipeline.min((per_conn - done) as usize);
                    batch.clear();
                    for _ in 0..n {
                        let key = &keys[rng.gen_range(0..keys.len())];
                        if rng.gen_bool(config.set_ratio) {
                            batch.extend_from_slice(&encode_command(&[b"SET", key, &value]));
                        } else {
                            batch.extend_from_slice(&encode_command(&[b"GET", key]));
                        }
                    }
                    let bsw = Stopwatch::start();
                    conn.send(&batch);
                    // Record each reply as it lands: earlier replies in the
                    // pipeline finish earlier, like on a real socket.
                    replies.clear();
                    let mut scanned = 0;
                    let mut got = 0;
                    while got < n {
                        if conn.recv_into(&mut replies) == 0 {
                            if conn.is_closed() {
                                return hist;
                            }
                            conn.wait_readable();
                            continue;
                        }
                        while got < n {
                            let Some(used) = skip_reply(&replies[scanned..]) else {
                                break;
                            };
                            if replies[scanned] == b'-' {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            scanned += used;
                            got += 1;
                            hist.record(bsw.elapsed_ns());
                        }
                    }
                    done += n as u64;
                    progress.fetch_add(n as u64, Ordering::Relaxed);
                }
                hist
            }));
        }
        if let Some(at) = bgsave_at {
            while progress.load(Ordering::Relaxed) < at {
                std::thread::yield_now();
            }
            server.bgsave();
        }
        histograms = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let wall_ns = sw.elapsed_ns();
    let snapshots = if bgsave_at.is_some() {
        server.wait_snapshots()
    } else {
        Vec::new()
    };

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
    use crate::server::ServerConfig;
    use odf_core::{ForkPolicy, Kernel};

    #[test]
    fn preload_fills_the_key_space() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(
            &k,
            ServerConfig {
                heap_capacity: 16 << 20,
                snapshot_every: u64::MAX,
                ..Default::default()
            },
        )
        .unwrap();
        let cfg = WorkloadConfig {
            key_space: 100,
            ..Default::default()
        };
        preload(&mut s, &cfg).unwrap();
        assert_eq!(s.store().len(s.process()).unwrap(), 100);
        assert_eq!(s.get(&key_bytes(57)).unwrap().unwrap().len(), 64);
    }

    #[test]
    fn run_records_every_request() {
        let k = Kernel::new(64 << 20);
        let mut s = Server::new(
            &k,
            ServerConfig {
                heap_capacity: 16 << 20,
                snapshot_every: u64::MAX,
                fork_policy: ForkPolicy::OnDemand,
                incremental: false,
                ..Default::default()
            },
        )
        .unwrap();
        let cfg = WorkloadConfig {
            key_space: 50,
            pipeline: 7,
            ..Default::default()
        };
        preload(&mut s, &cfg).unwrap();
        let hist = run(&mut s, &cfg, 123).unwrap();
        assert_eq!(hist.count(), 123);
        assert!(hist.percentile(99.0) >= hist.percentile(50.0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run_once = || {
            let k = Kernel::new(64 << 20);
            let mut s = Server::new(
                &k,
                ServerConfig {
                    heap_capacity: 16 << 20,
                    snapshot_every: 40,
                    ..Default::default()
                },
            )
            .unwrap();
            let cfg = WorkloadConfig {
                key_space: 64,
                set_ratio: 1.0,
                ..Default::default()
            };
            preload(&mut s, &cfg).unwrap();
            run(&mut s, &cfg, 200).unwrap();
            s.wait_snapshots().len()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn percore_drive_completes_and_routes_cleanly() {
        let k = Kernel::new(256 << 20);
        let server = crate::PerCoreServer::new(
            &k,
            crate::PerCoreConfig {
                shards: 2,
                heap_per_shard: 8 << 20,
                buckets: 256,
                fork_policy: ForkPolicy::OnDemand,
            },
        )
        .unwrap();
        let cfg = WorkloadConfig {
            key_space: 200,
            pipeline: 8,
            ..Default::default()
        };
        preload_percore(&server, &cfg);
        let conn = server.connect_to(0);
        conn.send(&encode_command(&[b"DBSIZE"]));
        let mut reply = Vec::new();
        conn.await_replies(1, &mut reply);
        assert_eq!(reply, b":200\r\n");
        let report = run_percore(&server, &cfg, 2, 400, Some(100));
        assert_eq!(report.requests, 400);
        assert_eq!(report.errors, 0, "smart-client routing never sees MOVED");
        assert_eq!(report.snapshots.len(), 1);
        assert!(report.latency.percentile(99.0) >= report.latency.percentile(50.0));
    }
}
