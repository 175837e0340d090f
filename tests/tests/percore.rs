//! Concurrency and lifecycle races in the thread-per-core serving tier.
//!
//! The [`PerCoreServer`] invariants under attack here:
//!
//! - a BGSAVE barrier freezes a *consistent* image — every snapshot holds
//!   exactly the pre-fork state, no matter how hard clients write during
//!   the fork and the serialization that follows — and workers that parse
//!   `BGSAVE` at once take turns leading it;
//! - cross-shard operations (`DBSIZE`) ride the mailbox mesh without
//!   reordering a connection's replies relative to its shard-local
//!   traffic;
//! - shutdown drains everything: in-flight mailbox requests complete,
//!   blocked clients wake, and the serving process exits cleanly.
//!
//! Every test captures the frame-pool balance before boot and ends with
//! [`assert_pool_balanced`], so a leaked page table frame, lost child, or
//! double release anywhere in the worker/barrier/serializer protocol fails
//! the test.

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel};
use odf_kvstore::resp::encode_command;
use odf_kvstore::{PerCoreConfig, PerCoreServer};
use odf_pmem::assert_pool_balanced;

const MIB: u64 = 1 << 20;

fn boot(kernel: &Arc<Kernel>, shards: usize, policy: ForkPolicy) -> PerCoreServer {
    PerCoreServer::new(
        kernel,
        PerCoreConfig {
            shards,
            heap_per_shard: 8 * MIB,
            buckets: 512,
            fork_policy: policy,
        },
    )
    .unwrap()
}

fn shard_keys(server: &PerCoreServer, per_shard: usize) -> Vec<Vec<Vec<u8>>> {
    let mut keys: Vec<Vec<Vec<u8>>> = vec![Vec::new(); server.shard_count()];
    let mut i = 0u64;
    while keys.iter().any(|k| k.len() < per_shard) {
        let key = format!("key-{i:08}").into_bytes();
        let shard = server.shard_for(&key);
        if keys[shard].len() < per_shard {
            keys[shard].push(key);
        }
        i += 1;
    }
    keys
}

#[test]
fn bgsave_during_traffic_freezes_generation_boundaries() {
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let kernel = Kernel::new(256 * MIB);
        let baseline = kernel.machine().pool().balance();
        {
            let server = boot(&kernel, 4, policy);
            let keys = shard_keys(&server, 32);
            let total: usize = keys.iter().map(|k| k.len()).sum();

            // Generation 0: every key set once.
            std::thread::scope(|s| {
                for (shard, keys) in keys.iter().enumerate() {
                    let conn = server.connect_to(shard);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for key in keys {
                            conn.send(&encode_command(&[b"SET", key, b"gen0"]));
                        }
                        assert_eq!(conn.await_replies(keys.len(), &mut out), 0);
                    });
                }
            });

            // Generation 1 rewrites race a stream of BGSAVEs.
            std::thread::scope(|s| {
                for (shard, keys) in keys.iter().enumerate() {
                    let conn = server.connect_to(shard);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for round in 0..6u32 {
                            let value = format!("gen1-{round}");
                            for key in keys {
                                conn.send(&encode_command(&[b"SET", key, value.as_bytes()]));
                            }
                            assert_eq!(conn.await_replies(keys.len(), &mut out), 0);
                            out.clear();
                        }
                    });
                }
                let conn = server.connect_to(0);
                let mut out = Vec::new();
                for _ in 0..3 {
                    conn.send(&encode_command(&[b"BGSAVE"]));
                    assert_eq!(conn.await_replies(1, &mut out), 0);
                }
            });

            // Every snapshot is internally consistent: the barrier means a
            // frozen image always holds the complete key space (writes are
            // overwrites), never a torn subset mid-batch... the item count
            // proves no shard was caught half-serialized.
            let snaps = server.wait_snapshots();
            assert_eq!(snaps.len(), 3, "{policy:?}");
            for snap in &snaps {
                let items: u64 = snap
                    .dumps
                    .iter()
                    .map(|d| u64::from_le_bytes(d[0..8].try_into().unwrap()))
                    .sum();
                assert_eq!(items, total as u64, "{policy:?}: torn snapshot");
                assert!(snap.fork_ns > 0, "{policy:?}");
            }
        }
        assert_eq!(kernel.process_count(), 0, "{policy:?}");
        assert_pool_balanced(kernel.machine().pool(), baseline);
    }
}

#[test]
fn cross_shard_dbsize_races_shard_local_traffic() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let server = boot(&kernel, 4, ForkPolicy::OnDemand);
        let keys = shard_keys(&server, 16);
        let total: usize = keys.iter().map(|k| k.len()).sum();

        // Preload everything so DBSIZE has a stable floor.
        for (shard, keys) in keys.iter().enumerate() {
            let conn = server.connect_to(shard);
            let mut out = Vec::new();
            for key in keys {
                conn.send(&encode_command(&[b"SET", key, b"v"]));
            }
            assert_eq!(conn.await_replies(keys.len(), &mut out), 0);
        }

        // One thread hammers DBSIZE (each pipelined between two PINGs, so
        // a reply-order violation around the pending slot is visible as a
        // garbled sequence); others overwrite keys on every shard.
        std::thread::scope(|s| {
            let server = &server;
            s.spawn(move || {
                let conn = server.connect_to(0);
                let mut out = Vec::new();
                for _ in 0..50 {
                    let mut burst = Vec::new();
                    burst.extend_from_slice(&encode_command(&[b"PING"]));
                    burst.extend_from_slice(&encode_command(&[b"DBSIZE"]));
                    burst.extend_from_slice(&encode_command(&[b"PING"]));
                    conn.send(&burst);
                    out.clear();
                    assert_eq!(conn.await_replies(3, &mut out), 0);
                    // Replies in request order: PONG, count, PONG.
                    let text = String::from_utf8(out.clone()).unwrap();
                    assert!(text.starts_with("+PONG\r\n:"), "{text:?}");
                    assert!(text.ends_with("\r\n+PONG\r\n"), "{text:?}");
                    let count: u64 = text
                        .trim_start_matches("+PONG\r\n:")
                        .split("\r\n")
                        .next()
                        .unwrap()
                        .parse()
                        .unwrap();
                    // Overwrites never change the count.
                    assert_eq!(count, total as u64);
                }
            });
            for (shard, keys) in keys.iter().enumerate() {
                let conn = server.connect_to(shard);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..20u32 {
                        let value = format!("round-{round}");
                        for key in keys {
                            conn.send(&encode_command(&[b"SET", key, value.as_bytes()]));
                        }
                        assert_eq!(conn.await_replies(keys.len(), &mut out), 0);
                        out.clear();
                    }
                });
            }
        });
    }
    assert_eq!(kernel.process_count(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn shutdown_drains_mailboxes_and_wakes_blocked_clients() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let mut server = boot(&kernel, 4, ForkPolicy::OnDemand);
        // Queue work that exercises every mailbox path right before the
        // shutdown request: shard-local writes, cross-shard DBSIZE, and a
        // BGSAVE whose barrier must still run during quiesce.
        let conns: Vec<_> = (0..4).map(|s| server.connect_to(s)).collect();
        for (shard, conn) in conns.iter().enumerate() {
            let key = shard_keys(&server, 1)[shard][0].clone();
            let mut burst = Vec::new();
            burst.extend_from_slice(&encode_command(&[b"SET", &key, b"v"]));
            burst.extend_from_slice(&encode_command(&[b"DBSIZE"]));
            conn.send(&burst);
        }
        conns[0].send(&encode_command(&[b"BGSAVE"]));

        // Shut down immediately: workers must first drain those inboxes
        // (quiesce), still lead and join the BGSAVE's barrier and answer
        // the DBSIZE fan-out, and every client must get its replies.
        server.shutdown();
        for (shard, conn) in conns.iter().enumerate() {
            let mut out = Vec::new();
            let expected = if shard == 0 { 3 } else { 2 };
            assert_eq!(conn.await_replies(expected, &mut out), 0, "shard {shard}");
            assert!(conn.is_closed());
        }
        let snaps = server.wait_snapshots();
        assert_eq!(snaps.len(), 1, "quiesce still ran the queued BGSAVE");
    }
    assert_eq!(kernel.process_count(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

/// Every connection sends `BGSAVE` at the same moment, between two SETs:
/// each worker waits its turn to lead the barrier while answering the
/// others', so all of them fork, and every image holds the whole key space.
#[test]
fn concurrent_bgsaves_take_turns_leading_the_barrier() {
    const CONNS_PER_SHARD: usize = 2;
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let mut server = boot(&kernel, 4, ForkPolicy::OnDemand);
        let keys = shard_keys(&server, 16);
        let total: usize = keys.iter().map(|k| k.len()).sum();
        for (shard, keys) in keys.iter().enumerate() {
            let conn = server.connect_to(shard);
            let mut out = Vec::new();
            for key in keys {
                conn.send(&encode_command(&[b"SET", key, b"v0"]));
            }
            assert_eq!(conn.await_replies(keys.len(), &mut out), 0);
        }

        let conns = 4 * CONNS_PER_SHARD;
        let start = std::sync::Barrier::new(conns);
        std::thread::scope(|s| {
            for c in 0..conns {
                let shard = c % 4;
                let conn = server.connect_to(shard);
                let (keys, start) = (&keys[shard], &start);
                s.spawn(move || {
                    let mut burst = encode_command(&[b"SET", &keys[0], b"v1"]);
                    burst.extend_from_slice(&encode_command(&[b"BGSAVE"]));
                    burst.extend_from_slice(&encode_command(&[b"SET", &keys[1], b"v1"]));
                    start.wait();
                    conn.send(&burst);
                    let mut out = Vec::new();
                    assert_eq!(conn.await_replies(3, &mut out), 0);
                    assert_eq!(out, b"+OK\r\n+Background saving started\r\n+OK\r\n");
                });
            }
        });

        let snaps = server.wait_snapshots();
        assert_eq!(snaps.len(), conns, "one snapshot per BGSAVE");
        for snap in &snaps {
            let items: u64 = snap
                .dumps
                .iter()
                .map(|d| u64::from_le_bytes(d[0..8].try_into().unwrap()))
                .sum();
            assert_eq!(items, total as u64, "torn snapshot");
        }
        server.shutdown();
    }
    assert_eq!(kernel.process_count(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn moved_redirects_route_smart_clients_to_the_owner() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let server = boot(&kernel, 4, ForkPolicy::OnDemand);
        let key = b"routing-probe";
        let owner = server.shard_for(key);
        let wrong = (owner + 1) % server.shard_count();

        let conn = server.connect_to(wrong);
        conn.send(&encode_command(&[b"SET", key, b"v"]));
        let mut out = Vec::new();
        assert_eq!(conn.await_replies(1, &mut out), 1, "MOVED is an error");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, format!("-MOVED {owner}\r\n"));

        // Following the redirect lands on the owner and succeeds.
        let conn = server.connect_to(owner);
        conn.send(&encode_command(&[b"SET", key, b"v"]));
        let mut out = Vec::new();
        assert_eq!(conn.await_replies(1, &mut out), 0);
        assert_eq!(out, b"+OK\r\n");
    }
    assert_eq!(kernel.process_count(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn failed_bgsave_fork_is_reported_and_serving_continues() {
    // A kernel too small to Classic-fork the server: ballast touched once
    // per 2 MiB leaves the process with more page tables than half the
    // pool, so the fork's table copy cannot fit however much data reclaim
    // swaps out.
    const TABLES: u64 = 1200;
    let kernel = Kernel::new(8 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let mut server = boot(&kernel, 1, ForkPolicy::Classic);
        let proc = server.process();
        let ballast = proc.mmap_anon(TABLES * 2 * MIB).unwrap();
        for t in 0..TABLES {
            proc.write_u64(ballast + t * 2 * MIB, t).unwrap();
        }
        drop(proc);

        let conn = server.connect_to(0);
        let mut out = Vec::new();
        conn.send(&encode_command(&[b"SET", b"k", b"before"]));
        assert_eq!(conn.await_replies(1, &mut out), 0);

        conn.send(&encode_command(&[b"BGSAVE"]));
        out.clear();
        assert_eq!(conn.await_replies(1, &mut out), 1, "BGSAVE must fail");
        assert_eq!(out, b"-ERR out of physical memory\r\n");
        assert!(server.wait_snapshots().is_empty(), "no snapshot appeared");

        // The failed fork cost the server nothing it had.
        let mut burst = encode_command(&[b"APPEND", b"k", b"-after"]);
        burst.extend_from_slice(&encode_command(&[b"GET", b"k"]));
        burst.extend_from_slice(&encode_command(&[b"DBSIZE"]));
        conn.send(&burst);
        out.clear();
        assert_eq!(conn.await_replies(3, &mut out), 0);
        assert_eq!(out, b":12\r\n$12\r\nbefore-after\r\n:1\r\n");
        server.shutdown();
    }
    assert_eq!(kernel.process_count(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}
