//! Memory pressure: fault latency as a function of reclaim rate, and the
//! paper's bgsave workload run with the dataset bigger than physical
//! memory.
//!
//! The question this bench answers is the one every swap tier gets asked:
//! what does reclaim cost the foreground? A working set larger than the
//! pool forces a steady state where every miss both swaps a page in and
//! (through the daemon or direct reclaim) pushes another out, so access
//! latency can be read as a function of the measured reclaim rate across
//! eviction policies and fork policies.
//!
//! Output: `BENCH_reclaim.json` — access-latency distribution + reclaim
//! rate per {eviction policy x fork policy x pressure ratio}. The bench
//! asserts that every above-capacity row swapped pages out and back in,
//! and that the kvstore completes its bgsave workload with the dataset at
//! 2x physical memory under both fork policies. (The cost of tracing
//! reclaim events is bounded per record by
//! `tests/tests/observability.rs`, not here.)

use std::time::Duration;

use odf_bench as bench;
use odf_core::{DaemonConfig, ForkPolicy, Kernel};
use odf_kvstore::{encode_command, Connection, PerCoreConfig, PerCoreServer, RespValue};
use odf_metrics::{Histogram, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGE: u64 = 4096;

/// One measured configuration.
struct Row {
    eviction_policy: &'static str,
    fork_policy: ForkPolicy,
    /// Working set as a multiple of physical memory x100 (150 = 1.5x).
    pressure_pct: u64,
    /// Pages reclaimed per second during the measured phase.
    reclaim_rate: f64,
    swapped_out: u64,
    swapped_in: u64,
    hist: Histogram,
}

/// Random-access read-modify-write over `ws_pages` against a pool of
/// `pool_pages`, with the daemon running `policy`. A background fork of
/// the chosen policy is taken mid-run (the bgsave analog), so reclaim
/// interacts with COW exactly as it would in the Redis scenario.
fn pressure_pass(
    policy: &'static str,
    fork_policy: ForkPolicy,
    pool_pages: u64,
    ws_pages: u64,
    accesses: u64,
) -> Row {
    let kernel = Kernel::new(pool_pages * PAGE);
    kernel.start_reclaim_daemon(
        odf_core::reclaim_policy_by_name(policy).expect("known policy"),
        DaemonConfig {
            interval: Duration::from_micros(200),
            batch: 64,
        },
    );
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(ws_pages * PAGE).expect("mmap");
    for pg in 0..ws_pages {
        proc.write_u64(addr + pg * PAGE, pg).expect("fill");
    }

    let before = kernel.stats();
    let mut hist = Histogram::new();
    let mut rng = StdRng::seed_from_u64(0x0d_f0_0d);
    let wall = Stopwatch::start();
    let mut child = None;
    for i in 0..accesses {
        if i == accesses / 2 {
            // Mid-run bgsave fork: reclaim now contends with COW.
            child = Some(proc.fork_with(fork_policy).expect("fork"));
        }
        let pg = rng.gen_range(0..ws_pages);
        let va = addr + pg * PAGE;
        let one = Stopwatch::start();
        let v = proc.read_u64(va).expect("read");
        proc.write_u64(va, v.wrapping_add(1)).expect("write");
        hist.record(one.elapsed_ns());
    }
    let elapsed_s = wall.elapsed_ns() as f64 / 1e9;
    drop(child);
    let delta = kernel.stats() - before;
    kernel.stop_reclaim_daemon();

    Row {
        eviction_policy: policy,
        fork_policy,
        pressure_pct: ws_pages * 100 / pool_pages,
        reclaim_rate: delta.vm.pages_swapped_out as f64 / elapsed_s.max(1e-9),
        swapped_out: delta.vm.pages_swapped_out,
        swapped_in: delta.vm.pages_swapped_in,
        hist,
    }
}

/// The kvstore acceptance workload: dataset 2x physical memory, bgsave
/// forks throughout. Returns (snapshots completed, keys verified).
fn kvstore_under_pressure(fork_policy: ForkPolicy) -> (usize, usize) {
    let pool_bytes = 4 << 20; // 4 MiB of simulated physical memory
    let kernel = Kernel::new(pool_bytes);
    kernel.start_default_reclaim_daemon();
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 24 << 20,
            buckets: 4096,
            fork_policy,
        },
    )
    .expect("server");
    let conn = server.connect_to(0);
    let call = |conn: &Connection, request: &[u8], replies: usize| {
        conn.send(request);
        let mut out = Vec::new();
        assert_eq!(
            conn.await_replies(replies, &mut out),
            0,
            "refused under pressure"
        );
        out
    };

    // ~8 MiB of values: 2x the pool; a BGSAVE after every 500th SET.
    let keys = 2048u64;
    let mut value = vec![0x5au8; 4096];
    for k in 0..keys {
        value[..8].copy_from_slice(&k.to_le_bytes());
        let mut request = encode_command(&[b"SET", format!("key:{k}").as_bytes(), &value]);
        let bgsave = (k + 1) % 500 == 0;
        if bgsave {
            request.extend_from_slice(&encode_command(&[b"BGSAVE"]));
        }
        call(&conn, &request, 1 + usize::from(bgsave));
    }
    let snaps = server.wait_snapshots().len();
    assert!(snaps > 0, "no bgsave snapshot completed under pressure");

    let mut verified = 0usize;
    for k in 0..keys {
        let reply = call(
            &conn,
            &encode_command(&[b"GET", format!("key:{k}").as_bytes()]),
            1,
        );
        let Some((RespValue::Bulk(Some(v)), _)) = RespValue::decode(&reply) else {
            panic!("key:{k} lost under pressure");
        };
        assert_eq!(&v[..8], &k.to_le_bytes());
        verified += 1;
    }
    (snaps, verified)
}

fn main() {
    bench::banner(
        "memory_pressure",
        "fault latency vs reclaim rate; kvstore bgsave at 2x memory",
    );

    // 1. The latency-vs-reclaim-rate curve: pressure sweep per eviction
    //    policy per fork policy.
    let pool_pages = 1024u64;
    let accesses = if bench::fast_mode() { 20_000 } else { 80_000 };
    let ratios: &[u64] = if bench::fast_mode() {
        &[50, 150, 200]
    } else {
        &[50, 100, 150, 200, 300]
    };
    let mut rows = Vec::new();
    let mut report = bench::Report::new(
        "reclaim",
        "eviction_policy fork_policy pressure_pct reclaim_pages_per_s \
         swapped_out swapped_in samples mean_ns p50_ns p99_ns",
    );
    for policy in ["clock", "lru", "fifo"] {
        for fork_policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            for &pct in ratios {
                let ws_pages = pool_pages * pct / 100;
                let row = pressure_pass(policy, fork_policy, pool_pages, ws_pages, accesses);
                report.row(vec![
                    row.eviction_policy.into(),
                    format!("{:?}", row.fork_policy).into(),
                    row.pressure_pct.into(),
                    bench::num(row.reclaim_rate, 0),
                    row.swapped_out.into(),
                    row.swapped_in.into(),
                    row.hist.count().into(),
                    bench::num(row.hist.mean(), 1),
                    row.hist.percentile(50.0).into(),
                    row.hist.percentile(99.0).into(),
                ]);
                rows.push(row);
            }
        }
    }
    report.emit();

    for row in &rows {
        let at = format!(
            "{} x {:?} at {}%",
            row.eviction_policy, row.fork_policy, row.pressure_pct
        );
        let h = &row.hist;
        let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
        assert!(h.count() > 0 && p50 <= p99, "{at}: p50 {p50} p99 {p99}");
        assert!(row.reclaim_rate >= 0.0, "{at}: negative reclaim rate");
        // The fault-latency-vs-reclaim-rate curve: above-capacity ratios
        // must actually exercise the swap tier.
        if row.pressure_pct > 100 {
            assert!(row.swapped_out > 0, "{at}: no eviction");
            assert!(row.swapped_in > 0, "{at}: no swap-in");
        }
    }
    assert!(
        rows.iter().any(|r| r.pressure_pct > 100),
        "no above-capacity pressure rows"
    );

    // 2. The acceptance workload: kvstore with the dataset at 2x physical
    //    memory completes its bgsave snapshots under both fork policies.
    for fork_policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let sw = Stopwatch::start();
        let (snaps, keys) = kvstore_under_pressure(fork_policy);
        println!(
            "kvstore 2x-memory bgsave [{fork_policy:?}]: {keys} keys verified, \
             {snaps} snapshots, {}",
            bench::fmt_ns(sw.elapsed_ns())
        );
    }
}
