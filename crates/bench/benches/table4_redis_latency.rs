//! Table 4: Redis request-response latency percentiles while taking
//! snapshots, fork vs On-demand-fork.
//!
//! Methodology (paper §5.3.3): preload ~1 GiB of data, run a pipelined
//! memtier-like workload, snapshot after every 10,000 changed keys, and
//! report client-observed latency percentiles. The fork call blocks the
//! serving thread, so its duration surfaces directly in the tail.
//!
//! Paper reference: p99.9 6.335 ms → 4.799 ms (24% lower), p99.99
//! 16.255 ms → 5.535 ms (66% lower) under On-demand-fork.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_kvstore::{workload, Server, ServerConfig};
use odf_metrics::Histogram;

fn sessions(policy: ForkPolicy, keys: u64, requests: u64) -> Histogram {
    // The paper averages 5 runs; merge the latency histograms of
    // `ODF_BENCH_REPS` sessions.
    let mut merged = Histogram::new();
    for rep in 0..bench::reps() as u64 {
        merged.merge(&session(policy, keys, requests, rep));
    }
    merged
}

fn session(policy: ForkPolicy, keys: u64, requests: u64, rep: u64) -> Histogram {
    let heap = bench::scaled(128 * bench::MIB);
    let resident = bench::scaled(bench::GIB);
    let kernel = bench::kernel_for(heap + resident + 256 * bench::MIB);
    let mut server = Server::new(
        &kernel,
        ServerConfig {
            heap_capacity: heap,
            resident_bytes: resident,
            buckets: (keys * 2).next_power_of_two(),
            snapshot_every: 10_000,
            fork_policy: policy,
            incremental: false,
        },
    )
    .expect("server");
    let cfg = workload::WorkloadConfig {
        key_space: keys,
        value_size: 512,
        set_ratio: 0.5,
        pipeline: 200,
        seed: 7 + rep,
    };
    workload::preload(&mut server, &cfg).expect("preload");
    let hist = workload::run(&mut server, &cfg, requests).expect("run");
    server.wait_snapshots();
    assert!(
        server.snapshots_started() > 0,
        "workload must trigger snapshots for the table to be meaningful"
    );
    hist
}

fn main() {
    bench::banner(
        "Table 4",
        "Redis request latency percentiles during snapshotting",
    );
    let (keys, requests) = if bench::fast_mode() {
        (20_000, 60_000)
    } else {
        (120_000, 400_000)
    };

    let classic = sessions(ForkPolicy::Classic, keys, requests);
    let odf = sessions(ForkPolicy::OnDemand, keys, requests);

    let mut report = bench::Report::new(
        "table4_redis_latency",
        "percentile fork_us odf_us reduction_pct",
    );
    for p in [50.0, 90.0, 95.0, 99.0, 99.9, 99.99] {
        let f = classic.percentile(p) as f64 / 1e3;
        let o = odf.percentile(p) as f64 / 1e3;
        report.row(vec![
            bench::num(p, 2),
            bench::num(f, 1),
            bench::num(o, 1),
            bench::num(100.0 * (f - o) / f.max(1e-9), 2),
        ]);
    }
    report.emit();
    println!(
        "Paper reference: reductions grow toward the tail — 10% at p50, \
         24% at p99.9, 66% at p99.99."
    );
}
