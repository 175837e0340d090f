//! Redis-style snapshotting with On-demand-fork (§5.3.3 of the paper).
//!
//! Builds an in-memory key-value store inside a simulated process behind a
//! one-shard `PerCoreServer`, serves a pipelined write workload over RESP,
//! and takes BGSAVE snapshots via fork — the client sends `BGSAVE` after
//! every 5,000th SET, Redis's `save` rule. Prints the fork pause times and
//! client latency percentiles under both fork policies.
//!
//! Run with: `cargo run --release --example snapshot_store`

use odf_core::{ForkPolicy, Kernel};
use odf_kvstore::{workload, PerCoreConfig, PerCoreServer};
use odf_metrics::Summary;

fn session(policy: ForkPolicy) {
    let kernel = Kernel::new(1 << 30);
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 128 << 20,
            buckets: 1 << 14,
            fork_policy: policy,
        },
    )
    .expect("server");
    // Resident memory beside the dataset, so the fork has a footprint to
    // copy or share.
    let resident = 256 << 20;
    let proc = server.process();
    let arena = proc.mmap_anon(resident).expect("resident arena");
    proc.populate(arena, resident, true).expect("populate");
    drop(proc);

    let cfg = workload::WorkloadConfig {
        key_space: 10_000,
        value_size: 256,
        set_ratio: 0.5,
        pipeline: 100,
        seed: 11,
    };
    workload::preload_percore(&server, &cfg);
    let report = workload::run_percore(&server, &cfg, 1, 50_000, Some(5_000));
    let mut forks = Summary::new();
    for snap in &report.snapshots {
        forks.record(snap.fork_ns as f64);
    }

    println!("--- {policy:?} ---");
    let first = report.snapshots.first();
    println!(
        "snapshots: {} (each captured {} keys, {} bytes serialized)",
        report.snapshots.len(),
        first.map_or(0, |s| u64::from_le_bytes(
            s.dumps[0][..8].try_into().unwrap()
        )),
        first.map_or(0, |s| s.dumps[0].len()),
    );
    println!(
        "fork pause: mean {} stddev {}",
        odf_metrics::fmt_ns(forks.mean() as u64),
        odf_metrics::fmt_ns(forks.stddev() as u64),
    );
    for p in [50.0, 99.0, 99.9] {
        println!(
            "  request p{p:<5}: {}",
            odf_metrics::fmt_ns(report.latency.percentile(p))
        );
    }
}

fn main() {
    println!("Redis-style snapshot workload, fork vs on-demand-fork\n");
    session(ForkPolicy::Classic);
    session(ForkPolicy::OnDemand);
    println!(
        "\nThe fork pause is the window during which the server cannot\n\
         serve (Table 5 of the paper: 7.40 ms -> 0.12 ms at ~1 GiB)."
    );
}
