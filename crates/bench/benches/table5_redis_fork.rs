//! Table 5: time Redis spends inside the fork call when taking snapshots
//! (the `latest_fork_usec` metric), fork vs On-demand-fork: the fork call a
//! one-shard `PerCoreServer` makes for each in-band `BGSAVE`.
//!
//! Paper reference: mean 7.40 ms → 0.12 ms (98.4% reduction), standard
//! deviation 0.42 ms → 0.007 ms — On-demand-fork is both faster and far
//! more predictable.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_kvstore::{workload, PerCoreConfig, PerCoreServer};
use odf_metrics::Summary;

const SNAPSHOTS: u64 = 5;

fn measure(policy: ForkPolicy, keys: u64) -> Summary {
    let heap = bench::scaled(128 * bench::MIB);
    let resident = bench::scaled(bench::GIB);
    let kernel = bench::kernel_for(heap + resident + 256 * bench::MIB);
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: heap,
            buckets: (keys * 2).next_power_of_two(),
            fork_policy: policy,
        },
    )
    .expect("server");
    let proc = server.process();
    let arena = proc.mmap_anon(resident).expect("resident arena");
    proc.populate(arena, resident, true).expect("populate");
    drop(proc);
    let cfg = workload::WorkloadConfig {
        key_space: keys,
        value_size: 512,
        set_ratio: 1.0,
        pipeline: 100,
        seed: 3,
    };
    workload::preload_percore(&server, &cfg);
    // Every request is a SET: a BGSAVE after each 2,000, so each fork sees
    // fresh dirt.
    let report = workload::run_percore(&server, &cfg, 1, SNAPSHOTS * 2_000, Some(2_000));
    let mut forks = Summary::new();
    for snap in &report.snapshots {
        forks.record(snap.fork_ns as f64);
    }
    assert_eq!(forks.count(), SNAPSHOTS, "one fork per BGSAVE");
    forks
}

fn main() {
    bench::banner(
        "Table 5",
        "Redis snapshot fork time (latest_fork_usec analog)",
    );
    let keys = if bench::fast_mode() { 20_000 } else { 120_000 };

    let classic = measure(ForkPolicy::Classic, keys);
    let odf = measure(ForkPolicy::OnDemand, keys);

    let mut report = bench::Report::new("table5_redis_fork", "type fork_ms odf_ms reduction_pct");
    for (name, f, o) in [
        ("Mean", classic.mean(), odf.mean()),
        ("Std. Dev.", classic.stddev(), odf.stddev()),
    ] {
        report.row(vec![
            name.into(),
            bench::ms(f),
            bench::ms(o),
            bench::num(100.0 * (f - o) / f.max(1.0), 2),
        ]);
    }
    report.emit();
    println!(
        "({} snapshots each over {} keys; paper: 7.40 ms -> 0.12 ms mean, \
         98.4% reduction)",
        classic.count(),
        keys
    );
}
