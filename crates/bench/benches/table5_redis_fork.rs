//! Table 5: time Redis spends inside the fork call when taking snapshots
//! (the `latest_fork_usec` metric), fork vs On-demand-fork.
//!
//! Paper reference: mean 7.40 ms → 0.12 ms (98.4% reduction), standard
//! deviation 0.42 ms → 0.007 ms — On-demand-fork is both faster and far
//! more predictable.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_kvstore::{workload, Server, ServerConfig};
use odf_metrics::Summary;

const SNAPSHOTS: usize = 5;

fn measure(policy: ForkPolicy, keys: u64) -> Summary {
    let heap = bench::scaled(128 * bench::MIB);
    let resident = bench::scaled(bench::GIB);
    let kernel = bench::kernel_for(heap + resident + 256 * bench::MIB);
    let mut server = Server::new(
        &kernel,
        ServerConfig {
            heap_capacity: heap,
            resident_bytes: resident,
            buckets: (keys * 2).next_power_of_two(),
            snapshot_every: u64::MAX, // snapshots issued explicitly below
            fork_policy: policy,
            incremental: false,
        },
    )
    .expect("server");
    let cfg = workload::WorkloadConfig {
        key_space: keys,
        value_size: 512,
        set_ratio: 1.0,
        pipeline: 100,
        seed: 3,
    };
    workload::preload(&mut server, &cfg).expect("preload");
    for i in 0..SNAPSHOTS {
        // Touch some keys between snapshots so each fork sees fresh dirt.
        workload::run(&mut server, &cfg, 2_000).expect("mutate");
        server.bgsave().expect("bgsave");
        let _ = i;
    }
    server.wait_snapshots();
    server.fork_times().clone()
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
