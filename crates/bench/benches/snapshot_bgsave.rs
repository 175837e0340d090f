//! Checkpoint images under the bgsave flow: full vs incremental
//! serialization cost, swept over the fraction of keys dirtied between
//! snapshots, under Classic fork and On-demand fork.
//!
//! This is the `odf-snapshot` subsystem measured end-to-end: fork a child
//! (blocking, the paper's metric), then serialize its frozen address space
//! in the background — either a self-contained full image every time, or a
//! delta carrying only pages written since the previous snapshot. The
//! interesting curve is image size versus dirty fraction: full images stay
//! flat while deltas shrink toward nothing as the write rate drops.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_kvstore::{workload, Server, ServerConfig, SnapshotReport};

struct Measured {
    fork_ms: f64,
    image_bytes: usize,
    serialize_ms: f64,
    dedup: f64,
}

/// One base snapshot, then one measured snapshot after dirtying
/// `dirty_keys` of `keys`. Returns the second (steady-state) report.
fn measure(policy: ForkPolicy, incremental: bool, keys: u64, dirty_keys: u64) -> Measured {
    let heap = bench::scaled(64 * bench::MIB);
    let kernel = bench::kernel_for(heap + 128 * bench::MIB);
    let mut server = Server::new(
        &kernel,
        ServerConfig {
            heap_capacity: heap,
            resident_bytes: 0,
            buckets: (keys * 2).next_power_of_two(),
            snapshot_every: u64::MAX,
            fork_policy: policy,
            incremental,
        },
    )
    .expect("server");
    let cfg = workload::WorkloadConfig {
        key_space: keys,
        value_size: 256,
        set_ratio: 1.0,
        pipeline: 100,
        seed: 11,
    };
    workload::preload(&mut server, &cfg).expect("preload");
    server.bgsave().expect("base snapshot");
    server.wait_snapshots();

    let dirty_cfg = workload::WorkloadConfig {
        key_space: dirty_keys.max(1),
        ..cfg
    };
    workload::run(&mut server, &dirty_cfg, dirty_keys.max(1)).expect("dirty");
    server.bgsave().expect("measured snapshot");
    let report: &SnapshotReport = server.wait_snapshots().last().expect("report");
    Measured {
        fork_ms: report.fork_ns as f64 / 1e6,
        image_bytes: report.image_bytes,
        serialize_ms: report.serialize_ns as f64 / 1e6,
        dedup: report.dedup_ratio,
    }
}

fn main() {
    bench::banner(
        "snapshot_bgsave",
        "full vs incremental checkpoint images over dirty fraction",
    );
    let keys: u64 = if bench::fast_mode() { 4_000 } else { 40_000 };
    let fractions = [0.01f64, 0.05, 0.25, 1.0];

    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let mut report = bench::Report::new(
            &format!("snapshot_bgsave_{policy:?}").to_lowercase(),
            "dirty_keys dirty_pct full_img_bytes delta_img_bytes delta_over_full \
             fork_ms serialize_ms dedup",
        );
        for &frac in &fractions {
            let dirty = ((keys as f64 * frac) as u64).max(1);
            let full = measure(policy, false, keys, dirty);
            let delta = measure(policy, true, keys, dirty);
            report.row(vec![
                dirty.into(),
                bench::num(frac * 100.0, 0),
                full.image_bytes.into(),
                delta.image_bytes.into(),
                bench::num(delta.image_bytes as f64 / full.image_bytes as f64, 3),
                bench::num(delta.fork_ms, 3),
                bench::num(delta.serialize_ms, 3),
                bench::num(delta.dedup, 2),
            ]);
        }
        println!("policy = {policy:?} over {keys} keys");
        report.emit();
    }
    println!(
        "(full images stay flat; incremental images shrink with the \
         fraction of keys dirtied between snapshots)"
    );
}
