//! Checkpoint images under the bgsave flow: full vs incremental
//! serialization cost, swept over the fraction of keys dirtied between
//! snapshots, under Classic fork and On-demand fork.
//!
//! This is the `odf-snapshot` subsystem measured end-to-end: a one-shard
//! `PerCoreServer` is loaded and dirtied over the wire, and the bench forks
//! its serving process (blocking, the paper's metric) and serializes the
//! frozen child's address space — either a self-contained full image every
//! time, or a delta carrying only pages written since the previous
//! snapshot. The
//! interesting curve is image size versus dirty fraction: full images stay
//! flat while deltas shrink toward nothing as the write rate drops.
//!
//! The serving thread's stall at each snapshot is the fork *and* the
//! soft-dirty epoch advance after it (`fork_ms` and `epoch_ms`): the
//! advance must precede the next write, so a server pays both.

use odf_bench as bench;
use odf_core::{ForkPolicy, Process};
use odf_kvstore::{workload, PerCoreConfig, PerCoreServer};
use odf_metrics::Stopwatch;
use odf_snapshot::{capture_delta, capture_full};

struct Measured {
    fork_ms: f64,
    epoch_ms: f64,
    image_bytes: usize,
    serialize_ms: f64,
    dedup: f64,
}

/// Forks `proc` and serializes the frozen child: a delta over the previous
/// epoch when `delta`, the full address space otherwise. The parent moves
/// to the next soft-dirty epoch before any post-fork write, so the next
/// delta misses nothing.
fn snapshot(proc: &Process, policy: ForkPolicy, delta: bool) -> Measured {
    let fork = Stopwatch::start();
    let child = proc.fork_with(policy).expect("fork");
    let fork_ns = fork.elapsed_ns();
    let epoch = child.checkpoint_epoch();
    let advance = Stopwatch::start();
    proc.advance_checkpoint_epoch().expect("next epoch");
    let epoch_ns = advance.elapsed_ns();
    let serialize = Stopwatch::start();
    let image = if delta {
        capture_delta(child.mm(), epoch, epoch - 1)
    } else {
        capture_full(child.mm(), epoch)
    };
    let image_bytes = image.to_bytes().len();
    let dedup = image.stats().dedup_ratio();
    let serialize_ns = serialize.elapsed_ns();
    child.exit();
    Measured {
        fork_ms: fork_ns as f64 / 1e6,
        epoch_ms: epoch_ns as f64 / 1e6,
        image_bytes,
        serialize_ms: serialize_ns as f64 / 1e6,
        dedup,
    }
}

/// One base snapshot, then one measured snapshot after dirtying
/// `dirty_keys` of `keys`. Returns the second (steady-state) one.
fn measure(policy: ForkPolicy, incremental: bool, keys: u64, dirty_keys: u64) -> Measured {
    let heap = bench::scaled(64 * bench::MIB);
    let kernel = bench::kernel_for(heap + 128 * bench::MIB);
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
    let cfg = workload::WorkloadConfig {
        key_space: keys,
        value_size: 256,
        set_ratio: 1.0,
        pipeline: 100,
        seed: 11,
    };
    workload::preload_percore(&server, &cfg);
    let proc = server.process();
    snapshot(&proc, policy, false);

    let dirty_cfg = workload::WorkloadConfig {
        key_space: dirty_keys.max(1),
        ..cfg
    };
    workload::run_percore(&server, &dirty_cfg, 1, dirty_keys.max(1), None);
    snapshot(&proc, policy, incremental)
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
             fork_ms epoch_ms serialize_ms dedup",
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
                bench::num(delta.epoch_ms, 3),
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
