//! The serving-tier scaling story: thread-per-core RESP serving, idle and
//! during a fork-based BGSAVE.
//!
//! The paper's Redis experiment (§5.3.3) shows request latency spiking
//! when the serving process forks. This bench asks the follow-on systems
//! question: with a shared-nothing thread-per-core tier (pinned workers,
//! zero-copy RESP, SPSC mailboxes off the data path), does throughput
//! scale near-linearly with shards, and does the fork window stay
//! invisible in the tail under On-demand-fork?
//!
//! [`PerCoreServer`]: real client threads drive pipelined RESP
//! connections placed on per-shard workers (the smart-client model);
//! BGSAVE stalls the workers only for the fork call. (The batch-threaded
//! contrast tier this bench used to run beside it was removed in PR 13;
//! its last recorded numbers are in EXPERIMENTS.md.)
//!
//! Each configuration runs an idle phase and (for the fork contrast) a
//! phase with a BGSAVE triggered mid-run under Classic vs OnDemand.
//!
//! Output: `BENCH_million_users.json` — one row per {shards x pipeline
//! x phase x fork policy}: requests, throughput, p50/p99/p999, fork ns.
//! The bench asserts every bgsave row forked and the OnDemand bgsave p999
//! stays within 10x of the idle p999 at the same configuration.

use odf_bench as bench;
use odf_core::{ForkPolicy, Kernel};
use odf_kvstore::workload::{preload_percore, run_percore, WorkloadConfig};
use odf_kvstore::{PerCoreConfig, PerCoreServer};
use odf_metrics::Histogram;

const MIB: u64 = 1 << 20;

struct Row {
    shards: usize,
    pipeline: usize,
    fork_policy: ForkPolicy,
    phase: &'static str,
    requests: u64,
    rps: f64,
    latency: Histogram,
    fork_ns: u64,
}

impl Row {
    fn p(&self, percentile: f64) -> u64 {
        self.latency.percentile(percentile)
    }
}

fn kernel_for(shards: usize) -> std::sync::Arc<Kernel> {
    Kernel::new((256 + shards as u64 * 64) * MIB)
}

// Short bucket chains keep the per-op cost low, so the serving tier's own
// overhead — not hash-walk time — is what the comparison resolves.
const BUCKETS: u64 = 8192;

fn workload(pipeline: usize) -> WorkloadConfig {
    WorkloadConfig {
        key_space: 8_192,
        value_size: 64,
        set_ratio: 0.5,
        pipeline,
        seed: 42,
    }
}

/// Drives the per-core tier; `bgsave` triggers a mid-run snapshot under
/// the given policy and reports the fork stall.
fn run_percore_row(
    shards: usize,
    pipeline: usize,
    requests: u64,
    policy: ForkPolicy,
    bgsave: bool,
) -> Row {
    let kernel = kernel_for(shards);
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards,
            heap_per_shard: 16 * MIB,
            buckets: BUCKETS,
            fork_policy: policy,
        },
    )
    .expect("boot percore");
    let cfg = workload(pipeline);
    preload_percore(&server, &cfg);
    // One connection per shard: on an oversubscribed box, more clients
    // only add scheduler churn, not parallelism.
    let report = run_percore(&server, &cfg, 1, requests, bgsave.then_some(requests / 4));
    assert_eq!(report.errors, 0, "routed keys never see MOVED");
    let fork_ns = report.snapshots.first().map_or(0, |s| s.fork_ns);
    Row {
        shards,
        pipeline,
        fork_policy: policy,
        phase: if bgsave { "bgsave" } else { "idle" },
        requests: report.requests,
        rps: report.requests as f64 / (report.wall_ns as f64 / 1e9).max(1e-9),
        latency: report.latency,
        fork_ns,
    }
}

fn main() {
    bench::banner(
        "million_users",
        "thread-per-core RESP scaling; tail during bgsave forks",
    );

    let fast = bench::fast_mode();
    let shard_sweep: &[usize] = if fast { &[2, 8] } else { &[1, 2, 4, 8] };
    // memtier's default pipeline is small (1–16); the sweep covers that
    // regime plus a deeply pipelined point.
    let pipeline_sweep: &[usize] = if fast { &[4] } else { &[4, 16, 64] };
    let per_shard_requests: u64 = if fast { 6_000 } else { 24_000 };

    let mut rows = Vec::new();

    // Throughput scaling, idle.
    for &shards in shard_sweep {
        for &pipeline in pipeline_sweep {
            let requests = per_shard_requests * shards as u64;
            rows.push(run_percore_row(
                shards,
                pipeline,
                requests,
                ForkPolicy::OnDemand,
                false,
            ));
        }
    }

    // Tail during a bgsave fork: Classic vs OnDemand at the widest
    // configuration.
    let shards = *shard_sweep.last().unwrap();
    let pipeline = *pipeline_sweep.last().unwrap();
    let requests = per_shard_requests * shards as u64;
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        rows.push(run_percore_row(shards, pipeline, requests, policy, true));
    }

    let mut report = bench::Report::new(
        "million_users",
        "shards pipeline fork_policy phase requests rps p50_ns p99_ns p999_ns fork_ns",
    );
    for row in &rows {
        report.row(vec![
            row.shards.into(),
            row.pipeline.into(),
            format!("{:?}", row.fork_policy).into(),
            row.phase.into(),
            row.requests.into(),
            bench::num(row.rps, 0),
            row.p(50.0).into(),
            row.p(99.0).into(),
            row.p(99.9).into(),
            row.fork_ns.into(),
        ]);
    }
    report.emit();

    for row in &rows {
        let at = format!(
            "{} shards x{} {:?} {}",
            row.shards, row.pipeline, row.fork_policy, row.phase
        );
        assert!(row.requests > 0 && row.rps > 0.0, "{at}: no requests");
        assert!(
            row.p(50.0) <= row.p(99.0) && row.p(99.0) <= row.p(99.9),
            "{at}: percentiles out of order"
        );
        if row.phase == "bgsave" {
            assert!(row.fork_ns > 0, "{at}: bgsave row without a fork");
        }
    }
    // Tail during bgsave, order-of-magnitude sanity only: on the reduced
    // sweep the coordinator's snapshot serialization shares the host's
    // cores with the workers, inflating p999 well past the
    // dedicated-hardware figure (<2x idle, see EXPERIMENTS.md).
    let p999 = |phase: &str| {
        let row = rows.iter().find(|r| {
            (r.shards, r.pipeline, r.phase) == (shards, pipeline, phase)
                && r.fork_policy == ForkPolicy::OnDemand
        });
        row.expect("OnDemand row at the widest configuration")
            .p(99.9)
    };
    let (idle, bgsave) = (p999("idle"), p999("bgsave"));
    assert!(bgsave < 10 * idle, "bgsave p999 {bgsave} vs idle {idle}");
}
