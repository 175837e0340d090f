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
//! Outputs (current directory):
//!
//! - `BENCH_million_users.json` — one row per {shards x pipeline
//!   x phase x fork policy}: requests, throughput, p50/p99/p999, fork ns.

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
    fn json(&self) -> String {
        format!(
            r#"{{"server":"percore","shards":{},"pipeline":{},"fork_policy":"{:?}","phase":"{}","requests":{},"rps":{:.0},"p50_ns":{},"p99_ns":{},"p999_ns":{},"fork_ns":{}}}"#,
            self.shards,
            self.pipeline,
            self.fork_policy,
            self.phase,
            self.requests,
            self.rps,
            self.latency.percentile(50.0),
            self.latency.percentile(99.0),
            self.latency.percentile(99.9),
            self.fork_ns,
        )
    }

    fn print(&self) {
        println!(
            " percore shards={} pipe={:>3} {:>8?} {:>6}: {:>9.0} req/s p50={} p99={} p999={}{}",
            self.shards,
            self.pipeline,
            self.fork_policy,
            self.phase,
            self.rps,
            bench::fmt_ns(self.latency.percentile(50.0)),
            bench::fmt_ns(self.latency.percentile(99.0)),
            bench::fmt_ns(self.latency.percentile(99.9)),
            if self.fork_ns > 0 {
                format!(" fork={}", bench::fmt_ns(self.fork_ns))
            } else {
                String::new()
            },
        );
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
            let row = run_percore_row(shards, pipeline, requests, ForkPolicy::OnDemand, false);
            row.print();
            rows.push(row);
        }
    }

    // Tail during a bgsave fork: Classic vs OnDemand at the widest
    // configuration.
    let shards = *shard_sweep.last().unwrap();
    let pipeline = *pipeline_sweep.last().unwrap();
    let requests = per_shard_requests * shards as u64;
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let row = run_percore_row(shards, pipeline, requests, policy, true);
        row.print();
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    let doc = format!(
        "{{\n  \"bench\": \"million_users\",\n  \"unit\": \"ns\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write("BENCH_million_users.json", doc).expect("write BENCH_million_users.json");
    println!("wrote BENCH_million_users.json ({} rows)", rows.len());
}
