//! Concurrent fault throughput: post-fork COW faults vs serving threads.
//!
//! The fault path runs under the *shared* mm lock, serialising only on
//! per-table split locks and CAS entry installs. This bench measures what
//! that buys: after a fork, N threads write-fault disjoint interleaved
//! slices of the child's address space (each slice covering its own 2 MiB
//! page-table spans, so threads contend on the lock discipline, not on one
//! table), and we report aggregate faults/second as N grows from 1 to 8
//! under Classic and OnDemand forks. Under OnDemand every first touch of a
//! 2 MiB span also pays the deferred table copy, making it the stress case
//! for the split-lock path.
//!
//! Scaling is bounded by host cores: on a single-core host all thread
//! counts collapse to roughly the same throughput (the shared lock then
//! shows up purely as the absence of a slowdown). The host core count is
//! printed so the numbers can be read honestly.

use std::sync::Arc;

use odf_bench as bench;
use odf_core::{ForkPolicy, Kernel, Process};
use odf_metrics::Stopwatch;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const PAGE: u64 = 4096;

/// Faults every page of `span_pages` pages starting at `base`, one write
/// per page.
fn fault_slice(proc: &Process, base: u64, span_pages: u64) {
    for p in 0..span_pages {
        proc.write_u64(base + p * PAGE, p ^ 0xFA_17)
            .expect("fault write");
    }
}

/// Forks `proc` and measures the child-side wall time for `threads`
/// workers to write-fault the whole region concurrently. Returns
/// (ns, faults handled).
fn run_config(
    kernel: &Arc<Kernel>,
    proc: &Process,
    addr: u64,
    size: u64,
    policy: ForkPolicy,
    threads: usize,
) -> (u64, u64) {
    let child = Arc::new(proc.fork_with(policy).expect("fork"));
    let total_pages = size / PAGE;
    let slice_pages = total_pages / threads as u64;
    let before = kernel.machine().stats().snapshot();
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for t in 0..threads {
            let child = Arc::clone(&child);
            let base = addr + t as u64 * slice_pages * PAGE;
            s.spawn(move || fault_slice(&child, base, slice_pages));
        }
    });
    let ns = sw.elapsed_ns();
    let after = kernel.machine().stats().snapshot();
    let child = Arc::try_unwrap(child).ok().expect("all workers joined");
    child.exit();
    (ns, after.faults - before.faults)
}

fn main() {
    bench::banner(
        "concurrent faults",
        "post-fork COW fault throughput vs thread count",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "host cores: {cores} (speedup is core-bound; >1x per added thread \
         needs at least that many cores)\n"
    );

    let size = bench::scaled(256 * bench::MIB);
    let kernel = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(size).expect("mmap");
    proc.populate(addr, size, true).expect("populate");

    // Warm-up pass (discarded): the first post-fork faults also pay the
    // one-time lazy materialization of the parent's frame data, which
    // would otherwise be billed entirely to the first configuration.
    let _ = run_config(&kernel, &proc, addr, size, ForkPolicy::Classic, 1);

    let mut report = bench::Report::new(
        "concurrent_faults",
        "policy threads wall_ms faults_per_s speedup_vs_1t_x",
    );
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let mut base_rate = 0.0f64;
        for threads in THREAD_SWEEP {
            let (ns, faults) = run_config(&kernel, &proc, addr, size, policy, threads);
            let rate = faults as f64 / (ns as f64 / 1e9);
            if threads == 1 {
                base_rate = rate;
            }
            report.row(vec![
                format!("{policy:?}").into(),
                threads.into(),
                bench::ms(ns as f64),
                bench::num(rate, 0),
                bench::num(rate / base_rate.max(1.0), 2),
            ]);
        }
    }
    report.emit();

    let stats = kernel.machine().stats().snapshot();
    println!(
        "fault-concurrency counters: shared-lock faults {}, install races \
         lost {}, fault retries {}",
        stats.faults_shared_lock, stats.install_races_lost, stats.fault_retries
    );
    println!(
        "note: every fault above ran under the shared mm lock; lost \
         install races are benign (the loser retries onto the winner's \
         table copy)."
    );
}
