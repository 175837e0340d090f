//! Allocator scaling: the tiered (magazine + buddy) allocator vs the
//! single-global-lock baseline under concurrent churn, plus the COW-fault
//! storm that motivated the tiers.
//!
//! The fault path was de-serialized PR-by-PR (shared mm lock, split table
//! locks, CAS installs) until the frame allocator's one global buddy lock
//! became the remaining serial section. This bench quantifies what the
//! per-thread magazine tier buys back:
//!
//! 1. **Churn** — N threads (1–8) each run an alloc/free loop over a
//!    private live ring of order-0 frames, against the *same* pool. Run
//!    once with the magazine tier ([`FramePool::new`]) and once with the
//!    flat buddy-only configuration ([`FramePool::new_flat`]) — the exact
//!    pre-tier code path — and report allocs/second and the tiered:flat
//!    ratio at each width. Every configuration ends in
//!    [`assert_pool_balanced`], so the speedup is measured on an allocator
//!    that still accounts for every frame.
//! 2. **COW-fault storm** — post-fork concurrent write faults (the
//!    `concurrent_faults` workload), Classic vs OnDemand, with per-fault
//!    p50/p99 so the regression gate can check that batching the
//!    allocator did not add latency to the fault path that feeds it.
//!
//! Output: `BENCH_alloc.json` (churn) and `BENCH_alloc_storm.json` (COW
//! storm), the rows of the two printed tables.
//!
//! Host-core caveat: allocs/sec *scaling* across thread counts is bounded
//! by available cores, but the tiered:flat *ratio* at a given width is
//! meaningful even on one core — the flat pool pays futex convoying on
//! its single mutex while the magazines stay uncontended.

use std::sync::Arc;

use odf_bench as bench;
use odf_core::{ForkPolicy, Kernel, Process};
use odf_metrics::{Histogram, Stopwatch};
use odf_pmem::{assert_pool_balanced, FramePool, PageKind};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const PAGE: u64 = 4096;
/// Live frames each churn worker keeps in flight. Transient churn —
/// alloc, use, free — is the pattern the magazine tier exists for (and
/// the kernel's stated motivation for pcplists): with no cache tier in
/// front, every free merge-cascades the frame back up the buddy's orders
/// and the next alloc splits a large block all the way back down, all
/// under the global lock. A magazine absorbs the pair as one push/pop.
/// (A *deep* FIFO ring would hide exactly this: the trailing window of
/// live frames keeps every freed frame's buddy allocated, so the flat
/// buddy never merges and looks artificially cheap.)
const RING_DEPTH: usize = 1;

/// Per-thread churn rounds. Long enough that every worker spans many
/// scheduler timeslices: on a core-starved host, shorter runs execute the
/// threads back-to-back within single slices and no lock is ever observed
/// held, hiding contention entirely.
fn churn_iters() -> usize {
    if bench::fast_mode() {
        25_000
    } else {
        200_000
    }
}

/// One worker: keep `RING_DEPTH` frames live, then alloc+free in
/// lockstep for `iters` rounds. Returns the number of allocations made.
fn churn_worker(pool: &FramePool, iters: usize) -> u64 {
    let mut ring: Vec<odf_pmem::FrameId> = Vec::with_capacity(RING_DEPTH);
    let mut next = 0usize;
    let mut allocs = 0u64;
    for _ in 0..iters {
        if ring.len() == RING_DEPTH {
            let old = ring[next];
            let freed = pool.ref_dec(old);
            debug_assert!(freed, "churn frames have exactly one reference");
            let f = pool.alloc_page(PageKind::Anon).expect("churn alloc");
            ring[next] = f;
            if next + 1 == RING_DEPTH {
                next = 0;
            } else {
                next += 1;
            }
        } else {
            ring.push(pool.alloc_page(PageKind::Anon).expect("churn alloc"));
        }
        allocs += 1;
    }
    for f in ring {
        pool.ref_dec(f);
    }
    allocs
}

/// Runs the churn workload at `threads` width and returns
/// (wall ns, total allocations).
fn run_churn(pool: &Arc<FramePool>, threads: usize, iters: usize) -> (u64, u64) {
    let baseline = pool.balance();
    let sw = Stopwatch::start();
    let allocs: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(pool);
                s.spawn(move || churn_worker(&pool, iters))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let ns = sw.elapsed_ns();
    // Every frame must be home again — the speedup does not get to cheat
    // on accounting.
    assert_pool_balanced(pool, baseline);
    (ns, allocs)
}

/// Post-fork storm: `threads` workers write-fault disjoint slices of the
/// child concurrently; per-fault latencies are collected on each thread.
fn run_storm(
    proc: &Process,
    addr: u64,
    size: u64,
    policy: ForkPolicy,
    threads: usize,
) -> (u64, Histogram) {
    let child = Arc::new(proc.fork_with(policy).expect("fork"));
    let total_pages = size / PAGE;
    let slice = total_pages / threads as u64;
    let sw = Stopwatch::start();
    let samples: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let child = Arc::clone(&child);
                let base = addr + t as u64 * slice * PAGE;
                s.spawn(move || {
                    let mut ns = Vec::with_capacity(slice as usize);
                    for p in 0..slice {
                        let one = Stopwatch::start();
                        child.write_u64(base + p * PAGE, p).expect("fault");
                        ns.push(one.elapsed_ns());
                    }
                    ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let wall = sw.elapsed_ns();
    let child = Arc::try_unwrap(child).ok().expect("workers joined");
    child.exit();
    let mut hist = Histogram::new();
    for ns in samples.iter().flatten() {
        hist.record(*ns);
    }
    (wall, hist)
}

fn main() {
    bench::banner(
        "alloc scaling",
        "tiered vs flat allocator churn + COW-fault storm",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores: {cores}\n");

    // ---- Part 1: alloc/free churn, tiered vs flat, same run. ----
    // 8 workers x 64 live frames = 512 live peak. The pool itself is
    // paper-scale (256 MiB simulated): the buddy's free-list state then
    // spans far more than a cache level, so the lock-held section pays
    // the memory stalls the kernel's zone lock pays over `struct page`
    // arrays rather than a toy in-cache cost.
    const POOL_FRAMES: usize = 1 << 16;
    let mut churn = bench::Report::new(
        "alloc",
        "allocator threads allocs wall_ms allocs_per_s vs_flat_x",
    );
    let mut ratio_at = [0.0f64; THREAD_SWEEP.len()];
    for (i, &threads) in THREAD_SWEEP.iter().enumerate() {
        let mut flat_rate = 0.0f64;
        for tiered in [false, true] {
            let pool = if tiered {
                FramePool::new(POOL_FRAMES)
            } else {
                FramePool::new_flat(POOL_FRAMES)
            };
            // Warm-up (discarded): first-touch metadata paths and
            // magazine fill.
            let _ = run_churn(&pool, threads, churn_iters() / 10);
            // Median of reps(): scheduler noise on a shared host swings
            // individual runs by tens of percent in both directions.
            let mut runs: Vec<(u64, u64)> = (0..bench::reps())
                .map(|_| run_churn(&pool, threads, churn_iters()))
                .collect();
            runs.sort_by(|a, b| {
                let per_op = |&(ns, allocs): &(u64, u64)| ns as f64 / (allocs as f64).max(1.0);
                per_op(a).total_cmp(&per_op(b))
            });
            let (ns, allocs) = runs[runs.len() / 2];
            assert!(allocs > 0 && ns > 0, "empty churn run: {runs:?}");
            let rate = allocs as f64 / (ns as f64 / 1e9);
            let vs_flat = if tiered {
                ratio_at[i] = rate / flat_rate.max(1.0);
                ratio_at[i]
            } else {
                flat_rate = rate;
                1.0
            };
            churn.row(vec![
                if tiered { "tiered" } else { "flat" }.into(),
                threads.into(),
                allocs.into(),
                bench::ms(ns as f64),
                bench::num(rate, 0),
                bench::num(vs_flat, 2),
            ]);
        }
    }
    churn.emit();
    let last = THREAD_SWEEP.len() - 1;
    println!(
        "tiered:flat allocs/sec at {} threads = {:.2}x (target >= 3x)\n",
        THREAD_SWEEP[last], ratio_at[last]
    );
    // Shared CI cores are noisy: require the tiered allocator to at least
    // keep pace with the global-lock baseline here; the >= 3x scaling
    // claim is validated on dedicated hardware and recorded in
    // EXPERIMENTS.md.
    assert!(ratio_at[last] >= 1.0, "tiered slower than flat baseline");

    // ---- Part 2: concurrent COW-fault storm, Classic vs OnDemand. ----
    let size = bench::scaled(if bench::fast_mode() {
        16 * bench::MIB
    } else {
        64 * bench::MIB
    });
    let kernel: Arc<Kernel> = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(size).expect("mmap");
    proc.populate(addr, size, true).expect("populate");
    // Warm-up (discarded): lazy materialization of the parent's frames.
    let _ = run_storm(&proc, addr, size, ForkPolicy::Classic, 1);

    let storm_threads: &[usize] = if bench::fast_mode() {
        &[1, 4]
    } else {
        &[1, 4, 8]
    };
    let mut storm = bench::Report::new(
        "alloc_storm",
        "policy threads faults wall_ms faults_per_s mean_ns p50_ns p99_ns",
    );
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        for &threads in storm_threads {
            let (wall, hist) = run_storm(&proc, addr, size, policy, threads);
            let rate = hist.count() as f64 / (wall as f64 / 1e9);
            let (p50, p99) = (hist.percentile(50.0), hist.percentile(99.0));
            assert!(p50 <= p99, "{policy:?} x{threads}: p50 {p50} > p99 {p99}");
            storm.row(vec![
                format!("{policy:?}").into(),
                threads.into(),
                hist.count().into(),
                bench::ms(wall as f64),
                bench::num(rate, 0),
                bench::num(hist.mean(), 1),
                p50.into(),
                p99.into(),
            ]);
        }
    }
    storm.emit();

    let stats = kernel.machine().pool().stats().snapshot();
    println!(
        "magazine counters for the storm pool: pcp hits {}, misses {}, \
         refills {}, spills {}, bulk-free batches {} ({} blocks)",
        stats.pcp_hits,
        stats.pcp_misses,
        stats.pcp_refills,
        stats.pcp_spills,
        stats.bulk_free_batches,
        stats.bulk_freed_blocks,
    );
}
