//! Figure 2: fork execution time vs allocated memory size, sequential and
//! with 3 concurrent benchmark instances.
//!
//! Paper result: fork cost grows linearly with allocated memory, crossing
//! 1 ms before 200 MiB; with 3 concurrent instances the per-fork latency
//! degrades several-fold (6.5 ms → 22.4 ms at 1 GiB) due to contention on
//! `struct page` metadata. The reproduction performs the same per-PTE
//! refcount work, so the linear shape and the concurrent degradation
//! reproduce (the 1-core container time-slices the instances, adding to
//! the contention effect; see EXPERIMENTS.md).

use std::sync::{Arc, Barrier};

use odf_bench as bench;
use odf_core::ForkPolicy;

fn main() {
    bench::banner(
        "Figure 2",
        "fork time vs allocated memory, sequential and 3x concurrent",
    );
    let mut report = bench::Report::new(
        "fig2_fork_scaling",
        "size_mib sequential_avg_ms sequential_min_ms concurrent_avg_ms concurrent_min_ms",
    );

    for size in bench::size_sweep() {
        // Sequential: one instance.
        let kernel = bench::kernel_for(size);
        let proc = kernel.spawn().expect("spawn");
        let (seq_avg, seq_min) =
            bench::repeat(|| bench::fill_and_time_fork(&proc, size, ForkPolicy::Classic))
                .expect("sequential run");
        drop(proc);

        // Concurrent: 3 instances on one machine, forking simultaneously.
        const INSTANCES: usize = 3;
        let kernel = bench::kernel_for(size * INSTANCES as u64);
        let barrier = Arc::new(Barrier::new(INSTANCES));
        let mut sums = vec![];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..INSTANCES)
                .map(|_| {
                    let kernel = Arc::clone(&kernel);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let proc = kernel.spawn().expect("spawn");
                        let addr = proc.mmap_anon(size).expect("mmap");
                        proc.populate(addr, size, true).expect("fill");
                        let mut total = 0u64;
                        let mut min = u64::MAX;
                        let n = bench::reps() as u64;
                        for _ in 0..n {
                            barrier.wait();
                            let sw = odf_metrics::Stopwatch::start();
                            let child = proc.fork_with(ForkPolicy::Classic).expect("fork");
                            let ns = sw.elapsed_ns();
                            child.exit();
                            total += ns;
                            min = min.min(ns);
                        }
                        (total as f64 / n as f64, min)
                    })
                })
                .collect();
            for h in handles {
                sums.push(h.join().expect("instance"));
            }
        });
        let conc_avg = sums.iter().map(|&(a, _)| a).sum::<f64>() / sums.len() as f64;
        let conc_min = sums.iter().map(|&(_, m)| m).min().unwrap_or(0);

        report.row(vec![
            (size / bench::MIB).into(),
            bench::ms(seq_avg),
            bench::ms(seq_min as f64),
            bench::ms(conc_avg),
            bench::ms(conc_min as f64),
        ]);
    }
    report.emit();
    println!(
        "Paper reference: ~6.5 ms sequential / ~22.4 ms concurrent at 1 GiB; \
         linear growth to ~254 ms at 50 GiB."
    );
}
