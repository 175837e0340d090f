//! Figure 3: the hot-spot profile of classic fork.
//!
//! The paper uses perf-events on `copy_one_pte()` and finds ~63% of time
//! in `compound_head()` (a cache-missing load of `struct page`) and ~14%
//! in the atomic reference-count increment. The simulator counts exactly
//! those operations; this bench reports the per-fork operation counts and
//! shows that the last-level (per-PTE) work dominates the upper-level
//! table handling by ~512x, which is the observation that motivates
//! sharing only last-level tables (§2.2).

use odf_bench as bench;
use odf_core::ForkPolicy;

fn main() {
    bench::banner("Figure 3", "classic fork hot-spot operation profile");
    let size = bench::scaled(bench::GIB);
    let kernel = bench::kernel_for(size);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(size).expect("mmap");
    proc.populate(addr, size, true).expect("fill");

    // Allocate-once-fork-repeatedly, as the paper's profiling run does.
    // Counters are sampled around the fork call only, so child teardown
    // does not pollute the profile.
    let reps = bench::reps() as u64;
    let mut d = kernel.stats() - kernel.stats();
    let mut total_ns = 0u64;
    for _ in 0..reps {
        let before = kernel.stats();
        let sw = odf_metrics::Stopwatch::start();
        let child = proc.fork_with(ForkPolicy::Classic).expect("fork");
        total_ns += sw.elapsed_ns();
        let after = kernel.stats();
        child.exit();
        let delta = after - before;
        d.pool.compound_head_lookups += delta.pool.compound_head_lookups;
        d.pool.page_ref_incs += delta.pool.page_ref_incs;
        d.pool.allocs += delta.pool.allocs;
        d.vm.fork_pte_copies += delta.vm.fork_pte_copies;
    }

    let mut report = bench::Report::new(
        "fig3_fork_profile",
        "operation count_per_fork per_2mib_chunk",
    );
    let chunks = (size / (2 * bench::MIB)).max(1) * reps;
    for (op, total, places) in [
        (
            "compound_head() struct-page loads",
            d.pool.compound_head_lookups,
            1,
        ),
        ("page_ref_inc() atomic increments", d.pool.page_ref_incs, 1),
        ("PTE entries copied", d.vm.fork_pte_copies, 1),
        ("page-table frames allocated (all levels)", d.pool.allocs, 2),
    ] {
        report.row(vec![
            op.into(),
            (total / reps).into(),
            bench::num(total as f64 / chunks as f64, places),
        ]);
    }
    report.emit();

    let last_level_ops = d.pool.compound_head_lookups + d.pool.page_ref_incs;
    let upper_level_ops = d.pool.allocs;
    println!(
        "Last-level (per-PTE) metadata ops: {} — upper-level ops: {} — ratio {:.0}x",
        last_level_ops,
        upper_level_ops,
        last_level_ops as f64 / upper_level_ops.max(1) as f64
    );
    println!(
        "Mean fork time at {}: {} (the per-PTE ops above account for the \
         linear cost; paper: compound_head ~63%, ref inc ~14% of copy_one_pte)",
        bench::fmt_bytes(size),
        bench::fmt_ns(total_ns / reps)
    );
}
