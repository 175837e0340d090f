//! Table 1: worst-case cost to handle a single page fault under fork,
//! fork-with-huge-pages, and On-demand-fork.
//!
//! Methodology (paper §5.2.3): fill a 1 GiB buffer, fork, then the child
//! writes one byte to the *middle* of the region. Under On-demand-fork the
//! first write to a 2 MiB range pays the table copy (the deferred
//! fork-time work), making it the worst case; under huge pages the COW
//! copies a full 2 MiB. Averaged over 10 runs.
//!
//! Paper reference: fork 0.0023 ms, fork w/ huge pages 0.1984 ms,
//! on-demand-fork 0.0122 ms (5.3x fork, 16x below huge pages).

use odf_bench as bench;
use odf_core::{ForkPolicy, Process};
use odf_metrics::Stopwatch;

const RUNS: usize = 10;

fn fault_cost(proc: &Process, size: u64, huge: bool, policy: ForkPolicy) -> odf_core::Result<f64> {
    let addr = if huge {
        proc.mmap_anon_huge(size)?
    } else {
        proc.mmap_anon(size)?
    };
    // Fill with data so every page is backed (materialized data makes the
    // COW copies real memcpys, as in the paper's methodology).
    proc.populate(addr, size, true)?;
    let mut total = 0u64;
    for run in 0..RUNS {
        let child = proc.fork_with(policy)?;
        // Middle of the region, offset per run to land in distinct 2 MiB
        // ranges so each run is a worst-case first touch.
        let target = addr + size / 2 + (run as u64) * 2 * bench::MIB + 17;
        let sw = Stopwatch::start();
        child.write(target, &[0x42])?;
        total += sw.elapsed_ns();
        child.exit();
    }
    proc.munmap(addr, size)?;
    Ok(total as f64 / RUNS as f64)
}

fn main() {
    bench::banner("Table 1", "worst-case page fault handling cost");
    let size = bench::scaled(bench::GIB);
    // Fault COW copies materialize data: budget the pool for it.
    let kernel = bench::kernel_for(2 * size);
    let proc = kernel.spawn().expect("spawn");

    let classic = fault_cost(&proc, size, false, ForkPolicy::Classic).expect("fork");
    let huge = fault_cost(&proc, size, true, ForkPolicy::Classic).expect("huge");
    let odf = fault_cost(&proc, size, false, ForkPolicy::OnDemand).expect("odf");

    let mut report = bench::Report::new("table1_fault_cost", "type avg_ms vs_fork_x");
    for (name, ns) in [
        ("Fork", classic),
        ("Fork w/ huge pages", huge),
        ("On-demand-fork", odf),
    ] {
        report.row(vec![
            name.into(),
            bench::ms(ns),
            bench::num(ns / classic.max(1.0), 1),
        ]);
    }
    report.emit();
    println!(
        "Paper reference: 0.0023 / 0.1984 / 0.0122 ms — odf ~5.3x fork, \
         huge pages ~16x odf."
    );
}
