//! Ablation: the huge-page extension of §4 ("Huge Page Support").
//!
//! The paper's implementation supports 4 KiB pages only and predicts that
//! extending table sharing to PMD tables describing 2 MiB pages would
//! bring On-demand-fork's benefits to huge-page users, with smaller gains
//! (there are 512x fewer PMD entries than PTEs to begin with). This bench
//! evaluates exactly that prediction on huge-backed regions:
//!
//! - `fork`: classic copy of every huge PMD entry (the Figure 4 baseline);
//! - `on-demand-fork`: the paper's artifact behavior — huge entries are
//!   still copied eagerly;
//! - `on-demand-fork + huge ext`: PMD tables shared through PUD entries.
//!
//! A second table shows the deferred cost: the worst-case write fault
//! under the extension pays a PMD-table copy plus the 2 MiB page copy.

use odf_bench as bench;
use odf_core::{ForkPolicy, Process};
use odf_metrics::Stopwatch;

fn time_fork_huge(proc: &Process, size: u64, policy: ForkPolicy) -> odf_core::Result<u64> {
    let addr = proc.mmap_anon_huge(size)?;
    proc.populate(addr, size, true)?;
    let sw = Stopwatch::start();
    let child = proc.fork_with(policy)?;
    let ns = sw.elapsed_ns();
    child.exit();
    proc.munmap(addr, size)?;
    Ok(ns)
}

fn fault_cost_huge(proc: &Process, size: u64, policy: ForkPolicy) -> odf_core::Result<f64> {
    let addr = proc.mmap_anon_huge(size)?;
    proc.populate(addr, size, true)?;
    let runs = 10u64;
    let mut total = 0u64;
    for run in 0..runs {
        let child = proc.fork_with(policy)?;
        let target = addr + size / 2 + run * 2 * bench::MIB + 9;
        let sw = Stopwatch::start();
        child.write(target, &[1])?;
        total += sw.elapsed_ns();
        child.exit();
    }
    proc.munmap(addr, size)?;
    Ok(total as f64 / runs as f64)
}

fn main() {
    bench::banner(
        "Ablation",
        "huge-page extension: sharing PMD tables that describe 2 MiB pages",
    );
    let policies = [
        ("fork", ForkPolicy::Classic),
        ("on-demand-fork (paper)", ForkPolicy::OnDemand),
        ("on-demand-fork + huge ext", ForkPolicy::OnDemandHuge),
    ];

    println!("Fork invocation latency on huge-backed regions:");
    let mut report = bench::Report::new(
        "ablation_odf_huge_fork",
        "size_mib fork_ms odf_paper_ms odf_huge_ext_ms",
    );
    for size in bench::size_sweep() {
        let kernel = bench::kernel_for(size);
        let proc = kernel.spawn().expect("spawn");
        let mut cells = vec![(size / bench::MIB).into()];
        for &(_, policy) in &policies {
            let (avg, _) = bench::repeat(|| time_fork_huge(&proc, size, policy)).expect("run");
            cells.push(bench::ms(avg));
        }
        report.row(cells);
    }
    report.emit();

    println!("Worst-case write-fault cost after fork (2 MiB COW included):");
    let size = bench::scaled(512 * bench::MIB);
    let kernel = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");
    let mut report = bench::Report::new("ablation_odf_huge_fault", "policy avg_fault_ms");
    for &(name, policy) in &policies {
        let avg = fault_cost_huge(&proc, size, policy).expect("fault run");
        report.row(vec![name.into(), bench::ms(avg)]);
    }
    report.emit();
    println!(
        "Expectation from §4: the extension removes the remaining per-entry \
         fork cost for huge pages (gains bounded by the 512x smaller entry \
         count), while the fault cost stays dominated by the 2 MiB data copy."
    );
}
