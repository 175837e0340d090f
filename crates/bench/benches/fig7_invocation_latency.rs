//! Figure 7 (and §5.2.2): invocation latency of fork, fork-with-huge-pages,
//! and On-demand-fork across allocated sizes.
//!
//! Paper result: On-demand-fork is 65x faster than fork at 1 GiB (0.10 ms
//! vs 6.54 ms), growing to 270x at 50 GiB, and slightly faster than
//! fork+huge-pages (no table allocation, no PMD split lock on its path).

use odf_bench as bench;
use odf_core::ForkPolicy;

fn main() {
    bench::banner(
        "Figure 7",
        "invocation latency: fork vs fork w/ huge pages vs on-demand-fork",
    );
    let mut report = bench::Report::new(
        "fig7_invocation_latency",
        "size_mib fork_ms fork_huge_ms odf_ms odf_speedup_vs_fork_x odf_vs_huge_x",
    );
    for size in bench::size_sweep() {
        let kernel = bench::kernel_for(size);
        let proc = kernel.spawn().expect("spawn");
        let (classic, _) =
            bench::repeat(|| bench::fill_and_time_fork(&proc, size, ForkPolicy::Classic))
                .expect("classic");
        let (huge, _) =
            bench::repeat(|| bench::fill_and_time_fork_huge(&proc, size)).expect("huge");
        let (odf, _) =
            bench::repeat(|| bench::fill_and_time_fork(&proc, size, ForkPolicy::OnDemand))
                .expect("odf");
        report.row(vec![
            (size / bench::MIB).into(),
            bench::ms(classic),
            bench::ms(huge),
            bench::ms(odf),
            bench::num(classic / odf.max(1.0), 1),
            bench::num(huge / odf.max(1.0), 2),
        ]);
    }
    report.emit();
    println!(
        "Paper reference: odf 0.10 ms at 1 GiB (65x over fork), 0.94 ms at \
         50 GiB (270x); odf slightly faster than fork w/ huge pages."
    );
}
