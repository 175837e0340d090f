//! Figure 4: time to fork vs allocated size with 2 MiB huge pages.
//!
//! Paper result: huge pages cut fork cost ~50x vs 4 KiB pages (0.17 ms at
//! 1 GiB) because there are 512x fewer leaf entries to copy — but §2.3
//! lays out why this is not a general fix (fragmentation, 512x larger COW
//! copies; see Table 1).

use odf_bench as bench;

fn main() {
    bench::banner("Figure 4", "fork time vs size with 2 MiB huge pages");
    let mut report = bench::Report::new(
        "fig4_hugepage_fork",
        "size_mib fork_huge_avg_ms fork_huge_min_ms",
    );
    for size in bench::size_sweep() {
        let kernel = bench::kernel_for(size);
        let proc = kernel.spawn().expect("spawn");
        let (avg, min) =
            bench::repeat(|| bench::fill_and_time_fork_huge(&proc, size)).expect("run");
        report.row(vec![
            (size / bench::MIB).into(),
            bench::ms(avg),
            bench::ms(min as f64),
        ]);
    }
    report.emit();
    println!("Paper reference: ~0.17 ms at 1 GiB (vs ~6.5 ms with 4 KiB pages).");
}
