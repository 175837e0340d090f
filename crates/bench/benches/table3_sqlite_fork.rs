//! Table 3: running SQL unit tests in forked children — fork vs
//! On-demand-fork phase times.
//!
//! Paper reference: with fork, forking takes 13.15 ms (98.6% of the
//! 13.33 ms total); with On-demand-fork, 0.12 ms (36.4% of 0.33 ms) —
//! a 99.1% shorter fork that lets the tests themselves dominate.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_sqldb::testkit::{DatasetConfig, ForkTestHarness, UNIT_TESTS};

const RUNS: usize = 10;

fn measure(policy: ForkPolicy, dataset: &DatasetConfig) -> (f64, f64) {
    let kernel =
        bench::kernel_for(dataset.heap_capacity + dataset.resident_bytes + 256 * bench::MIB);
    let harness = ForkTestHarness::initialize(&kernel, dataset, policy).expect("init");
    let mut fork_ns = 0u64;
    let mut test_ns = 0u64;
    for i in 0..RUNS {
        let t = &UNIT_TESTS[i % UNIT_TESTS.len()];
        let run = harness.run_test(t).expect("test");
        fork_ns += run.fork_ns;
        test_ns += run.test_ns;
    }
    (fork_ns as f64 / RUNS as f64, test_ns as f64 / RUNS as f64)
}

fn main() {
    bench::banner("Table 3", "fork-per-test timing: fork vs on-demand-fork");
    let rows = if bench::fast_mode() { 500 } else { 2000 };
    let dataset = DatasetConfig {
        rows,
        hot_rows: 500,
        resident_bytes: bench::scaled(bench::GIB),
        heap_capacity: bench::scaled(128 * bench::MIB),
        ..Default::default()
    };

    let (f_fork, f_test) = measure(ForkPolicy::Classic, &dataset);
    let (o_fork, o_test) = measure(ForkPolicy::OnDemand, &dataset);

    let mut report = bench::Report::new(
        "table3_sqlite_fork",
        "phase fork_ms fork_share_pct odf_ms odf_share_pct",
    );
    for (phase, f, o) in [
        ("Forking", f_fork, o_fork),
        ("Testing", f_test, o_test),
        ("Total", f_fork + f_test, o_fork + o_test),
    ] {
        report.row(vec![
            phase.into(),
            bench::ms(f),
            bench::num(100.0 * f / (f_fork + f_test), 1),
            bench::ms(o),
            bench::num(100.0 * o / (o_fork + o_test), 1),
        ]);
    }
    report.emit();
    println!(
        "Fork time reduction: {:.1}% (paper: 99.1%; fork share drops from \
         98.6% to 36.4%)",
        100.0 * (f_fork - o_fork) / f_fork.max(1.0)
    );
}
