//! Table 2: time breakdown of running one SQL unit test when the database
//! is initialized from scratch for each test (the no-fork baseline).
//!
//! Paper reference: initialization 24,189 ms (99.94%), forking 13.15 ms
//! (0.05%), testing 0.18 ms (0.01%) — initialization utterly dominates,
//! which is why the fork-per-test pattern (Table 3) exists.

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_metrics::Stopwatch;
use odf_sqldb::testkit::{build_database, DatasetConfig, ForkTestHarness, UNIT_TESTS};

fn main() {
    bench::banner(
        "Table 2",
        "per-test phase breakdown with per-test initialization",
    );
    let rows = if bench::fast_mode() { 500 } else { 2000 };
    // The large image: `items` rows plus a populated resident arena
    // standing in for the paper's 1,078 MB in-memory database.
    let dataset = DatasetConfig {
        rows,
        hot_rows: 500,
        resident_bytes: bench::scaled(bench::GIB),
        heap_capacity: bench::scaled(128 * bench::MIB),
        ..Default::default()
    };

    // Phase 1: initialization (building the database), measured separately.
    let kernel =
        bench::kernel_for(dataset.heap_capacity + dataset.resident_bytes + 128 * bench::MIB);
    let sw = Stopwatch::start();
    let master = kernel.spawn().expect("spawn");
    let _db = build_database(&master, &dataset).expect("build");
    let init_ns = sw.elapsed_ns();
    drop(master);

    // Phases 2+3: fork + test, measured by the fork harness.
    let harness =
        ForkTestHarness::initialize(&kernel, &dataset, ForkPolicy::Classic).expect("init");
    let mut fork_ns = 0u64;
    let mut test_ns = 0u64;
    for t in UNIT_TESTS {
        let run = harness.run_test(t).expect("test");
        fork_ns += run.fork_ns;
        test_ns += run.test_ns;
    }
    let fork_ns = fork_ns / UNIT_TESTS.len() as u64;
    let test_ns = test_ns / UNIT_TESTS.len() as u64;

    let total = init_ns + fork_ns + test_ns;
    let mut report = bench::Report::new("table2_sqlite_phases", "phase avg_ms relative_pct");
    for (phase, ns) in [
        ("Initialization", init_ns),
        ("Forking", fork_ns),
        ("Testing", test_ns),
        ("Total", total),
    ] {
        report.row(vec![
            phase.into(),
            bench::ms(ns as f64),
            bench::num(100.0 * ns as f64 / total as f64, 2),
        ]);
    }
    report.emit();
    println!(
        "Paper reference: initialization 99.94%, forking 0.05%, testing \
         0.01% of 24,202 ms total ({rows} rows here)."
    );
}
