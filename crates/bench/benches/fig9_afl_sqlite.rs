//! Figure 9: AFL fuzzing throughput on the SQL engine with a large
//! in-memory database, fork vs On-demand-fork.
//!
//! Methodology (paper §5.3.1): the fork server initializes the target once
//! with a ~1 GiB database loaded, then forks per input; a dictionary of
//! table/column names is passed to AFL. Throughput = target executions per
//! second over the campaign.
//!
//! Paper reference: 63 execs/s with fork vs 206 execs/s with
//! On-demand-fork — a 2.26x improvement.

use std::time::Duration;

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_fuzz::targets::SqlTarget;
use odf_fuzz::{FuzzConfig, Fuzzer};
use odf_sqldb::testkit::{build_database, DatasetConfig};

fn campaign(policy: ForkPolicy, rows: u64) -> odf_fuzz::CampaignStats {
    // Modest row count (scans stay fast) + a large resident image, the
    // regime of the paper's 1 GiB fuzzed database.
    let dataset = DatasetConfig {
        rows,
        hot_rows: 500,
        resident_bytes: bench::scaled(bench::GIB),
        heap_capacity: bench::scaled(128 * bench::MIB),
        ..Default::default()
    };
    let kernel =
        bench::kernel_for(dataset.heap_capacity + dataset.resident_bytes + 256 * bench::MIB);
    let master = kernel.spawn().expect("spawn");
    let db = build_database(&master, &dataset).expect("build db");
    let target = SqlTarget::new(
        db,
        &[
            "items",
            "hot",
            "categories",
            "id",
            "category",
            "score",
            "payload",
            "label",
        ],
    )
    // The fuzzershell-style per-input setup: connection warmup queries
    // plus one write, executed in the child before the fuzz input.
    .with_per_exec_setup(&[
        "SELECT id FROM hot WHERE score >= 500",
        "SELECT category, score FROM hot WHERE score < 200",
        "UPDATE hot SET score = 1 WHERE id = 0",
    ]);

    let seeds = vec![
        b"SELECT id FROM hot WHERE score >= 900".to_vec(),
        b"DELETE FROM hot WHERE score < 100".to_vec(),
        b"UPDATE hot SET score = 0 WHERE category = 3".to_vec(),
        b"INSERT INTO items VALUES (1, 2, 3, 'x')".to_vec(),
    ];
    let mut fuzzer = Fuzzer::new(
        &master,
        &target,
        FuzzConfig {
            policy,
            max_input_len: 160,
            seed: 99,
            ..FuzzConfig::default()
        },
        &seeds,
    )
    .expect("fuzzer");
    fuzzer
        .fuzz_for(bench::campaign_duration(15), Duration::from_secs(1))
        .expect("campaign")
}

fn main() {
    bench::banner(
        "Figure 9",
        "AFL throughput on the SQL engine (large DB), fork vs on-demand-fork",
    );
    let rows = if bench::fast_mode() { 500 } else { 2000 };

    let classic = campaign(ForkPolicy::Classic, rows);
    let odf = campaign(ForkPolicy::OnDemand, rows);

    let mut report = bench::Report::new(
        "fig9_afl_sqlite",
        "policy execs mean_execs_per_s paths edges crashes",
    );
    for (name, s) in [("fork", &classic), ("on-demand-fork", &odf)] {
        report.row(vec![
            name.into(),
            s.execs.into(),
            bench::num(s.mean_execs_per_sec, 1),
            s.paths.into(),
            s.edges.into(),
            s.crashes.into(),
        ]);
    }
    report.emit();
    println!(
        "Throughput improvement: {:.2}x (paper: 2.26x — 63 vs 206 execs/s)",
        odf.mean_execs_per_sec / classic.mean_execs_per_sec.max(1e-9)
    );
    println!("\nThroughput timeline (execs/s per 1 s bucket):");
    bench::timeline("fig9_afl_sqlite_timeline", &classic.series, &odf.series).emit();
}
