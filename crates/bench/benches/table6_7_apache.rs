//! Tables 6 and 7: Apache (prefork MPM) response latency right after
//! startup, fork vs On-demand-fork — the negative control.
//!
//! Apache maps only ~7 MiB before forking and forks only to build its
//! worker pool, so On-demand-fork can neither help nor hurt: the paper
//! reports differences within noise (mean -1.75%, max +6.59%, percentile
//! deltas between -7.4% and +4.7%).

use std::time::Duration;

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_httpd::{wrk, HttpConfig, PreforkServer};
use odf_metrics::{Histogram, Summary};

fn session(policy: ForkPolicy) -> (Summary, Histogram) {
    let kernel = bench::kernel_for(256 * bench::MIB);
    let mut server = PreforkServer::start(
        &kernel,
        HttpConfig {
            workers: 8,
            policy,
            documents: 64,
            document_size: 4096,
            max_requests_per_worker: 0,
        },
    )
    .expect("server");
    println!(
        "  [{policy:?}] control maps {} before forking (paper: ~7 MiB)",
        bench::fmt_bytes(server.control_mapped_bytes())
    );
    let duration = if bench::fast_mode() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(1)
    };
    // The paper runs wrk for 1-second sessions, 5 times.
    let mut summary = Summary::new();
    let mut hist = Histogram::new();
    for rep in 0..bench::reps() as u64 {
        let report = wrk::run(&mut server, 64, duration, rep).expect("wrk");
        summary.record(report.summary.mean());
        hist.merge(&report.latency);
    }
    (summary, hist)
}

fn main() {
    bench::banner(
        "Tables 6 & 7",
        "Apache prefork response latency after startup (negative control)",
    );
    let (f_sum, f_hist) = session(ForkPolicy::Classic);
    let (o_sum, o_hist) = session(ForkPolicy::OnDemand);

    println!("\nTable 6 — mean/max response latency:");
    // Both tables: label, fork us, on-demand-fork us, difference %.
    let row = |label: bench::Cell, f: f64, o: f64| {
        vec![
            label,
            bench::num(f / 1e3, 2),
            bench::num(o / 1e3, 2),
            bench::num(100.0 * (o - f) / f.max(1e-9), 2),
        ]
    };
    let mut t6 = bench::Report::new("table6_apache", "stat fork_us odf_us difference_pct");
    t6.row(row("Mean".into(), f_sum.mean(), o_sum.mean()));
    t6.row(row("Max".into(), f_hist.max() as f64, o_hist.max() as f64));
    t6.emit();

    println!("Table 7 — latency percentiles:");
    let mut t7 = bench::Report::new("table7_apache", "percentile fork_us odf_us difference_pct");
    for p in [50.0, 75.0, 90.0, 99.0] {
        t7.row(row(
            bench::num(p, 0),
            f_hist.percentile(p) as f64,
            o_hist.percentile(p) as f64,
        ));
    }
    t7.emit();
    println!(
        "Paper reference: all differences within noise (mean -1.75%, \
         percentiles -7.4%..+4.7%) — not all workloads benefit."
    );
}
