//! Observability: machine-readable latency datasets and the cost of
//! tracing itself.
//!
//! Unlike the table/figure benches, this target exists for tooling: it
//! emits the fork and fault latency distributions for trend checks, plus
//! a `chrome://tracing` dump of a traced run for flamegraph-style
//! inspection. It also answers the question every tracepoint layer must
//! answer — what does instrumentation cost? — by running the fault
//! microbenchmark with tracing off and on and reporting the delta
//! (target: <5% enabled, ~0 disabled).
//!
//! Outputs (written to the current directory):
//!
//! - `BENCH_fork.json`   — mean/p50/p99 fork ns per size x policy
//! - `BENCH_faults.json` — mean/p50/p99 write-fault ns per size x policy
//! - `BENCH_trace_chrome.json` — chrome://tracing dump of the traced run
//! - `BENCH_metrics.prom` — the machine-wide Prometheus export

use odf_bench as bench;
use odf_core::ForkPolicy;
use odf_metrics::Histogram;

/// A latency-distribution report: one row per size x policy.
fn latency_report(name: &str, rows: &[(u64, ForkPolicy, Histogram)]) -> bench::Report {
    let mut report = bench::Report::new(name, "size_mib policy samples mean_ns p50_ns p99_ns");
    for (size, policy, hist) in rows {
        let (p50, p99) = (hist.percentile(50.0), hist.percentile(99.0));
        let at = format!("{name} {size} {policy:?}");
        assert!(hist.count() > 0 && p50 <= p99, "{at}: p50 {p50} p99 {p99}");
        report.row(vec![
            (size / bench::MIB).into(),
            format!("{policy:?}").into(),
            hist.count().into(),
            bench::num(hist.mean(), 1),
            p50.into(),
            p99.into(),
        ]);
    }
    report
}

/// Fork latency distribution: `reps()` timed forks per size x policy.
fn fork_rows() -> Vec<(u64, ForkPolicy, Histogram)> {
    let mut rows = Vec::new();
    for &size in &bench::size_sweep() {
        let kernel = bench::kernel_for(size);
        let proc = kernel.spawn().expect("spawn");
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let mut hist = Histogram::new();
            for _ in 0..bench::reps() {
                let ns = bench::fill_and_time_fork(&proc, size, policy).expect("fork");
                hist.record(ns);
            }
            rows.push((size, policy, hist));
        }
    }
    rows
}

/// Fault latency distribution per size x policy.
fn fault_rows(sizes: &[u64]) -> Vec<(u64, ForkPolicy, Histogram)> {
    let mut rows = Vec::new();
    for &size in sizes {
        // COW copies of the full region must fit alongside the original.
        let kernel = bench::kernel_for(3 * size);
        let proc = kernel.spawn().expect("spawn");
        let addr = proc.mmap_anon(size).expect("mmap");
        proc.populate(addr, size, true).expect("populate");
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let (hist, _) = bench::fault_pass(&proc, addr, size, policy);
            rows.push((size, policy, hist));
        }
        proc.munmap(addr, size).expect("munmap");
    }
    rows
}

fn main() {
    bench::banner("observability", "bench JSON exports + tracing overhead");

    // 1. Fork dataset (tracing state inherited from ODF_TRACE).
    latency_report("fork", &fork_rows()).emit();

    // 2. Fault dataset over a reduced sweep (every page is touched, so the
    //    sweep is in fault count, not bytes).
    let fault_sizes: Vec<u64> = if bench::fast_mode() {
        vec![
            bench::scaled(16 * bench::MIB),
            bench::scaled(64 * bench::MIB),
        ]
    } else {
        vec![
            bench::scaled(64 * bench::MIB),
            bench::scaled(256 * bench::MIB),
        ]
    };
    latency_report("faults", &fault_rows(&fault_sizes)).emit();

    // 3. Tracing overhead on the fault microbenchmark: paired off/on
    //    passes, median paired delta.
    // Short passes (~4K faults) keep each off/on pair adjacent in time on
    // a noisy host; many pairs let the median converge.
    let size = bench::scaled(16 * bench::MIB);
    let pairs = if bench::fast_mode() { 41 } else { 101 };
    let kernel = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(size).expect("mmap");
    proc.populate(addr, size, true).expect("populate");
    odf_trace::clear();
    let (off, on, overhead) = bench::paired(pairs, |on| {
        odf_trace::set_enabled(on);
        bench::fault_pass(&proc, addr, size, ForkPolicy::OnDemand).1
    });
    println!(
        "tracing overhead on fault microbench ({}, median of {pairs} paired passes): \
         disabled {} -> enabled {} = {overhead:+.2}% (target <5%)",
        bench::fmt_bytes(size),
        bench::fmt_ns(off),
        bench::fmt_ns(on),
    );

    // 4. The traced run above becomes the chrome://tracing dump, and its
    //    summary is printed for eyeballing.
    let trace = odf_trace::snapshot();
    let mut summary = odf_trace::Exposition::new();
    trace.summary().export(&mut summary);
    print!("{}", summary.info(|_| true));
    std::fs::write("BENCH_trace_chrome.json", trace.chrome_json()).expect("write chrome dump");
    println!(
        "wrote BENCH_trace_chrome.json ({} events, {} dropped)",
        trace.len(),
        odf_trace::dropped_events()
    );

    // 5. The machine-wide Prometheus export after the workload, for CI to
    //    archive.
    std::fs::write("BENCH_metrics.prom", kernel.metrics_prometheus()).expect("write prom export");
    println!("wrote BENCH_metrics.prom");
}
