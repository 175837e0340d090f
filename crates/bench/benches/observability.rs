//! Observability: machine-readable latency datasets and the cost of
//! tracing itself.
//!
//! Unlike the table/figure benches, this target exists for tooling: it
//! emits the fork and fault latency distributions as JSON files that CI
//! archives and trend-checks, plus a `chrome://tracing` dump of a traced
//! run for flamegraph-style inspection. It also answers the question every
//! tracepoint layer must answer — what does instrumentation cost? — by
//! running the fault microbenchmark with tracing off and on and reporting
//! the delta (target: <5% enabled, ~0 disabled).
//!
//! Outputs (written to the current directory):
//!
//! - `BENCH_fork.json`   — mean/p50/p99 fork ns per size x policy
//! - `BENCH_faults.json` — mean/p50/p99 write-fault ns per size x policy
//! - `BENCH_trace_chrome.json` — chrome://tracing dump of the traced run

use odf_bench as bench;
use odf_core::{ForkPolicy, Process};
use odf_metrics::{Histogram, Stopwatch};

const PAGE: u64 = 4096;

/// One measured configuration: a latency distribution for `policy` at
/// `size` bytes.
struct Row {
    size: u64,
    policy: ForkPolicy,
    hist: Histogram,
}

impl Row {
    fn json(&self) -> String {
        format!(
            r#"{{"size_bytes":{},"policy":"{:?}","samples":{},"mean_ns":{:.1},"p50_ns":{},"p99_ns":{}}}"#,
            self.size,
            self.policy,
            self.hist.count(),
            self.hist.mean(),
            self.hist.percentile(50.0),
            self.hist.percentile(99.0),
        )
    }
}

fn write_rows(path: &str, bench_name: &str, rows: &[Row]) {
    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    let doc = format!(
        "{{\n  \"bench\": \"{}\",\n  \"unit\": \"ns\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench_name,
        body.join(",\n")
    );
    std::fs::write(path, doc).expect("write bench json");
    println!("wrote {path} ({} rows)", rows.len());
}

/// Fork latency distribution: `reps()` timed forks per size x policy.
fn fork_rows() -> Vec<Row> {
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
            rows.push(Row { size, policy, hist });
        }
    }
    rows
}

/// Post-fork write faults over every page of `size` bytes; returns the
/// per-fault latency distribution and the total wall time.
fn fault_pass(proc: &Process, addr: u64, size: u64, policy: ForkPolicy) -> (Histogram, u64) {
    let child = proc.fork_with(policy).expect("fork");
    let mut hist = Histogram::new();
    let sw = Stopwatch::start();
    for page in 0..size / PAGE {
        let one = Stopwatch::start();
        child.write_u64(addr + page * PAGE, page).expect("fault");
        hist.record(one.elapsed_ns());
    }
    let wall = sw.elapsed_ns();
    child.exit();
    (hist, wall)
}

/// Fault latency distribution per size x policy.
fn fault_rows(sizes: &[u64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &size in sizes {
        // COW copies of the full region must fit alongside the original.
        let kernel = bench::kernel_for(3 * size);
        let proc = kernel.spawn().expect("spawn");
        let addr = proc.mmap_anon(size).expect("mmap");
        proc.populate(addr, size, true).expect("populate");
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let (hist, _) = fault_pass(&proc, addr, size, policy);
            rows.push(Row { size, policy, hist });
        }
        proc.munmap(addr, size).expect("munmap");
    }
    rows
}

/// Tracing overhead on the fault microbenchmark, measured as the median
/// of paired (disabled, enabled) back-to-back passes. Pairing and the
/// median cancel host drift, which on shared machines is easily larger
/// than the effect being measured. Returns (median off ns, median on ns,
/// median paired overhead %).
fn tracing_overhead(proc: &Process, addr: u64, size: u64, pairs: usize) -> (u64, u64, f64) {
    // Warm-up pass: first-touch lazy materialization is billed to no one.
    let _ = fault_pass(proc, addr, size, ForkPolicy::OnDemand);
    let (mut offs, mut ons, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        // ABBA ordering: alternate which side of the pair runs first, so
        // monotone host drift biases neither state.
        let run = |on: bool| {
            odf_trace::set_enabled(on);
            fault_pass(proc, addr, size, ForkPolicy::OnDemand).1
        };
        let (off, on) = if i % 2 == 0 {
            let off = run(false);
            (off, run(true))
        } else {
            let on = run(true);
            (run(false), on)
        };
        offs.push(off);
        ons.push(on);
        deltas.push((on as f64 - off as f64) / off as f64 * 100.0);
    }
    offs.sort_unstable();
    ons.sort_unstable();
    deltas.sort_by(f64::total_cmp);
    (offs[pairs / 2], ons[pairs / 2], deltas[pairs / 2])
}

fn main() {
    bench::banner("observability", "bench JSON exports + tracing overhead");

    // 1. Fork dataset (tracing state inherited from ODF_TRACE).
    write_rows("BENCH_fork.json", "fork_latency", &fork_rows());

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
    write_rows(
        "BENCH_faults.json",
        "fault_latency",
        &fault_rows(&fault_sizes),
    );

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
    let (off, on, overhead) = tracing_overhead(&proc, addr, size, pairs);
    println!(
        "tracing overhead on fault microbench ({}, median of {pairs} paired passes): \
         disabled {} -> enabled {} = {overhead:+.2}% (target <5%)",
        bench::bytes(size),
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
