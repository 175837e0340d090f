//! THP ablation: what does background huge-page promotion buy fork and
//! fault latency?
//!
//! The khugepaged analog runs (or doesn't) over an identical warmed
//! working set, then the daemon is stopped and the resulting memory
//! layout — promoted to 2 MiB or left at 4 KiB — is measured: fork
//! latency distribution and post-fork COW write-fault latency
//! distribution, per {promotion policy x fork policy}. The promotion
//! policy is the ablation axis: `never` is the THP-off baseline, `greedy`
//! promotes everything resident, `heat` promotes only ranges that stay
//! hot across scans.
//!
//! Output: `BENCH_thp.json` — fork p50/p99, fault p50/p99, huge-page
//! coverage, and promotion rate per {promotion policy x fork policy}.

use std::time::{Duration, Instant};

use odf_bench as bench;
use odf_core::{ForkPolicy, MapParams, ThpDaemonConfig, HUGE_PAGE_SIZE};
use odf_metrics::{Histogram, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGE: u64 = 4096;
const BASE: u64 = 1 << 31;

/// One measured configuration.
struct Row {
    thp_policy: &'static str,
    fork_policy: ForkPolicy,
    region_bytes: u64,
    /// Fraction of the region backed by 2 MiB pages when measured, x100.
    huge_pct: u64,
    collapses: u64,
    /// Collapses per second during the warm phase.
    promote_rate: f64,
    fork_hist: Histogram,
    fault_hist: Histogram,
}

/// Warm a working set, let the chosen promotion policy run to quiescence,
/// stop the daemon, then measure fork and post-fork COW fault latency on
/// the resulting layout.
fn ablation_pass(
    thp_policy: &'static str,
    fork_policy: ForkPolicy,
    region: u64,
    forks: u64,
    faults: u64,
) -> Row {
    let kernel = bench::kernel_for(region * 3);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc
        .mmap_fixed(BASE, region, MapParams::anon_rw())
        .expect("mmap");
    let pages = region / PAGE;
    for pg in 0..pages {
        proc.write_u64(addr + pg * PAGE, pg).expect("fill");
    }

    // Warm phase: run the daemon while the workload keeps the region hot
    // (the heat policy needs accessed bits re-set between scans), until
    // coverage is complete or a deadline passes. The interval is sized to
    // span one full touch pass — scanning faster than the workload can
    // re-touch makes every chunk look cold and the heat policy would
    // demote what it just promoted. `never` promotes nothing by design,
    // so it gets no wait.
    let interval = Duration::from_millis(5);
    kernel.start_thp_daemon(
        odf_core::thp_policy_by_name(thp_policy).expect("known policy"),
        ThpDaemonConfig {
            interval,
            max_ops: 64,
            clear_accessed: true,
        },
    );
    let warm = Instant::now();
    if thp_policy != "never" {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            for pg in 0..pages {
                let _ = proc.read_u64(addr + pg * PAGE);
            }
            kernel.kick_thp_daemon();
            std::thread::sleep(interval);
            if proc.smaps().huge() >= region || Instant::now() >= deadline {
                break;
            }
        }
    }
    let warm_s = warm.elapsed().as_secs_f64();
    // Stop the daemon the moment coverage is reached — with the workload
    // gone quiet, the next few scans would read as cold and the heat
    // policy would start demoting. Measuring wants the promoted layout
    // frozen anyway: the ablation compares memory *layouts*, and a scan
    // mid-fork would perturb the timing. Stopping joins the scanner
    // thread, so the VM counter read below is final (the daemon's own
    // stats snapshot can trail the last collapse).
    kernel.stop_thp_daemon();
    let collapses = kernel.stats().vm.thp_collapses;
    let huge_pct = proc.smaps().huge() * 100 / region;

    let mut fork_hist = Histogram::new();
    for _ in 0..forks {
        let sw = Stopwatch::start();
        let child = proc.fork_with(fork_policy).expect("fork");
        fork_hist.record(sw.elapsed_ns());
        child.exit();
    }

    // Post-fork COW faults: random first writes in a live child. At 4 KiB
    // granularity each fault copies one page (or one PTE table under
    // on-demand fork); at 2 MiB it breaks a whole compound.
    let mut fault_hist = Histogram::new();
    let child = proc.fork_with(fork_policy).expect("fork");
    let mut rng = StdRng::seed_from_u64(0x7447);
    for _ in 0..faults {
        let pg = rng.gen_range(0..pages);
        let va = addr + pg * PAGE;
        let sw = Stopwatch::start();
        child.write_u64(va, pg ^ 0xff).expect("cow write");
        fault_hist.record(sw.elapsed_ns());
    }
    child.exit();

    Row {
        thp_policy,
        fork_policy,
        region_bytes: region,
        huge_pct,
        collapses,
        promote_rate: collapses as f64 / warm_s.max(1e-9),
        fork_hist,
        fault_hist,
    }
}

fn main() {
    bench::banner(
        "thp_ablation",
        "fork & COW-fault latency vs background huge-page promotion policy",
    );

    let region = bench::scaled(if bench::fast_mode() {
        8 * bench::MIB
    } else {
        32 * bench::MIB
    });
    let forks = if bench::fast_mode() { 16 } else { 64 };
    let faults = if bench::fast_mode() { 1024 } else { 4096 };

    let mut rows = Vec::new();
    let mut report = bench::Report::new(
        "thp",
        "thp_policy fork_policy region_mib huge_pct collapses promote_rate_per_s \
         fork_samples fork_p50_ns fork_p99_ns fault_samples fault_p50_ns fault_p99_ns",
    );
    for thp_policy in ["never", "greedy", "heat"] {
        for fork_policy in [
            ForkPolicy::Classic,
            ForkPolicy::OnDemand,
            ForkPolicy::OnDemandHuge,
        ] {
            let row = ablation_pass(thp_policy, fork_policy, region, forks, faults);
            report.row(vec![
                row.thp_policy.into(),
                format!("{:?}", row.fork_policy).into(),
                (row.region_bytes / bench::MIB).into(),
                row.huge_pct.into(),
                row.collapses.into(),
                bench::num(row.promote_rate, 0),
                row.fork_hist.count().into(),
                row.fork_hist.percentile(50.0).into(),
                row.fork_hist.percentile(99.0).into(),
                row.fault_hist.count().into(),
                row.fault_hist.percentile(50.0).into(),
                row.fault_hist.percentile(99.0).into(),
            ]);
            rows.push(row);
        }
    }
    report.emit();

    // Structural invariants the sweep must satisfy regardless of runner
    // noise: `never` promotes nothing; the active policies promote the
    // whole warmed region (it is fully resident and continuously hot).
    let chunks = region / HUGE_PAGE_SIZE as u64;
    for row in &rows {
        let at = format!("{} x {:?}", row.thp_policy, row.fork_policy);
        for (what, h) in [("fork", &row.fork_hist), ("fault", &row.fault_hist)] {
            let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
            assert!(h.count() > 0 && p50 <= p99, "{at} {what}: {p50} {p99}");
        }
        if row.thp_policy == "never" {
            assert_eq!(row.collapses, 0, "never-policy promoted");
            assert_eq!(row.huge_pct, 0, "never-policy left huge pages");
        } else {
            assert!(
                row.collapses >= chunks.max(1),
                "{} promoted {}/{chunks} chunks",
                row.thp_policy,
                row.collapses
            );
            assert_eq!(row.huge_pct, 100, "{} coverage incomplete", row.thp_policy);
        }
    }

    // The headline ablation: classic fork over a promoted region copies
    // 2 MiB compounds instead of 512 separate pages per chunk, so
    // promotion must show up as a fork-latency drop.
    let p50 = |tp: &str, fp: ForkPolicy| {
        rows.iter()
            .find(|r| r.thp_policy == tp && r.fork_policy == fp)
            .map(|r| r.fork_hist.percentile(50.0))
            .expect("row")
    };
    let (off, on) = (
        p50("never", ForkPolicy::Classic),
        p50("greedy", ForkPolicy::Classic),
    );
    println!(
        "\nclassic fork p50: thp-off {} -> thp-on {} ({:+.1}%)",
        bench::fmt_ns(off),
        bench::fmt_ns(on),
        (on as f64 - off as f64) / off as f64 * 100.0
    );
    assert!(
        (on as f64) <= off as f64 * 1.10,
        "promotion did not reduce classic fork latency: off={off}ns on={on}ns"
    );
}
