//! Probe-engine overhead on the fault microbenchmark, plus a
//! watchdog-triggered incident bundle for CI to archive.
//!
//! The probe layer's contract is the eBPF one: attached probes cost a few
//! percent, detached probes cost nothing. This bench measures both with
//! the ABBA-paired methodology the tracing-overhead bench established —
//! for each probe count in the sweep (0, 1, 4, 16), alternate
//! detached/attached passes back to back and take the median paired
//! delta, so monotone host drift biases neither side.
//!
//! Outputs (written to the current directory):
//!
//! - `BENCH_probe.json` — per-probe-count overhead rows; the bench asserts
//!   the 0-probe row is ~free and the 4-probe row is under the 5% budget
//! - `BLACKBOX_*.json` — one deliberately provoked SLO-watchdog incident
//!   bundle, uploaded as a CI artifact so the flight-recorder path stays
//!   exercised end to end

use odf_bench as bench;
use odf_core::{ForkPolicy, Keying, ProbeSpec, ProgramKind};
use odf_trace::Point;

const SWEEP: [usize; 4] = [0, 1, 4, 16];
/// Overhead budget for four probes attached to the fault tracepoint, %.
const BUDGET_PCT: f64 = 5.0;
/// How far from zero the detached (0-probe) row may read, %.
const DETACHED_NOISE_PCT: f64 = 3.0;

/// Attaches `count` probes spread across the prefab programs, all at the
/// fault tracepoint so every microbench fault pays the full dispatch.
fn attach_probes(count: usize) {
    let e = odf_probe::engine();
    for i in 0..count {
        let mut spec = match i % 4 {
            0 => ProbeSpec::new(&format!("ovh_lat_{i}"), Point::Fault, ProgramKind::LatHist),
            1 => ProbeSpec::new(&format!("ovh_cnt_{i}"), Point::Fault, ProgramKind::CountBy),
            2 => ProbeSpec::new(&format!("ovh_sum_{i}"), Point::Fault, ProgramKind::SumBy),
            _ => ProbeSpec::new(
                &format!("ovh_max_{i}"),
                Point::Fault,
                ProgramKind::Watermark,
            ),
        };
        spec.key = if i % 2 == 0 {
            Keying::Pid
        } else {
            Keying::Kind
        };
        e.attach(spec).expect("attach");
    }
}

fn main() {
    bench::banner(
        "probe_overhead",
        "probe dispatch cost + flight-recorder artifact",
    );

    let size = bench::scaled(16 << 20);
    let pairs = if bench::fast_mode() { 41 } else { 101 };
    let kernel = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(size).expect("mmap");
    proc.populate(addr, size, true).expect("populate");
    odf_probe::engine().detach_all();
    let fault_pass = || bench::fault_pass(&proc, addr, size, ForkPolicy::OnDemand).1;

    let mut report = bench::Report::new(
        "probe",
        "probes pairs median_detached_ns median_attached_ns overhead_pct",
    );
    let mut overhead = Vec::new();
    for count in SWEEP {
        let (off, on, pct) = bench::paired(pairs, |attached| {
            if attached {
                attach_probes(count);
            }
            let ns = fault_pass();
            if attached {
                odf_probe::engine().detach_all();
            }
            ns
        });
        assert!(off > 0 && on > 0, "{count} probes: empty pass");
        report.row(vec![
            count.into(),
            pairs.into(),
            off.into(),
            on.into(),
            bench::num(pct, 3),
        ]);
        overhead.push(pct);
    }
    report.emit();

    // The contract: ~0 cost detached, under budget with four probes
    // attached to the fault tracepoint.
    let pct = |count| overhead[SWEEP.iter().position(|&c| c == count).expect("in sweep")];
    assert!(
        pct(0).abs() < DETACHED_NOISE_PCT,
        "detached probes must be ~free: {:+.2}%",
        pct(0)
    );
    assert!(
        pct(4) < BUDGET_PCT,
        "4-probe overhead {:+.2}% over the {BUDGET_PCT}% budget",
        pct(4)
    );

    // Provoke one watchdog incident so CI archives a real bundle: a 1ns
    // fault-p999 budget cannot survive a single traced fault pass.
    kernel.start_default_slo_watchdog(std::path::PathBuf::from("."), 1, u64::MAX, u64::MAX);
    let _ = fault_pass();
    let breaches = kernel.evaluate_slo_now().expect("watchdog running");
    assert!(!breaches.is_empty(), "1ns budget must breach");
    let bundle = kernel.last_incident_bundle().expect("bundle written");
    println!("wrote {} ({} breaches)", bundle.display(), breaches.len());
    kernel.stop_slo_watchdog();
    odf_probe::engine().detach_all();
}
