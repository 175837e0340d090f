//! The seeded flight-recorder run: shared by the probe tests, which pin
//! its determinism, and the workspace telemetry golden file, which pins
//! its bytes. The caller holds whatever gate serialises the process-global
//! trace and probe state.

use std::time::Duration;

use odf_core::{Keying, ProbeSpec, ProgramKind, SloBudget, WatchdogConfig};
use odf_probe::{engine, BudgetSource, SloWatchdog};
use odf_trace::{Hit, Point};

/// One seeded flight-recorder run: fixed trace hits at pinned times, fixed
/// probe samples via `inject` (the latency-injection hook), one synchronous
/// watchdog evaluation. Returns (bundle file name, bundle bytes).
pub fn seeded_incident_run(dir: &std::path::Path) -> (String, Vec<u8>) {
    let _ = std::fs::remove_dir_all(dir);
    let e = engine();
    e.detach_all();
    odf_trace::clear();
    let was_on = odf_trace::enabled();
    odf_trace::set_enabled(true);

    // Fixed timeline: three daemon hits at pinned trace timestamps.
    odf_trace::emit(Hit::new(Point::ReclaimPass, &[32, 100, 500]).at(1_000));
    odf_trace::emit(Hit::new(Point::ReclaimBackoff, &[100]).at(2_000));
    odf_trace::emit(Hit::new(Point::ThpPass, &[8, 2, 700]).at(3_000));

    // Fixed probe samples: injected fault latencies far above the budget.
    let mut spec = ProbeSpec::new("det_fault_lat", Point::Fault, ProgramKind::LatHist);
    spec.key = Keying::Pid;
    e.attach(spec).expect("attach");
    for i in 0..16u64 {
        // Injected latency (the fault's third word): every sample over budget.
        e.inject(&Hit::new(Point::Fault, &[0, 0, 90_000 + i]).pid(7));
    }

    let wd = SloWatchdog::spawn(
        WatchdogConfig {
            interval: Duration::from_secs(3600), // only evaluate_now fires
            window_ns: 10_000_000,
            out_dir: dir.to_path_buf(),
            max_bundles: 4,
        },
        vec![SloBudget {
            name: "fault_p999".into(),
            source: BudgetSource::ProbeP999 {
                probe: "det_fault_lat".into(),
            },
            limit: 50_000,
        }],
        None,
    );
    let breaches = wd.evaluate_now();
    assert_eq!(
        breaches.len(),
        1,
        "injected latencies must breach: {breaches:?}"
    );
    let path = wd.last_bundle().expect("bundle written");
    drop(wd);

    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let bytes = std::fs::read(&path).expect("read bundle");
    assert!(e.detach("det_fault_lat"));
    odf_trace::set_enabled(was_on);
    odf_trace::clear();
    (name, bytes)
}
