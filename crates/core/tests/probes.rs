//! Integration tests for the probe engine and its consumers at the
//! kernel level: attach/detach under a concurrent fault storm (no leaked
//! frames, no leaked map shards), deterministic watchdog-triggered
//! flight-recorder bundles, and per-window metrics baselines.
//!
//! The probe engine, the trace layer, and the durability counters are
//! process-global, so every test here serializes on one gate and restores
//! the global state it touched before releasing it.

use std::sync::{Arc, Mutex};

use odf_core::{ForkPolicy, Kernel, Keying, ProbeSpec, ProgramKind};
use odf_pmem::assert_pool_balanced;
use odf_probe::{engine, ShardedMap};
use odf_trace::{Hit, Point};

mod incident;
use incident::seeded_incident_run;

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const PAGE: u64 = 4096;

/// Probe attach/detach churn racing a multi-process fault storm: the pool
/// balances afterwards and every aggregation map the churn created is
/// freed — probes must never pin frames or leak shards.
#[test]
fn attach_detach_survives_concurrent_fault_storm() {
    let _g = lock();
    let e = engine();
    e.detach_all();
    let maps_before = ShardedMap::live_maps();
    let attached_before = e.attached_count();

    let kernel = Kernel::new(256 << 20);
    let baseline = kernel.machine().pool().balance();
    let region = 2 << 20;

    std::thread::scope(|s| {
        // Four faulting processes, each forking and COW-faulting its own
        // region in a loop — a steady stream of Fault/Fork probe hits.
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let kernel = &kernel;
            threads.push(s.spawn(move || {
                let proc = kernel.spawn().expect("spawn");
                let addr = proc.mmap_anon(region).expect("mmap");
                proc.populate(addr, region, true).expect("populate");
                for round in 0..8 {
                    let child = proc.fork_with(ForkPolicy::OnDemand).expect("fork");
                    for page in 0..region / PAGE {
                        child
                            .write_u64(addr + page * PAGE, t ^ round ^ page)
                            .expect("fault");
                    }
                    child.exit();
                }
                proc.exit();
            }));
        }
        // One churn thread attaching and detaching probes mid-storm.
        threads.push(s.spawn(|| {
            for i in 0..40 {
                let mut lat = ProbeSpec::new(
                    &format!("storm_lat_{i}"),
                    Point::Fault,
                    ProgramKind::LatHist,
                );
                lat.key = Keying::Pid;
                let mut cnt = ProbeSpec::new(
                    &format!("storm_cnt_{i}"),
                    Point::Fault,
                    ProgramKind::CountBy,
                );
                cnt.key = Keying::Kind;
                engine().attach(lat).expect("attach lat");
                engine().attach(cnt).expect("attach cnt");
                let _ = engine().read_all();
                assert!(engine().detach(&format!("storm_lat_{i}")));
                assert!(engine().detach(&format!("storm_cnt_{i}")));
            }
        }));
        // Join explicitly: the scope's own join can return before a
        // thread's thread-local destructors have run, and those drop the
        // thread's probe caches, whose `Arc`s keep detached maps alive.
        for t in threads {
            t.join().expect("storm thread");
        }
    });

    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(
        e.attached_count(),
        attached_before,
        "churn must leave no probe attached"
    );
    assert_eq!(
        ShardedMap::live_maps(),
        maps_before,
        "detach must free every aggregation map shard"
    );
}

/// Per-key attribution answers the paper's tail question: with two
/// processes faulting at very different rates, a pid-keyed `lat_hist`
/// probe names the process that dominated the fault distribution.
#[test]
fn pid_keyed_lat_hist_attributes_fault_load() {
    let _g = lock();
    let e = engine();
    e.detach_all();

    let kernel = Kernel::new(128 << 20);
    let heavy = kernel.spawn().expect("spawn heavy");
    let light = kernel.spawn().expect("spawn light");
    let region = 1 << 20;
    let ha = heavy.mmap_anon(region).expect("mmap");
    let la = light.mmap_anon(region).expect("mmap");

    let mut spec = ProbeSpec::new("attr_fault_lat", Point::Fault, ProgramKind::LatHist);
    spec.key = Keying::Pid;
    e.attach(spec).expect("attach");

    // 256 first-touch faults for the heavy pid, 4 for the light one.
    for page in 0..256 {
        heavy
            .write_u64(ha + page * PAGE, page)
            .expect("heavy fault");
    }
    for page in 0..4 {
        light
            .write_u64(la + page * PAGE, page)
            .expect("light fault");
    }

    let report = e.read("attr_fault_lat").expect("report");
    let top = report
        .keys
        .iter()
        .max_by_key(|k| k.hits)
        .expect("at least one key");
    assert_eq!(
        top.label,
        format!("pid {}", heavy.pid().0),
        "heaviest faulter must dominate the per-pid histogram: {report:?}"
    );
    assert!(top.hits >= 256, "all heavy faults attributed: {top:?}");
    assert!(e.detach("attr_fault_lat"));
}

/// The watchdog-triggered flight recorder is deterministic: two identical
/// seeded runs produce the same bundle file name and byte-identical,
/// structurally valid JSON bodies.
#[test]
fn watchdog_bundle_is_deterministic_and_parseable() {
    let _g = lock();
    let base = std::env::temp_dir().join("odf_blackbox_determinism");
    let (name1, bytes1) = seeded_incident_run(&base.join("run1"));
    let (name2, bytes2) = seeded_incident_run(&base.join("run2"));

    assert_eq!(name1, name2, "bundle naming must not involve wall clock");
    assert!(name1.starts_with("BLACKBOX_") && name1.ends_with(".json"));
    assert_eq!(bytes1, bytes2, "seeded runs must dump identical bundles");

    let body = String::from_utf8(bytes1).expect("utf8 bundle");
    assert_eq!(body.matches('{').count(), body.matches('}').count());
    assert!(body.contains("\"format\":\"odf-blackbox-v1\""));
    assert!(body.contains("\"budget\":\"fault_p999\""));
    assert!(body.contains("\"name\":\"det_fault_lat\""));
    assert!(
        body.contains("reclaim_pass"),
        "daemon events in the chrome window"
    );
    assert!(body.contains("thp_pass"));
    let _ = std::fs::remove_dir_all(&base);
}

/// The kernel's default watchdog wiring: budgets over the built-in fault /
/// fork probes plus the WAL-lag gauge, evaluated on demand, bundle path
/// surfaced through the kernel.
#[test]
fn kernel_default_watchdog_dumps_on_injected_breach() {
    let _g = lock();
    engine().detach_all();
    let dir = std::env::temp_dir().join("odf_blackbox_kernel");
    let _ = std::fs::remove_dir_all(&dir);

    let kernel = Arc::new(Kernel::new(64 << 20));
    kernel.start_default_slo_watchdog(dir.clone(), 50_000, u64::MAX, u64::MAX);

    // No samples yet: probe budgets observe nothing, no breach, no bundle.
    assert_eq!(
        kernel.evaluate_slo_now().expect("watchdog running").len(),
        0
    );
    assert_eq!(kernel.last_incident_bundle(), None);

    // Inject fault latencies over the 50us budget through the same hook
    // the emit sites use.
    for _ in 0..8 {
        engine().inject(&Hit::new(Point::Fault, &[0, 0, 200_000]).pid(1));
    }
    let breaches = kernel.evaluate_slo_now().expect("watchdog running");
    assert_eq!(breaches.len(), 1);
    assert_eq!(breaches[0].budget, "fault_p999");

    let bundle = kernel.last_incident_bundle().expect("bundle written");
    let body = std::fs::read_to_string(&bundle).expect("read bundle");
    // The kernel's context provider embeds the machine digest.
    assert!(body.contains("\"free_frames\""), "{body}");
    assert!(body.contains("\"mms\""), "{body}");

    let stats = kernel.slo_watchdog_stats().expect("stats");
    assert_eq!(stats.bundles_written, 1);
    kernel.stop_slo_watchdog();
    engine().detach_all();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `reset_metrics_window` re-baselines the exported counters without
/// touching the kernel's cumulative view.
#[test]
fn metrics_window_resets_without_losing_cumulative_counters() {
    let _g = lock();
    let kernel = Kernel::new(64 << 20);
    let proc = kernel.spawn().expect("spawn");
    let addr = proc.mmap_anon(1 << 20).expect("mmap");
    for page in 0..128 {
        proc.write_u64(addr + page * PAGE, page).expect("fault");
    }

    let cumulative = kernel.stats();
    assert!(cumulative.vm.faults >= 128);
    assert!(kernel.windowed_stats().vm.faults >= 128);

    kernel.reset_metrics_window();
    assert_eq!(kernel.windowed_stats().vm.faults, 0, "window re-baselined");
    assert!(
        kernel.stats().vm.faults >= cumulative.vm.faults,
        "cumulative view survives the reset"
    );

    // New faults land in the fresh window.
    for page in 128..160 {
        proc.write_u64(addr + page * PAGE, page).expect("fault");
    }
    let windowed = kernel.windowed_stats().vm.faults;
    assert!((32..cumulative.vm.faults + 32).contains(&windowed));
}
