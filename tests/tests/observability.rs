//! Workspace-level observability acceptance: the trace layer, the
//! introspection surface, and the exporters, exercised by the same
//! concurrent fault workloads the correctness suites use.
//!
//! The tracing layer is process-global (per-thread rings behind one enable
//! flag), so every test that toggles it serializes on [`TRACE_GATE`].

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use odf_core::{EvictDecision, ForkPolicy, Kernel, Keying, ProbeSpec, ProgramKind, ThpOutcome};
use odf_kvstore::{encode_command, Connection, PerCoreConfig, PerCoreServer, RespValue};
use odf_pmem::assert_pool_balanced;
use odf_trace::{EventClass, Exposition, FaultKind, ForkPolicyKind, Hit, LockSite, Point, Trace};

#[path = "../../crates/core/tests/incident/mod.rs"]
mod incident;

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;

fn trace_gate() -> std::sync::MutexGuard<'static, ()> {
    static TRACE_GATE: OnceLock<Mutex<()>> = OnceLock::new();
    TRACE_GATE
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The acceptance workload: fork with shared tables, then four threads
/// write-fault interleaved slices of the child concurrently. Every first
/// touch of a 2 MiB span pays a table COW, every page a data COW, and
/// threads racing on the same span exercise the lost-install-race path.
#[test]
fn concurrent_fault_workload_yields_per_kind_latency_and_chrome_dump() {
    let _gate = trace_gate();
    odf_trace::set_enabled(true);
    odf_trace::clear();

    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    let parent = kernel.spawn().unwrap();
    let size = 32 * MIB;
    let addr = parent.mmap_anon(size).unwrap();
    parent.populate(addr, size, true).unwrap();

    let before = kernel.stats();
    let child = Arc::new(parent.fork_with(ForkPolicy::OnDemand).unwrap());
    let threads = 4u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let child = Arc::clone(&child);
            s.spawn(move || {
                // Interleaved pages: all threads touch every 2 MiB span,
                // so table-COW install races are actually contended.
                for page in (t..size / PAGE).step_by(threads as usize) {
                    child.write_u64(addr + page * PAGE, page).unwrap();
                }
            });
        }
    });
    let delta = kernel.stats() - before;

    let trace = odf_trace::snapshot();
    odf_trace::set_enabled(false);
    let summary = trace.summary();

    // Per-fault-kind latency percentiles exist for the kinds the workload
    // must have produced (data COW on every page; table COW per span).
    for kind in [FaultKind::CowData, FaultKind::TableCow] {
        let hist = summary
            .fault_hist(kind)
            .unwrap_or_else(|| panic!("no {kind:?} histogram"));
        assert!(hist.count() > 0, "{kind:?} count");
        assert!(hist.percentile(50.0) > 0, "{kind:?} p50");
        assert!(
            hist.percentile(99.0) >= hist.percentile(50.0),
            "{kind:?} p99"
        );
    }

    // Lost install races surfaced by the trace agree with the kernel
    // counters: the ring is lossy (drop-oldest), so the trace can only
    // undercount, never invent races.
    assert!(summary.lost_install_races() <= delta.vm.install_races_lost);

    // The same trace renders as a chrome://tracing document.
    let chrome = trace.chrome_json();
    assert!(
        chrome.starts_with(r#"{"displayTimeUnit":"ns","traceEvents":["#),
        "{}",
        &chrome[..40]
    );
    assert!(chrome.contains(r#""name":"fault:cow_data""#));

    drop(child);
    drop(parent);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

/// smaps totals must agree *exactly* with the kernel's own accounting on a
/// deterministic single-threaded workload: RSS with the VM report, and the
/// shared/private split with what a COW fork implies.
#[test]
fn smaps_totals_agree_with_kernel_accounting() {
    let _gate = trace_gate();
    let kernel = Kernel::new(128 * MIB);
    let baseline = kernel.machine().pool().balance();
    let parent = kernel.spawn().unwrap();
    let size = 8 * MIB;
    let addr = parent.mmap_anon(size).unwrap();
    parent.populate(addr, size, true).unwrap();

    // Before the fork: everything resident is private.
    let s = parent.smaps();
    assert_eq!(s.rss(), parent.memory_report().rss_pages * PAGE);
    assert_eq!(s.shared(), 0);
    assert_eq!(s.private(), s.rss());

    // After an on-demand fork the whole region is reachable through
    // shared tables: resident bytes flip to shared, none are private.
    let child = parent.fork_with(ForkPolicy::OnDemand).unwrap();
    let s = parent.smaps();
    assert_eq!(s.rss(), parent.memory_report().rss_pages * PAGE);
    assert_eq!(s.rss(), s.shared() + s.private());
    assert!(
        s.shared() >= size,
        "post-fork shared {} < {size}",
        s.shared()
    );

    // The child privatizes half the region; its smaps must show exactly
    // the COW'd pages as private, and the kernel's COW counter must agree
    // with that page count.
    let before = kernel.stats();
    let half = size / 2;
    for page in 0..half / PAGE {
        child.write_u64(addr + page * PAGE, page).unwrap();
    }
    let delta = kernel.stats() - before;
    let cs = child.smaps();
    assert_eq!(cs.private(), delta.vm.cow_data_copies * PAGE);
    assert_eq!(cs.rss(), child.memory_report().rss_pages * PAGE);

    child.exit();
    parent.exit();
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

/// smaps and pagemap must account for evicted ranges *exactly*: every
/// page pushed to swap leaves RSS, appears in the `Swap:` field, and
/// flips the pagemap swap bit — and a read fault reverses all three.
#[test]
fn smaps_accounts_swapped_pages_exactly() {
    let _gate = trace_gate();
    let kernel = Kernel::new(128 * MIB);
    let baseline = kernel.machine().pool().balance();
    let proc = kernel.spawn().unwrap();
    let pages = 64u64;
    let addr = proc.mmap_anon(pages * PAGE).unwrap();
    proc.populate(addr, pages * PAGE, true).unwrap();

    let rss_before = proc.smaps().rss();
    assert_eq!(proc.smaps().swap(), 0);

    // Evict everything the scanner will take (two passes beat the
    // accessed-bit second chance).
    let mut evicted = 0u64;
    for _ in 0..2 {
        evicted += proc
            .mm()
            .evict_scan(pages as usize, &mut |_| odf_core::EvictDecision::Evict)
            .evicted;
    }
    assert_eq!(evicted, pages, "whole region must evict");

    // smaps: the evicted bytes moved from Rss to Swap, nothing vanished.
    let s = proc.smaps();
    assert_eq!(s.swap(), evicted * PAGE);
    assert_eq!(s.rss(), rss_before - evicted * PAGE);
    assert_eq!(s.rss(), proc.memory_report().rss_pages * PAGE);
    let rendered = s.render();
    assert!(
        rendered.contains("Swap:"),
        "render lacks Swap field:\n{rendered}"
    );

    // pagemap: swapped pages are not present, carry the swap bit, and
    // expose their swap slot where the frame would be.
    let pm = proc.pagemap(addr, pages * PAGE);
    assert_eq!(pm.len(), pages as usize);
    assert!(pm.iter().all(|e| e.swapped && !e.present));

    // Kernel counters agree with the introspection surface.
    assert_eq!(kernel.stats().vm.pages_swapped_out, evicted);
    assert_eq!(kernel.machine().swap().used_slots() as u64, evicted);

    // Read faults bring every page home and the accounting reverses.
    for pg in 0..pages {
        proc.read_u64(addr + pg * PAGE).unwrap();
    }
    let s = proc.smaps();
    assert_eq!(s.swap(), 0);
    assert_eq!(s.rss(), rss_before);
    assert!(proc
        .pagemap(addr, pages * PAGE)
        .iter()
        .all(|e| e.present && !e.swapped));
    assert_eq!(kernel.stats().vm.pages_swapped_in, evicted);
    assert_eq!(kernel.machine().swap().used_slots(), 0);

    drop(proc);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

/// A one-shard server on `kernel` and a connection to it: its RESP surface
/// attaches probes and reads `INFO`.
fn server_on(kernel: &Arc<Kernel>) -> (PerCoreServer, Connection) {
    let server = PerCoreServer::new(
        kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 4 * MIB,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = server.connect_to(0);
    (server, conn)
}

fn command(conn: &Connection, parts: &[&[u8]]) -> RespValue {
    conn.send(&encode_command(parts));
    let mut wire = Vec::new();
    conn.await_replies(1, &mut wire);
    RespValue::decode(&wire).expect("one complete reply").0
}

fn attach(conn: &Connection, spec: &[&[u8]]) {
    let argv: Vec<&[u8]> = [&b"PROBE"[..], b"ATTACH"]
        .into_iter()
        .chain(spec.iter().copied())
        .collect();
    assert_eq!(command(conn, &argv), RespValue::Simple("OK".into()));
}

fn detach(conn: &Connection, name: &[u8]) {
    assert_eq!(
        command(conn, &[b"PROBE", b"DETACH", name]),
        RespValue::Integer(1)
    );
}

/// The family a Prometheus sample or header line belongs to: a summary's
/// `_sum` and `_count` series are part of the summary.
fn family_of<'a>(line: &'a str, summaries: &[&'a str]) -> &'a str {
    let name = match line
        .strip_prefix("# HELP ")
        .or_else(|| line.strip_prefix("# TYPE "))
    {
        Some(rest) => rest.split(' ').next().unwrap(),
        None => line.split(['{', ' ']).next().unwrap(),
    };
    summaries
        .iter()
        .copied()
        .find(|s| {
            name.strip_prefix(s)
                .is_some_and(|rest| ["", "_sum", "_count"].contains(&rest))
        })
        .unwrap_or(name)
}

fn summary_families(prom: &str) -> Vec<&str> {
    prom.lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" summary"))
        .collect()
}

/// The text format requires all lines of one family to form one group.
fn assert_families_contiguous(prom: &str) {
    let summaries = summary_families(prom);
    let mut seen: Vec<&str> = Vec::new();
    for line in prom.lines() {
        let family = family_of(line, &summaries);
        if seen.last() != Some(&family) {
            assert!(!seen.contains(&family), "family {family} is split:\n{prom}");
            seen.push(family);
        }
    }
}

/// Write faults under two pids: a fresh process each touches a region.
fn fault_under_two_pids(kernel: &Arc<Kernel>) {
    for _ in 0..2 {
        let p = kernel.spawn().unwrap();
        let addr = p.mmap_anon(64 * PAGE).unwrap();
        for page in 0..64 {
            p.write_u64(addr + page * PAGE, page).unwrap();
        }
        p.exit();
    }
}

/// Each family's Prometheus lines form one group however its samples
/// arrive: two probes, each with per-key lines; then one `lat_hist` probe
/// whose per-key hits and latency quantiles are two families.
#[test]
fn prometheus_families_are_contiguous() {
    let _gate = trace_gate();
    odf_trace::set_enabled(true);
    let kernel = Kernel::new(128 * MIB);
    let (_server, conn) = server_on(&kernel);
    let setups: [&[[&[u8]; 4]]; 2] = [
        &[
            [b"a", b"fault", b"count_by", b"key=pid"],
            [b"b", b"fault", b"count_by", b"key=pid"],
        ],
        &[[b"c", b"fault", b"lat_hist", b"key=pid"]],
    ];
    for probes in setups {
        for spec in probes {
            attach(&conn, spec);
        }
        fault_under_two_pids(&kernel);
        assert_families_contiguous(&kernel.metrics_prometheus());
        for spec in probes {
            detach(&conn, spec[0]);
        }
    }
    odf_trace::set_enabled(false);
}

type Pairs = BTreeSet<(String, Vec<(String, String)>)>;

/// (family, label set) of every Prometheus sample; a summary's `quantile`
/// label selects a line within one sample, so it is dropped.
fn prom_pairs(prom: &str) -> Pairs {
    let summaries = summary_families(prom);
    let mut pairs = Pairs::new();
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let family = family_of(line, &summaries);
        let mut labels = Vec::new();
        if let Some((_, rest)) = line.split_once('{') {
            let mut rest = rest.rsplit_once('}').unwrap().0;
            while let Some((k, v)) = rest.split_once("=\"") {
                let (v, tail) = v.split_once('"').unwrap();
                if !(summaries.contains(&family) && k == "quantile") {
                    labels.push((k.to_string(), v.to_string()));
                }
                rest = tail.trim_start_matches(',');
            }
        }
        labels.sort();
        pairs.insert((family.to_string(), labels));
    }
    pairs
}

/// A JSON value, parsed just far enough to walk the metrics document.
enum Json {
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn parse_json(text: &str) -> Json {
    fn string(s: &[u8], i: &mut usize) -> String {
        assert_eq!(s[*i], b'"');
        let start = *i + 1;
        *i = start;
        while s[*i] != b'"' {
            *i += if s[*i] == b'\\' { 2 } else { 1 };
        }
        *i += 1;
        String::from_utf8(s[start..*i - 1].to_vec()).unwrap()
    }
    fn value(s: &[u8], i: &mut usize) -> Json {
        match s[*i] {
            open @ (b'{' | b'[') => {
                let close = if open == b'{' { b'}' } else { b']' };
                *i += 1;
                let (mut fields, mut items) = (Vec::new(), Vec::new());
                while s[*i] != close {
                    if open == b'{' {
                        let key = string(s, i);
                        assert_eq!(s[*i], b':');
                        *i += 1;
                        fields.push((key, value(s, i)));
                    } else {
                        items.push(value(s, i));
                    }
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
                *i += 1;
                if open == b'{' {
                    Json::Obj(fields)
                } else {
                    Json::Arr(items)
                }
            }
            b'"' => Json::Str(string(s, i)),
            _ => {
                let start = *i;
                while *i < s.len() && !b",]}".contains(&s[*i]) {
                    *i += 1;
                }
                let text = std::str::from_utf8(&s[start..*i]).unwrap();
                assert!(text.parse::<f64>().is_ok(), "bad number {text:?}");
                Json::Num
            }
        }
    }
    let mut i = 0;
    let doc = value(text.as_bytes(), &mut i);
    assert_eq!(i, text.len(), "trailing bytes after the document");
    doc
}

/// (family, label set) of every sample in the JSON document, checking
/// that each family sits under its subsystem.
fn json_pairs(json: &str) -> Pairs {
    let Json::Obj(groups) = parse_json(json) else {
        panic!("document is not an object: {json}");
    };
    let mut pairs = Pairs::new();
    for (group, families) in groups {
        let Json::Obj(families) = families else {
            panic!("group {group} is not an object");
        };
        for (family, value) in families {
            assert!(
                family.starts_with(&format!("odf_{group}")),
                "{family} under {group}"
            );
            let rows = match value {
                Json::Arr(rows) => rows,
                unlabeled => vec![unlabeled],
            };
            for row in rows {
                let mut labels = Vec::new();
                if let Json::Obj(fields) = row {
                    for (key, field) in fields {
                        match (key.as_str(), field) {
                            ("labels", Json::Obj(ls)) => {
                                for (k, v) in ls {
                                    let Json::Str(v) = v else {
                                        panic!("{family}: label {k}")
                                    };
                                    labels.push((k, v));
                                }
                            }
                            (_, Json::Num) => {}
                            (key, _) => panic!("{family}: field {key} is not a number"),
                        }
                    }
                }
                labels.sort();
                pairs.insert((family.clone(), labels));
            }
        }
    }
    pairs
}

/// One structural check over every surface the kernel's metrics reach,
/// after a fork-and-fault workload with tracing on (the allocator's
/// events included) and two probes attached: Prometheus text and JSON
/// carry the same (family, label set) pairs; every VM, pool and
/// durability counter is a family; and every summary is an `INFO trace`
/// row.
#[test]
fn exporters_are_mutually_consistent() {
    let _gate = trace_gate();
    odf_trace::set_enabled(true);
    odf_trace::set_class_enabled(EventClass::Kmem, true);
    let kernel = Kernel::new(128 * MIB);
    let (_server, conn) = server_on(&kernel);
    attach(&conn, &[b"xa", b"fault", b"count_by", b"key=pid"]);
    attach(&conn, &[b"xb", b"fault", b"lat_hist", b"key=pid"]);
    let parent = kernel.spawn().unwrap();
    let size = 512 << 10;
    let addr = parent.mmap_anon(size).unwrap();
    parent.populate(addr, size, true).unwrap();
    // Keep the ring from wrapping: the fork, the COW faults, the frees and
    // the allocator's batches below all fit.
    odf_trace::clear();
    let child = parent.fork_with(ForkPolicy::OnDemand).unwrap();
    for page in 0..size / PAGE {
        child.write_u64(addr + page * PAGE, page).unwrap();
    }
    child.exit();

    let metrics = kernel.metrics();
    let prom = metrics.prometheus();
    let json = metrics.json();
    let pairs = prom_pairs(&prom);
    assert_eq!(
        pairs,
        json_pairs(&json),
        "Prometheus vs JSON:\n{prom}\n{json}"
    );
    for probe in ["xa", "xb"] {
        assert!(
            pairs
                .iter()
                .any(|(f, l)| f == "odf_probe_key_hits_total" && l.iter().any(|(_, v)| v == probe)),
            "probe {probe} has no per-key samples"
        );
    }

    let families: BTreeSet<&str> = pairs.iter().map(|(f, _)| f.as_str()).collect();
    let stats = kernel.stats();
    let counters = [
        ("vm", stats.vm.fields()),
        ("pool", stats.pool.fields()),
        ("durability", odf_durability::stats().snapshot().fields()),
    ];
    for (subsystem, fields) in counters {
        for (name, _) in fields {
            let family = format!("odf_{subsystem}_{name}_total");
            assert!(
                families.contains(family.as_str()),
                "{family} is not a family"
            );
        }
    }

    let summaries = summary_families(&prom);
    for family in [
        "odf_trace_fault_latency_ns",
        "odf_trace_fork_latency_ns",
        "odf_trace_mag_transfer_blocks",
        "odf_trace_bulk_free_blocks",
    ] {
        assert!(summaries.contains(&family), "workload fed no {family}");
    }
    let RespValue::Bulk(Some(info)) = command(&conn, &[b"INFO", b"trace"]) else {
        panic!("INFO trace must return a bulk string");
    };
    let info = String::from_utf8(info).unwrap();
    for family in summaries {
        let row = format!("{}:", family.strip_prefix("odf_").unwrap());
        assert!(
            info.lines().any(|l| l.starts_with(&row)),
            "{family} is not an INFO trace row:\n{info}"
        );
    }

    detach(&conn, b"xa");
    detach(&conn, b"xb");
    odf_trace::set_class_enabled(EventClass::Kmem, false);
    odf_trace::set_enabled(false);
}

/// Bound on the time tracing adds to a swap-in sweep per record written.
/// Measured on a 2-core x86-64 host: ~75 ns in release builds, 120–480 ns
/// in debug builds.
const RECORD_COST_BOUND_NS: f64 = 800.0;

/// The `Reclaim` trace class end to end: an evict/swap-in workload emits
/// `ReclaimScanStart`/`Evicted`/`SwappedIn` with latencies, the events
/// reach the summary and the chrome://tracing dump, and with reclaim
/// events firing each trace record costs the sweep less than
/// [`RECORD_COST_BOUND_NS`].
#[test]
fn reclaim_events_fire_and_enabled_overhead_stays_bounded() {
    let _gate = trace_gate();
    odf_trace::set_enabled(true);
    odf_trace::clear();

    let kernel = Kernel::new(64 * MIB);
    let baseline = kernel.machine().pool().balance();
    let proc = kernel.spawn().unwrap();
    let pages = 32u64;
    let addr = proc.mmap_anon(pages * PAGE).unwrap();
    proc.populate(addr, pages * PAGE, true).unwrap();

    let mut evicted = 0u64;
    for _ in 0..2 {
        evicted += proc
            .mm()
            .evict_scan(pages as usize, &mut |_| odf_core::EvictDecision::Evict)
            .evicted;
    }
    assert_eq!(evicted, pages);
    for pg in 0..pages {
        proc.read_u64(addr + pg * PAGE).unwrap();
    }

    let trace = odf_trace::snapshot();
    odf_trace::set_enabled(false);
    let summary = trace.summary();

    // Latency histograms for both directions of the swap round trip.
    for name in ["odf_trace_evict_latency_ns", "odf_trace_swapin_latency_ns"] {
        let (_, hist) = summary
            .hists
            .get(&(name, None))
            .unwrap_or_else(|| panic!("no {name} distribution"));
        assert!(hist.count() >= pages, "{name} count");
        assert!(hist.percentile(50.0) > 0, "{name} p50");
    }

    // The same records render into the chrome://tracing dump.
    let chrome = trace.chrome_json();
    for name in ["reclaim_scan", "evict", "swap_in"] {
        assert!(
            chrome.contains(&format!(r#""name":"{name}""#)),
            "chrome dump lacks {name} events"
        );
    }

    // Enabled cost per trace record with reclaim events on: paired passes
    // of a deterministic evict-all/fault-all-back cycle, timing only the
    // application-visible fault-back sweep, divided by the records the
    // traced sweep wrote. Each attempt re-rolls allocation layout on a
    // fresh thread; the bound holds if any attempt demonstrates it — the
    // per-record cost is paid by every attempt and cannot hide behind a
    // retry.
    let cost_once = || {
        let kernel = Kernel::new(64 * MIB);
        let proc = kernel.spawn().unwrap();
        let ws = 64u64;
        let addr = proc.mmap_anon(ws * PAGE).unwrap();
        proc.populate(addr, ws * PAGE, true).unwrap();
        let pass = |on: bool| {
            odf_trace::set_enabled(false);
            let mut evicted = 0;
            for _ in 0..2 {
                evicted += proc
                    .mm()
                    .evict_scan(ws as usize, &mut |_| odf_core::EvictDecision::Evict)
                    .evicted;
            }
            assert_eq!(evicted, ws);
            odf_trace::clear();
            odf_trace::set_enabled(on);
            let start = std::time::Instant::now();
            for pg in 0..ws {
                proc.read_u64(addr + pg * PAGE).unwrap();
            }
            let ns = start.elapsed().as_nanos() as u64;
            odf_trace::set_enabled(false);
            (ns, odf_trace::snapshot().len() as u64)
        };
        let _ = pass(false);
        let (mut offs, mut ons, mut records) = (Vec::new(), Vec::new(), 0);
        for i in 0..16 {
            let (off, on) = if i % 2 == 0 {
                let off = pass(false);
                (off, pass(true))
            } else {
                let on = pass(true);
                (pass(false), on)
            };
            offs.push(off.0);
            ons.push(on.0);
            records = records.max(on.1);
        }
        // A fault record and a swap-in record per page.
        assert!(records >= 2 * ws, "traced sweep wrote {records} records");
        offs.sort_unstable();
        ons.sort_unstable();
        // Low quantile: timing noise is strictly additive.
        (ons[4] as f64 - offs[4] as f64) / records as f64
    };
    let mut attempts = Vec::new();
    for _ in 0..5 {
        let ns = cost_once();
        attempts.push(ns);
        if ns < RECORD_COST_BOUND_NS {
            break;
        }
    }
    assert!(
        attempts.iter().any(|&ns| ns < RECORD_COST_BOUND_NS),
        "enabled cost per trace record exceeded {RECORD_COST_BOUND_NS} ns in every attempt: {attempts:?}"
    );

    drop(proc);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

/// Where the telemetry golden file lives; `bless_telemetry_golden`
/// re-records it.
fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/telemetry.txt")
}

/// Trace-clock base of the golden records: far above any real reading, so
/// they are told apart from records other threads left in their rings.
const GOLDEN_TS: u64 = 1 << 50;

/// One record of every trace point at pinned fields and timestamps,
/// rendered as the chrome://tracing dump and as the summary's Prometheus
/// and JSON expositions.
fn golden_trace() -> String {
    let hits = [
        Hit::new(Point::ForkStart, &[]).kind(ForkPolicyKind::OnDemand.as_u8()),
        Hit::new(Point::ForkEnd, &[512, 7, 91_000]).kind(ForkPolicyKind::Classic.as_u8()),
        Hit::new(Point::Fault, &[2, 0x7000_1000, 2_500]).kind(FaultKind::TableCow.as_u8()),
        Hit::new(Point::CowCopy, &[9, 2 << 20, 4096]),
        Hit::new(Point::TlbFlush, &[]),
        Hit::new(Point::LockRetry, &[]).kind(LockSite::PmdOwnership.as_u8()),
        Hit::new(Point::Reclaim, &[3]),
        Hit::new(Point::FrameAlloc, &[77, 0]),
        Hit::new(Point::FrameFree, &[78, 9]),
        Hit::new(Point::MagRefill, &[0, 32]),
        Hit::new(Point::MagDrain, &[9, 4]),
        Hit::new(Point::BulkFree, &[17, 4113]),
        Hit::new(Point::ReclaimScanStart, &[12, 64]),
        Hit::new(Point::Evicted, &[99, 5, 1_234]),
        Hit::new(Point::SwappedIn, &[5, 4_321]),
        Hit::new(Point::CollapseStart, &[0x20_0000]),
        Hit::new(Point::CollapseEnd, &[0x20_0000, 512, 88_000]),
        Hit::new(Point::Demote, &[0x40_0000, 1024]),
        Hit::new(Point::CompactScan, &[700, 930]),
        Hit::new(Point::WalFsync, &[4096, 17, 12_345]),
        Hit::new(Point::SnapshotPublish, &[3, 1 << 20, 99_000]),
        Hit::new(Point::RecoveryReplay, &[41, 55_000]),
        Hit::new(Point::ReclaimPass, &[64, 900, 42_000]),
        Hit::new(Point::ReclaimBackoff, &[12]),
        Hit::new(Point::ThpPass, &[16, 3, 7_000]),
        Hit::new(Point::ThpBackoff, &[16]),
    ];
    odf_trace::set_class_enabled(EventClass::Kmem, true);
    odf_trace::set_enabled(true);
    odf_trace::clear();
    for (i, hit) in hits.into_iter().enumerate() {
        odf_trace::emit(hit.at(GOLDEN_TS + 1_000 * i as u64));
    }
    let snapshot = odf_trace::snapshot();
    odf_trace::set_enabled(false);
    odf_trace::set_class_enabled(EventClass::Kmem, false);
    // Thread ids and the drop count depend on what ran earlier in this
    // process, so both are pinned.
    let mut trace = Trace {
        events: snapshot.events,
        dropped: 3,
    };
    trace.events.retain(|r| r.ts_ns >= GOLDEN_TS);
    assert_eq!(trace.len(), 26, "one record per trace point");
    for r in &mut trace.events {
        r.thread = 0;
    }
    let mut e = Exposition::new();
    trace.summary().export(&mut e);
    format!(
        "== chrome\n{}\n== summary prometheus\n{}== summary json\n{}\n",
        trace.chrome_json(),
        e.prometheus(),
        e.json()
    )
}

/// One injected hit per probe point under each of the four programs,
/// each program under a different keying, rendered as `reports_json`.
fn golden_probes() -> String {
    let vma = (0x7000_0000, 0x7020_0000);
    let hits = [
        Hit::new(Point::Fault, &[2, 0x7000_1000, 1_500])
            .kind(FaultKind::CowData.as_u8())
            .pid(11)
            .vma(vma.0, vma.1, 0),
        Hit::new(Point::ForkEnd, &[5, 12, 90_000])
            .kind(ForkPolicyKind::OnDemand.as_u8())
            .pid(11),
        Hit::new(Point::LockRetry, &[]).kind(LockSite::PmdInstall.as_u8()),
        Hit::new(Point::Evicted, &[777, 42, 2_500]).pid(11),
        Hit::new(Point::CollapseEnd, &[0x7000_0000, 1024, 80_000])
            .pid(11)
            .vma(vma.0, vma.1, 9),
        Hit::new(Point::Demote, &[0x7000_0000, 1024])
            .pid(11)
            .order(9),
        Hit::new(Point::WalFsync, &[0, 17, 30_000, 4242]),
        Hit::new(Point::ReclaimPass, &[64, 900, 45_000]),
        Hit::new(Point::ThpPass, &[16, 3, 7_000]),
        Hit::new(Point::BulkFree, &[2, 513]),
    ];
    let programs = [
        (ProgramKind::LatHist, Keying::Kind),
        (ProgramKind::CountBy, Keying::Pid),
        (ProgramKind::SumBy, Keying::Vma),
        (ProgramKind::Watermark, Keying::Order),
    ];
    let e = odf_probe::engine();
    e.detach_all();
    for hit in &hits {
        for (program, key) in programs {
            let point = hit.desc().probe.unwrap();
            let name = format!("g_{point}_{}", program.label());
            let mut spec = ProbeSpec::new(&name, hit.point, program);
            spec.key = key;
            e.attach(spec).unwrap();
        }
    }
    for hit in hits {
        e.inject(&hit);
    }
    let json = odf_probe::reports_json(&e.read_all());
    e.detach_all();
    json
}

/// `Kernel::metrics_json` after a fixed single-threaded script, tracing
/// off and no probe attached: fork, writes in both processes, a partial
/// munmap, evict and swap back in, collapse and demote.
fn golden_metrics() -> String {
    odf_trace::set_enabled(false);
    odf_probe::engine().detach_all();
    let kernel = Kernel::new(64 * MIB);
    kernel.reset_metrics_window();
    let parent = kernel.spawn().unwrap();
    let size = 4 * MIB;
    let addr = parent.mmap_anon(size).unwrap();
    parent.populate(addr, size, true).unwrap();
    let child = parent.fork_with(ForkPolicy::OnDemand).unwrap();
    for page in 0..16 {
        parent.write_u64(addr + page * PAGE, page).unwrap();
        child.write_u64(addr + (16 + page) * PAGE, page).unwrap();
    }
    child.munmap(addr + MIB, 16 * PAGE).unwrap();
    child.exit();
    let evicted = parent.mm().evict_scan(8, &mut |_| EvictDecision::Evict);
    assert_eq!(evicted.evicted, 8);
    for page in 0..size / PAGE {
        parent.read_u64(addr + page * PAGE).unwrap();
    }
    let span = addr + 2 * MIB;
    assert_eq!(parent.mm().collapse_huge(span), Ok(ThpOutcome::Collapsed));
    assert_eq!(parent.mm().demote_huge(span), Ok(ThpOutcome::Demoted));
    kernel.metrics_json()
}

/// `body` with the number after every `"key":` replaced by 0.
fn pin_numbers(body: &str, key: &str) -> String {
    let key = format!("\"{key}\":");
    let mut pinned = String::new();
    let mut rest = body;
    while let Some(at) = rest.find(&key) {
        let (head, tail) = rest.split_at(at + key.len());
        pinned.push_str(head);
        pinned.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    pinned.push_str(rest);
    pinned
}

/// The flight-recorder bundle of the seeded incident run, with its thread
/// ids and ring drop count pinned: both count what traced before it in
/// this process.
fn golden_blackbox() -> String {
    let dir = std::env::temp_dir().join("odf_blackbox_golden");
    let (name, bytes) = incident::seeded_incident_run(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let body = String::from_utf8(bytes).unwrap();
    let body = pin_numbers(&pin_numbers(&body, "tid"), "dropped");
    format!("== blackbox {name}\n{body}\n")
}

/// Everything the golden file pins, in file order.
fn telemetry() -> String {
    format!(
        "{}== probes\n{}\n== metrics\n{}\n{}",
        golden_trace(),
        golden_probes(),
        golden_metrics(),
        golden_blackbox()
    )
}

/// The exporters' output for fixed inputs is byte-identical to the
/// recorded golden file: the chrome dump, the trace summary, the probe
/// reports, the kernel metrics and the flight-recorder bundle.
#[test]
fn telemetry_matches_golden_file() {
    let _gate = trace_gate();
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file missing: run `cargo test -p odf-tests --test observability -- --ignored bless_telemetry_golden`");
    let now = telemetry();
    for (i, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", i + 1);
    }
    assert_eq!(now, golden, "golden file length differs");
}

/// Re-records the golden file (run with `--ignored` after an intended
/// change to an exporter).
#[test]
#[ignore]
fn bless_telemetry_golden() {
    let _gate = trace_gate();
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, telemetry()).unwrap();
}
