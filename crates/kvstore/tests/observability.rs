//! Observability surface of the kvstore: the `PROBE` RESP command family,
//! exporter consistency across the three read paths (Prometheus text ↔
//! JSON ↔ RESP `PROBE READ`), per-pid attribution during `BGSAVE`, and
//! `STATS RESET` windowing.
//!
//! The probe engine is process-global; tests serialize on one gate and
//! detach everything they attach.

use std::sync::Mutex;

use odf_core::Kernel;
use odf_kvstore::{encode_command, Connection, PerCoreConfig, PerCoreServer, RespValue};

static GATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A one-shard server and a connection to it.
struct Served {
    server: PerCoreServer,
    conn: Connection,
}

impl std::ops::Deref for Served {
    type Target = PerCoreServer;

    fn deref(&self) -> &PerCoreServer {
        &self.server
    }
}

fn server() -> Served {
    let kernel = Kernel::new(128 << 20);
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 32 << 20,
            ..Default::default()
        },
    )
    .unwrap();
    let conn = server.connect_to(0);
    Served { server, conn }
}

fn run(s: &mut Served, parts: &[&[u8]]) -> RespValue {
    s.conn.send(&encode_command(parts));
    let mut wire = Vec::new();
    s.conn.await_replies(1, &mut wire);
    let (reply, used) = RespValue::decode(&wire).expect("one complete reply");
    assert_eq!(used, wire.len());
    reply
}

fn bulk_string(v: RespValue) -> String {
    match v {
        RespValue::Bulk(Some(b)) => String::from_utf8(b).unwrap(),
        other => panic!("expected bulk, got {other:?}"),
    }
}

/// Extracts `"hits":N` from the probe object named `name` inside a
/// `PROBE READ` report.
fn probe_hits_in_json(doc: &str, name: &str) -> u64 {
    let obj = doc
        .split(&format!("\"name\":\"{name}\""))
        .nth(1)
        .unwrap_or_else(|| panic!("probe {name} missing in {doc}"));
    obj.split("\"hits\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no hits field for {name} in {doc}"))
}

/// Extracts the value of the `odf_probe_hits_total` sample labeled
/// `probe="name"` from the `STATS JSON` export.
fn probe_hits_in_stats_json(doc: &str, name: &str) -> u64 {
    let family = doc
        .split("\"odf_probe_hits_total\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .unwrap_or_else(|| panic!("no odf_probe_hits_total in {doc}"));
    family
        .split(&format!("\"probe\":\"{name}\""))
        .nth(1)
        .and_then(|s| s.split("\"value\":").nth(1))
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no hits sample for {name} in {doc}"))
}

/// Extracts the value of `odf_probe_hits_total{probe="name",...}` from a
/// Prometheus text exposition.
fn probe_hits_in_prom(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with("odf_probe_hits_total") && l.contains(&format!("probe=\"{name}\"")))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no hits sample for {name} in {text}"))
}

#[test]
fn probe_command_grammar_round_trips() {
    let _g = lock();
    odf_probe::engine().detach_all();
    let mut s = server();

    // Attach, list, read, detach — the bpftrace session over RESP.
    assert_eq!(
        run(
            &mut s,
            &[
                b"PROBE",
                b"ATTACH",
                b"g1",
                b"fault",
                b"lat_hist",
                b"key=pid"
            ]
        ),
        RespValue::Simple("OK".into())
    );
    // Duplicate names are rejected, not silently replaced.
    assert!(matches!(
        run(&mut s, &[b"PROBE", b"ATTACH", b"g1", b"fault", b"lat_hist"]),
        RespValue::Error(_)
    ));
    // Bad grammar is an error, not a panic.
    assert!(matches!(
        run(
            &mut s,
            &[b"PROBE", b"ATTACH", b"g2", b"nosuchpoint", b"lat_hist"]
        ),
        RespValue::Error(_)
    ));

    match run(&mut s, &[b"PROBE", b"LIST"]) {
        RespValue::Array(items) => {
            assert_eq!(items.len(), 1);
            let line = match &items[0] {
                RespValue::Bulk(Some(b)) => String::from_utf8(b.clone()).unwrap(),
                other => panic!("{other:?}"),
            };
            assert!(line.contains("g1 fault lat_hist key=pid"), "{line}");
        }
        other => panic!("expected array, got {other:?}"),
    }

    // Generate fault traffic so the read has content.
    for i in 0..32u32 {
        let k = format!("key-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[0u8; 4096]]);
    }
    let report = bulk_string(run(&mut s, &[b"PROBE", b"READ", b"g1"]));
    assert!(probe_hits_in_json(&report, "g1") > 0, "{report}");

    assert_eq!(
        run(&mut s, &[b"PROBE", b"RESET"]),
        RespValue::Simple("OK".into())
    );
    let report = bulk_string(run(&mut s, &[b"PROBE", b"READ", b"g1"]));
    assert_eq!(probe_hits_in_json(&report, "g1"), 0, "{report}");

    assert_eq!(
        run(&mut s, &[b"PROBE", b"DETACH", b"g1"]),
        RespValue::Integer(1)
    );
    assert_eq!(
        run(&mut s, &[b"PROBE", b"DETACH", b"g1"]),
        RespValue::Integer(0)
    );
    // Reading a detached probe is a null bulk.
    assert_eq!(
        run(&mut s, &[b"PROBE", b"READ", b"g1"]),
        RespValue::Bulk(None)
    );
}

/// The same probe counters through all three wire surfaces. No traffic
/// runs between the three reads, so they must agree exactly.
#[test]
fn probe_metrics_agree_across_prometheus_json_and_resp() {
    let _g = lock();
    odf_probe::engine().detach_all();
    let mut s = server();

    run(
        &mut s,
        &[
            b"PROBE",
            b"ATTACH",
            b"xc_fault",
            b"fault",
            b"count_by",
            b"key=pid",
        ],
    );
    for i in 0..64u32 {
        let k = format!("xc-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[7u8; 2048]]);
    }

    let prom = bulk_string(run(&mut s, &[b"STATS"]));
    let json = bulk_string(run(&mut s, &[b"STATS", b"JSON"]));
    let resp = bulk_string(run(&mut s, &[b"PROBE", b"READ", b"xc_fault"]));

    let from_prom = probe_hits_in_prom(&prom, "xc_fault");
    let from_json = probe_hits_in_stats_json(&json, "xc_fault");
    let from_resp = probe_hits_in_json(&resp, "xc_fault");
    assert!(from_prom > 0);
    assert_eq!(from_prom, from_json, "Prometheus vs STATS JSON");
    assert_eq!(from_json, from_resp, "STATS JSON vs PROBE READ");

    assert_eq!(
        run(&mut s, &[b"PROBE", b"DETACH", b"xc_fault"]),
        RespValue::Integer(1)
    );
}

/// The acceptance question: which pid dominated p999 fault latency during
/// a BGSAVE? A pid-keyed `lat_hist` probe over the COW storm following the
/// snapshot fork answers it — the server process is the hottest key.
#[test]
fn bgsave_fault_tail_attributes_to_server_pid() {
    let _g = lock();
    odf_probe::engine().detach_all();
    let mut s = server();

    // Build a dirty working set before the snapshot fork.
    for i in 0..128u32 {
        let k = format!("bg-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[1u8; 4096]]);
    }

    run(
        &mut s,
        &[
            b"PROBE",
            b"ATTACH",
            b"bg_p999",
            b"fault",
            b"lat_hist",
            b"key=pid",
        ],
    );
    assert!(matches!(run(&mut s, &[b"BGSAVE"]), RespValue::Simple(_)));
    // Overwrite the working set while the snapshot child holds the other
    // side of the COW sharing — every write faults in the server.
    for i in 0..128u32 {
        let k = format!("bg-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[2u8; 4096]]);
    }
    s.wait_snapshots();
    // A read on the worker merges the hits it holds per thread.
    run(&mut s, &[b"PROBE", b"READ", b"bg_p999"]);

    let report = odf_probe::engine().read("bg_p999").expect("report");
    let server_key = format!("pid {}", s.process().pid().0);
    let top = report.keys.iter().max_by_key(|k| k.hits).expect("keys");
    assert_eq!(top.label, server_key, "{report:?}");
    let lat = top.lat.as_ref().expect("lat_hist carries a latency digest");
    assert!(lat.p999_ns > 0, "p999 answerable per pid");
    assert!(odf_probe::engine().detach("bg_p999"));
}

/// `STATS RESET` starts a fresh measurement window: windowed counters
/// drop to zero and subsequent traffic is counted from the new baseline.
#[test]
fn stats_reset_opens_a_fresh_window() {
    let _g = lock();
    odf_probe::engine().detach_all();
    let mut s = server();

    for i in 0..64u32 {
        let k = format!("w-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[3u8; 2048]]);
    }
    let before = bulk_string(run(&mut s, &[b"STATS"]));
    let faults = |text: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with("odf_vm_faults_total"))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap()
    };
    assert!(faults(&before) > 0);

    assert_eq!(
        run(&mut s, &[b"STATS", b"RESET"]),
        RespValue::Simple("OK".into())
    );
    let after = bulk_string(run(&mut s, &[b"STATS"]));
    assert_eq!(faults(&after), 0, "window re-baselined:\n{after}");

    for i in 0..8u32 {
        let k = format!("w2-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[4u8; 2048]]);
    }
    let windowed = faults(&bulk_string(run(&mut s, &[b"STATS"])));
    assert!(windowed > 0, "new traffic lands in the fresh window");
    assert!(
        windowed < faults(&before),
        "window excludes pre-reset traffic"
    );
}

/// `INFO stats` reads the same metrics window as `STATS`, and lists every
/// unlabeled counter and gauge, not only the VM and pool counters.
#[test]
fn info_stats_reads_the_metrics_window() {
    let _g = lock();
    let mut s = server();
    for i in 0..64u32 {
        let k = format!("i-{i}");
        run(&mut s, &[b"SET", k.as_bytes(), &[5u8; 2048]]);
    }
    let info = |s: &mut Served| bulk_string(run(s, &[b"INFO", b"stats"]));
    assert!(!info(&mut s).contains("vm_faults:0\r\n"));
    assert_eq!(
        run(&mut s, &[b"STATS", b"RESET"]),
        RespValue::Simple("OK".into())
    );
    let stats = info(&mut s);
    assert!(stats.contains("\r\nvm_faults:0\r\n"), "{stats}");
    for key in [
        "pool_allocs:",
        "pool_external_fragmentation:",
        "durability_wal_appends:",
        "durability_group_commit_lag:",
        "mem_free_bytes:",
        "processes:",
    ] {
        assert!(
            stats.contains(&format!("\r\n{key}")),
            "{key} missing:\n{stats}"
        );
    }
}
