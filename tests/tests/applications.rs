//! Cross-crate integration: the application substrates composed over the
//! simulated kernel, under both fork policies.

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel};
use odf_fuzz::targets::{GuestVmTarget, SqlTarget};
use odf_fuzz::{FuzzConfig, Fuzzer, Target};
use odf_guestvm::GuestVm;
use odf_kvstore::{workload, PerCoreConfig, PerCoreServer, Store};
use odf_sqldb::testkit::{DatasetConfig, ForkTestHarness, UNIT_TESTS};
use odf_sqldb::{Database, QueryResult};

const MIB: u64 = 1 << 20;

#[test]
fn kvstore_snapshots_are_consistent_under_live_writes() {
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let kernel = Kernel::new(128 * MIB);
        let server = PerCoreServer::new(
            &kernel,
            PerCoreConfig {
                shards: 1,
                heap_per_shard: 32 * MIB,
                buckets: 1024,
                fork_policy: policy,
            },
        )
        .unwrap();
        let cfg = workload::WorkloadConfig {
            key_space: 300,
            value_size: 64,
            set_ratio: 1.0,
            pipeline: 50,
            seed: 5,
        };
        workload::preload_percore(&server, &cfg);
        let report = workload::run_percore(&server, &cfg, 1, 2_000, Some(500));
        assert_eq!(report.requests, 2_000);
        assert_eq!(report.snapshots.len(), 4, "{policy:?}: one per 500 SETs");
        for snap in &report.snapshots {
            // Every snapshot captured the full preloaded key space.
            let items = u64::from_le_bytes(snap.dumps[0][..8].try_into().unwrap());
            assert_eq!(items, 300, "{policy:?}");
        }
        // The kernel shows the expected fork counts.
        let stats = kernel.stats();
        let forks = stats.vm.forks_classic + stats.vm.forks_odf;
        assert_eq!(forks, report.snapshots.len() as u64);
    }
}

#[test]
fn kvstore_dump_restores_into_fresh_kernel() {
    let kernel = Kernel::new(64 * MIB);
    let proc = kernel.spawn().unwrap();
    let store = Store::create(&proc, 16 * MIB, 128).unwrap();
    for i in 0..200u32 {
        store
            .set(&proc, format!("key:{i}").as_bytes(), &i.to_le_bytes())
            .unwrap();
    }
    // Snapshot through an ODF child, then restore on another "machine".
    let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
    let dump = store.serialize(&child).unwrap();
    child.exit();

    let kernel2 = Kernel::new(64 * MIB);
    let proc2 = kernel2.spawn().unwrap();
    let restored = Store::restore(&proc2, 16 * MIB, 128, &dump).unwrap();
    for i in 0..200u32 {
        assert_eq!(
            restored
                .get(&proc2, format!("key:{i}").as_bytes())
                .unwrap()
                .unwrap(),
            i.to_le_bytes()
        );
    }
}

#[test]
fn sql_fork_tests_agree_across_policies() {
    // The same unit test must return identical row counts under both
    // policies (drop-in replacement at the application level).
    let dataset = DatasetConfig {
        rows: 300,
        hot_rows: 150,
        heap_capacity: 32 * MIB,
        resident_bytes: 2 * MIB,
        ..Default::default()
    };
    let mut per_policy = Vec::new();
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let kernel = Kernel::new(128 * MIB);
        let harness = ForkTestHarness::initialize(&kernel, &dataset, policy).unwrap();
        let rows: Vec<usize> = UNIT_TESTS
            .iter()
            .map(|t| harness.run_test(t).unwrap().rows)
            .collect();
        per_policy.push(rows);
    }
    assert_eq!(per_policy[0], per_policy[1]);
}

#[test]
fn sql_database_survives_fuzzing_campaign() {
    let kernel = Kernel::new(128 * MIB);
    let master = kernel.spawn().unwrap();
    let db = Database::create(&master, 32 * MIB).unwrap();
    db.execute(&master, "CREATE TABLE t (a INT, b TEXT)")
        .unwrap();
    for i in 0..100 {
        db.execute(&master, &format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .unwrap();
    }
    let target = SqlTarget::new(db, &["t", "a", "b"]);
    let mut fuzzer = Fuzzer::new(
        &master,
        &target,
        FuzzConfig {
            policy: ForkPolicy::OnDemand,
            max_input_len: 96,
            seed: 17,
            ..FuzzConfig::default()
        },
        &[b"SELECT * FROM t WHERE a = 5".to_vec()],
    )
    .unwrap();
    fuzzer.fuzz_n(500).unwrap();
    // Whatever the fuzzer mutated ran in children; the master's database
    // is intact.
    assert_eq!(db.row_count(&master, "t").unwrap(), 100);
    let QueryResult::Rows(rows) = db.execute(&master, "SELECT b FROM t WHERE a = 42").unwrap()
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(kernel.process_count(), 1);
}

#[test]
fn guest_vm_clones_never_corrupt_the_master_guest() {
    let kernel = Kernel::new(128 * MIB);
    let master = kernel.spawn().unwrap();
    let vm = GuestVm::install(&master, 8 * MIB).unwrap();
    // Record a marker in guest memory.
    vm.write_u64(&master, 0x20000, 0xC0FF_EE00_DEAD_BEEF)
        .unwrap();
    let target = GuestVmTarget::new(vm, 500).with_driver_iterations(10);
    let mut fuzzer = Fuzzer::new(
        &master,
        &target,
        FuzzConfig {
            policy: ForkPolicy::OnDemand,
            max_input_len: 64,
            seed: 23,
            ..FuzzConfig::default()
        },
        &[target.dictionary().concat()],
    )
    .unwrap();
    fuzzer.fuzz_n(300).unwrap();
    let stats = fuzzer.stats();
    assert!(stats.execs >= 300);
    assert_eq!(
        vm.read_u64(&master, 0x20000).unwrap().unwrap(),
        0xC0FF_EE00_DEAD_BEEF,
        "clone writes leaked into the master guest"
    );
}

#[test]
fn procfs_switch_makes_applications_transparent() {
    // The §4 "Flexibility" path: the application calls plain fork();
    // the operator flips the policy externally.
    let kernel = Kernel::new(128 * MIB);
    let proc = kernel.spawn().unwrap();
    let addr = proc.mmap_anon(8 * MIB).unwrap();
    proc.populate(addr, 8 * MIB, true).unwrap();

    let before = kernel.stats();
    let c1 = proc.fork().unwrap(); // default: classic
    kernel.set_fork_policy(proc.pid(), Some(ForkPolicy::OnDemand));
    let c2 = proc.fork().unwrap(); // same call, now on-demand
    let delta = kernel.stats() - before;
    assert_eq!(delta.vm.forks_classic, 1);
    assert_eq!(delta.vm.forks_odf, 1);
    assert_eq!(c1.read_u64(addr).unwrap(), c2.read_u64(addr).unwrap());
}

#[test]
fn many_kernels_coexist_in_one_host_process() {
    // Each Kernel is an isolated simulated machine.
    let kernels: Vec<Arc<Kernel>> = (0..4).map(|_| Kernel::new(16 * MIB)).collect();
    let procs: Vec<_> = kernels.iter().map(|k| k.spawn().unwrap()).collect();
    for (i, p) in procs.iter().enumerate() {
        let a = p.mmap_anon(MIB).unwrap();
        p.write_u64(a, i as u64).unwrap();
    }
    for (i, k) in kernels.iter().enumerate() {
        assert_eq!(k.process_count(), 1, "kernel {i}");
    }
}
