//! Resource conservation under stress: no frame, table, or refcount leaks
//! across fork trees, failures, and concurrency.

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel, MapParams, Process, VmError};
use odf_tests::random_script;

const MIB: u64 = 1 << 20;

/// Runs `f` and asserts the kernel returns to its pre-call footprint.
fn conserves(kernel: &Arc<Kernel>, f: impl FnOnce()) {
    let before = kernel.free_bytes();
    f();
    assert_eq!(kernel.free_bytes(), before, "physical frames leaked");
    assert_eq!(kernel.machine().live_tables(), 0, "page tables leaked");
}

#[test]
fn random_scripts_conserve_resources() {
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        for seed in 100..110u64 {
            let script = random_script(seed, 80, 64);
            let _ = odf_tests::replay(&script, policy, 64);
            // replay builds its own kernel; conservation is checked by a
            // fresh run below where the kernel outlives the processes.
            let kernel = Kernel::new(64 * MIB);
            conserves(&kernel, || {
                let root = kernel.spawn().unwrap();
                let addr = root.mmap_anon(8 * MIB).unwrap();
                root.populate(addr, 8 * MIB, true).unwrap();
                let kids: Vec<Process> = (0..4).map(|_| root.fork_with(policy).unwrap()).collect();
                for (i, k) in kids.iter().enumerate() {
                    k.write_u64(addr + i as u64 * MIB, i as u64).unwrap();
                }
                drop(kids);
                drop(root);
            });
        }
    }
}

#[test]
fn wide_fanout_conserves_resources() {
    let kernel = Kernel::new(128 * MIB);
    conserves(&kernel, || {
        let root = kernel.spawn().unwrap();
        let addr = root.mmap_anon(16 * MIB).unwrap();
        root.populate(addr, 16 * MIB, true).unwrap();
        // 32 ODF children sharing the same tables.
        let kids: Vec<Process> = (0..32)
            .map(|_| root.fork_with(ForkPolicy::OnDemand).unwrap())
            .collect();
        let table = root.mm().pmd_entry(addr).unwrap().frame();
        assert_eq!(kernel.machine().pool().pt_share_count(table), 33);
        drop(kids);
        assert_eq!(kernel.machine().pool().pt_share_count(table), 1);
        drop(root);
    });
}

#[test]
fn deep_chain_conserves_resources() {
    let kernel = Kernel::new(128 * MIB);
    conserves(&kernel, || {
        let root = kernel.spawn().unwrap();
        let addr = root.mmap_anon(4 * MIB).unwrap();
        root.populate(addr, 4 * MIB, true).unwrap();
        let mut chain = vec![root];
        for g in 0..16u64 {
            let next = chain
                .last()
                .unwrap()
                .fork_with(ForkPolicy::OnDemand)
                .unwrap();
            next.write_u64(addr + (g % 4) * MIB, g).unwrap();
            chain.push(next);
        }
        // Drop from the middle outward.
        while chain.len() > 1 {
            chain.remove(chain.len() / 2);
        }
        assert_eq!(kernel.process_count(), 1);
    });
}

#[test]
fn failed_forks_do_not_leak() {
    // A pool just big enough for the parent; classic forks fail mid-copy.
    // mlockall keeps direct reclaim from quietly swapping the parent's
    // pages out to satisfy the fork — this test is about the failure path.
    let kernel = Kernel::new(2060 * 4096);
    let root = kernel.spawn().unwrap();
    root.mlockall();
    let addr = root.mmap_anon(8 * MIB).unwrap();
    root.populate(addr, 8 * MIB, true).unwrap();
    let free = kernel.free_bytes();
    for _ in 0..10 {
        assert!(matches!(
            root.fork_with(ForkPolicy::Classic),
            Err(VmError::NoMemory)
        ));
        assert_eq!(kernel.free_bytes(), free, "failed fork leaked");
    }
    // ODF still succeeds in the same conditions (one of its side
    // benefits: far smaller allocation footprint at fork time).
    let child = root.fork_with(ForkPolicy::OnDemand).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 0);
}

#[test]
fn oom_during_fault_is_reported_not_fatal() {
    // With the address space pinned resident (mlockall), reclaim has no
    // eviction target and exhausting the pool is a hard, reported error.
    let kernel = Kernel::new(600 * 4096);
    let root = kernel.spawn().unwrap();
    root.mlockall();
    let addr = root.mmap_anon(16 * MIB).unwrap();
    // Touch pages until the pool runs dry.
    let mut err = None;
    let mut mapped = 0u64;
    for pg in 0..4096u64 {
        match root.write_u64(addr + pg * 4096, pg) {
            Ok(()) => mapped += 1,
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    assert_eq!(err, Some(VmError::NoMemory));
    // Already-mapped memory still works.
    assert_eq!(root.read_u64(addr).unwrap(), 0);
    root.write_u64(addr, 42).unwrap();
    assert_eq!(root.read_u64(addr).unwrap(), 42);

    // Unpinning makes the space an eviction target again: the very same
    // fault now succeeds by swapping a cold page out (overcommit).
    root.munlockall();
    root.write_u64(addr + mapped * 4096, mapped).unwrap();
    assert!(kernel.stats().vm.pages_swapped_out > 0);
}

#[test]
fn concurrent_fork_trees_conserve_resources() {
    let kernel = Kernel::new(256 * MIB);
    conserves(&kernel, || {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let kernel = Arc::clone(&kernel);
                s.spawn(move || {
                    let root = kernel.spawn().unwrap();
                    let addr = root.mmap_anon(8 * MIB).unwrap();
                    root.populate(addr, 8 * MIB, true).unwrap();
                    for i in 0..8u64 {
                        let policy = if (t + i) % 2 == 0 {
                            ForkPolicy::OnDemand
                        } else {
                            ForkPolicy::Classic
                        };
                        let child = root.fork_with(policy).unwrap();
                        child.write_u64(addr + (i % 8) * MIB, t * 100 + i).unwrap();
                        child.exit();
                    }
                });
            }
        });
    });
}

#[test]
fn mixed_mapping_kinds_conserve_resources() {
    let kernel = Kernel::new(256 * MIB);
    conserves(&kernel, || {
        let root = kernel.spawn().unwrap();
        let anon = root.mmap_anon(4 * MIB).unwrap();
        let huge = root.mmap_anon_huge(4 * MIB).unwrap();
        let file = Arc::new(odf_core::VmFile::with_len(2 * MIB as usize));
        let faddr = root
            .mmap(
                2 * MIB,
                MapParams {
                    backing: odf_core::Backing::File {
                        file: Arc::clone(&file),
                        pgoff: 0,
                    },
                    ..MapParams::anon_rw()
                },
            )
            .unwrap();
        root.populate(anon, 4 * MIB, true).unwrap();
        root.write_u64(huge, 1).unwrap();
        root.write_u64(faddr, 2).unwrap();
        let child = root.fork_with(ForkPolicy::OnDemand).unwrap();
        child.write_u64(anon, 3).unwrap();
        child.write_u64(huge + 2 * MIB, 4).unwrap();
        child.write_u64(faddr + 4096, 5).unwrap();
        drop(child);
        drop(root);
        // Page-cache pages are owned by the file, not the processes.
        file.drop_cache(kernel.machine().pool());
    });
}
