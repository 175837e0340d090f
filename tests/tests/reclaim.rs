//! Memory-pressure acceptance: reclaim must be invisible to applications.
//!
//! The subsystem's contract is the kernel's: evicting a page to swap and
//! faulting it back is not an observable event (beyond latency). These
//! tests hold that contract under three kinds of fire — randomized
//! workloads replayed under aggressive reclaim against a no-reclaim
//! oracle, a fault-vs-evict race on shared state, and forks taken while
//! the eviction scanner is running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use odf_core::{DaemonConfig, EvictDecision, FifoPolicy, ForkPolicy, Kernel, LruPolicy, Process};
use odf_pmem::assert_pool_balanced;
use odf_tests::{random_script, replay, replay_pressured, Action};
use proptest::prelude::*;

const PAGE: u64 = 4096;

// ---------------------------------------------------------------------
// Differential: aggressive reclaim vs the no-reclaim oracle
// ---------------------------------------------------------------------

#[test]
fn fixed_scripts_agree_under_memory_pressure() {
    for seed in 100..112u64 {
        let script = random_script(seed, 50, 48);
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let oracle = replay(&script, policy, 48);
            let pressured = replay_pressured(&script, policy, 48);
            assert_eq!(
                oracle, pressured,
                "seed {seed} {policy:?} diverged under pressure:\n{script:#?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Property: replaying any script under an undersized pool with the
    /// reclaim daemon evicting aggressively yields memory images
    /// bit-identical to the same script on an oversized pool with no
    /// reclaim at all.
    #[test]
    fn prop_reclaim_is_transparent(seed in 50_000u64..60_000) {
        let script = random_script(seed, 40, 32);
        let oracle = replay(&script, ForkPolicy::OnDemand, 32);
        let pressured = replay_pressured(&script, ForkPolicy::OnDemand, 32);
        prop_assert_eq!(oracle, pressured);
    }

    /// Same property for classic fork: eviction interleaved with eager
    /// page copies must also be invisible.
    #[test]
    fn prop_reclaim_transparent_under_classic_fork(seed in 60_000u64..70_000) {
        let script = random_script(seed, 30, 24);
        let oracle = replay(&script, ForkPolicy::Classic, 24);
        let pressured = replay_pressured(&script, ForkPolicy::Classic, 24);
        prop_assert_eq!(oracle, pressured);
    }
}

#[test]
fn pressured_replay_stats_balance() {
    // Beyond content equality: after a pressured replay every swap slot
    // and every frame must be home again, and the swap counters must
    // cover each other (you cannot swap in more than ever went out).
    let script = random_script(4242, 60, 48);
    let kernel = Kernel::new(96 * PAGE);
    let baseline = kernel.machine().pool().balance();
    kernel.start_reclaim_daemon(
        Box::new(FifoPolicy),
        DaemonConfig {
            interval: Duration::from_micros(200),
            batch: 16,
        },
    );
    odf_tests::replay_on(&kernel, &script, ForkPolicy::OnDemand, 48);
    kernel.stop_reclaim_daemon();
    let stats = kernel.stats();
    assert!(
        stats.vm.pages_swapped_in <= stats.vm.pages_swapped_out,
        "swapped in {} > out {}",
        stats.vm.pages_swapped_in,
        stats.vm.pages_swapped_out
    );
    assert_eq!(kernel.machine().swap().used_slots(), 0, "leaked swap slots");
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Stress: fault vs evict racing on the same PTE tables
// ---------------------------------------------------------------------

/// Four mutator threads read-modify-write a shared-kernel working set
/// while a fifth thread runs the eviction scanner flat out. Every page
/// carries a self-describing value, so a single lost or torn swap
/// round-trip shows up as a value mismatch. The writers start only once
/// the scanner has finished its first scan, so the two always overlap.
#[test]
fn fault_vs_evict_race_preserves_every_write() {
    let kernel = Kernel::new(128 * PAGE);
    let baseline = kernel.machine().pool().balance();
    let proc = Arc::new(kernel.spawn().unwrap());
    let pages = 96u64;
    let addr = proc.mmap_anon(pages * PAGE).unwrap();
    for pg in 0..pages {
        proc.write_u64(addr + pg * PAGE, pg << 8).unwrap();
    }

    let writers = 4u64;
    let rounds = 200u64;
    let stop = Arc::new(AtomicBool::new(false));
    let first_scan = Arc::new(Barrier::new(writers as usize + 1));
    let evictor = {
        let proc = Arc::clone(&proc);
        let stop = Arc::clone(&stop);
        let first_scan = Arc::clone(&first_scan);
        std::thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                proc.mm().evict_scan(8, &mut |_| EvictDecision::Evict);
                scans += 1;
                if scans == 1 {
                    first_scan.wait();
                }
            }
            scans
        })
    };

    std::thread::scope(|s| {
        for t in 0..writers {
            let proc = Arc::clone(&proc);
            let first_scan = Arc::clone(&first_scan);
            s.spawn(move || {
                first_scan.wait();
                // Each thread owns a disjoint page stripe; within it, every
                // round increments the page's counter through a read — so a
                // stale swap copy resurfacing would freeze or skip counts.
                for round in 0..rounds {
                    for pg in (t..pages).step_by(writers as usize) {
                        let va = addr + pg * PAGE;
                        let v = proc.read_u64(va).unwrap();
                        assert_eq!(v, (pg << 8) + round, "page {pg} round {round}");
                        proc.write_u64(va, v + 1).unwrap();
                    }
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    let scans = evictor.join().unwrap();
    assert!(scans > 0);

    for pg in 0..pages {
        assert_eq!(proc.read_u64(addr + pg * PAGE).unwrap(), (pg << 8) + rounds);
    }
    let stats = kernel.stats();
    assert!(stats.vm.pages_swapped_out > 0, "scanner never evicted");

    drop(proc);
    assert_eq!(kernel.machine().swap().used_slots(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Stress: fork while the eviction scanner is running
// ---------------------------------------------------------------------

/// On-demand forks are taken continuously while the eviction scanner
/// runs: children must observe the parent's exact image whether a page
/// was resident, evicted, or mid-flight, and child writes must never
/// bleed back. Ends with the full leak check.
#[test]
fn fork_during_eviction_keeps_children_consistent() {
    let kernel = Kernel::new(160 * PAGE);
    let baseline = kernel.machine().pool().balance();
    let parent = Arc::new(kernel.spawn().unwrap());
    let pages = 64u64;
    let addr = parent.mmap_anon(pages * PAGE).unwrap();
    for pg in 0..pages {
        parent
            .write_u64(addr + pg * PAGE, 0xbeef_0000 + pg)
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let evictor = {
        let parent = Arc::clone(&parent);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut policy = LruPolicy::new();
            while !stop.load(Ordering::Relaxed) {
                use odf_core::ReclaimPolicy;
                parent.mm().evict_scan(8, &mut |c| policy.decide(c));
                std::thread::yield_now();
            }
        })
    };

    for gen in 0..40u64 {
        let child: Process = parent.fork_with(ForkPolicy::OnDemand).unwrap();
        // The child sees the parent's image exactly, including pages that
        // are currently sitting in swap.
        for pg in 0..pages {
            assert_eq!(
                child.read_u64(addr + pg * PAGE).unwrap(),
                0xbeef_0000 + pg,
                "gen {gen} page {pg}"
            );
        }
        // Child writes stay private.
        child.write_u64(addr, 0xdead_0000 + gen).unwrap();
        assert_eq!(parent.read_u64(addr).unwrap(), 0xbeef_0000);
        child.exit();
    }
    stop.store(true, Ordering::Relaxed);
    evictor.join().unwrap();

    for pg in 0..pages {
        assert_eq!(parent.read_u64(addr + pg * PAGE).unwrap(), 0xbeef_0000 + pg);
    }
    drop(parent);
    assert_eq!(kernel.machine().swap().used_slots(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Direct reclaim: allocation failure rescues itself
// ---------------------------------------------------------------------

/// With no daemon at all, a working set larger than physical memory still
/// completes: every failed allocation runs direct reclaim synchronously.
#[test]
fn direct_reclaim_alone_sustains_oversized_working_set() {
    let kernel = Kernel::new(64 * PAGE);
    let baseline = kernel.machine().pool().balance();
    let proc = kernel.spawn().unwrap();
    let pages = 128u64;
    let addr = proc.mmap_anon(pages * PAGE).unwrap();
    for pass in 0..2u64 {
        for pg in 0..pages {
            proc.write_u64(addr + pg * PAGE, (pass << 32) | pg).unwrap();
        }
        for pg in 0..pages {
            assert_eq!(proc.read_u64(addr + pg * PAGE).unwrap(), (pass << 32) | pg);
        }
    }
    let stats = kernel.stats();
    assert!(
        stats.vm.pages_swapped_out >= pages,
        "direct reclaim must carry the load"
    );
    assert!(stats.pool.alloc_failures > 0, "pressure was never hit");
    drop(proc);
    assert_eq!(kernel.machine().swap().used_slots(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Sanity: a script that leans on every action kind under pressure
// ---------------------------------------------------------------------

#[test]
fn mixed_action_script_with_unmap_over_swapped_pages() {
    // Unmap and MADV_DONTNEED over ranges that have been evicted must
    // free their swap slots, not leak them.
    let script = vec![
        Action::Write {
            who: 0,
            offset: 0,
            len: 32 * 4096,
            seed: 7,
        },
        Action::Fork { who: 0 },
        Action::Write {
            who: 1,
            offset: 8 * 4096,
            len: 8 * 4096,
            seed: 9,
        },
        Action::Unmap {
            who: 0,
            offset: 0,
            len: 16 * 4096,
        },
        Action::Madvise {
            who: 1,
            offset: 16 * 4096,
            len: 8 * 4096,
        },
        Action::Write {
            who: 0,
            offset: 24 * 4096,
            len: 4 * 4096,
            seed: 11,
        },
        Action::Exit { who: 1 },
    ];
    let oracle = replay(&script, ForkPolicy::OnDemand, 32);
    let pressured = replay_pressured(&script, ForkPolicy::OnDemand, 32);
    assert_eq!(oracle, pressured);
}
