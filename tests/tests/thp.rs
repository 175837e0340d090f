//! THP acceptance: huge-page promotion and demotion must be invisible.
//!
//! The collapse/demote machinery changes only the *granularity* of a
//! mapping, never its contents or protections. These tests hold that
//! contract under fire: collapse racing concurrent write faults, collapse
//! racing on-demand forks, collapse racing the reclaim scanner's
//! demote-before-evict path, and full randomized workloads replayed with
//! a deliberately thrashing promotion policy against a THP-off oracle.
//! Every stress ends in the frame-pool leak check.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odf_core::{
    EvictDecision, ForkPolicy, GreedyPolicy, Kernel, MapParams, ThpDaemonConfig, ThpOutcome,
    HUGE_PAGE_SIZE,
};
use odf_pmem::assert_pool_balanced;
use odf_tests::{random_script, replay, replay_thp};
use proptest::prelude::*;

const PAGE: u64 = 4096;
const HUGE: u64 = HUGE_PAGE_SIZE as u64;
const PAGES_PER_HUGE: u64 = HUGE / PAGE;
const BASE: u64 = 0x4000_0000;

// ---------------------------------------------------------------------
// Race: collapse/demote churn vs concurrent write faults
// ---------------------------------------------------------------------

/// Four mutator threads increment per-page counters while a fifth thread
/// collapses and demotes the chunks under them flat out. A collapse that
/// loses a racing write (copied the frame before the PTE store, dropped
/// the bit) shows up as a frozen or skipped count.
#[test]
fn collapse_vs_concurrent_fault_preserves_every_write() {
    let kernel = Kernel::new(64 << 20);
    let baseline = kernel.machine().pool().balance();
    let proc = Arc::new(kernel.spawn().unwrap());
    let chunks = 2u64;
    let pages = chunks * PAGES_PER_HUGE;
    let addr = proc
        .mmap_fixed(BASE, pages * PAGE, MapParams::anon_rw())
        .unwrap();
    for pg in 0..pages {
        proc.write_u64(addr + pg * PAGE, pg << 8).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let proc = Arc::clone(&proc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut collapses = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for c in 0..chunks {
                    let at = addr + c * HUGE;
                    if proc.mm().collapse_huge(at) == Ok(ThpOutcome::Collapsed) {
                        collapses += 1;
                    }
                    let _ = proc.mm().demote_huge(at);
                }
            }
            collapses
        })
    };

    let writers = 4u64;
    let rounds = 150u64;
    std::thread::scope(|s| {
        for t in 0..writers {
            let proc = Arc::clone(&proc);
            s.spawn(move || {
                // Disjoint page stripes; each round increments through a
                // read, so one lost granularity transition breaks the chain.
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
    let collapses = churner.join().unwrap();
    assert!(collapses > 0, "churner never collapsed a chunk");

    for pg in 0..pages {
        assert_eq!(proc.read_u64(addr + pg * PAGE).unwrap(), (pg << 8) + rounds);
    }
    drop(proc);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Race: collapse/demote churn vs on-demand forks
// ---------------------------------------------------------------------

/// On-demand forks are taken continuously while the parent's chunks flip
/// between 4 KiB and 2 MiB granularity. Children must see the parent's
/// exact image whichever granularity a range had at fork time, and child
/// writes must never bleed back — including into a chunk the parent
/// collapses *after* the fork (the copy is the COW break).
#[test]
fn collapse_vs_fork_keeps_children_consistent() {
    let kernel = Kernel::new(96 << 20);
    let baseline = kernel.machine().pool().balance();
    let parent = Arc::new(kernel.spawn().unwrap());
    let chunks = 2u64;
    let pages = chunks * PAGES_PER_HUGE;
    let addr = parent
        .mmap_fixed(BASE, pages * PAGE, MapParams::anon_rw())
        .unwrap();
    for pg in 0..pages {
        parent
            .write_u64(addr + pg * PAGE, 0xbeef_0000 + pg)
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let parent = Arc::clone(&parent);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for c in 0..chunks {
                    let at = addr + c * HUGE;
                    // While a child shares the tables these return
                    // `SharedTable`; between forks they take effect.
                    let _ = parent.mm().collapse_huge(at);
                    let _ = parent.mm().demote_huge(at);
                }
                std::thread::yield_now();
            }
        })
    };

    for gen in 0..30u64 {
        let child = parent.fork_with(ForkPolicy::OnDemand).unwrap();
        for pg in (0..pages).step_by(7) {
            assert_eq!(
                child.read_u64(addr + pg * PAGE).unwrap(),
                0xbeef_0000 + pg,
                "gen {gen} page {pg}"
            );
        }
        child.write_u64(addr, 0xdead_0000 + gen).unwrap();
        assert_eq!(parent.read_u64(addr).unwrap(), 0xbeef_0000);
        child.exit();
    }
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();

    for pg in 0..pages {
        assert_eq!(parent.read_u64(addr + pg * PAGE).unwrap(), 0xbeef_0000 + pg);
    }
    drop(parent);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Race: promotion vs the reclaim scanner's demote-before-evict path
// ---------------------------------------------------------------------

/// A collapse churner and the eviction scanner run against the same mm
/// while a writer keeps the pages warm. Reclaim never evicts at huge
/// granularity — it demotes cold huge pages back to 4 KiB first — so the
/// two threads continuously hand chunks back and forth. Contents must
/// survive any interleaving of collapse, demote, evict, and swap-in.
#[test]
fn collapse_vs_reclaim_eviction_round_trips_cleanly() {
    let kernel = Kernel::new(48 << 20);
    let baseline = kernel.machine().pool().balance();
    let proc = Arc::new(kernel.spawn().unwrap());
    let pages = PAGES_PER_HUGE;
    let addr = proc
        .mmap_fixed(BASE, pages * PAGE, MapParams::anon_rw())
        .unwrap();
    for pg in 0..pages {
        proc.write_u64(addr + pg * PAGE, 0xaaaa_0000 + pg).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let collapsed = Arc::new(AtomicU64::new(0));
    let churner = {
        let proc = Arc::clone(&proc);
        let stop = Arc::clone(&stop);
        let collapsed = Arc::clone(&collapsed);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if proc.mm().collapse_huge(addr) == Ok(ThpOutcome::Collapsed) {
                    collapsed.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };
    // Set once the writer's 100 racing rounds are done without a collapse.
    let hold_eviction = Arc::new(AtomicBool::new(false));
    let evictor = {
        let proc = Arc::clone(&proc);
        let stop = Arc::clone(&stop);
        let collapsed = Arc::clone(&collapsed);
        let hold_eviction = Arc::clone(&hold_eviction);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if hold_eviction.load(Ordering::Relaxed) && collapsed.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                    continue;
                }
                // Evict everything it can see; huge entries get the
                // accessed-clear / demote treatment instead.
                proc.mm().evict_scan(16, &mut |_| EvictDecision::Evict);
            }
        })
    };

    // At least 100 write/verify rounds with all three threads racing, and
    // on until the churner has collapsed the chunk once, within a generous
    // deadline. A collapse needs all 512 pages resident at once, which a
    // running evictor can prevent for a minute on a slow build, so after
    // the 100 rounds the evictor holds off until that first collapse.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut rounds = 0u64;
    while rounds < 100 || (collapsed.load(Ordering::Relaxed) == 0 && Instant::now() < deadline) {
        if rounds == 100 {
            hold_eviction.store(true, Ordering::Relaxed);
        }
        let round = rounds;
        for pg in 0..pages {
            let va = addr + pg * PAGE;
            assert_eq!(
                proc.read_u64(va).unwrap(),
                0xaaaa_0000 + pg + (round << 32),
                "round {round} page {pg}"
            );
            proc.write_u64(va, 0xaaaa_0000 + pg + ((round + 1) << 32))
                .unwrap();
        }
        rounds += 1;
    }
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();
    evictor.join().unwrap();
    let collapses = collapsed.load(Ordering::Relaxed);
    assert!(collapses > 0, "churner never collapsed");

    for pg in 0..pages {
        assert_eq!(
            proc.read_u64(addr + pg * PAGE).unwrap(),
            0xaaaa_0000 + pg + (rounds << 32)
        );
    }
    drop(proc);
    assert_eq!(kernel.machine().swap().used_slots(), 0);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Teardown: collapsed chunks free cleanly through the batched path
// ---------------------------------------------------------------------

/// A process exits while holding collapsed chunks: teardown flows the
/// order-9 compounds through the FreeBatch / magazine drain, which must
/// return them to the buddy at compound granularity — never split into
/// the order-0 lane (the pool-balance check catches either a leak or a
/// mis-laned free).
#[test]
fn collapsed_chunk_teardown_balances_the_pool() {
    let kernel = Kernel::new(64 << 20);
    let baseline = kernel.machine().pool().balance();
    let proc = kernel.spawn().unwrap();
    let chunks = 3u64;
    let addr = proc
        .mmap_fixed(BASE, chunks * HUGE, MapParams::anon_rw())
        .unwrap();
    proc.populate(addr, chunks * HUGE, true).unwrap();
    for c in 0..chunks {
        assert_eq!(
            proc.mm().collapse_huge(addr + c * HUGE),
            Ok(ThpOutcome::Collapsed)
        );
    }
    assert_eq!(kernel.stats().vm.thp_collapses, chunks);
    // Exit with the huge pages still mapped; no demote first.
    drop(proc);
    assert_pool_balanced(kernel.machine().pool(), baseline);

    // Same again through fork: the COW-shared compound is freed by
    // whichever side exits last.
    let p = kernel.spawn().unwrap();
    let addr = p.mmap_fixed(BASE, HUGE, MapParams::anon_rw()).unwrap();
    p.populate(addr, HUGE, true).unwrap();
    assert_eq!(p.mm().collapse_huge(addr), Ok(ThpOutcome::Collapsed));
    let child = p.fork_with(ForkPolicy::OnDemand).unwrap();
    child.write_u64(addr, 1).unwrap();
    drop(p);
    drop(child);
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

// ---------------------------------------------------------------------
// Differential: THP churn vs the THP-off oracle
// ---------------------------------------------------------------------

#[test]
fn fixed_scripts_agree_under_thp_churn() {
    for seed in 200..206u64 {
        let script = random_script(seed, 40, PAGES_PER_HUGE);
        for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let oracle = replay(&script, policy, PAGES_PER_HUGE);
            let churned = replay_thp(&script, policy, PAGES_PER_HUGE);
            assert_eq!(
                oracle, churned,
                "seed {seed} {policy:?} diverged under THP churn:\n{script:#?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Property: replaying any script while the THP daemon thrashes every
    /// chunk between 4 KiB and 2 MiB granularity yields memory images
    /// bit-identical to the same script with THP off.
    #[test]
    fn prop_thp_churn_is_transparent(seed in 80_000u64..90_000) {
        let script = random_script(seed, 30, PAGES_PER_HUGE);
        let oracle = replay(&script, ForkPolicy::OnDemand, PAGES_PER_HUGE);
        let churned = replay_thp(&script, ForkPolicy::OnDemand, PAGES_PER_HUGE);
        prop_assert_eq!(oracle, churned);
    }

    /// Same property under classic fork: eager page copies interleaved
    /// with collapse and demote must also be invisible.
    #[test]
    fn prop_thp_churn_transparent_under_classic_fork(seed in 90_000u64..100_000) {
        let script = random_script(seed, 24, PAGES_PER_HUGE);
        let oracle = replay(&script, ForkPolicy::Classic, PAGES_PER_HUGE);
        let churned = replay_thp(&script, ForkPolicy::Classic, PAGES_PER_HUGE);
        prop_assert_eq!(oracle, churned);
    }
}

// ---------------------------------------------------------------------
// Differential: THP churn *and* memory pressure vs the oracle
// ---------------------------------------------------------------------

/// The full interleaving the issue asks for — promote, demote, fault,
/// fork, and reclaim all live at once. The pool is undersized so the
/// reclaim daemon evicts throughout while the greedy THP daemon promotes
/// whatever stays resident; collapse failures under fragmentation are
/// expected and must be harmless.
#[test]
fn thp_churn_under_memory_pressure_matches_oracle() {
    for seed in 300..304u64 {
        let script = random_script(seed, 40, PAGES_PER_HUGE);
        let oracle = replay(&script, ForkPolicy::OnDemand, PAGES_PER_HUGE);

        let kernel = Kernel::new(PAGES_PER_HUGE * 3 * PAGE);
        let baseline = kernel.machine().pool().balance();
        kernel.start_reclaim_daemon(
            Box::new(odf_core::FifoPolicy),
            odf_core::DaemonConfig {
                interval: Duration::from_micros(200),
                batch: 16,
            },
        );
        kernel.start_thp_daemon(
            Box::new(GreedyPolicy),
            ThpDaemonConfig {
                interval: Duration::from_micros(200),
                max_ops: 8,
                clear_accessed: false,
            },
        );
        let pressured =
            odf_tests::replay_on(&kernel, &script, ForkPolicy::OnDemand, PAGES_PER_HUGE);
        kernel.stop_thp_daemon();
        kernel.stop_reclaim_daemon();
        assert_eq!(oracle, pressured, "seed {seed} diverged under THP+pressure");
        assert_eq!(kernel.machine().swap().used_slots(), 0, "leaked swap slots");
        assert_pool_balanced(kernel.machine().pool(), baseline);
    }
}
