//! Multi-threaded stress across the whole stack: one kernel, many host
//! threads forking, writing, snapshotting, and tearing down concurrently.
//!
//! The paper's thread-safety section (§4) reduces to two invariants this
//! suite hammers: shared page tables are never corrupted (every process
//! always reads either the pre-fork value or its own writes), and
//! reference counts balance (all resources return to the pool).
//!
//! Since faults run under the *shared* mm lock (split locks + CAS installs
//! provide mutual exclusion for table transitions), this suite also aims
//! racing faults directly at the transitions themselves: concurrent COW of
//! one shared PTE table, faults overlapping `fork`, and faults overlapping
//! `clear_soft_dirty`. Every test ends with [`assert_pool_balanced`], which
//! turns any leaked or double-released reference into a test failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use odf_core::{ForkPolicy, Kernel, Process};
use odf_kvstore::Store;
use odf_pmem::assert_pool_balanced;

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;

#[test]
fn fork_storm_preserves_isolation_and_resources() {
    let kernel = Kernel::new(512 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let root = kernel.spawn().unwrap();
        let addr = root.mmap_anon(32 * MIB).unwrap();
        root.populate(addr, 32 * MIB, true).unwrap();
        // Stamp a generation marker per 2 MiB chunk.
        for chunk in 0..16u64 {
            root.write_u64(addr + chunk * 2 * MIB, 0xBA5E_0000 + chunk)
                .unwrap();
        }
        let root = Arc::new(root);
        let violations = AtomicU64::new(0);

        std::thread::scope(|s| {
            for t in 0..6u64 {
                let root = Arc::clone(&root);
                let violations = &violations;
                s.spawn(move || {
                    let policies = [
                        ForkPolicy::Classic,
                        ForkPolicy::OnDemand,
                        ForkPolicy::OnDemandHuge,
                    ];
                    for round in 0..12u64 {
                        let policy = policies[(t + round) as usize % policies.len()];
                        let child = root.fork_with(policy).expect("fork");
                        // Child checks its inherited view, then mutates.
                        for chunk in 0..16u64 {
                            let a = addr + chunk * 2 * MIB;
                            let v = child.read_u64(a).expect("read");
                            if v != 0xBA5E_0000 + chunk {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let own = addr + (t % 16) * 2 * MIB;
                        child.write_u64(own, t * 1000 + round).expect("write");
                        if child.read_u64(own).expect("read back") != t * 1000 + round {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        child.exit();
                    }
                });
            }
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0, "isolation violated");
        // The root was never touched by any child.
        for chunk in 0..16u64 {
            assert_eq!(
                root.read_u64(addr + chunk * 2 * MIB).unwrap(),
                0xBA5E_0000 + chunk
            );
        }
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(kernel.machine().live_tables(), 0, "tables leaked");
}

#[test]
fn multi_span_fork_storm_preserves_isolation_and_resources() {
    // One page in every 2 MiB chunk of a 3 GiB region: 1 536 PTE tables
    // across four 1 GiB spans, so each On-demand fork raises share counts
    // in several batches while other threads' children copy tables away
    // and exit, dropping their shares of the same tables.
    const CHUNKS: u64 = 3 * 512;
    let kernel = Kernel::new(512 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let root = kernel.spawn().unwrap();
        let addr = root.mmap_anon(CHUNKS * 2 * MIB).unwrap();
        for chunk in 0..CHUNKS {
            root.write_u64(addr + chunk * 2 * MIB, 0xBA5E_0000 + chunk)
                .unwrap();
        }
        let root = Arc::new(root);
        let violations = AtomicU64::new(0);

        std::thread::scope(|s| {
            for t in 0..4u64 {
                let root = Arc::clone(&root);
                let violations = &violations;
                s.spawn(move || {
                    let policies = [
                        ForkPolicy::OnDemand,
                        ForkPolicy::OnDemandHuge,
                        ForkPolicy::Classic,
                    ];
                    for round in 0..9u64 {
                        let policy = policies[(t + round) as usize % policies.len()];
                        let child = root.fork_with(policy).expect("fork");
                        for chunk in (t..CHUNKS).step_by(61).chain([CHUNKS - 1]) {
                            let v = child.read_u64(addr + chunk * 2 * MIB).expect("read");
                            if v != 0xBA5E_0000 + chunk {
                                violations.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let own = addr + ((t * 397 + round * 131) % CHUNKS) * 2 * MIB;
                        child.write_u64(own, t * 1000 + round).expect("write");
                        if child.read_u64(own).expect("read back") != t * 1000 + round {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        child.exit();
                    }
                });
            }
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0, "isolation violated");
        for chunk in 0..CHUNKS {
            assert_eq!(
                root.read_u64(addr + chunk * 2 * MIB).unwrap(),
                0xBA5E_0000 + chunk
            );
        }
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(kernel.machine().live_tables(), 0, "tables leaked");
}

#[test]
fn snapshot_children_serialize_on_worker_threads() {
    // A store mutated by the owner thread while multiple forked children
    // serialize concurrently on other threads: every snapshot must be a
    // consistent prefix-generation image.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    let proc = Arc::new(kernel.spawn().unwrap());
    let store = Store::create(&proc, 64 * MIB, 1024).unwrap();
    // Generation 0 content.
    for i in 0..500u32 {
        store
            .set(&proc, format!("k{i}").as_bytes(), b"gen0")
            .unwrap();
    }

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for gen in 1..=4u32 {
            // Fork a snapshot child, then mutate to the next generation.
            let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
            let expected = format!("gen{}", gen - 1).into_bytes();
            handles.push(s.spawn(move || {
                let mut ok = true;
                for i in (0..500u32).step_by(7) {
                    let v = store
                        .get(&child, format!("k{i}").as_bytes())
                        .unwrap()
                        .unwrap();
                    ok &= v == expected;
                }
                let dump = store.serialize(&child).unwrap();
                child.exit();
                (ok, dump.len())
            }));
            for i in 0..500u32 {
                store
                    .set(
                        &proc,
                        format!("k{i}").as_bytes(),
                        format!("gen{gen}").as_bytes(),
                    )
                    .unwrap();
            }
        }
        for h in handles {
            let (consistent, dump_len) = h.join().unwrap();
            assert!(consistent, "snapshot saw a torn generation");
            assert!(dump_len > 8);
        }
    });
    // The live store ended at the last generation.
    assert_eq!(store.get(&proc, b"k0").unwrap().unwrap(), b"gen4");
    assert_eq!(kernel.process_count(), 1);
    Arc::try_unwrap(proc).ok().unwrap().exit();
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn grandchild_trees_built_from_worker_threads() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    let root = kernel.spawn().unwrap();
    let addr = root.mmap_anon(8 * MIB).unwrap();
    root.fill(addr, 8 * MIB as usize, 0x11).unwrap();

    // Each thread builds its own 3-deep fork chain from a shared child.
    let shared = Arc::new(root.fork_with(ForkPolicy::OnDemand).unwrap());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let mut chain: Vec<Process> = Vec::new();
                let mut parent = shared.fork_with(ForkPolicy::OnDemand).unwrap();
                for depth in 0..3u64 {
                    parent.write_u64(addr + t * MIB, t * 10 + depth).unwrap();
                    let next = parent.fork_with(ForkPolicy::OnDemand).unwrap();
                    chain.push(parent);
                    parent = next;
                }
                // The deepest descendant sees the last ancestor write.
                assert_eq!(parent.read_u64(addr + t * MIB).unwrap(), t * 10 + 2);
                // And untouched memory everywhere else.
                let probe = addr + ((t + 1) % 4) * MIB + 8;
                let mut b = [0u8; 1];
                parent.read(probe, &mut b).unwrap();
                assert_eq!(b[0], 0x11);
                drop(chain);
                drop(parent);
            });
        }
    });
    drop(shared);
    assert_eq!(kernel.process_count(), 1);
    // Root unchanged.
    let v = root.read_vec(addr, 16).unwrap();
    assert!(v.iter().all(|&b| b == 0x11));
    root.exit();
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn mixed_policy_threads_share_one_machine_without_interference() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let kernel = Arc::clone(&kernel);
            s.spawn(move || {
                let policy = match t {
                    0 => ForkPolicy::Classic,
                    1 => ForkPolicy::OnDemand,
                    _ => ForkPolicy::OnDemandHuge,
                };
                let proc = kernel.spawn().unwrap();
                let addr = if policy == ForkPolicy::OnDemandHuge {
                    let a = proc.mmap_anon_huge(8 * MIB).unwrap();
                    proc.populate(a, 8 * MIB, true).unwrap();
                    a
                } else {
                    let a = proc.mmap_anon(8 * MIB).unwrap();
                    proc.populate(a, 8 * MIB, true).unwrap();
                    a
                };
                for round in 0..10u64 {
                    let child = proc.fork_with(policy).unwrap();
                    child.write_u64(addr + (round % 4) * MIB, round).unwrap();
                    assert_eq!(child.read_u64(addr + (round % 4) * MIB).unwrap(), round);
                    child.exit();
                    // Parent memory stays zero (populate never wrote data).
                    assert_eq!(proc.read_u64(addr + (round % 4) * MIB).unwrap(), 0);
                }
            });
        }
    });
    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(kernel.process_count(), 0);
}

#[test]
fn same_pmd_fault_race_installs_exactly_one_table_copy() {
    // Four threads write four different pages covered by the SAME shared
    // last-level page table at once. Each fault sees the shared table and
    // tries to COW it; the split lock must let exactly one copy win, with
    // the losers retrying onto the winner's table.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let root = kernel.spawn().unwrap();
        // Carve a 2 MiB-aligned span so all pages below share one PTE table.
        let raw = root.mmap_anon(4 * MIB).unwrap();
        let span = (raw + 2 * MIB - 1) & !(2 * MIB - 1);
        for i in 0..512u64 {
            root.write_u64(span + i * PAGE, 0xAAAA_0000 + i).unwrap();
        }
        let stats = kernel.machine().stats();
        for round in 0..8u64 {
            let child = Arc::new(root.fork_with(ForkPolicy::OnDemand).unwrap());
            let before = stats.snapshot();
            let barrier = Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let child = Arc::clone(&child);
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let page = span + (t * 128 + round) * PAGE;
                        child.write_u64(page, 0xC0_0000 + t).unwrap();
                        assert_eq!(child.read_u64(page).unwrap(), 0xC0_0000 + t);
                    });
                }
            });
            let after = stats.snapshot();
            assert_eq!(
                after.cow_table_copies - before.cow_table_copies,
                1,
                "exactly one table copy must win the install race (round {round})"
            );
            // Parent view untouched by any of the racing writers.
            for t in 0..4u64 {
                let idx = t * 128 + round;
                assert_eq!(root.read_u64(span + idx * PAGE).unwrap(), 0xAAAA_0000 + idx);
            }
            Arc::try_unwrap(child).ok().unwrap().exit();
        }
        root.exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn same_shared_pmd_table_race_installs_exactly_one_huge_copy() {
    // The huge-page analog of the test above, one level up: four threads
    // write four different 2 MiB pages described by the SAME shared PMD
    // table at once. Every fault must take ownership of the PMD table
    // first; exactly one table copy may win, and no loser may modify the
    // parent's (stale) table through an outdated walk — the unlocked
    // ownership fast path must revalidate the PUD linkage, not just the
    // share count and writable bit.
    let kernel = Kernel::new(512 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let root = kernel.spawn().unwrap();
        let addr = root.mmap_anon_huge(16 * MIB).unwrap();
        root.populate(addr, 16 * MIB, true).unwrap();
        let stats = kernel.machine().stats();
        for round in 0..16u64 {
            let child = Arc::new(root.fork_with(ForkPolicy::OnDemandHuge).unwrap());
            let before = stats.snapshot();
            let barrier = Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let child = Arc::clone(&child);
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let page = addr + ((t * 2 + round % 2) % 8) * 2 * MIB;
                        child.write_u64(page + t * PAGE, 0xFACE_0000 + t).unwrap();
                        assert_eq!(child.read_u64(page + t * PAGE).unwrap(), 0xFACE_0000 + t);
                    });
                }
            });
            let after = stats.snapshot();
            assert_eq!(
                after.cow_pmd_table_copies - before.cow_pmd_table_copies,
                1,
                "exactly one PMD table copy must win the install race (round {round})"
            );
            // The parent's view (zero-filled by populate) is untouched: a
            // loser writing through a stale PMD slot would land its huge
            // COW in the parent's table.
            for t in 0..4u64 {
                let page = addr + ((t * 2 + round % 2) % 8) * 2 * MIB;
                assert_eq!(root.read_u64(page + t * PAGE).unwrap(), 0);
            }
            Arc::try_unwrap(child).ok().unwrap().exit();
        }
        root.exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(kernel.machine().live_tables(), 0, "tables leaked");
}

#[test]
fn reads_pin_frames_against_concurrent_cow_and_release() {
    // A reader races a writer of the same pages in one process while a
    // forked child COWs and exits, so the pre-fork frames keep getting
    // released and recycled mid-race. The writer rewrites the seed values,
    // so every read must observe exactly the seed: anything else means the
    // access path copied from a frame that was freed (and possibly
    // reallocated) between translation and the copy — the race the
    // GUP-fast pin in `access_inner` exists to close.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        const PAGES: u64 = 48;
        const ROUNDS: u64 = 120;
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(PAGES * PAGE).unwrap();
        for page in 0..PAGES {
            proc.write_u64(addr + page * PAGE, 0x5EED_0000 + page)
                .unwrap();
        }
        let bad_reads = AtomicU64::new(0);
        for _ in 0..ROUNDS {
            let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
            std::thread::scope(|s| {
                {
                    // Reader: sweeps every page while the frames churn.
                    let proc = Arc::clone(&proc);
                    let bad_reads = &bad_reads;
                    s.spawn(move || {
                        for _ in 0..4 {
                            for page in 0..PAGES {
                                let v = proc.read_u64(addr + page * PAGE).unwrap();
                                if v != 0x5EED_0000 + page {
                                    bad_reads.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
                {
                    // Writer: re-faults every page writable (COW), keeping
                    // the content identical so the reader's oracle holds.
                    let proc = Arc::clone(&proc);
                    s.spawn(move || {
                        for page in 0..PAGES {
                            proc.write_u64(addr + page * PAGE, 0x5EED_0000 + page)
                                .unwrap();
                        }
                    });
                }
                {
                    // Child: diverges on every page, then exits — dropping
                    // the last references to the pre-fork frames so they
                    // return to the pool mid-race and can be recycled.
                    s.spawn(move || {
                        for page in 0..PAGES {
                            child.write_u64(addr + page * PAGE, 0xDEAD_BEEF).unwrap();
                        }
                        child.exit();
                    });
                }
            });
        }
        assert_eq!(
            bad_reads.load(Ordering::Relaxed),
            0,
            "a read observed data from a freed or recycled frame"
        );
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn views_pin_frames_against_concurrent_cow_and_release() {
    // `reads_pin_frames_against_concurrent_cow_and_release`, reading
    // through `read_with`: a view borrows the frame for as long as its
    // closure runs, so the pin must hold the frame live until the closure
    // returns, not just for a copy.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        const PAGES: u64 = 48;
        const ROUNDS: u64 = 120;
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(PAGES * PAGE).unwrap();
        for page in 0..PAGES {
            proc.write_u64(addr + page * PAGE, 0x5EED_0000 + page)
                .unwrap();
        }
        let bad_reads = AtomicU64::new(0);
        for _ in 0..ROUNDS {
            let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
            std::thread::scope(|s| {
                {
                    // Reader: sweeps every page while the frames churn.
                    let proc = Arc::clone(&proc);
                    let bad_reads = &bad_reads;
                    s.spawn(move || {
                        for _ in 0..4 {
                            for page in 0..PAGES {
                                let v = proc
                                    .read_with(addr + page * PAGE, 8, |b| {
                                        u64::from_le_bytes(b.try_into().unwrap())
                                    })
                                    .unwrap();
                                if v != 0x5EED_0000 + page {
                                    bad_reads.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                }
                {
                    // Writer: re-faults every page writable (COW), keeping
                    // the content identical so the reader's oracle holds.
                    let proc = Arc::clone(&proc);
                    s.spawn(move || {
                        for page in 0..PAGES {
                            proc.write_u64(addr + page * PAGE, 0x5EED_0000 + page)
                                .unwrap();
                        }
                    });
                }
                {
                    // Child: diverges on every page, then exits — dropping
                    // the last references to the pre-fork frames so they
                    // return to the pool mid-race and can be recycled.
                    s.spawn(move || {
                        for page in 0..PAGES {
                            child.write_u64(addr + page * PAGE, 0xDEAD_BEEF).unwrap();
                        }
                        child.exit();
                    });
                }
            });
        }
        assert_eq!(
            bad_reads.load(Ordering::Relaxed),
            0,
            "a view observed data from a freed or recycled frame"
        );
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn capture_of_a_live_process_survives_concurrent_table_cow_and_release() {
    // `capture_view` walks under the shared mm lock, as faults do. A
    // sibling thread's write COWs a table the fork shared, and the child's
    // exit then frees the old table — possibly between the capture reading
    // a PMD entry and looking the table up. The capture must resolve the
    // copy (same entries), never panic or skip the span.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        const CHUNKS: u64 = 32;
        const PAGES_PER_CHUNK: u64 = 4;
        const ROUNDS: u64 = 150;
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(CHUNKS * 2 * MIB).unwrap();
        let pages: Vec<u64> = (0..CHUNKS)
            .flat_map(|c| (0..PAGES_PER_CHUNK).map(move |p| addr + c * 2 * MIB + p * PAGE))
            .collect();
        for &va in &pages {
            proc.write_u64(va, va).unwrap();
        }
        for _ in 0..ROUNDS {
            let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
            std::thread::scope(|s| {
                {
                    // Capturer: every written page, every time.
                    let proc = Arc::clone(&proc);
                    let pages = &pages;
                    s.spawn(move || {
                        for _ in 0..3 {
                            let view = proc.mm().capture_view();
                            let captured = view.pages.iter().filter(|p| pages.contains(&p.va));
                            assert_eq!(captured.count(), pages.len(), "capture skipped pages");
                        }
                    });
                }
                {
                    // Writer: COWs every shared table away, same values.
                    let proc = Arc::clone(&proc);
                    let pages = &pages;
                    s.spawn(move || {
                        for &va in pages.iter().step_by(PAGES_PER_CHUNK as usize) {
                            proc.write_u64(va, va).unwrap();
                        }
                    });
                }
                // Child: exits untouched, dropping its share of each table
                // — the last one for every table the writer already left.
                s.spawn(move || child.exit());
            });
        }
        for &va in &pages {
            assert_eq!(proc.read_u64(va).unwrap(), va);
        }
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn reads_survive_table_frames_freed_and_reused_as_tables() {
    // Page tables live in type-stable, frame-indexed slots: a lockless
    // walk can read a table whose frame was freed — and allocated as a
    // table again — while it read. Here readers sweep one process while
    // its writer COWs every table a fork shared, the child forks a
    // grandchild that COWs its own copies, and both exit: table frames
    // are freed and handed out as tables again all through the readers'
    // walks. Every read must see the seed, raced walks must stay rare
    // re-walks, and every frame and table must come back.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    let stats = || kernel.machine().stats().snapshot();
    let before = stats();
    let reads = AtomicU64::new(0);
    {
        const CHUNKS: u64 = 16;
        const PAGES_PER_CHUNK: u64 = 2;
        const ROUNDS: u64 = 80;
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(CHUNKS * 2 * MIB).unwrap();
        let pages: Vec<u64> = (0..CHUNKS)
            .flat_map(|c| (0..PAGES_PER_CHUNK).map(move |p| addr + c * 2 * MIB + p * PAGE))
            .collect();
        for &va in &pages {
            proc.write_u64(va, va).unwrap();
        }
        let bad_reads = AtomicU64::new(0);
        for _ in 0..ROUNDS {
            let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
            // The readers sweep until both mutators are done.
            let mutating = AtomicU64::new(2);
            std::thread::scope(|s| {
                for viewer in [false, true] {
                    // Readers: copies and borrowed views of every page.
                    let (proc, pages) = (Arc::clone(&proc), &pages);
                    let (bad_reads, reads, mutating) = (&bad_reads, &reads, &mutating);
                    s.spawn(move || loop {
                        let last = mutating.load(Ordering::Acquire) == 0;
                        for &va in pages {
                            let v = if viewer {
                                proc.read_with(va, 8, |b| u64::from_le_bytes(b.try_into().unwrap()))
                            } else {
                                proc.read_u64(va)
                            };
                            reads.fetch_add(1, Ordering::Relaxed);
                            if v.unwrap() != va {
                                bad_reads.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if last {
                            break;
                        }
                    });
                }
                {
                    // Writer: COWs every shared table away, same values.
                    let (proc, pages, mutating) = (Arc::clone(&proc), &pages, &mutating);
                    s.spawn(move || {
                        for &va in pages.iter().step_by(PAGES_PER_CHUNK as usize) {
                            proc.write_u64(va, va).unwrap();
                        }
                        mutating.fetch_sub(1, Ordering::Release);
                    });
                }
                // Child: forks a grandchild that diverges everywhere (a
                // table COW per chunk), then both exit, freeing tables.
                let (pages, mutating) = (&pages, &mutating);
                s.spawn(move || {
                    let grandchild = child.fork_with(ForkPolicy::OnDemand).unwrap();
                    for &va in pages {
                        grandchild.write_u64(va, !va).unwrap();
                    }
                    grandchild.exit();
                    child.exit();
                    mutating.fetch_sub(1, Ordering::Release);
                });
            });
        }
        assert_eq!(
            bad_reads.load(Ordering::Relaxed),
            0,
            "a read observed a freed or reused table's mapping"
        );
        for &va in &pages {
            assert_eq!(proc.read_u64(va).unwrap(), va);
        }
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    // A raced walk (or missed pin) costs one re-walk; a walk that kept
    // racing would exhaust the access loop's bound instead of reading.
    let retries = stats().access_pin_retries - before.access_pin_retries;
    let reads = reads.load(Ordering::Relaxed);
    assert!(
        retries * 10 <= reads,
        "{retries} re-walks for {reads} reads: raced walks are not rare"
    );
    assert_pool_balanced(kernel.machine().pool(), baseline);
    assert_eq!(kernel.machine().live_tables(), 0, "tables leaked");
}

#[test]
fn faults_race_forks_on_the_same_address_space() {
    // One thread writes (faulting COW pages) while another forks the same
    // address space in a loop. Fork holds the mm lock exclusively, faults
    // hold it shared: each child must be a frozen, internally consistent
    // image no matter how the two interleave.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        const SLOTS: usize = 32;
        const ROUNDS: u64 = 200;
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(SLOTS as u64 * PAGE).unwrap();
        for slot in 0..SLOTS as u64 {
            proc.write_u64(addr + slot * PAGE, 0).unwrap();
        }
        let published: Vec<AtomicU64> = (0..SLOTS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            {
                let proc = Arc::clone(&proc);
                let published = &published;
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        for (slot, publish) in published.iter().enumerate() {
                            proc.write_u64(addr + slot as u64 * PAGE, round).unwrap();
                            publish.store(round, Ordering::Release);
                        }
                    }
                });
            }
            {
                let proc = Arc::clone(&proc);
                let published = &published;
                s.spawn(move || {
                    for f in 0..25u64 {
                        let floors: Vec<u64> = published
                            .iter()
                            .map(|p| p.load(Ordering::Acquire))
                            .collect();
                        let child = proc.fork_with(ForkPolicy::OnDemand).unwrap();
                        let first: Vec<u64> = (0..SLOTS as u64)
                            .map(|slot| child.read_u64(addr + slot * PAGE).unwrap())
                            .collect();
                        for (slot, (&v, &floor)) in first.iter().zip(&floors).enumerate() {
                            assert!(
                                v >= floor && v <= ROUNDS,
                                "slot {slot} read {v}, outside [{floor}, {ROUNDS}]"
                            );
                        }
                        // The child diverges, then its frozen view must stay
                        // frozen while the parent keeps faulting.
                        child.write_u64(addr, 0xDEAD_0000 + f).unwrap();
                        assert_eq!(child.read_u64(addr).unwrap(), 0xDEAD_0000 + f);
                        for slot in 1..SLOTS as u64 {
                            assert_eq!(
                                child.read_u64(addr + slot * PAGE).unwrap(),
                                first[slot as usize],
                                "frozen child image changed under parent faults"
                            );
                        }
                        child.exit();
                    }
                });
            }
        });
        // No child write ever leaked into the parent.
        for slot in 0..SLOTS as u64 {
            assert_eq!(proc.read_u64(addr + slot * PAGE).unwrap(), ROUNDS);
        }
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn faults_race_soft_dirty_clears_without_corruption() {
    // Writers fault pages (setting soft-dirty bits under the shared lock)
    // while another thread repeatedly clears soft-dirty state under the
    // exclusive lock. Data must survive, and tracking must still be exact
    // once the race quiesces.
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let proc = Arc::new(kernel.spawn().unwrap());
        let addr = proc.mmap_anon(4 * MIB).unwrap();
        let _base = proc.checkpoint().unwrap();
        std::thread::scope(|s| {
            {
                let proc = Arc::clone(&proc);
                s.spawn(move || {
                    for round in 1..=100u64 {
                        for page in 0..64u64 {
                            proc.write_u64(addr + page * 8 * PAGE, round).unwrap();
                        }
                    }
                });
            }
            {
                let proc = Arc::clone(&proc);
                s.spawn(move || {
                    for _ in 0..50 {
                        proc.advance_checkpoint_epoch().unwrap();
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Every write landed despite the concurrent sweeps.
        for page in 0..64u64 {
            assert_eq!(proc.read_u64(addr + page * 8 * PAGE).unwrap(), 100);
        }
        // Tracking is exact again: a fresh epoch captures exactly the pages
        // written after it (3 and 9 are not multiples of 8, so the writer
        // never touched them).
        proc.advance_checkpoint_epoch().unwrap();
        proc.write_u64(addr + 3 * PAGE, 0xD1).unwrap();
        proc.write_u64(addr + 9 * PAGE, 0xD2).unwrap();
        let delta = proc.checkpoint_delta().unwrap();
        let mut vas: Vec<u64> = delta.pages.iter().map(|p| p.va).collect();
        vas.sort_unstable();
        assert_eq!(
            vas,
            vec![addr + 3 * PAGE, addr + 9 * PAGE],
            "soft-dirty tracking diverged after racing clears"
        );
        Arc::try_unwrap(proc).ok().unwrap().exit();
    }
    assert_pool_balanced(kernel.machine().pool(), baseline);
}

#[test]
fn raw_pool_churn_crosses_magazine_tiers_and_threads() {
    // Hammer the tiered allocator directly: every worker churns enough
    // order-0 and huge blocks to drive magazine refills, watermark spills,
    // and drains, and half the traffic is freed by a *different* thread
    // than the one that allocated it (so blocks migrate between magazine
    // slots through the shared exchange). The pool must account for every
    // frame afterwards.
    use odf_pmem::{FramePool, PageKind};
    use std::sync::Mutex;

    let pool = FramePool::new(1 << 14);
    let baseline = pool.balance();
    let exchange: Mutex<Vec<odf_pmem::FrameId>> = Mutex::new(Vec::new());
    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            let exchange = &exchange;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let mut mine: Vec<odf_pmem::FrameId> = Vec::new();
                let mut hugs: Vec<odf_pmem::FrameId> = Vec::new();
                for i in 0..2_000usize {
                    match (i + t) % 5 {
                        // Keep a private working set churning (magazine
                        // fast path, refills on misses).
                        0 | 1 => mine.push(pool.alloc_page(PageKind::Anon).unwrap()),
                        2 => {
                            if let Some(f) = mine.pop() {
                                assert!(pool.ref_dec(f));
                            }
                        }
                        // Push frames to whoever frees them (cross-slot
                        // traffic: freed into a different magazine than
                        // they were allocated from).
                        3 => {
                            let f = pool.alloc_page(PageKind::Anon).unwrap();
                            exchange.lock().unwrap().push(f);
                            if let Some(f) = exchange.lock().unwrap().pop() {
                                assert!(pool.ref_dec(f));
                            }
                        }
                        // Huge blocks exercise the second magazine lane
                        // and, on spills, buddy merge paths.
                        _ => {
                            if let Ok(h) = pool.alloc_huge(PageKind::Anon) {
                                hugs.push(h);
                            }
                            if hugs.len() > 2 {
                                assert!(pool.ref_dec(hugs.swap_remove(0)));
                            }
                        }
                    }
                }
                for f in mine.drain(..).chain(hugs.drain(..)) {
                    assert!(pool.ref_dec(f));
                }
            });
        }
    });
    for f in exchange.into_inner().unwrap() {
        assert!(pool.ref_dec(f));
    }
    let snap = pool.stats().snapshot();
    assert!(snap.pcp_hits > 0, "magazine fast path never hit");
    assert!(snap.pcp_refills > 0, "no bulk refill happened");
    assert_pool_balanced(&pool, baseline);
}

#[test]
fn cow_fault_storm_rebalances_the_tiered_pool() {
    // Post-fork write-fault storm from many threads: every COW fault
    // allocates through the magazine tier while unrelated threads churn
    // the same pool, and child teardown returns frames through the
    // batched (mmu_gather-style) free path. The combination must leave
    // the pool exactly as it started.
    use odf_pmem::PageKind;

    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    {
        let proc = kernel.spawn().unwrap();
        let addr = proc.mmap_anon(16 * MIB).unwrap();
        proc.populate(addr, 16 * MIB, true).unwrap();
        proc.write_u64(addr, 0xA5).unwrap();
        let child = Arc::new(proc.fork_with(ForkPolicy::OnDemand).unwrap());
        let threads = 4u64;
        let pages_per = 16 * MIB / PAGE / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let child = Arc::clone(&child);
                let base = addr + t * pages_per * PAGE;
                s.spawn(move || {
                    for p in 0..pages_per {
                        child.write_u64(base + p * PAGE, t ^ p).unwrap();
                    }
                });
            }
            // Concurrent raw churn keeps the magazines hot and contended
            // while the faults run.
            let pool = kernel.machine().pool();
            s.spawn(move || {
                for _ in 0..10_000 {
                    let f = pool.alloc_page(PageKind::Anon).unwrap();
                    assert!(pool.ref_dec(f));
                }
            });
        });
        // Spot-check isolation survived the storm.
        assert_eq!(child.read_u64(addr).unwrap(), 0);
        assert_eq!(proc.read_u64(addr).unwrap(), 0xA5);
        Arc::try_unwrap(child).ok().unwrap().exit();
        proc.exit();
    }
    let snap = kernel.machine().pool().stats().snapshot();
    assert!(
        snap.bulk_free_batches > 0,
        "teardown never used batched frees"
    );
    assert_pool_balanced(kernel.machine().pool(), baseline);
}
