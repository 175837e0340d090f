//! `mremap` under shared page tables: the move's *destination* obeys the
//! same copy-before-modify rule as its source (§3.3).
//!
//! The address allocator is a bump allocator, so a range grown by `mremap`
//! lands right behind the most recent mapping — inside a 2 MiB chunk (or
//! 1 GiB span) whose table an On-demand fork may still share with another
//! process. Writing the moved entries into that table would plant them in
//! the other process's address space. Each test builds that layout, moves
//! a range into the shared table, and checks that the other process, once
//! it maps the same address, sees a fresh zero page, and that every frame
//! comes back when both processes exit.

use odf_core::{ForkPolicy, Kernel, MapParams, HUGE_PAGE_SIZE};
use odf_pmem::assert_pool_balanced;

const PAGE: u64 = 4096;
const HUGE: u64 = HUGE_PAGE_SIZE as u64;
const GIB: u64 = 1 << 30;

/// 4 KiB pages: B (one page) is mapped first and A right behind it, so A
/// crosses into the next 2 MiB chunk and ends in its middle. Growing B moves
/// it behind A, into that chunk, whose PTE table the child shares.
#[test]
fn mremap_into_a_shared_pte_table_copies_it_first() {
    let kernel = Kernel::new(64 << 20);
    let pool = kernel.machine().pool();
    let baseline = pool.balance();
    let parent = kernel.spawn().unwrap();
    let b = parent.mmap_anon(PAGE).unwrap();
    let a = parent
        .mmap_fixed(b + PAGE, HUGE, MapParams::anon_rw())
        .unwrap();
    let a_end = a + HUGE;
    assert_ne!(a_end % HUGE, 0, "A must end mid-chunk");
    parent.write(b, &[0xbb; 64]).unwrap();
    parent.populate(a, HUGE, true).unwrap();
    parent.write(a_end - PAGE, &[0xaa; 64]).unwrap();

    let child = parent.fork_with(ForkPolicy::OnDemand).unwrap();
    let tail_table = parent.mm().pmd_entry(a_end - PAGE).unwrap().frame();
    assert_eq!(pool.pt_share_count(tail_table), 2);

    let moved = parent.mremap(b, PAGE, 2 * PAGE).unwrap();
    assert_eq!(moved, a_end, "the bump allocator places B right behind A");
    assert_eq!(parent.read_vec(moved, 64).unwrap(), vec![0xbb; 64]);
    assert!(parent.read_vec(b, 1).is_err(), "the old range is gone");

    // The child never mapped `moved`; once it does, the page is fresh.
    child
        .mmap_fixed(moved, 2 * PAGE, MapParams::anon_rw())
        .unwrap();
    assert_eq!(child.read_vec(moved, 64).unwrap(), vec![0; 64]);
    assert_eq!(child.read_vec(b, 64).unwrap(), vec![0xbb; 64]);
    assert_eq!(child.read_vec(a_end - PAGE, 64).unwrap(), vec![0xaa; 64]);
    assert_eq!(parent.read_vec(a_end - PAGE, 64).unwrap(), vec![0xaa; 64]);

    drop(child);
    drop(parent);
    assert_pool_balanced(pool, baseline);
}

/// Huge pages under the §4 extension: A (huge) is allocated first and ends
/// mid-span; B (huge) sits in another 1 GiB span. Growing B moves its PMD
/// entry behind A, into the PMD table the child shares through the PUD.
#[test]
fn mremap_into_a_shared_pmd_table_copies_it_first() {
    let kernel = Kernel::new(64 << 20);
    let pool = kernel.machine().pool();
    let baseline = pool.balance();
    let parent = kernel.spawn().unwrap();
    let a = parent.mmap_anon_huge(2 * HUGE).unwrap();
    let b = parent
        .mmap_fixed(2 * GIB, HUGE, MapParams::anon_rw_huge())
        .unwrap();
    assert_ne!(a / GIB, b / GIB, "A and B live in different 1 GiB spans");
    parent.write(a, &[0xaa; 64]).unwrap();
    parent.write(a + HUGE, &[0xab; 64]).unwrap();
    parent.write(b, &[0xbb; 64]).unwrap();

    let child = parent.fork_with(ForkPolicy::OnDemandHuge).unwrap();
    assert_eq!(kernel.stats().vm.fork_pmd_tables_shared, 2);

    let moved = parent.mremap(b, HUGE, 2 * HUGE).unwrap();
    assert_eq!(moved, a + 2 * HUGE, "the bump allocator places B behind A");
    assert_eq!(moved / GIB, a / GIB, "B moved into A's span");
    assert_eq!(parent.read_vec(moved, 64).unwrap(), vec![0xbb; 64]);

    child
        .mmap_fixed(moved, 2 * HUGE, MapParams::anon_rw_huge())
        .unwrap();
    assert_eq!(child.read_vec(moved, 64).unwrap(), vec![0; 64]);
    assert_eq!(child.read_vec(b, 64).unwrap(), vec![0xbb; 64]);
    assert_eq!(child.read_vec(a + HUGE, 64).unwrap(), vec![0xab; 64]);

    drop(child);
    drop(parent);
    assert_pool_balanced(pool, baseline);
}

/// Mixed levels: a 4 KiB range moves into an empty 2 MiB slot of a PMD
/// table that is shared because every other entry in it is huge. Linking a
/// fresh PTE table into that slot is itself a modification of the shared
/// PMD table.
#[test]
fn mremap_of_small_pages_into_a_shared_pmd_table_copies_it_first() {
    let kernel = Kernel::new(64 << 20);
    let pool = kernel.machine().pool();
    let baseline = pool.balance();
    let parent = kernel.spawn().unwrap();
    let a = parent.mmap_anon_huge(2 * HUGE).unwrap();
    let b = parent
        .mmap_fixed(2 * GIB, PAGE, MapParams::anon_rw())
        .unwrap();
    parent.write(a, &[0xaa; 64]).unwrap();
    parent.write(a + HUGE, &[0xab; 64]).unwrap();
    parent.write(b, &[0xbb; 64]).unwrap();

    let child = parent.fork_with(ForkPolicy::OnDemandHuge).unwrap();
    assert_eq!(kernel.stats().vm.fork_pmd_tables_shared, 1);

    let moved = parent.mremap(b, PAGE, 2 * PAGE).unwrap();
    assert_eq!(moved, a + 2 * HUGE, "the bump allocator places B behind A");
    assert_eq!(parent.read_vec(moved, 64).unwrap(), vec![0xbb; 64]);

    child
        .mmap_fixed(moved, 2 * PAGE, MapParams::anon_rw())
        .unwrap();
    assert_eq!(child.read_vec(moved, 64).unwrap(), vec![0; 64]);
    assert_eq!(child.read_vec(b, 64).unwrap(), vec![0xbb; 64]);
    assert_eq!(child.read_vec(a + HUGE, 64).unwrap(), vec![0xab; 64]);

    drop(child);
    drop(parent);
    assert_pool_balanced(pool, baseline);
}
