//! Semantics of the huge-page extension (§4 "Huge Page Support"):
//! `ForkPolicy::OnDemandHuge` shares PMD tables describing 2 MiB pages.

use std::sync::Arc;

use odf_pmem::assert_pool_balanced;
use odf_vm::{ForkPolicy, Machine, MapParams, Mm, Prot};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

fn machine() -> Arc<Machine> {
    Machine::new(512 * MIB)
}

fn new_mm(m: &Arc<Machine>) -> Mm {
    Mm::new(Arc::clone(m)).unwrap()
}

/// Maps and fills a huge-backed region with one value per 2 MiB page.
fn huge_region(mm: &Mm, len: u64) -> u64 {
    let addr = mm.mmap(len, MapParams::anon_rw_huge()).unwrap();
    for off in (0..len).step_by(2 * MIB as usize) {
        mm.write_u64(addr + off, 0xBEEF_0000 + off).unwrap();
    }
    addr
}

fn check_region(mm: &Mm, addr: u64, len: u64) {
    for off in (0..len).step_by(2 * MIB as usize) {
        assert_eq!(mm.read_u64(addr + off).unwrap(), 0xBEEF_0000 + off);
    }
}

#[test]
fn odf_huge_fork_isolates_parent_and_child() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 16 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();

    check_region(&child, addr, 16 * MIB);
    child.write_u64(addr, 1).unwrap();
    parent.write_u64(addr + 2 * MIB, 2).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 1);
    assert_eq!(parent.read_u64(addr).unwrap(), 0xBEEF_0000);
    assert_eq!(parent.read_u64(addr + 2 * MIB).unwrap(), 2);
    assert_eq!(
        child.read_u64(addr + 2 * MIB).unwrap(),
        0xBEEF_0000 + 2 * MIB
    );
}

#[test]
fn odf_huge_shares_pmd_tables_instead_of_copying_entries() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 64 * MIB);

    let before = m.stats().snapshot();
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.fork_pmd_tables_shared, 1, "one PMD table for the span");
    assert_eq!(d.fork_huge_copies, 0, "no per-entry huge copies");

    // Reads flow through the shared table without copying it.
    let before = m.stats().snapshot();
    check_region(&child, addr, 64 * MIB);
    check_region(&parent, addr, 64 * MIB);
    let d = m.stats().snapshot() - before;
    assert_eq!(d.cow_pmd_table_copies, 0);

    // The first write copies the PMD table once, then the huge page.
    let before = m.stats().snapshot();
    child.write_u64(addr + 4 * MIB, 9).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.cow_pmd_table_copies, 1);
    assert_eq!(d.cow_huge_copies, 1);
    // Later writes in the same span reuse the dedicated table.
    child.write_u64(addr + 6 * MIB, 10).unwrap();
    let d2 = m.stats().snapshot() - before;
    assert_eq!(d2.cow_pmd_table_copies, 1);
}

#[test]
fn plain_odf_still_copies_huge_entries_eagerly() {
    // Baseline check: without the extension, huge entries are refcounted
    // at fork time (the paper's artifact behavior).
    let m = machine();
    let parent = new_mm(&m);
    let _addr = huge_region(&parent, 16 * MIB);
    let before = m.stats().snapshot();
    let _child = parent.fork(ForkPolicy::OnDemand).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.fork_huge_copies, 8);
    assert_eq!(d.fork_pmd_tables_shared, 0);
}

#[test]
fn mixed_spans_fall_back_to_per_entry_handling() {
    let m = machine();
    let parent = new_mm(&m);
    // A huge mapping and a 4 KiB mapping in the same 1 GiB span.
    let huge = parent
        .mmap_fixed(GIB, 8 * MIB, MapParams::anon_rw_huge())
        .unwrap();
    let small = parent
        .mmap_fixed(GIB + 512 * MIB, 4 * MIB, MapParams::anon_rw())
        .unwrap();
    parent.populate(huge, 8 * MIB, true).unwrap();
    parent.populate(small, 4 * MIB, true).unwrap();

    let before = m.stats().snapshot();
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.fork_pmd_tables_shared, 0, "mixed span cannot share");
    assert_eq!(d.fork_huge_copies, 4, "huge entries handled classically");
    assert_eq!(d.fork_tables_shared, 2, "PTE tables still shared");

    parent.write_u64(huge, 1).unwrap();
    child.write_u64(small, 2).unwrap();
    assert_eq!(child.read_u64(huge).unwrap(), 0);
    assert_eq!(parent.read_u64(small).unwrap(), 0);
}

#[test]
fn shared_pmd_table_survives_parent_exit() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 8 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
    drop(parent);
    check_region(&child, addr, 8 * MIB);
    child.write_u64(addr, 3).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 3);
}

#[test]
fn many_sharers_of_one_pmd_table() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 8 * MIB);
    let kids: Vec<Mm> = (0..4)
        .map(|_| parent.fork(ForkPolicy::OnDemandHuge).unwrap())
        .collect();
    for (i, k) in kids.iter().enumerate() {
        k.write_u64(addr, i as u64 + 100).unwrap();
    }
    for (i, k) in kids.iter().enumerate() {
        assert_eq!(k.read_u64(addr).unwrap(), i as u64 + 100);
    }
    assert_eq!(parent.read_u64(addr).unwrap(), 0xBEEF_0000);
}

#[test]
fn munmap_full_span_releases_shared_pmd_table() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 8 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();

    let before = m.stats().snapshot();
    parent.munmap(addr, 8 * MIB).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.unmap_table_copies, 0, "full release: no copy");
    check_region(&child, addr, 8 * MIB);
    assert!(parent.read_u64(addr).is_err());
    assert_eq!(parent.report().rss_pages, 0);
}

#[test]
fn munmap_partial_span_copies_shared_pmd_table() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 8 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();

    let before = m.stats().snapshot();
    parent.munmap(addr, 4 * MIB).unwrap();
    let d = m.stats().snapshot() - before;
    assert_eq!(d.unmap_table_copies, 1, "partial unmap copies the table");

    check_region(&child, addr, 8 * MIB);
    assert!(parent.read_u64(addr).is_err());
    assert_eq!(
        parent.read_u64(addr + 4 * MIB).unwrap(),
        0xBEEF_0000 + 4 * MIB
    );
}

#[test]
fn mremap_of_shared_huge_span_copies_then_moves() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 8 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();

    let new_addr = parent.mremap(addr, 8 * MIB, 16 * MIB).unwrap();
    for off in (0..8 * MIB).step_by(2 * MIB as usize) {
        assert_eq!(parent.read_u64(new_addr + off).unwrap(), 0xBEEF_0000 + off);
    }
    check_region(&child, addr, 8 * MIB);
    parent.write_u64(new_addr, 7).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 0xBEEF_0000);
}

#[test]
fn mprotect_on_shared_huge_span_blocks_writes() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = huge_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
    child.mprotect(addr, 4 * MIB, odf_vm::Prot::READ).unwrap();
    assert!(child.write_u64(addr, 1).is_err());
    check_region(&child, addr, 4 * MIB);
    parent.write_u64(addr, 2).unwrap();
    assert_eq!(parent.read_u64(addr).unwrap(), 2);
}

#[test]
fn resources_conserved_across_huge_extension_lifecycles() {
    let m = machine();
    let free0 = m.pool().free_frames();
    {
        let parent = new_mm(&m);
        let addr = huge_region(&parent, 16 * MIB);
        let c1 = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
        let c2 = c1.fork(ForkPolicy::OnDemandHuge).unwrap();
        c1.write_u64(addr, 1).unwrap();
        c2.write_u64(addr + 2 * MIB, 2).unwrap();
        parent.munmap(addr, 8 * MIB).unwrap();
    }
    assert_eq!(m.pool().free_frames(), free0, "frame leak");
    assert_eq!(m.live_tables(), 0, "table leak");
}

/// A range walk whose first chunk makes the unmap path swap an owned copy
/// of the shared PMD table into the PUD entry must act on that copy for
/// every later chunk of the 1 GiB span: the walk's cursor reloads the PUD
/// entry at each chunk instead of reusing the table it resolved first.
/// `munmap` and `madvise(MADV_DONTNEED)` swap mid-walk; `mprotect` never
/// swaps (it skips a shared PMD table whole), so its case walks the span
/// right after a one-chunk `munmap` swapped the table.
#[test]
fn range_walks_follow_the_pmd_table_swapped_in_at_their_first_chunk() {
    const LEN: u64 = 16 * MIB;
    for op in ["munmap", "madvise_dontneed", "mprotect"] {
        let m = machine();
        let baseline = m.pool().balance();
        {
            let parent = new_mm(&m);
            let addr = huge_region(&parent, LEN);
            let child = parent.fork(ForkPolicy::OnDemandHuge).unwrap();
            // Chunks 1..=4 of the 8; the span keeps mapped chunks on both
            // sides, so the first chunk copies the table instead of
            // releasing it.
            let (at, len) = (addr + 2 * MIB, 8 * MIB);
            let before = m.stats().snapshot();
            match op {
                "munmap" => parent.munmap(at, len).unwrap(),
                "madvise_dontneed" => parent.madvise_dontneed(at, len).unwrap(),
                _ => {
                    parent.munmap(addr, 2 * MIB).unwrap();
                    parent.mprotect(at, len, Prot::READ).unwrap();
                }
            }
            let d = m.stats().snapshot() - before;
            assert_eq!(d.unmap_table_copies, 1, "{op}: one PMD-table copy");

            check_region(&child, addr, LEN);
            for off in (0..LEN).step_by(2 * MIB as usize) {
                let (va, old) = (addr + off, 0xBEEF_0000 + off);
                let walked = (at..at + len).contains(&va);
                match op {
                    "munmap" if walked => assert!(parent.read_u64(va).is_err(), "{op} {off:#x}"),
                    "madvise_dontneed" if walked => {
                        assert_eq!(parent.read_u64(va).unwrap(), 0, "{op} {off:#x}")
                    }
                    "mprotect" if off == 0 => {}
                    "mprotect" if walked => {
                        assert_eq!(parent.read_u64(va).unwrap(), old, "{op} {off:#x}");
                        assert!(parent.write_u64(va, 1).is_err(), "{op} {off:#x}");
                    }
                    _ => {
                        assert_eq!(parent.read_u64(va).unwrap(), old, "{op} {off:#x}");
                        parent.write_u64(va, off).unwrap();
                    }
                }
            }
            // The parent's writes went to its own table.
            check_region(&child, addr, LEN);
            for off in (0..LEN).step_by(2 * MIB as usize) {
                child.write_u64(addr + off, !off).unwrap();
                assert_eq!(child.read_u64(addr + off).unwrap(), !off);
            }
        }
        assert_pool_balanced(m.pool(), baseline);
    }
}
