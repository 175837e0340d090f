//! End-to-end semantics of the virtual memory subsystem.
//!
//! The paper's central claim is that On-demand-fork is a *drop-in
//! replacement* for fork: identical COW semantics, different cost profile.
//! These tests exercise both engines through the public `Mm` API and verify
//! the observable semantics (isolation, sharing state, resource
//! conservation) that §3 and §4 of the paper specify.

use std::sync::Arc;

use odf_vm::{Backing, ForkPolicy, Machine, MapParams, Mm, Prot, VmError, VmFile};

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;

fn machine() -> Arc<Machine> {
    Machine::new(256 * MIB)
}

fn new_mm(m: &Arc<Machine>) -> Mm {
    Mm::new(Arc::clone(m)).unwrap()
}

/// Maps and fills a region with a recognizable pattern.
fn mapped_region(mm: &Mm, len: u64) -> u64 {
    let addr = mm.mmap(len, MapParams::anon_rw()).unwrap();
    for off in (0..len).step_by(PAGE as usize) {
        mm.write_u64(addr + off, 0xA5A5_0000 + off).unwrap();
    }
    addr
}

fn check_pattern(mm: &Mm, addr: u64, len: u64) {
    for off in (0..len).step_by(PAGE as usize) {
        assert_eq!(
            mm.read_u64(addr + off).unwrap(),
            0xA5A5_0000 + off,
            "at offset {off:#x}"
        );
    }
}

#[test]
fn classic_fork_isolates_parent_and_child() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::Classic).unwrap();

    check_pattern(&child, addr, 4 * MIB);
    child.write_u64(addr, 111).unwrap();
    parent.write_u64(addr + PAGE, 222).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 111);
    assert_eq!(parent.read_u64(addr).unwrap(), 0xA5A5_0000);
    assert_eq!(parent.read_u64(addr + PAGE).unwrap(), 222);
    assert_eq!(child.read_u64(addr + PAGE).unwrap(), 0xA5A5_0000 + PAGE);
}

#[test]
fn odf_fork_isolates_parent_and_child() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    check_pattern(&child, addr, 4 * MIB);
    child.write_u64(addr, 111).unwrap();
    parent.write_u64(addr + PAGE, 222).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 111);
    assert_eq!(parent.read_u64(addr).unwrap(), 0xA5A5_0000);
    assert_eq!(parent.read_u64(addr + PAGE).unwrap(), 222);
    assert_eq!(child.read_u64(addr + PAGE).unwrap(), 0xA5A5_0000 + PAGE);
}

#[test]
fn odf_fork_shares_last_level_tables() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    // Both processes reference the same PTE table, write-protected at the
    // PMD level (§3.1).
    let pe = parent.pmd_entry(addr).unwrap();
    let ce = child.pmd_entry(addr).unwrap();
    assert_eq!(pe.frame(), ce.frame(), "PTE table is shared");
    assert!(!pe.is_writable(), "parent PMD entry write-protected");
    assert!(!ce.is_writable(), "child PMD entry write-protected");
    assert_eq!(m.pool().pt_share_count(pe.frame()), 2);
}

#[test]
fn classic_fork_does_not_share_tables() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::Classic).unwrap();
    let pe = parent.pmd_entry(addr).unwrap();
    let ce = child.pmd_entry(addr).unwrap();
    assert_ne!(pe.frame(), ce.frame());
    assert_eq!(m.pool().pt_share_count(pe.frame()), 1);
}

#[test]
fn odf_reads_do_not_copy_tables() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 8 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let before = m.stats().snapshot();
    check_pattern(&child, addr, 8 * MIB);
    check_pattern(&parent, addr, 8 * MIB);
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.cow_table_copies, 0, "reads are fast reads (§3.4)");
    assert_eq!(delta.cow_data_copies, 0);
}

#[test]
fn odf_write_copies_table_once_per_2mib_range() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 4 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let before = m.stats().snapshot();
    // 16 writes within the same 2 MiB range: one table copy, then reuse.
    for i in 0..16 {
        child.write_u64(addr + i * PAGE, i).unwrap();
    }
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.cow_table_copies, 1, "one copy per range per process");

    // A write in the second 2 MiB range copies its own table.
    child.write_u64(addr + 2 * MIB, 7).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.cow_table_copies, 2);

    // After the child's copy, the parent is the *sole* owner of the
    // first range's table (§3.4: both tables become dedicated), so its
    // write needs no table copy — only a data-page COW, because the
    // child's table-copy raised the page's refcount.
    parent.write_u64(addr, 9).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.cow_table_copies, 2);
    assert!(delta.cow_data_copies >= 1);
}

#[test]
fn table_cow_defers_page_refcounts() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let frame = parent.resolve(addr).unwrap();
    assert_eq!(m.pool().ref_count(frame), 1);

    // ODF fork does not touch data-page refcounts (§3.6)...
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();
    assert_eq!(m.pool().ref_count(frame), 1);

    // ...the deferred increments happen at table-COW time.
    child.write_u64(addr + 4 * PAGE, 1).unwrap();
    assert_eq!(m.pool().ref_count(frame), 2);
}

#[test]
fn sole_owner_after_child_exit_writes_without_table_copy() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();
    let table = parent.pmd_entry(addr).unwrap().frame();
    assert_eq!(m.pool().pt_share_count(table), 2);
    drop(child);
    assert_eq!(m.pool().pt_share_count(table), 1, "share released at exit");

    let before = m.stats().snapshot();
    parent.write_u64(addr, 42).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.cow_table_copies, 0, "dedicated again: no copy");
    assert_eq!(delta.cow_data_copies, 0, "page is exclusively owned");
    assert_eq!(parent.read_u64(addr).unwrap(), 42);
    // The PMD writable bit was restored.
    assert!(parent.pmd_entry(addr).unwrap().is_writable());
}

#[test]
fn many_processes_can_share_one_table() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let table = parent.pmd_entry(addr).unwrap().frame();

    let children: Vec<Mm> = (0..5)
        .map(|_| parent.fork(ForkPolicy::OnDemand).unwrap())
        .collect();
    assert_eq!(m.pool().pt_share_count(table), 6);
    for (i, c) in children.iter().enumerate() {
        assert_eq!(c.read_u64(addr).unwrap(), 0xA5A5_0000);
        c.write_u64(addr, i as u64).unwrap();
    }
    for (i, c) in children.iter().enumerate() {
        assert_eq!(c.read_u64(addr).unwrap(), i as u64);
    }
    assert_eq!(parent.read_u64(addr).unwrap(), 0xA5A5_0000);
    assert_eq!(
        m.pool().pt_share_count(table),
        1,
        "all children went private"
    );
}

#[test]
fn grandchildren_inherit_through_shared_tables() {
    let m = machine();
    let gen0 = new_mm(&m);
    let addr = mapped_region(&gen0, 2 * MIB);
    let gen1 = gen0.fork(ForkPolicy::OnDemand).unwrap();
    let gen2 = gen1.fork(ForkPolicy::OnDemand).unwrap();
    let table = gen0.pmd_entry(addr).unwrap().frame();
    assert_eq!(m.pool().pt_share_count(table), 3);

    // The table outlives intermediate generations (§3.5).
    drop(gen0);
    drop(gen1);
    assert_eq!(m.pool().pt_share_count(table), 1);
    check_pattern(&gen2, addr, 2 * MIB);
    gen2.write_u64(addr, 5).unwrap();
    assert_eq!(gen2.read_u64(addr).unwrap(), 5);
}

#[test]
fn mixed_policies_compose() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);

    // ODF fork first, then a classic fork of the (table-sharing) parent.
    let odf_child = parent.fork(ForkPolicy::OnDemand).unwrap();
    let classic_child = parent.fork(ForkPolicy::Classic).unwrap();

    check_pattern(&classic_child, addr, 2 * MIB);
    classic_child.write_u64(addr, 1).unwrap();
    odf_child.write_u64(addr, 2).unwrap();
    parent.write_u64(addr, 3).unwrap();
    assert_eq!(classic_child.read_u64(addr).unwrap(), 1);
    assert_eq!(odf_child.read_u64(addr).unwrap(), 2);
    assert_eq!(parent.read_u64(addr).unwrap(), 3);
    assert_eq!(
        classic_child.read_u64(addr + PAGE).unwrap(),
        0xA5A5_0000 + PAGE
    );
}

#[test]
fn all_resources_are_returned_after_fork_trees_die() {
    let m = machine();
    let free0 = m.pool().free_frames();
    {
        let parent = new_mm(&m);
        let addr = mapped_region(&parent, 8 * MIB);
        let c1 = parent.fork(ForkPolicy::OnDemand).unwrap();
        let c2 = parent.fork(ForkPolicy::Classic).unwrap();
        let c3 = c1.fork(ForkPolicy::OnDemand).unwrap();
        c1.write_u64(addr, 1).unwrap();
        c2.write_u64(addr + 2 * MIB, 2).unwrap();
        c3.fill(addr + 4 * MIB, MIB as usize, 0xEE).unwrap();
        parent.munmap(addr, 2 * MIB).unwrap();
    }
    assert_eq!(m.pool().free_frames(), free0, "frame leak");
    assert_eq!(m.live_tables(), 0, "table leak");
}

#[test]
fn munmap_full_range_releases_shared_table_fast() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();
    let table = parent.pmd_entry(addr).unwrap().frame();

    let before = m.stats().snapshot();
    parent.munmap(addr, 2 * MIB).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.unmap_table_copies, 0, "full release needs no copy");
    assert_eq!(m.pool().pt_share_count(table), 1);
    // The child still reads the data through the surviving table.
    check_pattern(&child, addr, 2 * MIB);
    assert!(matches!(parent.read_u64(addr), Err(VmError::Fault { .. })));
}

#[test]
fn munmap_partial_range_copies_shared_table() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let before = m.stats().snapshot();
    // Unmap the first half; the same PTE table still maps the second half.
    parent.munmap(addr, MIB).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.unmap_table_copies, 1, "§3.3: COW on partial unmap");

    check_pattern(&child, addr, 2 * MIB);
    for off in (MIB..2 * MIB).step_by(PAGE as usize) {
        assert_eq!(parent.read_u64(addr + off).unwrap(), 0xA5A5_0000 + off);
    }
    assert!(parent.read_u64(addr).is_err());
}

#[test]
fn mremap_moves_data_and_handles_shared_tables() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let new_addr = parent.mremap(addr, 2 * MIB, 4 * MIB).unwrap();
    assert_ne!(new_addr, addr);
    check_pattern(&parent, new_addr, 2 * MIB);
    // Growth is mapped and usable.
    parent.write_u64(new_addr + 3 * MIB, 77).unwrap();
    assert_eq!(parent.read_u64(new_addr + 3 * MIB).unwrap(), 77);
    // The old address is gone for the parent, intact for the child.
    assert!(parent.read_u64(addr).is_err());
    check_pattern(&child, addr, 2 * MIB);

    // Writes after the move stay isolated.
    parent.write_u64(new_addr, 123).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 0xA5A5_0000);
}

#[test]
fn mremap_shrinks_in_place() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mapped_region(&mm, 4 * MIB);
    let got = mm.mremap(addr, 4 * MIB, 2 * MIB).unwrap();
    assert_eq!(got, addr);
    check_pattern(&mm, addr, 2 * MIB);
    assert!(mm.read_u64(addr + 3 * MIB).is_err());
}

#[test]
fn mprotect_read_only_blocks_writes_and_restores() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mapped_region(&mm, MIB);
    mm.mprotect(addr, MIB, Prot::READ).unwrap();
    assert!(matches!(
        mm.write_u64(addr, 1),
        Err(VmError::Fault { write: true, .. })
    ));
    check_pattern(&mm, addr, MIB);
    mm.mprotect(addr, MIB, Prot::READ_WRITE).unwrap();
    mm.write_u64(addr, 1).unwrap();
    assert_eq!(mm.read_u64(addr).unwrap(), 1);
}

#[test]
fn mprotect_after_odf_fork_keeps_isolation() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();
    child.mprotect(addr, 2 * MIB, Prot::READ).unwrap();
    assert!(child.write_u64(addr, 1).is_err());
    parent.write_u64(addr, 2).unwrap();
    assert_eq!(parent.read_u64(addr).unwrap(), 2);
    assert_eq!(child.read_u64(addr).unwrap(), 0xA5A5_0000);
}

#[test]
fn prot_none_blocks_reads() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm
        .mmap(
            MIB,
            MapParams {
                prot: Prot::NONE,
                ..MapParams::anon_rw()
            },
        )
        .unwrap();
    assert!(matches!(
        mm.read_u64(addr),
        Err(VmError::Fault { write: false, .. })
    ));
}

#[test]
fn unmapped_access_faults() {
    let m = machine();
    let mm = new_mm(&m);
    assert!(mm.read_u64(0x4000).is_err());
    let addr = mm.mmap(MIB, MapParams::anon_rw()).unwrap();
    mm.munmap(addr, MIB).unwrap();
    assert!(mm.write_u64(addr, 1).is_err());
}

#[test]
fn private_file_mapping_cows_without_touching_the_file() {
    let m = machine();
    let mm = new_mm(&m);
    let mut contents = vec![0u8; 64 * 1024];
    contents[0..4].copy_from_slice(b"orig");
    let file = Arc::new(VmFile::from_bytes(contents));
    m.register_file(&file);
    let addr = mm
        .mmap(
            64 * 1024,
            MapParams {
                backing: Backing::File {
                    file: Arc::clone(&file),
                    pgoff: 0,
                },
                ..MapParams::anon_rw()
            },
        )
        .unwrap();
    let mut buf = [0u8; 4];
    mm.read(addr, &mut buf).unwrap();
    assert_eq!(&buf, b"orig");
    mm.write(addr, b"priv").unwrap();
    mm.read(addr, &mut buf).unwrap();
    assert_eq!(&buf, b"priv");
    file.writeback(m.pool());
    let mut disk = [0u8; 4];
    file.read_disk(0, &mut disk);
    assert_eq!(&disk, b"orig", "private write never reaches the file");
}

#[test]
fn shared_file_mapping_writes_through() {
    let m = machine();
    let mm = new_mm(&m);
    let file = Arc::new(VmFile::with_len(16 * 1024));
    let addr = mm
        .mmap(
            16 * 1024,
            MapParams {
                shared: true,
                backing: Backing::File {
                    file: Arc::clone(&file),
                    pgoff: 0,
                },
                ..MapParams::anon_rw()
            },
        )
        .unwrap();
    mm.write(addr + 100, b"shared!").unwrap();
    assert_eq!(file.writeback(m.pool()), 1);
    let mut disk = [0u8; 7];
    file.read_disk(100, &mut disk);
    assert_eq!(&disk, b"shared!");
}

#[test]
fn file_mappings_fork_under_both_policies() {
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        let m = machine();
        let mm = new_mm(&m);
        let file = Arc::new(VmFile::from_bytes(b"file-data".repeat(1000)));
        let addr = mm
            .mmap(
                8192,
                MapParams {
                    backing: Backing::File {
                        file: Arc::clone(&file),
                        pgoff: 0,
                    },
                    ..MapParams::anon_rw()
                },
            )
            .unwrap();
        let mut buf = [0u8; 9];
        mm.read(addr, &mut buf).unwrap();
        let child = mm.fork(policy).unwrap();
        let mut cbuf = [0u8; 9];
        child.read(addr, &mut cbuf).unwrap();
        assert_eq!(&cbuf, b"file-data", "{policy:?}");
        child.write(addr, b"CHILD").unwrap();
        mm.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"file-data", "{policy:?}: parent unaffected");
    }
}

#[test]
fn huge_mappings_fork_and_cow_whole_pages() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = parent.mmap(4 * MIB, MapParams::anon_rw_huge()).unwrap();
    parent.write_u64(addr, 0xC0FFEE).unwrap();
    parent.write_u64(addr + 2 * MIB, 0xBEEF).unwrap();

    let child = parent.fork(ForkPolicy::Classic).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 0xC0FFEE);

    let before = m.pool().stats().snapshot();
    child.write_u64(addr + 8 * PAGE, 1).unwrap();
    let delta = m.pool().stats().snapshot() - before;
    assert_eq!(delta.bytes_copied, 2 * MIB, "huge COW copies 2 MiB");
    assert_eq!(
        child.read_u64(addr).unwrap(),
        0xC0FFEE,
        "rest of page copied"
    );
    assert_eq!(child.read_u64(addr + 8 * PAGE).unwrap(), 1);
    assert_eq!(parent.read_u64(addr + 8 * PAGE).unwrap(), 0);
    // Untouched second huge page still shared: refcount 2.
    let f2 = child.resolve(addr + 2 * MIB).unwrap();
    assert_eq!(m.pool().ref_count(m.pool().compound_head(f2)), 2);
}

#[test]
fn huge_unmap_requires_alignment() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm.mmap(4 * MIB, MapParams::anon_rw_huge()).unwrap();
    assert_eq!(mm.munmap(addr, MIB), Err(VmError::InvalidArgument));
    mm.munmap(addr, 2 * MIB).unwrap();
    assert!(mm.read_u64(addr).is_err());
    assert!(mm.read_u64(addr + 2 * MIB).is_ok());
}

#[test]
fn fork_failure_unwinds_cleanly() {
    // Size the pool so the parent fits but a classic fork (which needs a
    // fresh table per 2 MiB plus its own upper levels) cannot allocate:
    // parent uses 1 (pgd) + 1 (pud) + 1 (pmd) + 4 (pte) + 2048 (data)
    // = 2055 frames; the child would need 7 more tables.
    let m = Machine::new(2060 * 4096);
    let parent = new_mm(&m);
    let addr = parent.mmap(8 * MIB, MapParams::anon_rw()).unwrap();
    parent.populate(addr, 8 * MIB, true).unwrap();
    let free_before = m.pool().free_frames();
    let err = match parent.fork(ForkPolicy::Classic) {
        Err(e) => e,
        Ok(_) => panic!("fork must fail when the pool is exhausted"),
    };
    assert_eq!(err, VmError::NoMemory);
    assert_eq!(m.pool().free_frames(), free_before, "partial child unwound");
    // The parent still works.
    parent.write_u64(addr, 7).unwrap();
    assert_eq!(parent.read_u64(addr).unwrap(), 7);
}

#[test]
fn odf_fork_failure_returns_every_table_share() {
    // One page in each of three chunks, two in the first 1 GiB span and
    // one in the second: pgd + pud + 2 pmd + 3 pte tables + 3 pages. The
    // pool leaves room for the child's pgd, pud and first pmd table, so
    // the fork shares the first span's tables and then fails at the
    // second span's pmd table.
    const GIB: u64 = 1 << 30;
    let m = Machine::new((10 + 3) * PAGE);
    let parent = new_mm(&m);
    parent
        .mmap_fixed(GIB, 2 * GIB, MapParams::anon_rw())
        .unwrap();
    let chunks = [GIB, GIB + 2 * MIB, 2 * GIB];
    for (i, &a) in chunks.iter().enumerate() {
        parent.write_u64(a, i as u64 + 1).unwrap();
    }
    let free_before = m.pool().free_frames();
    assert_eq!(
        free_before, 3,
        "room for the child's pgd, pud and first pmd"
    );
    let tables: Vec<_> = chunks
        .iter()
        .map(|&a| parent.pmd_entry(a).unwrap().frame())
        .collect();

    let before = m.stats().snapshot();
    let err = match parent.fork(ForkPolicy::OnDemand) {
        Err(e) => e,
        Ok(_) => panic!("fork must fail at the second span's pmd table"),
    };
    assert_eq!(err, VmError::NoMemory);
    assert_eq!(m.pool().free_frames(), free_before, "partial child unwound");
    for (&a, &t) in chunks.iter().zip(&tables) {
        assert_eq!(
            m.pool().pt_share_count(t),
            1,
            "share of the table at {a:#x}"
        );
    }
    // The parent's tables are its own again: its next write reuses the
    // write-protected table instead of copying it.
    parent.write_u64(GIB, 7).unwrap();
    assert_eq!(
        m.stats().snapshot().cow_table_copies,
        before.cow_table_copies
    );
    assert_eq!(parent.read_u64(GIB).unwrap(), 7);
    assert_eq!(parent.read_u64(GIB + 2 * MIB).unwrap(), 2);
    assert_eq!(parent.read_u64(2 * GIB).unwrap(), 3);
}

#[test]
fn odf_fork_succeeds_where_classic_cannot_allocate() {
    // ODF needs only upper-level tables; classic needs a table per 2 MiB.
    let m = Machine::new(3 * MIB + 512 * 1024);
    let parent = new_mm(&m);
    let addr = parent.mmap(2 * MIB, MapParams::anon_rw()).unwrap();
    parent.populate(addr, 2 * MIB, true).unwrap();
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();
    assert_eq!(child.read_u64(addr).unwrap(), 0);
}

#[test]
fn rss_accounting_tracks_population_and_unmap() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm.mmap(4 * MIB, MapParams::anon_rw()).unwrap();
    assert_eq!(mm.report().rss_pages, 0);
    mm.populate(addr, 4 * MIB, true).unwrap();
    assert_eq!(mm.report().rss_pages, 1024);
    mm.munmap(addr, 2 * MIB).unwrap();
    assert_eq!(mm.report().rss_pages, 512);
}

#[test]
fn cross_page_accesses_are_assembled_correctly() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm.mmap(2 * PAGE, MapParams::anon_rw()).unwrap();
    // Write across the page boundary.
    mm.write(addr + PAGE - 3, b"ABCDEFGH").unwrap();
    let mut buf = [0u8; 8];
    mm.read(addr + PAGE - 3, &mut buf).unwrap();
    assert_eq!(&buf, b"ABCDEFGH");
    assert_eq!(
        mm.read_u64(addr + PAGE - 3).unwrap(),
        u64::from_le_bytes(*b"ABCDEFGH")
    );
}

#[test]
fn fill_and_read_vec_round_trip() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm.mmap(MIB, MapParams::anon_rw()).unwrap();
    mm.fill(addr, MIB as usize, 0x5C).unwrap();
    let v = mm.read_vec(addr + 1234, 100).unwrap();
    assert!(v.iter().all(|&b| b == 0x5C));
}

#[test]
fn concurrent_children_fork_and_write_safely() {
    let m = machine();
    let parent = Arc::new(new_mm(&m));
    let addr = mapped_region(&parent, 8 * MIB);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let parent = Arc::clone(&parent);
            s.spawn(move || {
                let child = parent.fork(ForkPolicy::OnDemand).unwrap();
                for i in 0..64u64 {
                    let a = addr + (t * 2 * MIB) + i * PAGE;
                    child.write_u64(a, t * 1000 + i).unwrap();
                    assert_eq!(child.read_u64(a).unwrap(), t * 1000 + i);
                }
                drop(child);
            });
        }
    });
    check_pattern(&parent, addr, 8 * MIB);
}

#[test]
fn madvise_dontneed_zeroes_without_unmapping() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mapped_region(&mm, 2 * MIB);
    mm.madvise_dontneed(addr, MIB).unwrap();
    // Dropped half reads zero; the mapping itself survives.
    assert_eq!(mm.read_u64(addr).unwrap(), 0);
    assert_eq!(mm.read_u64(addr + MIB).unwrap(), 0xA5A5_0000 + MIB);
    mm.write_u64(addr, 77).unwrap();
    assert_eq!(mm.read_u64(addr).unwrap(), 77);
    assert_eq!(mm.report().mapped_bytes, 2 * MIB);
}

#[test]
fn madvise_dontneed_on_shared_tables_respects_cow_rules() {
    let m = machine();
    let parent = new_mm(&m);
    let addr = mapped_region(&parent, 2 * MIB);
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let before = m.stats().snapshot();
    // The VMA stays mapped, so the shared table must be copied, not
    // released (§3.3's conservative branch).
    parent.madvise_dontneed(addr, 2 * MIB).unwrap();
    let delta = m.stats().snapshot() - before;
    assert_eq!(delta.unmap_table_copies, 1);

    assert_eq!(parent.read_u64(addr).unwrap(), 0, "parent dropped its copy");
    check_pattern(&child, addr, 2 * MIB);
}

#[test]
fn madvise_dontneed_requires_fully_mapped_range() {
    let m = machine();
    let mm = new_mm(&m);
    let addr = mm.mmap(MIB, MapParams::anon_rw()).unwrap();
    assert_eq!(
        mm.madvise_dontneed(addr, 2 * MIB),
        Err(VmError::InvalidArgument)
    );
    assert_eq!(
        mm.madvise_dontneed(addr + 123, PAGE),
        Err(VmError::InvalidArgument)
    );
}
