//! Accessed/dirty bit behavior and statistics accounting — the §3.2
//! details the paper calls out explicitly.

use std::collections::HashSet;
use std::sync::Arc;

use odf_pmem::Page;
use odf_vm::{ForkPolicy, Machine, MapParams, Mm};

const MIB: u64 = 1 << 20;

fn setup() -> (Arc<Machine>, Mm) {
    let m = Machine::new(128 * MIB);
    let mm = Mm::new(Arc::clone(&m)).unwrap();
    (m, mm)
}

/// Reads the raw PTE for an address via the public diagnostics.
fn pte_bits(m: &Machine, mm: &Mm, addr: u64) -> (bool, bool) {
    let pmd = mm.pmd_entry(addr).expect("pmd present");
    assert!(!pmd.is_huge());
    let table = m.table(pmd.frame());
    let e = table.load(((addr >> 12) & 0x1FF) as usize);
    (e.is_accessed(), e.is_dirty())
}

#[test]
fn reads_set_accessed_writes_set_dirty() {
    let (m, mm) = setup();
    let addr = mm.mmap(MIB, MapParams::anon_rw()).unwrap();
    mm.populate(addr, MIB, false).unwrap();
    // populate marks accessed; dirty only after a write.
    let (_, d) = pte_bits(&m, &mm, addr);
    assert!(!d, "no write yet");
    let mut buf = [0u8; 8];
    mm.read(addr, &mut buf).unwrap();
    let (a, d) = pte_bits(&m, &mm, addr);
    assert!(a, "read sets accessed");
    assert!(!d, "read does not set dirty");
    mm.write(addr, &[1]).unwrap();
    let (_, d) = pte_bits(&m, &mm, addr);
    assert!(d, "write sets dirty");
}

#[test]
fn accessed_bits_still_set_through_shared_tables() {
    // §3.2: "the CPU still marks pages mapped by a shared page table as
    // accessed, as normal".
    let (m, parent) = setup();
    let addr = parent.mmap(2 * MIB, MapParams::anon_rw()).unwrap();
    parent.populate(addr, 2 * MIB, true).unwrap();
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    let probe = addr + 17 * 4096;
    let mut buf = [0u8; 4];
    child.read(probe, &mut buf).unwrap();
    let (a, d) = pte_bits(&m, &child, probe);
    assert!(a, "accessed set through the shared table");
    assert!(!d, "dirty can never be set through a shared table (§3.2)");
    // Parent and child resolve to the same table, so the parent sees the
    // same accessed bit.
    let (a_parent, _) = pte_bits(&m, &parent, probe);
    assert!(a_parent);
}

#[test]
fn accessed_bits_are_preserved_by_table_cow() {
    // §3.2: "during page faults On-demand-fork duplicates the accessed
    // bit value when copying shared page tables".
    let (m, parent) = setup();
    let addr = parent.mmap(2 * MIB, MapParams::anon_rw()).unwrap();
    parent.populate(addr, 2 * MIB, true).unwrap();
    let child = parent.fork(ForkPolicy::OnDemand).unwrap();

    // Touch one page read-only through the shared table...
    let probe = addr + 99 * 4096;
    let mut buf = [0u8; 4];
    child.read(probe, &mut buf).unwrap();
    // ...then force the child's table COW with a write elsewhere.
    child.write_u64(addr, 1).unwrap();
    assert_ne!(
        parent.pmd_entry(addr).unwrap().frame(),
        child.pmd_entry(addr).unwrap().frame(),
        "child went dedicated"
    );
    let (a, _) = pte_bits(&m, &child, probe);
    assert!(a, "accessed bit survived the table copy");
}

#[test]
fn fork_and_unmap_issue_tlb_flushes() {
    let (m, mm) = setup();
    let addr = mm.mmap(4 * MIB, MapParams::anon_rw()).unwrap();
    mm.populate(addr, 4 * MIB, true).unwrap();
    let before = m.stats().snapshot();
    let child = mm.fork(ForkPolicy::OnDemand).unwrap();
    let after_fork = m.stats().snapshot();
    assert!(
        after_fork.tlb_flushes > before.tlb_flushes,
        "fork wrprotect flushes"
    );
    drop(child);
    mm.munmap(addr, 4 * MIB).unwrap();
    let after_unmap = m.stats().snapshot();
    assert!(
        after_unmap.tlb_flushes > after_fork.tlb_flushes,
        "unmap flushes"
    );
}

#[test]
fn fork_cost_counters_scale_with_policy() {
    let (m, mm) = setup();
    let addr = mm.mmap(8 * MIB, MapParams::anon_rw()).unwrap();
    mm.populate(addr, 8 * MIB, true).unwrap();

    let before = m.stats().snapshot();
    let c1 = mm.fork(ForkPolicy::Classic).unwrap();
    let classic = m.stats().snapshot() - before;
    assert_eq!(classic.fork_pte_copies, 2048, "one copy per mapped page");
    assert_eq!(classic.fork_tables_shared, 0);
    drop(c1);

    let before = m.stats().snapshot();
    let c2 = mm.fork(ForkPolicy::OnDemand).unwrap();
    let odf = m.stats().snapshot() - before;
    assert_eq!(odf.fork_pte_copies, 0, "no per-PTE work at fork");
    assert_eq!(odf.fork_tables_shared, 4, "one share per 2 MiB chunk");
    drop(c2);
}

#[test]
fn pool_counters_show_the_512x_asymmetry() {
    let (m, mm) = setup();
    let addr = mm.mmap(8 * MIB, MapParams::anon_rw()).unwrap();
    mm.populate(addr, 8 * MIB, true).unwrap();

    let before = m.pool().stats().snapshot();
    let c = mm.fork(ForkPolicy::Classic).unwrap();
    let classic = m.pool().stats().snapshot() - before;
    drop(c);

    let before = m.pool().stats().snapshot();
    let c = mm.fork(ForkPolicy::OnDemand).unwrap();
    let odf = m.pool().stats().snapshot() - before;
    drop(c);

    // Classic refcounts every page; ODF bumps one table counter per 2 MiB.
    assert_eq!(classic.page_ref_incs, 2048);
    assert_eq!(odf.pt_share_incs, 4);
    assert!(classic.page_ref_incs / odf.pt_share_incs.max(1) == 512);
}

/// On-demand-fork's cost per 2 MiB is one increment of the shared-table
/// counter in the PTE table frame's `Page`, so a cold fork's cost is the
/// cache lines those counters sit on. Page tables have their own magazine
/// lane, refilled from unmovable pageblocks, so the 512 tables of a
/// populated GiB sit together in frame order, four `Page`s to a 64-byte
/// line. Carved from the data frames' lane, each table would sit between
/// the ~511 data frames it maps, on a line of its own: 512 lines.
#[test]
fn a_gibs_pte_tables_share_counter_cache_lines() {
    const CHUNKS: u64 = 512;
    let m = Machine::new(CHUNKS * 2 * MIB + 64 * MIB);
    let mm = Mm::new(Arc::clone(&m)).unwrap();
    let len = CHUNKS * 2 * MIB;
    let addr = mm.mmap(len, MapParams::anon_rw()).unwrap();
    mm.populate(addr, len, true).unwrap();
    let lines: HashSet<usize> = (0..CHUNKS)
        .map(|i| {
            let pmd = mm.pmd_entry(addr + i * 2 * MIB).expect("pmd present");
            assert!(!pmd.is_huge());
            pmd.frame().index() * std::mem::size_of::<Page>() / 64
        })
        .collect();
    assert!(
        lines.len() <= 130,
        "{CHUNKS} PTE tables' counters span {} cache lines",
        lines.len()
    );
}
