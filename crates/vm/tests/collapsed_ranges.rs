//! Range operations that cut through a collapsed 2 MiB chunk.
//!
//! A huge entry a range covers whole is handled at PMD granularity; one it
//! covers only partly is demoted to 512 PTEs first. Either way the result
//! must be indistinguishable from the same operation on a twin address
//! space whose chunk was never collapsed.

use std::sync::Arc;

use odf_pmem::assert_pool_balanced;
use odf_vm::{Machine, MapParams, Mm, Prot, ThpOutcome, HUGE_PAGE_SIZE, PAGE_SIZE};

const PG: u64 = PAGE_SIZE as u64;
const HUGE: u64 = HUGE_PAGE_SIZE as u64;
/// 2 MiB-aligned and clear of the bump allocator's range, so `mremap`'s
/// destination never overlaps the mapping.
const BASE: u64 = 0x4000_0000;
/// The mapping: two chunks; only the first is collapsed.
const LEN: u64 = 2 * HUGE;

#[derive(Clone, Copy, Debug)]
enum Op {
    Munmap,
    MprotectRead,
    DontNeed,
    MremapGrow,
}

/// A mapping whose every page holds a distinct value, its first chunk
/// collapsed into a huge page when `collapse`.
fn space(machine: &Arc<Machine>, collapse: bool) -> Mm {
    let mm = Mm::new(Arc::clone(machine)).unwrap();
    mm.mmap_fixed(BASE, LEN, MapParams::anon_rw()).unwrap();
    for pg in 0..LEN / PG {
        mm.write_u64(BASE + pg * PG, 0xC0DE_0000 + pg).unwrap();
    }
    if collapse {
        assert_eq!(mm.collapse_huge(BASE), Ok(ThpOutcome::Collapsed));
    }
    mm
}

/// Applies `op` to `[start, start + len)`; returns where the range lives
/// afterwards (moved by `mremap`).
fn apply(mm: &Mm, op: Op, start: u64, len: u64) -> u64 {
    match op {
        Op::Munmap => mm.munmap(start, len).unwrap(),
        Op::MprotectRead => mm.mprotect(start, len, Prot::READ).unwrap(),
        Op::DontNeed => mm.madvise_dontneed(start, len).unwrap(),
        Op::MremapGrow => return mm.mremap(start, len, 2 * len).unwrap(),
    }
    start
}

/// Every page of the original mapping and of the range's new home: what a
/// read returns (an error reads as `None`).
fn image(mm: &Mm, moved_to: u64, len: u64) -> Vec<Option<u64>> {
    let pages = (BASE..BASE + LEN).chain(moved_to..moved_to + 2 * len);
    pages
        .step_by(PG as usize)
        .map(|va| mm.read_u64(va).ok())
        .collect()
}

#[test]
fn range_operations_over_a_collapsed_chunk_match_its_twin() {
    // (case, offset from BASE, length, demotions the operation causes)
    let ranges = [
        ("whole chunk", 0, HUGE, 0),
        ("head half", 0, HUGE / 2, 1),
        ("tail half", HUGE / 2, HUGE / 2, 1),
        ("straddling two chunks", HUGE / 2, HUGE, 1),
    ];
    let ops = [Op::Munmap, Op::MprotectRead, Op::DontNeed, Op::MremapGrow];
    for (case, offset, len, demotions) in ranges {
        for op in ops {
            let what = format!("{op:?} over the {case}");
            let machine = Machine::new(64 << 20);
            let baseline = machine.pool().balance();
            {
                let twin = space(&machine, false);
                let huge = space(&machine, true);
                assert!(huge.pmd_entry(BASE).unwrap().is_huge());

                let to_twin = apply(&twin, op, BASE + offset, len);
                let before = machine.stats().snapshot().thp_demotions;
                let to_huge = apply(&huge, op, BASE + offset, len);
                assert_eq!(
                    machine.stats().snapshot().thp_demotions - before,
                    demotions,
                    "{what}: demotions"
                );
                assert_eq!(to_huge, to_twin, "{what}: destination");

                assert_eq!(
                    image(&huge, to_huge, len),
                    image(&twin, to_twin, len),
                    "{what}: bytes read back"
                );
                assert_eq!(huge.smaps().rss(), twin.smaps().rss(), "{what}: rss");
                let pages = (BASE..BASE + LEN).chain(to_twin..to_twin + 2 * len);
                for va in pages.step_by(PG as usize) {
                    assert_eq!(
                        huge.write_u64(va, 7).is_err(),
                        twin.write_u64(va, 7).is_err(),
                        "{what}: write at {va:#x} faults alike"
                    );
                }
            }
            assert_pool_balanced(machine.pool(), baseline);
        }
    }
}
