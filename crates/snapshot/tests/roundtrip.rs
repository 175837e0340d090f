//! Property test: random mutation scripts survive checkpoint → restore
//! bit-identically, both as one full image and as a base-plus-deltas
//! chain, under Classic and On-demand fork (the bgsave flow: each
//! checkpoint forks a child and resets the parent's epoch, and the child
//! is serialized only after the parent's first operations of the next
//! epoch, so the parent writes, reads and discards through tables the
//! child still shares). The region straddles a 2 MiB boundary: its pages
//! live in two PTE tables.

use std::sync::Arc;

use odf_snapshot::{capture_delta, capture_full, materialize, restore_into, SnapshotImage};
use odf_vm::{ForkPolicy, Machine, MapParams, Mm, PAGE_SIZE};
use proptest::collection::vec;
use proptest::prelude::*;

const PG: u64 = PAGE_SIZE as u64;
const REGION_PAGES: u64 = 64;
/// Where the region starts: half its pages below a 2 MiB boundary.
const REGION_BASE: u64 = 0x4020_0000 - REGION_PAGES / 2 * PG;

/// One mutation: (kind, page, len_pages, seed).
type Op = (u8, u64, u64, u64);

fn apply(mm: &Mm, base: u64, op: Op) {
    let (kind, page, len_pages, seed) = op;
    let page = page % REGION_PAGES;
    let len_pages = 1 + len_pages % 4;
    let addr = base + page * PG;
    let end_pages = (page + len_pages).min(REGION_PAGES);
    let len = (end_pages - page) * PG;
    match kind % 4 {
        0 => {
            // Seeded write of a few hundred bytes.
            let n = 64 + (seed % 1500) as usize;
            let data: Vec<u8> = (0..n)
                .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64)) as u8)
                .collect();
            let off = seed % (PG - n as u64);
            mm.write(addr + off, &data).unwrap();
        }
        1 => mm.madvise_dontneed(addr, len).unwrap(),
        2 => mm.populate(addr, len, true).unwrap(),
        // A read: a never-populated page is instantiated by it.
        _ => {
            mm.read_vec(addr, len as usize).unwrap();
        }
    }
}

/// Per-page FNV digest of every mapped byte.
fn digest(mm: &Mm) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for vma in mm.capture_view().vmas {
        let mut va = vma.start;
        while va < vma.end {
            let bytes = mm.read_vec(va, PAGE_SIZE).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            out.push((va, h));
            va += PG;
        }
    }
    out
}

/// The bgsave handshake: fork (the child freezes epoch `n`), then start
/// the parent's epoch `n + 1`.
fn fork_and_sweep(mm: &Mm, policy: ForkPolicy) -> Mm {
    let child = mm.fork(policy).unwrap();
    mm.clear_soft_dirty().unwrap();
    child
}

/// Serializes the frozen child through the wire format — in full for
/// epoch 0, as a delta on the epoch before otherwise — and drops it.
fn serialize(child: Mm, epoch: u64) -> SnapshotImage {
    let img = if epoch == 0 {
        capture_full(&child, epoch)
    } else {
        capture_delta(&child, epoch, epoch - 1)
    };
    SnapshotImage::from_bytes(&img.to_bytes()).unwrap()
}

fn run_script(policy: ForkPolicy, epochs: &[Vec<Op>]) {
    let machine = Machine::new(256 << 20);
    let mm = Mm::new(Arc::clone(&machine)).unwrap();
    let base = mm
        .mmap_fixed(REGION_BASE, REGION_PAGES * PG, MapParams::anon_rw())
        .unwrap();

    let mut images = Vec::new();
    let mut child = None;
    for (e, ops) in epochs.iter().enumerate() {
        let (early, late) = ops.split_at(ops.len().div_ceil(2));
        for &op in early {
            apply(&mm, base, op);
        }
        // The previous epoch's child lived through the parent's first
        // operations of this one.
        if let Some(c) = child.take() {
            images.push(serialize(c, e as u64 - 1));
        }
        for &op in late {
            apply(&mm, base, op);
        }
        child = Some(fork_and_sweep(&mm, policy));
    }
    let last = child.take().expect("at least one epoch");
    images.push(serialize(last, epochs.len() as u64 - 1));
    let want = digest(&mm);

    // Restore from the materialized chain.
    let (first, rest) = images.split_first().unwrap();
    let deltas: Vec<&SnapshotImage> = rest.iter().collect();
    let merged = materialize(first, &deltas).unwrap();
    let restored = Mm::new(Arc::clone(&machine)).unwrap();
    restore_into(&merged, &restored).unwrap();
    assert_eq!(
        want,
        digest(&restored),
        "chain restore must be bit-identical"
    );

    // And from a single full image of the final state.
    let img = capture_full(&fork_and_sweep(&mm, policy), epochs.len() as u64);
    let full = SnapshotImage::from_bytes(&img.to_bytes()).unwrap();
    let restored2 = Mm::new(Arc::clone(&machine)).unwrap();
    restore_into(&full, &restored2).unwrap();
    assert_eq!(
        want,
        digest(&restored2),
        "full restore must be bit-identical"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_scripts_round_trip_classic(
        e0 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 1..8),
        e1 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 0..8),
        e2 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 0..8),
    ) {
        run_script(ForkPolicy::Classic, &[e0, e1, e2]);
    }

    #[test]
    fn random_scripts_round_trip_on_demand(
        e0 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 1..8),
        e1 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 0..8),
        e2 in vec((0u8..4, 0u64..64, 0u64..4, 0u64..u64::MAX), 0..8),
    ) {
        run_script(ForkPolicy::OnDemand, &[e0, e1, e2]);
    }
}

#[test]
fn deterministic_mixed_script_round_trips_both_policies() {
    for policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
        run_script(
            policy,
            &[
                vec![(0, 0, 1, 1), (0, 13, 1, 2), (2, 20, 3, 0), (0, 40, 1, 5)],
                vec![(1, 0, 2, 0), (0, 40, 1, 3), (3, 50, 2, 0)],
                vec![(0, 13, 1, 4), (3, 2, 1, 0), (1, 40, 1, 0)],
                vec![(0, 41, 1, 6), (0, 20, 1, 7)],
            ],
        );
    }
}
