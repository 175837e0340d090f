//! Property tests for the frame pool and buddy allocator.

use odf_pmem::{FramePool, PageKind, HUGE_ORDER};
use proptest::prelude::*;

/// A scripted allocator operation.
#[derive(Clone, Debug)]
enum Op {
    AllocPage,
    AllocHuge,
    AllocTable,
    /// Free the i-th (mod len) live block.
    Free(usize),
    /// ref_inc then ref_dec the i-th live block (net no-op).
    Pulse(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::AllocPage),
        1 => Just(Op::AllocHuge),
        2 => Just(Op::AllocTable),
        3 => any::<usize>().prop_map(Op::Free),
        2 => any::<usize>().prop_map(Op::Pulse),
    ]
}

/// Live-set bounds for the differential test: small enough that neither
/// configuration can ever fail an allocation in a 4096-frame (8 huge
/// block) pool, however fragmented — at most `DIFF_HUGE_CAP` huge regions
/// are held and `DIFF_SMALL_CAP` more are fragmented by small blocks
/// (data pages and tables together), leaving at least one whole huge
/// region free.
const DIFF_SMALL_CAP: usize = 3;
const DIFF_HUGE_CAP: usize = 4;

/// A scripted operation applied to both pools of the differential test.
#[derive(Clone, Debug)]
enum DiffOp {
    AllocSmall,
    AllocHuge,
    AllocTable,
    /// Free the i-th (mod len) live small block.
    FreeSmall(usize),
    /// Free the i-th (mod len) live page table.
    FreeTable(usize),
    /// Free the i-th (mod len) live huge block.
    FreeHuge(usize),
    /// Write a byte into the i-th live small block (same offset both
    /// sides), forcing materialization.
    Write(usize, u8),
    /// ref_inc then ref_dec the i-th live small block (net no-op).
    Pulse(usize),
}

fn diff_op_strategy() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        4 => Just(DiffOp::AllocSmall),
        2 => Just(DiffOp::AllocHuge),
        2 => Just(DiffOp::AllocTable),
        3 => any::<usize>().prop_map(DiffOp::FreeSmall),
        2 => any::<usize>().prop_map(DiffOp::FreeTable),
        2 => any::<usize>().prop_map(DiffOp::FreeHuge),
        2 => (any::<usize>(), any::<u8>()).prop_map(|(i, b)| DiffOp::Write(i, b)),
        1 => any::<usize>().prop_map(DiffOp::Pulse),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random alloc/free/refcount sequences never hand out overlapping
    /// frames and always restore full capacity after releasing everything.
    #[test]
    fn pool_conserves_frames(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let frames = 4096;
        let pool = FramePool::new(frames);
        let mut live: Vec<(odf_pmem::FrameId, usize)> = Vec::new(); // (head, nframes)

        for op in ops {
            match op {
                Op::AllocPage => {
                    if let Ok(f) = pool.alloc_page(PageKind::Anon) {
                        live.push((f, 1));
                    }
                }
                Op::AllocHuge => {
                    if let Ok(f) = pool.alloc_huge(PageKind::Anon) {
                        live.push((f, 1 << HUGE_ORDER));
                    }
                }
                Op::AllocTable => {
                    if let Ok(f) = pool.alloc_page_table() {
                        prop_assert_eq!(pool.pt_share_count(f), 1);
                        live.push((f, 1));
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (f, _) = live.swap_remove(i % live.len());
                        prop_assert!(pool.ref_dec(f), "single ref must free");
                    }
                }
                Op::Pulse(i) => {
                    if !live.is_empty() {
                        let (f, _) = live[i % live.len()];
                        pool.ref_inc(f);
                        prop_assert!(!pool.ref_dec(f), "still referenced");
                    }
                }
            }
            // No two live blocks overlap.
            let mut spans: Vec<(u32, u32)> = live
                .iter()
                .map(|&(f, n)| (f.0, f.0 + n as u32))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
            }
            // Accounting matches.
            let used: usize = live.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(pool.free_frames(), frames - used);
        }

        for (f, _) in live {
            pool.ref_dec(f);
        }
        prop_assert_eq!(pool.free_frames(), frames);
    }

    /// Frame data survives round trips regardless of offset and length.
    #[test]
    fn frame_data_round_trips(
        offset in 0usize..4096,
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let pool = FramePool::new(8);
        let f = pool.alloc_page(PageKind::Anon).unwrap();
        let len = data.len().min(4096 - offset);
        pool.write_frame(f, offset, &data[..len]);
        let mut back = vec![0u8; len];
        pool.read_frame(f, offset, &mut back);
        prop_assert_eq!(&back, &data[..len]);
    }

    /// Differential oracle: the tiered (magazine + buddy) pool must be
    /// observably identical to the flat buddy-only pool — the exact
    /// pre-tier code path — under the same operation sequence. Frame
    /// *placement* is allowed to differ (magazines reorder frames); every
    /// observable property is not: per-op success/failure, free-frame
    /// accounting after every step, reference counts, data contents, and
    /// the allocation/free statistics.
    ///
    /// Page tables take the magazines' own unmovable lane, so they are
    /// held to the flat pool op by op too.
    ///
    /// The live set is bounded (at most [`DIFF_SMALL_CAP`] small blocks
    /// and [`DIFF_HUGE_CAP`] huge blocks in a 4096-frame pool), so both
    /// configurations always have room: any success/failure divergence is
    /// then a tiering bug, never a placement artifact.
    #[test]
    fn tiered_pool_matches_flat_oracle(
        ops in proptest::collection::vec(diff_op_strategy(), 1..200),
    ) {
        const FRAMES: usize = 4096;
        let tiered = FramePool::new(FRAMES);
        let flat = FramePool::new_flat(FRAMES);
        // Parallel live lists: entry i in both lists came from the same
        // scripted op, so the pair must stay observably equivalent even
        // though the frame ids differ.
        let mut small: Vec<(odf_pmem::FrameId, odf_pmem::FrameId)> = Vec::new();
        let mut huge: Vec<(odf_pmem::FrameId, odf_pmem::FrameId)> = Vec::new();
        let mut tables: Vec<(odf_pmem::FrameId, odf_pmem::FrameId)> = Vec::new();

        for op in ops {
            match op {
                DiffOp::AllocSmall => {
                    if small.len() + tables.len() < DIFF_SMALL_CAP {
                        let t = tiered.alloc_page(PageKind::Anon);
                        let f = flat.alloc_page(PageKind::Anon);
                        prop_assert_eq!(t.is_ok(), f.is_ok(), "alloc_page diverged");
                        small.push((t.unwrap(), f.unwrap()));
                    }
                }
                DiffOp::AllocHuge => {
                    if huge.len() < DIFF_HUGE_CAP {
                        let t = tiered.alloc_huge(PageKind::Anon);
                        let f = flat.alloc_huge(PageKind::Anon);
                        prop_assert_eq!(t.is_ok(), f.is_ok(), "alloc_huge diverged");
                        huge.push((t.unwrap(), f.unwrap()));
                    }
                }
                DiffOp::AllocTable => {
                    if small.len() + tables.len() < DIFF_SMALL_CAP {
                        let t = tiered.alloc_page_table();
                        let f = flat.alloc_page_table();
                        prop_assert_eq!(t.is_ok(), f.is_ok(), "alloc_page_table diverged");
                        tables.push((t.unwrap(), f.unwrap()));
                    }
                }
                DiffOp::FreeSmall(i) => {
                    if !small.is_empty() {
                        let (t, f) = small.swap_remove(i % small.len());
                        prop_assert_eq!(tiered.ref_dec(t), flat.ref_dec(f));
                    }
                }
                DiffOp::FreeTable(i) => {
                    if !tables.is_empty() {
                        let (t, f) = tables.swap_remove(i % tables.len());
                        prop_assert_eq!(tiered.ref_dec(t), flat.ref_dec(f));
                    }
                }
                DiffOp::FreeHuge(i) => {
                    if !huge.is_empty() {
                        let (t, f) = huge.swap_remove(i % huge.len());
                        prop_assert_eq!(tiered.ref_dec(t), flat.ref_dec(f));
                    }
                }
                DiffOp::Write(i, byte) => {
                    if !small.is_empty() {
                        let (t, f) = small[i % small.len()];
                        tiered.write_frame(t, (byte as usize) * 7 % 4096, &[byte]);
                        flat.write_frame(f, (byte as usize) * 7 % 4096, &[byte]);
                    }
                }
                DiffOp::Pulse(i) => {
                    if !small.is_empty() {
                        let (t, f) = small[i % small.len()];
                        tiered.ref_inc(t);
                        flat.ref_inc(f);
                        prop_assert_eq!(tiered.ref_dec(t), flat.ref_dec(f));
                    }
                }
            }
            // Accounting must agree after *every* op — magazine residue is
            // free memory and free_frames() must report it as such.
            prop_assert_eq!(tiered.free_frames(), flat.free_frames());
            for &(t, f) in small.iter().chain(huge.iter()).chain(tables.iter()) {
                prop_assert_eq!(tiered.ref_count(t), flat.ref_count(f));
            }
            for &(t, f) in &tables {
                prop_assert_eq!(tiered.pt_share_count(t), flat.pt_share_count(f));
            }
        }

        // Data contents match pairwise.
        for &(t, f) in &small {
            let (mut bt, mut bf) = ([0u8; 4096], [0u8; 4096]);
            tiered.read_frame(t, 0, &mut bt);
            flat.read_frame(f, 0, &mut bf);
            prop_assert_eq!(bt.as_slice(), bf.as_slice());
        }

        // Tear down and compare the end state: full capacity restored and
        // the logical op counters equal. (Magazine counters are tiered-only
        // by design and excluded; placement-dependent counters are not
        // part of the comparison.)
        for (t, f) in small.drain(..).chain(huge.drain(..)).chain(tables.drain(..)) {
            prop_assert!(tiered.ref_dec(t));
            prop_assert!(flat.ref_dec(f));
        }
        let tb = tiered.balance();
        let fb = flat.balance();
        prop_assert_eq!(tb.free_frames, FRAMES);
        prop_assert_eq!(fb.free_frames, FRAMES);
        let (ts, fs) = (tiered.stats().snapshot(), flat.stats().snapshot());
        prop_assert_eq!(ts.allocs, fs.allocs);
        prop_assert_eq!(ts.frees, fs.frees);
        prop_assert_eq!(ts.page_ref_incs, fs.page_ref_incs);
        prop_assert_eq!(ts.page_ref_decs, fs.page_ref_decs);
        prop_assert_eq!(ts.materializations, fs.materializations);
    }
}
