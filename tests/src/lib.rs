//! Shared helpers for the workspace integration tests.
//!
//! The central instrument is the **address-space script**: a sequence of
//! memory operations that can be replayed against processes forked with
//! different policies. The paper's core claim is that On-demand-fork is a
//! drop-in replacement for fork (§3, §4); the differential tests assert
//! that replaying any script produces bit-identical memory images under
//! [`ForkPolicy::Classic`] and [`ForkPolicy::OnDemand`].

#![forbid(unsafe_code)]

use odf_core::{ForkPolicy, Kernel, Process};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted action against a process tree.
///
/// `who` indexes the process list: 0 is the root, and each `Fork` appends
/// a new process (so scripts are replayable regardless of policy).
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Fork process `who`, appending the child to the process list.
    Fork { who: usize },
    /// Write a deterministic pattern at an offset in the shared region.
    Write {
        who: usize,
        offset: u64,
        len: usize,
        seed: u8,
    },
    /// Drop (exit) process `who` (the root is never dropped).
    Exit { who: usize },
    /// Unmap a sub-range of the region in process `who`.
    Unmap { who: usize, offset: u64, len: u64 },
    /// Toggle a sub-range read-only / read-write in process `who`.
    Mprotect {
        who: usize,
        offset: u64,
        len: u64,
        writable: bool,
    },
    /// Discard a sub-range's contents without unmapping (MADV_DONTNEED).
    Madvise { who: usize, offset: u64, len: u64 },
    /// Grow a sub-range of the region in process `who` with `mremap`,
    /// moving it to the address the bump allocator picks next (the same
    /// under every fork policy, so images stay comparable).
    Mremap {
        who: usize,
        offset: u64,
        len: u64,
        new_len: u64,
    },
}

/// Result of replaying a script: the final memory images (hashes) of the
/// surviving processes, in process order, with `None` for unmapped reads.
/// Each image covers the region, then every range the process (or an
/// ancestor, before forking it) moved out of the region with `mremap`.
pub type Replay = Vec<Vec<Option<u64>>>;

/// Generates a random script over a region of `region_pages` pages.
pub fn random_script(seed: u64, steps: usize, region_pages: u64) -> Vec<Action> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = 1usize; // process 0 always exists
    let mut total = 1usize;
    let mut actions = Vec::new();
    let region = region_pages * 4096;
    // Pages written so far: `mremap` mostly moves one of them, so moves
    // carry real entries into the tables at their destination.
    let mut written: Vec<u64> = Vec::new();
    for _ in 0..steps {
        let who = rng.gen_range(0..total);
        match rng.gen_range(0..11) {
            0..=2 if total < 8 => {
                actions.push(Action::Fork { who });
                total += 1;
                live += 1;
            }
            3 if live > 1 && who != 0 => {
                actions.push(Action::Exit { who });
                live -= 1;
            }
            4 => {
                let offset = rng.gen_range(0..region_pages) * 4096;
                let len = rng
                    .gen_range(1..=(2usize * 4096))
                    .min((region - offset) as usize);
                actions.push(Action::Unmap {
                    who,
                    offset,
                    len: (len as u64).next_multiple_of(4096),
                });
            }
            5 => {
                let offset = rng.gen_range(0..region_pages) * 4096;
                let len = (rng.gen_range(1..=4u64) * 4096)
                    .min(region - offset)
                    .max(4096);
                actions.push(Action::Mprotect {
                    who,
                    offset,
                    len,
                    writable: rng.gen_bool(0.5),
                });
            }
            6 => {
                let offset = rng.gen_range(0..region_pages) * 4096;
                let len = (rng.gen_range(1..=4u64) * 4096)
                    .min(region - offset)
                    .max(4096);
                actions.push(Action::Madvise { who, offset, len });
            }
            7 => {
                let offset = match written.len() {
                    n if n > 0 && rng.gen_bool(0.75) => written[rng.gen_range(0..n)],
                    _ => rng.gen_range(0..region_pages) * 4096,
                };
                let len = (rng.gen_range(1..=4u64) * 4096).min(region - offset);
                let new_len = len + rng.gen_range(1..=4u64) * 4096;
                actions.push(Action::Mremap {
                    who,
                    offset,
                    len,
                    new_len,
                });
            }
            _ => {
                let offset = rng.gen_range(0..region - 8);
                let len = rng.gen_range(1..512usize).min((region - offset) as usize);
                written.push(offset & !4095);
                actions.push(Action::Write {
                    who,
                    offset,
                    len,
                    seed: rng.gen(),
                });
            }
        }
    }
    actions
}

/// Where [`replay`] maps the region: at 1 GiB, so a region of up to
/// 1 GiB lies within one PMD table.
pub const REPLAY_BASE: u64 = 1 << 30;

/// Replays a script with the given fork policy and returns per-process
/// page hashes of the region.
///
/// Exited processes are represented by empty vectors so the shape is
/// policy-independent.
pub fn replay(script: &[Action], policy: ForkPolicy, region_pages: u64) -> Replay {
    replay_at(script, policy, REPLAY_BASE, region_pages)
}

/// [`replay`] with the region mapped at `base` (page-aligned). A base just
/// below a 1 GiB or 512 GiB boundary puts the region across two PMD (or
/// PUD) tables, so every range walk of the script crosses from one table
/// into the next.
pub fn replay_at(script: &[Action], policy: ForkPolicy, base: u64, region_pages: u64) -> Replay {
    let kernel = Kernel::new((region_pages * 4096) * 16 + (64 << 20));
    replay_on_with(&kernel, script, policy, base, region_pages, false)
}

/// Replays a script under **memory pressure**: the pool is a fraction of
/// the worst-case working set and the background reclaim daemon evicts
/// aggressively throughout, so pages continuously round-trip through the
/// swap tier mid-script. The returned images must be bit-identical to
/// [`replay`]'s — reclaim being observable would be a kernel bug.
pub fn replay_pressured(script: &[Action], policy: ForkPolicy, region_pages: u64) -> Replay {
    // Room for page tables of up to 8 processes plus a resident fraction
    // of the data pages; the rest must live in swap.
    let frames = (region_pages * 3).max(96);
    let kernel = Kernel::new(frames * 4096);
    kernel.start_reclaim_daemon(
        Box::new(odf_core::FifoPolicy),
        odf_core::DaemonConfig {
            interval: std::time::Duration::from_micros(200),
            batch: 16,
        },
    );
    let images = replay_on(&kernel, script, policy, region_pages);
    kernel.stop_reclaim_daemon();
    images
}

/// Replays a script against an existing kernel (the core of [`replay`];
/// public so tests can pre-configure pressure or policies).
pub fn replay_on(
    kernel: &std::sync::Arc<Kernel>,
    script: &[Action],
    policy: ForkPolicy,
    region_pages: u64,
) -> Replay {
    replay_on_with(kernel, script, policy, REPLAY_BASE, region_pages, false)
}

/// [`replay_on`] with the region mapped at `base`, and control over
/// whether it is made fully resident before the first action. Populating
/// is residency-only (all pages exist, zero-filled) and never changes
/// contents, so populated and unpopulated replays of the same script stay
/// bit-identical.
///
/// Every frame, table and swap slot the replay used must be back once its
/// processes have exited; a leak panics here.
pub fn replay_on_with(
    kernel: &std::sync::Arc<Kernel>,
    script: &[Action],
    policy: ForkPolicy,
    base: u64,
    region_pages: u64,
    populate: bool,
) -> Replay {
    let baseline = kernel.machine().pool().balance();
    let root = kernel.spawn().expect("spawn");
    let region = region_pages * 4096;
    let addr = root
        .mmap_fixed(base, region, odf_core::MapParams::anon_rw())
        .expect("mmap");
    if populate {
        root.populate(addr, region, true).expect("populate");
    }
    let mut procs: Vec<Option<Process>> = vec![Some(root)];
    let mut moved: Vec<Vec<(u64, u64)>> = vec![Vec::new()];

    for action in script {
        match action {
            Action::Fork { who } => {
                let child = procs[*who]
                    .as_ref()
                    .map(|p| p.fork_with(policy).expect("fork"));
                procs.push(child);
                moved.push(moved[*who].clone());
            }
            Action::Write {
                who,
                offset,
                len,
                seed,
            } => {
                if let Some(p) = &procs[*who] {
                    let data: Vec<u8> = (0..*len).map(|i| seed.wrapping_add(i as u8)).collect();
                    // Writes into unmapped holes fault; that is part of
                    // the semantics being compared.
                    let _ = p.write(addr + offset, &data);
                }
            }
            Action::Exit { who } => {
                procs[*who] = None;
            }
            Action::Unmap { who, offset, len } => {
                if let Some(p) = &procs[*who] {
                    let len = (*len).min(region - offset);
                    if len > 0 {
                        let _ = p.munmap(addr + offset, len);
                    }
                }
            }
            Action::Mprotect {
                who,
                offset,
                len,
                writable,
            } => {
                if let Some(p) = &procs[*who] {
                    let prot = if *writable {
                        odf_core::Prot::READ_WRITE
                    } else {
                        odf_core::Prot::READ
                    };
                    let len = (*len).min(region - offset);
                    let _ = p.mprotect(addr + offset, len, prot);
                }
            }
            Action::Madvise { who, offset, len } => {
                if let Some(p) = &procs[*who] {
                    let len = (*len).min(region - offset);
                    let _ = p.madvise_dontneed(addr + offset, len);
                }
            }
            Action::Mremap {
                who,
                offset,
                len,
                new_len,
            } => {
                if let Some(p) = &procs[*who] {
                    // A range that no longer lies within one VMA fails the
                    // same way under every policy.
                    if let Ok(to) = p.mremap(addr + offset, *len, *new_len) {
                        moved[*who].push((to, *new_len));
                    }
                }
            }
        }
    }

    let images = images(&procs, &moved, (addr, region), 4096);
    drop(procs);
    assert_eq!(kernel.machine().swap().used_slots(), 0, "swap slots leaked");
    odf_pmem::assert_pool_balanced(kernel.machine().pool(), baseline);
    images
}

/// Hashes every surviving process's region and moved ranges, `stride`
/// bytes at a time.
fn images(
    procs: &[Option<Process>],
    moved: &[Vec<(u64, u64)>],
    region: (u64, u64),
    stride: u64,
) -> Replay {
    procs
        .iter()
        .zip(moved)
        .map(|(slot, moved)| match slot {
            None => Vec::new(),
            Some(p) => std::iter::once(&region)
                .chain(moved)
                .flat_map(|&(start, len)| (0..len / stride).map(move |i| start + i * stride))
                .map(|at| p.read_vec(at, stride as usize).ok().map(|b| fnv(&b)))
                .collect(),
        })
        .collect()
}

/// Replays a script against a **huge-page-backed** region, for
/// differential testing of the huge extension (`ForkPolicy::OnDemandHuge`
/// vs the baselines). Unmap offsets are rounded to 2 MiB so they are valid
/// for huge mappings; all other actions replay as-is.
pub fn replay_huge(script: &[Action], policy: ForkPolicy, huge_pages: u64) -> Replay {
    replay_huge_at(script, policy, 1 << 31, huge_pages)
}

/// [`replay_huge`] with the region mapped at `base` (2 MiB-aligned).
pub fn replay_huge_at(script: &[Action], policy: ForkPolicy, base: u64, huge_pages: u64) -> Replay {
    const HUGE: u64 = 2 << 20;
    let region = huge_pages * HUGE;
    let kernel = Kernel::new(region * 12 + (64 << 20));
    let baseline = kernel.machine().pool().balance();
    let root = kernel.spawn().expect("spawn");
    let addr = root
        .mmap_fixed(base, region, odf_core::MapParams::anon_rw_huge())
        .expect("mmap huge");
    let mut procs: Vec<Option<Process>> = vec![Some(root)];
    let mut moved: Vec<Vec<(u64, u64)>> = vec![Vec::new()];

    for action in script {
        match action {
            Action::Fork { who } => {
                let child = procs[*who]
                    .as_ref()
                    .map(|p| p.fork_with(policy).expect("fork"));
                procs.push(child);
                moved.push(moved[*who].clone());
            }
            Action::Write {
                who,
                offset,
                len,
                seed,
            } => {
                if let Some(p) = &procs[*who] {
                    let offset = offset % region;
                    let len = (*len).min((region - offset) as usize);
                    let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                    let _ = p.write(addr + offset, &data);
                }
            }
            Action::Exit { who } => {
                procs[*who] = None;
            }
            Action::Unmap { who, offset, len } => {
                if let Some(p) = &procs[*who] {
                    let offset = (offset % region) & !(HUGE - 1);
                    let len = (*len).max(HUGE).next_multiple_of(HUGE);
                    let len = len.min(region - offset);
                    if len > 0 {
                        let _ = p.munmap(addr + offset, len);
                    }
                }
            }
            Action::Mprotect {
                who,
                offset,
                len,
                writable,
            } => {
                if let Some(p) = &procs[*who] {
                    let prot = if *writable {
                        odf_core::Prot::READ_WRITE
                    } else {
                        odf_core::Prot::READ
                    };
                    let offset = (offset % region) & !(HUGE - 1);
                    let len = (*len).max(HUGE).next_multiple_of(HUGE).min(region - offset);
                    let _ = p.mprotect(addr + offset, len, prot);
                }
            }
            Action::Madvise { who, offset, len } => {
                if let Some(p) = &procs[*who] {
                    let offset = (offset % region) & !(HUGE - 1);
                    let len = (*len).max(HUGE).next_multiple_of(HUGE).min(region - offset);
                    let _ = p.madvise_dontneed(addr + offset, len);
                }
            }
            Action::Mremap {
                who,
                offset,
                len,
                new_len,
            } => {
                if let Some(p) = &procs[*who] {
                    let grow = (new_len - len).next_multiple_of(HUGE);
                    let offset = (offset % region) & !(HUGE - 1);
                    let len = (*len).max(HUGE).next_multiple_of(HUGE).min(region - offset);
                    let new_len = len + grow;
                    if let Ok(to) = p.mremap(addr + offset, len, new_len) {
                        moved[*who].push((to, new_len));
                    }
                }
            }
        }
    }

    // Hash at 64 KiB granularity to keep verification fast.
    let images = images(&procs, &moved, (addr, region), 64 << 10);
    drop(procs);
    odf_pmem::assert_pool_balanced(kernel.machine().pool(), baseline);
    images
}

/// A deliberately thrashing promotion policy for differential tests:
/// every fully resident 4 KiB range is collapsed on sight and every huge
/// range is demoted on sight, so ranges continuously flip granularity
/// while the script replays. Maximum THP churn, zero THP benefit — which
/// is the point: the churn must be invisible to memory contents.
#[derive(Debug, Default)]
pub struct ChurnPolicy;

impl odf_core::PromotionPolicy for ChurnPolicy {
    fn decide(&mut self, c: &odf_core::ThpCandidate) -> odf_core::ThpDecision {
        if c.huge {
            odf_core::ThpDecision::Demote
        } else if c.resident as u64 == odf_core::HUGE_PAGE_SIZE as u64 / 4096 {
            odf_core::ThpDecision::Collapse
        } else {
            odf_core::ThpDecision::Skip
        }
    }

    fn name(&self) -> &'static str {
        "churn"
    }
}

/// Replays a script with the THP daemon collapsing and demoting ranges
/// underneath it the whole time (the [`ChurnPolicy`]). The region is
/// populated first so 2 MiB chunks start fully resident and collapsible
/// (populating is residency-only — all pages exist, zero-filled — so the
/// images stay comparable with an unpopulated oracle). The returned
/// images must be bit-identical to [`replay`]'s on the same script — a
/// huge-page granularity change being observable in memory contents would
/// be a THP bug.
pub fn replay_thp(script: &[Action], policy: ForkPolicy, region_pages: u64) -> Replay {
    let kernel = Kernel::new((region_pages * 4096) * 16 + (64 << 20));
    kernel.start_thp_daemon(
        Box::new(ChurnPolicy),
        odf_core::ThpDaemonConfig {
            interval: std::time::Duration::from_micros(200),
            max_ops: 16,
            clear_accessed: false,
        },
    );
    let images = replay_on_with(&kernel, script, policy, REPLAY_BASE, region_pages, true);
    kernel.stop_thp_daemon();
    images
}

/// FNV-1a hash of a byte slice.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One step of splitmix64: the shared deterministic generator behind every
/// seed-shrinkable script in this crate (proptest then shrinks over a
/// single integer instead of a structure).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One key-value mutation in a durable-store workload script.
///
/// Mirrors `odf_kvstore::Command` but stays independent of it so the
/// crash-injection oracle can model the store without importing its
/// implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// `SET key value`.
    Set {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// `DEL key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
    /// `INCR key` (keys from this generator always hold integers or are
    /// absent, so the op never fails).
    Incr {
        /// The key.
        key: Vec<u8>,
    },
    /// `APPEND key suffix`.
    Append {
        /// The key.
        key: Vec<u8>,
        /// Appended bytes.
        suffix: Vec<u8>,
    },
}

/// Generates a deterministic kv workload over a bounded key space.
///
/// Keys are partitioned by role — counter keys (`c<n>`) only ever see
/// `SET <int>` / `INCR`, data keys (`k<n>`) see `SET`/`DEL`/`APPEND` —
/// so every generated op is valid against any prefix of the script.
pub fn kv_script(seed: u64, ops: usize, key_space: u64) -> Vec<KvOp> {
    let mut state = seed;
    let key_space = key_space.max(1);
    (0..ops)
        .map(|_| {
            let r = splitmix64(&mut state);
            let n = (r >> 8) % key_space;
            match r % 8 {
                0 | 1 => KvOp::Incr {
                    key: format!("c{n}").into_bytes(),
                },
                2 => KvOp::Set {
                    key: format!("c{n}").into_bytes(),
                    value: ((r >> 40) % 1000).to_string().into_bytes(),
                },
                3 => KvOp::Del {
                    key: format!("k{n}").into_bytes(),
                },
                4 => KvOp::Append {
                    key: format!("k{n}").into_bytes(),
                    suffix: vec![(r >> 32) as u8; 1 + (r >> 48) as usize % 24],
                },
                _ => KvOp::Set {
                    key: format!("k{n}").into_bytes(),
                    value: vec![(r >> 16) as u8; 1 + (r >> 24) as usize % 96],
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_and_kv_scripts_are_deterministic() {
        let mut a = 7u64;
        let mut b = 7u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_eq!(kv_script(9, 40, 8), kv_script(9, 40, 8));
        assert_ne!(kv_script(9, 40, 8), kv_script(10, 40, 8));
        // Counter keys never receive non-integer payloads.
        for op in kv_script(3, 400, 8) {
            if let KvOp::Set { key, value } = &op {
                if key.starts_with(b"c") {
                    String::from_utf8(value.clone())
                        .unwrap()
                        .parse::<i64>()
                        .unwrap();
                }
            }
        }
    }

    #[test]
    fn scripts_are_deterministic() {
        assert_eq!(random_script(1, 50, 64), random_script(1, 50, 64));
        assert_ne!(random_script(1, 50, 64), random_script(2, 50, 64));
    }

    #[test]
    fn replay_produces_one_entry_per_process() {
        let script = random_script(3, 30, 32);
        let forks = script
            .iter()
            .filter(|a| matches!(a, Action::Fork { .. }))
            .count();
        let r = replay(&script, ForkPolicy::Classic, 32);
        assert_eq!(r.len(), forks + 1);
    }
}
