//! Differential tests: On-demand-fork must be a drop-in replacement.
//!
//! Replaying identical operation scripts under `ForkPolicy::Classic` and
//! `ForkPolicy::OnDemand` must produce bit-identical memory images in
//! every process of the tree — the paper's central semantic claim (§3,
//! "the exact same semantics").

use odf_core::ForkPolicy;
use odf_tests::{random_script, replay, replay_at, replay_huge_at, Action};
use proptest::prelude::*;

/// One huge page.
const HUGE: u64 = 2 << 20;

/// Upper-level boundaries a region can straddle: a 1 GiB one (two PMD
/// tables under one PUD table) and a 512 GiB one (two PUD tables). A range
/// walk over such a region must re-resolve the tables it holds where it
/// crosses.
const BOUNDARIES: [(&str, u64); 2] = [("1 GiB", 1 << 30), ("512 GiB", 1 << 39)];

/// A base that puts half of a `len`-byte region on each side of `boundary`.
fn straddling(boundary: u64, len: u64) -> u64 {
    boundary - len / 2
}

#[test]
fn fixed_scripts_agree_across_policies() {
    for seed in 0..20u64 {
        let script = random_script(seed, 60, 64);
        let classic = replay(&script, ForkPolicy::Classic, 64);
        let odf = replay(&script, ForkPolicy::OnDemand, 64);
        assert_eq!(classic, odf, "seed {seed} diverged:\n{script:#?}");
    }
}

#[test]
fn scripts_straddling_upper_level_boundaries_agree() {
    for (name, boundary) in BOUNDARIES {
        let base = straddling(boundary, 64 * 4096);
        for seed in 100..110u64 {
            let script = random_script(seed, 60, 64);
            let classic = replay_at(&script, ForkPolicy::Classic, base, 64);
            let odf = replay_at(&script, ForkPolicy::OnDemand, base, 64);
            assert_eq!(
                classic, odf,
                "across the {name} boundary, seed {seed} diverged:\n{script:#?}"
            );
        }
    }
}

#[test]
fn deep_fork_chains_agree() {
    // A chain of forks, each generation writing to a distinct page plus a
    // shared page, then the oldest generations exiting.
    let mut script = Vec::new();
    for g in 0..6usize {
        script.push(Action::Fork { who: g });
        script.push(Action::Write {
            who: g + 1,
            offset: (g as u64 + 1) * 4096,
            len: 64,
            seed: g as u8,
        });
        script.push(Action::Write {
            who: g + 1,
            offset: 0,
            len: 64,
            seed: 0x80 + g as u8,
        });
    }
    for g in 0..3usize {
        script.push(Action::Exit { who: g + 1 });
    }
    let classic = replay(&script, ForkPolicy::Classic, 16);
    let odf = replay(&script, ForkPolicy::OnDemand, 16);
    assert_eq!(classic, odf);
}

#[test]
fn unmap_heavy_scripts_agree() {
    let mut script = vec![
        Action::Write {
            who: 0,
            offset: 0,
            len: 4096 * 4,
            seed: 1,
        },
        Action::Fork { who: 0 },
        Action::Unmap {
            who: 0,
            offset: 4096,
            len: 4096,
        },
        Action::Unmap {
            who: 1,
            offset: 8192,
            len: 8192,
        },
        Action::Fork { who: 1 },
        Action::Write {
            who: 2,
            offset: 3 * 4096,
            len: 100,
            seed: 9,
        },
    ];
    script.push(Action::Unmap {
        who: 2,
        offset: 0,
        len: 4096,
    });
    let classic = replay(&script, ForkPolicy::Classic, 8);
    let odf = replay(&script, ForkPolicy::OnDemand, 8);
    assert_eq!(classic, odf);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Property: any random script replays identically under both fork
    /// policies.
    #[test]
    fn prop_policies_are_observationally_equivalent(seed in 0u64..10_000) {
        let script = random_script(seed, 40, 32);
        let classic = replay(&script, ForkPolicy::Classic, 32);
        let odf = replay(&script, ForkPolicy::OnDemand, 32);
        prop_assert_eq!(classic, odf);
    }

    /// Property: the same holds for a region straddling a 1 GiB or a
    /// 512 GiB boundary.
    #[test]
    fn prop_policies_agree_across_upper_level_boundaries(
        seed in 0u64..10_000,
        which in 0usize..2,
    ) {
        let base = straddling(BOUNDARIES[which].1, 32 * 4096);
        let script = random_script(seed, 40, 32);
        let classic = replay_at(&script, ForkPolicy::Classic, base, 32);
        let odf = replay_at(&script, ForkPolicy::OnDemand, base, 32);
        prop_assert_eq!(classic, odf);
    }
}

#[test]
fn huge_extension_matches_classic_on_fixed_scripts() {
    for seed in 40..52u64 {
        let script = random_script(seed, 40, 64);
        let classic = odf_tests::replay_huge(&script, ForkPolicy::Classic, 4);
        let ext = odf_tests::replay_huge(&script, ForkPolicy::OnDemandHuge, 4);
        assert_eq!(classic, ext, "seed {seed} diverged:\n{script:#?}");
    }
}

#[test]
fn huge_extension_matches_classic_across_upper_level_boundaries() {
    for (name, boundary) in BOUNDARIES {
        let base = straddling(boundary, 4 * HUGE);
        for seed in 80..86u64 {
            let script = random_script(seed, 40, 64);
            let classic = replay_huge_at(&script, ForkPolicy::Classic, base, 4);
            let ext = replay_huge_at(&script, ForkPolicy::OnDemandHuge, base, 4);
            assert_eq!(
                classic, ext,
                "across the {name} boundary, seed {seed} diverged:\n{script:#?}"
            );
        }
    }
}

#[test]
fn huge_extension_matches_plain_odf() {
    for seed in 60..68u64 {
        let script = random_script(seed, 40, 64);
        let odf = odf_tests::replay_huge(&script, ForkPolicy::OnDemand, 4);
        let ext = odf_tests::replay_huge(&script, ForkPolicy::OnDemandHuge, 4);
        assert_eq!(odf, ext, "seed {seed} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Property: the huge-page extension is observationally equivalent to
    /// classic fork on huge-backed regions.
    #[test]
    fn prop_huge_extension_equivalent(seed in 20_000u64..30_000) {
        let script = random_script(seed, 30, 32);
        let classic = odf_tests::replay_huge(&script, ForkPolicy::Classic, 3);
        let ext = odf_tests::replay_huge(&script, ForkPolicy::OnDemandHuge, 3);
        prop_assert_eq!(classic, ext);
    }

    /// Property: the 4 KiB differential also holds for OnDemandHuge (it
    /// must behave exactly like OnDemand on non-huge mappings).
    #[test]
    fn prop_huge_policy_on_small_pages(seed in 30_000u64..40_000) {
        let script = random_script(seed, 30, 32);
        let classic = replay(&script, ForkPolicy::Classic, 32);
        let ext = replay(&script, ForkPolicy::OnDemandHuge, 32);
        prop_assert_eq!(classic, ext);
    }
}
