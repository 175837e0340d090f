//! odf-thp: the background huge-page promotion daemon (khugepaged analog).
//!
//! Two halves, mirroring `odf-reclaim`:
//!
//! - [`PromotionPolicy`]: pluggable policies deciding, per 2 MiB candidate
//!   range ([`odf_vm::ThpCandidate`]), whether to collapse it into a huge
//!   page, demote it back to 4 KiB PTEs, or leave it alone. Three ship
//!   here — [`HeatPolicy`] (promote after consecutive hot scans, demote
//!   after consecutive cold ones — the khugepaged-with-heat default),
//!   [`GreedyPolicy`] (collapse anything fully resident, the
//!   `madvise(MADV_HUGEPAGE)`-everywhere analog), and [`NeverPolicy`]
//!   (`transparent_hugepage=never`, the ablation baseline).
//! - [`ThpDaemon`]: a background thread that periodically scans every
//!   registered address space ([`odf_vm::Machine::eviction_targets`]),
//!   feeds the candidates through the policy, and applies its verdicts
//!   with [`odf_vm::Mm::collapse_huge`] / [`odf_vm::Mm::demote_huge`].
//!
//! Why this matters for On-demand-fork: the paper's huge-page extension
//! (§4) shares whole PMD tables at fork, but only ranges actually *mapped
//! huge* benefit. Promotion in the background converts hot 4 KiB ranges
//! into huge mappings before the next fork, so fork cost per resident GiB
//! drops without the application opting into `MAP_HUGETLB`; demotion keeps
//! cold huge pages from pinning 2 MiB of residency that reclaim could
//! otherwise swap out page by page (the demote-before-evict handshake in
//! `odf-vm`'s scanner).
//!
//! The mechanism (candidate scan, the pin-safe collapse protocol, the
//! compound split) lives in `odf-vm`; this crate only decides *what* to
//! promote and *when* to run — policy, not mechanism, exactly like the
//! reclaim split.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use odf_trace::{Hit, Point};
use odf_vm::{Machine, ThpCandidate, ThpOutcome};

/// Verdict of a [`PromotionPolicy`] on one candidate range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThpDecision {
    /// Collapse the range's 512 PTEs into one huge page.
    Collapse,
    /// Split the range's huge page back into 512 PTEs.
    Demote,
    /// Leave the range as it is.
    Skip,
}

/// A promotion policy: consulted once per candidate range during a scan.
///
/// Policies are stateful (`&mut self`) — streak counters, per-range
/// history — and are driven from the daemon's single scan thread.
pub trait PromotionPolicy: Send {
    /// Decides the fate of one candidate range.
    fn decide(&mut self, candidate: &ThpCandidate) -> ThpDecision;

    /// Short policy name, for benches and reports.
    fn name(&self) -> &'static str;
}

/// Streak-based heat policy, the default.
///
/// A scan interval is *hot* for a range when at least half of its resident
/// pages carry the accessed bit (the daemon clears the bits behind each
/// scan, so every interval measures fresh heat). A fully resident 4 KiB
/// range that stays hot for [`HeatPolicy::promote_after`] consecutive
/// scans is collapsed; a huge range that stays completely cold for
/// [`HeatPolicy::demote_after`] consecutive scans is demoted. The streak
/// requirement is the khugepaged `scan_sleep`/`alloc_sleep` idea distilled:
/// one hot interval is noise, several in a row are a working set.
#[derive(Debug)]
pub struct HeatPolicy {
    /// Consecutive hot scans required before a collapse.
    pub promote_after: u32,
    /// Consecutive all-cold scans required before a demotion.
    pub demote_after: u32,
    /// Per-range (keyed by va) `(hot_streak, cold_streak)`.
    streaks: HashMap<u64, (u32, u32)>,
}

impl HeatPolicy {
    /// A policy with the given streak thresholds.
    pub fn new(promote_after: u32, demote_after: u32) -> Self {
        Self {
            promote_after,
            demote_after,
            streaks: HashMap::new(),
        }
    }
}

impl Default for HeatPolicy {
    fn default() -> Self {
        // Promote on the second consecutive hot scan; demote only after a
        // longer cold spell — collapse is expensive to undo, so the
        // hysteresis is asymmetric.
        Self::new(2, 4)
    }
}

impl PromotionPolicy for HeatPolicy {
    fn decide(&mut self, c: &ThpCandidate) -> ThpDecision {
        let hot = c.resident > 0 && c.accessed * 2 >= c.resident;
        let (hot_streak, cold_streak) = self.streaks.entry(c.va).or_insert((0, 0));
        if hot {
            *hot_streak += 1;
            *cold_streak = 0;
        } else {
            *cold_streak += 1;
            *hot_streak = 0;
        }
        if !c.huge && c.resident as usize == odf_vm::HUGE_PAGE_SIZE / odf_vm::PAGE_SIZE {
            if *hot_streak >= self.promote_after {
                self.streaks.remove(&c.va);
                return ThpDecision::Collapse;
            }
        } else if c.huge && c.accessed == 0 && *cold_streak >= self.demote_after {
            self.streaks.remove(&c.va);
            return ThpDecision::Demote;
        }
        ThpDecision::Skip
    }

    fn name(&self) -> &'static str {
        "heat"
    }
}

/// Collapse-on-sight: any fully resident 4 KiB range is promoted, nothing
/// is ever demoted. The upper bound on promotion rate (and on collapse
/// overhead) that [`HeatPolicy`] must justify itself against.
#[derive(Debug, Default)]
pub struct GreedyPolicy;

impl PromotionPolicy for GreedyPolicy {
    fn decide(&mut self, c: &ThpCandidate) -> ThpDecision {
        if !c.huge && c.resident as usize == odf_vm::HUGE_PAGE_SIZE / odf_vm::PAGE_SIZE {
            ThpDecision::Collapse
        } else {
            ThpDecision::Skip
        }
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

/// `transparent_hugepage=never`: the daemon scans but never acts. The
/// ablation baseline — running it (instead of no daemon) keeps the scan
/// cost in both sides of the comparison.
#[derive(Debug, Default)]
pub struct NeverPolicy;

impl PromotionPolicy for NeverPolicy {
    fn decide(&mut self, _c: &ThpCandidate) -> ThpDecision {
        ThpDecision::Skip
    }

    fn name(&self) -> &'static str {
        "never"
    }
}

/// Constructs a policy by name (`"heat"`, `"greedy"`, `"never"`), for
/// benches and CLI plumbing.
pub fn policy_by_name(name: &str) -> Option<Box<dyn PromotionPolicy>> {
    match name {
        "heat" => Some(Box::new(HeatPolicy::default())),
        "greedy" => Some(Box::new(GreedyPolicy)),
        "never" => Some(Box::new(NeverPolicy)),
        _ => None,
    }
}

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ThpDaemonConfig {
    /// How long the daemon sleeps between scan passes.
    pub interval: Duration,
    /// Maximum collapse/demote operations per pass across all address
    /// spaces; bounds the exclusive-lock work one wakeup can impose on
    /// fault-latency-sensitive processes.
    pub max_ops: usize,
    /// Whether the scan clears accessed bits behind itself so each pass
    /// measures one interval's heat. Policies that ignore heat (greedy,
    /// never) can leave the bits for the reclaim scanner.
    pub clear_accessed: bool,
}

impl Default for ThpDaemonConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(10),
            max_ops: 8,
            clear_accessed: true,
        }
    }
}

/// Cumulative daemon activity counters.
#[derive(Debug, Default)]
struct DaemonCounters {
    wakeups: AtomicU64,
    scan_passes: AtomicU64,
    candidates_scanned: AtomicU64,
    collapses: AtomicU64,
    collapse_failures: AtomicU64,
    demotions: AtomicU64,
}

/// A point-in-time copy of the daemon's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThpDaemonStats {
    /// Times the daemon woke (timer or kick).
    pub wakeups: u64,
    /// Scan passes over individual address spaces.
    pub scan_passes: u64,
    /// Candidate ranges offered to the policy.
    pub candidates_scanned: u64,
    /// Successful collapses.
    pub collapses: u64,
    /// Collapse attempts that did not produce a huge page (pinned, raced,
    /// or out of contiguous memory).
    pub collapse_failures: u64,
    /// Successful demotions.
    pub demotions: u64,
}

struct DaemonShared {
    machine: Arc<Machine>,
    state: Mutex<DaemonState>,
    wake: Condvar,
    counters: DaemonCounters,
}

#[derive(Default)]
struct DaemonState {
    stop: bool,
    kicked: bool,
}

/// The background huge-page promotion daemon (khugepaged analog).
///
/// Owns one thread that sleeps on a condvar with a timeout, waking on the
/// timer, on [`ThpDaemon::kick`], or on [`ThpDaemon::stop`]. Each wakeup
/// scans every registered address space, offers the candidates to the
/// policy, and applies at most `max_ops` verdicts before going back to
/// sleep.
pub struct ThpDaemon {
    shared: Arc<DaemonShared>,
    handle: Option<JoinHandle<()>>,
    policy_name: &'static str,
}

impl ThpDaemon {
    /// Spawns the daemon over `machine` with the given policy and config.
    pub fn spawn(
        machine: Arc<Machine>,
        mut policy: Box<dyn PromotionPolicy>,
        config: ThpDaemonConfig,
    ) -> Self {
        let policy_name = policy.name();
        let shared = Arc::new(DaemonShared {
            machine,
            state: Mutex::new(DaemonState::default()),
            wake: Condvar::new(),
            counters: DaemonCounters::default(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("odf-khugepaged".into())
            .spawn(move || daemon_loop(&thread_shared, policy.as_mut(), config))
            .expect("spawn thp daemon");
        Self {
            shared,
            handle: Some(handle),
            policy_name,
        }
    }

    /// Spawns with the default heat policy and config.
    pub fn spawn_default(machine: Arc<Machine>) -> Self {
        Self::spawn(
            machine,
            Box::new(HeatPolicy::default()),
            ThpDaemonConfig::default(),
        )
    }

    /// Wakes the daemon immediately (e.g. right after a large fill, when
    /// waiting out the interval would delay promotion past the next fork).
    pub fn kick(&self) {
        let mut state = self.shared.state.lock().expect("daemon state");
        state.kicked = true;
        drop(state);
        self.shared.wake.notify_all();
    }

    /// The policy this daemon runs.
    pub fn policy_name(&self) -> &'static str {
        self.policy_name
    }

    /// Activity counters so far.
    pub fn stats(&self) -> ThpDaemonStats {
        let c = &self.shared.counters;
        ThpDaemonStats {
            wakeups: c.wakeups.load(Ordering::Relaxed),
            scan_passes: c.scan_passes.load(Ordering::Relaxed),
            candidates_scanned: c.candidates_scanned.load(Ordering::Relaxed),
            collapses: c.collapses.load(Ordering::Relaxed),
            collapse_failures: c.collapse_failures.load(Ordering::Relaxed),
            demotions: c.demotions.load(Ordering::Relaxed),
        }
    }

    /// Stops the daemon and joins its thread. Called automatically on
    /// drop; explicit calls make shutdown timing deterministic.
    pub fn stop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("daemon state");
            state.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ThpDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn daemon_loop(shared: &DaemonShared, policy: &mut dyn PromotionPolicy, config: ThpDaemonConfig) {
    loop {
        {
            let state = shared.state.lock().expect("daemon state");
            let (mut state, _timeout) = shared
                .wake
                .wait_timeout_while(state, config.interval, |s| !s.stop && !s.kicked)
                .expect("daemon wait");
            if state.stop {
                return;
            }
            state.kicked = false;
        }
        shared.counters.wakeups.fetch_add(1, Ordering::Relaxed);

        let t0 = odf_trace::start();
        let mut pass_candidates = 0u64;
        let mut ops = 0usize;
        'pass: for mm in shared.machine.eviction_targets() {
            let candidates = mm.thp_scan(config.clear_accessed);
            shared.counters.scan_passes.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .candidates_scanned
                .fetch_add(candidates.len() as u64, Ordering::Relaxed);
            pass_candidates += candidates.len() as u64;
            for c in &candidates {
                if ops >= config.max_ops {
                    break 'pass;
                }
                match policy.decide(c) {
                    ThpDecision::Skip => {}
                    ThpDecision::Collapse => {
                        ops += 1;
                        match mm.collapse_huge(c.va) {
                            Ok(ThpOutcome::Collapsed) => {
                                shared.counters.collapses.fetch_add(1, Ordering::Relaxed);
                            }
                            // AlreadyHuge means another actor (or an
                            // earlier pass) won the race — not a failure.
                            Ok(ThpOutcome::AlreadyHuge) => {}
                            Ok(_) | Err(_) => {
                                shared
                                    .counters
                                    .collapse_failures
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    ThpDecision::Demote => {
                        ops += 1;
                        if mm.demote_huge(c.va) == Ok(ThpOutcome::Demoted) {
                            shared.counters.demotions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            if shared.state.lock().expect("daemon state").stop {
                return;
            }
        }
        let pass = Hit::new(Point::ThpPass, &[pass_candidates, ops as u64]);
        odf_trace::emit(pass.span(t0));
        // Backoff: candidates existed but the policy (or races) let every
        // one of them pass — record why nothing changed.
        if ops == 0 && pass_candidates > 0 {
            odf_trace::emit(Hit::new(Point::ThpBackoff, &[pass_candidates]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_vm::{MapParams, Mm, HUGE_PAGE_SIZE, PAGE_SIZE};

    const HUGE: u64 = HUGE_PAGE_SIZE as u64;
    const PG: u64 = PAGE_SIZE as u64;
    const PAGES: u32 = (HUGE_PAGE_SIZE / PAGE_SIZE) as u32;

    fn candidate(va: u64, huge: bool, resident: u32, accessed: u32) -> ThpCandidate {
        ThpCandidate {
            va,
            huge,
            resident,
            accessed,
            soft_dirty: 0,
        }
    }

    #[test]
    fn heat_policy_needs_a_streak_to_promote() {
        let mut p = HeatPolicy::new(2, 4);
        let hot = candidate(0x200000, false, PAGES, PAGES);
        assert_eq!(p.decide(&hot), ThpDecision::Skip, "first hot scan is noise");
        assert_eq!(p.decide(&hot), ThpDecision::Collapse, "second confirms");
        // A cold scan in between resets the streak.
        assert_eq!(p.decide(&hot), ThpDecision::Skip);
        assert_eq!(
            p.decide(&candidate(0x200000, false, PAGES, 0)),
            ThpDecision::Skip
        );
        assert_eq!(p.decide(&hot), ThpDecision::Skip, "streak restarted");
        assert_eq!(p.decide(&hot), ThpDecision::Collapse);
    }

    #[test]
    fn heat_policy_demotes_only_after_a_cold_spell() {
        let mut p = HeatPolicy::new(2, 3);
        let cold_huge = candidate(0x400000, true, PAGES, 0);
        assert_eq!(p.decide(&cold_huge), ThpDecision::Skip);
        assert_eq!(p.decide(&cold_huge), ThpDecision::Skip);
        assert_eq!(p.decide(&cold_huge), ThpDecision::Demote);
        // A partially resident small range is never promoted, however hot.
        let partial = candidate(0x600000, false, 12, 12);
        for _ in 0..8 {
            assert_eq!(p.decide(&partial), ThpDecision::Skip);
        }
    }

    #[test]
    fn greedy_promotes_exactly_the_fully_resident() {
        let mut p = GreedyPolicy;
        assert_eq!(
            p.decide(&candidate(0, false, PAGES, 0)),
            ThpDecision::Collapse
        );
        assert_eq!(
            p.decide(&candidate(0, false, PAGES - 1, 0)),
            ThpDecision::Skip
        );
        assert_eq!(p.decide(&candidate(0, true, PAGES, 0)), ThpDecision::Skip);
    }

    #[test]
    fn policy_by_name_round_trips() {
        for name in ["heat", "greedy", "never"] {
            assert_eq!(policy_by_name(name).unwrap().name(), name);
        }
        assert!(policy_by_name("always").is_none());
    }

    #[test]
    fn daemon_promotes_a_hot_range_in_the_background() {
        let machine = Machine::new(64 << 20);
        let mm = Arc::new(Mm::new(Arc::clone(&machine)).unwrap());
        machine.register_mm(&mm);
        let a = mm
            .mmap_fixed(0x4000_0000, HUGE, MapParams::anon_rw())
            .unwrap();
        for pg in 0..PAGES as u64 {
            mm.write_u64(a + pg * PG, pg).unwrap();
        }
        let daemon = ThpDaemon::spawn(
            Arc::clone(&machine),
            Box::new(GreedyPolicy),
            ThpDaemonConfig {
                interval: Duration::from_millis(1),
                ..ThpDaemonConfig::default()
            },
        );
        daemon.kick();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while daemon.stats().collapses < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon failed to collapse the range: {:?}",
                daemon.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(mm.pmd_entry(a).is_some_and(|e| e.is_huge()));
        // Contents survived the background promotion.
        for pg in 0..PAGES as u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), pg);
        }
        drop(daemon);
    }

    #[test]
    fn daemon_demotes_a_range_gone_cold() {
        let machine = Machine::new(64 << 20);
        let mm = Arc::new(Mm::new(Arc::clone(&machine)).unwrap());
        machine.register_mm(&mm);
        let a = mm
            .mmap_fixed(0x4000_0000, HUGE, MapParams::anon_rw())
            .unwrap();
        for pg in 0..PAGES as u64 {
            mm.write_u64(a + pg * PG, pg).unwrap();
        }
        assert_eq!(mm.collapse_huge(a).unwrap(), odf_vm::ThpOutcome::Collapsed);
        let daemon = ThpDaemon::spawn(
            Arc::clone(&machine),
            // Demote after two cold scans; nothing touches the range, so
            // it goes cold as soon as the first scan clears the bits.
            Box::new(HeatPolicy::new(2, 2)),
            ThpDaemonConfig {
                interval: Duration::from_millis(1),
                ..ThpDaemonConfig::default()
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while daemon.stats().demotions < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon failed to demote the cold range: {:?}",
                daemon.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!mm.pmd_entry(a).is_some_and(|e| e.is_huge()));
        for pg in 0..PAGES as u64 {
            assert_eq!(mm.read_u64(a + pg * PG).unwrap(), pg);
        }
        drop(daemon);
    }

    #[test]
    fn daemon_stop_is_idempotent_and_joins() {
        let machine = Machine::new(16 << 20);
        let mut daemon = ThpDaemon::spawn_default(machine);
        daemon.stop();
        daemon.stop();
    }
}
