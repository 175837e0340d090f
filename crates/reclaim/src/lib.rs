//! odf-reclaim: the memory-pressure subsystem.
//!
//! Two halves:
//!
//! - [`ReclaimPolicy`]: pluggable eviction policies deciding, per
//!   candidate page, whether to evict, skip, or grant a second chance.
//!   Three classics ship here — [`ClockPolicy`] (second-chance clock, the
//!   kernel-ish default), [`LruPolicy`] (8-bit aging counters), and
//!   [`FifoPolicy`] (evict on sight).
//! - [`ReclaimDaemon`]: the `kswapd` analog. A background thread watches
//!   the frame pool's watermarks ([`odf_pmem::Watermarks`]); when free
//!   frames fall below the low watermark it scans the machine's
//!   registered address spaces ([`odf_vm::Machine::eviction_targets`]),
//!   evicting until the high watermark is restored. Allocation failures
//!   still trigger synchronous direct reclaim inside `odf-vm` — the
//!   daemon exists so steady-state pressure is absorbed off the fault
//!   path, which is what keeps fault latency flat in the
//!   reclaim-vs-latency sweep.
//!
//! The scan itself (candidate selection, the pin-safe eviction protocol,
//! swap-slot management) lives in `odf-vm`; this crate only decides *what*
//! to evict and *when* to run.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use odf_trace::{Hit, Point};
use odf_vm::{EvictCandidate, EvictDecision, Machine};

/// An eviction policy: consulted once per candidate page during a scan.
///
/// Policies are stateful (`&mut self`) — aging counters, hand positions —
/// and are driven from the daemon's single scan thread.
pub trait ReclaimPolicy: Send {
    /// Decides the fate of one candidate.
    fn decide(&mut self, candidate: &EvictCandidate) -> EvictDecision;

    /// Short policy name, for benches and reports.
    fn name(&self) -> &'static str;
}

/// Second-chance clock: a page found with its accessed bit set gets the
/// bit cleared and survives the pass; a page still cold on the next visit
/// is evicted. The classic `kswapd` active/inactive approximation in its
/// simplest form.
#[derive(Debug, Default)]
pub struct ClockPolicy;

impl ReclaimPolicy for ClockPolicy {
    fn decide(&mut self, candidate: &EvictCandidate) -> EvictDecision {
        if candidate.accessed {
            EvictDecision::ClearAccessed
        } else {
            EvictDecision::Evict
        }
    }

    fn name(&self) -> &'static str {
        "clock"
    }
}

/// Evict-on-sight: no recency tracking at all. The lower bound every
/// smarter policy must beat; useful to expose how much the accessed bit
/// actually buys in a given workload.
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl ReclaimPolicy for FifoPolicy {
    fn decide(&mut self, _candidate: &EvictCandidate) -> EvictDecision {
        EvictDecision::Evict
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Aging-counter LRU approximation: each page keeps an 8-bit age that is
/// shifted right once per visit and gets its top bit set when the page
/// was accessed since the last visit. Pages whose age sinks below
/// [`LruPolicy::COLD_THRESHOLD`] are evicted. A closer LRU approximation
/// than the clock at the cost of per-page state.
#[derive(Debug, Default)]
pub struct LruPolicy {
    ages: HashMap<u64, u8>,
}

impl LruPolicy {
    /// Ages below this are considered cold and evicted.
    pub const COLD_THRESHOLD: u8 = 0x40;
    /// Age assigned on first sight (one reference in the top bit).
    const INITIAL_AGE: u8 = 0x80;

    /// Creates an empty aging table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReclaimPolicy for LruPolicy {
    fn decide(&mut self, candidate: &EvictCandidate) -> EvictDecision {
        let age = self.ages.entry(candidate.va).or_insert(Self::INITIAL_AGE);
        *age = (*age >> 1) | if candidate.accessed { 0x80 } else { 0 };
        if *age < Self::COLD_THRESHOLD {
            self.ages.remove(&candidate.va);
            EvictDecision::Evict
        } else if candidate.accessed {
            EvictDecision::ClearAccessed
        } else {
            EvictDecision::Skip
        }
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Constructs a policy by name (`"clock"`, `"lru"`, `"fifo"`), for benches
/// and CLI plumbing.
pub fn policy_by_name(name: &str) -> Option<Box<dyn ReclaimPolicy>> {
    match name {
        "clock" => Some(Box::new(ClockPolicy)),
        "lru" => Some(Box::new(LruPolicy::new())),
        "fifo" => Some(Box::new(FifoPolicy)),
        _ => None,
    }
}

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// How often the daemon re-checks the watermarks when idle.
    pub interval: Duration,
    /// Maximum pages evicted per scan pass over one address space; the
    /// daemon loops passes until the high watermark is restored, so this
    /// bounds lock-hold granularity, not total work.
    pub batch: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(1),
            batch: 64,
        }
    }
}

/// Cumulative daemon activity counters.
#[derive(Debug, Default)]
struct DaemonCounters {
    wakeups: AtomicU64,
    scan_passes: AtomicU64,
    pages_evicted: AtomicU64,
}

/// A point-in-time copy of the daemon's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Times the daemon woke (timer or kick).
    pub wakeups: u64,
    /// Scan passes performed under pressure.
    pub scan_passes: u64,
    /// Pages the daemon evicted to swap.
    pub pages_evicted: u64,
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

/// The background reclaim daemon (`kswapd` analog).
///
/// Owns one thread that sleeps on a condvar with a timeout, waking on the
/// timer, on [`ReclaimDaemon::kick`], or on [`ReclaimDaemon::stop`]. Under
/// pressure (free frames below the pool's low watermark) it runs eviction
/// scans across every registered address space until the high watermark is
/// restored, then goes back to sleep — the classic low/high hysteresis
/// that stops reclaim from oscillating at the boundary.
pub struct ReclaimDaemon {
    shared: Arc<DaemonShared>,
    handle: Option<JoinHandle<()>>,
    policy_name: &'static str,
}

impl ReclaimDaemon {
    /// Spawns the daemon over `machine` with the given policy and config.
    pub fn spawn(
        machine: Arc<Machine>,
        mut policy: Box<dyn ReclaimPolicy>,
        config: DaemonConfig,
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
            .name("odf-kswapd".into())
            .spawn(move || daemon_loop(&thread_shared, policy.as_mut(), config))
            .expect("spawn reclaim daemon");
        Self {
            shared,
            handle: Some(handle),
            policy_name,
        }
    }

    /// Spawns with the default clock policy and config.
    pub fn spawn_default(machine: Arc<Machine>) -> Self {
        Self::spawn(machine, Box::new(ClockPolicy), DaemonConfig::default())
    }

    /// Wakes the daemon immediately (the `wakeup_kswapd` analog; callers
    /// may invoke this from an allocation slow path).
    pub fn kick(&self) {
        let mut state = self.shared.state.lock().expect("daemon state");
        state.kicked = true;
        drop(state);
        self.wake_all();
    }

    /// The policy this daemon runs.
    pub fn policy_name(&self) -> &'static str {
        self.policy_name
    }

    /// Activity counters so far.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            wakeups: self.shared.counters.wakeups.load(Ordering::Relaxed),
            scan_passes: self.shared.counters.scan_passes.load(Ordering::Relaxed),
            pages_evicted: self.shared.counters.pages_evicted.load(Ordering::Relaxed),
        }
    }

    /// Stops the daemon and joins its thread. Called automatically on
    /// drop; explicit calls make shutdown timing deterministic.
    pub fn stop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("daemon state");
            state.stop = true;
        }
        self.wake_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn wake_all(&self) {
        self.shared.wake.notify_all();
    }
}

impl Drop for ReclaimDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn daemon_loop(shared: &DaemonShared, policy: &mut dyn ReclaimPolicy, config: DaemonConfig) {
    loop {
        {
            let state = shared.state.lock().expect("daemon state");
            // Sleep until the timer fires, someone kicks, or stop. Spurious
            // wakeups just re-check the watermarks — harmless.
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

        let pool = shared.machine.pool();
        let marks = pool.watermarks();
        if pool.free_frames() >= marks.low {
            continue;
        }
        // Under pressure: scan until the high watermark is restored, the
        // budget-per-pass bounding each lock-hold. A full sweep that
        // evicts nothing means every remaining page is hot or pinned —
        // stop rather than spin.
        while pool.free_frames() < marks.high {
            let t0 = odf_trace::start();
            let mut evicted_this_round = 0u64;
            for mm in shared.machine.eviction_targets() {
                if pool.free_frames() >= marks.high {
                    break;
                }
                let stats = mm.evict_scan(config.batch, &mut |c| policy.decide(c));
                shared.counters.scan_passes.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .pages_evicted
                    .fetch_add(stats.evicted, Ordering::Relaxed);
                evicted_this_round += stats.evicted;
            }
            let free_now = pool.free_frames() as u64;
            let pass = Hit::new(Point::ReclaimPass, &[evicted_this_round, free_now]);
            odf_trace::emit(pass.span(t0));
            if evicted_this_round == 0 {
                // Backoff: every remaining page is hot or pinned; record
                // the give-up so traces explain why pressure persists.
                odf_trace::emit(Hit::new(Point::ReclaimBackoff, &[free_now]));
                break;
            }
            if shared.state.lock().expect("daemon state").stop {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_pmem::PAGE_SIZE;
    use odf_vm::{MapParams, Mm};

    const PG: u64 = PAGE_SIZE as u64;

    fn candidate(va: u64, accessed: bool) -> EvictCandidate {
        EvictCandidate {
            va,
            frame: odf_vm::FrameId(1),
            accessed,
            dirty: false,
        }
    }

    #[test]
    fn clock_gives_one_second_chance() {
        let mut p = ClockPolicy;
        assert_eq!(
            p.decide(&candidate(0x1000, true)),
            EvictDecision::ClearAccessed
        );
        assert_eq!(p.decide(&candidate(0x1000, false)), EvictDecision::Evict);
    }

    #[test]
    fn fifo_always_evicts() {
        let mut p = FifoPolicy;
        assert_eq!(p.decide(&candidate(0x1000, true)), EvictDecision::Evict);
        assert_eq!(p.decide(&candidate(0x2000, false)), EvictDecision::Evict);
    }

    #[test]
    fn lru_ages_hot_pages_slower_than_cold() {
        let mut p = LruPolicy::new();
        // A repeatedly accessed page never goes cold.
        for _ in 0..16 {
            assert_ne!(p.decide(&candidate(0x1000, true)), EvictDecision::Evict);
        }
        // An untouched page decays below the threshold within two visits:
        // 0x80 -> 0x40 (cold boundary, survives) -> 0x20 (< 0x40, evict).
        assert_ne!(p.decide(&candidate(0x2000, false)), EvictDecision::Evict);
        assert_eq!(p.decide(&candidate(0x2000, false)), EvictDecision::Evict);
        assert!(!p.ages.contains_key(&0x2000), "evicted page forgotten");
    }

    #[test]
    fn policy_by_name_round_trips() {
        for name in ["clock", "lru", "fifo"] {
            assert_eq!(policy_by_name(name).unwrap().name(), name);
        }
        assert!(policy_by_name("belady").is_none());
    }

    #[test]
    fn daemon_restores_high_watermark_under_pressure() {
        let machine = Machine::new(256 * PG);
        let mm = Arc::new(Mm::new(Arc::clone(&machine)).unwrap());
        machine.register_mm(&mm);
        let marks = machine.pool().watermarks();

        // Fill until the pool sits below the low watermark.
        let a = mm.mmap(256 * PG, MapParams::anon_rw()).unwrap();
        let mut pg = 0u64;
        while machine.pool().free_frames() >= marks.low && pg < 256 {
            mm.write_u64(a + pg * PG, pg).unwrap();
            pg += 1;
        }
        assert!(machine.pool().free_frames() < marks.low);

        let daemon = ReclaimDaemon::spawn(
            Arc::clone(&machine),
            Box::new(FifoPolicy),
            DaemonConfig {
                interval: Duration::from_millis(1),
                batch: 32,
            },
        );
        daemon.kick();
        // Wait for the daemon to lift the pool back above high (and to
        // have counted the pass that did it: frames are freed inside the
        // scan, the counter is bumped after it).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while machine.pool().free_frames() < marks.high || daemon.stats().pages_evicted == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon failed to restore watermarks: free={} high={}",
                machine.pool().free_frames(),
                marks.high
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(daemon.stats().pages_evicted > 0);
        assert!(machine.swap().used_slots() > 0);
        // The data survives in swap.
        for check in 0..pg {
            assert_eq!(mm.read_u64(a + check * PG).unwrap(), check);
        }
        drop(daemon);
    }

    #[test]
    fn daemon_stop_is_idempotent_and_joins() {
        let machine = Machine::new(64 * PG);
        let mut daemon = ReclaimDaemon::spawn_default(machine);
        daemon.stop();
        daemon.stop();
    }
}
