//! The simulated kernel: machine state, process table, and fork policy
//! configuration.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use odf_pmem::StatsSnapshot;
use odf_probe::watchdog::ContextProvider;
use odf_probe::{
    BudgetSource, Keying, ProbeSpec, ProgramKind, SloBudget, SloWatchdog, WatchdogConfig,
};
use odf_reclaim::{DaemonConfig, DaemonStats, ReclaimDaemon, ReclaimPolicy};
use odf_thp::{PromotionPolicy, ThpDaemon, ThpDaemonConfig, ThpDaemonStats};
use odf_trace::Point;
use odf_vm::{ForkPolicy, Machine, Mm, Result, VmStatsSnapshot};
use parking_lot::Mutex;

use odf_probe::watchdog::WatchdogStats;

use crate::process::Process;

/// A process identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u64);

impl std::fmt::Debug for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Combined kernel statistics: the VM-layer and physical-layer counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Virtual-memory subsystem counters (faults, fork breakdown, COW).
    pub vm: VmStatsSnapshot,
    /// Physical memory counters (refcounts, `compound_head`, copies).
    pub pool: StatsSnapshot,
}

impl std::ops::Sub for KernelStats {
    type Output = KernelStats;

    fn sub(self, rhs: KernelStats) -> KernelStats {
        KernelStats {
            vm: self.vm - rhs.vm,
            pool: self.pool - rhs.pool,
        }
    }
}

/// One simulated machine: physical memory, page tables, the process table,
/// and the fork configuration interface.
///
/// The paper exposes On-demand-fork two ways (§4 "Flexibility"): as a new
/// system call applications opt into, and as a procfs switch that flips the
/// meaning of plain `fork` for a given process with no application change.
/// [`Kernel::set_fork_policy`] is that switch;
/// [`Process::fork_with`] is the explicit system call.
pub struct Kernel {
    machine: Arc<Machine>,
    next_pid: AtomicU64,
    live_processes: AtomicU64,
    /// Per-process fork policy overrides (the procfs file analog).
    policies: Mutex<HashMap<Pid, ForkPolicy>>,
    /// The background reclaim daemon (kswapd analog), when started.
    /// Stopped and joined when the last kernel handle drops.
    reclaim_daemon: Mutex<Option<ReclaimDaemon>>,
    /// The background huge-page promotion daemon (khugepaged analog),
    /// when started. Stopped and joined when the last kernel handle
    /// drops.
    thp_daemon: Mutex<Option<ThpDaemon>>,
    /// The SLO watchdog (budget evaluation + flight recorder), when
    /// started. Stopped and joined when the last kernel handle drops.
    slo_watchdog: Mutex<Option<SloWatchdog>>,
    /// Counter baselines captured by [`Kernel::reset_metrics_window`];
    /// exporters report counters relative to these. Non-destructive: the
    /// underlying striped counters (some of them process-global, shared
    /// with other kernels in the same process) are never zeroed.
    metrics_baseline: Mutex<MetricsBaseline>,
}

/// Snapshot baselines for windowed metrics (see
/// [`Kernel::reset_metrics_window`]).
#[derive(Default)]
struct MetricsBaseline {
    vm: VmStatsSnapshot,
    pool: StatsSnapshot,
    durability: odf_durability::DurabilityStatsSnapshot,
}

impl Kernel {
    /// Boots a kernel managing `phys_bytes` of simulated physical memory.
    pub fn new(phys_bytes: u64) -> Arc<Self> {
        Arc::new(Self {
            machine: Machine::new(phys_bytes),
            next_pid: AtomicU64::new(1),
            live_processes: AtomicU64::new(0),
            policies: Mutex::new(HashMap::new()),
            reclaim_daemon: Mutex::new(None),
            thp_daemon: Mutex::new(None),
            slo_watchdog: Mutex::new(None),
            metrics_baseline: Mutex::new(MetricsBaseline::default()),
        })
    }

    /// The underlying machine (pool, table store, stats).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Creates a fresh process with an empty address space.
    pub fn spawn(self: &Arc<Self>) -> Result<Process> {
        let mm = Mm::new(Arc::clone(&self.machine))?;
        Ok(self.adopt(mm))
    }

    /// Creates a fresh process whose address space is rebuilt from a full
    /// snapshot image (see [`odf_snapshot`]) — bit-identical to the
    /// checkpointed one. Incremental chains are collapsed first with
    /// [`odf_snapshot::materialize`].
    ///
    /// Runs a frame-accounting audit in the spirit of
    /// [`odf_pmem::assert_pool_balanced`]: on failure every frame the
    /// aborted restore touched must be back in the pool, and on success
    /// the pool must have paid out *exactly* the restored space's
    /// [`odf_vm::FrameFootprint`] — a leaked COW pin or double free in the
    /// restore path panics here instead of surfacing as a slow leak.
    ///
    /// # Panics
    ///
    /// Panics if frame accounting does not balance around the restore.
    pub fn restore(
        self: &Arc<Self>,
        image: &odf_snapshot::SnapshotImage,
    ) -> odf_snapshot::Result<Process> {
        let pool = self.machine.pool();
        let baseline = pool.balance();
        let stats_before = self.machine.stats().snapshot();
        let proc = self.spawn()?;
        if let Err(e) = odf_snapshot::restore_into(image, proc.mm()) {
            drop(proc);
            odf_pmem::assert_pool_balanced(pool, baseline);
            return Err(e);
        }
        // Background reclaim or THP daemons moving pages mid-restore
        // legitimately changes the pin count; audit only a quiet restore.
        let stats_after = self.machine.stats().snapshot();
        let quiet = stats_before.pages_swapped_out == stats_after.pages_swapped_out
            && stats_before.thp_collapses == stats_after.thp_collapses
            && stats_before.thp_demotions == stats_after.thp_demotions;
        if quiet {
            let footprint = proc.mm().frame_footprint();
            let now = pool.balance();
            let pinned = baseline.free_frames - now.free_frames;
            assert_eq!(
                pinned as u64,
                footprint.total(),
                "restore frame accounting is unbalanced: the pool paid out \
                 {pinned} frames but the restored space pins {} \
                 ({} data + {} table)",
                footprint.total(),
                footprint.data_frames,
                footprint.table_frames
            );
        }
        Ok(proc)
    }

    /// Registers an address space as a new process. Every process's
    /// address space is registered with the machine as an eviction
    /// target, so reclaim (direct and the background daemon) can push
    /// its cold anonymous pages to swap under memory pressure.
    pub(crate) fn adopt(self: &Arc<Self>, mm: Mm) -> Process {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        self.live_processes.fetch_add(1, Ordering::Relaxed);
        // Stamp ownership before the space becomes reachable, so probe
        // contexts assembled on the fault path attribute to the right pid
        // from the first fault on.
        mm.set_owner_pid(pid.0);
        let mm = Arc::new(mm);
        self.machine.register_mm(&mm);
        Process::new(Arc::clone(self), pid, mm)
    }

    pub(crate) fn retire(&self, pid: Pid) {
        self.live_processes.fetch_sub(1, Ordering::Relaxed);
        self.policies.lock().remove(&pid);
    }

    /// Number of live processes.
    pub fn process_count(&self) -> u64 {
        self.live_processes.load(Ordering::Relaxed)
    }

    /// Sets (or, with `None`, clears) a per-process fork policy override —
    /// the `/proc/<pid>/` switch of §4 that enables On-demand-fork without
    /// changing application code.
    pub fn set_fork_policy(&self, pid: Pid, policy: Option<ForkPolicy>) {
        let mut map = self.policies.lock();
        match policy {
            Some(p) => {
                map.insert(pid, p);
            }
            None => {
                map.remove(&pid);
            }
        }
    }

    /// The policy a plain `fork()` by `pid` will use: its override, or
    /// [`ForkPolicy::Classic`], as on a kernel where nobody opted in.
    pub fn effective_fork_policy(&self, pid: Pid) -> ForkPolicy {
        self.policies
            .lock()
            .get(&pid)
            .copied()
            .unwrap_or(ForkPolicy::Classic)
    }

    // ------------------------------------------------------------------
    // Memory-pressure daemon (kswapd analog)
    // ------------------------------------------------------------------

    /// Starts the background reclaim daemon with the given policy and
    /// config, replacing (stopping) any daemon already running.
    ///
    /// Without a daemon, memory pressure is handled purely by direct
    /// reclaim inside failed allocations — correct but paid for on the
    /// fault path. The daemon moves that work to the background, which is
    /// what keeps fault latency flat under sustained pressure.
    pub fn start_reclaim_daemon(&self, policy: Box<dyn ReclaimPolicy>, config: DaemonConfig) {
        let daemon = ReclaimDaemon::spawn(Arc::clone(&self.machine), policy, config);
        *self.reclaim_daemon.lock() = Some(daemon);
    }

    /// Starts the reclaim daemon with the default clock policy and config.
    pub fn start_default_reclaim_daemon(&self) {
        self.start_reclaim_daemon(Box::new(odf_reclaim::ClockPolicy), DaemonConfig::default());
    }

    /// Stops (and joins) the reclaim daemon, if one is running.
    pub fn stop_reclaim_daemon(&self) {
        self.reclaim_daemon.lock().take();
    }

    /// Activity counters of the running reclaim daemon, if any.
    pub fn reclaim_daemon_stats(&self) -> Option<DaemonStats> {
        self.reclaim_daemon
            .lock()
            .as_ref()
            .map(ReclaimDaemon::stats)
    }

    // ------------------------------------------------------------------
    // Huge-page promotion daemon (khugepaged analog)
    // ------------------------------------------------------------------

    /// Starts the background huge-page promotion daemon with the given
    /// policy and config, replacing (stopping) any daemon already running.
    ///
    /// The daemon collapses hot 4 KiB ranges into huge pages in the
    /// background — the `transparent_hugepage` switch of this simulation.
    /// Promoted ranges make subsequent On-demand forks cheaper (the §4
    /// huge-page extension shares whole PMD tables over them) and faults
    /// coarser; demotion hands cold ranges back to reclaim.
    pub fn start_thp_daemon(&self, policy: Box<dyn PromotionPolicy>, config: ThpDaemonConfig) {
        let daemon = ThpDaemon::spawn(Arc::clone(&self.machine), policy, config);
        *self.thp_daemon.lock() = Some(daemon);
    }

    /// Stops (and joins) the THP daemon, if one is running.
    pub fn stop_thp_daemon(&self) {
        self.thp_daemon.lock().take();
    }

    /// Wakes the THP daemon immediately, if one is running.
    pub fn kick_thp_daemon(&self) {
        if let Some(d) = self.thp_daemon.lock().as_ref() {
            d.kick();
        }
    }

    /// Activity counters of the running THP daemon, if any.
    pub fn thp_daemon_stats(&self) -> Option<ThpDaemonStats> {
        self.thp_daemon.lock().as_ref().map(ThpDaemon::stats)
    }

    // ------------------------------------------------------------------
    // SLO watchdog (budget evaluation + flight recorder)
    // ------------------------------------------------------------------

    /// Starts the SLO watchdog with explicit budgets, replacing (stopping)
    /// any watchdog already running. The bundle context digest (per-mm
    /// rss/vma/owner plus pool and WAL high-water marks) is supplied by
    /// this kernel.
    pub fn start_slo_watchdog(&self, budgets: Vec<SloBudget>, config: WatchdogConfig) {
        let wd = SloWatchdog::spawn(config, budgets, Some(self.watchdog_context()));
        *self.slo_watchdog.lock() = Some(wd);
    }

    /// Starts the watchdog with the default budget set, attaching its
    /// measurement probes (`slo_fault_lat`, `slo_fork_lat` — `lat_hist`
    /// keyed by pid) if they are not already attached:
    ///
    /// - fault p999 over `fault_p999_ns`,
    /// - fork duration p999 over `fork_p999_ns`,
    /// - WAL group-commit lag over `wal_lag` records.
    ///
    /// Bundles land in `out_dir`.
    pub fn start_default_slo_watchdog(
        &self,
        out_dir: PathBuf,
        fault_p999_ns: u64,
        fork_p999_ns: u64,
        wal_lag: u64,
    ) {
        let e = odf_probe::engine();
        let mut fault = ProbeSpec::new("slo_fault_lat", Point::Fault, ProgramKind::LatHist);
        fault.key = Keying::Pid;
        let _ = e.attach(fault);
        let mut fork = ProbeSpec::new("slo_fork_lat", Point::ForkEnd, ProgramKind::LatHist);
        fork.key = Keying::Pid;
        let _ = e.attach(fork);
        let budgets = vec![
            SloBudget {
                name: "fault_p999".into(),
                source: BudgetSource::ProbeP999 {
                    probe: "slo_fault_lat".into(),
                },
                limit: fault_p999_ns,
            },
            SloBudget {
                name: "fork_p999".into(),
                source: BudgetSource::ProbeP999 {
                    probe: "slo_fork_lat".into(),
                },
                limit: fork_p999_ns,
            },
            SloBudget {
                name: "wal_commit_lag".into(),
                source: BudgetSource::Gauge {
                    label: "wal_group_commit_lag".into(),
                    read: Box::new(odf_durability::group_commit_lag),
                },
                limit: wal_lag,
            },
        ];
        self.start_slo_watchdog(
            budgets,
            WatchdogConfig {
                out_dir,
                ..WatchdogConfig::default()
            },
        );
    }

    /// Stops (and joins) the SLO watchdog, if one is running. Measurement
    /// probes it attached stay attached (detach via the probe engine).
    pub fn stop_slo_watchdog(&self) {
        self.slo_watchdog.lock().take();
    }

    /// Runs one budget-evaluation round synchronously, returning any
    /// breaches — deterministic triggering for tests.
    pub fn evaluate_slo_now(&self) -> Option<Vec<odf_probe::Breach>> {
        self.slo_watchdog
            .lock()
            .as_ref()
            .map(SloWatchdog::evaluate_now)
    }

    /// Activity counters of the running watchdog, if any.
    pub fn slo_watchdog_stats(&self) -> Option<WatchdogStats> {
        self.slo_watchdog.lock().as_ref().map(SloWatchdog::stats)
    }

    /// Path of the most recent incident bundle, if any was written.
    pub fn last_incident_bundle(&self) -> Option<PathBuf> {
        self.slo_watchdog
            .lock()
            .as_ref()
            .and_then(SloWatchdog::last_bundle)
    }

    /// The bundle-context provider: a JSON digest of this machine — per-mm
    /// owner/rss/vma counts (the smaps digest), pool occupancy, and the
    /// WAL high-water marks.
    fn watchdog_context(&self) -> ContextProvider {
        let machine = Arc::clone(&self.machine);
        Box::new(move || {
            let mms: Vec<String> = machine
                .eviction_targets()
                .iter()
                .map(|mm| {
                    let r = mm.report();
                    format!(
                        "{{\"pid\":{},\"mapped_bytes\":{},\"rss_pages\":{},\"vma_count\":{}}}",
                        mm.owner_pid(),
                        r.mapped_bytes,
                        r.rss_pages,
                        r.vma_count
                    )
                })
                .collect();
            let pool = machine.pool();
            let (appended, durable) = odf_durability::wal_seqs();
            format!(
                "{{\"free_frames\":{},\"total_frames\":{},\"wal\":{{\"appended_seq\":{},\"durable_seq\":{}}},\"mms\":[{}]}}",
                pool.free_frames(),
                pool.total_frames(),
                appended,
                durable,
                mms.join(",")
            )
        })
    }

    // ------------------------------------------------------------------
    // Metrics windows
    // ------------------------------------------------------------------

    /// Starts a fresh metrics window (the `STATS RESET` semantics): both
    /// exporters report counters relative to this instant, and the trace
    /// rings are cleared. Non-destructive — cumulative counters (some
    /// process-global and shared with concurrent kernels) keep counting;
    /// only this kernel's baselines move.
    pub fn reset_metrics_window(&self) {
        let mut base = self.metrics_baseline.lock();
        base.vm = self.machine.stats().snapshot();
        base.pool = self.machine.pool().stats().snapshot();
        base.durability = odf_durability::stats().snapshot();
        drop(base);
        odf_trace::clear();
    }

    /// Kernel counters relative to the last
    /// [`Kernel::reset_metrics_window`] (whole-process history when never
    /// reset) — what the exporters serve.
    pub fn windowed_stats(&self) -> KernelStats {
        let base = self.metrics_baseline.lock();
        KernelStats {
            vm: self.machine.stats().snapshot() - base.vm,
            pool: self.machine.pool().stats().snapshot() - base.pool,
        }
    }

    /// Durability counters for the current metrics window.
    pub fn windowed_durability_stats(&self) -> odf_durability::DurabilityStatsSnapshot {
        let base = self.metrics_baseline.lock();
        odf_durability::stats().snapshot() - base.durability
    }

    /// Snapshot of all kernel counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            vm: self.machine.stats().snapshot(),
            pool: self.machine.pool().stats().snapshot(),
        }
    }

    /// Free simulated physical memory, in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.machine.pool().free_frames() as u64 * odf_pmem::PAGE_SIZE as u64
    }

    /// Total simulated physical memory, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.machine.pool().total_frames() as u64 * odf_pmem::PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_increasing_pids() {
        let k = Kernel::new(16 << 20);
        let a = k.spawn().unwrap();
        let b = k.spawn().unwrap();
        assert!(b.pid() > a.pid());
        assert_eq!(k.process_count(), 2);
        drop(a);
        assert_eq!(k.process_count(), 1);
        drop(b);
        assert_eq!(k.process_count(), 0);
    }

    #[test]
    fn policy_override_beats_default() {
        let k = Kernel::new(16 << 20);
        let p = k.spawn().unwrap();
        assert_eq!(k.effective_fork_policy(p.pid()), ForkPolicy::Classic);
        k.set_fork_policy(p.pid(), Some(ForkPolicy::OnDemand));
        assert_eq!(k.effective_fork_policy(p.pid()), ForkPolicy::OnDemand);
        k.set_fork_policy(p.pid(), None);
        assert_eq!(k.effective_fork_policy(p.pid()), ForkPolicy::Classic);
    }

    #[test]
    fn restore_accounting_balances_and_frees_cleanly() {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let a = p.mmap_anon(512 << 10).unwrap();
        for pg in 0..16u64 {
            p.write_u64(a + pg * 8192, pg).unwrap();
        }
        let img = p.checkpoint().unwrap();

        // restore() itself asserts pool-delta == footprint; then tearing
        // the restored process down must return every frame.
        let before = k.machine().pool().balance();
        let q = k.restore(&img).unwrap();
        let footprint = q.mm().frame_footprint();
        assert!(footprint.data_frames >= 16, "restored pages are resident");
        drop(q);
        odf_pmem::assert_pool_balanced(k.machine().pool(), before);
    }

    #[test]
    fn failed_restore_returns_every_frame_to_the_pool() {
        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        let a = p.mmap_anon(256 << 10).unwrap();
        for pg in 0..32u64 {
            p.write_u64(a + pg * 4096, pg).unwrap();
        }
        let mut img = p.checkpoint().unwrap();
        // A page record outside every VMA makes restore_into die *after*
        // the earlier pages were already populated — the aborted process
        // must hand every frame back (asserted inside restore()).
        img.pages.push(odf_snapshot::PageRecord {
            va: 0x7fff_0000_0000,
            payload: Some(0),
        });

        let before = k.machine().pool().balance();
        assert!(k.restore(&img).is_err(), "restore must report the fault");
        odf_pmem::assert_pool_balanced(k.machine().pool(), before);
    }

    #[test]
    fn daemon_keeps_an_oversized_working_set_alive() {
        // Working set 2x physical memory: only reclaim (background daemon
        // plus direct-reclaim fallback) lets this complete.
        let k = Kernel::new(64 << 12); // 64 frames
        k.start_default_reclaim_daemon();
        let p = k.spawn().unwrap();
        let len = 128u64 << 12;
        let a = p.mmap_anon(len).unwrap();
        for pg in 0..128u64 {
            p.write_u64(a + (pg << 12), pg ^ 0xface).unwrap();
        }
        for pg in 0..128u64 {
            assert_eq!(p.read_u64(a + (pg << 12)).unwrap(), pg ^ 0xface);
        }
        let stats = k.stats();
        assert!(stats.vm.pages_swapped_out > 0, "eviction must have run");
        assert!(
            stats.vm.pages_swapped_in > 0,
            "swap-in faults must have run"
        );
        k.stop_reclaim_daemon();
        assert!(k.reclaim_daemon_stats().is_none());
        drop(p);
        // Teardown released every frame and every swap slot.
        assert_eq!(
            k.machine().pool().free_frames(),
            k.machine().pool().total_frames()
        );
        assert_eq!(k.machine().swap().used_slots(), 0);
    }

    #[test]
    fn thp_daemon_collapses_in_the_background_and_smaps_is_exact() {
        use odf_vm::MapParams;

        let k = Kernel::new(64 << 20);
        let p = k.spawn().unwrap();
        // Two 2 MiB-aligned chunks, fully populated by writes.
        let len = 4u64 << 20;
        let a = p
            .mmap_fixed(0x4000_0000, len, MapParams::anon_rw())
            .unwrap();
        p.populate(a, len, true).unwrap();
        assert_eq!(p.smaps().huge(), 0, "nothing huge before promotion");

        k.start_thp_daemon(
            Box::new(odf_thp::GreedyPolicy),
            odf_thp::ThpDaemonConfig {
                interval: std::time::Duration::from_millis(1),
                ..Default::default()
            },
        );
        k.kick_thp_daemon();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while k.thp_daemon_stats().unwrap().collapses < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "daemon failed to collapse both chunks: {:?}",
                k.thp_daemon_stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        k.stop_thp_daemon();
        assert!(k.thp_daemon_stats().is_none());

        // Satellite exactness check: the VMA's AnonHugePages equals the
        // promoted bytes exactly — not rounded to the VMA size, not
        // double-counted in rss.
        let smaps = p.smaps();
        let entry = smaps
            .entries
            .iter()
            .find(|e| e.start == a)
            .expect("the mapped VMA is reported");
        assert_eq!(entry.huge, len, "AnonHugePages is exact");
        assert_eq!(entry.rss, len, "huge bytes are part of rss, not extra");
        assert!(smaps.render().contains("AnonHugePages:"));
        assert_eq!(k.stats().vm.thp_collapses, 2);
    }

    #[test]
    fn memory_accounting_is_exposed() {
        let k = Kernel::new(16 << 20);
        assert_eq!(k.total_bytes(), 16 << 20);
        let before = k.free_bytes();
        let p = k.spawn().unwrap();
        let addr = p.mmap_anon(1 << 20).unwrap();
        p.populate(addr, 1 << 20, true).unwrap();
        assert!(k.free_bytes() < before);
        drop(p);
        assert_eq!(k.free_bytes(), before);
    }
}
