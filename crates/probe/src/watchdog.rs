//! The SLO watchdog: a background daemon (lifecycle modeled on the
//! reclaim/THP daemons) that periodically evaluates latency/error budgets
//! against live probe aggregates and external gauges, and on breach
//! triggers the [`crate::blackbox`] flight recorder.
//!
//! Budgets read either a `lat_hist` probe's merged p999 (the probe layer
//! is the measurement plane; the watchdog only compares) or an arbitrary
//! gauge closure — how the kernel wires in inputs the probe engine does
//! not own, such as the WAL group-commit lag.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use odf_trace::json_escape;

use crate::blackbox::{dump_bundle, BundleRequest};
use crate::engine;

/// Where a budget's observed value comes from.
pub enum BudgetSource {
    /// Merged p999 of a `lat_hist` probe attached to the engine. A probe
    /// with no samples yet observes nothing (no breach).
    ProbeP999 {
        /// Probe name to read.
        probe: String,
    },
    /// An arbitrary gauge closure (WAL lag, queue depth, ...).
    Gauge {
        /// Display label for reports.
        label: String,
        /// Reads the current value.
        read: Box<dyn Fn() -> u64 + Send + Sync>,
    },
}

impl BudgetSource {
    fn observe(&self) -> Option<u64> {
        match self {
            Self::ProbeP999 { probe } => engine().probe_p999(probe),
            Self::Gauge { read, .. } => Some(read()),
        }
    }

    fn describe(&self) -> String {
        match self {
            Self::ProbeP999 { probe } => format!("p999({probe})"),
            Self::Gauge { label, .. } => format!("gauge({label})"),
        }
    }
}

/// One budget: breach when the observed value exceeds `limit`.
pub struct SloBudget {
    /// Budget name (appears in breach reports and bundle file names).
    pub name: String,
    /// Where the observed value comes from.
    pub source: BudgetSource,
    /// Inclusive ceiling; observed > limit is a breach.
    pub limit: u64,
}

/// One budget violation.
#[derive(Clone, Debug)]
pub struct Breach {
    /// Name of the violated budget.
    pub budget: String,
    /// Description of the budget's source.
    pub source: String,
    /// Observed value.
    pub observed: u64,
    /// The ceiling it exceeded.
    pub limit: u64,
}

impl Breach {
    /// Renders the breach as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"budget\":\"{}\",\"source\":\"{}\",\"observed\":{},\"limit\":{}}}",
            json_escape(&self.budget),
            json_escape(&self.source),
            self.observed,
            self.limit
        )
    }
}

/// Supplies the bundle's context digest (smaps/pagemap JSON) at dump time.
pub type ContextProvider = Box<dyn Fn() -> String + Send + Sync>;

/// Watchdog tuning knobs.
pub struct WatchdogConfig {
    /// Evaluation period.
    pub interval: Duration,
    /// Trailing trace window captured into bundles, trace-clock ns.
    pub window_ns: u64,
    /// Directory bundles are written into.
    pub out_dir: PathBuf,
    /// Bundle cap per watchdog instance — a persistent breach must not
    /// fill the disk with identical bundles.
    pub max_bundles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(10),
            window_ns: 2_000_000_000,
            out_dir: PathBuf::from("."),
            max_bundles: 4,
        }
    }
}

#[derive(Default)]
struct WatchdogCounters {
    evaluations: AtomicU64,
    breaches: AtomicU64,
    bundles_written: AtomicU64,
}

/// A point-in-time copy of the watchdog's activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Budget-evaluation rounds performed.
    pub evaluations: u64,
    /// Individual budget violations observed.
    pub breaches: u64,
    /// Incident bundles written.
    pub bundles_written: u64,
}

struct Shared {
    stop: Mutex<bool>,
    wake: Condvar,
    config: WatchdogConfig,
    budgets: Vec<SloBudget>,
    context: Option<ContextProvider>,
    counters: WatchdogCounters,
    seq: AtomicU64,
    // Serializes breach handling: concurrent evaluate_now calls must not
    // interleave bundle writes or double-count the bundle cap.
    dump_gate: Mutex<Option<PathBuf>>,
}

impl Shared {
    fn evaluate(&self) -> Vec<Breach> {
        self.counters.evaluations.fetch_add(1, Ordering::Relaxed);
        let breaches: Vec<Breach> = self
            .budgets
            .iter()
            .filter_map(|b| {
                let observed = b.source.observe()?;
                (observed > b.limit).then(|| Breach {
                    budget: b.name.clone(),
                    source: b.source.describe(),
                    observed,
                    limit: b.limit,
                })
            })
            .collect();
        if breaches.is_empty() {
            return breaches;
        }
        self.counters
            .breaches
            .fetch_add(breaches.len() as u64, Ordering::Relaxed);
        let mut last = self.dump_gate.lock().expect("watchdog dump gate");
        if self.counters.bundles_written.load(Ordering::Relaxed) >= self.config.max_bundles {
            return breaches;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let reason = format!("slo {}", breaches[0].budget);
        let req = BundleRequest {
            reason: &reason,
            seq,
            window_ns: self.config.window_ns,
            out_dir: &self.config.out_dir,
            breaches: &breaches,
            context_json: self.context.as_ref().map(|c| c()),
        };
        match dump_bundle(&req) {
            Ok(path) => {
                self.counters
                    .bundles_written
                    .fetch_add(1, Ordering::Relaxed);
                *last = Some(path);
            }
            Err(_) => {
                // A failed dump must not kill the watchdog; the breach
                // counters still record that the budget blew.
            }
        }
        breaches
    }
}

/// The SLO watchdog daemon.
pub struct SloWatchdog {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl SloWatchdog {
    /// Spawns the watchdog thread evaluating `budgets` every
    /// `config.interval`.
    pub fn spawn(
        config: WatchdogConfig,
        budgets: Vec<SloBudget>,
        context: Option<ContextProvider>,
    ) -> Self {
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            config,
            budgets,
            context,
            counters: WatchdogCounters::default(),
            seq: AtomicU64::new(1),
            dump_gate: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("odf-slo-watchdog".into())
            .spawn(move || daemon_loop(&thread_shared))
            .expect("spawn slo watchdog");
        Self {
            shared,
            handle: Some(handle),
        }
    }

    /// Runs one evaluation round synchronously on the calling thread —
    /// deterministic triggering for tests and callers that need the
    /// result.
    pub fn evaluate_now(&self) -> Vec<Breach> {
        self.shared.evaluate()
    }

    /// Activity counters so far.
    pub fn stats(&self) -> WatchdogStats {
        WatchdogStats {
            evaluations: self.shared.counters.evaluations.load(Ordering::Relaxed),
            breaches: self.shared.counters.breaches.load(Ordering::Relaxed),
            bundles_written: self.shared.counters.bundles_written.load(Ordering::Relaxed),
        }
    }

    /// Path of the most recently written incident bundle.
    pub fn last_bundle(&self) -> Option<PathBuf> {
        self.shared
            .dump_gate
            .lock()
            .expect("watchdog dump gate")
            .clone()
    }

    /// Stops the daemon and joins its thread (also runs on drop).
    pub fn stop(&mut self) {
        *self.shared.stop.lock().expect("watchdog state") = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SloWatchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

fn daemon_loop(shared: &Shared) {
    loop {
        {
            let stop = shared.stop.lock().expect("watchdog state");
            let (stop, _timeout) = shared
                .wake
                .wait_timeout_while(stop, shared.config.interval, |stop| !*stop)
                .expect("watchdog wait");
            if *stop {
                return;
            }
        }
        shared.evaluate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_gauge(values: Vec<u64>) -> BudgetSource {
        let i = AtomicU64::new(0);
        BudgetSource::Gauge {
            label: "test".into(),
            read: Box::new(move || {
                let n = i.fetch_add(1, Ordering::Relaxed) as usize;
                values[n.min(values.len() - 1)]
            }),
        }
    }

    #[test]
    fn breaches_fire_only_above_limit() {
        let dir = std::env::temp_dir().join("odf_watchdog_unit");
        let mut wd = SloWatchdog::spawn(
            WatchdogConfig {
                interval: Duration::from_secs(3600),
                out_dir: dir,
                ..WatchdogConfig::default()
            },
            vec![SloBudget {
                name: "lag".into(),
                source: counting_gauge(vec![5, 50]),
                limit: 10,
            }],
            None,
        );
        assert!(wd.evaluate_now().is_empty(), "5 <= 10 must not breach");
        let breaches = wd.evaluate_now();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].observed, 50);
        assert_eq!(breaches[0].limit, 10);
        assert!(breaches[0].to_json().contains("\"budget\":\"lag\""));
        let stats = wd.stats();
        assert_eq!(stats.breaches, 1);
        assert_eq!(stats.bundles_written, 1);
        assert!(wd.last_bundle().is_some());
        let _ = std::fs::remove_file(wd.last_bundle().unwrap());
        wd.stop();
    }

    #[test]
    fn bundle_cap_stops_disk_spam() {
        let dir = std::env::temp_dir().join("odf_watchdog_cap");
        let mut wd = SloWatchdog::spawn(
            WatchdogConfig {
                interval: Duration::from_secs(3600),
                out_dir: dir.clone(),
                max_bundles: 1,
                ..WatchdogConfig::default()
            },
            vec![SloBudget {
                name: "always".into(),
                source: counting_gauge(vec![100]),
                limit: 1,
            }],
            None,
        );
        for _ in 0..5 {
            assert_eq!(wd.evaluate_now().len(), 1);
        }
        let stats = wd.stats();
        assert_eq!(stats.breaches, 5);
        assert_eq!(stats.bundles_written, 1, "cap must hold");
        let _ = std::fs::remove_file(wd.last_bundle().unwrap());
        wd.stop();
    }
}
