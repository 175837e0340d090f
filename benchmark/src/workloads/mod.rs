//! The four workloads and what they share: run phases, the measured
//! window's bookkeeping, and the metrics every workload reports the same
//! way.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api_surface::{Kernel, KernelStats, PoolBalance};
use crate::host;
use crate::spec::Metrics;
use crate::stats::{median, median_f64, percentile, Timeline};
use crate::trace::Tracer;

pub mod fork_exec;
pub mod kv;
pub mod kv_durable;
pub mod replay;

/// Size of a run: `Full` is what `BENCHMARK.json` describes; `Smoke` keeps
/// every code path and shrinks the data so a run takes about a second.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at full size, a fixed fraction of it under `--smoke`.
    pub fn size(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 32).max(1),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    /// Digest of the generated inputs: equal for equal seeds.
    pub input_digest: u64,
    /// The traced run's spans, for the trace file.
    pub tracer: Option<Tracer>,
}

pub fn run(workload: &str, cfg: RunCfg) -> Option<Outcome> {
    match workload {
        "kv_serve" | "kv_bgsave" => Some(kv::run(workload, cfg)),
        "fork_exec" => Some(fork_exec::run(cfg)),
        "kv_durable" => Some(kv_durable::run(cfg)),
        _ => None,
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Times one set-up.
pub fn timed_setup<S>(build: impl FnOnce() -> S) -> (S, f64) {
    let started = Instant::now();
    let state = build();
    (state, started.elapsed().as_secs_f64())
}

/// Sets `setup_s` of an untraced run: the median of the set-up the run used
/// (`first_s`) and [`SETUP_REPS`]` - 1` more, each built and torn down here.
/// They come after the run, not before it, so that `peak_rss_mb` — already
/// taken — cannot depend on whether the allocator reused a torn-down
/// set-up's memory (it did not in one run out of ten, and read 120 MiB for
/// 69).
pub fn finish_setups<S>(
    m: &mut Metrics,
    first_s: f64,
    mut build: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) {
    let mut times = vec![first_s];
    for _ in 1..SETUP_REPS {
        let (state, took) = timed_setup(&mut build);
        times.push(took);
        teardown(state);
    }
    m.set("setup_s", median_f64(&times), SETUP_REPS as u64);
}

/// Operations attempted and operations that failed or returned a wrong
/// result.
#[derive(Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// A simulated machine and its frame accounting before the workload touched
/// it: every workload must hand the pool back exactly as it found it.
pub struct Machine {
    pub kernel: Arc<Kernel>,
    baseline: PoolBalance,
}

impl Machine {
    pub fn boot(phys_bytes: u64) -> Machine {
        let kernel = Kernel::new(phys_bytes);
        let baseline = kernel.machine().pool().balance();
        Machine { kernel, baseline }
    }

    /// Whether every frame is back in the pool; call after the last process
    /// has exited.
    pub fn balanced(&self) -> bool {
        self.kernel.machine().pool().balance() == self.baseline
    }
}

/// Runs the warm-up (a tenth of `--seconds`) and the measured windows
/// through `window`, and returns the windows' results with the spans of the
/// traced one. Untraced run: one window of `--seconds`. Traced run: an
/// untraced and a traced window of a quarter each — their throughput ratio
/// is the tracing overhead — which leaves the rest for the layer replay.
pub fn measure(
    cfg: &RunCfg,
    mut window: impl FnMut(Duration, &mut Tracer) -> WindowResult,
) -> (Vec<WindowResult>, Tracer) {
    let secs = Duration::from_secs_f64;
    let mut off = Tracer::off();
    window(secs(cfg.seconds / 10.0), &mut off);
    if !cfg.trace {
        return (vec![window(secs(cfg.seconds), &mut off)], off);
    }
    let mut tracer = Tracer::on();
    let untraced = window(secs(cfg.seconds / 4.0), &mut off);
    let traced = window(secs(cfg.seconds / 4.0), &mut tracer);
    (vec![untraced, traced], tracer)
}

/// Bookkeeping of one measured window.
pub struct Window {
    pub started: Instant,
    cpu0: f64,
    stats0: KernelStats,
}

/// What a window measured, whatever the workload.
pub struct WindowResult {
    pub ops: u64,
    pub elapsed: Duration,
    pub cpu_s: f64,
    pub kernel: KernelStats,
    /// Latency of each operation (or pipelined batch).
    pub latency: Timeline,
    /// Time the forking thread spent blocked in each fork, ns.
    pub fork_ns: Vec<u64>,
    /// Client-visible stall of each snapshot request, ns.
    pub stall_ns: Vec<u64>,
}

impl Window {
    pub fn open(kernel: &Kernel) -> Window {
        Window {
            cpu0: host::cpu_seconds(),
            stats0: kernel.stats(),
            started: Instant::now(),
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    pub fn close(
        self,
        kernel: &Kernel,
        ops: u64,
        latency: Timeline,
        fork_ns: Vec<u64>,
        stall_ns: Vec<u64>,
    ) -> WindowResult {
        WindowResult {
            ops,
            elapsed: self.started.elapsed(),
            cpu_s: host::cpu_seconds() - self.cpu0,
            kernel: kernel.stats() - self.stats0,
            latency,
            fork_ns,
            stall_ns,
        }
    }
}

impl WindowResult {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The end-to-end metrics of an untraced run, but for `setup_s`
/// ([`finish_setups`]).
pub fn end_to_end(m: &mut Metrics, w: &WindowResult, fork_ns: &[u64]) {
    let window_ns = w.elapsed.as_nanos() as u64;
    m.set("throughput_ops_s", w.throughput(), w.ops);
    m.set("latency_p50_us", us(w.latency.p50()), w.latency.len());
    m.set(
        "latency_p99_us",
        us(w.latency.sliced_percentile(window_ns, 99.0)),
        w.latency.len(),
    );
    m.set("fork_p50_us", us(median(fork_ns)), fork_ns.len() as u64);
    m.set_one("peak_rss_mb", host::peak_rss_mb());
}

/// The per-layer metrics every traced run reports the same way: what the
/// client saw in the untraced window, what tracing cost, and the kernel's
/// counters over both windows, per operation or per fork.
pub fn client_and_counts(
    m: &mut Metrics,
    untraced: &WindowResult,
    traced: &WindowResult,
    checks: Checks,
    program_tracing: bool,
) {
    let lat = untraced.latency.latencies();
    m.set(
        "client.latency_p99_us",
        us(percentile(&lat, 99.0)),
        lat.len() as u64,
    );
    m.set(
        "client.latency_p999_us",
        us(percentile(&lat, 99.9)),
        lat.len() as u64,
    );
    let stalls = [&untraced.stall_ns[..], &traced.stall_ns[..]].concat();
    m.set(
        "client.bgsave_stall_p50_us",
        us(median(&stalls)),
        stalls.len() as u64,
    );
    m.set(
        "client.failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.attempted,
    );
    m.set(
        "host.cpu_us_per_op",
        untraced.cpu_s * 1e6 / untraced.ops.max(1) as f64,
        untraced.ops,
    );
    m.set(
        "bench.trace_overhead_frac",
        1.0 - traced.throughput() / untraced.throughput(),
        traced.ops,
    );
    m.set_one("trace.enabled", f64::from(u8::from(program_tracing)));

    let sum = |f: fn(&KernelStats) -> u64| (f(&untraced.kernel) + f(&traced.kernel)) as f64;
    let ops = (untraced.ops + traced.ops).max(1) as f64;
    let forks = sum(|k| k.vm.forks_odf + k.vm.forks_classic);
    let per_fork = |count: f64| if forks > 0.0 { count / forks } else { 0.0 };
    m.set_one("vm.forks", forks);
    m.set_one("vm.faults_per_op", sum(|k| k.vm.faults) / ops);
    m.set_one(
        "vm.cow_data_copies_per_op",
        sum(|k| k.vm.cow_data_copies) / ops,
    );
    m.set_one(
        "vm.cow_table_copies_per_fork",
        per_fork(sum(|k| k.vm.cow_table_copies)),
    );
    m.set_one(
        "vm.fork_tables_shared_per_fork",
        per_fork(sum(|k| k.vm.fork_tables_shared)),
    );
    m.set_one(
        "vm.tlb_flushes_per_fork",
        per_fork(sum(|k| k.vm.tlb_flushes)),
    );
    m.set_one("vm.fault_retries", sum(|k| k.vm.fault_retries));
    m.set_one("vm.install_races_lost", sum(|k| k.vm.install_races_lost));
    m.set_one("vm.access_pin_retries", sum(|k| k.vm.access_pin_retries));
    m.set_one("reclaim.runs", sum(|k| k.vm.reclaim_runs));
    m.set_one("thp.collapses", sum(|k| k.vm.thp_collapses));
    m.set_one("pmem.allocs_per_op", sum(|k| k.pool.allocs) / ops);
    m.set_one(
        "pmem.ref_incs_per_fork",
        per_fork(sum(|k| k.pool.page_ref_incs + k.pool.pt_share_incs)),
    );
    m.set_one(
        "pmem.bytes_copied_per_op",
        sum(|k| k.pool.bytes_copied) / ops,
    );
    let (hits, misses) = (sum(|k| k.pool.pcp_hits), sum(|k| k.pool.pcp_misses));
    m.set_one("pmem.pcp_hit_ratio", hits / (hits + misses).max(1.0));
    m.set_one("pmem.alloc_failures", sum(|k| k.pool.alloc_failures));
}

/// Timed per-layer metrics: metric, the span it is the median self time
/// of, and the nanoseconds (times calls per span) in one unit of it.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    (
        "kvstore.resp.parse_reply_ns",
        "kvstore.resp.parse_reply",
        kv::PIPELINE as f64,
    ),
    ("kvstore.store.get_ns", "kvstore.store.get", 1.0),
    ("kvstore.store.set_ns", "kvstore.store.set", 1.0),
    ("kvstore.store.del_ns", "kvstore.store.del", 1.0),
    ("kvstore.store.serialize_ms", "kvstore.store.serialize", 1e6),
    (
        "core.heap.alloc_free_ns",
        "core.heap.alloc_free",
        replay::GROUP as f64,
    ),
    ("core.process.exit_us", "core.process.exit", 1e3),
    (
        "vm.access.read_hit_ns",
        "vm.access.read_hit",
        replay::GROUP as f64,
    ),
    (
        "vm.access.write_hit_ns",
        "vm.access.write_hit",
        replay::GROUP as f64,
    ),
    (
        "vm.walk.resolve_ns",
        "vm.walk.resolve",
        replay::GROUP as f64,
    ),
    ("vm.fork.ondemand_us", "vm.fork.ondemand", 1e3),
    ("vm.fork.classic_us", "vm.fork.classic", 1e3),
    ("vm.fault.demand_zero_ns", "vm.fault.demand_zero", 1.0),
    ("vm.fault.table_cow_ns", "vm.fault.table_cow", 1.0),
    ("vm.fault.data_cow_ns", "vm.fault.data_cow", 1.0),
    ("vm.fault.reuse_ns", "vm.fault.reuse", 1.0),
    (
        "pmem.alloc_free_ns",
        "pmem.alloc_free",
        replay::GROUP as f64,
    ),
    (
        "durability.wal.append_commit_ns",
        "durability.wal.append_commit",
        1.0,
    ),
    (
        "durability.recover.chain_ms",
        "durability.recover.chain",
        1e6,
    ),
    ("snapshot.capture_full_ms", "snapshot.capture_full", 1e6),
    ("snapshot.capture_delta_ms", "snapshot.capture_delta", 1e6),
];

/// Sets every timed per-layer metric whose spans the traced run recorded; a
/// layer the workload never called records none and reads 0.
pub fn span_metrics(m: &mut Metrics, tracer: &Tracer) {
    let medians = tracer.self_time_medians();
    for &(metric, span, unit_ns) in SPAN_METRICS {
        if let Some(&(median_ns, n)) = medians.get(span) {
            m.set(metric, median_ns as f64 / unit_ns, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    use super::*;
    use crate::spec::Spec;

    /// `kv_durable` reads process-wide durability counters, so its runs must
    /// not overlap within the test process.
    static DURABLE: Mutex<()> = Mutex::new(());

    fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
        let _serial = (workload == "kv_durable").then(|| DURABLE.lock().unwrap());
        let cfg = RunCfg {
            seed,
            seconds: 0.2,
            trace,
            scale: Scale::Smoke,
        };
        run(workload, cfg).expect("known workload")
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
        let spec = Spec::load();
        for (workload, _) in &spec.workloads {
            let outcome = smoke(workload, 3, false);
            assert_eq!(outcome.checks.failed, 0, "{workload}");
            assert!(outcome.checks.attempted > 0, "{workload}");
            for (metric, sample) in outcome.metrics.in_spec_order(&spec.end_to_end, true) {
                assert!(sample.value > 0.0, "{workload}.{} is 0", metric.name);
            }
        }
    }

    #[test]
    fn every_per_layer_metric_is_measured_by_some_workload() {
        let spec = Spec::load();
        let mut measured = BTreeSet::new();
        for (workload, _) in &spec.workloads {
            let outcome = smoke(workload, 3, true);
            assert_eq!(outcome.checks.failed, 0, "{workload}");
            // Panics on a name BENCHMARK.json does not list.
            outcome.metrics.in_spec_order(&spec.per_layer, false);
            measured.extend(outcome.metrics.names().map(String::from));
        }
        let listed: BTreeSet<String> = spec.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(measured, listed);
    }

    #[test]
    fn same_seed_same_inputs() {
        for workload in ["kv_serve", "fork_exec", "kv_durable"] {
            let a = smoke(workload, 11, false).input_digest;
            assert_eq!(a, smoke(workload, 11, false).input_digest, "{workload}");
            assert_ne!(a, smoke(workload, 12, false).input_digest, "{workload}");
        }
    }

    #[test]
    fn durable_count_metrics_repeat_exactly() {
        let counts = |o: &Outcome| -> Vec<(String, f64)> {
            o.metrics
                .names()
                .filter(|n| {
                    n.starts_with("durability.") && !n.ends_with("_ns") && !n.ends_with("_ms")
                })
                .filter(|n| !n.contains("recover"))
                .map(|n| (n.to_string(), o.metrics.value(n)))
                .collect()
        };
        let (a, b) = (smoke("kv_durable", 5, true), smoke("kv_durable", 5, true));
        assert_eq!(counts(&a).len(), 4);
        assert_eq!(counts(&a), counts(&b));
    }
}
