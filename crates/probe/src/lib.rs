//! odf-probe — eBPF-style programmable probes with in-simulation
//! aggregation.
//!
//! The observability layer from PR 4 answers *what* the latency
//! distributions look like; it cannot answer *who* caused them. This crate
//! is the eBPF-mm analog for the simulation: small programs (filter +
//! aggregation prefab) attach to a probe point and fold every
//! [`odf_trace::Hit`] it emits into a BPF-map analog —
//! a sharded, cardinality-bounded per-key map ([`map::ShardedMap`]) — which
//! is readable live while the workload runs.
//!
//! Dispatch layering keeps the detached fast path at one relaxed load: the
//! engine flips [`odf_trace::set_probes_active`] on the 0 ↔ >0
//! attached-probe transitions, and receives hits through the
//! [`odf_trace::ProbeSink`] registration.
//!
//! Two built-in consumers ride on top: the [`watchdog::SloWatchdog`]
//! daemon evaluates latency/error budgets against probe aggregates, and on
//! breach triggers the [`blackbox`] flight recorder, which freezes the
//! trace rings and writes a self-contained `BLACKBOX_*.json` incident
//! bundle.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use odf_metrics::Histogram;
use odf_trace::{json_escape, Hit, Point, ProbeSink};

pub mod blackbox;
pub mod map;
pub mod program;
pub mod watchdog;

pub use map::{ShardedMap, Slot, DEFAULT_MAX_KEYS};
pub use program::{Program, ProgramKind};
pub use watchdog::{Breach, BudgetSource, SloBudget, SloWatchdog, WatchdogConfig};

/// What a probe's aggregation map is keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keying {
    /// One global slot (`@ = ...`).
    None,
    /// Per owning process (`@[pid] = ...`).
    Pid,
    /// Per VMA range containing the address (`@[vma] = ...`).
    Vma,
    /// Per point-specific kind discriminant (`@[kind] = ...`).
    Kind,
    /// Per compound order (`@[order] = ...`).
    Order,
}

impl Keying {
    /// Stable lowercase token used in probe specs.
    pub fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Pid => "pid",
            Self::Vma => "vma",
            Self::Kind => "kind",
            Self::Order => "order",
        }
    }

    /// Inverse of [`Keying::label`].
    pub fn from_label(s: &str) -> Option<Keying> {
        [Self::None, Self::Pid, Self::Vma, Self::Kind, Self::Order]
            .into_iter()
            .find(|k| k.label() == s)
    }

    /// Extracts the map key for a hit under this keying.
    #[inline]
    fn key_of(self, hit: &Hit) -> u64 {
        match self {
            Self::None => 0,
            Self::Pid => hit.pid,
            Self::Vma => hit.vma.0,
            // Kinds are per-point namespaces, so a keyed slot is (point,
            // kind); the point is constant per probe, so the kind alone
            // suffices.
            Self::Kind => u64::from(hit.kind),
            Self::Order => u64::from(hit.order),
        }
    }

    /// Renders the key's display label (fixed on first hit).
    fn label_of(self, hit: &Hit) -> String {
        match self {
            Self::None => "all".to_string(),
            Self::Pid => format!("pid {}", hit.pid),
            Self::Vma => format!("0x{:x}-0x{:x}", hit.vma.0, hit.vma.1),
            Self::Kind => hit.kind_label().to_string(),
            Self::Order => format!("order {}", hit.order),
        }
    }
}

/// A parsed probe specification — the wire form used by `PROBE ATTACH`:
///
/// ```text
/// PROBE ATTACH <name> <point> <program> [key=...] [pid=N] [kind=LABEL]
///              [minlat=NS] [maxkeys=N]
/// ```
#[derive(Clone, Debug)]
pub struct ProbeSpec {
    /// Unique probe name (the handle for READ/DETACH).
    pub name: String,
    /// Attach point: one of the points with a probe label.
    pub point: Point,
    /// Aggregation prefab.
    pub program: ProgramKind,
    /// Map keying (default [`Keying::None`]).
    pub key: Keying,
    /// Only hits from this pid pass (0 is a valid pid filter).
    pub pid: Option<u64>,
    /// Only hits whose [`Hit::kind_label`] equals this pass.
    pub kind: Option<String>,
    /// Only hits with a latency of at least `minlat` ns pass.
    pub min_latency_ns: Option<u64>,
    /// Map cardinality bound.
    pub max_keys: usize,
}

impl ProbeSpec {
    /// A spec with defaults: no filter, unkeyed, default cardinality.
    pub fn new(name: &str, point: Point, program: ProgramKind) -> ProbeSpec {
        ProbeSpec {
            name: name.to_string(),
            point,
            program,
            key: Keying::None,
            pid: None,
            kind: None,
            min_latency_ns: None,
            max_keys: DEFAULT_MAX_KEYS,
        }
    }

    /// Parses `[name, point, program, opt...]` tokens.
    pub fn parse(tokens: &[&str]) -> Result<ProbeSpec, String> {
        let [name, point, program, opts @ ..] = tokens else {
            return Err("usage: <name> <point> <program> [key=...] [pid=N] \
                 [kind=LABEL] [minlat=NS] [maxkeys=N]"
                .to_string());
        };
        if name.is_empty() || name.len() > 64 {
            return Err("probe name must be 1..=64 chars".to_string());
        }
        let point = Point::from_probe_label(point).ok_or_else(|| {
            let labels: Vec<&str> = Point::probe_labels().collect();
            format!(
                "unknown attach point '{point}' (one of: {})",
                labels.join(" ")
            )
        })?;
        let program = ProgramKind::from_label(program).ok_or_else(|| {
            format!(
                "unknown program '{program}' (one of: {})",
                ProgramKind::ALL.map(|p| p.label()).join(" ")
            )
        })?;
        let mut spec = ProbeSpec::new(name, point, program);
        for opt in opts {
            let (k, v) = opt
                .split_once('=')
                .ok_or_else(|| format!("malformed option '{opt}' (expected k=v)"))?;
            match k {
                "key" => {
                    spec.key = Keying::from_label(v)
                        .ok_or_else(|| format!("unknown key '{v}' (none|pid|vma|kind|order)"))?;
                }
                "pid" => {
                    spec.pid = Some(v.parse().map_err(|_| format!("bad pid '{v}'"))?);
                }
                "kind" => spec.kind = Some(v.to_string()),
                "minlat" => {
                    spec.min_latency_ns = Some(v.parse().map_err(|_| format!("bad minlat '{v}'"))?);
                }
                "maxkeys" => {
                    let n: usize = v.parse().map_err(|_| format!("bad maxkeys '{v}'"))?;
                    if n == 0 || n > 4096 {
                        return Err("maxkeys must be 1..=4096".to_string());
                    }
                    spec.max_keys = n;
                }
                _ => return Err(format!("unknown option '{k}'")),
            }
        }
        Ok(spec)
    }

    /// The attach point's probe label.
    pub fn point_label(&self) -> &'static str {
        let d = self.point.desc();
        d.probe.unwrap_or(d.class)
    }

    /// Renders the spec back to its token form (for `PROBE LIST`).
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} {} {}",
            self.name,
            self.point_label(),
            self.program.label()
        );
        if self.key != Keying::None {
            s.push_str(&format!(" key={}", self.key.label()));
        }
        if let Some(pid) = self.pid {
            s.push_str(&format!(" pid={pid}"));
        }
        if let Some(kind) = &self.kind {
            s.push_str(&format!(" kind={kind}"));
        }
        if let Some(ns) = self.min_latency_ns {
            s.push_str(&format!(" minlat={ns}"));
        }
        if self.max_keys != DEFAULT_MAX_KEYS {
            s.push_str(&format!(" maxkeys={}", self.max_keys));
        }
        s
    }
}

/// Arbitrary hit predicate (spec filters compile to one; custom
/// attachments may pass any closure).
pub type Filter = Box<dyn Fn(&Hit) -> bool + Send + Sync>;

/// One attached probe: filter + program + aggregation map.
pub struct Probe {
    spec: ProbeSpec,
    program: Box<dyn Program>,
    filter: Option<Filter>,
    map: ShardedMap,
    hits: AtomicU64,
    filtered_out: AtomicU64,
    /// `Some` when the program is a stock prefab, letting the per-thread
    /// fast path fold hits without the trait object or the shard locks.
    /// Custom [`ProbeEngine::attach_program`] attachments dispatch
    /// directly instead.
    prefab: Option<ProgramKind>,
}

impl Probe {
    fn hit(&self, hit: &Hit) {
        if let Some(f) = &self.filter {
            if !f(hit) {
                self.filtered_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        let key = self.spec.key.key_of(hit);
        self.map.update(
            key,
            || self.spec.key.label_of(hit),
            |slot| self.program.update(slot, hit),
        );
    }

    /// Snapshot this probe into a report.
    fn report(&self) -> ProbeReport {
        ProbeReport {
            spec: self.spec.clone(),
            hits: self.hits.load(Ordering::Relaxed),
            filtered_out: self.filtered_out.load(Ordering::Relaxed),
            evicted_keys: self.map.evicted(),
            keys: self
                .map
                .snapshot()
                .into_iter()
                .map(|s| KeyReport {
                    lat: s.hist.as_deref().map(LatSummary::of),
                    label: s.label,
                    hits: s.hits,
                    sum: s.sum,
                    max: s.max,
                })
                .collect(),
        }
    }
}

/// Latency digest of one key's histogram.
#[derive(Clone, Debug)]
pub struct LatSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency, nanoseconds.
    pub mean_ns: f64,
    /// p50, nanoseconds.
    pub p50_ns: u64,
    /// p99, nanoseconds.
    pub p99_ns: u64,
    /// p99.9, nanoseconds.
    pub p999_ns: u64,
    /// Exact maximum, nanoseconds.
    pub max_ns: u64,
}

impl LatSummary {
    fn of(h: &Histogram) -> LatSummary {
        LatSummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.percentile(50.0),
            p99_ns: h.percentile(99.0),
            p999_ns: h.percentile(99.9),
            max_ns: h.max(),
        }
    }
}

/// One key's row in a probe report, hottest first.
#[derive(Clone, Debug)]
pub struct KeyReport {
    /// Display label of the key.
    pub label: String,
    /// Hits aggregated under the key.
    pub hits: u64,
    /// Sample sum (`sum_by`, `lat_hist`).
    pub sum: u128,
    /// Sample high watermark (`watermark`, `lat_hist`).
    pub max: u64,
    /// Latency digest (`lat_hist` only).
    pub lat: Option<LatSummary>,
}

/// Point-in-time snapshot of one probe's state.
#[derive(Clone, Debug)]
pub struct ProbeReport {
    /// The attached spec.
    pub spec: ProbeSpec,
    /// Hits that passed the filter.
    pub hits: u64,
    /// Hits rejected by the filter.
    pub filtered_out: u64,
    /// Keys evicted to honor the cardinality bound.
    pub evicted_keys: u64,
    /// Per-key rows, hottest first.
    pub keys: Vec<KeyReport>,
}

impl ProbeReport {
    /// p99.9 across every key (merged), for `lat_hist` probes; `None`
    /// when the probe recorded no latencies.
    pub fn merged_p999(&self) -> Option<u64> {
        let lats: Vec<&LatSummary> = self.keys.iter().filter_map(|k| k.lat.as_ref()).collect();
        if lats.is_empty() {
            return None;
        }
        // Keys partition the samples; the merged p999 is bounded by the
        // largest per-key p999 (exact when one key dominates, conservative
        // otherwise — the right bias for a budget check).
        lats.iter().map(|l| l.p999_ns).max()
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|k| {
                let mut fields = vec![
                    format!("\"key\":\"{}\"", json_escape(&k.label)),
                    format!("\"hits\":{}", k.hits),
                ];
                match self.spec.program {
                    ProgramKind::SumBy => fields.push(format!("\"sum\":{}", k.sum)),
                    ProgramKind::Watermark => fields.push(format!("\"max\":{}", k.max)),
                    ProgramKind::LatHist => {
                        if let Some(l) = &k.lat {
                            fields.push(format!(
                                "\"lat\":{{\"count\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{}}}",
                                l.count, l.mean_ns, l.p50_ns, l.p99_ns, l.p999_ns, l.max_ns
                            ));
                        }
                    }
                    ProgramKind::CountBy => {}
                }
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!(
            "{{\"name\":\"{}\",\"point\":\"{}\",\"program\":\"{}\",\"key\":\"{}\",\"hits\":{},\"filtered_out\":{},\"evicted_keys\":{},\"keys\":[{}]}}",
            json_escape(&self.spec.name),
            self.spec.point_label(),
            self.spec.program.label(),
            self.spec.key.label(),
            self.hits,
            self.filtered_out,
            self.evicted_keys,
            keys.join(",")
        )
    }
}

/// The process-wide probe engine. Obtain it via [`engine`]; it registers
/// itself as the trace layer's [`ProbeSink`] on first use.
pub struct ProbeEngine {
    by_point: Vec<RwLock<Vec<Arc<Probe>>>>,
    attached: AtomicUsize,
    /// Bumped on every attach/detach so per-thread caches know to rebuild.
    generation: AtomicU64,
    /// Bumped on window resets: per-thread data from before the reset is
    /// discarded instead of merged.
    reset_epoch: AtomicU64,
}

impl ProbeEngine {
    fn new() -> ProbeEngine {
        ProbeEngine {
            by_point: (0..Point::ALL.len())
                .map(|_| RwLock::new(Vec::new()))
                .collect(),
            attached: AtomicUsize::new(0),
            generation: AtomicU64::new(1),
            reset_epoch: AtomicU64::new(1),
        }
    }

    /// Attaches a probe from a parsed spec. Fails on duplicate names.
    pub fn attach(&self, spec: ProbeSpec) -> Result<(), String> {
        let filter = compile_filter(&spec);
        let prefab = Some(spec.program);
        let program = spec.program.instantiate();
        self.attach_probe(spec, program, filter, prefab)
    }

    /// Attaches a custom program (and optional filter) under `spec`'s
    /// name/point/keying — the escape hatch for programs the prefab set
    /// does not cover.
    pub fn attach_program(
        &self,
        spec: ProbeSpec,
        program: Box<dyn Program>,
        filter: Option<Filter>,
    ) -> Result<(), String> {
        self.attach_probe(spec, program, filter, None)
    }

    fn attach_probe(
        &self,
        spec: ProbeSpec,
        program: Box<dyn Program>,
        filter: Option<Filter>,
        prefab: Option<ProgramKind>,
    ) -> Result<(), String> {
        if spec.point.desc().probe.is_none() {
            return Err(format!("{:?} is not a probe point", spec.point));
        }
        if self.find(&spec.name).is_some() {
            return Err(format!("probe '{}' already attached", spec.name));
        }
        let probe = Arc::new(Probe {
            map: ShardedMap::new(spec.max_keys),
            program,
            filter,
            spec,
            hits: AtomicU64::new(0),
            filtered_out: AtomicU64::new(0),
            prefab,
        });
        let idx = probe.spec.point as usize;
        {
            let mut list = self.by_point[idx].write().unwrap();
            // Re-check under the write lock: two racing attaches of the
            // same name must not both land.
            if list.iter().any(|p| p.spec.name == probe.spec.name)
                || self.find_excluding(&probe.spec.name, idx).is_some()
            {
                return Err(format!("probe '{}' already attached", probe.spec.name));
            }
            list.push(probe);
        }
        self.generation.fetch_add(1, Ordering::Release);
        self.refresh_detail();
        if self.attached.fetch_add(1, Ordering::SeqCst) == 0 {
            odf_trace::set_probes_active(true);
        }
        Ok(())
    }

    /// Recomputes the context-detail mask: emit sites skip expensive
    /// context fields (the per-fault VMA lookup) unless some attached
    /// probe actually reads them — vma/order keyings, or any custom
    /// program (which may read anything).
    fn refresh_detail(&self) {
        let mut mask = 0u8;
        for lock in &self.by_point {
            for p in lock.read().unwrap().iter() {
                if p.prefab.is_none() || matches!(p.spec.key, Keying::Vma | Keying::Order) {
                    mask |= odf_trace::DETAIL_VMA;
                }
            }
        }
        odf_trace::set_probe_detail(mask);
    }

    fn find(&self, name: &str) -> Option<Arc<Probe>> {
        for lock in &self.by_point {
            if let Some(p) = lock.read().unwrap().iter().find(|p| p.spec.name == name) {
                return Some(Arc::clone(p));
            }
        }
        None
    }

    fn find_excluding(&self, name: &str, skip_idx: usize) -> Option<Arc<Probe>> {
        for (i, lock) in self.by_point.iter().enumerate() {
            if i == skip_idx {
                continue;
            }
            if let Some(p) = lock.read().unwrap().iter().find(|p| p.spec.name == name) {
                return Some(Arc::clone(p));
            }
        }
        None
    }

    /// Detaches one probe by name; its map is dropped with the last
    /// reference. Returns false when no such probe exists.
    pub fn detach(&self, name: &str) -> bool {
        // Merge this thread's pending hits first, then invalidate every
        // thread's cache: the calling thread releases its `Arc` (and the
        // probe's map) synchronously, other threads re-sync on their next
        // hit or at thread exit.
        self.flush_local();
        for lock in &self.by_point {
            let mut list = lock.write().unwrap();
            if let Some(i) = list.iter().position(|p| p.spec.name == name) {
                list.remove(i);
                drop(list);
                self.generation.fetch_add(1, Ordering::Release);
                self.refresh_detail();
                self.drop_local();
                if self.attached.fetch_sub(1, Ordering::SeqCst) == 1 {
                    odf_trace::set_probes_active(false);
                }
                return true;
            }
        }
        false
    }

    /// Detaches everything; returns how many probes were removed.
    pub fn detach_all(&self) -> usize {
        self.flush_local();
        let mut removed = 0;
        for lock in &self.by_point {
            let mut list = lock.write().unwrap();
            removed += list.len();
            list.clear();
        }
        self.generation.fetch_add(1, Ordering::Release);
        self.refresh_detail();
        self.drop_local();
        if removed > 0 && self.attached.fetch_sub(removed, Ordering::SeqCst) == removed {
            odf_trace::set_probes_active(false);
        }
        removed
    }

    /// Number of probes currently attached.
    pub fn attached_count(&self) -> usize {
        self.attached.load(Ordering::SeqCst)
    }

    /// Rendered spec of every attached probe plus its hit count, in
    /// attach-point order then attach order.
    pub fn list(&self) -> Vec<(String, u64)> {
        self.flush_local();
        let mut out = Vec::new();
        for lock in &self.by_point {
            for p in lock.read().unwrap().iter() {
                out.push((p.spec.render(), p.hits.load(Ordering::Relaxed)));
            }
        }
        out
    }

    /// Snapshot of one probe by name.
    pub fn read(&self, name: &str) -> Option<ProbeReport> {
        self.flush_local();
        self.find(name).map(|p| p.report())
    }

    /// Snapshot of every attached probe, in list order.
    pub fn read_all(&self) -> Vec<ProbeReport> {
        self.flush_local();
        let mut out = Vec::new();
        for lock in &self.by_point {
            for p in lock.read().unwrap().iter() {
                out.push(p.report());
            }
        }
        out
    }

    /// Merged p999 of a `lat_hist` probe (the SLO-watchdog accessor).
    pub fn probe_p999(&self, name: &str) -> Option<u64> {
        self.read(name).and_then(|r| r.merged_p999())
    }

    /// Clears every probe's map and counters (window reset — probes stay
    /// attached). Pending per-thread aggregates from before the reset are
    /// discarded, not merged: bumping the reset epoch makes every cache
    /// drop its data on next contact.
    pub fn reset_all(&self) {
        self.reset_epoch.fetch_add(1, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
        self.drop_local();
        for lock in &self.by_point {
            for p in lock.read().unwrap().iter() {
                p.map.clear();
                p.hits.store(0, Ordering::Relaxed);
                p.filtered_out.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Delivers a hit directly, bypassing the global active flag —
    /// deterministic injection for tests and the watchdog's self-checks.
    pub fn inject(&self, hit: &Hit) {
        self.dispatch(hit);
    }

    /// Merges the **calling thread's** pending aggregates into the shared
    /// maps. Every read-side entry point calls this, so a thread always
    /// sees its own hits; other threads' pending data merges when they
    /// next cross the flush threshold, detach, or exit (the per-CPU-map
    /// read model).
    pub fn flush_local(&self) {
        let _ = LOCAL.try_with(|cell| {
            if let Ok(mut state) = cell.try_borrow_mut() {
                state.flush(self);
            }
        });
    }

    /// Drops the calling thread's caches without merging (reset/detach).
    fn drop_local(&self) {
        let _ = LOCAL.try_with(|cell| {
            if let Ok(mut state) = cell.try_borrow_mut() {
                state.caches.clear();
                state.generation = 0;
                state.pending = 0;
            }
        });
    }

    /// The hot path. Hits fold into per-thread caches (the per-CPU BPF
    /// map analog): no locks, no shared cache lines, one linear scan over
    /// a handful of local slots. The shared sharded maps only see batched
    /// merges every [`FLUSH_PENDING`] hits, on read-side flushes, and at
    /// thread exit.
    fn dispatch(&self, hit: &Hit) {
        let cached = LOCAL
            .try_with(|cell| {
                cell.try_borrow_mut()
                    .ok()
                    .map(|mut state| state.record(self, hit))
            })
            .ok()
            .flatten();
        match cached {
            // Prefabs folded locally; no custom probes at this point.
            Some(false) => {}
            // Prefabs folded locally; custom programs need the slow path.
            Some(true) => self.dispatch_custom(hit),
            // TLS unavailable (thread teardown) or re-entrant: aggregate
            // straight into the shared maps.
            None => self.dispatch_direct(hit),
        }
    }

    fn dispatch_direct(&self, hit: &Hit) {
        let list = self.by_point[hit.point as usize].read().unwrap();
        for p in list.iter() {
            p.hit(hit);
        }
    }

    /// Slow path for [`ProbeEngine::attach_program`] attachments: their
    /// trait-object programs can't be replayed from a local slot, so they
    /// run under the shard locks on every hit.
    fn dispatch_custom(&self, hit: &Hit) {
        let list = self.by_point[hit.point as usize].read().unwrap();
        for p in list.iter().filter(|p| p.prefab.is_none()) {
            p.hit(hit);
        }
    }
}

impl ProbeSink for ProbeEngine {
    fn on_hit(&self, hit: &Hit) {
        self.dispatch(hit);
    }
}

/// Hits a thread folds locally before merging into the shared maps. Reads
/// from other threads can lag by at most this many hits per thread (plus
/// whatever the thread merges at exit) — the per-CPU BPF map trade.
const FLUSH_PENDING: u64 = 1024;

/// Per-probe bound on thread-local slots. A thread touching more keys than
/// this between flushes sends the excess straight to the shared map, which
/// enforces the probe's real cardinality bound.
const LOCAL_KEYS: usize = 32;

/// One key's thread-private accumulator.
struct LocalSlot {
    key: u64,
    slot: Slot,
}

/// One probe's thread-private aggregation state.
struct LocalCache {
    probe: Arc<Probe>,
    kind: ProgramKind,
    keying: Keying,
    hits: u64,
    filtered: u64,
    slots: Vec<LocalSlot>,
    /// Memoized index of the last slot hit — faults arrive in per-process
    /// runs, so the repeated-key case skips the scan entirely.
    last: usize,
}

impl LocalCache {
    /// Folds `hit`, whose `(latency, value)` samples are `sample`.
    #[inline]
    fn record(&mut self, hit: &Hit, sample: (u64, u64)) {
        if let Some(f) = &self.probe.filter {
            if !f(hit) {
                self.filtered += 1;
                return;
            }
        }
        self.hits += 1;
        let key = self.keying.key_of(hit);
        let idx = match self.slots.get(self.last) {
            Some(s) if s.key == key => self.last,
            _ => match self.slots.iter().position(|s| s.key == key) {
                Some(i) => i,
                None if self.slots.len() < LOCAL_KEYS => {
                    let slot = Slot::new(self.keying.label_of(hit));
                    self.slots.push(LocalSlot { key, slot });
                    self.slots.len() - 1
                }
                None => {
                    // Local bound exceeded: let the shared map (and its
                    // eviction policy) own this key.
                    let probe = &self.probe;
                    probe.map.update(
                        key,
                        || self.keying.label_of(hit),
                        |s| probe.program.update(s, hit),
                    );
                    return;
                }
            },
        };
        self.last = idx;
        self.kind
            .fold(&mut self.slots[idx].slot, sample.0, sample.1);
    }

    /// Merges everything accumulated here into the probe's shared state.
    fn merge_into_shared(&mut self) {
        if self.hits == 0 && self.filtered == 0 {
            return;
        }
        let probe = &self.probe;
        probe.hits.fetch_add(self.hits, Ordering::Relaxed);
        probe
            .filtered_out
            .fetch_add(self.filtered, Ordering::Relaxed);
        self.hits = 0;
        self.filtered = 0;
        self.last = 0;
        for LocalSlot { key, slot: local } in self.slots.drain(..) {
            probe.map.update(
                key,
                || local.label.clone(),
                |s| {
                    s.hits = s.hits.saturating_add(local.hits);
                    s.sum = s.sum.saturating_add(local.sum);
                    s.max = s.max.max(local.max);
                    if let Some(h) = &local.hist {
                        s.hist
                            .get_or_insert_with(|| Box::new(Histogram::new()))
                            .merge(h);
                    }
                },
            );
        }
    }
}

/// All of one thread's probe caches plus the engine state they mirror.
#[derive(Default)]
struct LocalState {
    /// Engine generation the caches were built against (0 = stale).
    generation: u64,
    /// Engine reset epoch at build time; a mismatch discards instead of
    /// merging.
    reset_epoch: u64,
    /// Caches grouped by attach point (same indexing as the engine).
    caches: Vec<Vec<LocalCache>>,
    /// Per point: whether any custom (non-prefab) probe is attached there,
    /// needing direct dispatch on top of the cached fold.
    custom: Vec<bool>,
    /// Hits since the last merge, across all caches.
    pending: u64,
}

impl LocalState {
    /// Folds one hit into the local caches; returns true when the attach
    /// point also carries custom probes the caller must dispatch directly.
    #[inline]
    fn record(&mut self, engine: &ProbeEngine, hit: &Hit) -> bool {
        let generation = engine.generation.load(Ordering::Acquire);
        if self.generation != generation {
            self.resync(engine, generation);
        }
        let idx = hit.point as usize;
        let point_caches = &mut self.caches[idx];
        if !point_caches.is_empty() {
            let sample = (hit.latency(), hit.value());
            for cache in point_caches.iter_mut() {
                cache.record(hit, sample);
            }
            self.pending += 1;
            if self.pending >= FLUSH_PENDING {
                self.merge_all();
            }
        }
        self.custom[idx]
    }

    /// Rebuilds the caches against the engine's current probe set, first
    /// merging (same reset epoch) or discarding (reset happened) pending
    /// data.
    fn resync(&mut self, engine: &ProbeEngine, generation: u64) {
        let epoch = engine.reset_epoch.load(Ordering::Acquire);
        if self.reset_epoch == epoch {
            self.merge_all();
        }
        self.caches.clear();
        self.caches.resize_with(engine.by_point.len(), Vec::new);
        self.custom.clear();
        self.custom.resize(engine.by_point.len(), false);
        for (idx, lock) in engine.by_point.iter().enumerate() {
            for p in lock.read().unwrap().iter() {
                // Custom programs (no prefab tag) can't be replayed from a
                // local slot, so they always take the direct path.
                let Some(kind) = p.prefab else {
                    self.custom[idx] = true;
                    continue;
                };
                self.caches[idx].push(LocalCache {
                    keying: p.spec.key,
                    kind,
                    probe: Arc::clone(p),
                    hits: 0,
                    filtered: 0,
                    slots: Vec::new(),
                    last: 0,
                });
            }
        }
        self.generation = generation;
        self.reset_epoch = epoch;
        self.pending = 0;
    }

    fn merge_all(&mut self) {
        for cache in self.caches.iter_mut().flatten() {
            cache.merge_into_shared();
        }
        self.pending = 0;
    }

    fn flush(&mut self, engine: &ProbeEngine) {
        let generation = engine.generation.load(Ordering::Acquire);
        if self.generation == generation {
            self.merge_all();
        } else if self.generation != 0 {
            // Probe set changed under us; resync merges or discards as the
            // reset epoch dictates and leaves fresh caches behind.
            self.resync(engine, generation);
        }
    }
}

impl Drop for LocalState {
    fn drop(&mut self) {
        // Thread exit: merge pending data unless a window reset made it
        // stale. `engine()` is safe here — the singleton outlives every
        // thread.
        if self.generation != 0 {
            let e = engine();
            if self.reset_epoch == e.reset_epoch.load(Ordering::Acquire) {
                self.merge_all();
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalState> = RefCell::new(LocalState::default());
}

/// Serialises this crate's map-creating unit tests: [`ShardedMap::live_maps`]
/// is process-global, so a test comparing it must not overlap another test
/// that creates or drops maps.
#[cfg(test)]
pub(crate) struct SerialMaps {
    _lock: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
pub(crate) fn serial_maps() -> SerialMaps {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SerialMaps {
        _lock: LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
    }
}

#[cfg(test)]
impl Drop for SerialMaps {
    fn drop(&mut self) {
        // This thread's caches hold `Arc`s to the probes it hit; drop them
        // now, while the lock is held, rather than at thread exit.
        let _ = LOCAL.try_with(|cell| cell.borrow_mut().caches.clear());
    }
}

/// Compiles a spec's declarative filter fields into one predicate, or
/// `None` when the spec filters nothing (skips the indirect call).
fn compile_filter(spec: &ProbeSpec) -> Option<Filter> {
    if spec.pid.is_none() && spec.kind.is_none() && spec.min_latency_ns.is_none() {
        return None;
    }
    let pid = spec.pid;
    let kind = spec.kind.clone();
    let minlat = spec.min_latency_ns;
    Some(Box::new(move |hit: &Hit| {
        if let Some(p) = pid {
            if hit.pid != p {
                return false;
            }
        }
        if let Some(k) = &kind {
            if hit.kind_label() != k {
                return false;
            }
        }
        if let Some(ns) = minlat {
            if hit.latency() < ns {
                return false;
            }
        }
        true
    }))
}

/// The process-wide engine singleton; registered as the trace probe sink
/// on first access.
pub fn engine() -> &'static ProbeEngine {
    static ENGINE: OnceLock<ProbeEngine> = OnceLock::new();
    let e = ENGINE.get_or_init(ProbeEngine::new);
    // Idempotent: first call registers, later calls are no-ops.
    odf_trace::register_probe_sink(e);
    e
}

/// Renders every probe report as one JSON object keyed by probe name (the
/// `PROBE READ` / `GET /probes` payload).
pub fn reports_json(reports: &[ProbeReport]) -> String {
    let parts: Vec<String> = reports
        .iter()
        .map(|r| format!("\"{}\":{}", json_escape(&r.spec.name), r.to_json()))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Adds every report's families to `e`. Per-probe series are labeled
/// `{probe, point}` and per-key series `{probe, key}`; `lat_hist` probes
/// additionally export per-key latency quantiles. Cardinality is bounded
/// by each probe's map bound, so the exposition cannot blow up.
pub fn export(e: &mut odf_trace::Exposition, reports: &[ProbeReport]) {
    for r in reports {
        let name = r.spec.name.as_str();
        let point = r.spec.point_label();
        e.counter(
            "odf_probe_hits_total",
            "Contexts that passed a probe's filter",
            &[("probe", name), ("point", point)],
            r.hits,
        );
        e.counter(
            "odf_probe_filtered_total",
            "Contexts rejected by a probe's filter",
            &[("probe", name), ("point", point)],
            r.filtered_out,
        );
        e.counter(
            "odf_probe_evicted_keys_total",
            "Map keys evicted to honor a probe's cardinality bound",
            &[("probe", name), ("point", point)],
            r.evicted_keys,
        );
        for k in &r.keys {
            match r.spec.program {
                ProgramKind::CountBy | ProgramKind::LatHist => e.counter(
                    "odf_probe_key_hits_total",
                    "Per-key hits aggregated by a probe",
                    &[("probe", name), ("key", &k.label)],
                    k.hits,
                ),
                ProgramKind::SumBy => e.counter(
                    "odf_probe_key_sum_total",
                    "Per-key sample sum aggregated by a probe",
                    &[("probe", name), ("key", &k.label)],
                    k.sum.min(u128::from(u64::MAX)) as u64,
                ),
                ProgramKind::Watermark => e.gauge(
                    "odf_probe_key_max",
                    "Per-key sample high watermark aggregated by a probe",
                    &[("probe", name), ("key", &k.label)],
                    k.max as f64,
                ),
            }
            if let Some(l) = &k.lat {
                for (q, v) in [("0.5", l.p50_ns), ("0.99", l.p99_ns), ("0.999", l.p999_ns)] {
                    e.gauge(
                        "odf_probe_latency_ns",
                        "Per-key latency quantiles aggregated by a lat_hist probe",
                        &[("probe", name), ("key", &k.label), ("quantile", q)],
                        v as f64,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(point: Point, pid: u64, latency_ns: u64) -> Hit {
        let vma = 0x1000 * (pid + 1);
        let mut hit = Hit::new(point, &[]).pid(pid).vma(vma, vma + 0x1000, 0);
        if let Some(i) = point.desc().latency {
            hit.w[i] = latency_ns;
        }
        hit
    }

    #[test]
    fn spec_parse_roundtrips_and_rejects_garbage() {
        let spec = ProbeSpec::parse(&[
            "p99watch",
            "fault",
            "lat_hist",
            "key=pid",
            "minlat=1000",
            "maxkeys=8",
        ])
        .unwrap();
        assert_eq!(spec.point, Point::Fault);
        assert_eq!(spec.program, ProgramKind::LatHist);
        assert_eq!(spec.key, Keying::Pid);
        assert_eq!(spec.min_latency_ns, Some(1000));
        assert_eq!(spec.max_keys, 8);
        assert_eq!(
            spec.render(),
            "p99watch fault lat_hist key=pid minlat=1000 maxkeys=8"
        );
        // Re-parsing the rendered form reproduces the spec.
        let rendered = spec.render();
        let tokens: Vec<&str> = rendered.split(' ').collect();
        let again = ProbeSpec::parse(&tokens).unwrap();
        assert_eq!(again.render(), spec.render());

        assert!(ProbeSpec::parse(&["x"]).is_err());
        assert!(ProbeSpec::parse(&["x", "nowhere", "count_by"]).is_err());
        assert!(ProbeSpec::parse(&["x", "fault", "noprog"]).is_err());
        assert!(ProbeSpec::parse(&["x", "fault", "count_by", "key=galaxy"]).is_err());
        assert!(ProbeSpec::parse(&["x", "fault", "count_by", "maxkeys=0"]).is_err());
        assert!(ProbeSpec::parse(&["x", "fault", "count_by", "bogus"]).is_err());
    }

    #[test]
    fn engine_attach_dispatch_read_detach() {
        let _serial = serial_maps();
        let e = ProbeEngine::new();
        let mut spec = ProbeSpec::new("faults_by_pid", Point::Fault, ProgramKind::LatHist);
        spec.key = Keying::Pid;
        e.attach(spec).unwrap();
        assert_eq!(e.attached_count(), 1);
        assert!(
            e.attach(ProbeSpec::new(
                "faults_by_pid",
                Point::ForkEnd,
                ProgramKind::CountBy
            ))
            .is_err(),
            "duplicate names must be rejected across points"
        );
        assert!(
            e.attach(ProbeSpec::new("tlb", Point::TlbFlush, ProgramKind::CountBy))
                .is_err(),
            "only probe points take probes"
        );

        for i in 0..100u64 {
            e.inject(&cx(Point::Fault, 1 + i % 2, 1000 + i));
        }
        // Wrong-point contexts never reach the probe.
        e.inject(&cx(Point::ForkEnd, 1, 1));

        let r = e.read("faults_by_pid").unwrap();
        assert_eq!(r.hits, 100);
        assert_eq!(r.keys.len(), 2);
        assert!(r.keys.iter().all(|k| k.hits == 50));
        assert!(r.keys.iter().all(|k| k.lat.as_ref().unwrap().count == 50));
        assert!(r.merged_p999().unwrap() >= 1000);
        let j = r.to_json();
        assert!(j.contains("\"name\":\"faults_by_pid\""));
        assert!(j.contains("\"p999_ns\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        assert!(e.detach("faults_by_pid"));
        assert!(!e.detach("faults_by_pid"));
        assert_eq!(e.attached_count(), 0);
        assert!(e.read("faults_by_pid").is_none());
    }

    #[test]
    fn filters_reject_and_count() {
        let _serial = serial_maps();
        let e = ProbeEngine::new();
        let spec = ProbeSpec::parse(&["slow", "fault", "count_by", "pid=7", "minlat=500"]).unwrap();
        e.attach(spec).unwrap();
        e.inject(&cx(Point::Fault, 7, 1000)); // passes
        e.inject(&cx(Point::Fault, 7, 100)); // too fast
        e.inject(&cx(Point::Fault, 8, 1000)); // wrong pid
        let r = e.read("slow").unwrap();
        assert_eq!(r.hits, 1);
        assert_eq!(r.filtered_out, 2);
    }

    #[test]
    fn kind_filter_uses_point_labels() {
        let _serial = serial_maps();
        let e = ProbeEngine::new();
        let spec = ProbeSpec::parse(&["cowonly", "fault", "count_by", "kind=cow_data"]).unwrap();
        e.attach(spec).unwrap();
        let mut hit = cx(Point::Fault, 1, 0);
        let cow = odf_trace::FaultKind::CowData.as_u8();
        hit.kind = cow;
        e.inject(&hit);
        let mut miss = cx(Point::Fault, 1, 0);
        miss.kind = cow.wrapping_add(1);
        e.inject(&miss);
        let r = e.read("cowonly").unwrap();
        assert_eq!((r.hits, r.filtered_out), (1, 1));
    }

    #[test]
    fn detach_all_flips_active_off_and_drops_maps() {
        let _serial = serial_maps();
        let live_before = ShardedMap::live_maps();
        let e = ProbeEngine::new();
        for (i, point) in [Point::Fault, Point::ForkEnd, Point::Evicted]
            .into_iter()
            .enumerate()
        {
            e.attach(ProbeSpec::new(
                &format!("p{i}"),
                point,
                ProgramKind::CountBy,
            ))
            .unwrap();
        }
        assert_eq!(ShardedMap::live_maps(), live_before + 3);
        assert_eq!(e.detach_all(), 3);
        assert_eq!(e.attached_count(), 0);
        assert_eq!(
            ShardedMap::live_maps(),
            live_before,
            "detach_all leaked map shards"
        );
    }

    #[test]
    fn reset_all_clears_aggregates_but_keeps_probes() {
        let _serial = serial_maps();
        let e = ProbeEngine::new();
        let mut spec = ProbeSpec::new("w", Point::Evicted, ProgramKind::Watermark);
        spec.key = Keying::Order;
        e.attach(spec).unwrap();
        let mut c = cx(Point::Evicted, 1, 0);
        c.w[1] = 99; // the evicted page's swap slot: its value
        e.inject(&c);
        assert_eq!(e.read("w").unwrap().keys[0].max, 99);
        e.reset_all();
        let r = e.read("w").unwrap();
        assert_eq!(r.hits, 0);
        assert!(r.keys.is_empty());
        assert_eq!(e.attached_count(), 1);
    }

    #[test]
    fn prometheus_export_is_well_formed() {
        let _serial = serial_maps();
        let e = ProbeEngine::new();
        let mut spec = ProbeSpec::new("lh", Point::Fault, ProgramKind::LatHist);
        spec.key = Keying::Pid;
        e.attach(spec).unwrap();
        e.attach(ProbeSpec::new("sb", Point::Evicted, ProgramKind::SumBy))
            .unwrap();
        e.inject(&cx(Point::Fault, 3, 777));
        let mut c = cx(Point::Evicted, 3, 0);
        c.w[1] = 10;
        e.inject(&c);
        let mut x = odf_trace::Exposition::new();
        export(&mut x, &e.read_all());
        let text = x.prometheus();
        assert!(text.contains("odf_probe_hits_total{probe=\"lh\",point=\"fault\"} 1"));
        assert!(text.contains("odf_probe_key_hits_total{probe=\"lh\",key=\"pid 3\"} 1"));
        assert!(
            text.contains("odf_probe_latency_ns{probe=\"lh\",key=\"pid 3\",quantile=\"0.999\"}")
        );
        assert!(text.contains("odf_probe_key_sum_total{probe=\"sb\",key=\"all\"} 10"));
        let json = reports_json(&e.read_all());
        assert!(json.contains("\"lh\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
