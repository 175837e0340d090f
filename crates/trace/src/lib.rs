//! Kernel-tracepoint-style instrumentation for the on-demand-fork stack.
//!
//! Linux decomposes mm behaviour with *tracepoints*: one hook per site that
//! perf counters, ftrace rings and BPF programs all consume. This crate is
//! that layer for the simulator. Every instrumented site makes one call
//! with one record, a [`Hit`] ([`emit`], or [`emit_counted`] when the
//! site's stats block counts the point), and three sinks fold it:
//!
//! - the owning stats block's [`Counter`] (always on; per-machine, so
//!   concurrent machines never mix);
//! - the trace ring: **per-thread bounded ring buffers** that never block
//!   the producer, drop the *oldest* record on overflow (counted, ftrace's
//!   `overrun`), and gate each point behind a per-class switch
//!   ([`EventClass`], ftrace's per-event `enable` files);
//! - the probe engine (crate `odf-probe`), through the registered
//!   [`ProbeSink`].
//!
//! With the ring and probes both off a site costs one relaxed load: both
//! switches live in one state word. What each point's payload means, and
//! how the ring, the chrome dump, the summary and the probes render it, is
//! one table ([`Point::desc`]).
//!
//! A [`snapshot`] collects every thread's live records into a [`Trace`],
//! which can be summarised into per-point latency histograms
//! ([`Trace::summary`]), rendered as a chrome://tracing-compatible JSON dump
//! ([`Trace::chrome_json`]), or filtered to the history of a single physical
//! frame ([`Trace::for_frame`]) for post-mortem leak debugging.
//!
//! # Ring-buffer design
//!
//! Each thread owns one ring (created on first emit, registered globally).
//! Only the owning thread writes; any thread may read concurrently. Every
//! slot is a tiny seqlock: the writer publishes `seq = 2*index + 1` (odd =
//! in flight), stores the payload into plain `AtomicU64` words, then
//! publishes `seq = 2*index + 2`. A reader accepts a slot only when it
//! observes the same even sequence before and after copying the payload, so
//! torn records are detected and skipped, never surfaced. Because the crate
//! is `#![forbid(unsafe_code)]`, the payload words are atomics rather than a
//! raw byte area — a torn *logical* record is detectable, and no read is
//! ever undefined behaviour.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;
mod point;
mod summary;

pub use export::{json_escape, Exposition, Family, MetricKind};
pub use point::{Desc, Dist, Hit, Point};
pub use summary::TraceSummary;

/// Fork policy tag carried by fork hits.
///
/// Mirrors `odf_vm::ForkPolicy` without depending on it (the vm crate
/// depends on this one, not vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ForkPolicyKind {
    /// Eager PTE-copying fork (`fork()`).
    Classic,
    /// Last-level page-table sharing fork (`odfork()`).
    OnDemand,
    /// On-demand fork extended with PMD-table sharing for huge pages.
    OnDemandHuge,
}

impl ForkPolicyKind {
    const ALL: [Self; 3] = [Self::Classic, Self::OnDemand, Self::OnDemandHuge];

    /// Decodes the stable wire discriminant (the [`Hit::kind`] of fork
    /// hits).
    pub fn from_u8(v: u8) -> Self {
        Self::ALL
            .get(usize::from(v))
            .copied()
            .unwrap_or(Self::Classic)
    }

    /// Stable wire discriminant (inverse of [`ForkPolicyKind::from_u8`]).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        ["classic", "odf", "odf_huge"][self as usize]
    }
}

/// What work a page fault performed — the per-fault classification the
/// paper's Table 7 breaks latency down by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultKind {
    /// Demand-paged a zero page (not-present, 4 KiB).
    DemandZero,
    /// Demand-paged a 2 MiB huge page.
    DemandHuge,
    /// Copied a 4 KiB page on write (COW break).
    CowData,
    /// Reused an exclusively owned page instead of copying.
    CowReuse,
    /// Copied a 2 MiB huge page on write.
    CowHuge,
    /// Copied a shared last-level page table (the deferred fork work).
    TableCow,
    /// Copied a shared PMD table (huge-page extension).
    PmdTableCow,
    /// The fault found the translation already established (a sibling
    /// thread won the race); no work was done.
    Spurious,
    /// Read an evicted page back from a swap slot (major fault analog).
    SwapIn,
}

impl FaultKind {
    /// Every kind, for exhaustive summaries.
    pub const ALL: [FaultKind; 9] = [
        Self::DemandZero,
        Self::DemandHuge,
        Self::CowData,
        Self::CowReuse,
        Self::CowHuge,
        Self::TableCow,
        Self::PmdTableCow,
        Self::Spurious,
        Self::SwapIn,
    ];

    /// Decodes the stable wire discriminant (the [`Hit::kind`] of fault
    /// hits).
    pub fn from_u8(v: u8) -> Self {
        Self::ALL
            .get(usize::from(v))
            .copied()
            .unwrap_or(Self::Spurious)
    }

    /// Stable wire discriminant (inverse of [`FaultKind::from_u8`]).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        [
            "demand_zero",
            "demand_huge",
            "cow_data",
            "cow_reuse",
            "cow_huge",
            "table_cow",
            "pmd_table_cow",
            "spurious",
            "swap_in",
        ][self as usize]
    }
}

/// Which CAS install / ownership handoff lost a race and retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LockSite {
    /// PTE-level entry install.
    PteInstall,
    /// PMD-level entry install (huge page or table pointer).
    PmdInstall,
    /// PUD-level entry install.
    PudInstall,
    /// Shared last-level table ownership transition.
    TableOwnership,
    /// Shared PMD table ownership transition.
    PmdOwnership,
}

impl LockSite {
    const ALL: [Self; 5] = [
        Self::PteInstall,
        Self::PmdInstall,
        Self::PudInstall,
        Self::TableOwnership,
        Self::PmdOwnership,
    ];

    /// Decodes the stable wire discriminant (the [`Hit::kind`] of
    /// `lock_retry` hits).
    pub fn from_u8(v: u8) -> Self {
        Self::ALL
            .get(usize::from(v))
            .copied()
            .unwrap_or(Self::PmdOwnership)
    }

    /// Stable wire discriminant (inverse of [`LockSite::from_u8`]).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        [
            "pte_install",
            "pmd_install",
            "pud_install",
            "table_ownership",
            "pmd_ownership",
        ][self as usize]
    }
}

/// One collected record: a [`Hit`] as the ring keeps it (payload words
/// 0–2 and the kind; no attribution fields) plus when and where it
/// happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Small sequential id of the emitting thread.
    pub thread: u32,
    /// The record.
    pub hit: Hit,
}

// ---------------------------------------------------------------------------
// Per-thread seqlock ring
// ---------------------------------------------------------------------------

/// Words per slot: seq, ts, meta (point|kind|thread), and payload words
/// 0–2.
const SLOT_WORDS: usize = 6;

/// Default per-thread capacity in records (24 KiB per ring). Sized for the
/// fault path's overhead budget, not for depth: a streaming COW or swap-in
/// workload cycles the whole ring, so ring footprint is cache pollution
/// charged to every fault — measured on the fault microbenchmarks, 48 KiB
/// costs ~1.5 points of overhead less than 190 KiB, and 24 KiB keeps the
/// ring L1-resident next to the working set (two records per major fault
/// would cycle a 48 KiB ring through L1 every few hundred faults). Deep
/// captures should raise `ODF_TRACE_CAPACITY` instead.
const DEFAULT_CAPACITY: usize = 512;

struct Ring {
    /// Flat `capacity * SLOT_WORDS` atomics; slot `i` starts at
    /// `i * SLOT_WORDS`.
    words: Vec<AtomicU64>,
    capacity: usize,
    /// Monotone count of records ever written by the owner thread.
    head: AtomicU64,
    /// Records below this logical index are invisible to readers
    /// (advanced by [`clear`]).
    floor: AtomicU64,
    /// Timestamp of the owner thread's most recent record, reused by hot
    /// points ([`Desc::hot`]) to keep sub-events off the clock.
    last_ts: AtomicU64,
    /// Small sequential id of the owning thread.
    thread: u32,
}

impl Ring {
    fn new(capacity: usize, thread: u32) -> Self {
        // Power-of-two capacity lets the push path index with a mask; a
        // `%` by a runtime divisor is an integer division on the hottest
        // store sequence in the crate.
        let capacity = capacity.next_power_of_two();
        let mut words = Vec::with_capacity(capacity * SLOT_WORDS);
        words.resize_with(capacity * SLOT_WORDS, || AtomicU64::new(0));
        Ring {
            words,
            capacity,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            last_ts: AtomicU64::new(0),
            thread,
        }
    }

    /// Records lost to drop-oldest overwrites. Derived rather than
    /// counted: every push past `capacity` overwrites exactly one record,
    /// so the count is `head - capacity` — keeping an explicit counter
    /// would put an atomic read-modify-write on the hot path for a value
    /// the ring geometry already knows.
    fn dropped(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(self.capacity as u64)
    }

    /// Writer side (owning thread only): claim the next slot, mark it
    /// in-flight (odd seq), store the payload, publish (even seq). The
    /// timestamp is the hit's own, else the thread's last one for a hot
    /// point, else now.
    fn push(&self, hit: &Hit) {
        let ts = match hit.at {
            Some(ts) => ts,
            None if hit.desc().hot => self.last_ts.load(Ordering::Relaxed),
            None => now_ns(),
        };
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize & (self.capacity - 1)) * SLOT_WORDS;
        let meta = u64::from(hit.point as u8)
            | (u64::from(hit.kind) << 8)
            | (u64::from(self.thread) << 32);
        self.words[base].store(2 * h + 1, Ordering::Release);
        self.words[base + 1].store(ts, Ordering::Release);
        self.words[base + 2].store(meta, Ordering::Release);
        for (i, &w) in hit.w[..3].iter().enumerate() {
            self.words[base + 3 + i].store(w, Ordering::Release);
        }
        self.words[base].store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
        self.last_ts.store(ts, Ordering::Relaxed);
    }

    /// Reader side (any thread): collect every record that is still intact.
    /// A record being overwritten concurrently fails its sequence check and
    /// is skipped — it was the oldest, so losing it is the drop policy, not
    /// corruption.
    fn collect(&self, out: &mut Vec<TraceRecord>) {
        let head = self.head.load(Ordering::Acquire);
        let floor = self.floor.load(Ordering::Acquire);
        let live = head.min(self.capacity as u64);
        let start = (head - live).max(floor);
        for idx in start..head {
            let base = (idx as usize & (self.capacity - 1)) * SLOT_WORDS;
            let want = 2 * idx + 2;
            if self.words[base].load(Ordering::Acquire) != want {
                continue;
            }
            let slot: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| self.words[base + i].load(Ordering::Acquire));
            if self.words[base].load(Ordering::Acquire) != want {
                continue; // torn: overwritten mid-read
            }
            let [_, ts, meta, a, b, c] = slot;
            // An unknown point is a record from a newer producer.
            let Some(&point) = Point::ALL.get((meta & 0xFF) as usize) else {
                continue;
            };
            out.push(TraceRecord {
                ts_ns: ts,
                thread: (meta >> 32) as u32,
                hit: Hit::new(point, &[a, b, c]).kind((meta >> 8) as u8),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Global state: one state word, epoch, registry
// ---------------------------------------------------------------------------

/// State-word bit: the trace ring records.
const RING: u32 = 1;
/// State-word bit: at least one probe is attached.
const PROBES: u32 = 2;
/// State-word bit: `ODF_TRACE` has not been read yet; the first check
/// resolves it, exactly once.
const UNRESOLVED: u32 = 4;
/// The probe detail mask ([`set_probe_detail`]) lives above this shift.
const DETAIL_SHIFT: u32 = 8;

/// Both sink switches and the probe detail mask, so a site with every sink
/// off pays one relaxed load.
static STATE: AtomicU32 = AtomicU32::new(UNRESOLVED);

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use): the clock
/// of ring timestamps and span latencies.
#[inline]
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Reads `ODF_TRACE` into the state word (a concurrent [`set_enabled`]
/// wins) and returns the resolved state.
#[cold]
fn resolve_env() -> u32 {
    let on = std::env::var("ODF_TRACE").is_ok_and(|v| v != "0" && !v.is_empty());
    let ring = if on { RING } else { 0 };
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        (s & UNRESOLVED != 0).then_some((s & !UNRESOLVED) | ring)
    });
    STATE.load(Ordering::Relaxed)
}

/// The state word, `ODF_TRACE` resolved.
#[inline]
fn state() -> u32 {
    let s = STATE.load(Ordering::Relaxed);
    if s & UNRESOLVED != 0 {
        resolve_env()
    } else {
        s
    }
}

/// Is tracing on? One relaxed atomic load on the hot path.
#[inline]
pub fn enabled() -> bool {
    state() & RING != 0
}

/// Turns tracing on or off at runtime (overrides `ODF_TRACE`).
pub fn set_enabled(on: bool) {
    let ring = if on { RING } else { 0 };
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some((s & !(UNRESOLVED | RING)) | ring)
    });
}

/// Freezes the rings for a flight-recorder capture: tracing is switched
/// off so the drop-oldest writers stop overwriting history, and the prior
/// state is returned for [`thaw`]. The rings themselves keep their
/// records — [`snapshot`] after a freeze reads the exact tail that was
/// live at the moment of the anomaly.
pub fn freeze() -> bool {
    let was_on = enabled();
    STATE.fetch_and(!RING, Ordering::Relaxed);
    was_on
}

/// Undoes a [`freeze`], restoring the enable state it returned.
pub fn thaw(was_on: bool) {
    if was_on {
        STATE.fetch_or(RING, Ordering::Relaxed);
    }
}

/// Turns probe dispatch on or off. The engine flips this on the 0 ↔ >0
/// attached-probe transitions so detached steady state costs nothing
/// beyond the state load.
pub fn set_probes_active(on: bool) {
    if on {
        STATE.fetch_or(PROBES, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!PROBES, Ordering::Relaxed);
    }
}

/// Context-detail bit: some attached probe reads the VMA-derived fields
/// (`vma`/`order`), so the fault site must pay the VMA lookup.
pub const DETAIL_VMA: u8 = 1;

/// Replaces the context-detail mask — the eBPF "programs declare their
/// field accesses" idea: the engine recomputes it on every attach and
/// detach, and sites on sub-microsecond paths check the relevant bit
/// before computing an expensive field.
pub fn set_probe_detail(mask: u8) {
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some((s & ((1 << DETAIL_SHIFT) - 1)) | (u32::from(mask) << DETAIL_SHIFT))
    });
}

/// Does any attached probe need the detail behind `bit`?
#[inline]
pub fn probe_detail(bit: u8) -> bool {
    STATE.load(Ordering::Relaxed) & (u32::from(bit) << DETAIL_SHIFT) != 0
}

/// Starts timing a span: `Some(now)` when the ring or a probe listens,
/// else `None` and no clock read. [`Hit::span`] ends it.
#[inline]
pub fn start() -> Option<u64> {
    (state() & (RING | PROBES) != 0).then(now_ns)
}

/// [`start`] for the fault path: with only probes listening, the clock is
/// read for one fault in [`PROBE_CLOCK_PERIOD`] — the two monotonic reads
/// would otherwise dominate the probe budget on this sub-microsecond path
/// — and the rest go unmeasured (latency 0).
#[inline]
pub fn start_sampled() -> Option<u64> {
    let s = state();
    (s & RING != 0 || (s & PROBES != 0 && probe_clock_sample())).then(now_ns)
}

/// How often [`start_sampled`] arms the latency clock: every Nth fault per
/// thread. `lat_hist` treats `latency == 0` as "hit without measurement":
/// counts stay exact while the latency distribution is built from the
/// deterministic 1-in-N subset.
pub const PROBE_CLOCK_PERIOD: u64 = 16;

thread_local! {
    static PROBE_CLOCK_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Round-robin clock arming: true on every [`PROBE_CLOCK_PERIOD`]th call
/// per thread. Per-thread and deterministic — no RNG, so seeded runs stay
/// reproducible.
#[inline]
fn probe_clock_sample() -> bool {
    PROBE_CLOCK_TICK
        .try_with(|c| {
            let v = c.get().wrapping_add(1);
            c.set(v);
            v % PROBE_CLOCK_PERIOD == 0
        })
        .unwrap_or(false)
}

/// Event classes that can be switched individually while tracing is on —
/// ftrace's per-event `enable` files next to the master `tracing_on`. Each
/// point's class is its [`Desc::gate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// `ForkStart` / `ForkEnd`.
    Fork,
    /// `Fault`.
    Fault,
    /// `CowCopy` (compound copies).
    CowCopy,
    /// `TlbFlush`.
    TlbFlush,
    /// `LockRetry`.
    LockRetry,
    /// Direct reclaim, the scanner's per-decision points
    /// (`ReclaimScanStart` / `Evicted` / `SwappedIn`) and the daemon's
    /// `ReclaimPass` / `ReclaimBackoff`.
    Reclaim,
    /// `FrameAlloc` / `FrameFree` plus the batched allocator transfers
    /// (`MagRefill` / `MagDrain` / `BulkFree`) — **off by default**, like
    /// the kernel's `kmem:mm_page_alloc`/`free` events: every COW fault
    /// allocates a frame, so per-frame records double the fault path's
    /// record volume (and its tracing overhead) while the latency story is
    /// already told by the `Fault` record. Enable for per-frame leak
    /// post-mortems ([`Trace::for_frame`], `assert_pool_balanced` dumps).
    Kmem,
    /// The huge-page lifecycle (`CollapseStart` / `CollapseEnd` / `Demote`
    /// / `CompactScan` / `ThpPass` / `ThpBackoff`) — the khugepaged
    /// tracepoints. On by default: daemon cadence, never per fault.
    Thp,
    /// `WalFsync` / `SnapshotPublish` / `RecoveryReplay`. On by default:
    /// group-commit / bgsave cadence, never per fault.
    Durability,
}

impl EventClass {
    /// Mask bits of the member points (bit = point discriminant), worked
    /// out from the point table at compile time.
    const fn bits(self) -> u64 {
        const BITS: [u64; 9] = {
            let mut bits = [0; 9];
            let mut i = 0;
            while i < point::TABLE.len() {
                bits[point::TABLE[i].gate as usize] |= 1 << i;
                i += 1;
            }
            bits
        };
        BITS[self as usize]
    }
}

/// Everything on except the high-volume kmem (frame alloc/free) class.
const DEFAULT_CLASS_MASK: u64 = !EventClass::Kmem.bits();

static CLASS_MASK: AtomicU64 = AtomicU64::new(DEFAULT_CLASS_MASK);

/// Switches one event class on or off (tracing itself must also be on for
/// records to land — [`set_enabled`] is the master switch).
pub fn set_class_enabled(class: EventClass, on: bool) {
    if on {
        CLASS_MASK.fetch_or(class.bits(), Ordering::Relaxed);
    } else {
        CLASS_MASK.fetch_and(!class.bits(), Ordering::Relaxed);
    }
}

/// Is every point in `class` currently recorded (given tracing is on)?
pub fn class_enabled(class: EventClass) -> bool {
    CLASS_MASK.load(Ordering::Relaxed) & class.bits() == class.bits()
}

fn capacity_from_env() -> usize {
    std::env::var("ODF_TRACE_CAPACITY")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAPACITY)
}

thread_local! {
    static THREAD_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new(
            capacity_from_env(),
            NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        ));
        registry().lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Hands `hit` to every sink that is on: the calling thread's ring (when
/// tracing and the point's class are on) and the probe engine (when a
/// probe is attached and the point is a probe point).
///
/// With both off this is one relaxed load and a branch; when on it never
/// blocks (drop-oldest on overflow) and never allocates after the
/// thread's first record.
#[inline]
pub fn emit(hit: Hit) {
    if STATE.load(Ordering::Relaxed) & (RING | PROBES | UNRESOLVED) != 0 {
        emit_slow(&hit);
    }
}

/// [`emit`], and one on `count`: the owning stats block's tally of this
/// point. The counter is the always-on sink, so it takes the hit whether
/// or not the ring and probes listen.
#[inline]
pub fn emit_counted(count: &Counter, hit: Hit) {
    count.bump();
    emit(hit);
}

#[inline(never)]
fn emit_slow(hit: &Hit) {
    let s = state();
    if s & RING != 0 && CLASS_MASK.load(Ordering::Relaxed) & (1 << hit.point as u8) != 0 {
        THREAD_RING.with(|ring| ring.push(hit));
    }
    if s & PROBES != 0 && hit.desc().probe.is_some() {
        if let Some(sink) = probe_sink_cell().get() {
            sink.on_hit(hit);
        }
    }
}

/// Total records lost to drop-oldest overwrites across all rings.
pub fn dropped_events() -> u64 {
    registry().lock().unwrap().iter().map(|r| r.dropped()).sum()
}

/// Hides all currently-recorded records from future snapshots (the rings
/// themselves are reused). Dropped-record counters are not reset.
pub fn clear() {
    for ring in registry().lock().unwrap().iter() {
        ring.floor
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
    }
}

/// Collects every live record from every thread's ring, sorted by
/// timestamp, together with the global drop count.
pub fn snapshot() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in registry().lock().unwrap().iter() {
        ring.collect(&mut events);
        dropped += ring.dropped();
    }
    events.sort_by_key(|r| r.ts_ns);
    Trace { events, dropped }
}

/// A collected set of trace records (the output of [`snapshot`]).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Records sorted by timestamp.
    pub events: Vec<TraceRecord>,
    /// Records lost to ring overwrites before collection.
    pub dropped: u64,
}

impl Trace {
    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no records were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last `n` records that reference physical frame `frame`
    /// (COW copies, allocations, frees), oldest first.
    pub fn for_frame(&self, frame: u64, n: usize) -> Vec<TraceRecord> {
        let mut hits: Vec<TraceRecord> = self
            .events
            .iter()
            .filter(|r| r.hit.frame() == Some(frame))
            .copied()
            .collect();
        if hits.len() > n {
            hits.drain(..hits.len() - n);
        }
        hits
    }

    /// Builds per-point latency/size histograms (p50/p99/p999).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::build(self)
    }

    /// Renders the trace in the chrome://tracing JSON array format
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Records of a point with a latency word become complete (`"ph":"X"`)
    /// events spanning their latency; everything else becomes an instant
    /// (`"ph":"i"`) event.
    pub fn chrome_json(&self) -> String {
        export::chrome_json(self)
    }
}

/// Receives every probe-point [`Hit`] while probes are active. Implemented
/// by the probe engine (crate `odf-probe`); registered once per process.
pub trait ProbeSink: Send + Sync {
    /// One hit, delivered synchronously on the emitting thread.
    fn on_hit(&self, hit: &Hit);
}

fn probe_sink_cell() -> &'static OnceLock<&'static dyn ProbeSink> {
    static SINK: OnceLock<&'static dyn ProbeSink> = OnceLock::new();
    &SINK
}

/// Registers the process-wide probe sink. The first registration wins
/// (returns `true`); later calls are ignored (`false`).
pub fn register_probe_sink(sink: &'static dyn ProbeSink) -> bool {
    probe_sink_cell().set(sink).is_ok()
}

/// Stripes per [`Counter`]. Sized like a small machine's CPU count: more
/// stripes than concurrently counting threads costs only idle memory,
/// fewer puts two hot threads on one cache line.
const COUNTER_STRIPES: usize = 16;

/// Round-robin stripe assignment, claimed once per thread. Deliberately
/// separate from the trace ring's thread ids: counters are bumped on
/// paths where tracing may be compiled out or masked.
static NEXT_STRIPE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static MY_STRIPE: usize =
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) as usize % COUNTER_STRIPES;
}

/// One cache line per stripe so neighbouring stripes never false-share.
#[repr(align(64))]
#[derive(Default)]
struct CounterStripe(AtomicU64);

/// A striped statistics counter — the user-space analog of the kernel's
/// per-CPU `vmstat` counters.
///
/// Hot paths bump statistics on every allocation, free, fault, and
/// refcount operation; a single shared `AtomicU64` would put a
/// lock-prefixed RMW (and, on real SMP, a bouncing cache line) on each.
/// Like `this_cpu_inc()`, an update here touches only the calling
/// thread's own stripe, and does so with a plain load/store pair instead
/// of an atomic RMW; [`Counter::get`] folds the stripes at read time.
///
/// The tolerance is also vmstat's: per-thread updates are exact, reads
/// are exact whenever each stripe has a single writer (threads are
/// assigned stripes round-robin, so this holds up to
/// `COUNTER_STRIPES` concurrent threads), and an update can be lost only
/// when two threads *sharing a stripe* race the same counter. These are
/// diagnostics, not synchronization — the frame accounting that
/// correctness tests assert on lives in the allocator, not here.
pub struct Counter {
    stripes: [CounterStripe; COUNTER_STRIPES],
}

impl Default for Counter {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| CounterStripe::default()),
        }
    }
}

impl Counter {
    /// Adds `n` to the calling thread's stripe.
    pub fn add(&self, n: u64) {
        let cell = MY_STRIPE.with(|s| &self.stripes[*s].0);
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Increments the calling thread's stripe by one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Folds all stripes into the counter's current value.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// Zeroes every stripe — the destructive half of snapshot-and-reset
    /// windowed reads. Same tolerance as [`Counter::add`]: an increment
    /// racing the reset on the same stripe may survive or be lost; these
    /// are diagnostics, and window boundaries are advisory.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Generates a set of relaxed `AtomicU64` counters plus its snapshot type
/// from a single field list, so adding a counter is a one-line change and a
/// forgotten field is *impossible* rather than a silent zero:
///
/// - the live struct ([`Counter`] per field, `Default`),
/// - `snapshot()` folding every field,
/// - a plain-`u64` snapshot struct with `saturating_sub`-based `Sub`
///   (snapshots taken across a reset difference to zero instead of
///   panicking in debug builds), and
/// - `fields()` returning `(name, value)` pairs in declaration order,
///   which exporters iterate so new counters surface automatically.
///
/// ```
/// odf_trace::counters! {
///     /// Demo counters.
///     pub struct Demo / DemoSnapshot {
///         /// Things seen.
///         seen,
///         /// Things dropped.
///         dropped,
///     }
/// }
/// let d = Demo::default();
/// d.seen.add(3);
/// let a = d.snapshot();
/// let b = d.snapshot() - a;
/// assert_eq!(b.seen, 0);
/// assert_eq!(a.fields()[0], ("seen", 3));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$struct_meta:meta])*
        $vis:vis struct $name:ident / $snap:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident
            ),+ $(,)?
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Default)]
        $vis struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $crate::Counter,
            )+
        }

        impl $name {
            /// Takes a point-in-time copy of all counters.
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($field: self.$field.get(),)+
                }
            }

            /// Snapshot-and-reset: returns the current values and zeroes
            /// every counter, starting a fresh measurement window.
            pub fn take(&self) -> $snap {
                let snap = self.snapshot();
                $(self.$field.reset();)+
                snap
            }
        }

        /// A point-in-time copy of the counters supporting phase isolation
        /// via (saturating) subtraction.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        $vis struct $snap {
            $(pub $field: u64,)+
        }

        impl $snap {
            /// Number of counters in the set.
            pub const FIELD_COUNT: usize =
                [$(stringify!($field)),+].len();

            /// Every counter as a `(name, value)` pair, in declaration
            /// order. Exporters iterate this, so a newly added counter is
            /// exported without touching any exporter.
            pub fn fields(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![
                    $((stringify!($field), self.$field),)+
                ]
            }
        }

        impl ::std::ops::Sub for $snap {
            type Output = $snap;

            /// Field-wise difference. Saturating: a snapshot pair that
            /// straddles a counter reset yields zeros, not a debug-build
            /// underflow panic.
            fn sub(self, rhs: $snap) -> $snap {
                $snap {
                    $($field: self.$field.saturating_sub(rhs.$field),)+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(kind: FaultKind, latency_ns: u64) -> Hit {
        Hit::new(Point::Fault, &[0, 0x1000, latency_ns]).kind(kind.as_u8())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        set_enabled(false);
        clear();
        emit(Hit::new(Point::TlbFlush, &[]));
        assert!(snapshot().is_empty() || !enabled());
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let ring = Ring::new(64, 0);
        for (i, point) in Point::ALL.into_iter().enumerate() {
            let i = i as u64;
            let hit = Hit::new(point, &[i, 2 * i, 3 * i, 4 * i])
                .kind(i as u8)
                .pid(9);
            ring.push(&hit.at(i));
        }
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert_eq!(out.len(), Point::ALL.len());
        for (i, r) in out.iter().enumerate() {
            let i = i as u64;
            // The ring keeps the point, the kind and words 0-2.
            let want = Hit::new(Point::ALL[i as usize], &[i, 2 * i, 3 * i]).kind(i as u8);
            assert_eq!((r.ts_ns, r.hit), (i, want));
        }
    }

    #[test]
    fn table_rows_follow_point_order_and_name_their_roles() {
        let classes: Vec<&str> = Point::ALL.iter().map(|p| p.desc().class).collect();
        assert_eq!(&classes[..3], ["fault", "fork_end", "lock_retry"]);
        assert_eq!(classes.last(), Some(&"thp_backoff"));
        let mut unique = classes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), classes.len(), "one class per point");
        // Probe points come first, so the engine lists them in order.
        let probes: Vec<&str> = Point::probe_labels().collect();
        assert_eq!(
            probes,
            [
                "fault",
                "fork",
                "lock_retry",
                "evict",
                "collapse",
                "demote",
                "wal_commit",
                "reclaim_pass",
                "thp_pass",
                "bulk_free"
            ]
        );
        assert!(Point::ALL[..10].iter().all(|p| p.desc().probe.is_some()));
        assert_eq!(Point::from_probe_label("evict"), Some(Point::Evicted));
        assert_eq!(Point::from_probe_label("evicted"), None);
        let evict = Hit::new(Point::Evicted, &[99, 5, 1234]);
        assert_eq!(
            (evict.frame(), evict.value(), evict.aux(), evict.latency()),
            (Some(99), 5, 99, 1234)
        );
        let wal = Hit::new(Point::WalFsync, &[4096, 17, 30, 4242]);
        assert_eq!((wal.value(), wal.aux(), wal.latency()), (17, 4242, 30));
        let f = fault(FaultKind::TableCow, 5).pid(3);
        assert_eq!((f.addr(), f.retries(), f.value()), (0x1000, 0, 0));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = Ring::new(4, 0);
        for i in 0..10u64 {
            ring.push(&Hit::new(Point::Reclaim, &[i]).at(i));
        }
        assert_eq!(ring.dropped(), 6);
        let mut out = Vec::new();
        ring.collect(&mut out);
        // Only the newest four survive, in order.
        let freed: Vec<u64> = out.iter().map(|r| r.hit.w[0]).collect();
        assert_eq!(freed, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_writer_reader_never_sees_torn_records() {
        let ring = Arc::new(Ring::new(64, 0));
        let w = Arc::clone(&ring);
        let writer = std::thread::spawn(move || {
            for i in 0..200_000u64 {
                // Payload fields deliberately correlated so a torn read is
                // detectable in the decoded record.
                w.push(&Hit::new(Point::CowCopy, &[0, i, i]).at(i));
            }
        });
        let mut out = Vec::new();
        for _ in 0..2000 {
            out.clear();
            ring.collect(&mut out);
            for r in &out {
                assert_eq!(r.hit.w[1], r.hit.w[2], "torn record surfaced");
                assert_eq!(r.hit.w[1], r.ts_ns, "ts from a different record");
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn emit_snapshot_clear_cycle() {
        set_enabled(true);
        clear();
        emit(fault(FaultKind::CowData, 100));
        emit(Hit::new(Point::TlbFlush, &[]));
        let t = snapshot();
        assert!(t.len() >= 2);
        assert!(t.events.iter().any(|r| r.hit.point == Point::Fault));
        clear();
        set_enabled(false);
        // After clear, this thread's prior records are gone. (Other test
        // threads may be emitting concurrently, so only check our own.)
        let t2 = snapshot();
        assert!(!t2
            .events
            .iter()
            .any(|r| r.hit == fault(FaultKind::CowData, 100) && r.ts_ns <= t.events[0].ts_ns));
    }

    /// Serializes tests that flip the global class mask.
    fn mask_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn pinned_and_hot_points_share_timestamps() {
        let _gate = mask_gate();
        set_enabled(true);
        set_class_enabled(EventClass::Kmem, true);
        clear();
        // A pinned hit keeps its timestamp; a hot point borrows the
        // thread's most recent one instead of reading the clock.
        emit(fault(FaultKind::DemandZero, 55).at(7777));
        emit(Hit::new(Point::FrameAlloc, &[123, 0]));
        let t = snapshot();
        set_enabled(false);
        let at = t
            .events
            .iter()
            .find(|r| r.hit == fault(FaultKind::DemandZero, 55))
            .expect("pinned record");
        assert_eq!(at.ts_ns, 7777);
        let hot = t
            .events
            .iter()
            .find(|r| r.hit.frame() == Some(123))
            .expect("hot record");
        assert_eq!(hot.ts_ns, 7777, "sub-event borrows the last timestamp");
        set_class_enabled(EventClass::Kmem, false);
    }

    #[test]
    fn span_stamps_the_end_and_the_latency_word() {
        let t0 = now_ns();
        let hit = Hit::new(Point::Evicted, &[1, 2]).span(Some(t0));
        assert!(hit.at.unwrap() >= t0);
        assert_eq!(hit.latency(), hit.at.unwrap() - t0);
        let untimed = Hit::new(Point::Evicted, &[1, 2]).span(None);
        assert_eq!((untimed.at, untimed.latency()), (None, 0));
    }

    #[test]
    fn kmem_class_is_masked_by_default() {
        // Per-class switches: frame alloc/free records are dropped at the
        // emit boundary unless EventClass::Kmem is enabled, even with the
        // master switch on. The sentinel frame id must not appear.
        let _gate = mask_gate();
        set_enabled(true);
        assert!(!class_enabled(EventClass::Kmem));
        assert!(class_enabled(EventClass::Fault));
        emit(Hit::new(Point::FrameAlloc, &[0xDEAD_F00D, 0]));
        let t = snapshot();
        set_enabled(false);
        assert!(t.for_frame(0xDEAD_F00D, 1).is_empty());
    }

    #[test]
    fn bulk_transfer_events_carry_no_frame() {
        // MagRefill/MagDrain/BulkFree move blocks between free tiers;
        // `for_frame` provenance must come only from the per-block
        // FrameAlloc/FrameFree records, never be double-counted by the
        // batched transfer records.
        for point in [Point::MagRefill, Point::MagDrain, Point::BulkFree] {
            assert_eq!(Hit::new(point, &[1, 2, 3]).frame(), None, "{point:?}");
            let bit = 1u64 << point as u8;
            assert_eq!(EventClass::Kmem.bits() & bit, bit, "{point:?} not kmem");
        }
        assert_eq!(DEFAULT_CLASS_MASK & EventClass::Kmem.bits(), 0);
    }

    #[test]
    fn daemon_pass_events_are_class_gated() {
        // The pass/backoff records ride the daemon classes, so a user
        // muting Reclaim or Thp mutes the timeline rows too.
        for (point, class) in [
            (Point::ReclaimPass, EventClass::Reclaim),
            (Point::ReclaimBackoff, EventClass::Reclaim),
            (Point::ThpPass, EventClass::Thp),
            (Point::ThpBackoff, EventClass::Thp),
        ] {
            let bit = 1u64 << point as u8;
            assert_eq!(class.bits() & bit, bit, "{point:?} not gated by {class:?}");
        }
    }

    #[test]
    fn freeze_stops_recording_and_thaw_restores() {
        let _gate = mask_gate();
        set_enabled(true);
        clear();
        emit(fault(FaultKind::CowData, 11));
        let was_on = freeze();
        assert!(was_on);
        assert!(!enabled());
        // Emits while frozen are dropped: history is preserved, not
        // overwritten.
        emit(fault(FaultKind::CowData, 22));
        let t = snapshot();
        assert!(t
            .events
            .iter()
            .any(|r| r.hit == fault(FaultKind::CowData, 11)));
        assert!(!t
            .events
            .iter()
            .any(|r| r.hit == fault(FaultKind::CowData, 22)));
        thaw(was_on);
        assert!(enabled());
        set_enabled(false);
        // Thawing a freeze that found tracing off leaves it off.
        let was_on = freeze();
        assert!(!was_on);
        thaw(was_on);
        assert!(!enabled());
    }

    #[test]
    fn counter_reset_and_take_start_fresh_windows() {
        crate::counters! {
            /// Window demo counters.
            pub struct Win / WinSnapshot {
                /// Things.
                things,
                /// Stuff.
                stuff,
            }
        }
        let w = Win::default();
        w.things.add(5);
        w.stuff.add(7);
        let first = w.take();
        assert_eq!(first.things, 5);
        assert_eq!(first.stuff, 7);
        assert_eq!(first.fields().len(), WinSnapshot::FIELD_COUNT);
        assert_eq!(w.snapshot(), WinSnapshot::default());
        w.things.add(2);
        assert_eq!(w.take().things, 2);
        // A counted emit bumps whether or not any other sink listens.
        emit_counted(&w.stuff, Hit::new(Point::TlbFlush, &[]));
        assert_eq!(w.snapshot().stuff, 1);
    }

    #[test]
    fn kind_labels_resolve_per_point() {
        assert_eq!(fault(FaultKind::TableCow, 0).kind_label(), "table_cow");
        let fork = Hit::new(Point::ForkEnd, &[]).kind(ForkPolicyKind::OnDemand.as_u8());
        assert_eq!(fork.kind_label(), "odf");
        let lock = Hit::new(Point::LockRetry, &[]).kind(LockSite::PmdOwnership.as_u8());
        assert_eq!(lock.kind_label(), "pmd_ownership");
        // Without kinds: the probe label, which may differ from the class.
        assert_eq!(Hit::new(Point::WalFsync, &[]).kind_label(), "wal_commit");
        assert_eq!(Hit::new(Point::TlbFlush, &[]).kind_label(), "tlb_flush");
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_u8(k.as_u8()), k);
        }
        assert_eq!(FaultKind::from_u8(200), FaultKind::Spurious);
    }

    #[test]
    fn probe_hits_only_reach_the_sink_while_active() {
        struct CountingSink(AtomicU64);
        impl ProbeSink for CountingSink {
            fn on_hit(&self, _hit: &Hit) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        static SINK: CountingSink = CountingSink(AtomicU64::new(0));
        // First registration wins; re-registration is a no-op.
        let first = register_probe_sink(&SINK);
        assert!(!register_probe_sink(&SINK) || first);
        let hit = Hit::new(Point::Fault, &[]);
        set_probes_active(false);
        let before = SINK.0.load(Ordering::Relaxed);
        emit(hit);
        assert_eq!(
            SINK.0.load(Ordering::Relaxed),
            before,
            "inactive: no dispatch"
        );
        set_probes_active(true);
        emit(hit);
        // Points probes cannot attach to never reach the sink.
        emit(Hit::new(Point::TlbFlush, &[]));
        set_probes_active(false);
        if first {
            assert_eq!(
                SINK.0.load(Ordering::Relaxed),
                before + 1,
                "active: the probe point dispatched"
            );
        }
    }

    #[test]
    fn for_frame_filters_and_bounds() {
        let t = Trace {
            events: (0..10)
                .map(|i| TraceRecord {
                    ts_ns: i,
                    thread: 0,
                    hit: Hit::new(Point::FrameAlloc, &[i % 2, 0]),
                })
                .collect(),
            dropped: 0,
        };
        let hits = t.for_frame(1, 3);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|r| r.hit.frame() == Some(1)));
        assert_eq!(hits.last().unwrap().ts_ns, 9);
        assert!(t.for_frame(99, 3).is_empty());
    }
}

/// The one-record rule, checked on the source: no crate but this one
/// builds a second record shape, and no `crates/vm` or `crates/pmem` site
/// bumps a counter that an `emit_counted` hit already folds. (Patterns are
/// assembled so this text does not match them.)
#[cfg(test)]
mod guard {
    use std::path::{Path, PathBuf};

    /// `(path, non-test text)` of every `.rs` file under `crates/<name>/src`.
    fn sources(name: &str) -> Vec<(PathBuf, String)> {
        fn walk(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let code = text.split("#[cfg(test)]").next().unwrap().to_string();
                    out.push((path, code));
                }
            }
        }
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut out = Vec::new();
        walk(&crates.join(name).join("src"), &mut out);
        out
    }

    fn crates() -> Vec<String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "trace")
            .collect()
    }

    #[test]
    fn no_second_record_shape_outside_this_crate() {
        let gone = [
            ["Ev", "ent::"].concat(),
            ["Probe", "Context"].concat(),
            ["probe", "_hit"].concat(),
        ];
        for name in crates() {
            for (path, text) in sources(&name) {
                for g in &gone {
                    assert!(
                        !text.contains(g.as_str()),
                        "{} names {g}: sites emit one Hit",
                        path.display()
                    );
                }
            }
        }
    }

    /// The argument list of every call to `f` in `text`, whitespace
    /// removed.
    fn calls(text: &str, f: &str) -> Vec<String> {
        let squeezed: String = text.split_whitespace().collect();
        let mut out = Vec::new();
        let mut rest = squeezed.as_str();
        while let Some(at) = rest.find(f) {
            rest = &rest[at + f.len()..];
            let mut depth = 1;
            let end = rest
                .char_indices()
                .find(|&(_, c)| {
                    depth += match c {
                        '(' | '{' | '[' => 1,
                        ')' | '}' | ']' => -1,
                        _ => 0,
                    };
                    depth == 0
                })
                .map_or(rest.len(), |(i, _)| i);
            out.push(rest[..end].to_string());
        }
        out
    }

    /// The last field of every field chain in `text`: each `.name`
    /// followed by neither `(` nor `.`.
    fn fields(text: &str) -> Vec<String> {
        text.match_indices('.')
            .filter_map(|(at, _)| {
                let rest = &text[at + 1..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                let next = rest[len..].chars().next();
                (len > 0 && !matches!(next, Some('(' | '.'))).then(|| rest[..len].to_string())
            })
            .collect()
    }

    #[test]
    fn a_folded_counter_is_bumped_only_by_its_hit() {
        let counted = ["emit", "_counted("].concat();
        let code: Vec<String> = ["vm", "pmem"]
            .into_iter()
            .flat_map(sources)
            .map(|(_, text)| text)
            .collect();
        let mut folded = Vec::new();
        for text in &code {
            for args in calls(text, &counted) {
                // The counter is the first argument: everything before
                // the `Hit` constructor.
                let counter = args.split("Hit::").next().unwrap();
                folded.extend(fields(counter));
            }
        }
        for name in ["tlb_flushes", "allocs", "forks_odf"] {
            assert!(folded.iter().any(|f| f == name), "{name} is not folded");
        }
        for text in &code {
            let bumps = [
                calls(text, "bump("),
                calls(text, ".add("),
                calls(text, "::add("),
            ];
            for args in bumps.iter().flatten() {
                for f in fields(args) {
                    assert!(
                        !folded.contains(&f),
                        "{f} is folded from a hit and bumped again: {args}"
                    );
                }
            }
            for f in &folded {
                for bump in [".bump()", ".add("] {
                    assert!(
                        !text.contains(&format!(".{f}{bump}")),
                        "{f} is folded from a hit and bumped again"
                    );
                }
            }
        }
    }
}
