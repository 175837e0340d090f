//! The one instrumentation record and the one table that describes it.
//!
//! Every instrumented site emits one [`Hit`]: a [`Point`], a `kind`
//! discriminant, up to four payload words, and the attribution keys that
//! probes group by. What the words mean and how each sink treats a hit
//! lives in one descriptor per point ([`Desc`], [`Point::desc`]). The ring
//! reads its class switch and timestamp policy there, the
//! chrome://tracing dump its name, category and args, the summary its
//! counter key and distribution, and the probe engine its attach label and
//! its `value`/`aux` words. Linux's tracepoints have the same shape: one
//! hook that perf counters, ftrace rings and BPF programs all consume.

use crate::{now_ns, EventClass as C, FaultKind, ForkPolicyKind, LockSite};

/// Declares [`Point`] and [`Point::ALL`] from one list, so the two cannot
/// disagree on the order the table follows.
macro_rules! points {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// A tracepoint: where in the stack a [`Hit`] was produced. The
        /// first ten are the probe attach points, in `PROBE LIST` order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Point {
            $($(#[$doc])* $name,)+
        }

        impl Point {
            /// Every point, in discriminant (and table) order.
            pub const ALL: [Point; 26] = [$(Point::$name),+];
        }
    };
}

points! {
    /// A page fault was resolved (the `mm_fault` analog).
    Fault,
    /// A fork completed.
    ForkEnd,
    /// A CAS install or ownership handoff lost a race and retried.
    LockRetry,
    /// The reclaim scan evicted one page to a swap slot.
    Evicted,
    /// A huge-page collapse completed: 512 PTEs became one PMD entry.
    CollapseEnd,
    /// A huge page was demoted back to 512 base PTEs.
    Demote,
    /// A WAL group commit reached stable storage (the segment's `fsync`
    /// returned).
    WalFsync,
    /// One reclaim-daemon pass over every address space completed.
    ReclaimPass,
    /// One THP-daemon wakeup completed its scan.
    ThpPass,
    /// An mmu_gather-style batched free returned zero-refcount blocks to
    /// the buddy under one lock. Each block already emitted `FrameFree`.
    BulkFree,
    /// A fork began.
    ForkStart,
    /// Data was physically copied for COW (page or huge page).
    CowCopy,
    /// A TLB shootdown was issued.
    TlbFlush,
    /// A direct-reclaim pass ran.
    Reclaim,
    /// A frame left the free pool.
    FrameAlloc,
    /// A frame returned to the free pool.
    FrameFree,
    /// A per-thread magazine pulled a batch of blocks from the buddy. The
    /// blocks stay free, so this is not an allocation: each block emits
    /// `FrameAlloc` when it leaves the pool.
    MagRefill,
    /// A magazine returned a batch of free blocks to the buddy (watermark
    /// spill or drain).
    MagDrain,
    /// A reclaim scan pass started (the `mm_vmscan_kswapd_wake` analog).
    ReclaimScanStart,
    /// A fault read an evicted page back from its swap slot.
    SwappedIn,
    /// A huge-page collapse (khugepaged promotion) began.
    CollapseStart,
    /// A compaction pass ran to assemble a huge block from a fragmented
    /// pool. `frag_milli` is the huge order's external-fragmentation index
    /// in milli (0 = fully coalescible).
    CompactScan,
    /// A snapshot image (full or delta) was published to the chain store.
    SnapshotPublish,
    /// Recovery replayed the WAL tail on top of a restored chain.
    RecoveryReplay,
    /// The reclaim daemon backed off: a full sweep evicted nothing.
    ReclaimBackoff,
    /// The THP daemon scanned but applied nothing.
    ThpBackoff,
}

impl Point {
    /// This point's descriptor.
    #[inline]
    pub fn desc(self) -> &'static Desc {
        &POINTS[self as usize]
    }

    /// The probe attach points' labels, in `PROBE LIST` order.
    pub fn probe_labels() -> impl Iterator<Item = &'static str> {
        POINTS.iter().filter_map(|d| d.probe)
    }

    /// The probe attach point labelled `label`.
    pub fn from_probe_label(label: &str) -> Option<Point> {
        Self::ALL
            .into_iter()
            .find(|p| p.desc().probe == Some(label))
    }
}

/// A summary distribution: the Prometheus family a payload word feeds.
#[derive(Debug)]
pub struct Dist {
    /// Family name, e.g. `odf_trace_fault_latency_ns`.
    pub family: &'static str,
    /// The family's help text.
    pub help: &'static str,
    /// The payload word recorded.
    pub word: usize,
    /// Label name the `kind` label goes under (`kind`, `policy`), if any.
    pub label: Option<&'static str>,
}

/// How every sink treats one point.
#[derive(Debug)]
pub struct Desc {
    /// Stable lowercase class name.
    pub class: &'static str,
    /// The switch that gates this point in the ring.
    pub gate: C,
    /// chrome://tracing `name` (suffixed `:<kind label>` for a point with
    /// kinds) and `cat`.
    pub chrome: (&'static str, &'static str),
    /// Payload word names, in chrome `args` order, `""` past the last. The
    /// ring keeps the first three; a fourth reaches probes only.
    pub words: [&'static str; 4],
    /// Labels of the `kind` discriminant, for a point that has one.
    pub kinds: Option<fn(u8) -> &'static str>,
    /// Probe attach label, for the ten probe points.
    pub probe: Option<&'static str>,
    /// The words probes read as `value` and `aux` (zero when `None`).
    pub value: Option<usize>,
    /// See [`Desc::value`].
    pub aux: Option<usize>,
    /// The `latency_ns` word. A point with one is a span.
    pub latency: Option<usize>,
    /// The `frame` word: the key of [`crate::Trace::for_frame`].
    pub frame: Option<usize>,
    /// The `addr` or `va` word.
    pub addr: Option<usize>,
    /// The `retries` word.
    pub retries: Option<usize>,
    /// Key the summary counts this point under
    /// (`odf_trace_events_total{class}`); `None` for a point it only
    /// histograms.
    pub count: Option<&'static str>,
    /// Whether the summary also counts `<class>_<kind label>`.
    pub count_kinds: bool,
    /// The distribution the summary feeds.
    pub dist: Option<Dist>,
    /// A sub-event inside a traced operation: the ring reuses the thread's
    /// last timestamp rather than read the clock, the most expensive part
    /// of a record.
    pub hot: bool,
}

/// The position of `name` in `words`.
const fn find(words: &[&str; 4], name: &str) -> Option<usize> {
    let mut i = 0;
    while i < words.len() {
        let (a, b) = (words[i].as_bytes(), name.as_bytes());
        let mut same = a.len() == b.len();
        let mut j = 0;
        while same && j < a.len() {
            same = a[j] == b[j];
            j += 1;
        }
        if same && !b.is_empty() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// A descriptor with the defaults: counted under its class, no kinds, no
/// probe, no distribution; word roles found by name.
const fn d(
    class: &'static str,
    gate: C,
    chrome: &'static str,
    cat: &'static str,
    names: &[&'static str],
) -> Desc {
    let mut words = [""; 4];
    let mut i = 0;
    while i < names.len() {
        words[i] = names[i];
        i += 1;
    }
    let addr = match find(&words, "addr") {
        Some(i) => Some(i),
        None => find(&words, "va"),
    };
    Desc {
        class,
        gate,
        chrome: (chrome, cat),
        kinds: None,
        probe: None,
        value: None,
        aux: None,
        latency: find(&words, "latency_ns"),
        frame: find(&words, "frame"),
        addr,
        retries: find(&words, "retries"),
        count: Some(class),
        count_kinds: false,
        dist: None,
        hot: false,
        words,
    }
}

impl Desc {
    const fn kinds(mut self, labels: fn(u8) -> &'static str) -> Self {
        self.kinds = Some(labels);
        self
    }

    const fn probe(mut self, label: &'static str, value: &str, aux: &str) -> Self {
        self.probe = Some(label);
        self.value = find(&self.words, value);
        self.aux = find(&self.words, aux);
        self
    }

    const fn count(mut self, key: Option<&'static str>, kinds: bool) -> Self {
        self.count = key;
        self.count_kinds = kinds;
        self
    }

    const fn dist(
        mut self,
        family: &'static str,
        help: &'static str,
        word: &str,
        label: Option<&'static str>,
    ) -> Self {
        let Some(word) = find(&self.words, word) else {
            panic!("a distribution names a payload word")
        };
        self.dist = Some(Dist {
            family,
            help,
            word,
            label,
        });
        self
    }

    const fn hot(mut self) -> Self {
        self.hot = true;
        self
    }
}

const LAT: &str = "latency_ns";

/// The descriptor table, in [`Point`] order. Sinks read [`POINTS`], its
/// one runtime copy; const code (the class masks) reads this.
#[rustfmt::skip]
pub(crate) const TABLE: [Desc; 26] = [
    d("fault", C::Fault, "fault", "fault", &["retries", "addr", LAT])
        .kinds(|k| FaultKind::from_u8(k).label()).probe("fault", "", "").count(None, false)
        .dist("odf_trace_fault_latency_ns", "Page-fault latency by fault kind", LAT, Some("kind")),
    d("fork_end", C::Fork, "fork", "fork", &["pte_copies", "tables_shared", LAT])
        .kinds(|k| ForkPolicyKind::from_u8(k).label()).probe("fork", "pte_copies", "tables_shared")
        .count(None, false).dist("odf_trace_fork_latency_ns", "Fork latency by policy", LAT, Some("policy")),
    d("lock_retry", C::LockRetry, "lock_retry", "lock", &[])
        .kinds(|k| LockSite::from_u8(k).label()).probe("lock_retry", "", "")
        .count(Some("lock_retry_total"), true),
    d("evicted", C::Reclaim, "evict", "reclaim", &["frame", "slot", LAT]).probe("evict", "slot", "frame")
        .dist("odf_trace_evict_latency_ns", "Per-page eviction latency (copy-out + slot write)", LAT, None),
    d("collapse_end", C::Thp, "collapse", "thp", &["va", "frame", LAT]).probe("collapse", "", "frame")
        .count(Some("collapse"), false)
        .dist("odf_trace_collapse_latency_ns", "Huge-page collapse latency (validate + copy + install)", LAT, None),
    d("demote", C::Thp, "demote", "thp", &["va", "frame"]).probe("demote", "frame", ""),
    d("wal_fsync", C::Durability, "wal_fsync", "durability", &["bytes", "records", LAT, "durable_seq"])
        .probe("wal_commit", "records", "durable_seq")
        .dist("odf_trace_wal_fsync_latency_ns", "WAL group-commit fsync latency", LAT, None),
    d("reclaim_pass", C::Reclaim, "reclaim_pass", "reclaim", &["pages_evicted", "free_frames", LAT])
        .probe("reclaim_pass", "pages_evicted", "free_frames")
        .dist("odf_trace_reclaim_pass_latency_ns", "Reclaim-daemon scan-pass latency", LAT, None),
    d("thp_pass", C::Thp, "thp_pass", "thp", &["candidates", "ops", LAT]).probe("thp_pass", "ops", "candidates")
        .dist("odf_trace_thp_pass_latency_ns", "THP-daemon scan-pass latency", LAT, None),
    d("bulk_free", C::Kmem, "bulk_free", "mm", &["blocks", "frames"]).probe("bulk_free", "frames", "blocks")
        .dist("odf_trace_bulk_free_blocks", "Blocks returned per batched free flush", "blocks", None),
    d("fork_start", C::Fork, "fork_start", "fork", &[]).kinds(|k| ForkPolicyKind::from_u8(k).label()),
    d("cow_copy", C::CowCopy, "cow_copy", "cow", &["order", "bytes", "frame"]).hot()
        .dist("odf_trace_cow_bytes", "Bytes physically copied per COW event", "bytes", None),
    d("tlb_flush", C::TlbFlush, "tlb_flush", "tlb", &[]),
    d("reclaim", C::Reclaim, "reclaim", "mm", &["frames_freed"]),
    d("frame_alloc", C::Kmem, "frame_alloc", "mm", &["frame", "order"]).hot(),
    d("frame_free", C::Kmem, "frame_free", "mm", &["frame", "order"]).hot(),
    d("mag_refill", C::Kmem, "mag_refill", "mm", &["order", "blocks"])
        .dist("odf_trace_mag_transfer_blocks", "Blocks moved per magazine refill/drain", "blocks", None),
    d("mag_drain", C::Kmem, "mag_drain", "mm", &["order", "blocks"])
        .dist("odf_trace_mag_transfer_blocks", "Blocks moved per magazine refill/drain", "blocks", None),
    d("reclaim_scan_start", C::Reclaim, "reclaim_scan", "reclaim", &["free_frames", "low_watermark"]),
    d("swapped_in", C::Reclaim, "swap_in", "reclaim", &["slot", LAT])
        .dist("odf_trace_swapin_latency_ns", "Swap-in data-path latency (slot read + frame write)", LAT, None),
    d("collapse_start", C::Thp, "collapse_start", "thp", &["va"]),
    d("compact_scan", C::Thp, "compact_scan", "thp", &["free_frames", "frag_milli"]),
    d("snapshot_publish", C::Durability, "snapshot_publish", "durability", &["epoch", "bytes", LAT])
        .dist("odf_trace_snapshot_publish_latency_ns", "Snapshot-image publish latency (encode + fsync + rename)", LAT, None),
    d("recovery_replay", C::Durability, "recovery_replay", "durability", &["records", LAT])
        .dist("odf_trace_recovery_replay_latency_ns", "Recovery WAL-replay latency", LAT, None),
    d("reclaim_backoff", C::Reclaim, "reclaim_backoff", "reclaim", &["free_frames"]),
    d("thp_backoff", C::Thp, "thp_backoff", "thp", &["candidates"]),
];

static POINTS: [Desc; 26] = TABLE;

/// One instrumentation record: what a site emits, once. The ring, the
/// probe engine and the site's stats counter all fold it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hit {
    /// Where it fired.
    pub point: Point,
    /// The point's discriminant ([`FaultKind`], [`ForkPolicyKind`] or
    /// [`LockSite`] `as_u8`) at a point with kinds; 0 elsewhere.
    pub kind: u8,
    /// Payload words, named by [`Desc::words`].
    pub w: [u64; 4],
    /// Owning process id of the address space involved (0 = none).
    /// Probes only: the ring does not keep it.
    pub pid: u64,
    /// `(start, end)` of the VMA involved, when the site looked it up.
    /// Probes only.
    pub vma: (u64, u64),
    /// Compound order of the page involved (0 = 4 KiB, 9 = 2 MiB). Probes
    /// only.
    pub order: u8,
    /// Trace-clock timestamp the ring stamps; `None` stamps it on emit.
    pub at: Option<u64>,
}

impl Hit {
    /// A hit at `point` with leading payload `words`; every other field 0.
    pub const fn new(point: Point, words: &[u64]) -> Hit {
        let mut w = [0; 4];
        let mut i = 0;
        while i < words.len() {
            w[i] = words[i];
            i += 1;
        }
        Hit {
            point,
            kind: 0,
            w,
            pid: 0,
            vma: (0, 0),
            order: 0,
            at: None,
        }
    }

    /// Sets the kind discriminant.
    pub const fn kind(mut self, kind: u8) -> Hit {
        self.kind = kind;
        self
    }

    /// Sets the owning pid.
    pub const fn pid(mut self, pid: u64) -> Hit {
        self.pid = pid;
        self
    }

    /// Sets the VMA range and the page order.
    pub const fn vma(mut self, start: u64, end: u64, order: u8) -> Hit {
        self.vma = (start, end);
        self.order = order;
        self
    }

    /// Sets the page order.
    pub const fn order(mut self, order: u8) -> Hit {
        self.order = order;
        self
    }

    /// Pins the ring timestamp.
    pub const fn at(mut self, ts_ns: u64) -> Hit {
        self.at = Some(ts_ns);
        self
    }

    /// Ends a span begun by [`start`](crate::start): reads the clock once,
    /// stamps the hit with it and stores the time since `t0` in the latency
    /// word. An untimed span (`t0 == None`) keeps latency 0, which probes
    /// read as "not measured".
    #[inline]
    pub fn span(mut self, t0: Option<u64>) -> Hit {
        if let Some(t0) = t0 {
            let end = now_ns();
            self.at = Some(end);
            if let Some(i) = self.desc().latency {
                self.w[i] = end.saturating_sub(t0);
            }
        }
        self
    }

    /// The point's descriptor.
    #[inline]
    pub fn desc(&self) -> &'static Desc {
        self.point.desc()
    }

    #[inline]
    fn word(&self, i: Option<usize>) -> u64 {
        i.map_or(0, |i| self.w[i])
    }

    /// Wall time of the operation, ns (0 at an instant point or when not
    /// measured).
    #[inline]
    pub fn latency(&self) -> u64 {
        self.word(self.desc().latency)
    }

    /// The physical frame this hit is about, when it has one.
    pub fn frame(&self) -> Option<u64> {
        self.desc().frame.map(|i| self.w[i])
    }

    /// Virtual address involved (faulting address, collapse base, ...).
    pub fn addr(&self) -> u64 {
        self.word(self.desc().addr)
    }

    /// Install races lost before the operation succeeded.
    pub fn retries(&self) -> u64 {
        self.word(self.desc().retries)
    }

    /// The point's magnitude that `sum_by` and `watermark` fold.
    #[inline]
    pub fn value(&self) -> u64 {
        self.word(self.desc().value)
    }

    /// The point's secondary magnitude.
    pub fn aux(&self) -> u64 {
        self.word(self.desc().aux)
    }

    /// The `kind` discriminant's label at a point with kinds (`cow_data`,
    /// `odf`, `pte_install`, ...); otherwise the probe label, or the class.
    pub fn kind_label(&self) -> &'static str {
        let d = self.desc();
        match d.kinds {
            Some(label) => label(self.kind),
            None => d.probe.unwrap_or(d.class),
        }
    }
}
