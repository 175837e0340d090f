//! Kernel-tracepoint-style event tracing for the on-demand-fork stack.
//!
//! Linux decomposes mm behaviour with *tracepoints*: typed, timestamped
//! events written from the hot path into per-CPU ring buffers (ftrace), read
//! out asynchronously and post-processed into histograms. This crate is that
//! layer for the simulator: the fork/fault/COW paths [`emit`] typed [`Event`]s
//! into **per-thread bounded ring buffers** that
//!
//! - never block the producer (one atomic store sequence, no locks),
//! - drop the *oldest* record on overflow and count the loss in an explicit
//!   `dropped_events` counter (ftrace's `overrun`),
//! - cost a single relaxed atomic load when tracing is disabled, and
//! - gate each event family behind a per-class switch ([`EventClass`],
//!   ftrace's per-event `enable` files); the high-volume frame alloc/free
//!   class starts off, like the kernel's `kmem` events.
//!
//! A [`snapshot`] collects every thread's live records into a [`Trace`],
//! which can be summarised into per-event-class latency histograms
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

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;
mod summary;

pub use export::{json_escape, Exposition, Family, MetricKind};
pub use summary::TraceSummary;

/// Fork policy tag carried by fork events.
///
/// Mirrors `odf_vm::ForkPolicy` without depending on it (the vm crate
/// depends on this one, not vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ForkPolicyKind {
    /// Eager PTE-copying fork (`fork()`).
    Classic,
    /// Last-level page-table sharing fork (`odfork()`).
    OnDemand,
    /// On-demand fork extended with PMD-table sharing for huge pages.
    OnDemandHuge,
}

impl ForkPolicyKind {
    /// Decodes the stable wire discriminant (also the
    /// [`ProbeContext::kind`] value at the `fork` attach point).
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::OnDemand,
            2 => Self::OnDemandHuge,
            _ => Self::Classic,
        }
    }

    /// Stable wire discriminant (inverse of [`ForkPolicyKind::from_u8`]).
    pub fn as_u8(self) -> u8 {
        match self {
            Self::Classic => 0,
            Self::OnDemand => 1,
            Self::OnDemandHuge => 2,
        }
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            Self::Classic => "classic",
            Self::OnDemand => "odf",
            Self::OnDemandHuge => "odf_huge",
        }
    }
}

/// What work a page fault performed — the per-fault classification the
/// paper's Table 7 breaks latency down by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// Decodes the stable wire discriminant (also the
    /// [`ProbeContext::kind`] value at the `fault` attach point).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::DemandZero,
            1 => Self::DemandHuge,
            2 => Self::CowData,
            3 => Self::CowReuse,
            4 => Self::CowHuge,
            5 => Self::TableCow,
            6 => Self::PmdTableCow,
            8 => Self::SwapIn,
            _ => Self::Spurious,
        }
    }

    /// Stable wire discriminant (inverse of [`FaultKind::from_u8`]).
    pub fn as_u8(self) -> u8 {
        match self {
            Self::DemandZero => 0,
            Self::DemandHuge => 1,
            Self::CowData => 2,
            Self::CowReuse => 3,
            Self::CowHuge => 4,
            Self::TableCow => 5,
            Self::PmdTableCow => 6,
            Self::Spurious => 7,
            Self::SwapIn => 8,
        }
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            Self::DemandZero => "demand_zero",
            Self::DemandHuge => "demand_huge",
            Self::CowData => "cow_data",
            Self::CowReuse => "cow_reuse",
            Self::CowHuge => "cow_huge",
            Self::TableCow => "table_cow",
            Self::PmdTableCow => "pmd_table_cow",
            Self::Spurious => "spurious",
            Self::SwapIn => "swap_in",
        }
    }

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
}

/// Which CAS install / ownership handoff lost a race and retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// Decodes the stable wire discriminant (also the
    /// [`ProbeContext::kind`] value at the `lock_retry` attach point).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::PteInstall,
            1 => Self::PmdInstall,
            2 => Self::PudInstall,
            3 => Self::TableOwnership,
            _ => Self::PmdOwnership,
        }
    }

    /// Stable wire discriminant (inverse of [`LockSite::from_u8`]).
    pub fn as_u8(self) -> u8 {
        match self {
            Self::PteInstall => 0,
            Self::PmdInstall => 1,
            Self::PudInstall => 2,
            Self::TableOwnership => 3,
            Self::PmdOwnership => 4,
        }
    }

    /// Short lowercase label used in metric names and trace dumps.
    pub fn label(self) -> &'static str {
        match self {
            Self::PteInstall => "pte_install",
            Self::PmdInstall => "pmd_install",
            Self::PudInstall => "pud_install",
            Self::TableOwnership => "table_ownership",
            Self::PmdOwnership => "pmd_ownership",
        }
    }
}

/// A typed tracepoint event. Each variant is one kernel-tracepoint analog
/// (e.g. `Fault` ~ `mm_fault`, `TlbFlush` ~ `tlb_flush`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A fork began.
    ForkStart {
        /// Which fork path ran.
        policy: ForkPolicyKind,
    },
    /// A fork completed.
    ForkEnd {
        /// Which fork path ran.
        policy: ForkPolicyKind,
        /// PTE entries eagerly copied (classic fork work).
        pte_copies: u64,
        /// Last-level/PMD tables shared instead of copied (ODF work).
        tables_shared: u64,
        /// Wall time of the fork call.
        latency_ns: u64,
    },
    /// A page fault was resolved.
    Fault {
        /// What the handler did.
        kind: FaultKind,
        /// Wall time from entry to established translation.
        latency_ns: u64,
        /// Install races lost before the fault succeeded.
        retries: u32,
        /// Faulting virtual address.
        addr: u64,
    },
    /// Data was physically copied for COW (page or huge page).
    CowCopy {
        /// Allocation order: 0 = 4 KiB page, 9 = 2 MiB huge page.
        order: u8,
        /// Bytes copied.
        bytes: u64,
        /// Destination frame of the copy.
        frame: u64,
    },
    /// A TLB shootdown was issued.
    TlbFlush,
    /// A CAS install or ownership transition lost a race and retried.
    LockRetry {
        /// Which site retried.
        site: LockSite,
    },
    /// A reclaim pass ran.
    Reclaim {
        /// Frames recovered by the pass.
        frames_freed: u64,
    },
    /// A frame left the free pool.
    FrameAlloc {
        /// The frame id.
        frame: u64,
        /// Allocation order (0 = single frame, 9 = 2 MiB block).
        order: u8,
    },
    /// A frame returned to the free pool.
    FrameFree {
        /// The frame id.
        frame: u64,
        /// Allocation order of the freed block.
        order: u8,
    },
    /// A per-thread magazine pulled a batch of blocks from the buddy
    /// allocator (one lock acquisition for the whole batch). The blocks
    /// stay *free* — per-frame provenance is still carried by the
    /// `FrameAlloc` each block emits when it actually leaves the pool, so
    /// this transfer must not be counted as an allocation.
    MagRefill {
        /// Block order of the refilled lane (0 or 9).
        order: u8,
        /// Blocks moved from the buddy into the magazine.
        blocks: u64,
    },
    /// A per-thread magazine returned a batch of blocks to the buddy
    /// allocator (watermark spill or an explicit drain). Free-to-free
    /// transfer: no `FrameFree` is emitted for the member blocks here.
    MagDrain {
        /// Block order of the drained lane (0 or 9).
        order: u8,
        /// Blocks moved from the magazine back to the buddy.
        blocks: u64,
    },
    /// An mmu_gather-style batched free flushed: blocks whose refcount
    /// reached zero during an unmap/teardown sweep went back to the buddy
    /// under one lock. Each member block already emitted its own
    /// `FrameFree` when its metadata was torn down.
    BulkFree {
        /// Zero-refcount blocks returned in this flush.
        blocks: u64,
        /// Total base frames those blocks span.
        frames: u64,
    },
    /// A reclaim scan pass started (the `mm_vmscan_kswapd_wake` /
    /// direct-reclaim-begin analog).
    ReclaimScanStart {
        /// Free base frames at scan start.
        free_frames: u64,
        /// The pool's low watermark that triggered (or gated) the scan.
        low_watermark: u64,
    },
    /// The reclaim scan evicted one page to a swap slot.
    Evicted {
        /// The frame whose data was written out (freed by the eviction).
        frame: u64,
        /// The swap slot now holding the data.
        slot: u64,
        /// Wall time of the eviction (copy-out + slot write + PTE store).
        latency_ns: u64,
    },
    /// A fault read an evicted page back from its swap slot.
    SwappedIn {
        /// The swap slot the data came from.
        slot: u64,
        /// Wall time of the swap-in data path (slot read + frame write).
        latency_ns: u64,
    },
    /// A huge-page collapse (khugepaged promotion) began.
    CollapseStart {
        /// 2 MiB-aligned base virtual address of the candidate range.
        va: u64,
    },
    /// A huge-page collapse completed: 512 PTEs became one PMD entry.
    CollapseEnd {
        /// 2 MiB-aligned base virtual address of the promoted range.
        va: u64,
        /// Head frame of the new order-9 compound page.
        frame: u64,
        /// Wall time from candidate validation to installed PMD.
        latency_ns: u64,
    },
    /// A huge page was demoted back to 512 base PTEs.
    Demote {
        /// 2 MiB-aligned base virtual address of the demoted range.
        va: u64,
        /// Head frame of the (former) compound page.
        frame: u64,
    },
    /// A compaction pass ran to assemble a huge block from a fragmented
    /// pool (magazine drain + buddy merge + retry).
    CompactScan {
        /// Free base frames at scan time.
        free_frames: u64,
        /// External-fragmentation index for the huge order, in milli
        /// (0 = fully coalescible, 1000 = nothing huge-reachable).
        frag_milli: u64,
    },
    /// A WAL group commit reached stable storage (the `fsync` on the
    /// active segment returned).
    WalFsync {
        /// Payload bytes made durable by this fsync (since the last one).
        bytes: u64,
        /// Records made durable by this fsync.
        records: u64,
        /// Wall time of the fsync call.
        latency_ns: u64,
    },
    /// A snapshot image (full or delta) was atomically published to the
    /// chain store (tmp-write + fsync + rename + manifest republish).
    SnapshotPublish {
        /// Checkpoint epoch of the published image.
        epoch: u64,
        /// Encoded image size in bytes.
        bytes: u64,
        /// Wall time from encode start to durable manifest.
        latency_ns: u64,
    },
    /// Recovery replayed the WAL tail on top of a restored chain.
    RecoveryReplay {
        /// Records applied to the store during replay.
        records: u64,
        /// Wall time of the replay loop.
        latency_ns: u64,
    },
    /// One reclaim-daemon scan pass over an address space completed
    /// (the `mm_vmscan_kswapd` pass-level analog; per-page work is the
    /// `Evicted` events inside it).
    ReclaimPass {
        /// Pages the pass evicted.
        pages_evicted: u64,
        /// Free base frames when the pass finished.
        free_frames: u64,
        /// Wall time of the pass.
        latency_ns: u64,
    },
    /// The reclaim daemon backed off: a full sweep over every address
    /// space evicted nothing (everything left is hot or pinned), so it
    /// went back to sleep below the high watermark.
    ReclaimBackoff {
        /// Free base frames at back-off time.
        free_frames: u64,
    },
    /// One THP-daemon wakeup completed its scan over all address spaces.
    ThpPass {
        /// Candidate ranges offered to the policy this pass.
        candidates: u64,
        /// Collapse/demote operations applied this pass.
        ops: u64,
        /// Wall time of the pass.
        latency_ns: u64,
    },
    /// The THP daemon scanned but applied nothing — every candidate was
    /// skipped (cold, partial, or already huge), the khugepaged
    /// `full_scans`-with-no-progress analog.
    ThpBackoff {
        /// Candidate ranges scanned by the idle pass.
        candidates: u64,
    },
}

impl Event {
    /// Physical frame this event is about, when it has one — the key for
    /// [`Trace::for_frame`] post-mortem filtering.
    pub fn frame(&self) -> Option<u64> {
        match *self {
            Event::CowCopy { frame, .. }
            | Event::FrameAlloc { frame, .. }
            | Event::FrameFree { frame, .. }
            | Event::Evicted { frame, .. }
            | Event::CollapseEnd { frame, .. }
            | Event::Demote { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Stable lowercase class name (metric/label friendly).
    pub fn class(&self) -> &'static str {
        match self {
            Event::ForkStart { .. } => "fork_start",
            Event::ForkEnd { .. } => "fork_end",
            Event::Fault { .. } => "fault",
            Event::CowCopy { .. } => "cow_copy",
            Event::TlbFlush => "tlb_flush",
            Event::LockRetry { .. } => "lock_retry",
            Event::Reclaim { .. } => "reclaim",
            Event::FrameAlloc { .. } => "frame_alloc",
            Event::FrameFree { .. } => "frame_free",
            Event::MagRefill { .. } => "mag_refill",
            Event::MagDrain { .. } => "mag_drain",
            Event::BulkFree { .. } => "bulk_free",
            Event::ReclaimScanStart { .. } => "reclaim_scan_start",
            Event::Evicted { .. } => "evicted",
            Event::SwappedIn { .. } => "swapped_in",
            Event::CollapseStart { .. } => "collapse_start",
            Event::CollapseEnd { .. } => "collapse_end",
            Event::Demote { .. } => "demote",
            Event::CompactScan { .. } => "compact_scan",
            Event::WalFsync { .. } => "wal_fsync",
            Event::SnapshotPublish { .. } => "snapshot_publish",
            Event::RecoveryReplay { .. } => "recovery_replay",
            Event::ReclaimPass { .. } => "reclaim_pass",
            Event::ReclaimBackoff { .. } => "reclaim_backoff",
            Event::ThpPass { .. } => "thp_pass",
            Event::ThpBackoff { .. } => "thp_backoff",
        }
    }

    /// Packs the event into `(tag, sub, a, b, c)` ring words.
    fn encode(&self) -> (u8, u8, u64, u64, u64) {
        match *self {
            Event::ForkStart { policy } => (1, policy.as_u8(), 0, 0, 0),
            Event::ForkEnd {
                policy,
                pte_copies,
                tables_shared,
                latency_ns,
            } => (2, policy.as_u8(), pte_copies, tables_shared, latency_ns),
            Event::Fault {
                kind,
                latency_ns,
                retries,
                addr,
            } => (3, kind.as_u8(), latency_ns, u64::from(retries), addr),
            Event::CowCopy {
                order,
                bytes,
                frame,
            } => (4, order, bytes, frame, 0),
            Event::TlbFlush => (5, 0, 0, 0, 0),
            Event::LockRetry { site } => (6, site.as_u8(), 0, 0, 0),
            Event::Reclaim { frames_freed } => (7, 0, frames_freed, 0, 0),
            Event::FrameAlloc { frame, order } => (8, order, frame, 0, 0),
            Event::FrameFree { frame, order } => (9, order, frame, 0, 0),
            Event::MagRefill { order, blocks } => (10, order, blocks, 0, 0),
            Event::MagDrain { order, blocks } => (11, order, blocks, 0, 0),
            Event::BulkFree { blocks, frames } => (12, 0, blocks, frames, 0),
            Event::ReclaimScanStart {
                free_frames,
                low_watermark,
            } => (13, 0, free_frames, low_watermark, 0),
            Event::Evicted {
                frame,
                slot,
                latency_ns,
            } => (14, 0, frame, slot, latency_ns),
            Event::SwappedIn { slot, latency_ns } => (15, 0, slot, latency_ns, 0),
            Event::CollapseStart { va } => (16, 0, va, 0, 0),
            Event::CollapseEnd {
                va,
                frame,
                latency_ns,
            } => (17, 0, va, frame, latency_ns),
            Event::Demote { va, frame } => (18, 0, va, frame, 0),
            Event::CompactScan {
                free_frames,
                frag_milli,
            } => (19, 0, free_frames, frag_milli, 0),
            Event::WalFsync {
                bytes,
                records,
                latency_ns,
            } => (20, 0, bytes, records, latency_ns),
            Event::SnapshotPublish {
                epoch,
                bytes,
                latency_ns,
            } => (21, 0, epoch, bytes, latency_ns),
            Event::RecoveryReplay {
                records,
                latency_ns,
            } => (22, 0, records, latency_ns, 0),
            Event::ReclaimPass {
                pages_evicted,
                free_frames,
                latency_ns,
            } => (23, 0, pages_evicted, free_frames, latency_ns),
            Event::ReclaimBackoff { free_frames } => (24, 0, free_frames, 0, 0),
            Event::ThpPass {
                candidates,
                ops,
                latency_ns,
            } => (25, 0, candidates, ops, latency_ns),
            Event::ThpBackoff { candidates } => (26, 0, candidates, 0, 0),
        }
    }

    /// Inverse of [`Event::encode`]; `None` for an unknown tag (a record
    /// written by a newer producer than this reader).
    fn decode(tag: u8, sub: u8, a: u64, b: u64, c: u64) -> Option<Event> {
        Some(match tag {
            1 => Event::ForkStart {
                policy: ForkPolicyKind::from_u8(sub),
            },
            2 => Event::ForkEnd {
                policy: ForkPolicyKind::from_u8(sub),
                pte_copies: a,
                tables_shared: b,
                latency_ns: c,
            },
            3 => Event::Fault {
                kind: FaultKind::from_u8(sub),
                latency_ns: a,
                retries: b as u32,
                addr: c,
            },
            4 => Event::CowCopy {
                order: sub,
                bytes: a,
                frame: b,
            },
            5 => Event::TlbFlush,
            6 => Event::LockRetry {
                site: LockSite::from_u8(sub),
            },
            7 => Event::Reclaim { frames_freed: a },
            8 => Event::FrameAlloc {
                frame: a,
                order: sub,
            },
            9 => Event::FrameFree {
                frame: a,
                order: sub,
            },
            10 => Event::MagRefill {
                order: sub,
                blocks: a,
            },
            11 => Event::MagDrain {
                order: sub,
                blocks: a,
            },
            12 => Event::BulkFree {
                blocks: a,
                frames: b,
            },
            13 => Event::ReclaimScanStart {
                free_frames: a,
                low_watermark: b,
            },
            14 => Event::Evicted {
                frame: a,
                slot: b,
                latency_ns: c,
            },
            15 => Event::SwappedIn {
                slot: a,
                latency_ns: b,
            },
            16 => Event::CollapseStart { va: a },
            17 => Event::CollapseEnd {
                va: a,
                frame: b,
                latency_ns: c,
            },
            18 => Event::Demote { va: a, frame: b },
            19 => Event::CompactScan {
                free_frames: a,
                frag_milli: b,
            },
            20 => Event::WalFsync {
                bytes: a,
                records: b,
                latency_ns: c,
            },
            21 => Event::SnapshotPublish {
                epoch: a,
                bytes: b,
                latency_ns: c,
            },
            22 => Event::RecoveryReplay {
                records: a,
                latency_ns: b,
            },
            23 => Event::ReclaimPass {
                pages_evicted: a,
                free_frames: b,
                latency_ns: c,
            },
            24 => Event::ReclaimBackoff { free_frames: a },
            25 => Event::ThpPass {
                candidates: a,
                ops: b,
                latency_ns: c,
            },
            26 => Event::ThpBackoff { candidates: a },
            _ => return None,
        })
    }
}

/// One collected record: an [`Event`] plus when and where it happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Small sequential id of the emitting thread.
    pub thread: u32,
    /// The event payload.
    pub event: Event,
}

// ---------------------------------------------------------------------------
// Per-thread seqlock ring
// ---------------------------------------------------------------------------

/// Words per slot: seq, ts, meta (tag|sub|thread), a, b, c.
const SLOT_WORDS: usize = 6;

/// Default per-thread capacity in events (24 KiB per ring). Sized for the
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
    /// Timestamp of the owner thread's most recent record, reused by
    /// [`emit_hot`] to keep sub-events off the clock.
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
    /// in-flight (odd seq), store the payload, publish (even seq).
    fn push(&self, ts: u64, event: &Event) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize & (self.capacity - 1)) * SLOT_WORDS;
        let (tag, sub, a, b, c) = event.encode();
        let meta = u64::from(tag) | (u64::from(sub) << 8) | (u64::from(self.thread) << 32);
        self.words[base].store(2 * h + 1, Ordering::Release);
        self.words[base + 1].store(ts, Ordering::Release);
        self.words[base + 2].store(meta, Ordering::Release);
        self.words[base + 3].store(a, Ordering::Release);
        self.words[base + 4].store(b, Ordering::Release);
        self.words[base + 5].store(c, Ordering::Release);
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
            let ts = self.words[base + 1].load(Ordering::Acquire);
            let meta = self.words[base + 2].load(Ordering::Acquire);
            let a = self.words[base + 3].load(Ordering::Acquire);
            let b = self.words[base + 4].load(Ordering::Acquire);
            let c = self.words[base + 5].load(Ordering::Acquire);
            if self.words[base].load(Ordering::Acquire) != want {
                continue; // torn: overwritten mid-read
            }
            let tag = (meta & 0xFF) as u8;
            let sub = ((meta >> 8) & 0xFF) as u8;
            let thread = (meta >> 32) as u32;
            if let Some(event) = Event::decode(tag, sub, a, b, c) {
                out.push(TraceRecord {
                    ts_ns: ts,
                    thread,
                    event,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Global state: enable flag, epoch, registry
// ---------------------------------------------------------------------------

/// Tri-state so the `ODF_TRACE` environment variable is consulted exactly
/// once, lazily: 0 = unresolved, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[cold]
fn resolve_env() -> bool {
    let on = std::env::var("ODF_TRACE").is_ok_and(|v| v != "0" && !v.is_empty());
    let state = if on { STATE_ON } else { STATE_OFF };
    // A concurrent `set_enabled` wins: only replace the unresolved state.
    let _ = ENABLED.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == STATE_ON
}

/// Is tracing on? One relaxed atomic load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_env(),
    }
}

/// Turns tracing on or off at runtime (overrides `ODF_TRACE`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Freezes the rings for a flight-recorder capture: tracing is switched
/// off so the drop-oldest writers stop overwriting history, and the prior
/// state is returned for [`thaw`]. The rings themselves keep their
/// records — [`snapshot`] after a freeze reads the exact tail that was
/// live at the moment of the anomaly.
pub fn freeze() -> bool {
    let was_on = enabled();
    ENABLED.store(STATE_OFF, Ordering::Relaxed);
    was_on
}

/// Undoes a [`freeze`], restoring the enable state it returned.
pub fn thaw(was_on: bool) {
    if was_on {
        ENABLED.store(STATE_ON, Ordering::Relaxed);
    }
}

/// Event families that can be switched individually while tracing is on —
/// ftrace's per-event `enable` files next to the master `tracing_on`.
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
    /// `Reclaim` (pass summaries) plus the per-decision reclaim events
    /// (`ReclaimScanStart` / `Evicted` / `SwappedIn`) and the daemon's
    /// pass/back-off records (`ReclaimPass` / `ReclaimBackoff`).
    Reclaim,
    /// `FrameAlloc` / `FrameFree` plus the batched allocator transfers
    /// (`MagRefill` / `MagDrain` / `BulkFree`) — **off by default**, like
    /// the kernel's `kmem:mm_page_alloc`/`free` events: every COW fault
    /// allocates a frame, so per-frame records double the fault path's
    /// event volume (and its tracing overhead) while the latency story is
    /// already told by the `Fault` record. Enable for per-frame leak
    /// post-mortems ([`Trace::for_frame`], `assert_pool_balanced` dumps).
    Kmem,
    /// The huge-page lifecycle events (`CollapseStart` / `CollapseEnd` /
    /// `Demote` / `CompactScan` / `ThpPass` / `ThpBackoff`) — the
    /// khugepaged tracepoints. On by
    /// default: promotions/demotions are rare (background-daemon cadence),
    /// so their records cost nothing on the fault path.
    Thp,
    /// The durability events (`WalFsync` / `SnapshotPublish` /
    /// `RecoveryReplay`). On by default: fsyncs and publishes are
    /// group-commit / bgsave cadence, never per-fault.
    Durability,
}

impl EventClass {
    /// Mask bits, indexed by the encode tags of the member variants.
    const fn bits(self) -> u64 {
        match self {
            EventClass::Fork => (1 << 1) | (1 << 2),
            EventClass::Fault => 1 << 3,
            EventClass::CowCopy => 1 << 4,
            EventClass::TlbFlush => 1 << 5,
            EventClass::LockRetry => 1 << 6,
            EventClass::Reclaim => {
                (1 << 7) | (1 << 13) | (1 << 14) | (1 << 15) | (1 << 23) | (1 << 24)
            }
            EventClass::Kmem => (1 << 8) | (1 << 9) | (1 << 10) | (1 << 11) | (1 << 12),
            EventClass::Thp => {
                (1 << 16) | (1 << 17) | (1 << 18) | (1 << 19) | (1 << 25) | (1 << 26)
            }
            EventClass::Durability => (1 << 20) | (1 << 21) | (1 << 22),
        }
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

/// Is every event in `class` currently recorded (given tracing is on)?
pub fn class_enabled(class: EventClass) -> bool {
    CLASS_MASK.load(Ordering::Relaxed) & class.bits() == class.bits()
}

/// Hot-path mask test for one concrete event.
#[inline]
fn class_on(event: &Event) -> bool {
    CLASS_MASK.load(Ordering::Relaxed) & (1 << event.encode().0) != 0
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

/// Records one event in the calling thread's ring buffer.
///
/// When tracing is disabled this is a single relaxed load and a branch;
/// when enabled it never blocks (drop-oldest on overflow) and never
/// allocates after the thread's first event.
#[inline]
pub fn emit(event: Event) {
    if !enabled() || !class_on(&event) {
        return;
    }
    emit_slow(event);
}

#[inline(never)]
fn emit_slow(event: Event) {
    let ts = now_ns();
    THREAD_RING.with(|ring| ring.push(ts, &event));
}

/// Records one event with a caller-supplied timestamp (nanoseconds on the
/// [`now_ns`] clock). For sites that already read the clock — e.g. to
/// compute a latency payload — so the record does not pay a second read.
#[inline]
pub fn emit_at(ts_ns: u64, event: Event) {
    if !enabled() || !class_on(&event) {
        return;
    }
    THREAD_RING.with(|ring| ring.push(ts_ns, &event));
}

/// Records a hot-path sub-event without reading the clock: the timestamp
/// is borrowed from this thread's most recent record (0 if there is none
/// yet). Intended for events that always occur inside an enclosing traced
/// operation (frame alloc/free and COW copies inside a fault or fork):
/// the clock read is the single most expensive part of a record, and a
/// sub-event's ordering is already pinned by its position in the ring, so
/// borrowing the neighbouring timestamp keeps instrumented fault latency
/// within the <5% overhead budget.
#[inline]
pub fn emit_hot(event: Event) {
    if !enabled() || !class_on(&event) {
        return;
    }
    THREAD_RING.with(|ring| {
        let ts = ring.last_ts.load(Ordering::Relaxed);
        ring.push(ts, &event);
    });
}

/// Total records lost to drop-oldest overwrites across all rings.
pub fn dropped_events() -> u64 {
    registry().lock().unwrap().iter().map(|r| r.dropped()).sum()
}

/// Hides all currently-recorded events from future snapshots (the rings
/// themselves are reused). Dropped-event counters are not reset.
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

    /// The last `n` events that reference physical frame `frame`
    /// (COW copies, allocations, frees), oldest first.
    pub fn for_frame(&self, frame: u64, n: usize) -> Vec<TraceRecord> {
        let mut hits: Vec<TraceRecord> = self
            .events
            .iter()
            .filter(|r| r.event.frame() == Some(frame))
            .copied()
            .collect();
        if hits.len() > n {
            hits.drain(..hits.len() - n);
        }
        hits
    }

    /// Builds per-event-class latency/size histograms (p50/p99/p999).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::build(self)
    }

    /// Renders the trace in the chrome://tracing JSON array format
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// `Fault` and `ForkEnd` records carry durations and become complete
    /// (`"ph":"X"`) events spanning their latency; everything else becomes
    /// an instant (`"ph":"i"`) event.
    pub fn chrome_json(&self) -> String {
        export::chrome_json(self)
    }
}

// ---------------------------------------------------------------------------
// Programmable probes (the eBPF-mm attach layer)
// ---------------------------------------------------------------------------

/// A stable attach-point name — where in the stack a [`ProbeContext`] was
/// produced. This is the namespace probes attach to, the analog of a
/// tracepoint name in `bpftrace -l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbePoint {
    /// A page fault was resolved (odf-vm fault handler).
    Fault,
    /// A fork completed (odf-vm fork path).
    Fork,
    /// A CAS install / ownership handoff lost a race (odf-vm).
    LockRetry,
    /// A page was evicted to swap (odf-vm eviction protocol).
    Evict,
    /// A huge-page collapse completed (odf-vm THP mechanism).
    Collapse,
    /// A huge page was demoted back to base PTEs (odf-vm THP mechanism).
    Demote,
    /// A WAL group commit reached stable storage (odf-durability).
    WalCommit,
    /// A reclaim-daemon scan pass completed (odf-reclaim).
    ReclaimPass,
    /// A THP-daemon scan pass completed (odf-thp).
    ThpPass,
    /// An mmu_gather-style batched free flushed blocks (odf-pmem).
    BulkFree,
}

impl ProbePoint {
    /// Every attach point, for `PROBE LIST` style enumeration.
    pub const ALL: [ProbePoint; 10] = [
        Self::Fault,
        Self::Fork,
        Self::LockRetry,
        Self::Evict,
        Self::Collapse,
        Self::Demote,
        Self::WalCommit,
        Self::ReclaimPass,
        Self::ThpPass,
        Self::BulkFree,
    ];

    /// Stable lowercase name (the token probes attach by).
    pub fn label(self) -> &'static str {
        match self {
            Self::Fault => "fault",
            Self::Fork => "fork",
            Self::LockRetry => "lock_retry",
            Self::Evict => "evict",
            Self::Collapse => "collapse",
            Self::Demote => "demote",
            Self::WalCommit => "wal_commit",
            Self::ReclaimPass => "reclaim_pass",
            Self::ThpPass => "thp_pass",
            Self::BulkFree => "bulk_free",
        }
    }

    /// Inverse of [`ProbePoint::label`].
    pub fn from_label(s: &str) -> Option<ProbePoint> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Dense index into [`ProbePoint::ALL`] (for per-point dispatch tables).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The typed context handed to attached probes — deliberately richer than
/// the ring [`Event`] words: it carries the attribution keys (pid, VMA
/// range, kind, order) that per-key aggregation maps group by, which the
/// fixed-width ring records do not have room for. Fields an attach point
/// does not populate are zero.
#[derive(Clone, Copy, Debug)]
pub struct ProbeContext {
    /// Which attach point produced this context.
    pub point: ProbePoint,
    /// Owning process id of the address space involved (0 = unknown/none).
    pub pid: u64,
    /// Virtual address involved (faulting address, collapse base, ...).
    pub addr: u64,
    /// Start of the VMA containing `addr` (0 when not applicable).
    pub vma_start: u64,
    /// End of the VMA containing `addr` (0 when not applicable).
    pub vma_end: u64,
    /// Point-specific kind discriminant: [`FaultKind`] for `fault`,
    /// [`ForkPolicyKind`] for `fork`, [`LockSite`] for `lock_retry`
    /// (each as its `as_u8` value); 0 otherwise.
    pub kind: u8,
    /// Compound order of the page involved (0 = 4 KiB, 9 = 2 MiB).
    pub order: u8,
    /// Wall time of the operation, nanoseconds (0 for instant points).
    pub latency_ns: u64,
    /// Install races lost before the operation succeeded.
    pub retries: u32,
    /// Point-specific magnitude: bytes for `wal_commit`/`bulk_free`,
    /// pages evicted for `reclaim_pass`, WAL sequence lag for
    /// `wal_commit`'s `aux`, candidate count for `thp_pass`, swap slot
    /// for `evict`.
    pub value: u64,
    /// Secondary magnitude (WAL group-commit lag in records, THP ops
    /// applied, ...).
    pub aux: u64,
}

impl ProbeContext {
    /// A zeroed context for `point` — attach sites fill in what they have.
    pub fn at(point: ProbePoint) -> ProbeContext {
        ProbeContext {
            point,
            pid: 0,
            addr: 0,
            vma_start: 0,
            vma_end: 0,
            kind: 0,
            order: 0,
            latency_ns: 0,
            retries: 0,
            value: 0,
            aux: 0,
        }
    }

    /// Human-readable name of the `kind` discriminant, resolved per point
    /// (`cow_data`, `odf`, `pte_install`, ...); the point label itself
    /// for points without a kind.
    pub fn kind_label(&self) -> &'static str {
        match self.point {
            ProbePoint::Fault => FaultKind::from_u8(self.kind).label(),
            ProbePoint::Fork => ForkPolicyKind::from_u8(self.kind).label(),
            ProbePoint::LockRetry => LockSite::from_u8(self.kind).label(),
            p => p.label(),
        }
    }
}

/// Receives every [`ProbeContext`] while probes are active. Implemented by
/// the probe engine (crate `odf-probe`); registered once per process.
pub trait ProbeSink: Send + Sync {
    /// One context, delivered synchronously on the emitting thread.
    fn probe_hit(&self, cx: &ProbeContext);
}

/// Master probe switch: one relaxed load on every instrumented path when
/// nothing is attached (the ~0-overhead requirement).
static PROBE_ACTIVE: AtomicBool = AtomicBool::new(false);

fn probe_sink_cell() -> &'static OnceLock<&'static dyn ProbeSink> {
    static SINK: OnceLock<&'static dyn ProbeSink> = OnceLock::new();
    &SINK
}

/// Registers the process-wide probe sink. The first registration wins
/// (returns `true`); later calls are ignored (`false`).
pub fn register_probe_sink(sink: &'static dyn ProbeSink) -> bool {
    probe_sink_cell().set(sink).is_ok()
}

/// Turns probe dispatch on or off. The engine flips this on the 0 ↔ >0
/// attached-probe transitions so detached steady state costs one load.
pub fn set_probes_active(on: bool) {
    PROBE_ACTIVE.store(on, Ordering::Relaxed);
}

/// Is at least one probe attached? Instrumented sites check this before
/// building a [`ProbeContext`], so context assembly itself is off the
/// fast path when nothing listens.
#[inline]
pub fn probes_active() -> bool {
    PROBE_ACTIVE.load(Ordering::Relaxed)
}

/// How often [`probe_clock_sample`] arms the latency clock: every Nth hit
/// per thread. The monotonic clock read is the single most expensive piece
/// of probe overhead on a sub-microsecond path (two reads cost more than
/// the whole aggregation), so high-frequency sites sample it. `lat_hist`
/// treats `latency_ns == 0` as "hit without measurement": counts stay
/// exact while the latency distribution is built from the deterministic
/// 1-in-N subset.
pub const PROBE_CLOCK_PERIOD: u64 = 16;

thread_local! {
    static PROBE_CLOCK_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Round-robin clock arming for sampled-latency probe sites: true on every
/// [`PROBE_CLOCK_PERIOD`]th call per thread. Callers skip the timestamp
/// pair (and leave `latency_ns` zero) on the misses. The counter is
/// per-thread and deterministic — no RNG, so seeded runs stay reproducible.
#[inline]
pub fn probe_clock_sample() -> bool {
    PROBE_CLOCK_TICK
        .try_with(|c| {
            let v = c.get().wrapping_add(1);
            c.set(v);
            v % PROBE_CLOCK_PERIOD == 0
        })
        .unwrap_or(false)
}

/// Context-detail bit: some attached probe reads the VMA-derived fields
/// (`vma_start`/`vma_end`/`order`), so emit sites must pay the VMA lookup.
pub const DETAIL_VMA: u8 = 1;

/// What attached probes actually read — the eBPF "programs declare their
/// field accesses" idea. Emit sites on sub-microsecond paths check the
/// relevant bit before computing an expensive context field; the engine
/// recomputes the mask on every attach/detach.
static PROBE_DETAIL: AtomicU8 = AtomicU8::new(0);

/// Replaces the context-detail mask (engine-side, on attach/detach).
pub fn set_probe_detail(mask: u8) {
    PROBE_DETAIL.store(mask, Ordering::Relaxed);
}

/// Does any attached probe need the detail behind `bit`?
#[inline]
pub fn probe_detail(bit: u8) -> bool {
    PROBE_DETAIL.load(Ordering::Relaxed) & bit != 0
}

/// Delivers one context to the registered sink, if probes are active.
#[inline]
pub fn probe_hit(cx: &ProbeContext) {
    if !probes_active() {
        return;
    }
    probe_hit_slow(cx);
}

#[inline(never)]
fn probe_hit_slow(cx: &ProbeContext) {
    if let Some(sink) = probe_sink_cell().get() {
        sink.probe_hit(cx);
    }
}

/// Generates a set of relaxed `AtomicU64` counters plus its snapshot type
/// from a single field list, so adding a counter is a one-line change and a
/// forgotten field is *impossible* rather than a silent zero:
///
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

    fn fault(kind: FaultKind, latency_ns: u64) -> Event {
        Event::Fault {
            kind,
            latency_ns,
            retries: 0,
            addr: 0x1000,
        }
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        set_enabled(false);
        clear();
        emit(Event::TlbFlush);
        assert!(snapshot().is_empty() || !enabled());
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let cases = [
            Event::ForkStart {
                policy: ForkPolicyKind::OnDemand,
            },
            Event::ForkEnd {
                policy: ForkPolicyKind::Classic,
                pte_copies: 512,
                tables_shared: 7,
                latency_ns: 1234,
            },
            fault(FaultKind::TableCow, 999),
            Event::CowCopy {
                order: 9,
                bytes: 2 << 20,
                frame: 42,
            },
            Event::TlbFlush,
            Event::LockRetry {
                site: LockSite::PmdOwnership,
            },
            Event::Reclaim { frames_freed: 3 },
            Event::FrameAlloc { frame: 7, order: 0 },
            Event::FrameFree { frame: 7, order: 0 },
            Event::MagRefill {
                order: 0,
                blocks: 32,
            },
            Event::MagDrain {
                order: 9,
                blocks: 4,
            },
            Event::BulkFree {
                blocks: 17,
                frames: 4113,
            },
            Event::ReclaimScanStart {
                free_frames: 12,
                low_watermark: 64,
            },
            Event::Evicted {
                frame: 99,
                slot: 5,
                latency_ns: 1234,
            },
            Event::SwappedIn {
                slot: 5,
                latency_ns: 4321,
            },
            fault(FaultKind::SwapIn, 777),
            Event::CollapseStart { va: 0x20_0000 },
            Event::CollapseEnd {
                va: 0x20_0000,
                frame: 512,
                latency_ns: 88_000,
            },
            Event::Demote {
                va: 0x40_0000,
                frame: 1024,
            },
            Event::CompactScan {
                free_frames: 700,
                frag_milli: 930,
            },
            Event::WalFsync {
                bytes: 4096,
                records: 17,
                latency_ns: 12_345,
            },
            Event::SnapshotPublish {
                epoch: 3,
                bytes: 1 << 20,
                latency_ns: 99_000,
            },
            Event::RecoveryReplay {
                records: 41,
                latency_ns: 55_000,
            },
            Event::ReclaimPass {
                pages_evicted: 64,
                free_frames: 900,
                latency_ns: 42_000,
            },
            Event::ReclaimBackoff { free_frames: 12 },
            Event::ThpPass {
                candidates: 16,
                ops: 3,
                latency_ns: 7_000,
            },
            Event::ThpBackoff { candidates: 16 },
        ];
        for ev in cases {
            let (tag, sub, a, b, c) = ev.encode();
            assert_eq!(Event::decode(tag, sub, a, b, c), Some(ev));
        }
        assert_eq!(Event::decode(0, 0, 0, 0, 0), None);
        assert_eq!(Event::decode(200, 0, 0, 0, 0), None);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = Ring::new(4, 0);
        for i in 0..10u64 {
            ring.push(i, &Event::Reclaim { frames_freed: i });
        }
        assert_eq!(ring.dropped(), 6);
        let mut out = Vec::new();
        ring.collect(&mut out);
        assert_eq!(out.len(), 4);
        // Only the newest four survive, in order.
        let freed: Vec<u64> = out
            .iter()
            .map(|r| match r.event {
                Event::Reclaim { frames_freed } => frames_freed,
                _ => unreachable!(),
            })
            .collect();
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
                w.push(
                    i,
                    &Event::CowCopy {
                        order: 0,
                        bytes: i,
                        frame: i,
                    },
                );
            }
        });
        let mut out = Vec::new();
        for _ in 0..2000 {
            out.clear();
            ring.collect(&mut out);
            for r in &out {
                if let Event::CowCopy { bytes, frame, .. } = r.event {
                    assert_eq!(bytes, frame, "torn record surfaced");
                    assert_eq!(bytes, r.ts_ns, "ts from a different record");
                }
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn emit_snapshot_clear_cycle() {
        set_enabled(true);
        clear();
        emit(fault(FaultKind::CowData, 100));
        emit(Event::TlbFlush);
        let t = snapshot();
        assert!(t.len() >= 2);
        assert!(t
            .events
            .iter()
            .any(|r| matches!(r.event, Event::Fault { .. })));
        clear();
        set_enabled(false);
        // After clear, this thread's prior events are gone. (Other test
        // threads may be emitting concurrently, so only check our own.)
        let t2 = snapshot();
        assert!(!t2
            .events
            .iter()
            .any(|r| r.event == fault(FaultKind::CowData, 100) && r.ts_ns <= t.events[0].ts_ns));
    }

    /// Serializes tests that flip the global class mask.
    fn mask_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn emit_at_and_emit_hot_share_timestamps() {
        let _gate = mask_gate();
        set_enabled(true);
        set_class_enabled(EventClass::Kmem, true);
        clear();
        // emit_at stamps the caller's timestamp; emit_hot borrows the
        // thread's most recent one instead of reading the clock.
        emit_at(7777, fault(FaultKind::DemandZero, 55));
        emit_hot(Event::FrameAlloc {
            frame: 123,
            order: 0,
        });
        let t = snapshot();
        set_enabled(false);
        let at = t
            .events
            .iter()
            .find(|r| r.event == fault(FaultKind::DemandZero, 55))
            .expect("emit_at record");
        assert_eq!(at.ts_ns, 7777);
        let hot = t
            .events
            .iter()
            .find(|r| r.event.frame() == Some(123))
            .expect("emit_hot record");
        assert_eq!(hot.ts_ns, 7777, "sub-event borrows the last timestamp");
        set_class_enabled(EventClass::Kmem, false);
    }

    #[test]
    fn kmem_class_is_masked_by_default() {
        // Per-class switches: frame alloc/free events are dropped at the
        // emit boundary unless EventClass::Kmem is enabled, even with the
        // master switch on. The sentinel frame id must not appear.
        let _gate = mask_gate();
        set_enabled(true);
        assert!(!class_enabled(EventClass::Kmem));
        assert!(class_enabled(EventClass::Fault));
        emit(Event::FrameAlloc {
            frame: 0xDEAD_F00D,
            order: 0,
        });
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
        for ev in [
            Event::MagRefill {
                order: 0,
                blocks: 32,
            },
            Event::MagDrain {
                order: 0,
                blocks: 32,
            },
            Event::BulkFree {
                blocks: 2,
                frames: 513,
            },
        ] {
            assert_eq!(ev.frame(), None, "{ev:?} must not alias a frame id");
            let bit = 1u64 << ev.encode().0;
            assert_eq!(
                EventClass::Kmem.bits() & bit,
                bit,
                "{ev:?} must be gated by the kmem class"
            );
        }
    }

    #[test]
    fn daemon_pass_events_are_class_gated() {
        // The new pass/backoff records ride the daemon classes, so a user
        // muting Reclaim or Thp mutes the timeline rows too.
        for (ev, class) in [
            (
                Event::ReclaimPass {
                    pages_evicted: 1,
                    free_frames: 2,
                    latency_ns: 3,
                },
                EventClass::Reclaim,
            ),
            (
                Event::ReclaimBackoff { free_frames: 2 },
                EventClass::Reclaim,
            ),
            (
                Event::ThpPass {
                    candidates: 1,
                    ops: 1,
                    latency_ns: 1,
                },
                EventClass::Thp,
            ),
            (Event::ThpBackoff { candidates: 1 }, EventClass::Thp),
        ] {
            let bit = 1u64 << ev.encode().0;
            assert_eq!(class.bits() & bit, bit, "{ev:?} not gated by {class:?}");
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
            .any(|r| r.event == fault(FaultKind::CowData, 11)));
        assert!(!t
            .events
            .iter()
            .any(|r| r.event == fault(FaultKind::CowData, 22)));
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
        odf_trace_counters_demo();
    }

    fn odf_trace_counters_demo() {
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
    }

    #[test]
    fn probe_context_kind_labels_resolve_per_point() {
        let mut cx = ProbeContext::at(ProbePoint::Fault);
        cx.kind = FaultKind::TableCow.as_u8();
        assert_eq!(cx.kind_label(), "table_cow");
        let mut cx = ProbeContext::at(ProbePoint::Fork);
        cx.kind = ForkPolicyKind::OnDemand.as_u8();
        assert_eq!(cx.kind_label(), "odf");
        let mut cx = ProbeContext::at(ProbePoint::LockRetry);
        cx.kind = LockSite::PmdOwnership.as_u8();
        assert_eq!(cx.kind_label(), "pmd_ownership");
        let cx = ProbeContext::at(ProbePoint::WalCommit);
        assert_eq!(cx.kind_label(), "wal_commit");
        for p in ProbePoint::ALL {
            assert_eq!(ProbePoint::from_label(p.label()), Some(p));
        }
        assert_eq!(ProbePoint::from_label("nope"), None);
    }

    #[test]
    fn probe_hits_only_reach_the_sink_while_active() {
        struct CountingSink(AtomicU64);
        impl ProbeSink for CountingSink {
            fn probe_hit(&self, _cx: &ProbeContext) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        static SINK: CountingSink = CountingSink(AtomicU64::new(0));
        // First registration wins; re-registration is a no-op.
        let first = register_probe_sink(&SINK);
        assert!(!register_probe_sink(&SINK) || first);
        let cx = ProbeContext::at(ProbePoint::Fault);
        set_probes_active(false);
        let before = SINK.0.load(Ordering::Relaxed);
        probe_hit(&cx);
        assert_eq!(
            SINK.0.load(Ordering::Relaxed),
            before,
            "inactive: no dispatch"
        );
        set_probes_active(true);
        probe_hit(&cx);
        set_probes_active(false);
        if first {
            assert!(
                SINK.0.load(Ordering::Relaxed) > before,
                "active: dispatched"
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
                    event: Event::FrameAlloc {
                        frame: i % 2,
                        order: 0,
                    },
                })
                .collect(),
            dropped: 0,
        };
        let hits = t.for_frame(1, 3);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|r| r.event.frame() == Some(1)));
        assert_eq!(hits.last().unwrap().ts_ns, 9);
        assert!(t.for_frame(99, 3).is_empty());
    }
}
