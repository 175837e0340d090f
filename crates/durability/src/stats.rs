//! Global durability counters, exported by the kernel's Prometheus/JSON
//! exporters alongside the vm/pool statistics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

odf_trace::counters! {
    /// Cumulative durability-subsystem counters (process-wide).
    pub struct DurabilityStats / DurabilityStatsSnapshot {
        /// WAL records appended.
        wal_appends,
        /// WAL frame bytes appended (headers + payloads).
        wal_bytes_appended,
        /// Group-commit points reached.
        wal_commits,
        /// fsyncs issued on the active WAL segment.
        wal_fsyncs,
        /// Segment rotations (old segment sealed, new one created).
        wal_segments_rotated,
        /// Whole segments dropped by snapshot-driven truncation.
        wal_segments_truncated,
        /// Snapshot images (full + delta) atomically published.
        snapshots_published,
        /// Encoded snapshot bytes published.
        snapshot_bytes_published,
        /// Recoveries performed (store opens that found prior state).
        recoveries,
        /// WAL records re-applied during recovery.
        recovery_records_replayed,
        /// WAL records dropped at recovery as torn/corrupt/unreachable.
        recovery_records_discarded,
        /// Manifest rows recovery left out: newer than the state it
        /// rebuilt, because an image file did not load.
        recovery_rows_skipped,
        /// Prunes that failed; the files they left wait for the next one.
        prune_failures,
    }
}

/// The process-wide counter set.
pub fn stats() -> &'static DurabilityStats {
    static STATS: OnceLock<DurabilityStats> = OnceLock::new();
    STATS.get_or_init(DurabilityStats::default)
}

/// Highest WAL sequence number appended in this process (high-water mark;
/// concurrent logs race benignly through `fetch_max`).
static WAL_APPENDED_SEQ: AtomicU64 = AtomicU64::new(0);
/// Highest WAL sequence number known durable in this process.
static WAL_DURABLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Records a newly appended WAL sequence number.
pub fn note_appended(seq: u64) {
    WAL_APPENDED_SEQ.fetch_max(seq, Ordering::Relaxed);
}

/// Records a sequence number reaching stable storage.
pub fn note_durable(seq: u64) {
    WAL_DURABLE_SEQ.fetch_max(seq, Ordering::Relaxed);
}

/// The `(appended_seq, durable_seq)` high-water marks.
pub fn wal_seqs() -> (u64, u64) {
    (
        WAL_APPENDED_SEQ.load(Ordering::Relaxed),
        WAL_DURABLE_SEQ.load(Ordering::Relaxed),
    )
}

/// Group-commit lag: records appended but not yet durable
/// (`appended_seq − durable_seq`). The gauge the SLO watchdog budgets
/// against — a lag that stays high means fsyncs are falling behind
/// acknowledgements.
pub fn group_commit_lag() -> u64 {
    let (appended, durable) = wal_seqs();
    appended.saturating_sub(durable)
}
