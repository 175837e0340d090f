//! Crash-consistent durability for the on-demand-fork stack.
//!
//! The paper's flagship workload is Redis bgsave: fork latency matters
//! because the frozen clone is *serialized to disk for recovery*. This
//! crate supplies that disk story:
//!
//! - [`Wal`]: an append-only write-ahead log with length+CRC32 framing,
//!   group commit under an [`FsyncPolicy`], segment rotation,
//!   and stop-at-the-tear torn-tail detection and repair on open.
//! - [`ChainStore`]: an atomic (tmp-write + fsync + rename) publish path
//!   for full/delta [`odf_snapshot::SnapshotImage`]s, indexed by a
//!   checksummed manifest that lists at most two generations (a full image
//!   and the deltas on it); recovery folds the newest generation whose
//!   full image loads, up to its first unreadable delta.
//! - [`recover::open`]: chain restore + WAL tail replay, reporting a typed
//!   [`RecoveryReport`].
//! - [`CrashFs`]: an in-memory journaling-filesystem model that simulates
//!   power loss at any write/fsync boundary — the engine behind the
//!   deterministic crash-injection harness in `tests/`.
//!
//! The invariant everything here serves: after a crash at *any* operation
//! boundary, recovery yields a state equal to some prefix of the write
//! order that includes every acknowledged-durable write, and recovering
//! twice yields the same state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod fs;
pub mod recover;
mod stats;
mod wal;

pub use chain::{ChainStore, LoadedChain, ManifestEntry, MANIFEST};
pub use fs::{CrashFs, CrashMode, CrashPlan, FsError, OpKind, StorageFs};
pub use recover::{Recovered, RecoveryReport};
pub use stats::{group_commit_lag, stats, wal_seqs, DurabilityStats, DurabilityStatsSnapshot};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalRecord, WalScan, FRAME_HEADER, MAX_PAYLOAD};
