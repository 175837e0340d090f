//! Recovery: rebuild the newest state the snapshot chain allows, then hand
//! the caller the WAL tail to replay on top of it.
//!
//! The flow is mechanism here, policy in the embedder: this module restores
//! *bytes* (a materialized [`SnapshotImage`] plus ordered WAL payloads);
//! the kvstore's `DurableServer` turns them back into a live address space
//! and re-applies the commands. The split keeps odf-durability free of any
//! dependency on the simulated kernel.

use std::sync::Arc;

use odf_snapshot::SnapshotImage;

use crate::chain::ChainStore;
use crate::fs::{FsError, StorageFs};
use crate::stats;
use crate::wal::{Wal, WalConfig, WalRecord};

/// What recovery found and decided — the typed report the crash-injection
/// harness (and operators) interrogate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the chain restored from, `None` when booting fresh.
    pub chain_epoch: Option<u64>,
    /// Images read to materialize the chain (0 when fresh).
    pub chain_links: usize,
    /// Newer manifest rows left out because an image did not load.
    pub rows_skipped: usize,
    /// Whether a manifest existed but was itself unreadable.
    pub manifest_corrupt: bool,
    /// Intact WAL records found past the chain's coverage (to replay).
    pub wal_records_to_replay: u64,
    /// WAL records already covered by the chain (truncation lag).
    pub wal_records_covered: u64,
    /// Records dropped as torn/corrupt/unreachable.
    pub wal_records_discarded: u64,
    /// Did the WAL have a torn tail (repaired during open)?
    pub wal_torn_tail: bool,
}

/// Everything a store needs to resume after a crash.
pub struct Recovered {
    /// The materialized snapshot to restore, if any chain survived.
    pub image: Option<SnapshotImage>,
    /// Caller metadata from the chain tip (empty when fresh).
    pub meta: Vec<u8>,
    /// WAL records newer than the chain, in sequence order — the replay
    /// tail.
    pub records: Vec<WalRecord>,
    /// The live WAL, positioned after the last intact record.
    pub wal: Wal,
    /// The chain store, ready for the next publish.
    pub chain: ChainStore,
    /// What happened.
    pub report: RecoveryReport,
}

/// Entry point: opens chain + WAL in `fs` and assembles the recovery
/// state. Never fails on *corruption* (that degrades to an older chain or
/// a shorter replay tail and is reported); fails only on storage errors.
pub fn open(fs: Arc<dyn StorageFs>, wal_cfg: WalConfig) -> Result<Recovered, FsError> {
    let chain = ChainStore::open(Arc::clone(&fs))?;
    let loaded = chain.load_best()?;
    let (wal, scan) = Wal::open(fs, wal_cfg)?;

    let mut report = RecoveryReport {
        manifest_corrupt: chain.manifest_was_corrupt(),
        wal_records_discarded: scan.discarded,
        wal_torn_tail: scan.torn,
        ..RecoveryReport::default()
    };

    let (image, meta, covered_seq) = match loaded {
        Some(l) => {
            report.chain_epoch = Some(l.tip.epoch);
            report.chain_links = l.links;
            report.rows_skipped = l.skipped;
            (Some(l.image), l.tip.meta, l.tip.wal_seq)
        }
        None => (None, Vec::new(), 0),
    };

    let mut records = scan.records;
    let before = records.len() as u64;
    records.retain(|r| r.seq > covered_seq);
    report.wal_records_to_replay = records.len() as u64;
    report.wal_records_covered = before - records.len() as u64;

    stats::stats().recoveries.bump();
    stats::stats()
        .recovery_records_discarded
        .add(report.wal_records_discarded);

    Ok(Recovered {
        image,
        meta,
        records,
        wal,
        chain,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CrashFs;

    #[test]
    fn fresh_directory_recovers_to_nothing() {
        let fs: Arc<dyn StorageFs> = Arc::new(CrashFs::new());
        let r = open(fs, WalConfig::default()).unwrap();
        assert!(r.image.is_none());
        assert!(r.records.is_empty());
        assert_eq!(r.report, RecoveryReport::default());
    }

    #[test]
    fn wal_tail_past_chain_coverage_is_the_replay_set() {
        let fs: Arc<dyn StorageFs> = Arc::new(CrashFs::new());
        {
            let (mut wal, _) = Wal::open(Arc::clone(&fs), WalConfig::default()).unwrap();
            for i in 0..6u8 {
                wal.append(&[i]).unwrap();
                wal.commit().unwrap();
            }
        }
        // No chain: everything replays.
        let r = open(Arc::clone(&fs), WalConfig::default()).unwrap();
        assert_eq!(r.report.wal_records_to_replay, 6);
        assert_eq!(r.report.wal_records_covered, 0);
        assert_eq!(r.records.first().unwrap().seq, 1);
        assert_eq!(r.records.last().unwrap().payload, [5]);
    }
}
