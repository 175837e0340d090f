//! Durable serving: WAL-journaled writes + fork-snapshot chains.
//!
//! [`DurableServer`] is the crash-consistent sibling of
//! [`PerCoreServer`](crate::PerCoreServer): every mutation is framed as a
//! [`Command`], appended to the WAL *before* it touches the store
//! (write-ahead), applied, then group-committed; the returned [`Acked`]
//! carries whether the write is already durable under the configured
//! fsync policy. Periodically (or on demand) `bgsave` forks the serving
//! process, captures the frozen child's image (full, or a delta over the
//! previous snapshot), publishes it to the [`ChainStore`], and truncates
//! the WAL segments the snapshot covers.
//!
//! Recovery ([`DurableServer::open`] on a non-empty directory) restores
//! the newest materializable chain into a fresh process via
//! `Kernel::restore`, re-attaches the store handle from the geometry saved
//! in the manifest metadata, and replays the WAL tail. The guarantee, as
//! enforced by the crash-injection harness in `tests/`: the recovered
//! state equals some prefix of the mutation order containing every
//! acknowledged-durable write, no matter where power failed.

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel, Process, SnapshotError, VmError};
use odf_durability::{
    recover, ChainStore, FsError, ManifestEntry, RecoveryReport, StorageFs, Wal, WalConfig,
};
use odf_metrics::Stopwatch;
use odf_snapshot::{capture_delta, capture_full};
use odf_trace::{Hit, Point};

use crate::store::Store;

/// Errors from the durable serving path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The simulated kernel rejected an operation.
    Vm(VmError),
    /// The storage backend failed (or simulated power was lost).
    Fs(FsError),
    /// Snapshot capture/restore failed.
    Snapshot(SnapshotError),
    /// A journaled record or manifest metadata did not decode.
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Vm(e) => write!(f, "vm error: {e:?}"),
            PersistError::Fs(e) => write!(f, "storage error: {e}"),
            PersistError::Snapshot(e) => write!(f, "snapshot error: {e:?}"),
            PersistError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<VmError> for PersistError {
    fn from(e: VmError) -> Self {
        PersistError::Vm(e)
    }
}

impl From<FsError> for PersistError {
    fn from(e: FsError) -> Self {
        PersistError::Fs(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

/// One journaled mutation, as framed into a WAL payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `SET key value`.
    Set {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// `DEL key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
    /// `INCR key`.
    Incr {
        /// The key.
        key: Vec<u8>,
    },
    /// `APPEND key suffix`.
    Append {
        /// The key.
        key: Vec<u8>,
        /// Bytes appended to the value.
        suffix: Vec<u8>,
    },
}

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;
const OP_INCR: u8 = 3;
const OP_APPEND: u8 = 4;

impl Command {
    /// Frames the command as a WAL payload:
    /// `[op u8][klen u32][key]([vlen u32][value])`.
    pub fn encode(&self) -> Vec<u8> {
        fn frame(op: u8, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
            let mut out = Vec::with_capacity(5 + key.len() + value.map_or(0, |v| 4 + v.len()));
            out.push(op);
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            if let Some(v) = value {
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            out
        }
        match self {
            Command::Set { key, value } => frame(OP_SET, key, Some(value)),
            Command::Del { key } => frame(OP_DEL, key, None),
            Command::Incr { key } => frame(OP_INCR, key, None),
            Command::Append { key, suffix } => frame(OP_APPEND, key, Some(suffix)),
        }
    }

    /// Inverse of [`Command::encode`].
    pub fn decode(payload: &[u8]) -> Option<Command> {
        let op = *payload.first()?;
        let mut at = 1usize;
        let mut take = |buf: &[u8]| -> Option<Vec<u8>> {
            let len = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?) as usize;
            let bytes = buf.get(at + 4..at + 4 + len)?.to_vec();
            at += 4 + len;
            Some(bytes)
        };
        let key = take(payload)?;
        let cmd = match op {
            OP_SET => Command::Set {
                key,
                value: take(payload)?,
            },
            OP_DEL => Command::Del { key },
            OP_INCR => Command::Incr { key },
            OP_APPEND => Command::Append {
                key,
                suffix: take(payload)?,
            },
            _ => return None,
        };
        if at != payload.len() {
            return None;
        }
        Some(cmd)
    }
}

/// Store geometry saved in the chain manifest's metadata field, so a
/// restored address space can be re-attached without rehashing: 3 × u64 LE
/// (heap base, heap capacity, header address).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoreMeta {
    heap_base: u64,
    heap_capacity: u64,
    header: u64,
}

impl StoreMeta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&self.heap_base.to_le_bytes());
        out.extend_from_slice(&self.heap_capacity.to_le_bytes());
        out.extend_from_slice(&self.header.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<StoreMeta> {
        if bytes.len() != 24 {
            return None;
        }
        let word =
            |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().ok().unwrap());
        Some(StoreMeta {
            heap_base: word(0),
            heap_capacity: word(1),
            header: word(2),
        })
    }
}

/// Configuration for a [`DurableServer`].
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// Simulated heap capacity for the dataset.
    pub heap_capacity: u64,
    /// Hash bucket count.
    pub buckets: u64,
    /// Fork policy used for snapshots.
    pub fork_policy: ForkPolicy,
    /// Publish delta images after the first full one.
    pub incremental: bool,
    /// Take a snapshot after this many journaled mutations (0 = never
    /// automatically).
    pub snapshot_every: u64,
    /// WAL segment size and fsync policy.
    pub wal: WalConfig,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            heap_capacity: 8 << 20,
            buckets: 256,
            fork_policy: ForkPolicy::OnDemand,
            incremental: true,
            snapshot_every: 0,
            wal: WalConfig::default(),
        }
    }
}

/// Acknowledgement for one journaled mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acked {
    /// The mutation's WAL sequence number.
    pub seq: u64,
    /// Whether the mutation had reached stable storage when the call
    /// returned. A client that saw `durable: true` must find this write
    /// after any crash; `durable: false` writes may legally be lost.
    pub durable: bool,
}

/// A crash-consistent kvstore server: WAL + snapshot chain on a
/// [`StorageFs`], in front of the same simulated-memory [`Store`].
pub struct DurableServer {
    proc: Process,
    store: Store,
    wal: Wal,
    /// `None` only while an async snapshot owns the chain (it moves into
    /// the publisher thread and comes back at [`DurableServer::wait_bgsave`]).
    chain: Option<ChainStore>,
    config: DurableConfig,
    /// Mutations journaled since the last snapshot.
    dirty: u64,
    /// Offset added to the process's checkpoint epoch so published epochs
    /// keep increasing across recoveries (a restored process restarts at
    /// epoch 0).
    epoch_base: u64,
    /// At most one in-flight async snapshot.
    bgsave_job: Option<BgsaveJob>,
}

/// An in-flight [`DurableServer::bgsave_async`] publication: the helper
/// thread owns the frozen child and the chain store; the serving thread
/// keeps the WAL (truncation happens on join, after publish succeeded).
struct BgsaveJob {
    handle: std::thread::JoinHandle<(ChainStore, Result<ManifestEntry, PersistError>)>,
    wal_seq: u64,
    fork_ns: u64,
}

impl DurableServer {
    /// Images in one generation: a full image and the deltas on it. The
    /// chain keeps two generations, so recovery reads at most this many
    /// images and the store names at most twice as many.
    pub const GENERATION_IMAGES: usize = 8;

    /// Opens (or creates) a durable store in `fs`: recovers the newest
    /// materializable snapshot chain, replays the WAL tail, and returns
    /// the live server plus the [`RecoveryReport`] saying what happened.
    pub fn open(
        kernel: &Arc<Kernel>,
        fs: Arc<dyn StorageFs>,
        config: DurableConfig,
    ) -> Result<(DurableServer, RecoveryReport), PersistError> {
        let recovered = recover::open(fs, config.wal)?;
        let report = recovered.report.clone();

        let (proc, store, epoch_base) = match recovered.image {
            Some(image) => {
                let proc = kernel.restore(&image)?;
                let meta = StoreMeta::decode(&recovered.meta)
                    .ok_or(PersistError::Corrupt("store geometry metadata"))?;
                let store = Store::attach(
                    &proc,
                    odf_core::UserHeap::attach(meta.heap_base, meta.heap_capacity),
                    meta.header,
                )?;
                let tip = report.chain_epoch.expect("image implies a chain epoch");
                (proc, store, tip + 1)
            }
            None => {
                let proc = kernel.spawn()?;
                let store = Store::create(&proc, config.heap_capacity, config.buckets)?;
                (proc, store, 0)
            }
        };

        let mut server = DurableServer {
            proc,
            store,
            wal: recovered.wal,
            chain: Some(recovered.chain),
            config,
            dirty: 0,
            epoch_base,
            bgsave_job: None,
        };

        // Replay the WAL tail. Records already passed CRC; a payload that
        // does not decode means a version mismatch, not bit rot.
        let sw = Stopwatch::start();
        let replayed = recovered.records.len() as u64;
        for record in &recovered.records {
            let cmd = Command::decode(&record.payload)
                .ok_or(PersistError::Corrupt("undecodable WAL payload"))?;
            server.apply(&cmd)?;
        }
        if replayed > 0 {
            odf_trace::emit(Hit::new(
                Point::RecoveryReplay,
                &[replayed, sw.elapsed_ns()],
            ));
        }
        odf_durability::stats()
            .recovery_records_replayed
            .add(replayed);

        Ok((server, report))
    }

    /// The serving process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// The store handle.
    pub fn store(&self) -> Store {
        self.store
    }

    /// Highest WAL sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// Applies a command to the in-memory store (no journaling — shared by
    /// the live path and recovery replay, which must behave identically).
    fn apply(&mut self, cmd: &Command) -> Result<(), PersistError> {
        match cmd {
            Command::Set { key, value } => self.store.set(&self.proc, key, value)?,
            Command::Del { key } => {
                self.store.del(&self.proc, key)?;
            }
            Command::Incr { key } => {
                self.store.incr(&self.proc, key)?;
            }
            Command::Append { key, suffix } => {
                self.store.append(&self.proc, key, suffix)?;
            }
        }
        Ok(())
    }

    /// Journal-then-apply-then-commit for one mutation: the write-ahead
    /// ordering means a crash can lose the tail of *un-acknowledged*
    /// writes but can never surface a write the log does not hold.
    fn mutate(&mut self, cmd: Command) -> Result<Acked, PersistError> {
        let seq = self.wal.append(&cmd.encode())?;
        self.apply(&cmd)?;
        let durable = self.wal.commit()?;
        self.dirty += 1;
        if self.config.snapshot_every > 0 && self.dirty >= self.config.snapshot_every {
            self.bgsave()?;
        }
        Ok(Acked { seq, durable })
    }

    /// Journaled `SET`.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<Acked, PersistError> {
        if key.is_empty() {
            return Err(PersistError::Vm(VmError::InvalidArgument));
        }
        self.mutate(Command::Set {
            key: key.to_vec(),
            value: value.to_vec(),
        })
    }

    /// Journaled `DEL` (journaled even when the key is absent — replay is
    /// deterministic either way).
    pub fn del(&mut self, key: &[u8]) -> Result<Acked, PersistError> {
        self.mutate(Command::Del { key: key.to_vec() })
    }

    /// Journaled `INCR`. Validated *before* journaling — with the parse
    /// replay itself runs — so a record that enters the log always replays
    /// cleanly.
    pub fn incr(&mut self, key: &[u8]) -> Result<Acked, PersistError> {
        self.store.next_incr(&self.proc, key)?;
        self.mutate(Command::Incr { key: key.to_vec() })
    }

    /// Journaled `APPEND`.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<Acked, PersistError> {
        if key.is_empty() {
            return Err(PersistError::Vm(VmError::InvalidArgument));
        }
        self.mutate(Command::Append {
            key: key.to_vec(),
            suffix: suffix.to_vec(),
        })
    }

    /// `GET` (reads are not journaled).
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.store.get(&self.proc, key)?)
    }

    /// Forces everything journaled so far to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        Ok(self.wal.sync()?)
    }

    /// Takes and publishes a snapshot now: fork, capture the frozen image
    /// (full, or a delta when configured and a base exists), atomically
    /// publish it to the chain, then truncate WAL segments it covers.
    ///
    /// Synchronous, unlike the wire engine's `BGSAVE`: the durability
    /// story needs a defined order of storage operations (and the
    /// crash-injection harness enumerates exactly that order), so this is
    /// [`DurableServer::bgsave_async`] joined at once — the caller is
    /// blocked for as long as the helper runs.
    pub fn bgsave(&mut self) -> Result<ManifestEntry, PersistError> {
        self.bgsave_async()?;
        let (entry, _) = self.wait_bgsave()?.expect("a snapshot was just started");
        Ok(entry)
    }

    /// Starts a snapshot without blocking the serving thread for the
    /// capture + publish: only the fork call runs here (the paper's
    /// microsecond stall); a helper thread walks the frozen child and
    /// publishes to the chain while this server keeps acking writes.
    /// At most one snapshot is in flight — a second call joins the first.
    ///
    /// WAL truncation is deferred to [`DurableServer::wait_bgsave`], after
    /// publish succeeded, so a crash mid-snapshot recovers from the *prior*
    /// chain plus an intact log (recovery skips records a chain already
    /// covers, so the untruncated overlap is harmless).
    pub fn bgsave_async(&mut self) -> Result<(), PersistError> {
        self.wait_bgsave()?;
        // The stall this thread pays is the whole handshake — fork *and*
        // the epoch advance that must precede the next write — so that,
        // not the fork call alone, is what `wait_bgsave` reports.
        let stall = Stopwatch::start();
        self.dirty = 0;
        // Every applied mutation is journaled first, so the fork below
        // freezes exactly the state through this sequence number.
        let wal_seq = self.wal.appended_seq();
        // The soft-dirty epoch handshake: the child's frozen view is epoch
        // `n`, and the parent moves to `n + 1` before any post-fork write,
        // so the next delta cannot miss one. It advances in full-image
        // mode too: monotone epochs keep chain ordering unambiguous.
        let child = self.proc.fork_with(self.config.fork_policy)?;
        let child_epoch = child.checkpoint_epoch();
        self.proc.advance_checkpoint_epoch()?;
        let fork_ns = stall.elapsed_ns();
        // Rebase the epoch so it keeps increasing across recoveries (the
        // process's own epoch counter restarts at 0 after a restore).
        let epoch = self.epoch_base + child_epoch;
        let meta = StoreMeta {
            heap_base: self.store.heap().base(),
            heap_capacity: self.store.heap().capacity(),
            header: self.store.header_addr(),
        }
        .encode();
        let mut chain = self.chain.take().expect("no snapshot in flight");
        // A delta extends a generation that is not yet full and whose last
        // row is the previous epoch (a failed publish leaves a gap).
        let generation = chain.generation();
        let delta = self.config.incremental
            && child_epoch > 0
            && generation.len() < Self::GENERATION_IMAGES
            && generation.last().is_some_and(|e| e.epoch + 1 == epoch);
        let handle = std::thread::spawn(move || {
            let mut image = if delta {
                capture_delta(child.mm(), child_epoch, child_epoch - 1)
            } else {
                capture_full(child.mm(), child_epoch)
            };
            child.exit();
            image.epoch = epoch;
            image.parent_epoch = if delta { epoch - 1 } else { epoch };
            let result = chain.publish(&image, wal_seq, &meta).map_err(Into::into);
            // A full image retired the generation two back; a failed prune
            // leaves its files to the next.
            if !delta && result.is_ok() && chain.prune().is_err() {
                odf_durability::stats().prune_failures.bump();
            }
            (chain, result)
        });
        self.bgsave_job = Some(BgsaveJob {
            handle,
            wal_seq,
            fork_ns,
        });
        Ok(())
    }

    /// Joins the in-flight async snapshot, if any, returning its manifest
    /// entry and the fork stall (nanoseconds) the serving thread paid.
    pub fn wait_bgsave(&mut self) -> Result<Option<(ManifestEntry, u64)>, PersistError> {
        let Some(job) = self.bgsave_job.take() else {
            return Ok(None);
        };
        let (chain, result) = job.handle.join().expect("snapshot publisher panicked");
        self.chain = Some(chain);
        let entry = result?;
        self.wal.truncate_through(job.wal_seq)?;
        Ok(Some((entry, job.fork_ns)))
    }

    /// Serialized dump of the live store (same format as
    /// [`Store::serialize`]) — what the crash harness diffs against its
    /// oracle.
    pub fn dump(&self) -> Result<Vec<u8>, PersistError> {
        Ok(self.store.serialize(&self.proc)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odf_durability::{CrashFs, FsyncPolicy};

    fn small_kernel() -> Arc<Kernel> {
        Kernel::new(64 << 20)
    }

    fn config() -> DurableConfig {
        DurableConfig {
            heap_capacity: 4 << 20,
            buckets: 64,
            ..DurableConfig::default()
        }
    }

    #[test]
    fn command_encode_decode_round_trips() {
        let cases = [
            Command::Set {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            Command::Del {
                key: b"gone".to_vec(),
            },
            Command::Incr {
                key: b"ctr".to_vec(),
            },
            Command::Append {
                key: b"log".to_vec(),
                suffix: vec![0, 255, 1],
            },
        ];
        for cmd in cases {
            assert_eq!(Command::decode(&cmd.encode()), Some(cmd));
        }
        assert_eq!(Command::decode(&[]), None);
        assert_eq!(Command::decode(&[9, 0, 0, 0, 0]), None);
        // Trailing garbage is rejected.
        let mut enc = Command::Del { key: b"k".to_vec() }.encode();
        enc.push(0);
        assert_eq!(Command::decode(&enc), None);
    }

    #[test]
    fn acked_writes_survive_clean_reopen() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, report) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            assert_eq!(report.chain_epoch, None);
            let ack = srv.set(b"alpha", b"1").unwrap();
            assert!(ack.durable, "Always policy acks durably");
            srv.incr(b"ctr").unwrap();
            srv.append(b"log", b"hello").unwrap();
            srv.del(b"alpha").unwrap();
        }
        let (mut srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.wal_records_to_replay, 4);
        assert_eq!(srv.get(b"alpha").unwrap(), None);
        assert_eq!(srv.get(b"ctr").unwrap().unwrap(), b"1");
        assert_eq!(srv.get(b"log").unwrap().unwrap(), b"hello");
    }

    #[test]
    fn bgsave_truncates_and_recovery_uses_chain_plus_tail() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            for i in 0..20u32 {
                srv.set(format!("k{i}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            let entry = srv.bgsave().unwrap();
            assert_eq!(entry.epoch, 0);
            assert_eq!(entry.wal_seq, 20);
            // Post-snapshot writes live only in the WAL tail.
            srv.set(b"tail", b"yes").unwrap();
            let entry2 = srv.bgsave().unwrap();
            assert_eq!(entry2.epoch, 1, "epochs are monotone");
            srv.set(b"tail2", b"also").unwrap();
        }
        let (mut srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.chain_epoch, Some(1));
        assert_eq!(report.wal_records_to_replay, 1);
        assert_eq!(srv.get(b"k7").unwrap().unwrap(), 7u32.to_le_bytes());
        assert_eq!(srv.get(b"tail").unwrap().unwrap(), b"yes");
        assert_eq!(srv.get(b"tail2").unwrap().unwrap(), b"also");
    }

    #[test]
    fn epochs_stay_monotone_across_recoveries() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            srv.set(b"a", b"1").unwrap();
            srv.bgsave().unwrap();
            srv.set(b"b", b"2").unwrap();
            srv.bgsave().unwrap();
        }
        {
            let (mut srv, report) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            assert_eq!(report.chain_epoch, Some(1));
            srv.set(b"c", b"3").unwrap();
            // First post-recovery snapshot must be a fresh full image at a
            // *newer* epoch than the chain it restored from.
            let entry = srv.bgsave().unwrap();
            assert_eq!(entry.epoch, 2);
            assert_eq!(entry.kind, odf_core::ImageKind::Full);
        }
        let (mut srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.chain_epoch, Some(2));
        for (k, v) in [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")] {
            assert_eq!(srv.get(k).unwrap().unwrap(), v);
        }
    }

    #[test]
    fn a_full_image_starts_each_generation() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let (mut srv, _) = DurableServer::open(&kernel, fs, config()).unwrap();
        let k = DurableServer::GENERATION_IMAGES;
        for i in 0..2 * k + 1 {
            srv.set(b"k", &i.to_le_bytes()).unwrap();
            let entry = srv.bgsave().unwrap();
            let full = entry.kind == odf_core::ImageKind::Full;
            assert_eq!(full, i % k == 0, "snapshot {i}");
        }
    }

    #[test]
    fn invalid_incr_is_rejected_before_journaling() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let (mut srv, _) = DurableServer::open(&kernel, fs, config()).unwrap();
        srv.set(b"text", b"not-a-number").unwrap();
        let before = srv.wal.appended_seq();
        assert!(matches!(
            srv.incr(b"text"),
            Err(PersistError::Vm(VmError::InvalidArgument))
        ));
        assert_eq!(srv.wal.appended_seq(), before, "no record journaled");
    }

    #[test]
    fn async_bgsave_acks_writes_while_publishing() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            for i in 0..30u32 {
                srv.set(format!("k{i}").as_bytes(), &i.to_le_bytes())
                    .unwrap();
            }
            srv.bgsave_async().unwrap();
            // The serving thread is free immediately: journaled writes are
            // acked while the helper thread publishes the frozen image.
            let ack = srv.set(b"during", b"snapshot").unwrap();
            assert!(ack.durable);
            let (entry, fork_ns) = srv.wait_bgsave().unwrap().expect("one job in flight");
            assert_eq!(entry.epoch, 0);
            assert_eq!(entry.wal_seq, 30, "image covers exactly the pre-fork log");
            assert!(fork_ns > 0);
            assert!(srv.wait_bgsave().unwrap().is_none(), "join is idempotent");
            // A second async snapshot picks up the write made during the
            // first one.
            srv.bgsave_async().unwrap();
            let (entry2, _) = srv.wait_bgsave().unwrap().unwrap();
            assert_eq!(entry2.epoch, 1);
            assert_eq!(entry2.wal_seq, 31);
        }
        let (mut srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.chain_epoch, Some(1));
        assert_eq!(report.wal_records_to_replay, 0);
        assert_eq!(srv.get(b"k7").unwrap().unwrap(), 7u32.to_le_bytes());
        assert_eq!(srv.get(b"during").unwrap().unwrap(), b"snapshot");
    }

    #[test]
    fn sync_bgsave_joins_an_in_flight_async_job_first() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let (mut srv, _) = DurableServer::open(&kernel, fs, config()).unwrap();
        srv.set(b"a", b"1").unwrap();
        srv.bgsave_async().unwrap();
        srv.set(b"b", b"2").unwrap();
        // The sync path must first join the async job (it owns the chain),
        // then publish its own newer image.
        let entry = srv.bgsave().unwrap();
        assert_eq!(entry.epoch, 1);
        assert_eq!(entry.wal_seq, 2);
    }

    #[test]
    fn every_n_policy_reports_undurable_acks() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let cfg = DurableConfig {
            wal: WalConfig {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(4),
            },
            ..config()
        };
        let (mut srv, _) = DurableServer::open(&kernel, fs, cfg).unwrap();
        let a1 = srv.set(b"a", b"1").unwrap();
        assert!(!a1.durable);
        srv.set(b"b", b"2").unwrap();
        srv.set(b"c", b"3").unwrap();
        let a4 = srv.set(b"d", b"4").unwrap();
        assert!(a4.durable, "4th commit crosses the EveryN(4) boundary");
        assert_eq!(srv.durable_seq(), 4);
    }
}
