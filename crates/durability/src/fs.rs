//! The storage abstraction the durability layer writes through.
//!
//! Everything in this crate — WAL segments, snapshot images, the chain
//! manifest — goes through [`StorageFs`], a deliberately small flat-namespace
//! file API with *explicit* durability points (`fsync`, `sync_dir`). Its
//! one implementation here is [`CrashFs`]: an in-memory model of a
//! journaling filesystem that tracks, per file, which prefix has reached
//! "stable storage" and which directory entries have been persisted. It can
//! be armed to simulate power loss at any mutating-operation boundary, which
//! is what the crash-injection harness in `tests/` enumerates. The model
//! follows ext4-like semantics: `fsync(file)` persists both the file's
//! contents and its directory entry; `rename`/`remove` become durable only
//! after `sync_dir`; un-fsynced appends may survive *partially* (torn tail)
//! — see [`CrashMode`]. Tests wrap it in fakes that inject errors.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Errors surfaced by a [`StorageFs`] operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// The simulated machine lost power: this handle is dead, every
    /// subsequent operation fails. Recover via [`CrashFs::crash`].
    Crashed,
    /// The named file does not exist.
    NotFound(String),
    /// A storage I/O error. [`CrashFs`] never raises it; error-injecting
    /// [`StorageFs`] wrappers in tests do.
    Io(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Crashed => write!(f, "storage crashed (simulated power loss)"),
            FsError::NotFound(name) => write!(f, "file not found: {name}"),
            FsError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for FsError {}

/// A flat-namespace file store with explicit durability points.
///
/// Names are plain file names (no path separators). Reads observe the
/// *live* state — a process always sees its own un-fsynced writes; only a
/// crash reveals what was actually durable.
pub trait StorageFs: Send + Sync {
    /// Creates (or truncates) a file.
    fn create(&self, name: &str) -> Result<(), FsError>;
    /// Appends bytes to an existing file.
    fn append(&self, name: &str, data: &[u8]) -> Result<(), FsError>;
    /// Forces the file's contents — and, ext4-like, its directory entry —
    /// to stable storage.
    fn fsync(&self, name: &str) -> Result<(), FsError>;
    /// Reads the whole file (live view).
    fn read(&self, name: &str) -> Result<Vec<u8>, FsError>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    /// Durable only after [`StorageFs::sync_dir`] (or an fsync of the file
    /// under its new name).
    fn rename(&self, from: &str, to: &str) -> Result<(), FsError>;
    /// Unlinks a file. Durable only after [`StorageFs::sync_dir`].
    fn remove(&self, name: &str) -> Result<(), FsError>;
    /// Forces the directory itself (the set of live names) to stable
    /// storage.
    fn sync_dir(&self) -> Result<(), FsError>;
    /// All live file names, sorted.
    fn list(&self) -> Result<Vec<String>, FsError>;
    /// Does the named file exist (live view)?
    fn exists(&self, name: &str) -> Result<bool, FsError>;
}

// ---------------------------------------------------------------------------
// CrashFs — the crash-injection model
// ---------------------------------------------------------------------------

/// The kind of a mutating operation, as recorded in the op log. The
/// crash-injection harness replays a workload once to collect this log,
/// then re-runs it once per boundary with a [`CrashPlan`] armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `create`.
    Create,
    /// `append`.
    Append,
    /// `fsync`.
    Fsync,
    /// `rename`.
    Rename,
    /// `remove`.
    Remove,
    /// `sync_dir`.
    SyncDir,
}

/// How the armed crash fires at its boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Power is lost *before* the operation takes any effect.
    Before,
    /// Only meaningful on an `fsync`: the writeback was in flight when
    /// power failed, so half of the un-synced bytes (rounded up) reach the
    /// platter — and the directory entry is persisted — but the rest is
    /// lost. This is what produces torn WAL tails.
    TornFsync,
}

/// An armed crash: power fails at the `at`-th mutating operation.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Mutating-op index (0-based, as counted by [`CrashFs::ops`]) at
    /// which to fail.
    pub at: u64,
    /// What the failing operation leaves behind.
    pub mode: CrashMode,
}

/// A file's bytes. `crash()` hands the rebooted store the same allocation,
/// cut to the synced prefix by `len`; a side copies only when it writes
/// while the other still holds the bytes.
#[derive(Clone, Default)]
struct Inode {
    /// The file is `data[..len]`; bytes past `len` belong to another store
    /// sharing the allocation.
    data: Arc<Vec<u8>>,
    len: usize,
    /// Bytes of the file that have reached stable storage.
    synced: usize,
}

impl Inode {
    fn bytes(&self) -> &[u8] {
        &self.data[..self.len]
    }

    fn append(&mut self, bytes: &[u8]) {
        if Arc::get_mut(&mut self.data).is_none() {
            // Shared with another store: copy this file's bytes, not the
            // other store's tail.
            self.data = Arc::new(self.bytes().to_vec());
        }
        let data = Arc::get_mut(&mut self.data).expect("unshared");
        data.truncate(self.len);
        data.extend_from_slice(bytes);
        self.len = data.len();
    }
}

#[derive(Default)]
struct CrashState {
    /// Files by inode number; an inode goes once no directory names it.
    inodes: BTreeMap<usize, Inode>,
    /// Live directory: what the running process sees.
    live: BTreeMap<String, usize>,
    /// Durable directory: the entries that survive power loss.
    durable: BTreeMap<String, usize>,
    /// Mutating operations performed so far.
    ops: u64,
    /// Kinds of the mutating operations, in order.
    op_log: Vec<OpKind>,
    plan: Option<CrashPlan>,
    dead: bool,
}

impl CrashState {
    fn create(&mut self, inode: Inode) -> usize {
        // A freed number is free to reuse: no name refers to it.
        let ino = self.inodes.last_key_value().map_or(0, |(&i, _)| i + 1);
        self.inodes.insert(ino, inode);
        ino
    }

    /// The inode `name` names in the live directory.
    fn named(&self, name: &str) -> Result<usize, FsError> {
        let ino = self.live.get(name).copied();
        ino.ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Frees the bytes of an inode that lost a name, unless either
    /// directory still names it.
    fn release(&mut self, ino: Option<usize>) {
        let mut names = self.live.values().chain(self.durable.values());
        if let Some(ino) = ino.filter(|ino| !names.any(|n| n == ino)) {
            self.inodes.remove(&ino);
        }
    }

    /// Writes back `name`'s pending bytes — all of them, or half (rounded
    /// up) when `torn` — and persists its directory entry.
    fn writeback(&mut self, name: &str, torn: bool) -> Result<(), FsError> {
        let ino = self.named(name)?;
        let inode = self.inodes.get_mut(&ino).expect("named inode");
        let pending = inode.len - inode.synced;
        inode.synced += if torn { pending.div_ceil(2) } else { pending };
        let old = self.durable.insert(name.to_string(), ino);
        self.release(old);
        Ok(())
    }

    /// Gate for every mutating op: counts the op, fires the armed crash at
    /// its boundary. A [`CrashMode::TornFsync`] firing at an fsync of
    /// `fsync_target` writes half its pending bytes back first.
    fn enter(&mut self, kind: OpKind, fsync_target: Option<&str>) -> Result<(), FsError> {
        self.alive()?;
        if let Some(plan) = self.plan {
            if self.ops == plan.at {
                if let Some(name) = fsync_target.filter(|_| plan.mode == CrashMode::TornFsync) {
                    // A file that is not there has nothing to write back.
                    let _ = self.writeback(name, true);
                }
                self.dead = true;
                return Err(FsError::Crashed);
            }
        }
        self.ops += 1;
        self.op_log.push(kind);
        Ok(())
    }

    /// Fails once the armed crash has fired.
    fn alive(&self) -> Result<&CrashState, FsError> {
        (!self.dead).then_some(self).ok_or(FsError::Crashed)
    }
}

/// In-memory journaling-filesystem model with simulated power loss.
///
/// Cloning shares the underlying state (it is a handle). See the module
/// docs for the durability semantics modeled.
#[derive(Clone, Default)]
pub struct CrashFs {
    state: Arc<Mutex<CrashState>>,
}

impl CrashFs {
    /// An empty store, no crash armed.
    pub fn new() -> CrashFs {
        CrashFs::default()
    }

    /// Arms a crash at mutating-op index `plan.at`.
    pub fn arm(&self, plan: CrashPlan) {
        self.state.lock().unwrap().plan = Some(plan);
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// The kinds of all mutating operations performed, in order.
    pub fn op_log(&self) -> Vec<OpKind> {
        self.state.lock().unwrap().op_log.clone()
    }

    /// Has the armed crash fired?
    pub fn is_dead(&self) -> bool {
        self.state.lock().unwrap().dead
    }

    /// The state a fresh boot would find: only durable directory entries,
    /// each file truncated to its synced prefix. Returns a new, live,
    /// un-armed store ("the disk after the machine restarts").
    pub fn crash(&self) -> CrashFs {
        let s = self.state.lock().unwrap();
        let mut next = CrashState::default();
        for (name, ino) in &s.durable {
            let src = &s.inodes[ino];
            let idx = next.create(Inode {
                data: Arc::clone(&src.data),
                len: src.synced,
                synced: src.synced,
            });
            next.live.insert(name.clone(), idx);
            next.durable.insert(name.clone(), idx);
        }
        CrashFs {
            state: Arc::new(Mutex::new(next)),
        }
    }
}

impl StorageFs for CrashFs {
    fn create(&self, name: &str) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::Create, None)?;
        let ino = s.create(Inode::default());
        let old = s.live.insert(name.to_string(), ino);
        s.release(old);
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::Append, None)?;
        let ino = s.named(name)?;
        s.inodes.get_mut(&ino).expect("named inode").append(data);
        Ok(())
    }

    fn fsync(&self, name: &str) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::Fsync, Some(name))?;
        s.writeback(name, false)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        let s = self.state.lock().unwrap();
        Ok(s.inodes[&s.alive()?.named(name)?].bytes().to_vec())
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::Rename, None)?;
        let ino = s
            .live
            .remove(from)
            .ok_or_else(|| FsError::NotFound(from.to_string()))?;
        let old = s.live.insert(to.to_string(), ino);
        s.release(old);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::Remove, None)?;
        let ino = s
            .live
            .remove(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        s.release(Some(ino));
        Ok(())
    }

    fn sync_dir(&self) -> Result<(), FsError> {
        let mut s = self.state.lock().unwrap();
        s.enter(OpKind::SyncDir, None)?;
        let s = &mut *s;
        for ino in std::mem::replace(&mut s.durable, s.live.clone()).into_values() {
            s.release(Some(ino));
        }
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        let s = self.state.lock().unwrap();
        Ok(s.alive()?.live.keys().cloned().collect())
    }

    fn exists(&self, name: &str) -> Result<bool, FsError> {
        let s = self.state.lock().unwrap();
        Ok(s.alive()?.live.contains_key(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_data_is_lost_on_crash() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"hello").unwrap();
        fs.fsync("a").unwrap();
        fs.append("a", b" world").unwrap();
        let after = fs.crash();
        assert_eq!(after.read("a").unwrap(), b"hello");
    }

    #[test]
    fn unsynced_dentry_is_lost_on_crash() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"x").unwrap();
        // Never fsynced, never sync_dir'd: the file vanishes entirely.
        let after = fs.crash();
        assert!(!after.exists("a").unwrap());
    }

    #[test]
    fn fsync_persists_the_dentry_too() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"x").unwrap();
        fs.fsync("a").unwrap();
        let after = fs.crash();
        assert_eq!(after.read("a").unwrap(), b"x");
    }

    #[test]
    fn rename_needs_sync_dir_to_survive() {
        let fs = CrashFs::new();
        fs.create("t.tmp").unwrap();
        fs.append("t.tmp", b"data").unwrap();
        fs.fsync("t.tmp").unwrap();
        fs.rename("t.tmp", "t").unwrap();
        // Without sync_dir the old name is what survives.
        let after = fs.crash();
        assert!(after.exists("t.tmp").unwrap());
        assert!(!after.exists("t").unwrap());
        // With sync_dir the rename is durable.
        fs.sync_dir().unwrap();
        let after2 = fs.crash();
        assert!(!after2.exists("t.tmp").unwrap());
        assert_eq!(after2.read("t").unwrap(), b"data");
    }

    #[test]
    fn armed_crash_fires_before_the_op_and_stays_dead() {
        let fs = CrashFs::new();
        fs.create("a").unwrap(); // op 0
        fs.arm(CrashPlan {
            at: 1,
            mode: CrashMode::Before,
        });
        assert_eq!(fs.append("a", b"x"), Err(FsError::Crashed)); // op 1: dies
        assert_eq!(fs.read("a"), Err(FsError::Crashed));
        assert_eq!(fs.fsync("a"), Err(FsError::Crashed));
        assert!(fs.is_dead());
    }

    #[test]
    fn torn_fsync_persists_half_the_pending_bytes() {
        let fs = CrashFs::new();
        fs.create("a").unwrap(); // op 0
        fs.append("a", b"0123456789").unwrap(); // op 1
        fs.arm(CrashPlan {
            at: 2,
            mode: CrashMode::TornFsync,
        });
        assert_eq!(fs.fsync("a"), Err(FsError::Crashed)); // op 2: torn
        let after = fs.crash();
        assert_eq!(after.read("a").unwrap(), b"01234");
    }

    #[test]
    fn op_log_records_kinds_in_order() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"x").unwrap();
        fs.fsync("a").unwrap();
        fs.sync_dir().unwrap();
        assert_eq!(
            fs.op_log(),
            vec![
                OpKind::Create,
                OpKind::Append,
                OpKind::Fsync,
                OpKind::SyncDir
            ]
        );
        assert_eq!(fs.ops(), 4);
    }

    #[test]
    fn a_crashed_copy_shares_the_synced_bytes() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"synced").unwrap();
        fs.fsync("a").unwrap();
        fs.append("a", b" pending").unwrap();
        let after = fs.crash();
        let data = |fs: &CrashFs| {
            let s = fs.state.lock().unwrap();
            Arc::clone(&s.inodes[&s.live["a"]].data)
        };
        assert!(Arc::ptr_eq(&data(&fs), &data(&after)));
        assert_eq!(after.read("a").unwrap(), b"synced");
    }

    #[test]
    fn appends_after_a_crash_leave_the_other_side_unchanged() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"synced").unwrap();
        fs.fsync("a").unwrap();
        fs.append("a", b" pending").unwrap();
        let after = fs.crash();
        after.append("a", b"+rebooted").unwrap();
        fs.append("a", b"+original").unwrap();
        assert_eq!(after.read("a").unwrap(), b"synced+rebooted");
        assert_eq!(fs.read("a").unwrap(), b"synced pending+original");
        // A second crash of each side sees only what that side synced.
        after.fsync("a").unwrap();
        assert_eq!(after.crash().read("a").unwrap(), b"synced+rebooted");
        assert_eq!(fs.crash().read("a").unwrap(), b"synced");
    }

    #[test]
    fn crashing_a_torn_fsync_and_then_its_copy_is_stable() {
        let fs = CrashFs::new();
        fs.create("a").unwrap(); // op 0
        fs.append("a", b"0123456789").unwrap(); // op 1
        fs.arm(CrashPlan {
            at: 2,
            mode: CrashMode::TornFsync,
        });
        assert_eq!(fs.fsync("a"), Err(FsError::Crashed)); // op 2: torn
        let once = fs.crash();
        let twice = once.crash();
        assert_eq!(once.read("a").unwrap(), b"01234");
        assert_eq!(twice.read("a").unwrap(), b"01234");
        once.append("a", b"x").unwrap();
        assert_eq!(twice.read("a").unwrap(), b"01234");
        assert_eq!(twice.crash().read("a").unwrap(), b"01234");
    }

    #[test]
    fn a_file_no_directory_names_is_freed() {
        let fs = CrashFs::new();
        let held = |fs: &CrashFs| fs.state.lock().unwrap().inodes.len();
        for name in ["a", "b", "c"] {
            fs.create(name).unwrap();
            fs.append(name, b"bytes").unwrap();
            fs.fsync(name).unwrap();
        }
        fs.sync_dir().unwrap();
        // Removed but still durable: a crash would bring it back.
        fs.remove("a").unwrap();
        assert_eq!(held(&fs), 3);
        fs.sync_dir().unwrap();
        assert_eq!(held(&fs), 2);
        // Renamed over, and created over: the replaced bytes go once the
        // directory is synced.
        fs.rename("b", "c").unwrap();
        fs.create("c").unwrap();
        fs.sync_dir().unwrap();
        assert_eq!(held(&fs), 1);
        assert!(fs.crash().read("c").unwrap().is_empty());
    }

    #[test]
    fn crash_of_crash_is_stable() {
        let fs = CrashFs::new();
        fs.create("a").unwrap();
        fs.append("a", b"abc").unwrap();
        fs.fsync("a").unwrap();
        let once = fs.crash();
        let twice = once.crash();
        assert_eq!(once.read("a").unwrap(), twice.read("a").unwrap());
    }
}
