//! The public API of the repository's crates that the benchmark calls —
//! every item is imported here once, and the rest of the benchmark imports
//! from this module only. A change that renames or re-types one of these
//! breaks the benchmark's build here, in one place, and either keeps the
//! signature or adds a shim in this file; it does not edit a workload.

pub use odf_core::{ForkPolicy, Kernel, KernelStats, Process, UserHeap, PAGE_SIZE};
pub use odf_durability::{
    recover, ChainStore, CrashFs, DurabilityStatsSnapshot, FsyncPolicy, StorageFs, Wal, WalConfig,
};
pub use odf_kvstore::{
    skip_reply, Command, Connection, DurableConfig, DurableServer, Parsed, PerCoreConfig,
    PerCoreServer, RecvBuf, ReplyBuf, ShardedSnapshot, Store,
};
pub use odf_pmem::{FramePool, PageKind, PoolBalance};
pub use odf_snapshot::{capture_delta, capture_full};

/// 2 MiB: the span one last-level page table maps, and so the unit
/// On-demand-fork shares and copies tables in.
pub const TABLE_SPAN: u64 = odf_core::HUGE_PAGE_SIZE as u64;

/// The crates' own event tracing stays off in every run: the benchmark
/// measures from outside. Returns what `trace.enabled` reports.
pub fn program_tracing_off() -> bool {
    odf_trace::set_enabled(false);
    odf_trace::enabled()
}

pub fn durability_stats() -> DurabilityStatsSnapshot {
    odf_durability::stats().snapshot()
}

/// The format of `Store::serialize` (and so of `ShardedSnapshot::dumps` and
/// `DurableServer::dump`): `[items: u64]`, then per item
/// `[klen: u32][vlen: u32][key][value]`. Returns the item count and the
/// `(key, value)` pairs.
pub fn dump_entries(dump: &[u8]) -> (u64, impl Iterator<Item = (&[u8], &[u8])>) {
    let items = u64::from_le_bytes(dump[..8].try_into().expect("item count"));
    let mut rest = &dump[8..];
    let entries = std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let len = |at: usize| u32::from_le_bytes(rest[at..at + 4].try_into().expect("length"));
        let (klen, vlen) = (len(0) as usize, len(4) as usize);
        let (key, value) = rest[8..8 + klen + vlen].split_at(klen);
        rest = &rest[8 + klen + vlen..];
        Some((key, value))
    });
    (items, entries)
}

/// The signatures the workloads rely on, as coercions that stop compiling
/// when one moves. Methods not listed are called with the same receiver
/// types as these.
#[allow(dead_code, clippy::type_complexity)]
fn pinned_signatures() {
    use std::sync::Arc;
    type Vm<T> = odf_core::Result<T>;
    type Persist<T> = Result<T, odf_kvstore::PersistError>;

    // odf-core
    let _: fn(u64) -> Arc<Kernel> = Kernel::new;
    let _: fn(&Arc<Kernel>) -> Vm<Process> = Kernel::spawn;
    let _: fn(&Kernel) -> KernelStats = Kernel::stats;
    let _: fn(&Process, u64) -> Vm<u64> = Process::mmap_anon;
    let _: fn(&Process, u64, u64) -> Vm<()> = Process::munmap;
    let _: fn(&Process, u64, u64, bool) -> Vm<()> = Process::populate;
    let _: fn(&Process, u64, &mut [u8]) -> Vm<()> = Process::read;
    let _: fn(&Process, u64, &[u8]) -> Vm<()> = Process::write;
    let _: fn(&Process, u64) -> Vm<u64> = Process::read_u64;
    let _: fn(&Process, u64, u64) -> Vm<()> = Process::write_u64;
    let _: fn(&Process, ForkPolicy) -> Vm<Process> = Process::fork_with;
    let _: fn(Process) = Process::exit;
    let _: fn(&UserHeap, &Process, u64) -> Vm<u64> = UserHeap::alloc;
    let _: fn(&UserHeap, &Process, u64) -> Vm<()> = UserHeap::free;
    // odf-pmem, reached through `Kernel::machine().pool()`
    let _: fn(&FramePool) -> PoolBalance = FramePool::balance;
    let _: fn(&FramePool, PageKind) -> odf_pmem::Result<odf_pmem::FrameId> = FramePool::alloc_page;
    let _: fn(&FramePool, odf_pmem::FrameId) -> bool = FramePool::ref_dec;
    // odf-kvstore: serving
    let _: fn(&Arc<Kernel>, PerCoreConfig) -> Vm<PerCoreServer> = PerCoreServer::new;
    let _: fn(&PerCoreServer, usize) -> Connection = PerCoreServer::connect_to;
    let _: fn(&PerCoreServer) -> Arc<Process> = PerCoreServer::process;
    let _: fn(&PerCoreServer) -> Vec<ShardedSnapshot> = PerCoreServer::wait_snapshots;
    let _: fn(&mut PerCoreServer) = PerCoreServer::shutdown;
    let _: fn(&Connection, &[u8]) = Connection::send;
    let _: fn(&Connection, usize, &mut Vec<u8>) -> usize = Connection::await_replies;
    // odf-kvstore: the store and the wire format
    let _: fn(&Store, &Process, &[u8]) -> Vm<Option<Vec<u8>>> = Store::get;
    let _: fn(&Store, &Process, &[u8], &[u8]) -> Vm<()> = Store::set;
    let _: fn(&Store, &Process, &[u8]) -> Vm<bool> = Store::del;
    let _: fn(&Store, &Process) -> Vm<Vec<u8>> = Store::serialize;
    let _: fn(&mut RecvBuf, &[u8]) = RecvBuf::push;
    let _: fn(&RecvBuf, &mut Vec<(usize, usize)>) -> Parsed = RecvBuf::parse_command;
    let _: fn(&mut RecvBuf, usize) = RecvBuf::consume;
    let _: fn(&mut ReplyBuf, Option<&[u8]>) = ReplyBuf::bulk;
    let _: fn(&mut ReplyBuf, &mut Vec<u8>) -> usize = ReplyBuf::flush_into;
    // odf-kvstore: the durable server
    let _: fn(
        &Arc<Kernel>,
        Arc<dyn StorageFs>,
        DurableConfig,
    ) -> Persist<(DurableServer, recover::RecoveryReport)> = DurableServer::open;
    let _: fn(&mut DurableServer, &[u8], &[u8]) -> Persist<odf_kvstore::Acked> = DurableServer::set;
    let _: fn(&mut DurableServer, &[u8]) -> Persist<odf_kvstore::Acked> = DurableServer::del;
    let _: fn(&mut DurableServer) -> Persist<()> = DurableServer::bgsave_async;
    let _: fn(&mut DurableServer) -> Persist<Option<(odf_durability::ManifestEntry, u64)>> =
        DurableServer::wait_bgsave;
    let _: fn(&DurableServer) -> Persist<Vec<u8>> = DurableServer::dump;
    // odf-durability
    let _: fn(&CrashFs) -> CrashFs = CrashFs::crash;
    let _: fn(&CrashFs) -> u64 = CrashFs::ops;
    let _: fn(
        Arc<dyn StorageFs>,
        WalConfig,
    ) -> Result<(Wal, odf_durability::WalScan), odf_durability::FsError> = Wal::open;
    let _: fn(&mut Wal, &[u8]) -> Result<u64, odf_durability::FsError> = Wal::append;
    let _: fn(&mut Wal) -> Result<bool, odf_durability::FsError> = Wal::commit;
    let _: fn(
        Arc<dyn StorageFs>,
        WalConfig,
    ) -> Result<recover::Recovered, odf_durability::FsError> = recover::open;
}
