//! A Redis-like in-memory key-value store on the simulated kernel.
//!
//! This is the application substrate behind the snapshot experiments of the
//! paper (§5.3.3, Tables 4 and 5). Its defining property: **the entire
//! dataset lives inside a simulated process's address space**, allocated
//! through [`odf_core::UserHeap`]. Snapshots therefore work exactly like
//! Redis BGSAVE:
//!
//! 1. the serving process forks (blocking request handling for the
//!    duration of the fork call — the latency spike Table 4 measures),
//! 2. the child walks the *frozen* copy-on-write image of the store and
//!    serializes it, while
//! 3. the parent keeps serving requests, its writes COWing pages (and,
//!    under On-demand-fork, page tables) away from the child's view.
//!
//! Modules:
//!
//! - [`Store`]: the hash table in simulated memory.
//! - [`command`]: the RESP command surface, once — the table (name,
//!   arity, key position), the executor for the data commands, and the
//!   replies that need only the kernel. The wire engine goes through it.
//! - [`PerCoreServer`]: the one wire engine — pinned thread-per-core
//!   workers, zero-copy RESP, SPSC mailboxes for rare cross-shard ops, and
//!   a `BGSAVE` that forks on the worker that parsed it. One shard is the
//!   single event loop of the paper's experiment.
//! - [`DurableServer`]: the crash-consistent variant — every write is
//!   journaled to a WAL before it is applied, and BGSAVE publishes the
//!   forked image into an on-disk snapshot chain (see `odf-durability`).
//! - [`workload`]: a memtier_benchmark-like pipelined traffic generator,
//!   which also plays Redis's `save <n>` rule by sending `BGSAVE` in-band
//!   every n SETs.
//! - [`resp`]: the RESP wire codec (what memtier actually speaks).

#![forbid(unsafe_code)]

pub mod command;
pub mod percore;
mod persist;
pub mod resp;
mod sharded;
mod store;
pub mod workload;

pub use percore::{Connection, PerCoreConfig, PerCoreServer};
pub use persist::{Acked, Command, DurableConfig, DurableServer, PersistError};
pub use resp::{encode_command, skip_reply, Parsed, RecvBuf, ReplyBuf, RespValue};
pub use sharded::{ShardedSnapshot, ShardedStore};
pub use store::Store;
