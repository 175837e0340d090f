//! The simulated virtual memory subsystem — where On-demand-fork lives.
//!
//! This crate is the heart of the reproduction. It implements, over the
//! physical substrate of [`odf_pmem`] and the paging structures of
//! [`odf_pagetable`]:
//!
//! - [`Mm`]: a process address space — VMA tree, page-table tree, and
//!   accounting — protected by a per-process lock (the `mmap_sem` analog).
//! - A software MMU ([`Mm::read`] / [`Mm::write`]): translations walk the
//!   page tables, honor **hierarchical attributes** (the effective write
//!   permission is the AND of the writable bits along the walk, §3.2 of the
//!   paper), set the accessed/dirty bits, and raise page faults.
//! - The page fault handler: demand paging, data-page
//!   copy-on-write, huge-page COW, and — the paper's contribution —
//!   **copy-on-write of shared last-level page tables** (§3.4).
//! - Three fork engines ([`ForkPolicy`]):
//!   [`ForkPolicy::Classic`] (the traditional `copy_page_range` walk that
//!   refcounts every mapped page — also used over huge-page mappings for
//!   Figure 4), [`ForkPolicy::OnDemand`] (share last-level tables, clear
//!   one writable bit per PMD entry, defer everything else to fault time —
//!   §3.1), and [`ForkPolicy::OnDemandHuge`] (the §4 huge-page extension:
//!   share PMD tables describing 2 MiB pages through the PUD entry).
//! - `munmap` / `mremap` / `mprotect` with the shared-table copy-on-write
//!   rules of §3.3, and file-backed mappings through an in-memory page
//!   cache (§3.7).
//! - One shared-table ownership protocol (`share`): every path that
//!   modifies a table a fork may have shared — fault, unmap, remap,
//!   soft-dirty sweep — copies or releases it through the same code.
//!
//! The fork engines perform the same per-entry work as the kernel paths
//! they model (per-PTE `compound_head` + atomic refcount for Classic; one
//! shared-table refcount increment and one PMD bit per 2 MiB for OnDemand),
//! so measured wall-clock time reproduces the paper's scaling shapes.

#![forbid(unsafe_code)]

mod access;
mod error;
mod fault;
mod file;
mod fork;
mod introspect;
mod machine;
mod mm;
mod prot;
mod reclaim;
mod share;
mod snapshot;
mod stats;
mod thp;
mod unmap;
mod vma;
mod walk;

pub use error::{Result, VmError};
pub use file::VmFile;
pub use fork::ForkPolicy;
pub use introspect::{FrameFootprint, PagemapEntry, Smaps, SmapsEntry};
pub use machine::Machine;
pub use mm::{Mm, MmReport};
pub use prot::Prot;
pub use reclaim::{EvictCandidate, EvictDecision, EvictStats};
pub use snapshot::{AddressSpaceView, LeafPage, VmaInfo};
pub use stats::{VmStats, VmStatsSnapshot};
pub use thp::{ThpCandidate, ThpOutcome};
pub use vma::{Backing, MapParams, Vma};

pub use odf_pagetable::{VirtAddr, PTE_TABLE_SPAN};
pub use odf_pmem::{FrameId, HUGE_PAGE_SIZE, PAGE_SIZE};

/// Every source file of the crate, for the tests that guard a rule
/// written in one module only (`share`, `walk`). A file missing from the
/// list fails `every_source_file_is_listed`.
#[cfg(test)]
mod sources {
    const ALL: [(&str, &str); 18] = [
        ("access.rs", include_str!("access.rs")),
        ("error.rs", include_str!("error.rs")),
        ("fault.rs", include_str!("fault.rs")),
        ("file.rs", include_str!("file.rs")),
        ("fork.rs", include_str!("fork.rs")),
        ("introspect.rs", include_str!("introspect.rs")),
        ("lib.rs", include_str!("lib.rs")),
        ("machine.rs", include_str!("machine.rs")),
        ("mm.rs", include_str!("mm.rs")),
        ("prot.rs", include_str!("prot.rs")),
        ("reclaim.rs", include_str!("reclaim.rs")),
        ("share.rs", include_str!("share.rs")),
        ("snapshot.rs", include_str!("snapshot.rs")),
        ("stats.rs", include_str!("stats.rs")),
        ("thp.rs", include_str!("thp.rs")),
        ("unmap.rs", include_str!("unmap.rs")),
        ("vma.rs", include_str!("vma.rs")),
        ("walk.rs", include_str!("walk.rs")),
    ];

    /// `(file name, contents)` of every source file but `module`.
    pub(crate) fn except(module: &str) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        ALL.into_iter().filter(move |&(name, _)| name != module)
    }

    #[test]
    fn every_source_file_is_listed() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".rs") {
                assert!(
                    ALL.iter().any(|&(n, _)| n == name),
                    "src/{name} is not covered by the source guards"
                );
            }
        }
    }
}
