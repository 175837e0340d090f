//! Figure 8: total cost (fork + subsequent memory accesses) — time
//! reduction of On-demand-fork over fork, as a function of the fraction of
//! memory accessed and the read/write mix.
//!
//! Methodology (paper §5.2.4): allocate a large region, fork (the child
//! stays alive, keeping tables shared), then the parent sequentially
//! accesses the first X% of the region with a given read/write mix via
//! 32 MiB-buffer memcpys. Reported: percentage time reduction of
//! On-demand-fork relative to fork for the whole fork+access phase.
//!
//! Paper reference: ~99% reduction at 0% accessed; benefits shrink as more
//! memory is written (table copies are paid back), but stay positive even
//! at 100% written (4–8%).

use odf_bench as bench;
use odf_core::{ForkPolicy, Process};
use odf_metrics::Stopwatch;

/// Copy-buffer size (the paper uses 32 MiB; scaled down with region).
const COPY_BUF: usize = 4 << 20;

/// Runs fork + access once, returning total ns.
fn run_once(
    proc: &Process,
    size: u64,
    policy: ForkPolicy,
    accessed_pct: u64,
    read_pct: u64,
    buf: &mut [u8],
) -> odf_core::Result<u64> {
    let addr = proc.mmap_anon(size)?;
    proc.populate(addr, size, true)?;

    let sw = Stopwatch::start();
    let child = proc.fork_with(policy)?;
    let accessed = size * accessed_pct / 100;
    // Deterministic read/write interleave at the copy-buffer granularity:
    // out of every 4 blocks, `reads_in_4` are reads.
    let reads_in_4 = (read_pct / 25).min(4);
    let mut block = 0u64;
    let mut at = addr;
    let end = addr + accessed;
    while at < end {
        let len = COPY_BUF.min((end - at) as usize);
        if block % 4 < reads_in_4 {
            proc.read(at, &mut buf[..len])?;
        } else {
            proc.write(at, &buf[..len])?;
        }
        at += len as u64;
        block += 1;
    }
    let total = sw.elapsed_ns();
    child.exit();
    proc.munmap(addr, size)?;
    Ok(total)
}

fn main() {
    bench::banner(
        "Figure 8",
        "total fork+access time reduction of on-demand-fork vs fork",
    );
    // The paper uses 50 GiB; writes materialize data here, so the default
    // is scaled to keep host memory bounded.
    let size = bench::scaled(if bench::fast_mode() {
        256 * bench::MIB
    } else {
        512 * bench::MIB
    });
    // Parent originals + COW copies for written pages.
    let kernel = bench::kernel_for(3 * size);
    let proc = kernel.spawn().expect("spawn");

    let accessed_steps: &[u64] = if bench::fast_mode() {
        &[0, 50, 100]
    } else {
        &[0, 20, 40, 60, 80, 100]
    };
    let mixes: &[u64] = &[100, 75, 50, 25, 0];

    let mut columns = "accessed_pct".to_string();
    for m in mixes {
        columns += &format!(" reduction_pct_at_{m}pct_read");
    }
    let mut report = bench::Report::new("fig8_overall_cost", &columns);

    let mut buf = vec![0u8; COPY_BUF];
    let min_of = |proc: &_, policy, accessed, read_pct, buf: &mut Vec<u8>| {
        (0..bench::reps())
            .map(|_| run_once(proc, size, policy, accessed, read_pct, buf).expect("run"))
            .min()
            .expect("at least one rep")
    };
    for &accessed in accessed_steps {
        let mut cells = vec![accessed.into()];
        for &read_pct in mixes {
            let classic = min_of(&proc, ForkPolicy::Classic, accessed, read_pct, &mut buf);
            let odf = min_of(&proc, ForkPolicy::OnDemand, accessed, read_pct, &mut buf);
            let reduction = 100.0 * (classic as f64 - odf as f64) / classic as f64;
            cells.push(bench::num(reduction, 1));
        }
        report.row(cells);
    }
    report.emit();
    println!(
        "(cells: time reduction of on-demand-fork vs fork; region {} — \
         paper used 50 GiB)",
        bench::fmt_bytes(size)
    );
    println!(
        "Paper reference: ~99% at 0% accessed; at 100% accessed, +8% for \
         100% reads down to +4% for 100% writes."
    );
}
