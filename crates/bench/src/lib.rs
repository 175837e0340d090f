//! Shared infrastructure for the paper-reproduction benchmarks.
//!
//! Each bench target in `benches/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md §3 for the full index), prints and
//! writes its rows through [`Report`], and asserts the claims its rows
//! must show. This library holds the common pieces: scaling knobs, the
//! fill-then-fork microbenchmark core (the program of the paper's Figure
//! 1), the fault pass and paired off/on loop, and [`Report`].
//!
//! Scaling knobs (environment variables; a value that is not a positive
//! number panics):
//!
//! - `ODF_BENCH_SCALE`: multiplies simulated region sizes (default 1.0).
//! - `ODF_BENCH_FAST`: if set, shrinks sweeps and durations for smoke
//!   runs.
//! - `ODF_BENCH_REPS`: repetitions per configuration (default 3; the
//!   paper uses 5).

#![forbid(unsafe_code)]

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use odf_core::{ForkPolicy, Kernel, Process, Result};
use odf_metrics::Stopwatch;

pub use odf_metrics::{fmt_bytes, fmt_ns, Histogram, Summary, Throughput};

/// One mebibyte.
pub const MIB: u64 = 1 << 20;
/// One gibibyte.
pub const GIB: u64 = 1 << 30;
const PAGE: u64 = 4096;

/// A numeric environment knob.
struct Knob<T> {
    var: &'static str,
    default: T,
    valid: fn(&T) -> bool,
}

const SCALE: Knob<f64> = Knob {
    var: "ODF_BENCH_SCALE",
    default: 1.0,
    valid: |s| s.is_finite() && *s > 0.0,
};

const REPS: Knob<usize> = Knob {
    var: "ODF_BENCH_REPS",
    default: 3,
    valid: |&r| r > 0,
};

impl<T: FromStr + Copy> Knob<T> {
    fn read(&self) -> T {
        let raw = std::env::var_os(self.var).map(|v| v.to_string_lossy().into_owned());
        self.parse(raw.as_deref())
    }

    /// Unset means the default; anything else must parse and be valid, so
    /// a typo cannot silently turn a smoke run into a paper-scale one.
    fn parse(&self, raw: Option<&str>) -> T {
        match raw.map(|r| (r, r.parse())) {
            None => self.default,
            Some((_, Ok(v))) if (self.valid)(&v) => v,
            Some((raw, _)) => panic!("{}={raw:?} is not a positive number", self.var),
        }
    }
}

/// Reads the global size multiplier.
pub fn scale() -> f64 {
    SCALE.read()
}

/// Whether fast (smoke) mode is on.
pub fn fast_mode() -> bool {
    std::env::var_os("ODF_BENCH_FAST").is_some()
}

/// Repetitions per configuration.
pub fn reps() -> usize {
    REPS.read()
}

/// Scales a byte size by `ODF_BENCH_SCALE`, rounding to whole MiB.
pub fn scaled(bytes: u64) -> u64 {
    let s = (bytes as f64 * scale()) as u64;
    s.next_multiple_of(MIB).max(MIB)
}

/// The full size sweep of Figures 2, 4, and 7 (the paper sweeps 0.5–50 GiB
/// in 512 MiB steps; we sweep the same decades in powers of two).
const FULL_SWEEP: [u64; 7] = [
    128 * MIB,
    256 * MIB,
    512 * MIB,
    GIB,
    2 * GIB,
    4 * GIB,
    8 * GIB,
];

/// The size sweep used by Figures 2, 4, and 7, scaled; fast mode keeps its
/// two smallest decades.
pub fn size_sweep() -> Vec<u64> {
    let sizes: &[u64] = if fast_mode() {
        &[128 * MIB, 512 * MIB]
    } else {
        &FULL_SWEEP
    };
    sizes.iter().map(|&b| scaled(b)).collect()
}

/// Simulated memory for a machine that holds `working_set` bytes: the set,
/// 1/16 of it and 64 MiB. Page tables take ~1/512 of the set (twice once a
/// Classic fork copies them); the rest covers upper levels, heap metadata,
/// COW copies in fault benchmarks, and keeps free memory above the pool's
/// low watermark (total/32) after the fill. Below it, `Mm::fork` reclaims
/// before it forks, and a fork row would time eviction.
fn machine_bytes(working_set: u64) -> u64 {
    working_set + working_set / 16 + 64 * MIB
}

/// Builds a kernel sized to comfortably hold `working_set` bytes of
/// simulated memory (see [`machine_bytes`]).
pub fn kernel_for(working_set: u64) -> Arc<Kernel> {
    Kernel::new(machine_bytes(working_set))
}

/// The microbenchmark core (the paper's Figure 1 program): map `size`
/// bytes of private anonymous memory, fill it, then time one fork; the
/// child exits immediately and teardown completes before return.
pub fn fill_and_time_fork(proc: &Process, size: u64, policy: ForkPolicy) -> Result<u64> {
    let addr = proc.mmap_anon(size)?;
    proc.populate(addr, size, true)?;
    let sw = Stopwatch::start();
    let child = proc.fork_with(policy)?;
    let ns = sw.elapsed_ns();
    child.exit();
    proc.munmap(addr, size)?;
    Ok(ns)
}

/// Same, but with a 2 MiB-huge-page-backed buffer (Figure 4).
pub fn fill_and_time_fork_huge(proc: &Process, size: u64) -> Result<u64> {
    let addr = proc.mmap_anon_huge(size)?;
    proc.populate(addr, size, true)?;
    let sw = Stopwatch::start();
    let child = proc.fork_with(ForkPolicy::Classic)?;
    let ns = sw.elapsed_ns();
    child.exit();
    proc.munmap(addr, size)?;
    Ok(ns)
}

/// Runs `f` `reps()` times and returns (mean ns, min ns).
pub fn repeat(mut f: impl FnMut() -> Result<u64>) -> Result<(f64, u64)> {
    let mut sum = 0u64;
    let mut min = u64::MAX;
    let n = reps() as u64;
    for _ in 0..n {
        let ns = f()?;
        sum += ns;
        min = min.min(ns);
    }
    Ok((sum as f64 / n as f64, min))
}

/// The fault microbenchmark: fork `proc` under `policy`, write-fault every
/// page of `size` bytes at `addr` in the child, and return the per-fault
/// latency distribution and the pass's wall time.
pub fn fault_pass(proc: &Process, addr: u64, size: u64, policy: ForkPolicy) -> (Histogram, u64) {
    let child = proc.fork_with(policy).expect("fork");
    let mut hist = Histogram::new();
    let sw = Stopwatch::start();
    for page in 0..size / PAGE {
        let one = Stopwatch::start();
        child.write_u64(addr + page * PAGE, page).expect("fault");
        hist.record(one.elapsed_ns());
    }
    let wall = sw.elapsed_ns();
    child.exit();
    (hist, wall)
}

/// Measures what switching a feature on costs `pass`, which runs once in
/// the given state and returns its time: one discarded warm-up pass (lazy
/// initialization is billed to no one), then `pairs` back-to-back off/on
/// pairs in ABBA order, so monotone host drift biases neither state.
/// Pairing and the median cancel host drift, which on shared machines is
/// easily larger than the effect being measured. Returns (median off ns,
/// median on ns, median paired overhead %).
pub fn paired(pairs: usize, mut pass: impl FnMut(bool) -> u64) -> (u64, u64, f64) {
    assert!(pairs > 0, "paired needs at least one pair");
    let _ = pass(false);
    let (mut offs, mut ons, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (off, on) = if i % 2 == 0 {
            let off = pass(false);
            (off, pass(true))
        } else {
            let on = pass(true);
            (pass(false), on)
        };
        offs.push(off);
        ons.push(on);
        deltas.push((on as f64 - off as f64) / off as f64 * 100.0);
    }
    offs.sort_unstable();
    ons.sort_unstable();
    deltas.sort_by(f64::total_cmp);
    (offs[pairs / 2], ons[pairs / 2], deltas[pairs / 2])
}

/// One typed report cell.
#[derive(Debug)]
pub enum Cell {
    /// A quantity: the text table shows the given number of decimals, the
    /// JSON the full value (`null` when not finite).
    Num(f64, usize),
    /// A label.
    Text(String),
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Num(v, places) => format!("{v:.places$}"),
            Cell::Text(s) => s.clone(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Num(v, _) if v.is_finite() => v.to_string(),
            Cell::Num(..) => "null".to_string(),
            Cell::Text(s) => format!("\"{}\"", odf_trace::json_escape(s)),
        }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Num(v as f64, 0)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Num(v as f64, 0)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

/// A cell shown with `places` decimals.
pub fn num(v: f64, places: usize) -> Cell {
    Cell::Num(v, places)
}

/// Nanoseconds as a milliseconds cell with three decimals.
pub fn ms(ns: f64) -> Cell {
    num(ns / 1e6, 3)
}

/// A bench's rows: fixed columns (units live in the column names), one
/// typed cell per column per row, and two renderings of them — the
/// aligned text table (`Display`) and [`Report::json`].
#[derive(Debug)]
pub struct Report {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Report {
    /// An empty report with whitespace-separated `columns`; `name` is both
    /// the file name and the `"bench"` field.
    pub fn new(name: &str, columns: &str) -> Report {
        Report {
            name: name.to_string(),
            columns: columns.split_whitespace().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// If the row does not have exactly one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "report {}: row {cells:?} does not match columns {:?}",
            self.name,
            self.columns
        );
        self.rows.push(cells);
    }

    /// `{"bench": "<name>", "rows": [{"<column>": value, …}]}`, one row
    /// per line.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let fields: Vec<String> = (self.columns.iter().zip(row))
                    .map(|(c, v)| format!("\"{}\": {}", odf_trace::json_escape(c), v.json()))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            odf_trace::json_escape(&self.name),
            rows.join(",\n")
        )
    }

    /// Prints the text table and writes `BENCH_<name>.json` to the current
    /// directory (the package root under `cargo bench`).
    pub fn emit(&self) {
        println!("{self}");
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, self.json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path} ({} rows)\n", self.rows.len());
    }
}

/// The aligned text table: header, dashes, one line per row.
impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows: Vec<Vec<String>> = (self.rows.iter())
            .map(|r| r.iter().map(Cell::text).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let dashes = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1));
        for row in [&self.columns, &vec![dashes]].into_iter().chain(&rows) {
            for (i, (cell, width)) in row.iter().zip(&widths).enumerate() {
                if i + 1 == row.len() {
                    writeln!(f, "{cell}")?;
                } else {
                    write!(f, "{cell:<width$}  ")?;
                }
            }
        }
        Ok(())
    }
}

/// Figures 9 and 10's throughput timeline: execs/s per 1 s bucket of each
/// campaign's `(t, rate)` series, fork vs on-demand-fork.
pub fn timeline(name: &str, fork: &[(f64, f64)], odf: &[(f64, f64)]) -> Report {
    let mut report = Report::new(name, "t_s fork_execs_per_s odf_execs_per_s");
    let rate = |s: &[(f64, f64)], i: usize| num(s.get(i).map_or(f64::NAN, |&(_, r)| r), 0);
    for i in 0..fork.len().max(odf.len()) {
        report.row(vec![i.into(), rate(fork, i), rate(odf, i)]);
    }
    report
}

/// Duration for campaign-style benches (fuzzing, Redis sessions).
pub fn campaign_duration(default_secs: u64) -> Duration {
    if fast_mode() {
        Duration::from_secs(2.min(default_secs))
    } else {
        Duration::from_secs(default_secs)
    }
}

/// Prints the standard bench header.
pub fn banner(name: &str, what: &str) {
    println!("\n=== {name} — {what} ===");
    println!(
        "(scale={}, reps={}, fast={})\n",
        scale(),
        reps(),
        fast_mode()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every size of the full sweep, alone and as Figure 2's three
    /// concurrent instances, leaves the machine above its low watermark
    /// after the fill and a Classic fork's table copies: no fork row pays
    /// for a reclaim pass. Arithmetic only; no machine is built.
    #[test]
    fn kernel_for_stays_above_the_low_watermark_across_the_full_sweep() {
        const PAGE: u64 = odf_pmem::PAGE_SIZE as u64;
        for size in FULL_SWEEP {
            for instances in [1, 3] {
                let set = size * instances;
                let total = machine_bytes(set) / PAGE;
                let low = odf_pmem::Watermarks::for_pool(total as usize).low as u64;
                // The set's pages, the parents' PTE tables and the
                // children's copies, and each tree's upper levels.
                let tables = set.div_ceil(2 * MIB);
                let upper = 2 * instances * (2 + size.div_ceil(GIB));
                let free = total - set / PAGE - 2 * tables - upper;
                assert!(
                    free > low,
                    "{} MiB x{instances}: {free} free frames after the fill, low watermark {low}",
                    size / MIB
                );
            }
        }
    }

    #[test]
    fn scaled_rounds_to_mib() {
        assert_eq!(scaled(MIB) % MIB, 0);
        assert!(scaled(GIB) >= MIB);
    }

    #[test]
    fn sweep_is_increasing() {
        let s = size_sweep();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fill_and_time_fork_runs() {
        let k = kernel_for(64 * MIB);
        let p = k.spawn().unwrap();
        let ns = fill_and_time_fork(&p, 16 * MIB, ForkPolicy::OnDemand).unwrap();
        assert!(ns > 0);
        let ns = fill_and_time_fork_huge(&p, 16 * MIB).unwrap();
        assert!(ns > 0);
        let addr = p.mmap_anon(4 * MIB).unwrap();
        p.populate(addr, 4 * MIB, true).unwrap();
        let (hist, wall) = fault_pass(&p, addr, 4 * MIB, ForkPolicy::OnDemand);
        assert_eq!(hist.count(), 4 * MIB / PAGE);
        assert!(wall > 0);
        assert_eq!(k.process_count(), 1);
    }

    #[test]
    fn repeat_reports_mean_and_min() {
        let mut i = 0u64;
        let (mean, min) = repeat(|| {
            i += 100;
            Ok(i)
        })
        .unwrap();
        assert!(min >= 100);
        assert!(mean >= min as f64);
    }

    #[test]
    fn paired_warms_up_alternates_order_and_takes_medians() {
        let mut calls = Vec::new();
        let p = paired(4, |on| {
            calls.push(on);
            100 + 10 * u64::from(on)
        });
        let (f, t) = (false, true);
        assert_eq!(calls, [f, f, t, t, f, f, t, t, f]);
        assert_eq!(p, (100, 110, 10.0));
    }

    fn panic_message<R: std::fmt::Debug>(f: impl FnOnce() -> R + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn knobs_default_when_unset_and_reject_anything_but_a_positive_number() {
        assert_eq!((SCALE.parse(None), SCALE.parse(Some("0.25"))), (1.0, 0.25));
        assert_eq!((REPS.parse(None), REPS.parse(Some("5"))), (3, 5));
        for raw in ["0", "-1", "0,5", "", "nan", "inf", "fast"] {
            let msg = panic_message(|| SCALE.parse(Some(raw)));
            assert!(msg.contains(&format!("ODF_BENCH_SCALE={raw:?}")), "{msg}");
        }
        for raw in ["0", "-1", "2.5", " 3"] {
            let msg = panic_message(|| REPS.parse(Some(raw)));
            assert!(msg.contains(&format!("ODF_BENCH_REPS={raw:?}")), "{msg}");
        }
    }

    #[test]
    fn columns_are_aligned() {
        let mut r = Report::new("t", "a bbbb");
        r.row(vec!["xxxx".into(), "y".into()]);
        // "a" padded to the width of "xxxx"; the last column is not padded.
        assert_eq!(r.to_string(), "a     bbbb\n----------\nxxxx  y\n");
    }

    #[test]
    #[should_panic(expected = "does not match columns")]
    fn short_rows_panic() {
        Report::new("t", "a b c").row(vec![1u64.into()]);
    }

    #[test]
    #[should_panic(expected = "does not match columns")]
    fn long_rows_panic() {
        Report::new("t", "a").row(vec![1u64.into(), 2u64.into()]);
    }

    #[test]
    fn display_renders_typed_cells() {
        let mut r = Report::new("t", "h n");
        r.row(vec![num(1.5, 2), 7usize.into()]);
        assert_eq!(format!("{r}"), "h     n\n-------\n1.50  7\n");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let r = Report::new("empty", "only");
        assert_eq!(r.to_string().lines().count(), 2);
        assert_eq!(
            r.json(),
            "{\n  \"bench\": \"empty\",\n  \"rows\": [\n\n  ]\n}\n"
        );
    }

    #[test]
    fn json_escapes_text_and_writes_non_finite_numbers_as_null() {
        let mut r = Report::new("esc", "label v n");
        r.row(vec!["q\"b\\s\n\u{1}".into(), num(f64::NAN, 1), 7u64.into()]);
        r.row(vec!["inf".into(), num(f64::NEG_INFINITY, 2), 0u64.into()]);
        r.row(vec!["x".into(), num(-0.25, 2), 3usize.into()]);
        let expected = r#"{
  "bench": "esc",
  "rows": [
    {"label": "q\"b\\s\n\u0001", "v": null, "n": 7},
    {"label": "inf", "v": null, "n": 0},
    {"label": "x", "v": -0.25, "n": 3}
  ]
}
"#;
        assert_eq!(r.json(), expected);
    }

    /// Every bench target except criterion's `micro_ops` prints and
    /// writes its rows through [`Report`]; only the chrome dump and the
    /// Prometheus export, which are not rows, keep their own writers.
    #[test]
    fn every_bench_reports_through_report() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).expect("benches dir") {
            let path = entry.expect("dir entry").path();
            if path.extension() != Some("rs".as_ref())
                || path.file_stem() == Some("micro_ops".as_ref())
            {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("read bench");
            let name = path.display();
            assert!(!src.contains("Table::new"), "{name} renders its own table");
            assert!(src.contains("Report::new("), "{name} builds no Report");
            let not_rows = ["\"BENCH_trace_chrome.json\"", "\"BENCH_metrics.prom\""];
            let rest = not_rows.iter().fold(src.clone(), |s, f| s.replace(f, ""));
            assert!(
                !rest.contains("\"BENCH_"),
                "{name} writes BENCH_ outside Report"
            );
            checked += 1;
        }
        // Every `[[bench]]` target but `micro_ops` has its file here.
        let manifest = std::fs::read_to_string(dir.with_file_name("Cargo.toml")).expect("manifest");
        let targets = manifest.matches("[[bench]]").count();
        assert!(targets >= 10, "only {targets} [[bench]] targets");
        assert_eq!(checked, targets - 1, "bench files vs targets in {dir:?}");
    }
}
