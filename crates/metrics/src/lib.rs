//! Measurement utilities shared by the On-demand-fork benchmarks and workloads.
//!
//! This crate provides the small set of instruments that the evaluation
//! harness (crate `odf-bench`) and the application substrates use to report
//! numbers in the same form as the paper:
//!
//! - [`Histogram`]: a log-bucketed latency histogram with percentile
//!   extraction (the shape of data in Tables 4 and 7 of the paper).
//! - [`Summary`]: a streaming mean / standard deviation / min / max
//!   accumulator (Tables 1, 5, and 6).
//! - [`Stopwatch`] and [`time`]: wall-clock measurement helpers.
//! - [`Throughput`]: a time-bucketed event counter used for the
//!   executions-per-second timelines of Figures 9 and 10.

#![forbid(unsafe_code)]

mod hist;
mod summary;
mod throughput;
mod timer;

pub use hist::Histogram;
pub use summary::Summary;
pub use throughput::Throughput;
pub use timer::{time, Stopwatch};

/// Formats a nanosecond quantity as a human-readable duration string.
///
/// The benchmarks report mixed magnitudes (microsecond forks next to
/// hundreds-of-milliseconds forks), so a fixed unit would be unreadable.
///
/// # Examples
///
/// ```
/// assert_eq!(odf_metrics::fmt_ns(1_500), "1.500us");
/// assert_eq!(odf_metrics::fmt_ns(2_500_000), "2.500ms");
/// ```
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Formats a byte quantity using binary units.
///
/// # Examples
///
/// ```
/// assert_eq!(odf_metrics::fmt_bytes(512 << 20), "512.0MiB");
/// assert_eq!(odf_metrics::fmt_bytes(3 << 30), "3.0GiB");
/// ```
pub fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if bytes >= GIB {
        format!("{:.1}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_covers_all_magnitudes() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_000), "1.000us");
        assert_eq!(fmt_ns(999_999), "999.999us");
        assert_eq!(fmt_ns(1_000_000_000), "1.000s");
    }

    #[test]
    fn fmt_ns_unit_boundaries_are_exact() {
        // One below / exactly at each unit switch.
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000_000), "1.000ms");
        assert_eq!(fmt_ns(999_999_999), "1000.000ms"); // %.3 rounding, still ms
        assert_eq!(fmt_ns(u64::MAX), format!("{:.3}s", u64::MAX as f64 / 1e9));
    }

    #[test]
    fn fmt_bytes_covers_all_magnitudes() {
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(1 << 20), "1.0MiB");
        assert_eq!(fmt_bytes(50 << 30), "50.0GiB");
    }
}
