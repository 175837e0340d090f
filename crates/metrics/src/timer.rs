//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// A restartable wall-clock stopwatch.
///
/// Mirrors the `clock_gettime(CLOCK_MONOTONIC)` pattern the paper's
/// microbenchmarks use: take a timestamp immediately before the measured
/// call and immediately after it returns.
///
/// # Examples
///
/// ```
/// let sw = odf_metrics::Stopwatch::start();
/// let _ = (0..100).sum::<u64>();
/// assert!(sw.elapsed_ns() < 1_000_000_000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time since start, in nanoseconds (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and returns its result together with the elapsed wall-clock time.
///
/// # Examples
///
/// ```
/// let (sum, dt) = odf_metrics::time(|| (1..=10u64).sum::<u64>());
/// assert_eq!(sum, 55);
/// assert!(dt.as_secs() < 1);
/// ```
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn time_returns_value_and_duration() {
        let (v, dt) = time(|| {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(dt >= Duration::from_millis(1));
    }
}
