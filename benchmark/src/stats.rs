//! Order statistics over latency samples.

/// Nearest-rank percentile of a sorted slice; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, p)
}

pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 50.0)
}

pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Latency samples stamped with when they completed, relative to the start
/// of the measured window.
#[derive(Default)]
pub struct Timeline {
    /// `(completed_at_ns, latency_ns)`.
    samples: Vec<(u64, u64)>,
}

/// The tail is read per slice of the window and the median slice reported: a
/// burst of interference from outside the process then moves one or two
/// slices, not the run's p99.
const SLICES: u64 = 10;

impl Timeline {
    pub fn push(&mut self, completed_at_ns: u64, latency_ns: u64) {
        self.samples.push((completed_at_ns, latency_ns));
    }

    pub fn len(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn latencies(&self) -> Vec<u64> {
        self.samples.iter().map(|&(_, lat)| lat).collect()
    }

    pub fn p50(&self) -> u64 {
        median(&self.latencies())
    }

    /// The samples' latencies, grouped by which of [`SLICES`] equal time
    /// slices of the window they completed in.
    fn slices(&self, window_ns: u64) -> Vec<Vec<u64>> {
        let slice_ns = (window_ns / SLICES).max(1);
        let mut slices: Vec<Vec<u64>> = vec![Vec::new(); SLICES as usize];
        for &(at, lat) in &self.samples {
            slices[(at / slice_ns).min(SLICES - 1) as usize].push(lat);
        }
        slices
    }

    /// Median over the slices of each slice's percentile `p`.
    pub fn sliced_percentile(&self, window_ns: u64, p: f64) -> u64 {
        let tails: Vec<u64> = self
            .slices(window_ns)
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(s, p))
            .collect();
        median(&tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sliced_tail_ignores_one_bad_slice() {
        let mut t = Timeline::default();
        // Ten slices of 100 ns; every sample 10 ns, except slice 3 where
        // everything took 1000 ns.
        for slice in 0..10u64 {
            for i in 0..50 {
                let lat = if slice == 3 { 1000 } else { 10 };
                t.push(slice * 100 + i, lat);
            }
        }
        assert_eq!(t.sliced_percentile(1000, 99.0), 10);
        assert_eq!(percentile(&t.latencies(), 99.0), 1000);
        assert_eq!(t.p50(), 10);
    }
}
