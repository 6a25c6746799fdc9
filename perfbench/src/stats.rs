//! Order statistics over latency samples.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, one outlier decides the value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples` (sorted in place), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| samples[rank - 1])
}

/// Median of `values` (sorted in place); the mean of the middle pair for
/// an even count. `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A uniform subsample of a stream of values, bounded in memory: once
/// `cap` values are kept, every other one is dropped and from then on
/// only every `stride`-th new value is kept. The benchmark runs in the
/// process whose peak RSS it reports, so its own sample storage must not
/// grow with the number of ops a run completes.
#[derive(Debug, Clone)]
pub struct Thinned {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
    total: f64,
}

impl Thinned {
    /// An empty stream keeping at most `cap` values; `cap` is even and
    /// at least 2, so the kept values stay evenly spaced.
    pub fn new(cap: usize) -> Thinned {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "cap must be even and at least 2"
        );
        Thinned {
            kept: Vec::new(),
            cap,
            stride: 1,
            seen: 0,
            total: 0.0,
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(x);
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
        self.total += x;
    }

    /// Values pushed, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Sum of every value pushed, kept or not.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Median of the kept values.
    pub fn median(&self) -> Option<f64> {
        median(&mut self.kept.clone())
    }

    /// [`percentile`] of the kept values.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&mut self.kept.clone(), q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thinning_keeps_an_evenly_spaced_bounded_subsample() {
        let mut t = Thinned::new(8);
        for x in 0..1000 {
            t.push(f64::from(x));
        }
        assert_eq!(t.seen(), 1000);
        assert_eq!(t.total(), 999.0 * 1000.0 / 2.0);
        // Reaching 8 kept values halves them, so 896 left stride 256.
        assert_eq!(t.kept, [0.0, 256.0, 512.0, 768.0]);
        assert_eq!(t.median(), Some(384.0));
        let mut few = Thinned::new(8);
        [3.0, 1.0, 2.0].into_iter().for_each(|x| few.push(x));
        assert_eq!(few.median(), Some(2.0));
        assert_eq!(few.kept, [3.0, 1.0, 2.0], "the median sorts a copy");
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(100.0));
        assert_eq!(percentile(&mut v, 0.9), Some(180.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: p90 sits at rank 90 with exactly 10 above it.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.9), Some(90.0));
        // 99 samples: rank 90 leaves only 9 above, so p90 is refused.
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.9), None);
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        let mut few = vec![1.0, 2.0, 3.0];
        assert_eq!(percentile(&mut few, 0.5), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
