//! Percentiles and the tail rule every latency metric is reported with.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples: the smallest rank
/// with at least `p`% of the samples at or below it.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products such as 0.95 * 200 from rounding up.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: callers report no percentile without samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// its rank; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median, tail and mean of one set of latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile chosen by [`tail_percentile`].
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Dist {
    /// Summarise `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(sorted.len());
        Some(Dist {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 50.0),
            tail_pct,
            tail: nearest_rank(&sorted, tail_pct),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
        // Exact products stay on their rank despite float rounding.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 95.0), 190.0);
        assert_eq!(rank(1000, 99.9), 999);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(2000), 99.5);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 80.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(49), 50.0);
        // Too few samples for any ladder step: the median.
        assert_eq!(tail_percentile(5), 50.0);
        for n in 20..3000 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn dist_summarises_unsorted_samples() {
        let d = Dist::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(d.n, 4);
        assert_eq!(d.p50, 2.0);
        assert_eq!(d.tail_pct, 50.0);
        assert_eq!(d.mean, 2.5);
        assert!(Dist::of(&[]).is_none());
    }
}
