//! Order statistics for latency samples.

/// Percentiles a tail summary may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The median and tail of one latency sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest-rank).
    pub p50: f64,
    /// The tail percentile's level, e.g. `99.0`.
    pub tail_level: f64,
    /// The tail percentile's value (nearest-rank).
    pub tail: f64,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `level` (0–100] of ascending `sorted`.
fn nearest_rank(sorted: &[f64], level: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((level / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// Summarises `samples`: the median, plus the highest percentile of the
/// ladder 99/95/90/50 that leaves at least [`MIN_BEYOND`] samples beyond
/// it (falling back to the median for tiny sets). `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, _) = nearest_rank(&sorted, 50.0);
    let (tail_level, (tail, beyond)) = TAIL_LADDER
        .iter()
        .map(|&level| (level, nearest_rank(&sorted, level)))
        .find(|&(_, (_, beyond))| beyond >= MIN_BEYOND)
        .unwrap_or((50.0, nearest_rank(&sorted, 50.0)));
    Some(Summary {
        n: sorted.len(),
        p50,
        tail_level,
        tail,
        beyond,
    })
}

/// Median of `values` (nearest-rank), or `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&thousand).unwrap();
        assert_eq!((s.n, s.p50), (1000, 500.0));
        assert_eq!((s.tail_level, s.tail, s.beyond), (99.0, 990.0, 10));

        // 999 samples leave only 9 beyond p99, so p95 reports.
        let s = summarize(&thousand[..999]).unwrap();
        assert_eq!((s.tail_level, s.tail, s.beyond), (95.0, 950.0, 49));

        // 200 samples: p95 has exactly 10 beyond.
        let s = summarize(&thousand[..200]).unwrap();
        assert_eq!((s.tail_level, s.tail, s.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tiny_sets_fall_back_to_the_median() {
        let s = summarize(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.p50, s.tail_level, s.tail), (5.0, 50.0, 5.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let up: Vec<f64> = (0..500).map(f64::from).collect();
        let down: Vec<f64> = up.iter().rev().copied().collect();
        assert_eq!(summarize(&up), summarize(&down));
    }
}
