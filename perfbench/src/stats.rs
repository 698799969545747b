//! Order statistics for the reported timings.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (sorted in place; the mean of the two middle
/// samples for an even count).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `p · n / 100` from rounding up past an exact rank (99.9 is
/// not exact in binary).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-6).ceil() as usize
}

/// The tail percentiles the benchmark may report, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest reportable tail percentile of `n` samples: the highest of
/// [`TAILS`] with at least ten samples beyond it, or `None` when even p90
/// has fewer (then only the median is reported).
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 99 samples: p90 leaves 9 beyond, so nothing qualifies.
        assert_eq!(highest_tail(99), None);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(199), Some(90.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        // One GC-suite pass holds ~1080 cycles: p99 is the reported tail.
        assert_eq!(highest_tail(1080), Some(99.0));
        assert_eq!(beyond(1080, 99.0), 10);
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert_eq!(highest_tail(0), None);
    }
}
