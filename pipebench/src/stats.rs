//! Sample statistics: medians and nearest-rank percentiles, with the rule
//! that a tail percentile is reported only when at least ten samples lie
//! beyond it.

/// Fewest samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 1]`): the smallest
/// sample with at least `p · n` samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank `⌈p · n⌉`, clamped into `1..=n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 50th percentile); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// The `p` tail percentile, or `None` while fewer than
/// [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND_TAIL {
        return None;
    }
    percentile(samples, p)
}

/// The arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.5), Some(3.0));
        assert_eq!(percentile(&s, 0.2), Some(1.0));
        assert_eq!(percentile(&s, 0.21), Some(2.0));
        assert_eq!(percentile(&s, 1.0), Some(5.0));
        assert_eq!(median(&[7.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
        // 100 samples 1..=100: p99 is the 99th value, p50 the 50th.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(19, 0.5), 9);
        assert_eq!(beyond(0, 0.99), 0);
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Some(990.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
