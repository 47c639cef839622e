//! Order statistics used by every report: medians, nearest-rank
//! percentiles, and the rule that decides which tail percentile a sample
//! count can support.

/// Median of `values` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice: the
/// smallest value with at least `p`% of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Tail percentiles a report may name, from the median up. Each is written
/// as `1/d`, the share of samples beyond it.
const TAIL_DENOMINATORS: [u64; 6] = [2, 10, 100, 1_000, 10_000, 100_000];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it,
/// among p50, p90, p99, p99.9, …; `None` when even the median is not
/// supported (fewer than 20 samples).
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    TAIL_DENOMINATORS
        .iter()
        .take_while(|&&d| samples / d >= MIN_BEYOND)
        .last()
        .map(|&d| 100.0 * (1.0 - 1.0 / d as f64))
}

/// Whether `samples` supports reporting percentile `p`.
pub fn supports(samples: u64, p: f64) -> bool {
    highest_supported_percentile(samples).is_some_and(|top| top >= p - 1e-9)
}

/// Latency samples per window: enough for a p99 with 20 samples beyond it.
pub const WINDOW: usize = 2_000;

/// Percentile `p` of every full window of [`WINDOW`] consecutive samples
/// (a trailing partial window is dropped). A run reports the median window,
/// so a transient stall of the host moves a few windows and not the result.
pub fn window_percentiles(samples: &[u64], p: f64) -> Vec<u64> {
    if !supports(WINDOW as u64, p) {
        return Vec::new();
    }
    samples
        .chunks_exact(WINDOW)
        .filter_map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            percentile_sorted(&w, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.5), Some(1));
        assert_eq!(percentile_sorted::<u32>(&[], 50.0), None);
        assert_eq!(percentile_sorted(&v, 0.0), None);
    }

    #[test]
    fn the_tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert!((highest_supported_percentile(10_000).unwrap() - 99.9).abs() < 1e-9);
        assert!((highest_supported_percentile(5_000_000).unwrap() - 99.999).abs() < 1e-9);
    }

    #[test]
    fn windows_are_full_and_in_order() {
        let samples: Vec<u64> = (0..(2 * WINDOW as u64 + 7)).collect();
        let p99 = window_percentiles(&samples, 99.0);
        assert_eq!(p99, vec![1_979, WINDOW as u64 + 1_979]);
        assert!(window_percentiles(&samples[..WINDOW - 1], 50.0).is_empty());
        assert!(
            window_percentiles(&samples, 99.9).is_empty(),
            "a window cannot support p99.9"
        );
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(1_000, 99.0));
        assert!(supports(1_000, 50.0));
        assert!(!supports(10, 50.0));
    }
}
