//! Robust in-run aggregation: percentiles, equal op-count windows, and
//! the median across windows that every wall-clock metric reports, so a
//! single host stall inside one window cannot move a run's number.

use std::ops::Range;
use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `None` when `values` is empty. Sorts a copy.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Split `n` ops into `k` contiguous windows whose sizes differ by at
/// most one (the first `n % k` windows take the extra op). Fewer than
/// `k` windows come back when `n < k`, and none when `n == 0`.
pub fn windows(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let (base, extra) = (n / k, n % k);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for w in 0..k {
        let len = base + usize::from(w < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// For each window of `samples`, the `q`-quantile of that window; then
/// the median of those per-window values. `None` marks a missing sample
/// (a failed op) and is skipped; a window with no sample contributes
/// nothing.
pub fn windowed_percentile(samples: &[Option<f64>], k: usize, q: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows(samples.len(), k)
        .into_iter()
        .filter_map(|r| {
            let window: Vec<f64> = samples[r].iter().flatten().copied().collect();
            percentile(&window, q)
        })
        .collect();
    median(&per_window)
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as `f64`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert!((percentile(&v, 0.9).unwrap() - 37.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_ignores_input_order_and_handles_edges() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some(5.0));
    }

    #[test]
    fn windows_cover_every_op_once_with_near_equal_sizes() {
        assert_eq!(windows(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(windows(6, 3), vec![0..2, 2..4, 4..6]);
        assert_eq!(windows(2, 5), vec![0..1, 1..2]);
        assert!(windows(0, 4).is_empty());
        assert!(windows(5, 0).is_empty());
    }

    #[test]
    fn windowed_median_shrugs_off_one_stalled_window() {
        // Five windows of four ops; the third window holds a host stall.
        let mut samples: Vec<Option<f64>> = (0..20).map(|i| Some(1.0 + (i % 4) as f64)).collect();
        for s in &mut samples[8..12] {
            *s = Some(500.0);
        }
        // Per-window medians: 2.5, 2.5, 500, 2.5, 2.5 -> median 2.5.
        assert_eq!(windowed_percentile(&samples, 5, 0.5), Some(2.5));
        // A whole-run median would have moved.
        let flat: Vec<f64> = samples.iter().flatten().copied().collect();
        assert!(median(&flat).unwrap() > 2.5);
    }

    #[test]
    fn windowed_percentile_skips_failed_ops() {
        let samples = [Some(1.0), None, Some(3.0), None];
        assert_eq!(windowed_percentile(&samples, 2, 0.5), Some(2.0));
        assert_eq!(windowed_percentile(&[None, None], 2, 0.5), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
