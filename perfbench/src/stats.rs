//! Order statistics the benchmark reports.

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (1..=100) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The tail percentile for a set of `n` samples: the highest integer
/// percentile in 50..=99 that leaves at least ten samples above its
/// nearest-rank value, so the tail is never set by a handful of cells.
/// Falls back to the median when `n` is too small for any tail.
pub fn tail_percentile(n: usize) -> u32 {
    if n == 0 {
        return 50;
    }
    (50..=99)
        .rev()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(50)
}

/// Geometric mean of positive `values`; `None` when empty or any value is
/// not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 84), 7.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // The benchmark's cell-set sizes: graph_inputs 66, pointer_alloc 49,
        // affine_stencil 67.
        assert_eq!(tail_percentile(66), 84);
        assert_eq!(tail_percentile(49), 79);
        assert_eq!(tail_percentile(67), 85);
        for n in [20usize, 49, 66, 67, 100, 1000] {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
        // Too few samples for any tail: report the median.
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }
}
