//! Small summary-statistics helpers for experiment reporting.

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum; 0 for an empty slice.
#[must_use]
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Population standard deviation; 0 for slices with fewer than 2 values.
#[must_use]
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on sorted data.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Ordinary least-squares slope of `y` against `x` (for growth-rate
/// estimation in experiment tables). Returns 0 when degenerate.
#[must_use]
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in points {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Log-log slope: the exponent `b` of the best-fit `y = a·x^b`. Points with
/// non-positive coordinates are skipped.
#[must_use]
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    slope(&logged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_max() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn max_of_negatives_is_observed() {
        assert_eq!(max(&[-2.0, -1.0]), -1.0);
        assert_eq!(max(&[-5.0]), -5.0);
    }

    #[test]
    fn stddev_matches_hand_computation() {
        assert_eq!(stddev(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert_eq!(stddev(&[2.0, 2.0, 2.0]), 0.0);
        // Population stddev of {1, 2, 3, 4} is sqrt(1.25).
        assert!((stddev(&[1.0, 2.0, 3.0, 4.0]) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
    }

    #[test]
    fn slope_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&pts[..1]), 0.0);
    }

    #[test]
    fn loglog_slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| (i as f64, 2.0 * (i as f64).powf(0.5)))
            .collect();
        assert!((loglog_slope(&pts) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let _ = quantile(&[1.0], 1.5);
    }
}
