//! Order statistics on small samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// two nearest order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest value; 0 for an empty sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0 — a layer that did no
/// work has a rate of 0, not NaN.
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
    fn median_and_p90_on_small_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Three samples: p90 sits 80 % of the way from the 2nd to the 3rd.
        assert!((quantile(&[1.0, 2.0, 3.0], 0.9) - 2.8).abs() < 1e-12);
        // Eleven samples 0..=10: p90 is exactly the 10th order statistic.
        let xs: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!((min(&xs), max(&xs)), (0.0, 10.0));
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
