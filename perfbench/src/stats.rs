//! Exact order statistics over raw per-op samples.

/// The `q`-quantile of `values`, by linear interpolation between the two
/// nearest order statistics (the "type 7" estimator). Sorts in place.
/// Returns `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// The median of `values` (see [`quantile`]).
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// How many of `n` samples lie beyond the `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    (n as f64 * (1.0 - q)).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let mut v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(51.0));
        assert_eq!(quantile(&mut v, 0.9), Some(91.0));
        assert_eq!(quantile(&mut v, 0.99), Some(100.0));
        let mut two = vec![10.0, 20.0];
        assert_eq!(median(&mut two), Some(15.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
    }
}
