//! Order statistics over host-time samples.

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (sorted in place). `None`
/// for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    Some(xs[rank.clamp(1, xs.len()) - 1])
}

/// The median of `xs` (0 for an empty sample).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The `q` quantile, but only when at least ten samples lie beyond it —
/// a tail percentile resting on fewer samples is a guess. `None` when the
/// sample is too small.
pub fn tail_quantile(xs: &mut [f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * xs.len() as f64).floor() as usize;
    if beyond < 10 {
        return None;
    }
    quantile(xs, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(quantile(&mut xs, 1.0), Some(5.0));
        assert_eq!(quantile(&mut xs, 0.0), Some(1.0));
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let mut xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_quantile(&mut xs, 0.99), None);
        xs.push(999.0);
        assert_eq!(tail_quantile(&mut xs, 0.99), Some(989.0));
    }
}
