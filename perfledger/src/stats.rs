//! Order statistics used for every reported number.

/// The median (the middle value, or the mean of the two middle values
/// for even counts).
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Interquartile range as a share of the median: `(q3 - q1) / median`,
/// with quartiles interpolated the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so this matches the acceptance check on the same values.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    let q = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let med = median(&sorted)?;
    (med != 0.0).then(|| (q(3) - q(1)) / med)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn relative_iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let iqr = relative_iqr(&v).unwrap();
        assert!((iqr - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[3.0, 3.0, 3.0]), Some(0.0));
        assert_eq!(relative_iqr(&[1.0]), None);
    }
}
