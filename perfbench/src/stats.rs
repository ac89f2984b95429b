//! Order statistics for timing samples.

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail percentile a sample of `n` supports: the highest
/// nearest-rank percentile with at least ten samples above it, as
/// `(percentile in [0, 100), zero-based rank)`. `None` below 11
/// samples, where no such percentile exists.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n < 11 {
        return None;
    }
    // Nearest rank k (1-based) leaves n - k samples above it; the
    // highest k with n - k >= 10 is n - 10, the percentile 100·k/n.
    let k = n - 10;
    Some((100.0 * k as f64 / n as f64, k - 1))
}

/// The tail value of `values` under [`tail_rank`]: `(percentile,
/// value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let (pct, rank) = tail_rank(values.len())?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((pct, v[rank]))
}
