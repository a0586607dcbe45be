//! Order statistics over small samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// The highest percentile that still has at least ten samples at or
/// beyond it, with its label (`p97.5`); `None` below twenty samples,
/// where no percentile above the median qualifies.
pub fn tail(xs: &[f64]) -> Option<(String, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 20 {
        return None;
    }
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    Some((format!("p{pct:.1}"), v[n - 10]))
}
