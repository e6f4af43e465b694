//! Order statistics over small samples (slices, chunk latencies, run sets).

/// Median of `v` (mean of the two middle values for an even count).
/// `v` is sorted in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0–100) of an ascending `sorted` sample, nearest
/// rank: the smallest value with at least `p` % of the sample at or below.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the acceptance check of the
/// benchmark contract computes its spreads this way, so `compare` does too.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two values");
    v.sort_unstable_by(f64::total_cmp);
    let ld = v.len() as i64;
    // Python: j = clamp(i*(ld+1) // 4, 1, ld-1); delta = i*(ld+1) - 4*j;
    // value = (d[j-1]*(4-delta) + d[j]*delta) / 4 — delta outside 0..4
    // extrapolates, which is what a two-value sample gets.
    let at = |i: i64| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1) - 4 * j) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(v: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[5u32, 9], 50.0), 5);
        assert_eq!(percentile(&[5u32, 9], 51.0), 9);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&mut [1.0, 3.0]), (0.5, 3.5));
        let mut w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&mut w) - 1.0).abs() < 1e-12);
    }
}
