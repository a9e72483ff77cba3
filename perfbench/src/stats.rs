//! Order statistics over host timings: median, quartiles, and the tail
//! percentile rule.

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so a spread computed here matches one
/// computed from the printed values. Needs at least two values; fewer give
/// the single value (or 0) twice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n as f64 + 1.0;
    let q = |i: f64| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1.0), q(3.0))
}

/// Mean of the best tenth of `xs` (at least one value): the largest values
/// when `higher` is true, else the smallest; 0 when empty.
pub fn best_tenth_mean(xs: &[f64], higher: bool) -> f64 {
    let mut s = sorted(xs);
    if higher {
        s.reverse();
    }
    let k = s.len().div_ceil(10);
    if k == 0 {
        return 0.0;
    }
    s[..k].iter().sum::<f64>() / k as f64
}

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.0, 90.0];

/// The tail percentile reported for `n` samples: the highest of p99.9, p99
/// and p90 that leaves at least ten samples beyond it, else p50.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(50.0)
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // In thousandths, so 99.9% of 10 000 is exactly rank 9 990.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    s[rank(p, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates past the ends of a short sample.
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn best_tenth_mean_takes_the_fastest_tenth() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_tenth_mean(&xs, true), 19.5);
        assert_eq!(best_tenth_mean(&xs, false), 1.5);
        // A short sample still keeps one value.
        assert_eq!(best_tenth_mean(&[3.0, 9.0, 5.0], true), 9.0);
        assert_eq!(best_tenth_mean(&[], true), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
