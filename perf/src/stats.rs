//! Order statistics over timing samples.

/// Median, quartiles and count of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at rank position `pos` (1-based, fractional) of a sorted
/// slice, linearly interpolated and clamped to the ends.
fn at_position(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let pos = pos.clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The `q`-quantile by the exclusive method (position `q·(n+1)`), which
/// is what Python's `statistics.quantiles` uses — the benchmark's spread
/// figures are then the ones its driver computes.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let s = sorted(samples);
    at_position(&s, q * (s.len() + 1) as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn summary(samples: &[f64]) -> Summary {
    Summary {
        median: quantile(samples, 0.5),
        q1: quantile(samples, 0.25),
        q3: quantile(samples, 0.75),
        n: samples.len(),
    }
}

/// Interquartile range as a share of the median.
pub fn rel_iqr(s: &Summary) -> f64 {
    (s.q3 - s.q1) / s.median
}

/// The q1–q3 spread the *median* of `n` independent samples shows from
/// run to run, as a share of the median: 1.2533·IQR/√n. `compare` calls a
/// metric unresolved when this exceeds its bound.
pub fn median_spread(s: &Summary) -> f64 {
    1.2533 * rel_iqr(s) / (s.n.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn quantile_clamps_to_the_ends_and_handles_one_sample() {
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.01), 1.0);
        // 20 samples: p95 sits at position 19.95 of 1..=20.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((quantile(&v, 0.95) - 19.95).abs() < 1e-12);
    }

    #[test]
    fn median_spread_shrinks_with_sample_count() {
        let few = Summary {
            median: 100.0,
            q1: 95.0,
            q3: 105.0,
            n: 4,
        };
        let many = Summary { n: 400, ..few };
        assert!((rel_iqr(&few) - 0.1).abs() < 1e-12);
        assert!((median_spread(&few) / median_spread(&many) - 10.0).abs() < 1e-9);
    }
}
