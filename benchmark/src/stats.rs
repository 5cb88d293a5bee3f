//! The arithmetic every reported number goes through: nearest-rank
//! percentiles over one round's samples, the median over rounds, and the
//! quartile spread the A/A calibration judges a metric by.

/// The nearest-rank percentile (`p` in `0..=1`) of an ascending-sorted,
/// non-empty sample: the smallest value with at least `p` of the sample at
/// or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut copy = values.to_vec();
    copy.sort_by(f64::total_cmp);
    copy
}

/// The median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The first and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the statistic the acceptance driver uses — for at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let sorted = sorted(values);
    let n = sorted.len();
    let cut = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped into the sample.
        let numerator = k * (n + 1);
        let j = (numerator / 4).clamp(1, n - 1);
        let delta = numerator as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The interquartile distance as a share of the median (0 when the median
/// is 0 or fewer than two values exist).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One reported metric: the per-round values as measured and their median,
/// which is the value that is compared across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The median of [`Self::rounds`].
    pub value: f64,
    /// The per-round (or per-repetition) values, in the order measured.
    pub rounds: Vec<f64>,
}

impl Measured {
    /// A metric measured once.
    pub fn once(value: f64) -> Self {
        Measured {
            value,
            rounds: vec![value],
        }
    }

    /// A metric whose value is the median of its per-round values.
    pub fn of_rounds(rounds: Vec<f64>) -> Self {
        Measured {
            value: median(&rounds),
            rounds,
        }
    }

    /// The median over rounds of each round's `p`-percentile; empty rounds
    /// are skipped (a round can be empty only in `--smoke` runs).
    pub fn percentile_of_rounds(rounds: &[Vec<f64>], p: f64) -> Self {
        Measured::of_rounds(
            rounds
                .iter()
                .filter(|round| !round.is_empty())
                .map(|round| percentile(&sorted(round), p))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), 50.0);
        assert_eq!(percentile(&sample, 0.99), 99.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 10 samples: p99 is the maximum, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_wild_round() {
        let measured = Measured::of_rounds(vec![10.0, 11.0, 500.0, 9.0, 10.5]);
        assert_eq!(measured.value, 10.5);
        assert_eq!(measured.rounds.len(), 5);
        let per_round = Measured::percentile_of_rounds(
            &[vec![1.0, 2.0, 3.0], vec![], vec![10.0, 20.0, 30.0]],
            0.5,
        );
        assert_eq!(per_round.rounds, vec![2.0, 20.0]);
        assert_eq!(per_round.value, 11.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
