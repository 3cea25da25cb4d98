//! Exact-sample statistics. The serving stack reports latency from
//! log2-bucket histograms, whose sqrt(2) quantisation step cannot carry
//! a 10 % regression bound; everything the benchmark reports comes from
//! sorted raw samples instead.

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps 99.9 % of 1000 at rank 999, not 1000.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample (mean of the two middle values when
/// the count is even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile a sample of `n` supports: the largest of the
/// usual tail percentiles that still has at least ten samples beyond
/// it. `None` when even p75 has fewer (n < 40): report the median only.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples needed for ten to lie beyond it)
    [
        (99.99, 100_000),
        (99.9, 10_000),
        (99.0, 1_000),
        (95.0, 200),
        (90.0, 100),
        (75.0, 40),
    ]
    .into_iter()
    .find(|&(_, needed)| n >= needed)
    .map(|(p, _)| p)
}

/// The timed part of a series of batches run back to back: all but the
/// first fifth (at least one batch), which ran on caches the previous
/// phase left cold. The benchmark's one warm-up rule.
pub fn timed(batches: &[f64]) -> &[f64] {
    assert!(batches.len() >= 2, "need a warm-up batch and a timed one");
    &batches[(batches.len() / 5).max(1)..]
}

/// Median over the [`timed`] batches.
pub fn median_of_batches(batches: &[f64]) -> f64 {
    median(&sorted(timed(batches).to_vec()))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — what the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let x = sorted(values.to_vec());
    let m = x.len();
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_hand_computed_vectors() {
        // n = 1: every percentile is the sample.
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[7.0]), 7.0);

        // n = 10: 1..=10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
        assert_eq!(median(&ten), 5.5);

        // n = 11: 1..=11.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&eleven, 50.0), 6.0);
        assert_eq!(percentile(&eleven, 90.0), 10.0);
        assert_eq!(median(&eleven), 6.0);

        // n = 1000: 1..=1000.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 50.0), 500.0);
        assert_eq!(percentile(&k, 90.0), 900.0);
        assert_eq!(percentile(&k, 99.0), 990.0);
        assert_eq!(percentile(&k, 99.9), 999.0);
        assert_eq!(percentile(&k, 100.0), 1000.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn median_of_batches_drops_the_warm_up() {
        assert_eq!(median_of_batches(&[1000.0, 3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of_batches(&[1000.0, 4.0]), 4.0);
        // Ten batches: the first fifth is warm-up.
        let ten = [900.0, 800.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(timed(&ten), &ten[2..]);
        assert_eq!(median_of_batches(&ten), 4.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    }

    /// The reason this module exists: a 1.2x latency shift moves the
    /// exact median by 1.2x, while the serving stack's log2-bucket
    /// histogram reads both samples from the same bucket.
    #[test]
    fn a_twenty_percent_shift_is_resolved() {
        let base: Vec<f64> = (0..1000).map(|i| 90_000.0 + 20.0 * i as f64).collect();
        let shifted: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let ratio = median(&sorted(shifted.clone())) / median(&sorted(base.clone()));
        assert!(
            (ratio - 1.2).abs() < 1e-9,
            "exact medians differ by {ratio}"
        );

        let (a, b) = (
            ah_server::LatencyHistogram::new(),
            ah_server::LatencyHistogram::new(),
        );
        base.iter().for_each(|&v| a.record_ns(v as u64));
        shifted.iter().for_each(|&v| b.record_ns(v as u64));
        assert_eq!(
            a.quantile_ns(0.5),
            b.quantile_ns(0.5),
            "the histogram cannot tell the two apart"
        );
    }
}
