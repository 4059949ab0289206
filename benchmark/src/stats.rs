//! Order statistics for run-to-run comparison: medians, the quartiles Python's
//! `statistics.quantiles(values, n=4)` gives, and the rule for which tail
//! percentile a sample supports.

/// The samples sorted ascending. NaN never occurs here (every sample is a
/// measured duration or a ratio of positive counts), so total order holds.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle samples for an even count); `0.0` for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => 0.0,
        len if len % 2 == 1 => sorted[len / 2],
        len => (sorted[len / 2 - 1] + sorted[len / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the *exclusive* method —
/// exactly `statistics.quantiles(samples, n=4)`, which is what the driver
/// judges spreads with. `None` below two samples (the method is undefined).
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The distance between the first and third quartile as a share of the
/// median — the spread the benchmark contract bounds. `0.0` when undefined.
pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// How many samples must lie beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest whole percentile (at most 99) with at least
/// [`TAIL_SUPPORT`] samples beyond it, and its value. With fewer than twenty
/// samples no percentile above the median is supported; the median itself is
/// returned with percentile 50 so callers always have a number to print.
pub fn supported_tail(samples: &[f64]) -> (u32, f64) {
    let data = sorted(samples);
    let len = data.len();
    if len < 2 * TAIL_SUPPORT {
        return (50, median(samples));
    }
    // Percentile p leaves len·(1 − p/100) samples beyond it.
    let pct = (100 * (len - TAIL_SUPPORT) / len).min(99) as u32;
    let rank = (len * pct as usize).div_ceil(100).clamp(1, len);
    (pct, data[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let samples = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // Below twenty samples nothing above the median is supported.
        assert_eq!(supported_tail(&samples(7)).0, 50);
        assert_eq!(supported_tail(&samples(19)).0, 50);
        // Twenty samples support exactly the median, fifty the 80th.
        assert_eq!(supported_tail(&samples(20)), (50, 10.0));
        assert_eq!(supported_tail(&samples(50)), (80, 40.0));
        // p90 needs a hundred samples, p99 a thousand.
        assert_eq!(supported_tail(&samples(99)).0, 89);
        assert_eq!(supported_tail(&samples(100)), (90, 90.0));
        assert_eq!(supported_tail(&samples(1000)), (99, 990.0));
        assert_eq!(supported_tail(&samples(100_000)).0, 99);
        for n in [20usize, 37, 100, 250, 1000] {
            let data = samples(n);
            let (_, value) = supported_tail(&data);
            let beyond = data.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_SUPPORT, "{n} samples: only {beyond} beyond");
        }
    }
}
