//! Small statistics toolbox for the experiment harness: sample summaries,
//! sample distributions with percentiles
//! ([`Histogram`]), and exponential-growth fitting (used to verify that
//! measured running times grow exponentially in `n`, experiments E2 and E6).

/// A summary of a sample of real-valued measurements.
///
/// # Degenerate inputs
///
/// Every constructor and accessor is total and never produces `NaN` or an
/// infinity — a requirement of the machine-readable report pipeline, whose
/// JSON writer has no representation for non-finite numbers. The conventions:
///
/// * **Empty sample**: `count = 0` and every statistic (`mean`, `std_dev`,
///   `min`, `max`) is `0.0`.
/// * **Single sample**: `std_dev` is `0.0` (the unbiased estimator is
///   undefined at `n = 1`; we report zero spread rather than `0/0 = NaN`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`. Returns a zeroed summary for an empty slice and
    /// a zero-spread summary for a single sample (see the type-level
    /// documentation for the degenerate-input conventions).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// A sample distribution supporting percentile queries.
///
/// Stores the sorted sample (experiment batches are small — tens to hundreds
/// of trials — so exact percentiles are cheaper than maintaining an
/// approximate sketch). Like [`Summary`], every query is total: an empty
/// histogram answers `0.0` everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    sorted: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram from `samples`. Non-finite samples are discarded
    /// (the simulation layer never produces them; dropping keeps every query
    /// total).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Histogram { sorted }
    }

    /// Number of (finite) samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The `q`-quantile for `q` in `[0, 1]`, linearly interpolated between
    /// order statistics (`q` outside the range is clamped; `0.0` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let position = q * (self.sorted.len() - 1) as f64;
        let below = position.floor() as usize;
        let above = position.ceil() as usize;
        if below == above {
            self.sorted[below]
        } else {
            let fraction = position - below as f64;
            self.sorted[below] * (1.0 - fraction) + self.sorted[above] * fraction
        }
    }

    /// The `p`-th percentile for `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// The [`Summary`] of the underlying sample.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.sorted)
    }
}

/// Least-squares fit of a straight line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// The fitted slope.
    pub slope: f64,
    /// The fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R^2` (1 = perfect fit).
    pub r_squared: f64,
}

/// Fits a straight line to `(x, y)` points by least squares.
///
/// # Panics
///
/// Panics if fewer than two points are given or all `x` are identical.
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    assert!(sxx > 0.0, "all x values are identical");
    let sxy: f64 = points
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_res: f64 = points
        .iter()
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    LinearFit {
        slope,
        intercept,
        r_squared,
    }
}

/// An exponential fit `y = a * exp(rate * x)`, obtained by a linear fit of
/// `ln y` against `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Growth rate per unit of `x` (the `α` in `C · e^{αn}`).
    pub rate: f64,
    /// The prefactor `a` (the `C`).
    pub prefactor: f64,
    /// `R^2` of the underlying log-linear fit.
    pub r_squared: f64,
}

/// Fits `y = a * exp(rate * x)` to points with strictly positive `y`.
///
/// # Panics
///
/// Panics if fewer than two points are given or any `y` is not positive.
pub fn exponential_fit(points: &[(f64, f64)]) -> ExponentialFit {
    assert!(
        points.iter().all(|(_, y)| *y > 0.0),
        "exponential fit requires positive y values"
    );
    let logged: Vec<(f64, f64)> = points.iter().map(|(x, y)| (*x, y.ln())).collect();
    let fit = linear_fit(&logged);
    ExponentialFit {
        rate: fit.slope,
        prefactor: fit.intercept.exp(),
        r_squared: fit.r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_and_singleton_samples() {
        // The documented degenerate-input convention: all-zero for empty
        // samples, zero spread for singletons — and never NaN anywhere.
        let empty = Summary::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.std_dev, 0.0);
        assert_eq!(empty.min, 0.0);
        assert_eq!(empty.max, 0.0);

        let single = Summary::from_samples(&[3.5]);
        assert_eq!(single.count, 1);
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.std_dev, 0.0);

        for summary in [empty, single] {
            for stat in [summary.mean, summary.std_dev, summary.min, summary.max] {
                assert!(stat.is_finite(), "degenerate summaries must stay finite");
            }
        }
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let h = Histogram::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 5.0);
        assert_eq!(h.percentile(25.0), 2.0);
        // Between order statistics: linear interpolation.
        assert!((h.percentile(90.0) - 4.6).abs() < 1e-12);
        // Out-of-range percentiles clamp.
        assert_eq!(h.percentile(250.0), 5.0);
        assert_eq!(h.quantile(-1.0), 1.0);
    }

    #[test]
    fn histogram_degenerate_inputs_are_total() {
        let empty = Histogram::from_samples(&[]);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile(50.0), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.summary(), Summary::from_samples(&[]));

        let with_nan = Histogram::from_samples(&[1.0, f64::NAN, 2.0]);
        assert_eq!(with_nan.count(), 2, "non-finite samples are discarded");
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 * x as f64 - 2.0)).collect();
        let fit = linear_fit(&points);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept + 2.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_on_noisy_data_has_reasonable_r_squared() {
        let points: Vec<(f64, f64)> = (0..20)
            .map(|x| {
                let noise = if x % 2 == 0 { 0.5 } else { -0.5 };
                (x as f64, 2.0 * x as f64 + noise)
            })
            .collect();
        let fit = linear_fit(&points);
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn exponential_fit_recovers_growth_rate() {
        let points: Vec<(f64, f64)> = (1..12)
            .map(|x| (x as f64, 0.5 * (0.7 * x as f64).exp()))
            .collect();
        let fit = exponential_fit(&points);
        assert!((fit.rate - 0.7).abs() < 1e-9);
        assert!((fit.prefactor - 0.5).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    #[should_panic(expected = "positive y values")]
    fn exponential_fit_rejects_non_positive_values() {
        let _ = exponential_fit(&[(1.0, 1.0), (2.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "need at least two points")]
    fn linear_fit_needs_two_points() {
        let _ = linear_fit(&[(1.0, 1.0)]);
    }
}
