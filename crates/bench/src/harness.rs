//! A minimal, dependency-free timing harness.
//!
//! The container this workspace builds in has no network access, so criterion
//! is unavailable; this module provides the small subset the benches need:
//! named benchmark groups, warm-up, repeated timed samples, and a median /
//! mean / min report on stdout. Benches are ordinary `harness = false`
//! binaries calling [`BenchGroup::bench`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Statistics of one benchmark's samples.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Mean time per iteration.
    pub mean: Duration,
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample's time per iteration.
    pub min: Duration,
}

impl BenchStats {
    /// Iterations per second implied by the median sample.
    pub fn throughput(&self) -> f64 {
        if self.median.as_secs_f64() == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.median.as_secs_f64()
        }
    }
}

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchGroup {
    /// Creates a group with default settings (10 samples, 1s measurement,
    /// 300ms warm-up).
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
        }
    }

    /// Sets the number of timed samples.
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Sets the total measurement budget (split across samples).
    pub fn measurement_time(mut self, budget: Duration) -> Self {
        self.measurement_time = budget;
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(mut self, budget: Duration) -> Self {
        self.warm_up_time = budget;
        self
    }

    /// Runs `routine` under this group's budget and prints one report line.
    ///
    /// The routine's return value is passed through [`black_box`] so the
    /// optimizer cannot elide the measured work.
    pub fn bench<T>(&self, id: impl AsRef<str>, mut routine: impl FnMut() -> T) -> BenchStats {
        // Warm-up, and calibrate how many iterations fit in one sample.
        let warm_up_started = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_up_started.elapsed() < self.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_up_started.elapsed().div_f64(warm_iters as f64);
        let sample_budget = self.measurement_time.div_f64(self.sample_size as f64);
        let iters_per_sample = if per_iter.is_zero() {
            1
        } else {
            (sample_budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, u128::from(u64::MAX))
                as u64
        };

        let mut per_iteration: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let started = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            per_iteration.push(started.elapsed().div_f64(iters_per_sample as f64));
        }
        per_iteration.sort();
        let mean = per_iteration
            .iter()
            .sum::<Duration>()
            .div_f64(per_iteration.len() as f64);
        let stats = BenchStats {
            samples: self.sample_size,
            iters_per_sample,
            mean,
            median: per_iteration[per_iteration.len() / 2],
            min: per_iteration[0],
        };
        println!(
            "{}/{:<32} median {:>12?}  mean {:>12?}  min {:>12?}  ({} samples x {} iters)",
            self.name,
            id.as_ref(),
            stats.median,
            stats.mean,
            stats.min,
            stats.samples,
            stats.iters_per_sample,
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_times() {
        let group = BenchGroup::new("test")
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut counter = 0u64;
        let stats = group.bench("count", || {
            counter += 1;
            counter
        });
        assert_eq!(stats.samples, 3);
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.min <= stats.median);
        assert!(stats.throughput() > 0.0);
    }
}
