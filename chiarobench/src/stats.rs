//! Clock access, sampling loops and order statistics.

use std::time::{Duration, Instant};

/// The harness's only clock read.
pub fn now() -> Instant {
    // chiarolint: allow(D1) -- the benchmark harness measures wall-clock on purpose
    Instant::now()
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call of `f` in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation between
/// closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A set of per-operation timings (or any other repeated measurement).
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(
            !values.is_empty(),
            "a measurement needs at least one sample"
        );
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    pub fn lower_quartile(&self) -> f64 {
        quantile(&self.sorted, 0.25)
    }

    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The highest of p99/p95/p90/p75 that still has at least ten samples
    /// beyond it, with its label; the maximum when the sample is too small
    /// for any of them.
    pub fn tail(&self) -> (&'static str, f64) {
        for (label, percent) in [("p99", 99), ("p95", 95), ("p90", 90), ("p75", 75)] {
            if self.n() * (100 - percent) >= 10 * 100 {
                return (label, quantile(&self.sorted, percent as f64 / 100.0));
            }
        }
        ("max", self.max())
    }

    /// The same samples in another unit.
    pub fn scaled(&self, factor: f64) -> Samples {
        Samples {
            sorted: self.sorted.iter().map(|v| v * factor).collect(),
        }
    }

    /// Per-call seconds turned into calls per second.
    pub fn rates(&self) -> Samples {
        Samples::new(self.sorted.iter().map(|v| 1.0 / v).collect())
    }
}

/// How long one layer probe may sample for.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall-clock allowance; sampling stops once it is spent.
    pub budget: Duration,
    /// Samples taken even when the allowance is already spent.
    pub min_samples: usize,
}

/// Collects the values `measure` returns until the slice is spent.
pub fn collect(slice: Slice, mut measure: impl FnMut() -> f64) -> Samples {
    const MAX_SAMPLES: usize = 20_000;
    let start = now();
    let mut values = Vec::new();
    while values.len() < slice.min_samples
        || (start.elapsed() < slice.budget && values.len() < MAX_SAMPLES)
    {
        values.push(measure());
    }
    Samples::new(values)
}

/// Samples the per-call time of `op` in seconds: one untimed warm-up call,
/// then timed batches of `batch` calls (each batch is one sample, divided
/// by `batch`) until the slice is spent.
pub fn sample(slice: Slice, batch: usize, mut op: impl FnMut()) -> Samples {
    op();
    collect(slice, || {
        let start = now();
        for _ in 0..batch {
            op();
        }
        secs_since(start) / batch as f64
    })
}

/// Which order statistic of its samples a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// Layer probes: the typical cost, host interference included.
    Median,
    /// End-to-end timings: the undisturbed cost.  The shared host's
    /// interference only ever adds time, in bursts that outlast a rep, so the
    /// fastest of many short reps repeats where their median does not.
    Minimum,
}

/// One reported number with the spread behind it, already in its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Samples,
    pub statistic: Statistic,
    /// Depends on how the scheduler places two threads; never used for a claim.
    pub noisy: bool,
}

impl Metric {
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            samples: Samples::new(vec![value]),
            statistic: Statistic::Median,
            noisy: false,
        }
    }

    pub fn value(&self) -> f64 {
        match self.statistic {
            Statistic::Median => self.samples.median(),
            Statistic::Minimum => self.samples.min(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Samples::new(vec![7.0]).median(), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.0), 0.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| Samples::new((0..n).map(|v| v as f64).collect());
        assert_eq!(of(1_000).tail().0, "p99");
        assert_eq!(of(200).tail().0, "p95");
        assert_eq!(of(100).tail().0, "p90");
        assert_eq!(of(40).tail().0, "p75");
        assert_eq!(of(12).tail(), ("max", 11.0));
    }

    #[test]
    fn sampling_honours_the_minimum_and_divides_batches() {
        let mut calls = 0;
        let s = sample(
            Slice {
                budget: Duration::ZERO,
                min_samples: 3,
            },
            4,
            || calls += 1,
        );
        assert_eq!(s.n(), 3);
        assert_eq!(
            calls,
            1 + 3 * 4,
            "one warm-up call plus three batches of four"
        );
    }
}
