//! The [`TimeSeriesSet`] type: a `t × n` matrix of time-series, together with
//! the domain value range that drives the DP sensitivity.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::series::TimeSeries;

/// The admissible range `[d_min, d_max]` of every measure of a dataset.
///
/// The paper's Laplace mechanism (Definition 4) calibrates the noise to the
/// sum sensitivity `n · max(|d_min|, |d_max|)`, which this type computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    /// Smallest admissible measure.
    pub min: f64,
    /// Largest admissible measure.
    pub max: f64,
}

impl ValueRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `min > max` or either bound is non-finite.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min.is_finite() && max.is_finite(), "range bounds must be finite");
        assert!(min <= max, "min must be <= max");
        Self { min, max }
    }

    /// `max(|d_min|, |d_max|)`, the per-measure sensitivity of the sum.
    pub fn per_measure_sensitivity(&self) -> f64 {
        self.min.abs().max(self.max.abs())
    }

    /// The sum sensitivity for series of length `n`:
    /// `n · max(|d_min|, |d_max|)` (Definition 4).
    pub fn sum_sensitivity(&self, n: usize) -> f64 {
        n as f64 * self.per_measure_sensitivity()
    }

    /// Whether `v` lies inside the range.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }

    /// Width of the range.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }
}

/// A set of `t` time-series of identical length `n` (the matrix `S` of §2.1).
#[derive(Debug, Clone)]
pub struct TimeSeriesSet {
    series: Vec<TimeSeries>,
    length: usize,
    range: ValueRange,
}

impl TimeSeriesSet {
    /// Builds a set from series and the domain value range.
    ///
    /// # Panics
    /// Panics if `series` is empty, the lengths are not all identical, or a
    /// value falls outside `range`.
    pub fn new(series: Vec<TimeSeries>, range: ValueRange) -> Self {
        assert!(!series.is_empty(), "a time-series set must not be empty");
        let length = series[0].len();
        for (i, s) in series.iter().enumerate() {
            assert_eq!(s.len(), length, "series {i} has length {} != {length}", s.len());
            debug_assert!(
                s.values().iter().all(|v| range.contains(*v)),
                "series {i} has a value outside the declared range"
            );
        }
        Self { series, length, range }
    }

    /// Number of series `t`.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Always `false`: construction rejects empty sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Length `n` of every series.
    pub fn series_length(&self) -> usize {
        self.length
    }

    /// The declared domain range.
    pub fn range(&self) -> ValueRange {
        self.range
    }

    /// The series.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Access one series.
    pub fn get(&self, i: usize) -> &TimeSeries {
        &self.series[i]
    }

    /// Iterator over the series.
    pub fn iter(&self) -> impl Iterator<Item = &TimeSeries> {
        self.series.iter()
    }

    /// Dimension-wise sum of all series.
    pub fn sum(&self) -> TimeSeries {
        let mut acc = TimeSeries::zeros(self.length);
        for s in &self.series {
            acc.add_assign(s);
        }
        acc
    }

    /// The centroid `g` of the complete set (dimension-wise mean), used by
    /// the inter-cluster inertia of Definition 1.
    pub fn global_centroid(&self) -> TimeSeries {
        let mut acc = self.sum();
        acc.scale(1.0 / self.len() as f64);
        acc
    }

    /// Uniformly samples `count` series (without replacement if
    /// `count <= t`, with replacement otherwise) into a new set.
    pub fn sample<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> TimeSeriesSet {
        assert!(count > 0, "cannot sample an empty subset");
        let picked: Vec<TimeSeries> = if count <= self.len() {
            self.series.choose_multiple(rng, count).cloned().collect()
        } else {
            (0..count)
                .map(|_| self.series[rng.gen_range(0..self.len())].clone())
                .collect()
        };
        TimeSeriesSet::new(picked, self.range)
    }

    /// Retains each series independently with probability `1 - drop_prob`,
    /// modelling churn at the granularity of a k-means iteration (§6.1.5).
    /// Guarantees that at least one series remains.
    pub fn churned<R: Rng + ?Sized>(&self, drop_prob: f64, rng: &mut R) -> TimeSeriesSet {
        assert!((0.0..1.0).contains(&drop_prob), "drop probability must be in [0, 1)");
        let mut kept: Vec<TimeSeries> = self
            .series
            .iter()
            .filter(|_| rng.gen::<f64>() >= drop_prob)
            .cloned()
            .collect();
        if kept.is_empty() {
            kept.push(self.series[rng.gen_range(0..self.len())].clone());
        }
        TimeSeriesSet::new(kept, self.range)
    }

    /// Splits the set into `parts` nearly equal chunks (for distributing the
    /// series over simulated participants).
    pub fn split(&self, parts: usize) -> Vec<TimeSeriesSet> {
        assert!(parts > 0 && parts <= self.len(), "parts must be in 1..=t");
        let chunk = self.len().div_ceil(parts);
        self.series
            .chunks(chunk)
            .map(|c| TimeSeriesSet::new(c.to_vec(), self.range))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_set() -> TimeSeriesSet {
        TimeSeriesSet::new(
            vec![
                TimeSeries::new(vec![0.0, 2.0]),
                TimeSeries::new(vec![2.0, 4.0]),
                TimeSeries::new(vec![4.0, 6.0]),
            ],
            ValueRange::new(0.0, 10.0),
        )
    }

    #[test]
    fn range_sensitivity() {
        let r = ValueRange::new(0.0, 80.0);
        assert_eq!(r.per_measure_sensitivity(), 80.0);
        // CER: 24 hourly measures in [0, 80] => sensitivity 1920 (paper §6.1.1).
        assert_eq!(r.sum_sensitivity(24), 1920.0);
        // NUMED: 20 weekly measures in [0, 50] => sensitivity 1000.
        assert_eq!(ValueRange::new(0.0, 50.0).sum_sensitivity(20), 1000.0);
    }

    #[test]
    fn range_with_negative_min() {
        let r = ValueRange::new(-100.0, 10.0);
        assert_eq!(r.per_measure_sensitivity(), 100.0);
        assert!(r.contains(-50.0));
        assert!(!r.contains(-101.0));
        assert_eq!(r.width(), 110.0);
    }

    #[test]
    #[should_panic(expected = "min must be <= max")]
    fn inverted_range_panics() {
        ValueRange::new(1.0, 0.0);
    }

    #[test]
    fn set_basic_accessors() {
        let set = small_set();
        assert_eq!(set.len(), 3);
        assert_eq!(set.series_length(), 2);
        assert_eq!(set.get(1).values(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        TimeSeriesSet::new(
            vec![TimeSeries::zeros(2), TimeSeries::zeros(3)],
            ValueRange::new(0.0, 1.0),
        );
    }

    #[test]
    fn sum_and_global_centroid() {
        let set = small_set();
        assert_eq!(set.sum().values(), &[6.0, 12.0]);
        assert_eq!(set.global_centroid().values(), &[2.0, 4.0]);
    }

    #[test]
    fn sample_without_replacement_has_requested_size() {
        let set = small_set();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(set.sample(2, &mut rng).len(), 2);
        assert_eq!(set.sample(5, &mut rng).len(), 5);
    }

    #[test]
    fn churned_never_empty() {
        let set = small_set();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let c = set.churned(0.99, &mut rng);
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn churn_zero_keeps_everything() {
        let set = small_set();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(set.churned(0.0, &mut rng).len(), set.len());
    }

    #[test]
    fn split_covers_all_series() {
        let set = small_set();
        let parts = set.split(2);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, set.len());
        assert_eq!(parts.len(), 2);
    }
}
