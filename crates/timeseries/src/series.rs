//! The [`TimeSeries`] type: a fixed-length sequence of real-valued measures.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::distance::squared_euclidean;

/// A single time-series `s = <s[1] ... s[n]>` (§2.1).
///
/// Values are stored as `f64`.  The length `n` is fixed at construction; all
/// series of a [`crate::TimeSeriesSet`] share the same length.
#[derive(Clone, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a time-series from raw values.
    ///
    /// # Panics
    /// Panics if `values` is empty or contains a non-finite value.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a time-series must have at least one measure");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "time-series values must be finite"
        );
        Self { values }
    }

    /// Creates a zero-valued time-series of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self::new(vec![0.0; n])
    }

    /// Creates a constant-valued time-series of length `n`.
    pub fn constant(n: usize, value: f64) -> Self {
        Self::new(vec![value; n])
    }

    /// The number of measures `n`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: construction rejects empty series.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dimension-wise addition of `other` into `self`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &TimeSeries) {
        assert_eq!(self.len(), other.len(), "length mismatch in add_assign");
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// Dimension-wise subtraction of `other` from `self`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn sub_assign(&mut self, other: &TimeSeries) {
        assert_eq!(self.len(), other.len(), "length mismatch in sub_assign");
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a -= b;
        }
    }

    /// Multiplies every measure by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, factor: f64) -> TimeSeries {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// The dimension-wise mean of the series (a single scalar).
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.len() as f64
    }

    /// The squared Euclidean distance to `other`.
    pub fn squared_distance(&self, other: &TimeSeries) -> f64 {
        squared_euclidean(&self.values, &other.values)
    }

    /// The Euclidean distance to `other`.
    pub fn distance(&self, other: &TimeSeries) -> f64 {
        self.squared_distance(other).sqrt()
    }

    /// Clamps every measure into `[lo, hi]`.
    pub fn clamp(&mut self, lo: f64, hi: f64) {
        for v in &mut self.values {
            *v = v.clamp(lo, hi);
        }
    }

    /// Smallest measure in the series.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest measure in the series.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Circular simple moving average with a window of `w + 1` measures
    /// (`w/2` on each side, indices taken modulo `n`), as in §5.2 of the
    /// paper.
    ///
    /// Returns a new smoothed series; the original is unchanged.
    pub fn smoothed_circular(&self, w: usize) -> TimeSeries {
        if w == 0 {
            return self.clone();
        }
        let n = self.len();
        let half = (w / 2) as isize;
        let mut out = Vec::with_capacity(n);
        for j in 0..n as isize {
            let mut acc = 0.0;
            let mut count = 0usize;
            for off in -half..=half {
                let idx = (j + off).rem_euclid(n as isize) as usize;
                acc += self.values[idx];
                count += 1;
            }
            out.push(acc / count as f64);
        }
        TimeSeries::new(out)
    }
}

impl Index<usize> for TimeSeries {
    type Output = f64;

    fn index(&self, index: usize) -> &Self::Output {
        &self.values[index]
    }
}

impl IndexMut<usize> for TimeSeries {
    fn index_mut(&mut self, index: usize) -> &mut Self::Output {
        &mut self.values[index]
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "TimeSeries{:?}", self.values)
        } else {
            write!(
                f,
                "TimeSeries[len={}, first={:.3}, last={:.3}]",
                self.len(),
                self.values[0],
                self.values[self.len() - 1]
            )
        }
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        let result = std::panic::catch_unwind(|| TimeSeries::new(vec![]));
        assert!(result.is_err());
    }

    #[test]
    fn new_rejects_nan() {
        let result = std::panic::catch_unwind(|| TimeSeries::new(vec![1.0, f64::NAN]));
        assert!(result.is_err());
    }

    #[test]
    fn zeros_and_constant() {
        let z = TimeSeries::zeros(4);
        assert_eq!(z.values(), &[0.0; 4]);
        let c = TimeSeries::constant(3, 2.5);
        assert_eq!(c.values(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = TimeSeries::new(vec![1.0, 2.0, 3.0]);
        let b = TimeSeries::new(vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.values(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.values(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn sub_assign_roundtrip() {
        let mut a = TimeSeries::new(vec![1.0, 2.0, 3.0]);
        let b = TimeSeries::new(vec![0.25, 0.5, 0.75]);
        a.add_assign(&b);
        a.sub_assign(&b);
        assert_eq!(a.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_assign_length_mismatch_panics() {
        let mut a = TimeSeries::zeros(3);
        let b = TimeSeries::zeros(4);
        a.add_assign(&b);
    }

    #[test]
    fn distances() {
        let a = TimeSeries::new(vec![0.0, 0.0]);
        let b = TimeSeries::new(vec![3.0, 4.0]);
        assert_eq!(a.squared_distance(&b), 25.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn mean_min_max() {
        let s = TimeSeries::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn clamp_bounds_values() {
        let mut s = TimeSeries::new(vec![-1.0, 0.5, 2.0]);
        s.clamp(0.0, 1.0);
        assert_eq!(s.values(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn smoothing_window_zero_is_identity() {
        let s = TimeSeries::new(vec![1.0, 5.0, 9.0]);
        assert_eq!(s.smoothed_circular(0), s);
    }

    #[test]
    fn smoothing_constant_series_is_identity() {
        let s = TimeSeries::constant(10, 3.0);
        let sm = s.smoothed_circular(4);
        for v in sm.values() {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_reduces_oscillation_amplitude() {
        // Alternating series: smoothing must shrink the spread around the mean.
        let values: Vec<f64> = (0..24).map(|i| if i % 2 == 0 { 10.0 } else { 0.0 }).collect();
        let s = TimeSeries::new(values);
        let sm = s.smoothed_circular(4);
        let spread = |ts: &TimeSeries| ts.max() - ts.min();
        assert!(spread(&sm) < spread(&s));
    }

    #[test]
    fn smoothing_is_circular() {
        // A spike at index 0 must bleed into the last indices through wraparound.
        let mut values = vec![0.0; 12];
        values[0] = 12.0;
        let s = TimeSeries::new(values);
        let sm = s.smoothed_circular(2);
        assert!(sm[11] > 0.0, "circular window must reach the end of the series");
        assert!(sm[1] > 0.0);
        assert!((sm[6] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn indexing() {
        let mut s = TimeSeries::new(vec![1.0, 2.0]);
        assert_eq!(s[1], 2.0);
        s[0] = 7.0;
        assert_eq!(s.values(), &[7.0, 2.0]);
    }
}
