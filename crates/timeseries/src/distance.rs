//! Distance functions between equal-length real vectors.
//!
//! The paper's clustering quality (Definition 1) and the k-means assignment
//! step both use the squared Euclidean distance.

use crate::series::TimeSeries;

/// Squared Euclidean distance `||a - b||²`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in squared_euclidean");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance `||a - b||`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// L1 (Manhattan) distance `||a - b||₁`, used for the sum sensitivity
/// (Definition 4 measures the max L1 impact of one series).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn l1(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch in l1");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

/// Index of the closest centroid to `point` under squared Euclidean
/// distance, together with that distance: the assignment step of k-means
/// (§3.1) and of Algorithm 1, the one nearest-centroid rule of the
/// workspace.
///
/// Ties are broken towards the smallest index, which makes the assignment
/// step deterministic.
///
/// # Panics
/// Panics if `centroids` is empty.
pub fn closest(point: &[f64], centroids: &[TimeSeries]) -> (usize, f64) {
    assert!(!centroids.is_empty(), "closest() needs at least one centroid");
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_euclidean(point, c.values());
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_basic() {
        assert_eq!(squared_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn euclidean_is_sqrt_of_squared() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert!((euclidean(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_basic() {
        assert_eq!(l1(&[1.0, -1.0], &[0.0, 1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        squared_euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn closest_picks_minimum() {
        let centroids = [[0.0, 0.0], [10.0, 10.0], [2.0, 2.0]].map(|c| TimeSeries::new(c.to_vec()));
        let (idx, d) = closest(&[2.5, 2.5], &centroids);
        assert_eq!(idx, 2);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closest_breaks_ties_to_smallest_index() {
        let centroids = [1.0, 3.0].map(|c| TimeSeries::new(vec![c]));
        let (idx, _) = closest(&[2.0], &centroids);
        assert_eq!(idx, 0);
    }
}
