//! Initial-centroid selection.
//!
//! The paper seeds k-means either with synthetic realistic curves (CER via
//! the CourboGen generator — never raw member series, for privacy) or with
//! series drawn uniformly at random (NUMED, 2-D points).  Both options are
//! provided here; the distributed run seeds through them too.

use rand::seq::SliceRandom;
use rand::Rng;

use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

/// How to obtain the initial centroids `C_init`.
#[derive(Debug, Clone)]
pub enum InitialCentroids {
    /// Use the provided centroids verbatim (e.g. generator-produced curves).
    Provided(Vec<TimeSeries>),
    /// Draw `k` distinct series from the dataset uniformly at random.
    RandomFromData {
        /// Number of centroids.
        k: usize,
    },
}

impl InitialCentroids {
    /// Materialises the initial centroids for a dataset.
    ///
    /// # Panics
    /// Panics if `k` is zero, exceeds the dataset size, or provided centroids
    /// have a length different from the dataset's series length.
    pub fn materialize<R: Rng + ?Sized>(&self, data: &TimeSeriesSet, rng: &mut R) -> Vec<TimeSeries> {
        match self {
            InitialCentroids::Provided(centroids) => {
                assert!(!centroids.is_empty(), "provided centroids must not be empty");
                for c in centroids {
                    assert_eq!(
                        c.len(),
                        data.series_length(),
                        "centroid length must match the series length"
                    );
                }
                centroids.clone()
            }
            InitialCentroids::RandomFromData { k } => {
                assert!(*k >= 1 && *k <= data.len(), "k must be in 1..=t");
                data.series().choose_multiple(rng, *k).cloned().collect()
            }
        }
    }

    /// The number of centroids this initialisation produces.
    pub fn k(&self) -> usize {
        match self {
            InitialCentroids::Provided(centroids) => centroids.len(),
            InitialCentroids::RandomFromData { k } => *k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_timeseries::ValueRange;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> TimeSeriesSet {
        let series = (0..20)
            .map(|i| TimeSeries::new(vec![i as f64, (i * 2) as f64]))
            .collect();
        TimeSeriesSet::new(series, ValueRange::new(0.0, 40.0))
    }

    #[test]
    fn provided_centroids_are_used_verbatim() {
        let data = dataset();
        let provided = vec![TimeSeries::new(vec![1.0, 1.0]), TimeSeries::new(vec![2.0, 2.0])];
        let mut rng = StdRng::seed_from_u64(1);
        let init = InitialCentroids::Provided(provided.clone());
        assert_eq!(init.materialize(&data, &mut rng), provided);
        assert_eq!(init.k(), 2);
    }

    #[test]
    #[should_panic(expected = "centroid length")]
    fn provided_centroids_with_wrong_length_panic() {
        let data = dataset();
        let mut rng = StdRng::seed_from_u64(1);
        InitialCentroids::Provided(vec![TimeSeries::zeros(3)]).materialize(&data, &mut rng);
    }

    #[test]
    fn random_from_data_returns_k_members() {
        let data = dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let centroids = InitialCentroids::RandomFromData { k: 5 }.materialize(&data, &mut rng);
        assert_eq!(centroids.len(), 5);
        for c in &centroids {
            assert!(data.iter().any(|s| s == c), "random centroids must be dataset members");
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_larger_than_dataset_panics() {
        let data = dataset();
        let mut rng = StdRng::seed_from_u64(4);
        InitialCentroids::RandomFromData { k: 21 }.materialize(&data, &mut rng);
    }
}
