//! Clustering quality metrics: intra-cluster, inter-cluster and full inertia
//! (Definition 1 of the paper), and cluster assignments.

use crate::distance::{closest, squared_euclidean};
use crate::series::TimeSeries;
use crate::set::TimeSeriesSet;

/// The assignment of every series of a dataset to its closest centroid.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `labels[i]` is the index of the centroid assigned to series `i`.
    pub labels: Vec<usize>,
    /// `sizes[j]` is the number of series assigned to centroid `j`.
    pub sizes: Vec<usize>,
}

impl Assignment {
    /// Assigns every series of `data` to the closest centroid of
    /// `centroids` under squared Euclidean distance (assignment step of
    /// k-means, §3.1).
    ///
    /// # Panics
    /// Panics if `centroids` is empty.
    pub fn compute(data: &TimeSeriesSet, centroids: &[TimeSeries]) -> Self {
        assert!(!centroids.is_empty(), "assignment needs at least one centroid");
        let centroid_vecs: Vec<Vec<f64>> = centroids.iter().map(|c| c.values().to_vec()).collect();
        let mut labels = Vec::with_capacity(data.len());
        let mut sizes = vec![0usize; centroids.len()];
        for s in data.iter() {
            let (idx, _) = closest(s.values(), &centroid_vecs);
            labels.push(idx);
            sizes[idx] += 1;
        }
        Self { labels, sizes }
    }

    /// Number of non-empty clusters.
    pub fn non_empty_clusters(&self) -> usize {
        self.sizes.iter().filter(|&&s| s > 0).count()
    }

    /// Per-cluster dimension-wise sums and counts (the exact quantities that
    /// Chiaroscuro computes under encryption).
    pub fn cluster_sums(&self, data: &TimeSeriesSet, k: usize) -> (Vec<TimeSeries>, Vec<f64>) {
        let n = data.series_length();
        let mut sums = vec![TimeSeries::zeros(n); k];
        let mut counts = vec![0.0f64; k];
        for (s, &label) in data.iter().zip(self.labels.iter()) {
            sums[label].add_assign(s);
            counts[label] += 1.0;
        }
        (sums, counts)
    }
}

/// Inertia decomposition of a clustering (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InertiaReport {
    /// Intra-cluster inertia `q_intra` (homogeneity; lower is better).
    pub intra: f64,
    /// Inter-cluster inertia `q_inter` (heterogeneity).
    pub inter: f64,
}

impl InertiaReport {
    /// Full inertia `q = q_intra + q_inter`; a constant of the dataset.
    pub fn total(&self) -> f64 {
        self.intra + self.inter
    }
}

/// Computes the intra-cluster inertia of Definition 1:
/// `q_intra = (1/t) · Σ_i Σ_{s ∈ ζ[i]} ||C[i] - s||²`.
pub fn intra_inertia(data: &TimeSeriesSet, centroids: &[TimeSeries], assignment: &Assignment) -> f64 {
    let t = data.len() as f64;
    let mut acc = 0.0;
    for (s, &label) in data.iter().zip(assignment.labels.iter()) {
        acc += squared_euclidean(centroids[label].values(), s.values());
    }
    acc / t
}

/// Computes the inter-cluster inertia of Definition 1:
/// `q_inter = Σ_i (|ζ[i]|/t) · ||C[i] - g||²` where `g` is the global
/// centroid of the dataset.
pub fn inter_inertia(data: &TimeSeriesSet, centroids: &[TimeSeries], assignment: &Assignment) -> f64 {
    let g = data.global_centroid();
    let t = data.len() as f64;
    let mut acc = 0.0;
    for (i, c) in centroids.iter().enumerate() {
        let weight = assignment.sizes.get(i).copied().unwrap_or(0) as f64 / t;
        acc += weight * squared_euclidean(c.values(), g.values());
    }
    acc
}

/// Computes both parts of the inertia decomposition.
pub fn inertia_report(data: &TimeSeriesSet, centroids: &[TimeSeries], assignment: &Assignment) -> InertiaReport {
    InertiaReport {
        intra: intra_inertia(data, centroids, assignment),
        inter: inter_inertia(data, centroids, assignment),
    }
}

/// The full inertia of the dataset: the intra-cluster inertia of the trivial
/// single-cluster clustering whose centroid is the global mean.  This is the
/// constant "Dataset inertia" line of Figures 2(a) and 2(b).
pub fn dataset_inertia(data: &TimeSeriesSet) -> f64 {
    let g = data.global_centroid();
    let t = data.len() as f64;
    data.iter()
        .map(|s| squared_euclidean(g.values(), s.values()))
        .sum::<f64>()
        / t
}

/// When the exact per-cluster means are used as centroids, the decomposition
/// `q = q_intra + q_inter` holds with `q` the dataset inertia.  With
/// arbitrary centroids the identity does not hold; this helper quantifies the
/// gap, which tests use to validate the decomposition.
pub fn decomposition_gap(data: &TimeSeriesSet, centroids: &[TimeSeries], assignment: &Assignment) -> f64 {
    let report = inertia_report(data, centroids, assignment);
    (report.total() - dataset_inertia(data)).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::ValueRange;

    fn two_blob_set() -> TimeSeriesSet {
        // Two tight groups around (0,0) and (10,10).
        TimeSeriesSet::new(
            vec![
                TimeSeries::new(vec![0.0, 0.0]),
                TimeSeries::new(vec![1.0, 0.0]),
                TimeSeries::new(vec![0.0, 1.0]),
                TimeSeries::new(vec![10.0, 10.0]),
                TimeSeries::new(vec![11.0, 10.0]),
                TimeSeries::new(vec![10.0, 11.0]),
            ],
            ValueRange::new(0.0, 20.0),
        )
    }

    #[test]
    fn assignment_counts_sizes() {
        let set = two_blob_set();
        let centroids = vec![TimeSeries::new(vec![0.0, 0.0]), TimeSeries::new(vec![10.0, 10.0])];
        let a = Assignment::compute(&set, &centroids);
        assert_eq!(a.labels, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(a.sizes, vec![3, 3]);
        assert_eq!(a.non_empty_clusters(), 2);
    }

    #[test]
    fn cluster_sums_match_manual_computation() {
        let set = two_blob_set();
        let centroids = vec![TimeSeries::new(vec![0.0, 0.0]), TimeSeries::new(vec![10.0, 10.0])];
        let a = Assignment::compute(&set, &centroids);
        let (sums, counts) = a.cluster_sums(&set, 2);
        assert_eq!(counts, vec![3.0, 3.0]);
        assert_eq!(sums[0].values(), &[1.0, 1.0]);
        assert_eq!(sums[1].values(), &[31.0, 31.0]);
    }

    #[test]
    fn good_clustering_has_lower_intra_inertia_than_bad() {
        let set = two_blob_set();
        let good = vec![
            TimeSeries::new(vec![1.0 / 3.0, 1.0 / 3.0]),
            TimeSeries::new(vec![31.0 / 3.0, 31.0 / 3.0]),
        ];
        let bad = vec![TimeSeries::new(vec![5.0, 5.0]), TimeSeries::new(vec![20.0, 20.0])];
        let a_good = Assignment::compute(&set, &good);
        let a_bad = Assignment::compute(&set, &bad);
        assert!(intra_inertia(&set, &good, &a_good) < intra_inertia(&set, &bad, &a_bad));
    }

    #[test]
    fn decomposition_holds_for_exact_means() {
        let set = two_blob_set();
        let centroids = vec![
            TimeSeries::new(vec![1.0 / 3.0, 1.0 / 3.0]),
            TimeSeries::new(vec![31.0 / 3.0, 31.0 / 3.0]),
        ];
        let a = Assignment::compute(&set, &centroids);
        assert!(decomposition_gap(&set, &centroids, &a) < 1e-9);
    }

    #[test]
    fn single_cluster_intra_equals_dataset_inertia() {
        let set = two_blob_set();
        let centroids = vec![set.global_centroid()];
        let a = Assignment::compute(&set, &centroids);
        let intra = intra_inertia(&set, &centroids, &a);
        assert!((intra - dataset_inertia(&set)).abs() < 1e-12);
        // And the inter-cluster part is zero by construction.
        assert!(inter_inertia(&set, &centroids, &a).abs() < 1e-12);
    }

    #[test]
    fn inter_inertia_zero_when_all_centroids_at_global_mean() {
        let set = two_blob_set();
        let g = set.global_centroid();
        let centroids = vec![g.clone(), g.clone()];
        let a = Assignment::compute(&set, &centroids);
        assert!(inter_inertia(&set, &centroids, &a).abs() < 1e-12);
    }
}
