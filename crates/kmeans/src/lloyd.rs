//! Lloyd's k-means (§3.1): the non-private baseline of the paper's quality
//! evaluation.

use rand::Rng;

use chiaroscuro_timeseries::inertia::{dataset_inertia, inertia_report, Assignment};
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::init::InitialCentroids;
use crate::report::{IterationReport, RunReport};

/// Configuration of a baseline k-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Maximum number of iterations `n_max_it`.
    pub max_iterations: usize,
    /// Convergence threshold θ on the total centroid displacement.
    pub convergence_threshold: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self { max_iterations: 10, convergence_threshold: 1e-4 }
    }
}

/// The baseline k-means runner.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
}

impl KMeans {
    /// Creates a runner.
    pub fn new(config: KMeansConfig) -> Self {
        assert!(config.max_iterations >= 1, "at least one iteration is required");
        assert!(config.convergence_threshold >= 0.0);
        Self { config }
    }

    /// Runs k-means on `data` starting from `init` centroids.
    pub fn run<R: Rng + ?Sized>(&self, data: &TimeSeriesSet, init: &InitialCentroids, rng: &mut R) -> RunReport {
        let mut centroids = init.materialize(data, rng);
        let k = centroids.len();
        let mut iterations = Vec::new();
        let mut converged = false;

        for iteration in 0..self.config.max_iterations {
            // Assignment step.
            let assignment = Assignment::compute(data, &centroids);
            // Computation step: exact cluster means.
            let (sums, counts) = assignment.cluster_sums(data, k);
            let means: Vec<TimeSeries> = sums
                .into_iter()
                .zip(counts.iter())
                .enumerate()
                .map(|(i, (mut sum, &count))| {
                    if count > 0.0 {
                        sum.scale(1.0 / count);
                        sum
                    } else {
                        // An empty cluster keeps its previous centroid.
                        centroids[i].clone()
                    }
                })
                .collect();
            let report = inertia_report(data, &means, &assignment);
            iterations.push(IterationReport {
                iteration,
                epsilon: 0.0,
                pre_inertia: report.intra,
                post_inertia: report.intra,
                surviving_centroids: assignment.non_empty_clusters(),
                participating_series: data.len(),
            });
            // Convergence step.
            let displacement: f64 = centroids.iter().zip(means.iter()).map(|(c, m)| c.distance(m)).sum();
            centroids = means;
            if displacement <= self.config.convergence_threshold {
                converged = true;
                break;
            }
        }

        RunReport {
            iterations,
            final_centroids: centroids,
            converged,
            dataset_inertia: dataset_inertia(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, points2d::Points2dGenerator, DatasetGenerator};
    use chiaroscuro_timeseries::ValueRange;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> TimeSeriesSet {
        let mut series = Vec::new();
        for i in 0..10 {
            series.push(TimeSeries::new(vec![i as f64 * 0.1, 0.0]));
            series.push(TimeSeries::new(vec![10.0 + i as f64 * 0.1, 10.0]));
        }
        TimeSeriesSet::new(series, ValueRange::new(0.0, 20.0))
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let report = KMeans::new(KMeansConfig::default()).run(
            &data,
            &InitialCentroids::Provided(vec![
                TimeSeries::new(vec![1.0, 1.0]),
                TimeSeries::new(vec![9.0, 9.0]),
            ]),
            &mut rng,
        );
        assert!(report.converged);
        let last = report.iterations.last().unwrap();
        assert_eq!(last.surviving_centroids, 2);
        assert!(last.pre_inertia < 1.0, "inertia = {}", last.pre_inertia);
        // One centroid near (0.45, 0) and one near (10.45, 10).
        let finals = &report.final_centroids;
        assert!(finals.iter().any(|c| c[1] < 1.0));
        assert!(finals.iter().any(|c| c[1] > 9.0));
    }

    #[test]
    fn inertia_is_monotonically_non_increasing() {
        let data = CerLikeGenerator::new(5).generate(400);
        let mut rng = StdRng::seed_from_u64(2);
        let report = KMeans::new(KMeansConfig { max_iterations: 8, convergence_threshold: 0.0 }).run(
            &data,
            &InitialCentroids::RandomFromData { k: 8 },
            &mut rng,
        );
        let series = report.pre_inertia_series();
        for pair in series.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-6, "inertia must not increase: {series:?}");
        }
    }

    #[test]
    fn inertia_stays_below_dataset_inertia() {
        let data = CerLikeGenerator::new(7).generate(300);
        let mut rng = StdRng::seed_from_u64(3);
        let report = KMeans::new(KMeansConfig::default()).run(
            &data,
            &InitialCentroids::RandomFromData { k: 10 },
            &mut rng,
        );
        for it in &report.iterations {
            assert!(it.pre_inertia <= report.dataset_inertia);
        }
    }

    #[test]
    fn converges_on_well_separated_2d_blobs() {
        let generator = Points2dGenerator::new(3).with_duplication(5);
        let (data, _) = generator.generate_labelled(2_000);
        let mut rng = StdRng::seed_from_u64(4);
        let report = KMeans::new(KMeansConfig { max_iterations: 20, convergence_threshold: 1e-3 }).run(
            &data,
            &InitialCentroids::PlusPlus { k: 50 },
            &mut rng,
        );
        let last = report.iterations.last().unwrap();
        // k-means++ on 50 well-separated blobs should keep most clusters alive
        // and explain the vast majority of the variance.
        assert!(last.surviving_centroids >= 40);
        assert!(last.pre_inertia < 0.1 * report.dataset_inertia);
    }

    #[test]
    fn single_iteration_limit_is_respected() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(5);
        let report = KMeans::new(KMeansConfig { max_iterations: 1, convergence_threshold: 0.0 }).run(
            &data,
            &InitialCentroids::RandomFromData { k: 2 },
            &mut rng,
        );
        assert_eq!(report.num_iterations(), 1);
    }

    #[test]
    fn empty_clusters_keep_previous_centroids() {
        let data = two_blobs();
        let mut rng = StdRng::seed_from_u64(6);
        // Third centroid is far away from every point and will own nothing.
        let faraway = TimeSeries::new(vec![19.0, 19.0]);
        let report = KMeans::new(KMeansConfig { max_iterations: 3, convergence_threshold: 0.0 }).run(
            &data,
            &InitialCentroids::Provided(vec![
                TimeSeries::new(vec![0.0, 0.0]),
                TimeSeries::new(vec![10.0, 10.0]),
                faraway.clone(),
            ]),
            &mut rng,
        );
        assert_eq!(report.iterations[0].surviving_centroids, 2);
        assert!(report.final_centroids.iter().any(|c| c == &faraway));
    }
}
