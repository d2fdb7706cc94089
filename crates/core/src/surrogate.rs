//! The large-scale quality surrogate.
//!
//! The paper itself cannot run millions of real devices: for clustering
//! *quality* it runs a perturbed centralized k-means embedding the budget
//! strategies and the means smoothing (§6.1, "we evaluate ... the quality by
//! running a perturbed centralized k-means implementation").  This module
//! wires the Chiaroscuro parameters into that surrogate so the quality
//! figures can be produced at dataset scale while the distributed runner
//! validates the protocol end to end at population scale.

use rand::Rng;

use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::lloyd::{KMeans, KMeansConfig};
use chiaroscuro_kmeans::report::RunReport;
use chiaroscuro_timeseries::TimeSeriesSet;

use crate::config::ChiaroscuroParams;

/// Quality-surrogate runner configured from Chiaroscuro parameters.
#[derive(Debug, Clone)]
pub struct QualitySurrogate {
    params: ChiaroscuroParams,
    /// Per-iteration churn (fraction of devices offline for a whole
    /// iteration), as in §6.1.5.
    pub iteration_churn: f64,
}

impl QualitySurrogate {
    /// Creates a surrogate for the given parameters.
    pub fn new(params: ChiaroscuroParams) -> Self {
        params.validate();
        Self { params, iteration_churn: 0.0 }
    }

    /// Enables per-iteration churn.
    pub fn with_iteration_churn(mut self, churn: f64) -> Self {
        assert!((0.0..1.0).contains(&churn));
        self.iteration_churn = churn;
        self
    }

    /// Runs the perturbed centralized k-means with the Chiaroscuro settings.
    pub fn run_perturbed<R: Rng + ?Sized>(
        &self,
        data: &TimeSeriesSet,
        init: &InitialCentroids,
        rng: &mut R,
    ) -> RunReport {
        self.params.perturbed_kmeans(self.iteration_churn).run(data, init, rng)
    }

    /// Runs the unperturbed baseline with the same iteration limit (the "No
    /// perturbation" curves of Figure 2).
    pub fn run_baseline<R: Rng + ?Sized>(
        &self,
        data: &TimeSeriesSet,
        init: &InitialCentroids,
        rng: &mut R,
    ) -> RunReport {
        let config = KMeansConfig {
            max_iterations: self.params.max_iterations,
            convergence_threshold: self.params.convergence_threshold,
        };
        KMeans::new(config).run(data, init, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_dp::budget::BudgetStrategy;
    use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn surrogate_runs_both_variants_with_shared_settings() {
        let params = ChiaroscuroParams::builder()
            .k(10)
            .strategy(BudgetStrategy::Greedy)
            .max_iterations(5)
            .build();
        let data = CerLikeGenerator::new(1).generate(1_500);
        let init = InitialCentroids::RandomFromData { k: 10 };
        let surrogate = QualitySurrogate::new(params);
        let mut rng = StdRng::seed_from_u64(1);
        let baseline = surrogate.run_baseline(&data, &init, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let perturbed = surrogate.run_perturbed(&data, &init, &mut rng);
        assert!(baseline.num_iterations() >= 1);
        assert!(perturbed.num_iterations() >= 1);
        assert!(perturbed.total_epsilon() <= 0.69 + 1e-9);
        // Perturbation cannot beat the exact baseline by more than noise.
        let base_best = baseline.pre_inertia_series().iter().cloned().fold(f64::INFINITY, f64::min);
        let pert_best = perturbed.pre_post().unwrap().pre;
        assert!(pert_best >= 0.5 * base_best);
    }

    #[test]
    fn churn_surrogate_reduces_participation() {
        let params = ChiaroscuroParams::builder().k(5).max_iterations(3).build();
        let data = CerLikeGenerator::new(2).generate(800);
        let init = InitialCentroids::RandomFromData { k: 5 };
        let mut rng = StdRng::seed_from_u64(2);
        let report = QualitySurrogate::new(params)
            .with_iteration_churn(0.5)
            .run_perturbed(&data, &init, &mut rng);
        for it in &report.iterations {
            assert!(it.participating_series < 650);
        }
    }
}
