//! Cross-crate integration tests: the fully-distributed execution versus
//! the centralized surrogates, the security audit, and the privacy
//! accounting of a complete run.

use chiaroscuro::core::prelude::*;
use chiaroscuro::kmeans::init::InitialCentroids;
use chiaroscuro::timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
use chiaroscuro::timeseries::{TimeSeries, TimeSeriesSet, ValueRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dataset with two unambiguous constant-profile clusters.
fn two_profile_dataset(population: usize) -> TimeSeriesSet {
    let series = (0..population)
        .map(|i| if i % 2 == 0 { TimeSeries::constant(6, 15.0) } else { TimeSeries::constant(6, 65.0) })
        .collect();
    TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
}

fn functional_params(k: usize, iterations: usize, epsilon: f64) -> ChiaroscuroParams {
    ChiaroscuroParams::builder()
        .k(k)
        .epsilon(epsilon)
        .strategy(BudgetStrategy::UniformFast { max_iterations: iterations })
        .max_iterations(iterations)
        .key_bits(256)
        .key_share_threshold(3)
        // At most the smallest population these params run over (nν may not
        // exceed the number of participants).
        .num_noise_shares(16)
        .exchanges(14)
        .build()
}

#[test]
fn distributed_run_matches_the_centralized_surrogate_structure() {
    // With a generous ε (so noise is second-order), the distributed protocol
    // and the perturbed centralized surrogate must find the same cluster
    // structure on an easy dataset.
    let data = two_profile_dataset(24);
    let init = vec![TimeSeries::constant(6, 25.0), TimeSeries::constant(6, 55.0)];
    let params = functional_params(2, 2, 60.0);

    let distributed = DistributedRun::new(params.clone(), &data)
        .with_initial_centroids(init.clone())
        .execute(1);

    let mut rng = StdRng::seed_from_u64(1);
    let centralized = params.perturbed_kmeans(0.0).run(&data, &InitialCentroids::Provided(init), &mut rng);

    // Both runs keep the two clusters alive and reach a small intra-cluster
    // inertia compared to the dataset inertia.
    let d_last = distributed.report.iterations.last().unwrap();
    let c_last = centralized.iterations.last().unwrap();
    assert_eq!(d_last.surviving_centroids, 2);
    assert_eq!(c_last.surviving_centroids, 2);
    assert!(d_last.pre_inertia < 0.2 * distributed.report.dataset_inertia);
    assert!(c_last.pre_inertia < 0.2 * centralized.dataset_inertia);

    // The final centroids of the two execution paths agree on the cluster
    // means (up to the DP noise, which the large ε keeps small).
    let mut d_means: Vec<f64> = distributed.centroids().iter().map(|c| c.mean()).collect();
    let mut c_means: Vec<f64> = centralized.final_centroids.iter().map(|c| c.mean()).collect();
    d_means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    c_means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (d, c) in d_means.iter().zip(c_means.iter()) {
        assert!((d - c).abs() < 10.0, "distributed {d:.1} vs centralized {c:.1}");
    }
}

#[test]
fn distributed_run_never_exports_unprotected_data() {
    let data = two_profile_dataset(16);
    let params = functional_params(2, 1, 10.0);
    let outcome = DistributedRun::new(params, &data).execute(3);
    // Requirement R2: every recorded transfer is encrypted, differentially
    // private, or data independent — never raw personal data.
    assert!(!outcome.audit.leaked_raw_data());
    assert!(outcome.audit.count(DataClass::Encrypted) >= 2 * 16);
    assert!(outcome.audit.count(DataClass::DifferentiallyPrivate) >= 1);
    assert!(outcome.audit.count(DataClass::DataIndependent) >= 16);
}

#[test]
fn distributed_run_respects_the_privacy_budget_and_terminates() {
    // Correctness (Theorem 1): the run terminates and outputs at least one
    // centroid, and the ε spent never exceeds the budget.
    let data = CerLikeGenerator::new(5).generate(18);
    let params = ChiaroscuroParams::builder()
        .k(3)
        .epsilon(1.0)
        .strategy(BudgetStrategy::Greedy)
        .max_iterations(3)
        .key_bits(256)
        .key_share_threshold(2)
        .num_noise_shares(18)
        .exchanges(12)
        .build();
    let outcome = DistributedRun::new(params, &data).execute(9);
    assert!(!outcome.centroids().is_empty());
    assert!(outcome.report.num_iterations() >= 1 && outcome.report.num_iterations() <= 3);
    assert!(outcome.report.total_epsilon() <= 1.0 + 1e-9);
}

#[test]
fn churn_enabled_distributed_run_still_completes() {
    let data = two_profile_dataset(20);
    let mut params = functional_params(2, 2, 40.0);
    params.churn = 0.25;
    let outcome = DistributedRun::new(params, &data).execute(17);
    assert_eq!(outcome.report.num_iterations(), 2);
    // Messages are still exchanged despite the churn.
    for stats in &outcome.network {
        assert!(stats.sum_messages_per_node > 0.0);
    }
}

#[test]
fn smoothing_and_strategy_settings_propagate_to_the_surrogate() {
    let data = CerLikeGenerator::new(9).generate(800);
    let init = InitialCentroids::Provided(CerLikeGenerator::new(9).generate_initial_centroids(10));
    for strategy in [
        BudgetStrategy::Greedy,
        BudgetStrategy::GreedyFloor { floor_size: 4 },
        BudgetStrategy::UniformFast { max_iterations: 5 },
    ] {
        let params = ChiaroscuroParams::builder().k(10).strategy(strategy).max_iterations(10).build();
        let mut rng = StdRng::seed_from_u64(3);
        let report = params.perturbed_kmeans(0.0).run(&data, &init, &mut rng);
        assert!(report.total_epsilon() <= 0.69 + 1e-9, "{strategy:?} overspent the budget");
        assert!(report.num_iterations() >= 1);
        if let BudgetStrategy::UniformFast { max_iterations } = strategy {
            assert!(report.num_iterations() <= max_iterations);
        }
    }
}
