//! Health-cohort scenario (the paper's NUMED use case).
//!
//!     cargo run --release --example health_cohort -- [patients]
//!
//! Hospitals monitor tumor-growth series on patients' personal devices and
//! want to identify typical response profiles (responders, relapses, stable
//! and progressive disease) without centralising the raw trajectories.
//! This example clusters a NUMED-like cohort with the GREEDY strategy and
//! then reports how well the private centroids match the known ground-truth
//! archetypes, plus the privacy accounting of the run.

use chiaroscuro::core::prelude::*;
use chiaroscuro::dp::accountant::exchanges_for_params;
use chiaroscuro::kmeans::init::InitialCentroids;
use chiaroscuro::timeseries::datasets::numed::{NumedLikeGenerator, PatientProfile};
use chiaroscuro::timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let patients: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8_000);
    let k = 8;

    let generator = NumedLikeGenerator::new(7);
    let (data, _labels) = generator.generate_labelled(patients);
    let init = InitialCentroids::Provided(generator.generate_initial_centroids(k));

    let params = ChiaroscuroParams::builder()
        .k(k)
        .epsilon(0.69)
        .delta(0.995)
        .strategy(BudgetStrategy::Greedy)
        .smoothing(Smoothing::PAPER_DEFAULT)
        .max_iterations(10)
        .build();

    // Privacy accounting: how much budget each iteration consumes and how
    // many gossip exchanges the distributed deployment would need.
    let schedule = params.budget_schedule();
    let dp = params.dp_params(data.series_length());
    println!("Privacy plan (ε = {}, δ = {}):", params.epsilon, params.delta);
    for iteration in 0..4 {
        let e = schedule.epsilon_for_iteration(iteration);
        println!("  iteration {}: ε_i = {:.3}, cumulative {:.3}", iteration + 1, e, schedule.cumulative_epsilon(iteration + 1));
    }
    println!(
        "  gossip exchanges needed per epidemic sum for 1M devices (Theorem 3): {}\n",
        exchanges_for_params(&dp, 1_000_000, 1.0, 1e-12)
    );

    // Quality at cohort scale via the paper's surrogate methodology.
    let surrogate = QualitySurrogate::new(params);
    let mut rng = StdRng::seed_from_u64(11);
    let report = surrogate.run_perturbed(&data, &init, &mut rng);
    let best = report.pre_post().expect("at least one iteration");
    println!(
        "Clustered {} patients: best intra-cluster inertia {:.2} at iteration {} (dataset inertia {:.2})",
        patients,
        best.pre,
        best.best_iteration + 1,
        report.dataset_inertia
    );

    // Match each surviving centroid to the closest ground-truth archetype.
    println!("\nPrivate centroids vs ground-truth archetypes:");
    let archetypes: Vec<(String, TimeSeries)> = PatientProfile::MIXTURE
        .iter()
        .map(|p| (format!("{p:?}"), TimeSeries::new(p.base_curve().to_vec())))
        .collect();
    for (i, centroid) in report.final_centroids.iter().enumerate() {
        if centroid.max() > 1_000.0 {
            continue; // aberrant (lost) centroid
        }
        let (name, distance) = archetypes
            .iter()
            .map(|(name, curve)| (name.clone(), centroid.distance(curve)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        println!("  centroid {i}: closest archetype {name} (distance {distance:.1})");
    }
}
