//! Smart-meter fleet scenario (the paper's CER use case, §1 and §6).
//!
//!     cargo run --release --example smart_meter_fleet -- [series] [k]
//!
//! A utility wants households to discover which consumption profile they
//! belong to — without collecting their fine-grained load curves.  This
//! example runs the paper's quality methodology at dataset scale: the
//! perturbed centralized k-means surrogate with each budget-concentration
//! strategy, compared against the non-private baseline.

use chiaroscuro::core::prelude::*;
use chiaroscuro::kmeans::init::InitialCentroids;
use chiaroscuro::kmeans::lloyd::{KMeans, KMeansConfig};
use chiaroscuro::timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
use chiaroscuro::timeseries::inertia::dataset_inertia;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let series: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(25);

    let generator = CerLikeGenerator::new(2024);
    let data = generator.generate(series);
    let init = InitialCentroids::Provided(generator.generate_initial_centroids(k));
    println!(
        "Clustering {} synthetic household load curves into {} profiles (dataset inertia {:.1})\n",
        data.len(),
        k,
        dataset_inertia(&data)
    );

    let strategies = [
        ("GREEDY + SMA", BudgetStrategy::Greedy, Smoothing::PAPER_DEFAULT),
        ("GREEDY_FLOOR(4) + SMA", BudgetStrategy::GreedyFloor { floor_size: 4 }, Smoothing::PAPER_DEFAULT),
        ("UNIFORM_FAST(5) + SMA", BudgetStrategy::UniformFast { max_iterations: 5 }, Smoothing::PAPER_DEFAULT),
        ("GREEDY, no smoothing", BudgetStrategy::Greedy, Smoothing::None),
    ];

    // Non-private baseline for reference.
    let params = ChiaroscuroParams::builder().k(k).max_iterations(10).build();
    let config = KMeansConfig {
        max_iterations: params.max_iterations,
        convergence_threshold: params.convergence_threshold,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let baseline = KMeans::new(config).run(&data, &init, &mut rng);
    let baseline_best = baseline
        .pre_inertia_series()
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    println!("{:<26} best intra-cluster inertia {:.2} (non-private reference)", "k-means (no privacy)", baseline_best);

    for (name, strategy, smoothing) in strategies {
        let params = ChiaroscuroParams::builder()
            .k(k)
            .epsilon(0.69)
            .strategy(strategy)
            .smoothing(smoothing)
            .max_iterations(10)
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        let report = params.perturbed_kmeans(0.0).run(&data, &init, &mut rng);
        let best = report.pre_post().expect("at least one iteration");
        println!(
            "{:<26} best intra-cluster inertia {:.2} at iteration {} ({} centroids survive, ε spent {:.2})",
            name,
            best.pre,
            best.best_iteration + 1,
            report.centroid_counts().last().unwrap(),
            report.total_epsilon()
        );
    }

    println!("\nInterpretation: with ε = ln 2 the private clustering stays close to the");
    println!("non-private inertia during the first iterations, and budget concentration");
    println!("(GREEDY family) preserves more centroids than a uniform split — the paper's R3.");
}
