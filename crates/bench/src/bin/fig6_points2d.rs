//! Figure 6 / Appendix D — illustration on two-dimensional points.
//!
//! Runs the standard k-means and the perturbed k-means (GREEDY, no
//! smoothing — 2-D points have no temporal structure to smooth) over the
//! A3-like 750K-point dataset and prints the centroids obtained at the
//! best perturbed iteration, plus their distance to the closest true
//! cluster center.
//!
//! Usage:
//!   fig6_points2d [--points 750000] [--duplication 100] [--k 50] [--seed 1]

use chiaroscuro_bench::workloads::{baseline_kmeans, surrogate_kmeans, MAX_ITERATIONS, PAPER_EPSILON};
use chiaroscuro_bench::{Args, Table};
use chiaroscuro_dp::budget::{BudgetSchedule, BudgetStrategy};
use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::perturbed::Smoothing;
use chiaroscuro_timeseries::datasets::points2d::Points2dGenerator;
use chiaroscuro_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let points = args.get("points", 75_000usize);
    let duplication = args.get("duplication", 100usize);
    let k = args.get("k", 50usize);
    let seed = args.get("seed", 1u64);

    eprintln!("# Figure 6 — {points} two-dimensional points, 50 true clusters, k={k}");
    let generator = Points2dGenerator::new(seed).with_duplication(duplication);
    let (data, _) = generator.generate_labelled(points);
    let true_centers = generator.true_centers();
    let init = InitialCentroids::Provided(generator.generate_initial_centroids(k));

    // Standard k-means (Figure 6(a)).
    let mut rng = StdRng::seed_from_u64(seed);
    let clear = baseline_kmeans(MAX_ITERATIONS).run(&data, &init, &mut rng);

    // Perturbed k-means, GREEDY, no smoothing (Figure 6(b)).
    let perturbed_kmeans = |iterations: usize| {
        let schedule = BudgetSchedule::new(BudgetStrategy::Greedy, PAPER_EPSILON, MAX_ITERATIONS);
        surrogate_kmeans(schedule, iterations, Smoothing::None, 0.0)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let perturbed = perturbed_kmeans(MAX_ITERATIONS).run(&data, &init, &mut rng);
    // The paper plots the centroids of the *highest-quality* iteration
    // (iteration 6 in their run): re-run the same seeded execution stopped at
    // the best iteration to recover those centroids.
    let best_iteration = perturbed.pre_post().expect("at least one iteration").best_iteration;
    let mut rng = StdRng::seed_from_u64(seed);
    let perturbed_best = perturbed_kmeans(best_iteration + 1).run(&data, &init, &mut rng);

    let mut summary = Table::new("Fig 6 — summary", &["variant", "best iteration", "intra-cluster inertia", "centroids within 5 units of a true center"]);
    for (name, report) in [("In the clear", &clear), ("Chiaroscuro (GREEDY, no smoothing)", &perturbed_best)] {
        let best = report.pre_post().expect("at least one iteration");
        let close = report
            .final_centroids
            .iter()
            .filter(|c| closest_center_distance(c, &true_centers) < 5.0)
            .count();
        summary.row(&[
            name.to_string(),
            (best.best_iteration + 1).to_string(),
            format!("{:.2}", best.pre),
            format!("{close}/{k}"),
        ]);
    }
    summary.print();

    if args.flag("dump-centroids") {
        let mut table = Table::new("Fig 6(b) — perturbed centroids (x, y, distance to closest true center)", &["x", "y", "distance"]);
        for c in &perturbed_best.final_centroids {
            let d = closest_center_distance(c, &true_centers);
            if d.is_finite() && c[0].abs() < 1_000.0 {
                table.row(&[format!("{:.2}", c[0]), format!("{:.2}", c[1]), format!("{d:.2}")]);
            }
        }
        table.print();
    }
}

fn closest_center_distance(centroid: &TimeSeries, centers: &[[f64; 2]]) -> f64 {
    centers
        .iter()
        .map(|c| {
            let dx = centroid[0] - c[0];
            let dy = centroid[1] - c[1];
            (dx * dx + dy * dy).sqrt()
        })
        .fold(f64::INFINITY, f64::min)
}
