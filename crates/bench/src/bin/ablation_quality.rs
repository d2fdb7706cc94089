//! Ablation study over the design choices of §5 and Table 2:
//!
//! * the SMA smoothing window (none, 10%, 20%, 40% of the series length);
//! * the GREEDY_FLOOR floor size (1, 2, 4, 8);
//! * the UNIFORM_FAST iteration cap (3, 5, 10);
//! * the privacy budget ε (0.1, ln 2, 1.0, 2.0) under GREEDY + SMA.
//!
//! For each configuration the harness reports the best pre-perturbation
//! intra-cluster inertia, the iteration at which it is reached and the
//! number of centroids that survive until the end — the quantities Figure 2
//! is built from.
//!
//! Usage:
//!   ablation_quality [--dataset cer|numed] [--series 20000] [--k 50] [--seed 1]

use chiaroscuro_bench::workloads::{surrogate_kmeans, Dataset, MAX_ITERATIONS, PAPER_EPSILON};
use chiaroscuro_bench::{Args, Table};
use chiaroscuro_dp::budget::{BudgetSchedule, BudgetStrategy};
use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::perturbed::Smoothing;
use chiaroscuro_timeseries::TimeSeriesSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let dataset = Dataset::parse_or_exit(&args.get_str("dataset", "cer"));
    let series = args.get("series", 20_000usize);
    let k = args.get("k", 50usize);
    let seed = args.get("seed", 1u64);
    eprintln!("# Ablations — dataset {}, {series} series, k={k}", dataset.name());
    let (data, init) = dataset.generate(series, k, seed);

    smoothing_ablation(&data, &init, seed);
    floor_size_ablation(&data, &init, seed);
    uniform_cap_ablation(&data, &init, seed);
    epsilon_ablation(&data, &init, seed);
}

fn run(
    data: &TimeSeriesSet,
    init: &InitialCentroids,
    strategy: BudgetStrategy,
    smoothing: Smoothing,
    epsilon: f64,
    seed: u64,
) -> (f64, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = BudgetSchedule::new(strategy, epsilon, MAX_ITERATIONS);
    let report = surrogate_kmeans(schedule, MAX_ITERATIONS, smoothing, 0.0).run(data, init, &mut rng);
    let best = report.pre_post().expect("at least one iteration");
    let surviving = *report.centroid_counts().last().unwrap_or(&0);
    (best.pre, best.best_iteration + 1, surviving)
}

fn smoothing_ablation(data: &TimeSeriesSet, init: &InitialCentroids, seed: u64) {
    let mut table = Table::new(
        "Ablation — SMA window (GREEDY strategy, ε = 0.69)",
        &["window", "best PRE inertia", "best iteration", "surviving centroids"],
    );
    let windows: [(String, Smoothing); 4] = [
        ("none".into(), Smoothing::None),
        ("10%".into(), Smoothing::MovingAverage { window_fraction: 0.1 }),
        ("20% (paper)".into(), Smoothing::MovingAverage { window_fraction: 0.2 }),
        ("40%".into(), Smoothing::MovingAverage { window_fraction: 0.4 }),
    ];
    for (label, smoothing) in windows {
        let (pre, it, surviving) = run(data, init, BudgetStrategy::Greedy, smoothing, PAPER_EPSILON, seed);
        table.row(&[label, format!("{pre:.2}"), it.to_string(), surviving.to_string()]);
    }
    table.print();
}

fn floor_size_ablation(data: &TimeSeriesSet, init: &InitialCentroids, seed: u64) {
    let mut table = Table::new(
        "Ablation — GREEDY_FLOOR floor size (SMA 20%, ε = 0.69)",
        &["floor size", "best PRE inertia", "best iteration", "surviving centroids"],
    );
    for floor_size in [1usize, 2, 4, 8] {
        let (pre, it, surviving) = run(
            data,
            init,
            BudgetStrategy::GreedyFloor { floor_size },
            Smoothing::PAPER_DEFAULT,
            PAPER_EPSILON,
            seed,
        );
        table.row(&[floor_size.to_string(), format!("{pre:.2}"), it.to_string(), surviving.to_string()]);
    }
    table.print();
}

fn uniform_cap_ablation(data: &TimeSeriesSet, init: &InitialCentroids, seed: u64) {
    let mut table = Table::new(
        "Ablation — UNIFORM_FAST iteration cap (SMA 20%, ε = 0.69)",
        &["iteration cap", "best PRE inertia", "best iteration", "surviving centroids"],
    );
    for cap in [3usize, 5, 10] {
        let (pre, it, surviving) = run(
            data,
            init,
            BudgetStrategy::UniformFast { max_iterations: cap },
            Smoothing::PAPER_DEFAULT,
            PAPER_EPSILON,
            seed,
        );
        table.row(&[cap.to_string(), format!("{pre:.2}"), it.to_string(), surviving.to_string()]);
    }
    table.print();
}

fn epsilon_ablation(data: &TimeSeriesSet, init: &InitialCentroids, seed: u64) {
    let mut table = Table::new(
        "Ablation — privacy budget ε (GREEDY + SMA 20%)",
        &["epsilon", "best PRE inertia", "best iteration", "surviving centroids"],
    );
    for epsilon in [0.1f64, PAPER_EPSILON, 1.0, 2.0] {
        let (pre, it, surviving) = run(data, init, BudgetStrategy::Greedy, Smoothing::PAPER_DEFAULT, epsilon, seed);
        table.row(&[format!("{epsilon}"), format!("{pre:.2}"), it.to_string(), surviving.to_string()]);
    }
    table.print();
}
