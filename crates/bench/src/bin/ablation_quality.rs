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

/// One ablation row: its label, budget strategy, smoothing and ε.
type Configuration = (String, BudgetStrategy, Smoothing, f64);

fn main() {
    let args = Args::from_env();
    let dataset = Dataset::parse_or_exit(&args.get_str("dataset", "cer"));
    let series = args.get("series", 20_000usize);
    let k = args.get("k", 50usize);
    let seed = args.get("seed", 1u64);
    eprintln!("# Ablations — dataset {}, {series} series, k={k}", dataset.name());
    let (data, init) = dataset.generate(series, k, seed);

    // One table per design choice: its title, the varied column and one
    // configuration per row.
    let sma = Smoothing::PAPER_DEFAULT;
    let window = |window_fraction| Smoothing::MovingAverage { window_fraction };
    let ablations: [(&str, &str, Vec<Configuration>); 4] = [
        (
            "Ablation — SMA window (GREEDY strategy, ε = 0.69)",
            "window",
            [("none", Smoothing::None), ("10%", window(0.1)), ("20% (paper)", window(0.2)), ("40%", window(0.4))]
                .map(|(label, smoothing)| (label.into(), BudgetStrategy::Greedy, smoothing, PAPER_EPSILON))
                .into(),
        ),
        (
            "Ablation — GREEDY_FLOOR floor size (SMA 20%, ε = 0.69)",
            "floor size",
            [1usize, 2, 4, 8]
                .map(|floor_size| {
                    (floor_size.to_string(), BudgetStrategy::GreedyFloor { floor_size }, sma, PAPER_EPSILON)
                })
                .into(),
        ),
        (
            "Ablation — UNIFORM_FAST iteration cap (SMA 20%, ε = 0.69)",
            "iteration cap",
            [3usize, 5, 10]
                .map(|cap| {
                    (cap.to_string(), BudgetStrategy::UniformFast { max_iterations: cap }, sma, PAPER_EPSILON)
                })
                .into(),
        ),
        (
            "Ablation — privacy budget ε (GREEDY + SMA 20%)",
            "epsilon",
            [0.1f64, PAPER_EPSILON, 1.0, 2.0]
                .map(|epsilon| (format!("{epsilon}"), BudgetStrategy::Greedy, sma, epsilon))
                .into(),
        ),
    ];
    for (title, column, configurations) in ablations {
        let mut table = Table::new(title, &[column, "best PRE inertia", "best iteration", "surviving centroids"]);
        for (label, strategy, smoothing, epsilon) in configurations {
            let (pre, it, surviving) = run(&data, &init, strategy, smoothing, epsilon, seed);
            table.row(&[label, format!("{pre:.2}"), it.to_string(), surviving.to_string()]);
        }
        table.print();
    }
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
