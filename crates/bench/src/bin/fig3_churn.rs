//! Figure 3 — impact of churn.
//!
//! * 3(a): evolution of the pre-perturbation intra-cluster inertia of the
//!   G_SMA strategy on the CER-like dataset, with per-iteration churn of
//!   0%, 10%, 25% and 50%;
//! * 3(b): relative error of the epidemic encrypted sum vs the exact value
//!   for populations from 1K to 1M, with per-exchange churn of 10%, 25% and
//!   50%, at ~100 messages per participant.
//!
//! Usage:
//!   fig3_churn [--part quality|sum-error|all] [--series 20000] [--k 50]
//!              [--max-population 1000000] [--seed 1]

use chiaroscuro_bench::workloads::{
    iteration_header, iteration_row, surrogate_kmeans, Dataset, MAX_ITERATIONS, PAPER_EPSILON,
};
use chiaroscuro_bench::{Args, Table};
use chiaroscuro_dp::budget::{BudgetSchedule, BudgetStrategy};
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::engine::GossipEngine;
use chiaroscuro_gossip::sum::{convergence_report, initial_states, PushPullSum};
use chiaroscuro_kmeans::perturbed::Smoothing;
use chiaroscuro_timeseries::inertia::dataset_inertia;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let part = args.get_choice("part", "all", &["quality", "sum-error", "all"]);
    if part == "quality" || part == "all" {
        quality_part(&args);
    }
    if part == "sum-error" || part == "all" {
        sum_error_part(&args);
    }
}

/// Figure 3(a): churn-enabled quality (G_SMA on CER).
fn quality_part(args: &Args) {
    let series = args.get("series", 20_000usize);
    let k = args.get("k", 50usize);
    let seed = args.get("seed", 1u64);
    let (data, init) = Dataset::Cer.generate(series, k, seed);
    let full_inertia = dataset_inertia(&data);

    let mut table = Table::new(
        "Fig 3(a) — CER: G_SMA pre-perturbation inertia per iteration under churn",
        &iteration_header("variant"),
    );
    table.row(&iteration_row("Dataset inertia", &[full_inertia; MAX_ITERATIONS]));
    for churn in [0.0, 0.10, 0.25, 0.50] {
        let mut rng = StdRng::seed_from_u64(seed + (churn * 100.0) as u64);
        let schedule = BudgetSchedule::new(BudgetStrategy::Greedy, PAPER_EPSILON, MAX_ITERATIONS);
        let report = surrogate_kmeans(schedule, MAX_ITERATIONS, Smoothing::PAPER_DEFAULT, churn)
            .run(&data, &init, &mut rng);
        let label = if churn == 0.0 { "G_SMA (no churn)".to_string() } else { format!("G_SMA (churn {churn})") };
        table.row(&iteration_row(&label, &report.pre_inertia_series()));
    }
    table.print();
}

/// Figure 3(b): relative error of the epidemic sum under churn.
fn sum_error_part(args: &Args) {
    let max_population = args.get("max-population", 1_000_000usize);
    let seed = args.get("seed", 1u64);
    // ~100 messages per participant = 50 push-pull rounds.
    let rounds = args.get("rounds", 50u32);

    let mut table = Table::new(
        "Fig 3(b) — relative error of the epidemic sum vs population (100 messages/participant)",
        &["population", "churn 0.1", "churn 0.25", "churn 0.5"],
    );
    let mut population = 1_000usize;
    while population <= max_population {
        let mut cells = vec![population.to_string()];
        for churn in [0.10, 0.25, 0.50] {
            let mut rng = StdRng::seed_from_u64(seed + population as u64 + (churn * 1000.0) as u64);
            let values = vec![1.0f64; population];
            let exact = population as f64;
            let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::new(churn));
            engine.run_rounds(&PushPullSum, rounds, &mut rng);
            let report = convergence_report(engine.nodes(), exact);
            cells.push(format!("{:.3e}", report.mean_relative_error.max(1e-16)));
        }
        table.row(&cells);
        population *= 10;
    }
    table.print();
}
