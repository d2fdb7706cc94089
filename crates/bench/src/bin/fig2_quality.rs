//! Figure 2 — quality of the perturbed clustering.
//!
//! Reproduces, for the CER-like and NUMED-like datasets:
//!
//! * 2(a)/2(b): the evolution of the pre-perturbation intra-cluster inertia
//!   across iterations, for every strategy ± SMA, together with the dataset
//!   inertia (upper bound) and the unperturbed k-means (lower bound);
//! * 2(c)/2(d): the evolution of the number of surviving centroids;
//! * 2(e)/2(f): the lowest pre-perturbation inertia and the corresponding
//!   post-perturbation inertia.
//!
//! Usage:
//!   fig2_quality [--dataset cer|numed] [--series 20000] [--k 50]
//!                [--runs 3] [--seed 1] [--metric inertia|centroids|prepost|all]

use chiaroscuro_bench::workloads::{
    baseline_kmeans, figure2_strategies, iteration_header, iteration_row, surrogate_kmeans, Dataset,
    MAX_ITERATIONS, PAPER_EPSILON,
};
use chiaroscuro_bench::{Args, Table};
use chiaroscuro_dp::budget::BudgetSchedule;
use chiaroscuro_kmeans::report::RunReport;
use chiaroscuro_timeseries::inertia::dataset_inertia;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let dataset = Dataset::parse_or_exit(&args.get_str("dataset", "cer"));
    let series = args.get("series", 20_000usize);
    let k = args.get("k", 50usize);
    let runs = args.get("runs", 3usize);
    let seed = args.get("seed", 1u64);
    let metric = args.get_choice("metric", "all", &["inertia", "centroids", "prepost", "all"]);

    eprintln!("# Figure 2 — dataset {}, {series} series, k={k}, {runs} runs", dataset.name());
    let (data, init) = dataset.generate(series, k, seed);
    let full_inertia = dataset_inertia(&data);

    // Unperturbed baseline.
    let baseline: Vec<RunReport> = (0..runs)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed + 1000 + r as u64);
            baseline_kmeans(MAX_ITERATIONS).run(&data, &init, &mut rng)
        })
        .collect();

    // All the strategy variants of the figure.
    let mut variant_reports: Vec<(String, Vec<RunReport>)> = Vec::new();
    for (name, strategy, smoothing) in figure2_strategies() {
        let reports: Vec<RunReport> = (0..runs)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed + 2000 + r as u64);
                let schedule = BudgetSchedule::new(strategy, PAPER_EPSILON, MAX_ITERATIONS);
                surrogate_kmeans(schedule, MAX_ITERATIONS, smoothing, 0.0).run(&data, &init, &mut rng)
            })
            .collect();
        variant_reports.push((name, reports));
    }

    if metric == "inertia" || metric == "all" {
        let mut table = Table::new(
            &format!("Fig 2({}) — {}: pre-perturbation intra-cluster inertia per iteration", panel(dataset, 'a'), dataset.name()),
            &iteration_header("variant"),
        );
        table.row(&iteration_row("Dataset inertia", &[full_inertia; MAX_ITERATIONS]));
        table.row(&iteration_row("No perturbation", &mean_series(&baseline, |r| r.pre_inertia_series())));
        for (name, reports) in &variant_reports {
            table.row(&iteration_row(name, &mean_series(reports, |r| r.pre_inertia_series())));
        }
        table.print();
    }

    if metric == "centroids" || metric == "all" {
        let mut table = Table::new(
            &format!("Fig 2({}) — {}: number of surviving centroids per iteration", panel(dataset, 'c'), dataset.name()),
            &iteration_header("variant"),
        );
        table.row(&iteration_row("Initial number", &[k as f64; MAX_ITERATIONS]));
        table.row(&iteration_row(
            "No perturbation",
            &mean_series(&baseline, |r| r.centroid_counts().iter().map(|&c| c as f64).collect()),
        ));
        for (name, reports) in &variant_reports {
            table.row(&iteration_row(
                name,
                &mean_series(reports, |r| r.centroid_counts().iter().map(|&c| c as f64).collect()),
            ));
        }
        table.print();
    }

    if metric == "prepost" || metric == "all" {
        let mut table = Table::new(
            &format!("Fig 2({}) — {}: lowest PRE inertia and corresponding POST inertia", panel(dataset, 'e'), dataset.name()),
            &["variant", "PRE", "POST", "best iteration"],
        );
        let base_best = baseline
            .iter()
            .filter_map(|r| r.pre_post())
            .map(|p| p.pre)
            .sum::<f64>()
            / baseline.len() as f64;
        table.row(&[
            "No perturbation".to_string(),
            format!("{base_best:.2}"),
            format!("{base_best:.2}"),
            "-".to_string(),
        ]);
        for (name, reports) in &variant_reports {
            let pre = mean_of(reports, |r| r.pre_post().map(|p| p.pre));
            let post = mean_of(reports, |r| r.pre_post().map(|p| p.post));
            let it = mean_of(reports, |r| r.pre_post().map(|p| p.best_iteration as f64));
            table.row(&[name.clone(), format!("{pre:.2}"), format!("{post:.2}"), format!("{it:.1}")]);
        }
        table.print();
    }
}

fn panel(dataset: Dataset, cer_panel: char) -> char {
    match dataset {
        Dataset::Cer => cer_panel,
        Dataset::Numed => ((cer_panel as u8) + 1) as char,
    }
}

/// Averages a per-iteration series over several runs, padding short runs
/// with their last value (a run that stops early keeps its final state).
fn mean_series(reports: &[RunReport], extract: impl Fn(&RunReport) -> Vec<f64>) -> Vec<f64> {
    let mut acc = [0.0; MAX_ITERATIONS];
    for report in reports {
        let series = extract(report);
        for (i, slot) in acc.iter_mut().enumerate() {
            let value = series.get(i).copied().or_else(|| series.last().copied()).unwrap_or(0.0);
            *slot += value;
        }
    }
    acc.iter().map(|v| v / reports.len() as f64).collect()
}

fn mean_of(reports: &[RunReport], extract: impl Fn(&RunReport) -> Option<f64>) -> f64 {
    let values: Vec<f64> = reports.iter().filter_map(&extract).collect();
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
