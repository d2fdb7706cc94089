//! Shared workload construction for the figure harness: datasets, initial
//! centroids and surrogate configurations matching §6.1 of the paper.

use chiaroscuro_core::config::ChiaroscuroParams;
use chiaroscuro_dp::budget::BudgetStrategy;
use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::perturbed::Smoothing;
use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, numed::NumedLikeGenerator, DatasetGenerator};
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};

/// Which evaluation dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// CER-like electricity consumption (24 measures, [0, 80]).
    Cer,
    /// NUMED-like tumor growth (20 measures, [0, 50]).
    Numed,
}

impl Dataset {
    /// Parses the `--dataset` option (case-insensitive); an unknown name is
    /// an error naming the accepted values, never a silent default.
    pub fn parse(name: &str) -> Result<Dataset, String> {
        match name.to_ascii_lowercase().as_str() {
            "cer" => Ok(Dataset::Cer),
            "numed" => Ok(Dataset::Numed),
            _ => Err(format!("unknown --dataset {name:?}: expected cer or numed")),
        }
    }

    /// [`Self::parse`] for a figure binary's `main`: prints the error and
    /// exits non-zero on an unknown name.
    pub fn parse_or_exit(name: &str) -> Dataset {
        Dataset::parse(name).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// Dataset name for table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Cer => "CER",
            Dataset::Numed => "NUMED",
        }
    }

    /// Generates `count` series plus the paper-style initial centroids
    /// (generator curves for CER, random synthetic members for NUMED).
    pub fn generate(&self, count: usize, k: usize, seed: u64) -> (TimeSeriesSet, InitialCentroids) {
        match self {
            Dataset::Cer => {
                let generator = CerLikeGenerator::new(seed);
                let data = generator.generate(count);
                let init = InitialCentroids::Provided(generator.generate_initial_centroids(k));
                (data, init)
            }
            Dataset::Numed => {
                let generator = NumedLikeGenerator::new(seed);
                let data = generator.generate(count);
                let init = InitialCentroids::Provided(generator.generate_initial_centroids(k));
                (data, init)
            }
        }
    }
}

/// Series length of the sweep datasets (kept short: the protocol cost
/// scales with k·(n+1) and the sweeps are about population and adversary
/// fraction, not dimensionality).
pub const SWEEP_SERIES_LEN: usize = 6;

/// The CER-like value range every sweep dataset uses.
const SWEEP_RANGE: (f64, f64) = (0.0, 80.0);

/// The true profile levels of the sweeps' synthetic dataset (the
/// scenario-matrix shape: k well-separated constant levels).
pub fn profile_levels(k: usize) -> Vec<f64> {
    let (lo, hi) = SWEEP_RANGE;
    (0..k).map(|c| lo + (hi - lo) * (c as f64 + 0.5) / k as f64).collect()
}

/// The dataset `scale_sweep` and `adversary_sweep` cluster: `population`
/// constant series at the [`profile_levels`], round-robin.
pub fn constant_profile_dataset(population: usize, k: usize) -> TimeSeriesSet {
    let levels = profile_levels(k);
    let series =
        (0..population).map(|i| TimeSeries::constant(SWEEP_SERIES_LEN, levels[i % k])).collect();
    TimeSeriesSet::new(series, ValueRange::new(SWEEP_RANGE.0, SWEEP_RANGE.1))
}

/// The strategy variants plotted in Figure 2, in the paper's order.
pub fn figure2_strategies() -> Vec<(String, BudgetStrategy, Smoothing)> {
    let sma = Smoothing::PAPER_DEFAULT;
    vec![
        ("UF_SMA (10 it.)".into(), BudgetStrategy::UniformFast { max_iterations: 10 }, sma),
        ("UF (10 it.)".into(), BudgetStrategy::UniformFast { max_iterations: 10 }, Smoothing::None),
        ("UF_SMA (5 it.)".into(), BudgetStrategy::UniformFast { max_iterations: 5 }, sma),
        ("UF (5 it.)".into(), BudgetStrategy::UniformFast { max_iterations: 5 }, Smoothing::None),
        ("G_SMA".into(), BudgetStrategy::Greedy, sma),
        ("G".into(), BudgetStrategy::Greedy, Smoothing::None),
        ("GF_SMA (4 it./floor)".into(), BudgetStrategy::GreedyFloor { floor_size: 4 }, sma),
        ("GF (4 it./floor)".into(), BudgetStrategy::GreedyFloor { floor_size: 4 }, Smoothing::None),
    ]
}

/// Builds Chiaroscuro parameters matching Table 2, scaled to the given k.
pub fn paper_params(k: usize, strategy: BudgetStrategy, smoothing: Smoothing) -> ChiaroscuroParams {
    ChiaroscuroParams::builder()
        .k(k)
        .epsilon(0.69)
        .delta(0.995)
        .strategy(strategy)
        .smoothing(smoothing)
        .max_iterations(10)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_parsing_and_shapes() {
        assert_eq!(Dataset::parse("numed"), Ok(Dataset::Numed));
        assert_eq!(Dataset::parse("CER"), Ok(Dataset::Cer));
        let rejected = Dataset::parse("anything").expect_err("a typo must not run CER");
        assert!(rejected.contains("anything") && rejected.contains("cer or numed"), "{rejected}");
        let (data, init) = Dataset::Cer.generate(50, 5, 1);
        assert_eq!(data.len(), 50);
        assert_eq!(data.series_length(), 24);
        assert_eq!(init.k(), 5);
        let (data, _) = Dataset::Numed.generate(30, 5, 1);
        assert_eq!(data.series_length(), 20);
    }

    #[test]
    fn figure2_lists_all_eight_variants() {
        let strategies = figure2_strategies();
        assert_eq!(strategies.len(), 8);
        assert!(strategies.iter().any(|(name, _, _)| name == "G_SMA"));
    }

    #[test]
    fn paper_params_match_table2() {
        let p = paper_params(50, BudgetStrategy::Greedy, Smoothing::PAPER_DEFAULT);
        assert_eq!(p.k, 50);
        assert!((p.epsilon - 0.69).abs() < 1e-12);
        assert_eq!(p.max_iterations, 10);
    }
}
