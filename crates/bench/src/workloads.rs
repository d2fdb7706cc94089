//! The runs two or more figures share: datasets and initial centroids
//! matching §6.1 of the paper, the centralized surrogate, the protocol
//! sweep point, the per-iteration table row and the Fig 4(a) tracker.

use std::time::Instant;

use chiaroscuro_core::prelude::*;
use chiaroscuro_core::runner::IterationNetworkStats;
use chiaroscuro_dp::budget::BudgetSchedule;
use chiaroscuro_gossip::eesum::SumConvergenceReport;
use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::lloyd::{KMeans, KMeansConfig};
use chiaroscuro_kmeans::perturbed::{PerturbedKMeans, PerturbedKMeansConfig};
use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, numed::NumedLikeGenerator, DatasetGenerator};
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};

use crate::args::usage_error;
use crate::Json;

/// Table 2's iteration cap `n_max_it`, shared by every quality figure.
pub const MAX_ITERATIONS: usize = 10;

/// Table 2's privacy budget ε.
pub const PAPER_EPSILON: f64 = 0.69;

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
        Dataset::parse(name).unwrap_or_else(|message| usage_error(&message))
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

/// The paper's centralized quality surrogate as the §6 figures run it:
/// Algorithm 1 over exact sums plus Laplace draws, every iteration up to
/// `max_iterations` (no displacement stop) and no Lemma 2 gossip-error
/// compensation.
///
/// Not [`ChiaroscuroParams::perturbed_kmeans`]: its `gossip_error_bound`
/// rescales the noise and its threshold stops early, so the figures would
/// no longer plot the paper's surrogate.
pub fn surrogate_kmeans(
    schedule: BudgetSchedule,
    max_iterations: usize,
    smoothing: Smoothing,
    iteration_churn: f64,
) -> PerturbedKMeans {
    let mut config = PerturbedKMeansConfig::new(schedule, max_iterations)
        .with_smoothing(smoothing)
        .with_iteration_churn(iteration_churn);
    config.convergence_threshold = 0.0;
    PerturbedKMeans::new(config)
}

/// The unperturbed Lloyd baseline the quality figures plot beside the
/// surrogate, run for exactly `max_iterations` iterations.
pub fn baseline_kmeans(max_iterations: usize) -> KMeans {
    KMeans::new(KMeansConfig { max_iterations, convergence_threshold: 0.0 })
}

/// Header of a per-iteration table: `first`, then `it1` … `it10`.
pub fn iteration_header(first: &str) -> Vec<&str> {
    let mut header = vec![first];
    header.extend(["it1", "it2", "it3", "it4", "it5", "it6", "it7", "it8", "it9", "it10"]);
    header
}

/// One row of a per-iteration table: `name`, then [`MAX_ITERATIONS`]
/// values at two decimals.  A run that stopped early keeps its last value;
/// an empty series prints `-` throughout.
pub fn iteration_row(name: &str, series: &[f64]) -> Vec<String> {
    let mut row = vec![name.to_string()];
    for i in 0..MAX_ITERATIONS {
        let value = series.get(i).or(series.last());
        row.push(value.map_or_else(|| "-".into(), |v| format!("{v:.2}")));
    }
    row
}

/// Fig 4(a)'s measurement: per target absolute error, the first
/// observation at which every node holds an estimate within it.  A hit is
/// never overwritten, and a report with an overflowed state is never one.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstHits<T> {
    hits: Vec<(f64, Option<T>)>,
}

impl<T: Copy> FirstHits<T> {
    /// No target met yet.
    pub fn new(targets: &[f64]) -> Self {
        Self { hits: targets.iter().map(|&target| (target, None)).collect() }
    }

    /// Records `at` against every target `report` meets for the first
    /// time; returns whether every target has now been met.
    pub fn record(&mut self, report: &SumConvergenceReport, at: T) -> bool {
        let abs_error = report.max_relative_error * report.exact;
        for (target, hit) in &mut self.hits {
            if hit.is_none() && report.without_estimate == 0.0 && report.overflowed == 0.0 && abs_error <= *target {
                *hit = Some(at);
            }
        }
        self.hits.iter().all(|(_, hit)| hit.is_some())
    }

    /// `(target, first hit)` per target, in construction order.
    pub fn hits(&self) -> &[(f64, Option<T>)] {
        &self.hits
    }
}

/// One point of the protocol sweeps (`scale_sweep`, `adversary_sweep`):
/// the full distributed pipeline on the plaintext-surrogate backend over
/// the asynchronous network, clustering [`constant_profile_dataset`].
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Participants, one series each.
    pub population: usize,
    /// Clusters (and true profile levels).
    pub k: usize,
    /// Iteration cap, also the UNIFORM_FAST budget split.
    pub iterations: usize,
    /// Gossip exchanges per epidemic sum.
    pub exchanges: u32,
    /// Key size the backend's wire model prices.
    pub key_bits: u64,
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Median of the log-normal per-message latency.
    pub median: f64,
    /// Sigma of the log-normal per-message latency.
    pub sigma: f64,
    /// Simulator workers (a performance setting, never a result).
    pub sim_shards: usize,
    /// Byzantine nodes injected into every gossip phase.
    pub adversary: AdversaryModel,
    /// The run's seed.
    pub seed: u64,
}

/// What one [`SweepRun`] produced.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The run's outcome.
    pub outcome: RunOutcome,
    /// Wall-clock seconds of the run (dataset construction excluded).
    pub wall_secs: f64,
    /// Largest gap between a final centroid's mean and the true level it
    /// sorts against.
    pub max_level_error: f64,
}

impl SweepRun {
    /// The run's parameters: Table 1 with lane packing, threshold 3, every
    /// participant a noise-share contributor and the convergence predicates
    /// checked once per simulated period (they are O(population) per check,
    /// which keeps dissemination O(population · periods)).
    fn params(&self) -> ChiaroscuroParams {
        ChiaroscuroParams::builder()
            .k(self.k)
            .epsilon(self.epsilon)
            .strategy(BudgetStrategy::UniformFast { max_iterations: self.iterations })
            .max_iterations(self.iterations)
            .key_bits(self.key_bits)
            .key_share_threshold(3)
            .num_noise_shares(self.population)
            .exchanges(self.exchanges)
            .pool_threads(0)
            .network(NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: self.median, sigma: self.sigma }),
            ))
            .sim_shards(self.sim_shards)
            .adversary(self.adversary)
            .build()
    }

    /// The initial centroids: each true level pushed 6 units off,
    /// alternately up and down, so the run has to move every centroid.
    fn initial_centroids(&self) -> Vec<TimeSeries> {
        profile_levels(self.k)
            .iter()
            .enumerate()
            .map(|(c, &level)| {
                let offset = if c % 2 == 0 { 6.0 } else { -6.0 };
                TimeSeries::constant(SWEEP_SERIES_LEN, level + offset)
            })
            .collect()
    }

    /// Runs and times the point.
    pub fn run(&self) -> SweepPoint {
        let data = constant_profile_dataset(self.population, self.k);
        let init = self.initial_centroids();
        let params = self.params();
        let start = Instant::now();
        let outcome = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data)
            .with_initial_centroids(init)
            .execute(self.seed);
        let wall_secs = start.elapsed().as_secs_f64();

        let mut levels = profile_levels(self.k);
        levels.sort_by(f64::total_cmp);
        let mut means: Vec<f64> = outcome.centroids().iter().map(TimeSeries::mean).collect();
        means.sort_by(f64::total_cmp);
        let max_level_error =
            means.iter().zip(&levels).map(|(m, l)| (m - l).abs()).fold(0.0f64, f64::max);
        SweepPoint { outcome, wall_secs, max_level_error }
    }
}

impl SweepPoint {
    /// Iterations the run performed.
    pub fn iterations(&self) -> usize {
        self.outcome.report.num_iterations()
    }

    /// Centroids alive after the last iteration.
    pub fn surviving_clusters(&self) -> usize {
        self.outcome.report.iterations.last().map_or(0, |i| i.surviving_centroids)
    }

    /// ε the run spent.
    pub fn epsilon_spent(&self) -> f64 {
        self.outcome.report.total_epsilon()
    }

    /// The last iteration's network row.
    pub fn last_network(&self) -> &IterationNetworkStats {
        self.outcome.network.last().expect("at least one iteration ran")
    }

    /// The run's byzantine-fault counters.
    pub fn faults(&self) -> FaultStats {
        self.outcome.audit.fault_stats()
    }

    /// The artifact's `quality` object.
    pub fn quality_json(&self) -> Json {
        Json::object()
            .set("max_level_abs_error", self.max_level_error)
            .set("surviving_clusters", self.surviving_clusters())
            .set("epsilon_spent", self.epsilon_spent())
    }

    /// The message keys that open the artifact's `network` object.
    pub fn network_json(&self) -> Json {
        let last = self.last_network();
        Json::object()
            .set("sum_messages_per_node", last.sum_messages_per_node)
            .set("dissemination_messages_per_node", last.dissemination_messages_per_node)
    }
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
    fn surrogate_kmeans_runs_every_iteration_without_gossip_compensation() {
        let schedule = BudgetSchedule::new(BudgetStrategy::Greedy, PAPER_EPSILON, MAX_ITERATIONS);
        let via_helper = surrogate_kmeans(schedule.clone(), 4, Smoothing::None, 0.25);
        let literal = PerturbedKMeans::new(PerturbedKMeansConfig {
            schedule,
            max_iterations: 4,
            convergence_threshold: 0.0,
            smoothing: Smoothing::None,
            iteration_churn: 0.25,
            gossip_error_bound: 0.0,
        });
        assert_eq!(format!("{via_helper:?}"), format!("{literal:?}"));
    }

    /// A sweep point at 400 nodes, k = 2, one iteration, built the way the
    /// two sweep bins built it by hand before they shared [`SweepRun`].
    fn reference_outcome(adversary: AdversaryModel, seed: u64) -> RunOutcome {
        let (population, k) = (400, 2);
        let data = constant_profile_dataset(population, k);
        let levels = profile_levels(k);
        let init = vec![
            TimeSeries::constant(SWEEP_SERIES_LEN, levels[0] + 6.0),
            TimeSeries::constant(SWEEP_SERIES_LEN, levels[1] - 6.0),
        ];
        let params = ChiaroscuroParams::builder()
            .k(k)
            .epsilon(30.0)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 1 })
            .max_iterations(1)
            .key_bits(1_024)
            .key_share_threshold(3)
            .num_noise_shares(population)
            .exchanges(20)
            .pool_threads(0)
            .network(NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: 0.25, sigma: 0.5 }),
            ))
            .sim_shards(2)
            .adversary(adversary)
            .build();
        DistributedRun::<PlaintextSurrogate>::with_backend(params, &data)
            .with_initial_centroids(init)
            .execute(seed)
    }

    fn sweep(adversary: AdversaryModel, seed: u64) -> SweepRun {
        SweepRun {
            population: 400,
            k: 2,
            iterations: 1,
            exchanges: 20,
            key_bits: 1_024,
            epsilon: 30.0,
            median: 0.25,
            sigma: 0.5,
            sim_shards: 2,
            adversary,
            seed,
        }
    }

    #[test]
    fn sweep_run_is_the_hand_built_honest_run() {
        let point = sweep(AdversaryModel::NONE, 401).run();
        let reference = reference_outcome(AdversaryModel::NONE, 401);
        assert_eq!(point.outcome.first_divergence(&reference, 0), None);
        assert_eq!(point.iterations(), 1);
        assert_eq!(point.faults().injected_total(), 0);
    }

    #[test]
    fn sweep_run_is_the_hand_built_adversarial_run() {
        let adversary = AdversaryModel::mixed(0.1, 0xB52);
        let point = sweep(adversary, 1).run();
        let reference = reference_outcome(adversary, 1);
        assert_eq!(point.outcome.first_divergence(&reference, 0), None);
        assert!(point.faults().injected_total() > 0);
    }

    fn keys(doc: &Json) -> Vec<&str> {
        match doc {
            Json::Object(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    fn sweep_json_objects_carry_the_keys_ci_compares() {
        let point = sweep(AdversaryModel::NONE, 3).run();
        assert_eq!(keys(&point.quality_json()), ["max_level_abs_error", "surviving_clusters", "epsilon_spent"]);
        assert_eq!(keys(&point.network_json()), ["sum_messages_per_node", "dissemination_messages_per_node"]);
    }

    #[test]
    fn iteration_rows_pad_with_the_last_value() {
        assert_eq!(iteration_header("variant").len(), MAX_ITERATIONS + 1);
        let row = iteration_row("short run", &[3.0, 1.256]);
        assert_eq!(row.len(), MAX_ITERATIONS + 1);
        assert_eq!(row[..3], ["short run", "3.00", "1.26"]);
        assert!(row[3..].iter().all(|cell| cell == "1.26"), "{row:?}");
        let empty = iteration_row("empty", &[]);
        assert!(empty[1..].iter().all(|cell| cell == "-"), "{empty:?}");
    }

    #[test]
    fn first_hits_keep_the_first_observation() {
        let report = |max_relative_error: f64, without_estimate: f64| SumConvergenceReport {
            exact: 4.0,
            max_relative_error,
            mean_relative_error: max_relative_error,
            without_estimate,
            overflowed: 0.0,
        };
        let mut hits = FirstHits::new(&[0.01, 1.0]);
        assert!(!hits.record(&report(0.0, 0.5), 5.0), "a node without an estimate meets nothing");
        assert!(!hits.record(&report(0.125, 0.0), 10.0), "0.5 off meets only the loose target");
        assert_eq!(hits.hits(), [(0.01, None), (1.0, Some(10.0))]);
        assert!(hits.record(&report(0.0, 0.0), 20.0));
        assert!(hits.record(&report(0.0, 0.0), 30.0));
        assert_eq!(hits.hits(), [(0.01, Some(20.0)), (1.0, Some(10.0))]);
    }

    #[test]
    fn an_overflowed_run_meets_no_target() {
        // 200 rounds take 10³ nodes' exchange counters past f64's range
        // (Fig 4(a)'s round cap on a run that never converged): the report
        // says so, and no target counts it as met.
        use chiaroscuro_gossip::eesum::{convergence_report, initial_states, EesSumProtocol};
        use chiaroscuro_gossip::{ChurnModel, GossipEngine};
        use rand::SeedableRng;
        let mut engine = GossipEngine::new(initial_states(vec![1.0; 1_000]), ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 200, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert!(engine.nodes().iter().any(|node| node.exchanges > 1_023));
        let report = convergence_report(engine.nodes(), 1_000.0);
        assert!(report.overflowed > 0.0, "{report:?}");
        assert!(!report.max_relative_error.is_nan() && !report.mean_relative_error.is_nan(), "{report:?}");
        let mut hits = FirstHits::new(&[0.001, 1.0, f64::INFINITY]);
        assert!(!hits.record(&report, 400.0));
        assert!(!hits.record(&SumConvergenceReport { max_relative_error: 0.0, ..report }, 400.0));
        assert!(hits.hits().iter().all(|(_, hit)| hit.is_none()), "{:?}", hits.hits());
    }
}
