//! The perturbed k-means (Algorithm 1): the paper's vehicle for evaluating
//! clustering quality at dataset scale (§5 and §6.1–6.2), and the loop the
//! distributed execution runs too.
//!
//! The paper's quality evaluation rests on the perturbed *centralized*
//! k-means being a faithful proxy of the distributed run: both are
//! Algorithm 1, and only the way an iteration's perturbed aggregates come
//! into being differs (the distribution machinery affects latency, not
//! quality — modulo the gossip approximation error, which is orders of
//! magnitude below the DP noise).  The loop is therefore written once,
//! [`PerturbedKMeans::run_with_step`], over an [`AggregateStep`] with two
//! implementers: the centralized one of this module and the distributed one
//! of `chiaroscuro-core`.  Every iteration:
//!
//! 1. the step assigns every participating series to the closest current
//!    centroid and returns the cluster sums and counts, each sum dimension
//!    perturbed by `L(n·max(|d_min|,|d_max|)/ε_i)` and each count by
//!    `L(1/ε_i)`, where `ε_i` comes from the budget-concentration strategy;
//! 2. the loop divides sum/count to obtain the perturbed means, applies the
//!    optional SMA smoothing (§5.2), and handles aberrant centroids
//!    (clusters whose perturbed count collapses produce unusable means that
//!    no series will select at the next iteration, exactly as footnote 8
//!    describes);
//! 3. convergence / iteration-limit check.

use std::borrow::Cow;

use rand::Rng;

use chiaroscuro_dp::budget::BudgetSchedule;
use chiaroscuro_dp::laplace::{LaplaceMechanism, Sensitivity};
use chiaroscuro_timeseries::inertia::{dataset_inertia, intra_inertia, Assignment};
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::init::InitialCentroids;
use crate::report::{IterationReport, RunReport};

/// Means-smoothing configuration (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoothing {
    /// No smoothing.
    None,
    /// Circular simple moving average whose window is a fraction of the
    /// series length (the paper uses 20%).
    MovingAverage {
        /// Window size as a fraction of the series length (0, 1].
        window_fraction: f64,
    },
}

impl Smoothing {
    /// The paper's default: a 20% window.
    pub const PAPER_DEFAULT: Smoothing = Smoothing::MovingAverage { window_fraction: 0.2 };

    /// Applies the smoothing to a centroid.
    pub fn apply(&self, series: &TimeSeries) -> TimeSeries {
        match self {
            Smoothing::None => series.clone(),
            Smoothing::MovingAverage { window_fraction } => {
                assert!(*window_fraction > 0.0 && *window_fraction <= 1.0);
                let window = ((series.len() as f64 * window_fraction).round() as usize).max(2) & !1usize;
                series.smoothed_circular(window.max(2))
            }
        }
    }
}

/// Configuration of a perturbed k-means run.
#[derive(Debug, Clone)]
pub struct PerturbedKMeansConfig {
    /// Per-iteration privacy-budget schedule.
    pub schedule: BudgetSchedule,
    /// Maximum number of iterations `n_max_it`.
    pub max_iterations: usize,
    /// Convergence threshold θ on the total centroid displacement.
    pub convergence_threshold: f64,
    /// Means smoothing.
    pub smoothing: Smoothing,
    /// Per-iteration churn: probability that a series' device is offline for
    /// a whole iteration (§6.1.5); 0 disables churn.
    pub iteration_churn: f64,
    /// Gossip relative-error bound `e_max` compensated per Lemma 2 (0 for
    /// the pure centralized surrogate).
    pub gossip_error_bound: f64,
}

impl PerturbedKMeansConfig {
    /// Creates a configuration with no churn, no gossip compensation and the
    /// paper's smoothing default.
    pub fn new(schedule: BudgetSchedule, max_iterations: usize) -> Self {
        Self {
            schedule,
            max_iterations,
            convergence_threshold: 1e-4,
            smoothing: Smoothing::PAPER_DEFAULT,
            iteration_churn: 0.0,
            gossip_error_bound: 0.0,
        }
    }

    /// Sets the smoothing mode.
    pub fn with_smoothing(mut self, smoothing: Smoothing) -> Self {
        self.smoothing = smoothing;
        self
    }

    /// Sets the per-iteration churn probability.
    pub fn with_iteration_churn(mut self, churn: f64) -> Self {
        assert!((0.0..1.0).contains(&churn));
        self.iteration_churn = churn;
        self
    }
}

/// One iteration's perturbed aggregates, however they came into being.
#[derive(Debug)]
pub struct Aggregates<'d> {
    /// The series that took part in the iteration (the whole dataset unless
    /// churn kept some devices away).
    pub participants: Cow<'d, TimeSeriesSet>,
    /// Their assignment to the iteration's input centroids.
    pub assignment: Assignment,
    /// The perturbed dimension-wise cluster sums: `k·n` values,
    /// cluster-major.
    pub sums: Vec<f64>,
    /// The `k` perturbed cluster counts.
    pub counts: Vec<f64>,
}

/// How one iteration's perturbed sums and counts are produced — the only
/// thing in which the centralized surrogate and the distributed execution
/// differ.  [`PerturbedKMeans::run`] computes exact sums and draws the
/// Laplace noise itself; `chiaroscuro-core`'s distributed step has the
/// population gossip encrypted sums and noise shares and threshold-decrypts
/// the result.  Every random draw of a run belongs to its step: the loop
/// that calls it ([`PerturbedKMeans::run_with_step`]) draws nothing.
pub trait AggregateStep {
    /// Assigns the participating series of `data` to `centroids` and returns
    /// their sums and counts perturbed under `mechanism` (iteration
    /// `iteration`'s share of the budget).
    fn aggregate<'d>(
        &mut self,
        data: &'d TimeSeriesSet,
        iteration: usize,
        mechanism: &LaplaceMechanism,
        centroids: &[TimeSeries],
    ) -> Aggregates<'d>;
}

/// The centralized step: a churned working set, exact sums and counts, one
/// Laplace draw per sum dimension and per count (cluster by cluster).
struct CentralStep<'r, R: ?Sized> {
    iteration_churn: f64,
    rng: &'r mut R,
}

impl<R: Rng + ?Sized> AggregateStep for CentralStep<'_, R> {
    fn aggregate<'d>(
        &mut self,
        data: &'d TimeSeriesSet,
        _iteration: usize,
        mechanism: &LaplaceMechanism,
        centroids: &[TimeSeries],
    ) -> Aggregates<'d> {
        // Churn: a random fraction of the devices is offline this iteration.
        let participants = if self.iteration_churn > 0.0 {
            Cow::Owned(data.churned(self.iteration_churn, self.rng))
        } else {
            Cow::Borrowed(data)
        };
        let assignment = Assignment::compute(&participants, centroids);
        let (exact, mut counts) = assignment.cluster_sums(&participants, centroids.len());
        let mut sums: Vec<f64> = exact.iter().flat_map(|sum| sum.values()).copied().collect();
        for (sum, count) in sums.chunks_exact_mut(data.series_length()).zip(&mut counts) {
            mechanism.perturb_sum(sum, self.rng);
            *count = mechanism.perturb_count(*count, self.rng);
        }
        Aggregates { participants, assignment, sums, counts }
    }
}

/// The perturbed k-means runner (Algorithm 1's loop over any
/// [`AggregateStep`]).
#[derive(Debug, Clone)]
pub struct PerturbedKMeans {
    config: PerturbedKMeansConfig,
}

impl PerturbedKMeans {
    /// Creates a runner.
    pub fn new(config: PerturbedKMeansConfig) -> Self {
        assert!(config.max_iterations >= 1);
        Self { config }
    }

    /// Runs the perturbed centralized k-means on `data` from `init`
    /// centroids.
    pub fn run<R: Rng + ?Sized>(&self, data: &TimeSeriesSet, init: &InitialCentroids, rng: &mut R) -> RunReport {
        let centroids = init.materialize(data, rng);
        self.run_with_step(data, centroids, &mut CentralStep { iteration_churn: self.config.iteration_churn, rng })
    }

    /// Algorithm 1 from `centroids`, with each iteration's perturbed
    /// aggregates produced by `step`: budget schedule → aggregates → exact
    /// means and PRE inertia → perturbed means (`sum / count`, aberrant
    /// sentinel, smoothing) → POST inertia → convergence test.
    /// [`PerturbedKMeansConfig::iteration_churn`] is the centralized step's
    /// business and is not read here.
    pub fn run_with_step<S: AggregateStep>(
        &self,
        data: &TimeSeriesSet,
        mut centroids: Vec<TimeSeries>,
        step: &mut S,
    ) -> RunReport {
        let k = centroids.len();
        let n = data.series_length();
        let sensitivity = Sensitivity::from_range(n, data.range().min, data.range().max);
        let mut iterations = Vec::new();
        let mut converged = false;

        for iteration in 0..self.config.max_iterations {
            let epsilon_i = self.config.schedule.epsilon_for_iteration(iteration);
            if epsilon_i <= 0.0 {
                break; // Budget exhausted (UNIFORM_FAST's hard limit).
            }
            let mechanism = LaplaceMechanism::new(sensitivity, epsilon_i)
                .with_gossip_error_bound(self.config.gossip_error_bound);
            let Aggregates { participants, assignment, sums, counts } =
                step.aggregate(data, iteration, &mechanism, &centroids);
            let active: &TimeSeriesSet = &participants;

            // Reporting-only PRE metric: the exact means of this assignment.
            let (exact_sums, exact_counts) = assignment.cluster_sums(active, k);
            let exact_means: Vec<TimeSeries> = exact_sums
                .iter()
                .zip(exact_counts.iter())
                .enumerate()
                .map(|(i, (sum, &count))| if count > 0.0 { sum.scaled(1.0 / count) } else { centroids[i].clone() })
                .collect();
            let pre_inertia = intra_inertia(active, &exact_means, &assignment);

            // Perturbed means: division, then smoothing.
            let mut aberrant = vec![false; k];
            let perturbed: Vec<TimeSeries> = (0..k)
                .map(|cluster| {
                    let count = counts[cluster];
                    if count.abs() < 0.5 {
                        // The cluster is too small for the noise: its mean
                        // becomes aberrant and will attract no series at the
                        // next iteration (footnote 8).  A far-away sentinel
                        // makes that explicit while keeping the arithmetic
                        // finite.
                        aberrant[cluster] = true;
                        aberrant_centroid(n, data.range().max, cluster)
                    } else {
                        let sum = &sums[cluster * n..(cluster + 1) * n];
                        self.config.smoothing.apply(&TimeSeries::new(sum.iter().map(|v| v / count).collect()))
                    }
                })
                .collect();
            // POST inertia is measured like Figure 2(e)/(f): same assignment,
            // perturbed centroids, with the aberrant centroids removed (the
            // series they owned are excluded rather than charged the sentinel
            // distance).
            let post_inertia = post_perturbation_inertia(active, &perturbed, &assignment, &aberrant);

            iterations.push(IterationReport {
                iteration,
                epsilon: epsilon_i,
                pre_inertia,
                post_inertia,
                surviving_centroids: assignment.non_empty_clusters(),
                participating_series: active.len(),
            });

            // Convergence step on the perturbed centroids.
            let displacement: f64 = centroids.iter().zip(perturbed.iter()).map(|(c, m)| c.distance(m)).sum();
            centroids = perturbed;
            if displacement <= self.config.convergence_threshold {
                converged = true;
                break;
            }
        }

        RunReport {
            iterations,
            final_centroids: centroids,
            converged,
            dataset_inertia: dataset_inertia(data),
        }
    }
}

/// A sentinel centroid far outside the data range, guaranteed to attract no
/// series.  Distinct per cluster index so sentinels never collide.
fn aberrant_centroid(series_length: usize, range_max: f64, cluster: usize) -> TimeSeries {
    TimeSeries::constant(series_length, range_max * 1e6 * (cluster + 2) as f64)
}

/// Intra-cluster inertia of the perturbed centroids under the pre-existing
/// assignment, with the aberrant centroids (and the series assigned to them)
/// removed — the POST metric of Figures 2(e)/(f).
fn post_perturbation_inertia(
    data: &TimeSeriesSet,
    perturbed_centroids: &[TimeSeries],
    assignment: &Assignment,
    aberrant: &[bool],
) -> f64 {
    let mut acc = 0.0;
    let mut kept = 0usize;
    for (series, &label) in data.iter().zip(assignment.labels.iter()) {
        if aberrant.get(label).copied().unwrap_or(false) {
            continue;
        }
        acc += chiaroscuro_timeseries::distance::squared_euclidean(perturbed_centroids[label].values(), series.values());
        kept += 1;
    }
    if kept == 0 {
        f64::INFINITY
    } else {
        acc / kept as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_dp::budget::BudgetStrategy;
    use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPSILON: f64 = 0.69;

    fn cer_data(count: usize, seed: u64) -> TimeSeriesSet {
        CerLikeGenerator::new(seed).generate(count)
    }

    fn greedy_config(max_it: usize) -> PerturbedKMeansConfig {
        PerturbedKMeansConfig::new(
            BudgetSchedule::new(BudgetStrategy::Greedy, EPSILON, max_it),
            max_it,
        )
    }

    /// A step with no RNG: the real assignment, then whatever sums and
    /// counts the script holds for the iteration (cycling).
    struct ScriptedStep {
        script: Vec<(Vec<f64>, Vec<f64>)>,
        epsilons: Vec<f64>,
    }

    impl AggregateStep for ScriptedStep {
        fn aggregate<'d>(
            &mut self,
            data: &'d TimeSeriesSet,
            iteration: usize,
            mechanism: &LaplaceMechanism,
            centroids: &[TimeSeries],
        ) -> Aggregates<'d> {
            assert_eq!(iteration, self.epsilons.len(), "one call per iteration, in order");
            self.epsilons.push(mechanism.epsilon());
            let (sums, counts) = self.script[iteration % self.script.len()].clone();
            Aggregates {
                participants: Cow::Borrowed(data),
                assignment: Assignment::compute(data, centroids),
                sums,
                counts,
            }
        }
    }

    #[test]
    fn scripted_step_pins_the_loop_once() {
        use chiaroscuro_timeseries::ValueRange;
        let flat = |v: f64| TimeSeries::constant(4, v);
        let data =
            TimeSeriesSet::new(vec![flat(0.0), flat(2.0), flat(10.0), flat(50.0)], ValueRange::new(0.0, 100.0));
        let init = vec![flat(1.0), flat(10.0), flat(50.0)];
        // Cluster 0 gets an uneven mean (to see the smoothing), cluster 1 a
        // flat one, and cluster 2's count drowns in the noise.
        let fixed = (
            [vec![4.0, 0.0, 4.0, 0.0], vec![20.0; 4], vec![123.0; 4]].concat(),
            vec![2.0, 2.0, 0.4],
        );
        let config = |smoothing, budget_iterations| PerturbedKMeansConfig {
            schedule: BudgetSchedule::new(
                BudgetStrategy::UniformFast { max_iterations: budget_iterations },
                1.0,
                5,
            ),
            max_iterations: 5,
            convergence_threshold: 1e-9,
            smoothing,
            iteration_churn: 0.0,
            gossip_error_bound: 0.0,
        };

        // Same aggregates every iteration: the second one moves nothing.
        let mut step = ScriptedStep { script: vec![fixed.clone()], epsilons: Vec::new() };
        let report = PerturbedKMeans::new(config(Smoothing::MovingAverage { window_fraction: 0.5 }, 5))
            .run_with_step(&data, init.clone(), &mut step);
        assert!(report.converged, "zero displacement must take the convergence break");
        assert_eq!(report.num_iterations(), 2);
        assert_eq!(step.epsilons, vec![0.2, 0.2], "the step sees the schedule's ε, once per iteration run");
        // sum / count, then the 3-wide circular average; the flat mean is a
        // fixed point of it; |count| < 0.5 yields the sentinel, not 123/0.4.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12 * b.abs().max(1.0);
        let smoothed = &report.final_centroids[0];
        assert!(smoothed.values().iter().zip([2.0 / 3.0, 4.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]).all(|(&a, b)| close(a, b)));
        assert_eq!(report.final_centroids[1], flat(10.0));
        assert_eq!(report.final_centroids[2], flat(100.0 * 1e6 * 4.0));
        // Iteration 0: every cluster owns its seed's neighbours.  PRE uses the
        // exact means (1, 10, 50); POST drops the aberrant cluster's series
        // instead of charging it the sentinel distance.
        let first = &report.iterations[0];
        assert_eq!((first.surviving_centroids, first.participating_series), (3, 4));
        assert!(close(first.pre_inertia, 2.0));
        assert!(close(first.post_inertia, (80.0 / 9.0) / 3.0));
        // Iteration 1: the sentinel attracts nobody, so 50 joins cluster 1
        // and is charged its distance to the perturbed centroid (10).
        let second = &report.iterations[1];
        assert_eq!(second.surviving_centroids, 2);
        assert!(close(second.pre_inertia, (8.0 + 2.0 * 4.0 * 400.0) / 4.0));
        assert!(close(second.post_inertia, (80.0 / 9.0 + 4.0 * 1600.0) / 4.0));

        // Aggregates that keep moving, and a budget of two iterations out of
        // five: the loop stops on ε, unconverged, without a third call.
        let moved = ([vec![8.0; 4], vec![40.0; 4], vec![100.0; 4]].concat(), vec![2.0, 2.0, 2.0]);
        let mut step = ScriptedStep { script: vec![fixed, moved], epsilons: Vec::new() };
        let report = PerturbedKMeans::new(config(Smoothing::None, 2)).run_with_step(&data, init, &mut step);
        assert!(!report.converged);
        assert_eq!(report.num_iterations(), 2);
        assert_eq!(step.epsilons, vec![0.5, 0.5]);
        assert_eq!(report.final_centroids, vec![flat(4.0), flat(20.0), flat(50.0)]);
    }

    #[test]
    fn runs_and_respects_iteration_limit() {
        let data = cer_data(500, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let report = PerturbedKMeans::new(greedy_config(5)).run(
            &data,
            &InitialCentroids::RandomFromData { k: 10 },
            &mut rng,
        );
        assert!(report.num_iterations() <= 5);
        assert!(report.num_iterations() >= 1);
        assert!(report.total_epsilon() <= EPSILON + 1e-9);
    }

    #[test]
    fn quality_stays_comparable_to_unperturbed_on_large_population() {
        // Requirement R3: with a large population the per-series impact of
        // the noise is small and the perturbed inertia stays close to the
        // unperturbed one during the first iterations.
        let data = cer_data(4_000, 3);
        let init = InitialCentroids::RandomFromData { k: 10 };
        let mut rng = StdRng::seed_from_u64(3);
        let baseline = crate::lloyd::KMeans::new(crate::lloyd::KMeansConfig {
            max_iterations: 5,
            convergence_threshold: 0.0,
        })
        .run(&data, &init, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(3);
        let perturbed = PerturbedKMeans::new(greedy_config(5)).run(&data, &init, &mut rng2);
        let base_best = baseline
            .pre_inertia_series()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let pert_best = perturbed.pre_post().unwrap().pre;
        assert!(
            pert_best < 1.8 * base_best + 1e-9,
            "perturbed best inertia {pert_best} vs baseline {base_best}"
        );
        assert!(pert_best <= perturbed.dataset_inertia);
    }

    #[test]
    fn smoothing_never_hurts_much_and_often_helps() {
        let data = cer_data(2_000, 4);
        let init = InitialCentroids::RandomFromData { k: 20 };
        let run = |smoothing: Smoothing, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = greedy_config(5).with_smoothing(smoothing);
            PerturbedKMeans::new(config)
                .run(&data, &init, &mut rng)
                .pre_post()
                .unwrap()
                .pre
        };
        // Average over a few seeds to damp the noise.
        let seeds = [10u64, 11, 12];
        let with_sma: f64 = seeds.iter().map(|&s| run(Smoothing::PAPER_DEFAULT, s)).sum::<f64>() / 3.0;
        let without: f64 = seeds.iter().map(|&s| run(Smoothing::None, s)).sum::<f64>() / 3.0;
        assert!(
            with_sma <= without * 1.15,
            "smoothing should not degrade quality: with={with_sma:.2}, without={without:.2}"
        );
    }

    #[test]
    fn centroids_can_be_lost_when_noise_overwhelms_small_clusters() {
        // A tiny population with many clusters: the DP noise must wipe some
        // centroids out (the paper's Figures 2(c)/(d) show exactly this).
        let data = cer_data(100, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let report = PerturbedKMeans::new(greedy_config(8)).run(
            &data,
            &InitialCentroids::RandomFromData { k: 30 },
            &mut rng,
        );
        let counts = report.centroid_counts();
        assert!(
            counts.last().unwrap() < &30,
            "some of the 30 centroids must be lost on a 100-series population: {counts:?}"
        );
    }

    #[test]
    fn churn_reduces_participation() {
        let data = cer_data(1_000, 6);
        let mut rng = StdRng::seed_from_u64(6);
        let config = greedy_config(4).with_iteration_churn(0.5);
        let report = PerturbedKMeans::new(config).run(&data, &InitialCentroids::RandomFromData { k: 10 }, &mut rng);
        for it in &report.iterations {
            assert!(it.participating_series < 700, "about half the series should participate");
            assert!(it.participating_series > 300);
        }
    }

    #[test]
    fn post_inertia_is_at_least_pre_inertia_on_average() {
        // Perturbation cannot improve the inertia of the *same* assignment in
        // expectation; allow slack for randomness on a single run.
        let data = cer_data(2_000, 7);
        let mut rng = StdRng::seed_from_u64(7);
        let report = PerturbedKMeans::new(greedy_config(5)).run(
            &data,
            &InitialCentroids::RandomFromData { k: 10 },
            &mut rng,
        );
        let avg_pre: f64 =
            report.iterations.iter().map(|it| it.pre_inertia).sum::<f64>() / report.num_iterations() as f64;
        let avg_post: f64 =
            report.iterations.iter().map(|it| it.post_inertia).sum::<f64>() / report.num_iterations() as f64;
        assert!(avg_post >= avg_pre * 0.99, "avg post {avg_post} vs avg pre {avg_pre}");
    }

    #[test]
    fn smoothing_window_is_even_and_positive() {
        let s = TimeSeries::new((0..24).map(|i| i as f64).collect());
        let smoothed = Smoothing::PAPER_DEFAULT.apply(&s);
        assert_eq!(smoothed.len(), 24);
        assert!((smoothed.mean() - s.mean()).abs() < 1e-9);
        assert_eq!(Smoothing::None.apply(&s), s);
    }
}
