//! Shared scenario harness for the end-to-end test matrix.
//!
//! A [`ScenarioSpec`] names one point in the scenario space the paper's
//! evaluation explores — population × k × ε × churn × budget-concentration
//! strategy — plus a fixed seed.  [`ScenarioSpec::run`] executes the full
//! distributed pipeline (`DistributedRun`: key dealing, Diptych
//! initialisation, EESum epidemic sums, noise-surplus dissemination,
//! threshold decryption) *and* the paper's own large-scale quality
//! surrogate (perturbed centralized k-means) from the same seed, so every
//! scenario can assert:
//!
//! * **structure agreement** — both execution paths recover the same
//!   cluster structure on a well-separated synthetic dataset;
//! * **requirement R2** — the security audit records only encrypted,
//!   differentially-private or data-independent transfers, never raw
//!   personal data;
//! * **budget compliance** — the ε actually spent never exceeds the
//!   configured privacy budget.
//!
//! Runs are deterministic: the same spec and seed reproduce bit-identical
//! centroids, which the `determinism` test in the matrix asserts.

use chiaroscuro::core::prelude::*;
use chiaroscuro::core::runner::RunOutcome;
use chiaroscuro::kmeans::init::InitialCentroids;
use chiaroscuro::kmeans::report::RunReport;
use chiaroscuro::timeseries::{TimeSeries, TimeSeriesSet, ValueRange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The value range of every scenario dataset (the CER-like 0–80 kWh range).
pub const RANGE: (f64, f64) = (0.0, 80.0);

/// One point of the scenario matrix.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (used in assertion messages).
    pub name: &'static str,
    /// Number of participants (one personal device per series).
    pub population: usize,
    /// Number of clusters `k` (also the number of distinct profiles the
    /// synthetic dataset contains).
    pub k: usize,
    /// Total differential-privacy budget ε.
    pub epsilon: f64,
    /// Per-exchange disconnection probability.
    pub churn: f64,
    /// Budget-concentration strategy (§5.1 of the paper).
    pub strategy: BudgetStrategy,
    /// Iteration cap.
    pub max_iterations: usize,
    /// RNG seed; fixes the key material, the gossip schedule and the noise.
    pub seed: u64,
    /// Tolerance on the per-cluster mean when comparing the distributed run
    /// with the centralized surrogate (absorbs the calibrated DP noise).
    pub structure_tolerance: f64,
    /// Whether ε is generous enough for cluster-structure agreement to be a
    /// meaningful assertion (tight-budget scenarios still assert R2 and
    /// budget compliance, but noise legitimately dominates the structure).
    pub check_structure: bool,
    /// Crypto worker threads for the distributed run (1 = strictly serial).
    /// Any value must produce bit-identical outcomes — the matrix asserts
    /// serial-vs-parallel equality explicitly.
    pub pool_threads: usize,
    /// Gossip exchanges per epidemic sum (14 suits the default scenarios;
    /// the lane-packing scenarios use 8 so the 256-bit test keys fit more
    /// than one lane under the epidemic doubling allowance).
    pub exchanges: u32,
    /// Gossip delivery model: lockstep rounds (the default) or the
    /// event-driven asynchronous simulator with per-edge latency, loss and
    /// crash/rejoin.  The matrix asserts async scenarios reach the same
    /// clustering quality as the synchronous engine from the same seed.
    pub network: NetworkModel,
    /// Simulator shard count for the asynchronous engine (1 = the serial
    /// event queue, `n ≥ 2` = the sharded windowed engine with `n`
    /// workers).  Outcomes are bit-invariant in the shard count of the
    /// sharded engine — the matrix asserts it explicitly.  Ignored under
    /// [`NetworkModel::Rounds`].
    pub sim_shards: usize,
    /// Runs the distributed pipeline on the plaintext-surrogate cipher
    /// backend (exact plaintext lane sums, no modular arithmetic) instead
    /// of Damgård–Jurik.  Backend setup preserves RNG parity, so surrogate
    /// scenarios decode the *same* centroids as crypto scenarios from the
    /// same seed — which is what licenses the 100k+-node scale scenarios.
    pub surrogate: bool,
    /// Paper-scale key size override (surrogate scale scenarios use
    /// 1024-bit layouts so the lane plan fits 100k-node budgets).
    pub key_bits: u64,
    /// Byzantine adversary model (fault injection at the gossip exchange
    /// boundary).  [`AdversaryModel::NONE`] — the default everywhere but
    /// the adversary scenarios — must be bit-identical to the historical
    /// honest runs, which the matrix asserts against the pinned seeds.
    pub adversary: AdversaryModel,
}

/// The two execution paths of one scenario, run from the same seed.
pub struct ScenarioOutcome {
    /// The spec that produced this outcome.
    pub spec: ScenarioSpec,
    /// The fully-distributed execution (gossip + crypto + DP).
    pub distributed: RunOutcome,
    /// The perturbed centralized surrogate (the paper's §6 quality proxy).
    pub centralized: RunReport,
}

impl ScenarioSpec {
    /// The well-separated profile levels of the synthetic dataset: `k`
    /// constant levels spread across the value range, away from the edges.
    pub fn profile_levels(&self) -> Vec<f64> {
        let (lo, hi) = RANGE;
        let span = hi - lo;
        (0..self.k)
            .map(|c| lo + span * (c as f64 + 0.5) / self.k as f64)
            .collect()
    }

    /// The deterministic dataset: `population` series of length 6, one of
    /// `k` constant profiles each, assigned round-robin.
    pub fn dataset(&self) -> TimeSeriesSet {
        let levels = self.profile_levels();
        let series = (0..self.population)
            .map(|i| TimeSeries::constant(6, levels[i % self.k]))
            .collect();
        TimeSeriesSet::new(series, ValueRange::new(RANGE.0, RANGE.1))
    }

    /// Initial centroids offset from the true levels, so both execution
    /// paths start from the same (imperfect) guess.
    pub fn initial_centroids(&self) -> Vec<TimeSeries> {
        self.profile_levels()
            .iter()
            .enumerate()
            .map(|(c, &level)| {
                let offset = if c % 2 == 0 { 6.0 } else { -6.0 };
                TimeSeries::constant(6, level + offset)
            })
            .collect()
    }

    /// The run parameters for this scenario (laptop-sized key material, as
    /// the seed tests use: the crypto path is identical, only slower at the
    /// paper's 1024-bit setting).
    pub fn params(&self) -> ChiaroscuroParams {
        let mut builder = ChiaroscuroParams::builder()
            .k(self.k)
            .epsilon(self.epsilon)
            .strategy(self.strategy)
            .max_iterations(self.max_iterations)
            .key_bits(self.key_bits)
            .key_share_threshold(3)
            .num_noise_shares(self.population)
            .exchanges(self.exchanges)
            .churn(self.churn)
            .pool_threads(self.pool_threads)
            .network(self.network.clone())
            .adversary(self.adversary);
        if self.sim_shards > 1 {
            builder = builder.sim_shards(self.sim_shards);
        }
        builder.build()
    }

    /// Runs the distributed pipeline and the centralized surrogate.
    pub fn run(&self) -> ScenarioOutcome {
        let data = self.dataset();
        let init = self.initial_centroids();
        let params = self.params();

        let distributed = if self.surrogate {
            DistributedRun::<PlaintextSurrogate>::with_backend(params.clone(), &data)
                .with_initial_centroids(init.clone())
                .execute(self.seed)
        } else {
            DistributedRun::new(params.clone(), &data)
                .with_initial_centroids(init.clone())
                .execute(self.seed)
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        let centralized = QualitySurrogate::new(params)
            .run_perturbed(&data, &InitialCentroids::Provided(init), &mut rng);

        ScenarioOutcome { spec: self.clone(), distributed, centralized }
    }
}

impl ScenarioOutcome {
    /// Sorted per-centroid means of the distributed run.
    pub fn distributed_means(&self) -> Vec<f64> {
        sorted_means(self.distributed.centroids())
    }

    /// Sorted per-centroid means of the centralized surrogate.
    pub fn centralized_means(&self) -> Vec<f64> {
        sorted_means(&self.centralized.final_centroids)
    }

    /// Assertion (a): the distributed protocol and the centralized
    /// perturbed surrogate agree on the cluster structure.
    pub fn assert_structure_agreement(&self) {
        let spec = &self.spec;
        if !spec.check_structure {
            return;
        }
        let last = self.distributed.report.iterations.last().expect("at least one iteration");
        assert_eq!(
            last.surviving_centroids, spec.k,
            "[{}] all {} clusters must survive the distributed run",
            spec.name, spec.k
        );
        let d = self.distributed_means();
        let c = self.centralized_means();
        let levels = {
            let mut l = spec.profile_levels();
            l.sort_by(|a, b| a.partial_cmp(b).unwrap());
            l
        };
        for ((dm, cm), level) in d.iter().zip(c.iter()).zip(levels.iter()) {
            assert!(
                (dm - cm).abs() < spec.structure_tolerance,
                "[{}] distributed centroid {dm:.2} vs centralized {cm:.2} (tolerance {})",
                spec.name,
                spec.structure_tolerance
            );
            assert!(
                (dm - level).abs() < spec.structure_tolerance,
                "[{}] distributed centroid {dm:.2} strays from true level {level:.2}",
                spec.name
            );
        }
        // Both paths end with a small intra-cluster inertia relative to the
        // dataset inertia (they actually clustered, not just agreed).
        assert!(
            last.pre_inertia < 0.25 * self.distributed.report.dataset_inertia,
            "[{}] distributed run did not separate the clusters",
            spec.name
        );
    }

    /// Assertion (b), requirement R2: nothing data-dependent ever left a
    /// participant in cleartext.
    pub fn assert_r2_audit(&self) {
        let spec = &self.spec;
        let audit = &self.distributed.audit;
        assert!(
            !audit.leaked_raw_data(),
            "[{}] audit recorded a raw personal-data transfer",
            spec.name
        );
        for event in audit.events() {
            assert_ne!(
                event.class,
                DataClass::RawPersonalData,
                "[{}] iteration {} exported '{}' as raw personal data",
                spec.name,
                event.iteration,
                event.what
            );
        }
        // The run actually exercised every protected transfer class: the
        // encrypted Diptych contributions, the DP decryption outputs and
        // the data-independent gossip metadata.
        let iterations = self.distributed.report.num_iterations();
        assert!(
            audit.count(DataClass::Encrypted) >= 2 * spec.population * iterations,
            "[{}] expected one encrypted means + one encrypted noise transfer per participant per iteration",
            spec.name
        );
        assert!(audit.count(DataClass::DifferentiallyPrivate) >= iterations, "[{}]", spec.name);
        assert!(audit.count(DataClass::DataIndependent) >= spec.population, "[{}]", spec.name);
    }

    /// Assertion (c): the privacy accountant never exceeds the budget, on
    /// either execution path.
    pub fn assert_budget_respected(&self) {
        let spec = &self.spec;
        let spent = self.distributed.report.total_epsilon();
        assert!(
            spent <= spec.epsilon + 1e-9,
            "[{}] distributed run spent ε = {spent}, budget was {}",
            spec.name,
            spec.epsilon
        );
        let spent_centralized = self.centralized.total_epsilon();
        assert!(
            spent_centralized <= spec.epsilon + 1e-9,
            "[{}] surrogate spent ε = {spent_centralized}, budget was {}",
            spec.name,
            spec.epsilon
        );
        // The per-iteration schedule is consistent with the total.
        let from_iterations: f64 =
            self.distributed.report.iterations.iter().map(|it| it.epsilon).sum();
        assert!((from_iterations - spent).abs() < 1e-9, "[{}] accountant mismatch", spec.name);
    }

    /// Runs all three assertion families.
    pub fn assert_all(&self) {
        self.assert_structure_agreement();
        self.assert_r2_audit();
        self.assert_budget_respected();
    }
}

fn sorted_means(centroids: &[TimeSeries]) -> Vec<f64> {
    let mut means: Vec<f64> = centroids.iter().map(|c| c.mean()).collect();
    means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    means
}
