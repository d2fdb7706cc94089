//! Run parameters (Table 1) and the paper's experimental settings (Table 2).

use chiaroscuro_dp::accountant::ProbabilisticDpParams;
use chiaroscuro_dp::budget::{BudgetSchedule, BudgetStrategy};
use chiaroscuro_gossip::sim::{AdversaryModel, NetworkModel};
use chiaroscuro_kmeans::perturbed::{PerturbedKMeans, PerturbedKMeansConfig, Smoothing};

/// A typed rejection from [`ChiaroscuroParams::validate_for_population`]:
/// a parameter combination that is well-formed in isolation but wrong for
/// the run it is about to drive.  Unlike the panicking [`validate`]
/// (nonsensical values — k = 0, ε ≤ 0 — that no caller can meaningfully
/// handle), these are configuration mistakes a harness may want to report
/// or fall back from, so they surface as values.
///
/// [`validate`]: ChiaroscuroParams::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_noise_shares > population`: the collaborative noise would be a
    /// permanent deficit and the DP guarantee would silently not hold.
    NoiseShareDeficit {
        /// The configured number of noise shares `nν`.
        num_noise_shares: usize,
        /// The concrete population the run would cover.
        population: usize,
    },
    /// `sim_shards > 1` requested while the network model is round-based:
    /// shards only apply to the event-driven (`Async`) simulator, so the
    /// request would be silently ignored.
    SimShardsUnderRounds {
        /// The requested shard count.
        requested: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoiseShareDeficit { num_noise_shares, population } => write!(
                f,
                "num_noise_shares ({num_noise_shares}) exceeds the population ({population}): \
                 the collaborative noise would be a permanent deficit and the DP guarantee \
                 would not hold"
            ),
            ConfigError::SimShardsUnderRounds { requested } => write!(
                f,
                "sim_shards ({requested}) applies to the event-driven simulator, but the \
                 network model is round-based; select NetworkModel::Async with .network(..)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// How protocol frames travel between the coordinator and the node actors
/// when a run is driven through `DistributedRun::via_actors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Channel-backed in-memory links (`chiaroscuro_node::InMemoryTransport`
    /// behind a `LocalBus`): every frame still crosses the real codec and a
    /// thread boundary, with no socket syscalls.  The default.
    InMemory,
    /// Unix-domain socket pairs with length-prefixed frames
    /// (`chiaroscuro_node::FramedSocketTransport`): the deployment-shaped
    /// path, byte-identical to a multi-process cluster.  Reported payload
    /// sizes include the per-message frame overhead actually transmitted.
    UnixSocket,
}

/// All parameters of a Chiaroscuro run (the building blocks' initialisation
/// parameters of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ChiaroscuroParams {
    // --- k-means ---
    /// Initial number of centroids `k`.
    pub k: usize,
    /// Convergence threshold θ.
    pub convergence_threshold: f64,
    /// Maximum number of iterations `n_max_it`.
    pub max_iterations: usize,

    // --- privacy ---
    /// Total differential-privacy budget ε.
    pub epsilon: f64,
    /// Probabilistic-DP probability δ.
    pub delta: f64,
    /// Budget-concentration strategy (§5.1).
    pub strategy: BudgetStrategy,
    /// Means smoothing (§5.2).
    pub smoothing: Smoothing,
    /// Number of noise shares `nν` (the expected lower bound on the number
    /// of contributors).
    pub num_noise_shares: usize,

    // --- cryptography ---
    /// RSA-modulus size in bits (the paper uses 1024).
    pub key_bits: u64,
    /// Damgård–Jurik exponent `s` (1 = Paillier).
    pub damgard_jurik_s: u32,
    /// Key-share threshold τ, as an absolute number of shares.
    pub key_share_threshold: usize,
    /// Decimal digits preserved by the fixed-point encoding.
    pub encoding_digits: u32,

    // --- gossip ---
    /// Number of gossip exchanges `ne` per epidemic sum (if `None`, derived
    /// from Theorem 3 for the target error below).
    pub exchanges_override: Option<u32>,
    /// Target gossip relative approximation error `e_max`.
    pub gossip_error_bound: f64,
    /// Per-exchange disconnection probability (churn).
    pub churn: f64,
    /// How gossip messages are delivered: `Rounds` (the default) keeps the
    /// synchronous round engine — the dispatcher consumes exactly the same
    /// RNG draws as driving `GossipEngine` directly, so round-based
    /// schedules are unchanged by this knob — while `Async` routes every
    /// gossip phase through
    /// the deterministic event-driven simulator
    /// (`chiaroscuro_gossip::sim`): per-edge latency distributions,
    /// message loss and crash/rejoin schedules, with wall-clock latency
    /// metrics surfaced in the iteration's network stats.  One gossip
    /// exchange of budget corresponds to one exchange period of simulated
    /// time, so `exchanges` keeps its meaning under both models.  Each
    /// asynchronous phase consumes exactly one master-RNG draw, and its
    /// `sim_shards` worker count never changes a result.
    pub network: NetworkModel,
    /// A `sim_shards` request made while the network model was round-based
    /// (the builder records it instead of panicking; switching to an
    /// `Async` model applies it).  If it is still pending with a value > 1
    /// at run time, [`Self::validate_for_population`] rejects the
    /// configuration with [`ConfigError::SimShardsUnderRounds`].
    pub sim_shards_request: Option<usize>,
    /// The byzantine adversary injected into every gossip phase
    /// (`chiaroscuro_gossip::sim::adversary`): a seeded fraction of nodes
    /// ships malformed/replayed/duplicated ciphertexts or drops replies,
    /// and honest peer sampling can be eclipse-biased.  The default,
    /// [`AdversaryModel::NONE`], is guaranteed bit-identical to a build
    /// without the knob — an inactive model consumes no RNG draw anywhere.
    /// Per-class injected/detected/absorbed counters surface in each
    /// iteration's network stats and in the security audit.
    pub adversary: AdversaryModel,

    // --- execution ---
    /// Frame delivery for the actor-driven execution path
    /// (`DistributedRun::via_actors`): in-memory channel links by default,
    /// or Unix-domain socket pairs for the deployment-shaped path.  The
    /// monolithic `execute` ignores this knob; results are bit-identical
    /// across all drive paths either way.
    pub transport: TransportKind,
    /// Worker threads for the crypto hot path (per-participant encryption
    /// and threshold decryption).  `1` runs strictly serially on the caller
    /// thread; `0` auto-selects the machine's available parallelism.  The
    /// result is bit-identical whatever the value (each participant draws
    /// from its own seed-derived RNG stream), so the scenario matrix can
    /// exercise both paths deterministically.
    pub pool_threads: usize,
}

impl ChiaroscuroParams {
    /// Starts a builder pre-filled with the paper's defaults scaled down to
    /// a laptop-sized functional run.
    pub fn builder() -> ChiaroscuroParamsBuilder {
        ChiaroscuroParamsBuilder::default()
    }

    /// The per-iteration privacy-budget schedule implied by the strategy.
    pub fn budget_schedule(&self) -> BudgetSchedule {
        BudgetSchedule::new(self.strategy, self.epsilon, self.max_iterations)
    }

    /// These parameters as the perturbed k-means they configure: the one
    /// Algorithm-1 loop both the quality surrogate and the distributed
    /// execution run.  `iteration_churn` is the surrogate's per-iteration
    /// offline probability (§6.1.5); the distributed run models churn per
    /// gossip exchange instead and passes 0.
    pub(crate) fn perturbed_kmeans(&self, iteration_churn: f64) -> PerturbedKMeans {
        PerturbedKMeans::new(PerturbedKMeansConfig {
            schedule: self.budget_schedule(),
            max_iterations: self.max_iterations,
            convergence_threshold: self.convergence_threshold,
            smoothing: self.smoothing,
            iteration_churn,
            gossip_error_bound: self.gossip_error_bound,
        })
    }

    /// The probabilistic-DP parameters for a series length `n`.
    pub fn dp_params(&self, series_length: usize) -> ProbabilisticDpParams {
        ProbabilisticDpParams::new(self.epsilon, self.delta, self.max_iterations, series_length)
    }

    /// The number of gossip exchanges per epidemic sum: the override if set,
    /// otherwise the Theorem-3 value for `population` and unit variance.
    pub fn exchanges_for(&self, population: usize, series_length: usize) -> u32 {
        if let Some(n) = self.exchanges_override {
            return n;
        }
        chiaroscuro_dp::accountant::exchanges_for_params(
            &self.dp_params(series_length),
            population,
            1.0,
            self.gossip_error_bound.max(1e-15),
        ) as u32
    }

    /// A conservative lower bound on the plaintext-space bits available to
    /// lane packing, derivable **before** key generation: key generation
    /// forces the top bit of each `key_bits/2`-bit prime, which guarantees
    /// only `n = p·q ≥ 2^(key_bits−2)`, hence `n^s ≥ 2^(s·(key_bits−2))`
    /// and any packed value below that many bits fits in `Z_{n^s}` for
    /// *every* possible key.  Using this bound (rather than the generated
    /// key's exact modulus) keeps the lane layout a pure function of the
    /// parameters, so validation in `DistributedRun::new` and the layout
    /// used at execution time always agree; the runner additionally
    /// re-checks the layout against the actual generated modulus.
    pub fn packing_capacity_bits(&self) -> u64 {
        u64::from(self.damgard_jurik_s) * (self.key_bits - 2)
    }

    /// The exchange count the runner actually uses: an explicit
    /// `.exchanges(n)` override is honored **verbatim** (the user asked for
    /// exactly that schedule); only the Theorem-3-derived value is clamped
    /// into the simulation's practical `[8, 48]` band (below 8 the epidemic
    /// weight may not have spread, above 48 the runs waste wall-clock for no
    /// accuracy gain at simulated scales).
    pub fn effective_exchanges(&self, population: usize, series_length: usize) -> u32 {
        match self.exchanges_override {
            Some(n) => n,
            None => self.exchanges_for(population, series_length).clamp(8, 48),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics when a parameter combination is nonsensical (k = 0, ε ≤ 0, ...).
    pub fn validate(&self) {
        assert!(self.k >= 1, "k must be at least 1");
        assert!(self.max_iterations >= 1);
        assert!(self.epsilon > 0.0 && self.epsilon.is_finite());
        assert!(self.delta > 0.0 && self.delta <= 1.0);
        assert!(self.num_noise_shares >= 1);
        assert!(self.key_bits >= 64, "keys below 64 bits cannot hold the encoded sums");
        assert!(self.damgard_jurik_s >= 1);
        assert!(self.key_share_threshold >= 1);
        assert!((0.0..1.0).contains(&self.churn));
        assert!(self.gossip_error_bound >= 0.0 && self.gossip_error_bound < 1.0);
        self.network.validate();
        self.adversary.validate();
        if let Some(n) = self.exchanges_override {
            // Overrides pass through to the runner verbatim (no clamping),
            // so zero would silently skip aggregation altogether.
            assert!(n >= 1, "an explicit exchanges override must be at least 1");
        }
    }

    /// Validates consistency against a concrete population size: the number
    /// of noise shares `nν` is the *expected lower bound* on contributors
    /// (§4.2.2), so a population smaller than `nν` is a standing noise
    /// deficit — the aggregated Laplace noise would be systematically under
    /// the calibrated scale and the ε guarantee would silently not hold.
    /// Also rejects a pending `sim_shards` request that the round-based
    /// network model would silently ignore.
    ///
    /// # Errors
    /// [`ConfigError::NoiseShareDeficit`] if `num_noise_shares > population`;
    /// [`ConfigError::SimShardsUnderRounds`] if `sim_shards > 1` was
    /// requested but the network model is still round-based.
    ///
    /// # Panics
    /// Panics if [`Self::validate`] fails (nonsensical parameters).
    pub fn validate_for_population(&self, population: usize) -> Result<(), ConfigError> {
        self.validate();
        if self.num_noise_shares > population {
            return Err(ConfigError::NoiseShareDeficit {
                num_noise_shares: self.num_noise_shares,
                population,
            });
        }
        if let Some(requested) = self.sim_shards_request {
            if requested > 1 && !self.network.is_async() {
                return Err(ConfigError::SimShardsUnderRounds { requested });
            }
        }
        Ok(())
    }
}

/// Builder for [`ChiaroscuroParams`].
#[derive(Debug, Clone)]
pub struct ChiaroscuroParamsBuilder {
    params: ChiaroscuroParams,
}

impl Default for ChiaroscuroParamsBuilder {
    fn default() -> Self {
        Self {
            params: ChiaroscuroParams {
                k: 10,
                convergence_threshold: 1e-3,
                max_iterations: 10,
                epsilon: 0.69,
                delta: 0.995,
                strategy: BudgetStrategy::Greedy,
                smoothing: Smoothing::PAPER_DEFAULT,
                num_noise_shares: 100,
                key_bits: 256,
                damgard_jurik_s: 1,
                key_share_threshold: 3,
                encoding_digits: 3,
                exchanges_override: None,
                gossip_error_bound: 1e-3,
                churn: 0.0,
                network: NetworkModel::Rounds,
                sim_shards_request: None,
                adversary: AdversaryModel::NONE,
                transport: TransportKind::InMemory,
                pool_threads: 1,
            },
        }
    }
}

impl ChiaroscuroParamsBuilder {
    /// Sets the number of clusters.
    pub fn k(mut self, k: usize) -> Self {
        self.params.k = k;
        self
    }

    /// Sets the total privacy budget.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.params.epsilon = epsilon;
        self
    }

    /// Sets the probabilistic-DP δ.
    pub fn delta(mut self, delta: f64) -> Self {
        self.params.delta = delta;
        self
    }

    /// Sets the budget-concentration strategy.
    pub fn strategy(mut self, strategy: BudgetStrategy) -> Self {
        self.params.strategy = strategy;
        self
    }

    /// Sets the means-smoothing mode.
    pub fn smoothing(mut self, smoothing: Smoothing) -> Self {
        self.params.smoothing = smoothing;
        self
    }

    /// Sets the maximum number of iterations.
    pub fn max_iterations(mut self, max_iterations: usize) -> Self {
        self.params.max_iterations = max_iterations;
        self
    }

    /// Sets the key size in bits.
    pub fn key_bits(mut self, key_bits: u64) -> Self {
        self.params.key_bits = key_bits;
        self
    }

    /// Sets the key-share threshold τ.
    pub fn key_share_threshold(mut self, threshold: usize) -> Self {
        self.params.key_share_threshold = threshold;
        self
    }

    /// Sets the number of noise shares nν.
    pub fn num_noise_shares(mut self, num_noise_shares: usize) -> Self {
        self.params.num_noise_shares = num_noise_shares;
        self
    }

    /// Sets the per-exchange churn probability.
    pub fn churn(mut self, churn: f64) -> Self {
        self.params.churn = churn;
        self
    }

    /// Sets a fixed number of gossip exchanges (otherwise Theorem 3 is used).
    pub fn exchanges(mut self, exchanges: u32) -> Self {
        self.params.exchanges_override = Some(exchanges);
        self
    }

    /// Selects the gossip delivery model (round-based by default; see
    /// [`ChiaroscuroParams::network`]).  Switching to an `Async` model
    /// applies any `sim_shards` request recorded before the switch.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.params.network = network;
        if let NetworkModel::Async(config) = &mut self.params.network {
            if let Some(requested) = self.params.sim_shards_request.take() {
                config.sim_shards = requested;
            }
        }
        self
    }

    /// Sets the crypto worker-thread count (1 = serial, 0 = auto-detect).
    pub fn pool_threads(mut self, pool_threads: usize) -> Self {
        self.params.pool_threads = pool_threads;
        self
    }

    /// Sets the event-driven simulator's shard (= worker) count (`1` = one
    /// worker, `0` = auto-detect, `n ≥ 2` = that many; a pure performance
    /// setting — results are bit-identical for every value).  Applied to
    /// the current `Async` network model, or recorded and applied by a
    /// later [`Self::network`] switch; if the model is still round-based
    /// with shards > 1 requested at run time,
    /// [`ChiaroscuroParams::validate_for_population`] rejects the
    /// configuration with [`ConfigError::SimShardsUnderRounds`] instead of
    /// silently ignoring the request.
    pub fn sim_shards(mut self, sim_shards: usize) -> Self {
        match self.params.network {
            NetworkModel::Async(ref mut config) => config.sim_shards = sim_shards,
            NetworkModel::Rounds => self.params.sim_shards_request = Some(sim_shards),
        }
        self
    }

    /// Selects how actor-driven runs deliver frames (in-memory channels by
    /// default; see [`ChiaroscuroParams::transport`]).
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.params.transport = transport;
        self
    }

    /// Injects a byzantine adversary into every gossip phase (none by
    /// default; see [`ChiaroscuroParams::adversary`]).
    pub fn adversary(mut self, adversary: AdversaryModel) -> Self {
        self.params.adversary = adversary;
        self
    }

    // Lane packing is the only encoding, so this setter has nothing to set:
    // `chiarobench/src/workloads.rs` still calls `.lane_packing(true)` and
    // cannot change in a protocol PR; the setter goes when a benchmark PR
    // drops that call.
    #[doc(hidden)]
    pub fn lane_packing(self, lane_packing: bool) -> Self {
        assert!(
            lane_packing,
            "the per-coordinate encoding was removed: lane packing is the only encoding"
        );
        self
    }

    /// Sets the convergence threshold θ.
    pub fn convergence_threshold(mut self, threshold: f64) -> Self {
        self.params.convergence_threshold = threshold;
        self
    }

    /// Finalises the parameters.
    ///
    /// # Panics
    /// Panics if the combination is invalid (see [`ChiaroscuroParams::validate`]).
    pub fn build(self) -> ChiaroscuroParams {
        self.params.validate();
        self.params
    }
}

/// The paper's experimental settings (Table 2), kept verbatim so the figure
/// harness can print them and scale them down explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Number of CER time-series (3M).
    pub cer_series: usize,
    /// Number of NUMED time-series (1.2M).
    pub numed_series: usize,
    /// CER series length (24 hourly measures).
    pub cer_length: usize,
    /// NUMED series length (20 weekly measures).
    pub numed_length: usize,
    /// Key size in bits (1024).
    pub key_bits: u64,
    /// Key-share threshold range, as fractions of the population.
    pub key_share_threshold_range: (f64, f64),
    /// Privacy budget ε = ln 2.
    pub epsilon: f64,
    /// Number of noise shares as a fraction of the population (100%).
    pub noise_share_fraction: f64,
    /// Initial number of centroids k = 50.
    pub k: usize,
    /// Local view size (30).
    pub view_size: usize,
    /// Churn range explored (10% to 50%).
    pub churn_range: (f64, f64),
    /// GREEDY_FLOOR floor size (4).
    pub floor_size: usize,
    /// Iteration cap for UNIFORM_FAST (5) and globally (10).
    pub max_iterations: (usize, usize),
    /// SMA window as a fraction of the series length (20%).
    pub sma_window: f64,
}

impl ExperimentParams {
    /// The values of Table 2.
    pub const TABLE_2: ExperimentParams = ExperimentParams {
        cer_series: 3_000_000,
        numed_series: 1_200_000,
        cer_length: 24,
        numed_length: 20,
        key_bits: 1024,
        key_share_threshold_range: (0.00001, 0.10),
        epsilon: 0.69,
        noise_share_fraction: 1.0,
        k: 50,
        view_size: 30,
        churn_range: (0.10, 0.50),
        floor_size: 4,
        max_iterations: (5, 10),
        sma_window: 0.20,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_defaults() {
        let p = ChiaroscuroParams::builder().build();
        assert_eq!(p.k, 10);
        assert_eq!(p.epsilon, 0.69);
        p.validate();
        // The conservative capacity bound is a pure function of the key
        // parameters: 256-bit Paillier -> 254 packable bits (keygen only
        // guarantees n >= 2^(key_bits-2), so key_bits-1 would overflow for
        // ~39% of generated keys).
        assert_eq!(p.packing_capacity_bits(), 254);
        let mut dj2 = p.clone();
        dj2.damgard_jurik_s = 2;
        assert_eq!(dj2.packing_capacity_bits(), 508);
    }

    #[test]
    fn builder_setters_apply() {
        let p = ChiaroscuroParams::builder()
            .k(50)
            .epsilon(1.0)
            .delta(0.99)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 5 })
            .max_iterations(5)
            .key_bits(512)
            .key_share_threshold(7)
            .num_noise_shares(1_000)
            .churn(0.25)
            .exchanges(40)
            .convergence_threshold(1e-2)
            .smoothing(Smoothing::None)
            .build();
        assert_eq!(p.k, 50);
        assert_eq!(p.key_bits, 512);
        assert_eq!(p.exchanges_override, Some(40));
        assert_eq!(p.key_share_threshold, 7);
        assert_eq!(p.churn, 0.25);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        ChiaroscuroParams::builder().k(0).build();
    }

    #[test]
    fn schedule_and_dp_params_are_consistent() {
        let p = ChiaroscuroParams::builder().build();
        let schedule = p.budget_schedule();
        assert!(schedule.cumulative_epsilon(p.max_iterations) <= p.epsilon + 1e-9);
        let dp = p.dp_params(24);
        assert_eq!(dp.max_iterations, p.max_iterations);
    }

    #[test]
    fn exchange_count_uses_override_or_theorem3() {
        let fixed = ChiaroscuroParams::builder().exchanges(33).build();
        assert_eq!(fixed.exchanges_for(1_000_000, 24), 33);
        let derived = ChiaroscuroParams::builder().build();
        let ne = derived.exchanges_for(1_000_000, 24);
        assert!((10..=100).contains(&ne), "ne = {ne}");
    }

    #[test]
    fn explicit_exchange_override_is_honored_verbatim_outside_the_clamp_band() {
        // Regression: the runner used to clamp the user's explicit override
        // into [8, 48] too.  An override must pass through untouched...
        for requested in [4u32, 6, 60, 200] {
            let p = ChiaroscuroParams::builder().exchanges(requested).build();
            assert_eq!(p.effective_exchanges(1_000, 24), requested, "override {requested}");
        }
        // ...while the Theorem-3-derived value is still clamped to [8, 48].
        let mut derived = ChiaroscuroParams::builder().build();
        derived.gossip_error_bound = 0.9; // cheap target -> tiny derived ne
        let lo = derived.effective_exchanges(4, 2);
        assert!(lo >= 8, "derived value must be clamped up, got {lo}");
        derived.gossip_error_bound = 1e-12; // brutal target -> huge derived ne
        let hi = derived.effective_exchanges(3_000_000, 24);
        assert!(hi <= 48, "derived value must be clamped down, got {hi}");
    }

    #[test]
    #[should_panic(expected = "exchanges override must be at least 1")]
    fn zero_exchange_override_rejected() {
        // Overrides are honored verbatim, so zero would mean "no gossip at
        // all" and a reference node reporting its own values as aggregates.
        ChiaroscuroParams::builder().exchanges(0).build();
    }

    #[test]
    fn population_validation_rejects_noise_share_deficit() {
        let p = ChiaroscuroParams::builder().num_noise_shares(100).build();
        assert_eq!(p.validate_for_population(100), Ok(())); // exactly enough is fine
        assert_eq!(p.validate_for_population(5_000), Ok(()));
        let err = p.validate_for_population(99);
        assert_eq!(
            err,
            Err(ConfigError::NoiseShareDeficit { num_noise_shares: 100, population: 99 }),
            "nν > population must be rejected"
        );
        // The Display text keeps the long-standing diagnostic shape.
        let message = err.unwrap_err().to_string();
        assert!(message.contains("num_noise_shares (100) exceeds the population (99)"), "{message}");
    }

    #[test]
    #[should_panic(expected = "per-coordinate encoding was removed")]
    fn lane_packing_setter_refuses_the_removed_encoding() {
        let _ = ChiaroscuroParams::builder().lane_packing(true).lane_packing(false);
    }

    #[test]
    fn network_model_knob_round_trips() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel};
        assert_eq!(
            ChiaroscuroParams::builder().build().network,
            NetworkModel::Rounds,
            "round-based delivery by default"
        );
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.2, sigma: 0.5 })
            .with_loss(0.05);
        let p = ChiaroscuroParams::builder().network(NetworkModel::Async(config.clone())).build();
        assert_eq!(p.network, NetworkModel::Async(config));
        assert!(p.network.is_async());
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_async_network_rejected_at_build() {
        use chiaroscuro_gossip::sim::AsyncNetworkConfig;
        let config = AsyncNetworkConfig::default().with_loss(1.0);
        ChiaroscuroParams::builder().network(NetworkModel::Async(config)).build();
    }

    #[test]
    fn sim_shards_knob_reaches_the_async_config() {
        use chiaroscuro_gossip::sim::AsyncNetworkConfig;
        let p = ChiaroscuroParams::builder()
            .network(NetworkModel::Async(AsyncNetworkConfig::default()))
            .sim_shards(4)
            .build();
        match p.network {
            NetworkModel::Async(config) => assert_eq!(config.sim_shards, 4),
            NetworkModel::Rounds => unreachable!(),
        }
        // The knob also composes in the other order: the request is
        // recorded and applied when the model switches to Async.
        let p = ChiaroscuroParams::builder()
            .sim_shards(4)
            .network(NetworkModel::Async(AsyncNetworkConfig::default()))
            .build();
        match p.network {
            NetworkModel::Async(config) => assert_eq!(config.sim_shards, 4),
            NetworkModel::Rounds => unreachable!(),
        }
        assert_eq!(p.sim_shards_request, None, "an applied request must not linger");
    }

    #[test]
    fn sim_shards_under_the_round_model_is_a_typed_config_error() {
        // Regression: this used to panic inside the builder.  A recorded
        // request that never reaches an Async model now surfaces as a
        // ConfigError at population validation instead.
        let p = ChiaroscuroParams::builder().sim_shards(4).num_noise_shares(2).build();
        assert_eq!(
            p.validate_for_population(100),
            Err(ConfigError::SimShardsUnderRounds { requested: 4 })
        );
        // Re-selecting the round model must not consume the request.
        let p = ChiaroscuroParams::builder()
            .sim_shards(4)
            .network(NetworkModel::Rounds)
            .num_noise_shares(2)
            .build();
        assert_eq!(
            p.validate_for_population(100),
            Err(ConfigError::SimShardsUnderRounds { requested: 4 })
        );
        // A single-shard request asks for no parallelism, so it stays
        // valid under the round model.
        let p = ChiaroscuroParams::builder().sim_shards(1).num_noise_shares(2).build();
        assert_eq!(p.validate_for_population(100), Ok(()));
    }

    #[test]
    fn pool_threads_knob_round_trips() {
        assert_eq!(ChiaroscuroParams::builder().build().pool_threads, 1, "serial by default");
        let p = ChiaroscuroParams::builder().pool_threads(4).build();
        assert_eq!(p.pool_threads, 4);
        ChiaroscuroParams::builder().pool_threads(0).build().validate(); // 0 = auto is valid
    }

    #[test]
    fn table2_matches_the_paper() {
        let t = ExperimentParams::TABLE_2;
        assert_eq!(t.cer_series, 3_000_000);
        assert_eq!(t.numed_series, 1_200_000);
        assert_eq!(t.k, 50);
        assert_eq!(t.key_bits, 1024);
        assert!((t.epsilon - 0.69).abs() < 1e-12);
        assert_eq!(t.view_size, 30);
        assert_eq!(t.floor_size, 4);
        assert_eq!(t.max_iterations, (5, 10));
        assert!((t.sma_window - 0.2).abs() < 1e-12);
    }
}
