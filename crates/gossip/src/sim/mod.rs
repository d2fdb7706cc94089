//! Deterministic discrete-event simulation of asynchronous gossip.
//!
//! The paper evaluates Chiaroscuro on PeerSim with asynchronous message
//! delivery (§6.3); the round-based [`GossipEngine`](crate::engine) can
//! only express lockstep rounds, so its latency figures are round counts.
//! This module adds the missing axis: one seeded event-driven engine
//! ([`ShardedAsyncEngine`]) that drives the *same*
//! [`PairwiseProtocol`](crate::engine::PairwiseProtocol)
//! implementations under per-edge latency distributions
//! ([`LatencyModel`]), message loss, and node crash/rejoin schedules
//! ([`CrashSchedule`]) — with wall-clock latency metrics (per-node
//! convergence-time percentiles, messages in flight) the round engine
//! structurally cannot produce.
//!
//! [`NetworkModel`] is the run-level knob: `Rounds` keeps the synchronous
//! engine (the dispatcher consumes exactly the same RNG draws as driving
//! [`GossipEngine`] directly — asserted by a lockstep test), while
//! `Async` routes every gossip phase through the event-driven engine.
//! [`run_phase`] is the one phase dispatcher: it runs one protocol phase
//! over any node store on the engine the model selects, under optional
//! [`PhaseOpts`], and returns the final store with a uniform
//! [`PhaseStats`], which is what the Chiaroscuro iteration driver consumes.
//!
//! Determinism contract: a simulation is a pure function of
//! `(initial states, config, churn, seed)`.  An asynchronous phase consumes
//! exactly one draw from the caller's seeded RNG (its run seed); every
//! event draws from a stream hashed from `(run seed, node, window)`,
//! exchanges apply in `(time, seq)` order, and per-edge heterogeneity is a
//! pure hash — so results are bit-identical for every
//! [`AsyncNetworkConfig::sim_shards`], asserted by the invariance tests in
//! [`shard`] and in the scenario matrix.

pub mod adversary;
pub mod arena;
pub mod latency;
pub mod metrics;
pub mod schedule;
pub mod shard;

pub use adversary::{AdversaryModel, AdversaryState, ExchangeFate, FaultCounters, FaultStats};
pub use arena::EesUnitArena;
pub use latency::LatencyModel;
pub use metrics::{ConvergenceTimes, SimMetrics};
pub use schedule::{CrashSchedule, CrashWindow};
pub use shard::ShardedAsyncEngine;

// `AsyncGossipEngine` is a name only: `chiarobench/src/layers.rs` builds one
// for its `gossip.serial_exchanges_per_s` probe and cannot change in a
// protocol PR; the alias goes when a benchmark PR retires that probe.
#[doc(hidden)]
pub type AsyncGossipEngine<S> = ShardedAsyncEngine<S>;

use rand::Rng;

use crate::churn::ChurnModel;
use crate::engine::{GossipEngine, ProtocolStore};
use crate::metrics::ExchangeMetrics;

/// How gossip phases are simulated: the synchronous round engine (the
/// PeerSim cycle-driven idealisation) or the event-driven asynchronous
/// engine (message-level delivery).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NetworkModel {
    /// Lockstep rounds ([`GossipEngine`]); the default.  Selecting it
    /// consumes exactly the same RNG draws as driving the round engine
    /// directly, so this knob never moves a round-based schedule.
    #[default]
    Rounds,
    /// Event-driven asynchronous delivery ([`ShardedAsyncEngine`]) with the
    /// given network characteristics.  One round of budget corresponds to
    /// one exchange period of simulated time, and a phase consumes exactly
    /// one draw from the caller's RNG.
    Async(AsyncNetworkConfig),
}

impl NetworkModel {
    /// Checks the model's parameters are usable.
    ///
    /// # Panics
    /// Panics if the async configuration is invalid.
    pub fn validate(&self) {
        if let NetworkModel::Async(config) = self {
            config.validate();
        }
    }

    /// Whether gossip runs on the event-driven engine.
    pub fn is_async(&self) -> bool {
        matches!(self, NetworkModel::Async(_))
    }
}

/// Configuration of the simulated network.  Every time in it (latencies,
/// crash and rejoin times) is in exchange periods: each node initiates one
/// exchange per period, the asynchronous analogue of one gossip round.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncNetworkConfig {
    /// Per-message delay distribution.
    pub latency: LatencyModel,
    /// Probability that any single message (request or reply) is lost.
    pub loss_probability: f64,
    /// Heterogeneous-delay spread: edge `(i, j)` scales every latency
    /// sample by a deterministic factor in `[1 − spread, 1 + spread]`
    /// derived from a hash of the pair.  `0.0` = homogeneous network.
    pub edge_spread: f64,
    /// When `true`, every node's first initiation fires at time 0 — with
    /// zero latency this reproduces the synchronous round structure.  When
    /// `false` (default), initiations are staggered across the period by a
    /// per-node phase offset, as unsynchronised real devices would be.
    pub synchronized_start: bool,
    /// Correlated downtime windows (crash/rejoin events).
    pub crash: CrashSchedule,
    /// How many shards (and worker threads) the simulator uses: `1` (the
    /// default) runs the engine on one worker, `0` selects the machine's
    /// available parallelism, `n >= 2` uses exactly `n` shards/workers.  A
    /// pure performance setting: results are bit-identical for every value
    /// (see the [`shard`] module docs for the determinism contract).
    pub sim_shards: usize,
}

impl Default for AsyncNetworkConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::ZERO,
            loss_probability: 0.0,
            edge_spread: 0.0,
            synchronized_start: false,
            crash: CrashSchedule::NONE,
            sim_shards: 1,
        }
    }
}

impl AsyncNetworkConfig {
    /// Checks the configuration is usable.
    ///
    /// # Panics
    /// Panics on an invalid latency model, a loss probability outside
    /// `[0, 1)`, or an edge spread outside `[0, 1)`.
    pub fn validate(&self) {
        self.latency.validate();
        assert!(
            (0.0..1.0).contains(&self.loss_probability),
            "loss probability must be in [0, 1), got {}",
            self.loss_probability
        );
        assert!(
            (0.0..1.0).contains(&self.edge_spread),
            "edge spread must be in [0, 1), got {}",
            self.edge_spread
        );
    }

    /// Replaces the latency model (builder-style convenience).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the loss probability.
    pub fn with_loss(mut self, loss_probability: f64) -> Self {
        self.loss_probability = loss_probability;
        self
    }

    /// Replaces the crash/rejoin schedule.
    pub fn with_crash(mut self, crash: CrashSchedule) -> Self {
        self.crash = crash;
        self
    }

    /// Replaces the heterogeneous-delay spread.
    pub fn with_edge_spread(mut self, edge_spread: f64) -> Self {
        self.edge_spread = edge_spread;
        self
    }

    /// Switches to synchronized (round-like) initiation phases.
    pub fn with_synchronized_start(mut self, synchronized_start: bool) -> Self {
        self.synchronized_start = synchronized_start;
        self
    }

    // A no-op kept for `chiarobench/src/{workloads,layers}.rs`, which pass
    // `1.0` and cannot change in a protocol PR: predicates are checked at
    // every barrier, which any period up to one already meant.  The setter
    // goes with a benchmark PR.
    #[doc(hidden)]
    pub fn with_convergence_check_period(self, period: f64) -> Self {
        assert!(
            period <= 1.0,
            "predicates are checked every exchange period, got a check period of {period}"
        );
        self
    }

    /// Replaces the shard/worker count (see
    /// [`AsyncNetworkConfig::sim_shards`]).
    pub fn with_sim_shards(mut self, sim_shards: usize) -> Self {
        self.sim_shards = sim_shards;
        self
    }
}

/// The accounting of one gossip phase, whichever engine ran it over
/// whichever store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Round/exchange accounting (the async engine records one round per
    /// elapsed exchange period, keeping message-per-node figures
    /// comparable).
    pub metrics: ExchangeMetrics,
    /// Whether the phase's convergence predicate was satisfied (`true` for
    /// phases run without a predicate).
    pub converged: bool,
    /// Simulated wall-clock time the phase consumed (`0.0` on the round
    /// engine, which has no clock).
    pub sim_time: f64,
    /// Peak number of requests simultaneously in flight (`0` on the round
    /// engine).
    pub peak_in_flight: usize,
}

/// What one phase may additionally be run under; the default (neither) is
/// byte-identical — states, counters, RNG stream — to the engine's plain
/// `run_rounds` / `run_for`.
pub struct PhaseOpts<'a, S> {
    /// Stop as soon as this holds over the store instead of exhausting the
    /// budget; [`PhaseStats::converged`] reports whether it did.  Both
    /// engines evaluate it once up front and once per round — the async
    /// engine at each window barrier, a pure function of the config,
    /// whatever the shard count (see [`ShardedAsyncEngine::run_until`]).
    pub until: Option<&'a mut dyn FnMut(&S) -> bool>,
    /// The fault schedule (see [`adversary`]): the network schedule and its
    /// RNG draws are unchanged; the adversary only voids a seeded subset of
    /// the scheduled exchanges and accounts them per fault class.
    pub adversary: Option<&'a mut AdversaryState>,
}

impl<S> Default for PhaseOpts<'_, S> {
    fn default() -> Self {
        Self { until: None, adversary: None }
    }
}

/// Runs one protocol phase over **any** node store on the engine `network`
/// selects, and returns the final store with the phase's accounting.  This
/// is the single home of the phase recipe — engine selection, horizon
/// arithmetic, clock read-out, metrics extraction — so no two storages can
/// drift out of RNG-draw or accounting lockstep.
///
/// [`NetworkModel::Rounds`] runs at most `budget_rounds` rounds of the
/// [`GossipEngine`]; [`NetworkModel::Async`] runs at most `budget_rounds`
/// exchange periods of simulated time on the [`ShardedAsyncEngine`], with
/// [`AsyncNetworkConfig::sim_shards`] workers (one by default) and the same
/// result for every worker count.
pub fn run_phase<S, P, R>(
    network: &NetworkModel,
    nodes: S,
    churn: ChurnModel,
    protocol: &P,
    budget_rounds: u32,
    rng: &mut R,
    opts: PhaseOpts<'_, S>,
) -> (S, PhaseStats)
where
    S: ProtocolStore<P>,
    R: Rng + ?Sized,
{
    let PhaseOpts { mut until, adversary } = opts;
    let unbounded = until.is_none();
    // A predicate that never holds draws nothing and stops nothing, so the
    // plain full-budget phase is the same engine call.
    let done = |nodes: &S| until.as_mut().is_some_and(|done| done(nodes));
    let (stopped, sim_time, nodes, metrics, peak_in_flight) = match network {
        NetworkModel::Rounds => {
            let mut engine = GossipEngine::new(nodes, churn);
            let stopped = engine.run_until(protocol, budget_rounds, rng, done, adversary);
            let (nodes, metrics) = engine.into_parts();
            (stopped, 0.0, nodes, metrics, 0)
        }
        NetworkModel::Async(config) => {
            let mut engine = ShardedAsyncEngine::new(nodes, config.clone(), churn);
            let stopped =
                engine.run_until(protocol, f64::from(budget_rounds), rng, done, adversary);
            let sim_time = engine.now();
            let (nodes, metrics, sim) = engine.into_parts();
            (stopped, sim_time, nodes, metrics, sim.peak_in_flight)
        }
    };
    (nodes, PhaseStats { metrics, converged: unbounded || stopped, sim_time, peak_in_flight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PairwiseProtocol;
    use crate::eesum::{convergence_report, initial_states, EesState, EesSumProtocol};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A toy protocol: both peers keep the max of their values.
    struct MaxProtocol;

    impl PairwiseProtocol<u64> for MaxProtocol {
        fn exchange(&self, a: &mut u64, b: &mut u64) {
            let m = (*a).max(*b);
            *a = m;
            *b = m;
        }
    }

    fn sum_states(population: usize) -> Vec<EesState<f64>> {
        initial_states((0..population).map(|i| (i % 13) as f64).collect())
    }

    fn exact_sum(population: usize) -> f64 {
        (0..population).map(|i| (i % 13) as f64).sum()
    }

    #[test]
    fn in_flight_peak_reflects_synchronized_bursts() {
        // Synchronized start + constant latency of half a period: all N
        // requests of a period are in flight at once.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(0.5))
            .with_synchronized_start(true);
        let mut rng = StdRng::seed_from_u64(9);
        let mut engine = ShardedAsyncEngine::new(vec![0u64; 40], config, ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 10.0, &mut rng);
        assert_eq!(engine.sim_metrics().peak_in_flight, 40);
        assert!(engine.sim_metrics().mean_in_flight(10.0) > 10.0);
    }

    #[test]
    fn run_phase_round_path_is_byte_identical_to_direct_engine_use() {
        // The runner routes every phase through run_phase; on the Rounds
        // model the RNG stream and results must match driving GossipEngine
        // directly, or threading the knob would move every pinned seed.
        let mut direct_rng = StdRng::seed_from_u64(21);
        let mut engine = GossipEngine::new(sum_states(48), ChurnModel::new(0.2));
        engine.run_rounds(&EesSumProtocol, 12, &mut direct_rng);

        let mut phase_rng = StdRng::seed_from_u64(21);
        let (nodes, stats) = run_phase(
            &NetworkModel::Rounds,
            sum_states(48),
            ChurnModel::new(0.2),
            &EesSumProtocol,
            12,
            &mut phase_rng,
            PhaseOpts::default(),
        );
        assert_eq!(direct_rng, phase_rng, "run_phase must consume the exact same draws");
        assert_eq!(&nodes, engine.nodes());
        assert_eq!(&stats.metrics, engine.metrics());
        assert_eq!(stats.sim_time, 0.0);
        assert!(stats.converged);

        // The round arm is as store-generic as the event-driven ones: an
        // arena under a stop predicate matches the engine driven directly.
        use crate::dissemination::{DisseminationProtocol, MinIdArena};
        let arena = MinIdArena::build(48, 2, |node, row| {
            row.fill(node as f64);
            (node as u64 * 0x9E37_79B9) % 101
        });
        let mut engine = GossipEngine::new(arena.clone(), ChurnModel::new(0.2));
        let stopped =
            engine.run_until(&DisseminationProtocol, 12, &mut direct_rng, MinIdArena::converged, None);
        let (arena, stats) = run_phase(
            &NetworkModel::Rounds,
            arena,
            ChurnModel::new(0.2),
            &DisseminationProtocol,
            12,
            &mut phase_rng,
            PhaseOpts { until: Some(&mut MinIdArena::converged), adversary: None },
        );
        assert_eq!(direct_rng, phase_rng, "the arena phase must consume the exact same draws");
        assert_eq!(&arena, engine.nodes());
        assert_eq!(&stats.metrics, engine.metrics());
        assert_eq!(stats.converged, stopped);
        assert_eq!((stats.sim_time, stats.peak_in_flight), (0.0, 0));
    }

    #[test]
    fn run_phase_async_reports_wall_clock_latency() {
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Uniform { min: 0.05, max: 0.3 });
        let mut rng = StdRng::seed_from_u64(31);
        let (nodes, stats) = run_phase(
            &NetworkModel::Async(config),
            sum_states(48),
            ChurnModel::NONE,
            &EesSumProtocol,
            16,
            &mut rng,
            PhaseOpts::default(),
        );
        assert_eq!(stats.sim_time, 16.0);
        assert_eq!(stats.metrics.rounds(), 16);
        assert!(stats.peak_in_flight > 0);
        // Deliveries lag by the sampled latency, so a handful of exchanges
        // are still in flight at the horizon — the error bound is looser
        // than a synchronous run of the same budget.
        let report = convergence_report(&nodes, exact_sum(48));
        assert!(report.max_relative_error < 1e-2, "err {}", report.max_relative_error);
    }

    #[test]
    fn run_phase_until_dispatches_on_both_models() {
        let mut done = |nodes: &Vec<u64>| nodes.iter().all(|&v| v == 63);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, rounds) = run_phase(
            &NetworkModel::Rounds,
            (0..64u64).collect(),
            ChurnModel::NONE,
            &MaxProtocol,
            40,
            &mut rng,
            PhaseOpts { until: Some(&mut done), adversary: None },
        );
        assert!(rounds.converged);
        let mut rng = StdRng::seed_from_u64(5);
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.2, sigma: 0.5 });
        let (_, asynchronous) = run_phase(
            &NetworkModel::Async(config),
            (0..64u64).collect(),
            ChurnModel::NONE,
            &MaxProtocol,
            40,
            &mut rng,
            PhaseOpts { until: Some(&mut done), adversary: None },
        );
        assert!(asynchronous.converged);
        assert!(asynchronous.sim_time > 0.0 && asynchronous.sim_time < 40.0);
    }

    #[test]
    fn heterogeneous_edges_scale_latency_deterministically() {
        // edge_spread stretches per-edge delays; the factor is a pure hash
        // of the edge, so two engines with the same configuration agree.
        let run = |spread: f64| {
            let config =
                AsyncNetworkConfig::default().with_latency(LatencyModel::Constant(0.2)).with_edge_spread(spread);
            let mut rng = StdRng::seed_from_u64(77);
            let mut engine = ShardedAsyncEngine::new(sum_states(32), config, ChurnModel::NONE);
            engine.run_for(&EesSumProtocol, 15.0, &mut rng);
            engine.nodes().to_vec()
        };
        assert_eq!(run(0.9), run(0.9), "same configuration: same simulation");
        assert_ne!(run(0.9), run(0.0), "the spread stretches the slow edges");
    }

    #[test]
    fn both_engines_check_the_stop_rule_once_before_and_once_per_round() {
        // A never-true predicate under a budget of 9: checked once before
        // the first round and once after each, on either engine.
        for network in [NetworkModel::Rounds, NetworkModel::Async(AsyncNetworkConfig::default())] {
            let mut calls = 0u32;
            let mut never = |_: &Vec<u64>| {
                calls += 1;
                false
            };
            let (_, stats) = run_phase(
                &network,
                (0..16u64).collect(),
                ChurnModel::NONE,
                &MaxProtocol,
                9,
                &mut StdRng::seed_from_u64(3),
                PhaseOpts { until: Some(&mut never), adversary: None },
            );
            assert!(!stats.converged);
            assert_eq!(calls, 10, "{network:?}");
        }
    }

    #[test]
    #[should_panic(expected = "checked every exchange period")]
    fn a_check_period_above_one_is_rejected() {
        let _ = AsyncNetworkConfig::default().with_convergence_check_period(2.0);
    }

    #[test]
    fn async_phase_dispatch_matches_direct_engine_use_for_every_shard_count() {
        // run_phase must be byte-identical — states, counters, clock, and
        // the caller's RNG left one draw further — to driving the engine
        // directly with its plain `run_for`, and sim_shards (1 included)
        // must not move a bit of any of it.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 })
            .with_loss(0.05);
        let mut one_draw = StdRng::seed_from_u64(23);
        let _: u64 = one_draw.gen();

        let dispatched = |shards: usize| {
            let config = config.clone().with_sim_shards(shards);
            let mut direct_rng = StdRng::seed_from_u64(23);
            let mut engine =
                ShardedAsyncEngine::new(sum_states(40), config.clone(), ChurnModel::new(0.1));
            engine.run_for(&EesSumProtocol, 10.0, &mut direct_rng);

            let mut phase_rng = StdRng::seed_from_u64(23);
            let (nodes, stats) = run_phase(
                &NetworkModel::Async(config),
                sum_states(40),
                ChurnModel::new(0.1),
                &EesSumProtocol,
                10,
                &mut phase_rng,
                PhaseOpts::default(),
            );
            assert_eq!(phase_rng, one_draw, "an async phase consumes exactly one draw");
            assert_eq!(direct_rng, phase_rng, "dispatch must consume the exact same draws");
            assert_eq!(&nodes, engine.nodes());
            assert_eq!(&stats.metrics, engine.metrics());
            assert_eq!(stats.sim_time, engine.now());
            assert_eq!(stats.peak_in_flight, engine.sim_metrics().peak_in_flight);
            assert!(stats.converged, "a phase without a predicate reports convergence");
            (nodes, stats)
        };
        let one = dispatched(1);
        assert!(one.1.metrics.exchanges() > 0);
        assert_eq!(one, dispatched(2), "dispatch must be shard-count invariant");
        assert_eq!(one, dispatched(4), "dispatch must be shard-count invariant");
    }

    #[test]
    fn run_phase_until_converges_on_the_sharded_engine() {
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.2, sigma: 0.5 })
            .with_sim_shards(3);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, stats) = run_phase(
            &NetworkModel::Async(config),
            (0..64u64).collect(),
            ChurnModel::NONE,
            &MaxProtocol,
            40,
            &mut rng,
            PhaseOpts {
                until: Some(&mut |nodes: &Vec<u64>| nodes.iter().all(|&v| v == 63)),
                adversary: None,
            },
        );
        assert!(stats.converged);
        assert!(stats.sim_time > 0.0 && stats.sim_time < 40.0);
        assert!(stats.metrics.exchanges() > 0);
    }

    #[test]
    fn network_model_default_is_rounds_and_validates() {
        assert_eq!(NetworkModel::default(), NetworkModel::Rounds);
        assert!(!NetworkModel::Rounds.is_async());
        assert_eq!(AsyncNetworkConfig::default().sim_shards, 1, "one worker unless asked");
        let model = NetworkModel::Async(AsyncNetworkConfig::default());
        assert!(model.is_async());
        model.validate();
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_async_config_is_rejected() {
        NetworkModel::Async(AsyncNetworkConfig::default().with_loss(1.0)).validate();
    }
}
