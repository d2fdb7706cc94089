//! Deterministic discrete-event simulation of asynchronous gossip.
//!
//! The paper evaluates Chiaroscuro on PeerSim with asynchronous message
//! delivery (§6.3); the round-based [`GossipEngine`](crate::engine) can
//! only express lockstep rounds, so its latency figures are round counts.
//! This module adds the missing axis: a seeded event-queue engine
//! ([`AsyncGossipEngine`]) that drives the *same*
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
//! `Async` routes every gossip phase through the event queue.
//! [`run_phase`] is the one phase dispatcher: it runs one protocol phase
//! over any node store on whichever of the three engines the model selects,
//! under optional [`PhaseOpts`], and returns the final store with a uniform
//! [`PhaseStats`], which is what the Chiaroscuro iteration driver consumes.
//!
//! Determinism contract: a simulation is a pure function of
//! `(initial states, config, churn, seed)`.  The event heap is totally
//! ordered by `(time, seq)`, all randomness flows through the caller's
//! seeded RNG in event order, and per-edge heterogeneity is a pure hash —
//! asserted by the reproducibility tests here and in the scenario matrix.

pub mod adversary;
pub mod arena;
pub mod engine;
pub mod latency;
pub mod metrics;
pub mod queue;
pub mod schedule;
pub mod shard;

pub use adversary::{AdversaryModel, AdversaryState, ExchangeFate, FaultCounters, FaultStats};
pub use arena::EesUnitArena;
pub use engine::{AsyncGossipEngine, AsyncNetworkConfig};
pub use latency::LatencyModel;
pub use metrics::{ConvergenceTimes, SimMetrics};
pub use queue::EventQueue;
pub use schedule::{CrashSchedule, CrashWindow};
pub use shard::ShardedAsyncEngine;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::churn::ChurnModel;
use crate::engine::{GossipEngine, ParallelProtocolStore};
use crate::metrics::ExchangeMetrics;

/// How gossip phases are simulated: the synchronous round engine (the
/// PeerSim cycle-driven idealisation) or the event-driven asynchronous
/// engine (message-level delivery).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum NetworkModel {
    /// Lockstep rounds ([`GossipEngine`]); the default.  Selecting it
    /// consumes exactly the same RNG draws as driving the round engine
    /// directly, so this knob never moves a round-based schedule.
    #[default]
    Rounds,
    /// Event-driven asynchronous delivery ([`AsyncGossipEngine`]) with the
    /// given network characteristics.  One round of budget corresponds to
    /// one [`AsyncNetworkConfig::exchange_period`] of simulated time.
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

/// The accounting of one gossip phase, whichever engine ran it over
/// whichever store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Round/exchange accounting (async engines record one round per
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
    /// budget; [`PhaseStats::converged`] reports whether it did.  The round
    /// engine evaluates it before every round, the serial async engine after
    /// every exchange, the sharded engine at window barriers (see
    /// [`ShardedAsyncEngine::run_until`]).
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

/// Runs one protocol phase over **any** node store on whichever engine
/// `network` selects, and returns the final store with the phase's
/// accounting.  This is the single home of the phase recipe — engine
/// selection, horizon arithmetic, clock read-out, metrics extraction — so no
/// two storages can drift out of RNG-draw or accounting lockstep.
///
/// [`NetworkModel::Rounds`] runs at most `budget_rounds` rounds of the
/// [`GossipEngine`]; [`NetworkModel::Async`] runs
/// `budget_rounds × exchange_period` of simulated time at most, on the
/// serial [`AsyncGossipEngine`] (and its historical, pinned event schedule)
/// when [`AsyncNetworkConfig::sim_shards`] is `1` (the default) and on the
/// sharded multi-worker [`ShardedAsyncEngine`] otherwise.
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
    S: ParallelProtocolStore<P>,
    P: Sync,
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
            let horizon = f64::from(budget_rounds) * config.exchange_period;
            let (stopped, sim_time, (nodes, metrics, sim)) = if config.sim_shards == 1 {
                let mut engine = AsyncGossipEngine::new(nodes, config.clone(), churn);
                let stopped = engine.run_until(protocol, horizon, rng, done, adversary);
                (stopped, engine.now(), engine.into_parts())
            } else {
                let mut engine = ShardedAsyncEngine::new(nodes, config.clone(), churn);
                let stopped = engine.run_until(protocol, horizon, rng, done, adversary);
                (stopped, engine.now(), engine.into_parts())
            };
            (stopped, sim_time, nodes, metrics, sim.peak_in_flight)
        }
    };
    (nodes, PhaseStats { metrics, converged: unbounded || stopped, sim_time, peak_in_flight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PairwiseProtocol;
    use crate::sum::{convergence_report, initial_states, PushPullSum, SumState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A toy protocol: both peers keep the max of their values.
    struct MaxProtocol;

    impl PairwiseProtocol<u64> for MaxProtocol {
        fn exchange(&self, a: &mut u64, b: &mut u64) {
            let m = (*a).max(*b);
            *a = m;
            *b = m;
        }
    }

    fn sum_states(population: usize) -> Vec<SumState> {
        let values: Vec<f64> = (0..population).map(|i| (i % 13) as f64).collect();
        initial_states(&values)
    }

    fn exact_sum(population: usize) -> f64 {
        (0..population).map(|i| (i % 13) as f64).sum()
    }

    #[test]
    fn zero_latency_synchronized_async_matches_round_engine_quality() {
        // The engine-equivalence satellite: with zero latency and
        // synchronized (per-round barrier) initiations, the async engine
        // reproduces the round engine's structure — every node initiates
        // once per period, all deliveries apply before the next period —
        // so convergence quality and exchange counts must match.
        let population = 512;
        let rounds = 30u32;
        let mut round_rng = StdRng::seed_from_u64(41);
        let mut round_engine = GossipEngine::new(sum_states(population), ChurnModel::NONE);
        round_engine.run_rounds(&PushPullSum, rounds, &mut round_rng);
        let round_report = convergence_report(round_engine.nodes(), exact_sum(population));

        let mut async_rng = StdRng::seed_from_u64(41);
        let config = AsyncNetworkConfig::default().with_synchronized_start(true);
        let mut async_engine = AsyncGossipEngine::new(sum_states(population), config, ChurnModel::NONE);
        async_engine.run_for(&PushPullSum, f64::from(rounds), &mut async_rng);
        let async_report = convergence_report(async_engine.nodes(), exact_sum(population));

        assert_eq!(
            async_engine.metrics().exchanges(),
            round_engine.metrics().exchanges(),
            "one initiation per node per period, none lost"
        );
        assert_eq!(async_engine.metrics().rounds(), rounds);
        assert_eq!(round_report.without_estimate, 0.0);
        assert_eq!(async_report.without_estimate, 0.0);
        assert!(round_report.max_relative_error < 1e-5, "round err {}", round_report.max_relative_error);
        assert!(async_report.max_relative_error < 1e-5, "async err {}", async_report.max_relative_error);
    }

    #[test]
    fn async_runs_are_bit_reproducible_from_the_same_seed() {
        // Full-feature config: log-normal latency, loss, heterogeneous
        // edges, staggered start, crash/rejoin.  Two runs from the same
        // seed must agree on every state bit and every counter.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.4, sigma: 0.6 })
            .with_loss(0.1)
            .with_edge_spread(0.5)
            .with_crash(CrashSchedule::new(vec![
                CrashWindow { node: 3, crash_at: 2.0, rejoin_at: 9.0 },
                CrashWindow { node: 11, crash_at: 0.5, rejoin_at: f64::INFINITY },
            ]));
        let run = || {
            let mut rng = StdRng::seed_from_u64(1234);
            let mut engine =
                AsyncGossipEngine::new(sum_states(64), config.clone(), ChurnModel::new(0.2));
            engine.run_for(&PushPullSum, 25.0, &mut rng);
            (engine.nodes().to_vec(), *engine.metrics(), *engine.sim_metrics())
        };
        let (nodes_a, metrics_a, sim_a) = run();
        let (nodes_b, metrics_b, sim_b) = run();
        assert_eq!(nodes_a, nodes_b, "same seed must reproduce identical states");
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(sim_a, sim_b);
        assert!(metrics_a.exchanges() > 0, "the lossy churny run must still exchange");

        let mut other = StdRng::seed_from_u64(1235);
        let mut engine = AsyncGossipEngine::new(sum_states(64), config, ChurnModel::new(0.2));
        engine.run_for(&PushPullSum, 25.0, &mut other);
        assert_ne!(engine.nodes(), &nodes_a[..], "a different seed must diverge");
    }

    #[test]
    fn message_loss_voids_the_expected_fraction_of_exchanges() {
        // Request and reply each survive with probability 1 − p, so the
        // completed-exchange rate is (1 − p)² of initiations.
        let loss = 0.3f64;
        let config = AsyncNetworkConfig::default().with_loss(loss);
        let mut rng = StdRng::seed_from_u64(7);
        let mut engine = AsyncGossipEngine::new(vec![0u64; 200], config, ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 50.0, &mut rng);
        let initiations = 200.0 * 50.0;
        let expected = initiations * (1.0 - loss) * (1.0 - loss);
        let observed = engine.metrics().exchanges() as f64;
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "observed {observed} exchanges vs expected {expected}"
        );
        let sim = engine.sim_metrics();
        assert!(sim.messages_lost > 0);
        assert!(sim.messages_sent > sim.messages_lost);
    }

    #[test]
    fn crashed_nodes_are_silent_until_rejoin_then_catch_up() {
        // Node 5 is down for [0, 20): its state must be untouched while the
        // rest converges, then catch up after rejoining.
        let population = 32;
        let config = AsyncNetworkConfig::default()
            .with_crash(CrashSchedule::new(vec![CrashWindow {
                node: 5,
                crash_at: 0.0,
                rejoin_at: 20.0,
            }]));
        let nodes: Vec<u64> = (0..population as u64).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = AsyncGossipEngine::new(nodes, config, ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 19.5, &mut rng);
        assert!(!engine.is_online(5));
        assert_eq!(engine.nodes()[5], 5, "a crashed node's state must not move");
        assert!(
            engine.nodes().iter().enumerate().filter(|&(i, _)| i != 5).all(|(_, &v)| v == 31),
            "the rest of the population converges around the crash"
        );
        engine.run_for(&MaxProtocol, 10.0, &mut rng);
        assert!(engine.is_online(5));
        assert_eq!(engine.nodes()[5], 31, "the rejoined node must catch up");
    }

    #[test]
    fn in_flight_peak_reflects_synchronized_bursts() {
        // Synchronized start + constant latency of half a period: all N
        // requests of a period are in flight at once.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(0.5))
            .with_synchronized_start(true);
        let mut rng = StdRng::seed_from_u64(9);
        let mut engine = AsyncGossipEngine::new(vec![0u64; 40], config, ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 10.0, &mut rng);
        assert_eq!(engine.sim_metrics().peak_in_flight, 40);
        assert!(engine.sim_metrics().mean_in_flight(10.0) > 10.0);
    }

    #[test]
    fn run_until_stops_at_the_first_satisfying_exchange() {
        let config = AsyncNetworkConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        let nodes: Vec<u64> = (0..100).collect();
        let mut engine = AsyncGossipEngine::new(nodes, config, ChurnModel::NONE);
        let done = engine
            .run_until(&MaxProtocol, 50.0, &mut rng, |nodes| nodes.iter().all(|&v| v == 99), None);
        assert!(done, "the max must spread within 50 periods");
        assert!(engine.now() < 20.0, "epidemic spreading is logarithmic, stop early");
    }

    #[test]
    fn run_phase_round_path_is_byte_identical_to_direct_engine_use() {
        // The runner routes every phase through run_phase; on the Rounds
        // model the RNG stream and results must match driving GossipEngine
        // directly, or threading the knob would move every pinned seed.
        let mut direct_rng = StdRng::seed_from_u64(21);
        let mut engine = GossipEngine::new(sum_states(48), ChurnModel::new(0.2));
        engine.run_rounds(&PushPullSum, 12, &mut direct_rng);

        let mut phase_rng = StdRng::seed_from_u64(21);
        let (nodes, stats) = run_phase(
            &NetworkModel::Rounds,
            sum_states(48),
            ChurnModel::new(0.2),
            &PushPullSum,
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
            &PushPullSum,
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
        // edge_spread stretches per-edge delays; the factor is a pure hash,
        // so two engines with the same salt agree and a different salt
        // reshuffles which edges are slow without touching the RNG stream.
        let base = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(0.2))
            .with_edge_spread(0.9);
        let run = |salt: u64| {
            let mut config = base.clone();
            config.edge_salt = salt;
            let mut rng = StdRng::seed_from_u64(77);
            let mut engine = AsyncGossipEngine::new(sum_states(32), config, ChurnModel::NONE);
            engine.run_for(&PushPullSum, 15.0, &mut rng);
            engine.nodes().to_vec()
        };
        assert_eq!(run(1), run(1), "same salt: same simulation");
        assert_ne!(run(1), run(2), "a different salt re-draws the slow edges");
    }

    #[test]
    fn async_exchange_counter_growth_stays_within_the_packing_budget() {
        // The lane-packed overflow contract sizes lanes for a doubling
        // allowance of 8·budget + 32 (see the core runner).  That law was
        // pinned for the round engine; large-scale surrogate runs drive
        // EESum through the *event-driven* engine, so the same bound must
        // hold under asynchronous delivery cascades (staggered starts and
        // log-normal latencies included) or packed decodes would trip
        // their guard at scale.
        use crate::eesum::{initial_states as ees_states, EesSumProtocol, PlainVector};
        for &population in &[64usize, 1_000] {
            for &periods in &[8u32, 24] {
                for latency in [LatencyModel::ZERO, LatencyModel::LogNormal { median: 0.3, sigma: 0.5 }] {
                    let config = AsyncNetworkConfig::default().with_latency(latency);
                    let mut rng = StdRng::seed_from_u64(5);
                    let states =
                        ees_states((0..population).map(|i| PlainVector(vec![i as f64])).collect());
                    let mut engine = AsyncGossipEngine::new(states, config, ChurnModel::NONE);
                    engine.run_for(&EesSumProtocol, f64::from(periods), &mut rng);
                    let max_n = engine.nodes().iter().map(|n| n.exchanges).max().unwrap();
                    assert!(
                        max_n <= 8 * periods + 32,
                        "pop {population}, {periods} periods: async max exchange counter \
                         {max_n} breaches the packing doubling budget"
                    );
                }
            }
        }
    }

    #[test]
    fn convergence_check_period_only_moves_the_stop_time() {
        // Throttling the run_until predicate consumes no RNG draws, so with
        // an unsatisfiable predicate (both runs exhaust the horizon) the
        // final states must be bit-identical whatever the period.
        let run = |period: f64| {
            let config = AsyncNetworkConfig::default()
                .with_latency(LatencyModel::Uniform { min: 0.05, max: 0.4 })
                .with_convergence_check_period(period);
            let mut rng = StdRng::seed_from_u64(13);
            let mut engine = AsyncGossipEngine::new(sum_states(48), config, ChurnModel::NONE);
            let done = engine.run_until(&PushPullSum, 12.0, &mut rng, |_: &Vec<SumState>| false, None);
            assert!(!done);
            (engine.nodes().clone(), *engine.metrics())
        };
        assert_eq!(run(0.0), run(3.0), "the knob must not move the event schedule");

        // With a satisfiable predicate the throttled run still detects
        // convergence (at a check boundary or the horizon).
        let config = AsyncNetworkConfig::default().with_convergence_check_period(2.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut engine = AsyncGossipEngine::new((0..64u64).collect::<Vec<_>>(), config, ChurnModel::NONE);
        let done = engine.run_until(
            &MaxProtocol,
            50.0,
            &mut rng,
            |nodes: &Vec<u64>| nodes.iter().all(|&v| v == 63),
            None,
        );
        assert!(done, "the max must still be detected with throttled checks");
        assert!(engine.now() < 50.0, "convergence detected before the horizon");
    }

    #[test]
    fn async_phase_dispatch_pins_the_serial_default_and_routes_shards() {
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 })
            .with_loss(0.05);

        // sim_shards = 1 (the default) must be byte-identical — states,
        // counters, RNG stream — to driving the serial engine directly, so
        // threading the knob can never move a pinned scenario seed.
        let mut direct_rng = StdRng::seed_from_u64(23);
        let mut engine =
            AsyncGossipEngine::new(sum_states(40), config.clone(), ChurnModel::new(0.1));
        engine.run_for(&PushPullSum, 10.0, &mut direct_rng);

        let mut phase_rng = StdRng::seed_from_u64(23);
        let (nodes, stats) = run_phase(
            &NetworkModel::Async(config.clone()),
            sum_states(40),
            ChurnModel::new(0.1),
            &PushPullSum,
            10,
            &mut phase_rng,
            PhaseOpts::default(),
        );
        assert_eq!(direct_rng, phase_rng, "dispatch must consume the exact same draws");
        assert_eq!(&nodes, engine.nodes());
        assert_eq!(&stats.metrics, engine.metrics());
        assert_eq!(stats.sim_time, engine.now());
        assert_eq!(stats.peak_in_flight, engine.sim_metrics().peak_in_flight);
        assert!(stats.converged, "a phase without a predicate reports convergence");

        // Any other value routes through the sharded engine — again
        // byte-identical to driving it directly with its plain `run_for`.
        let sharded = |shards: usize| {
            let mut rng = StdRng::seed_from_u64(23);
            let outcome = run_phase(
                &NetworkModel::Async(config.clone().with_sim_shards(shards)),
                sum_states(40),
                ChurnModel::new(0.1),
                &PushPullSum,
                10,
                &mut rng,
                PhaseOpts::default(),
            );
            (outcome, rng)
        };
        let ((nodes_2, two), rng_2) = sharded(2);
        let mut direct_rng = StdRng::seed_from_u64(23);
        let mut engine = ShardedAsyncEngine::new(
            sum_states(40),
            config.clone().with_sim_shards(2),
            ChurnModel::new(0.1),
        );
        engine.run_for(&PushPullSum, 10.0, &mut direct_rng);
        assert_eq!(direct_rng, rng_2, "sharded dispatch must consume the exact same draws");
        assert_eq!(&nodes_2, engine.nodes());
        assert_eq!(&two.metrics, engine.metrics());
        assert_eq!(two.sim_time, engine.now());
        assert_eq!(two.peak_in_flight, engine.sim_metrics().peak_in_flight);

        // ... and its results are bit-invariant in the shard count.
        let ((nodes_4, four), rng_4) = sharded(4);
        assert_eq!(rng_2, rng_4);
        assert_eq!(nodes_2, nodes_4, "sharded dispatch must be shard-count invariant");
        assert_eq!(two, four);
        assert!(two.metrics.exchanges() > 0);
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
