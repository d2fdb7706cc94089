//! The event-driven asynchronous gossip engine.
//!
//! Where [`GossipEngine`](crate::engine::GossipEngine) advances the whole
//! population in lockstep rounds, this engine advances a simulated clock
//! through a deterministic event queue: every node *initiates* one exchange
//! per [`AsyncNetworkConfig::exchange_period`], the request travels for a
//! sampled per-edge latency, may be lost, and the push-pull exchange is
//! applied **atomically at delivery time** against both peers' then-current
//! states.  The same [`PairwiseProtocol`] implementations run unchanged.
//!
//! # Fidelity notes
//!
//! * An initiator cannot know who is online, so it addresses *any* other
//!   node uniformly; requests to offline nodes are lost in transit.  (The
//!   round engine's omniscient online-set sampling is the synchronous
//!   idealisation of the same overlay.)
//! * A push-pull exchange is two messages.  Because [`PairwiseProtocol`] is
//!   atomic, a lost *reply* voids the whole exchange rather than leaving it
//!   half-applied; the request still counts as sent and the asymmetry is
//!   visible in [`SimMetrics`].
//! * [`ExchangeMetrics::messages`](crate::metrics::ExchangeMetrics::messages)
//!   keeps its round-engine meaning (two per *completed* exchange);
//!   [`SimMetrics`] additionally counts real traffic including losses.
//!
//! # Determinism
//!
//! The event heap is keyed by `(time, seq)` ([`EventQueue`]), every random
//! choice draws from the caller's seeded RNG in event order, and the
//! per-edge latency spread is a pure hash of `(edge, salt)` — so a run is a
//! pure function of `(initial states, config, churn, seed)`.  The
//! equivalence tests assert bit-reproducibility.

use rand::Rng;

use crate::churn::ChurnModel;
use crate::engine::{PairwiseProtocol, ProtocolStore, StateStore};
use crate::metrics::ExchangeMetrics;
use crate::sim::adversary::{classify_exchange, AdversaryState, ExchangeFate};
use crate::sim::latency::LatencyModel;
use crate::sim::metrics::{ConvergenceTimes, SimMetrics};
use crate::sim::queue::EventQueue;
use crate::sim::schedule::CrashSchedule;

use serde::{Deserialize, Serialize};

/// Configuration of the simulated network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncNetworkConfig {
    /// Per-message delay distribution.
    pub latency: LatencyModel,
    /// Probability that any single message (request or reply) is lost.
    pub loss_probability: f64,
    /// Time between two initiations of the same node (the asynchronous
    /// analogue of one gossip round; `1.0` keeps horizons comparable to
    /// round counts).
    pub exchange_period: f64,
    /// Heterogeneous-delay spread: edge `(i, j)` scales every latency
    /// sample by a deterministic factor in `[1 − spread, 1 + spread]`
    /// derived from a hash of the pair.  `0.0` = homogeneous network.
    pub edge_spread: f64,
    /// Salt of the per-edge factor hash (lets two runs disagree about which
    /// edges are slow without touching the RNG stream).
    pub edge_salt: u64,
    /// When `true`, every node's first initiation fires at time 0 (and the
    /// run consumes no start-jitter draws) — with zero latency this
    /// reproduces the synchronous round structure.  When `false` (default),
    /// first initiations are uniformly staggered across one period, as
    /// unsynchronised real devices would be.
    pub synchronized_start: bool,
    /// Correlated downtime windows (crash/rejoin events).
    pub crash: CrashSchedule,
    /// How often `run_until` evaluates its convergence predicate, in
    /// simulated time: `0.0` (the default, and the historical behaviour)
    /// checks after **every** applied exchange; a positive period checks at
    /// most once per that much simulated time.  Whole-population predicates
    /// are `O(population)` per evaluation, so per-exchange checking is
    /// `O(population²)` per period — prohibitive at 100k+ nodes.  Throttling
    /// consumes no RNG draws (the predicate is deterministic), so it only
    /// moves the stopping time, never the event schedule.
    pub convergence_check_period: f64,
    /// How many shards (and worker threads) the simulator uses.  `1` (the
    /// default) runs the serial [`AsyncGossipEngine`] — the historical,
    /// pinned event schedule.  Any other value routes the phase through the
    /// sharded engine ([`ShardedAsyncEngine`](crate::sim::shard::ShardedAsyncEngine)):
    /// `0` selects the machine's available parallelism, `n >= 2` uses
    /// exactly `n` shards/workers.  The sharded engine draws its schedule
    /// from per-event derived RNG streams, so its trajectory is a different
    /// (equally valid) sample than the serial engine's — but it is bit-wise
    /// invariant in both the shard count and the worker count (see
    /// `sim::shard` module docs for the determinism contract).
    pub sim_shards: usize,
}

impl Default for AsyncNetworkConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::ZERO,
            loss_probability: 0.0,
            exchange_period: 1.0,
            edge_spread: 0.0,
            edge_salt: 0x1A7E_ECED,
            synchronized_start: false,
            crash: CrashSchedule::NONE,
            convergence_check_period: 0.0,
            sim_shards: 1,
        }
    }
}

impl AsyncNetworkConfig {
    /// Checks the configuration is usable.
    ///
    /// # Panics
    /// Panics on an invalid latency model, a loss probability outside
    /// `[0, 1)`, a non-positive exchange period, or an edge spread outside
    /// `[0, 1)`.
    pub fn validate(&self) {
        self.latency.validate();
        assert!(
            (0.0..1.0).contains(&self.loss_probability),
            "loss probability must be in [0, 1), got {}",
            self.loss_probability
        );
        assert!(
            self.exchange_period.is_finite() && self.exchange_period > 0.0,
            "exchange period must be finite and > 0, got {}",
            self.exchange_period
        );
        assert!(
            (0.0..1.0).contains(&self.edge_spread),
            "edge spread must be in [0, 1), got {}",
            self.edge_spread
        );
        assert!(
            self.convergence_check_period.is_finite() && self.convergence_check_period >= 0.0,
            "convergence check period must be finite and >= 0, got {}",
            self.convergence_check_period
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

    /// Replaces the convergence-predicate check period (see
    /// [`AsyncNetworkConfig::convergence_check_period`]).
    pub fn with_convergence_check_period(mut self, period: f64) -> Self {
        self.convergence_check_period = period;
        self
    }

    /// Replaces the shard/worker count (see
    /// [`AsyncNetworkConfig::sim_shards`]).
    pub fn with_sim_shards(mut self, sim_shards: usize) -> Self {
        self.sim_shards = sim_shards;
        self
    }
}

/// The events the engine schedules.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A node fires its periodic initiation.
    Initiate { node: usize },
    /// The request of `initiator` reaches `contact`; the push-pull exchange
    /// applies here if both endpoints are up and the reply survives.
    Deliver { initiator: usize, contact: usize },
    /// A scheduled crash takes `node` offline.
    Crash { node: usize },
    /// A scheduled rejoin brings `node` back online (with whatever state it
    /// had when it crashed).
    Rejoin { node: usize },
}

/// The deterministic event-driven engine driving one [`PairwiseProtocol`]
/// over a population of nodes.
///
/// The per-node state storage is pluggable ([`StateStore`] /
/// [`ProtocolStore`]): the natural `Vec<N>` array-of-structs layout, or a
/// struct-of-arrays arena such as
/// [`EesUnitArena`](crate::sim::arena::EesUnitArena) whose flat allocations
/// let 100k–10M-node populations stream through the event queue.  The event
/// loop is storage-agnostic and consumes identical RNG draws either way.
#[derive(Debug, Clone)]
pub struct AsyncGossipEngine<S> {
    nodes: S,
    online: Vec<bool>,
    config: AsyncNetworkConfig,
    churn: ChurnModel,
    queue: EventQueue<EventKind>,
    metrics: ExchangeMetrics,
    sim: SimMetrics,
    /// The simulated clock (the time of the last processed event, then the
    /// run horizon once a run call finishes).
    now: f64,
    /// The horizon up to which the simulation has been driven.
    horizon: f64,
    /// Whole exchange periods already recorded as rounds in `metrics`.
    periods_recorded: u64,
    started: bool,
}

impl<S: StateStore> AsyncGossipEngine<S> {
    /// Creates an engine over the given per-node state storage (a `Vec` of
    /// states, or an arena).
    ///
    /// # Panics
    /// Panics if fewer than two nodes are provided, the configuration is
    /// invalid, or a crash window names a node outside the population.
    pub fn new(nodes: S, config: AsyncNetworkConfig, churn: ChurnModel) -> Self {
        assert!(nodes.population() >= 2, "gossip needs at least two participants");
        config.validate();
        let population = nodes.population();
        let mut queue = EventQueue::new();
        for window in config.crash.windows() {
            assert!(window.node < population, "crash window names node {} of {population}", window.node);
            queue.push(window.crash_at, EventKind::Crash { node: window.node });
            if window.rejoin_at.is_finite() {
                queue.push(window.rejoin_at, EventKind::Rejoin { node: window.node });
            }
        }
        Self {
            online: vec![true; population],
            nodes,
            config,
            churn,
            queue,
            metrics: ExchangeMetrics::default(),
            sim: SimMetrics::default(),
            now: 0.0,
            horizon: 0.0,
            periods_recorded: 0,
            started: false,
        }
    }

    /// The population size.
    pub fn population(&self) -> usize {
        self.nodes.population()
    }

    /// Immutable access to the node-state storage (a slice-like `Vec` for
    /// per-node states, the arena itself for arena storage).
    pub fn nodes(&self) -> &S {
        &self.nodes
    }


    /// Round/exchange accounting, comparable with the round engine's (one
    /// round is recorded per completed exchange period).
    pub fn metrics(&self) -> &ExchangeMetrics {
        &self.metrics
    }

    /// Message-level traffic accounting (losses, in-flight load).
    pub fn sim_metrics(&self) -> &SimMetrics {
        &self.sim
    }

    /// The simulated clock (the horizon reached by the last run call).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether `node` is currently up according to the crash schedule.
    pub fn is_online(&self, node: usize) -> bool {
        self.online[node]
    }

    /// Consumes the engine, returning the node states and the accounting.
    pub fn into_parts(self) -> (S, ExchangeMetrics, SimMetrics) {
        (self.nodes, self.metrics, self.sim)
    }

    /// The deterministic per-edge latency factor (pure hash of the pair).
    fn edge_factor(&self, a: usize, b: usize) -> f64 {
        edge_factor(self.config.edge_spread, self.config.edge_salt, a, b)
    }

    /// Schedules every node's first initiation (staggered or synchronized).
    fn ensure_started<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.started {
            return;
        }
        self.started = true;
        let period = self.config.exchange_period;
        for node in 0..self.nodes.population() {
            let phase =
                if self.config.synchronized_start { 0.0 } else { rng.gen::<f64>() * period };
            self.queue.push(phase, EventKind::Initiate { node });
        }
    }

    /// Records one round per exchange period fully elapsed by `time`.
    fn record_periods_up_to(&mut self, time: f64) {
        record_rounds_up_to(
            &mut self.metrics,
            &mut self.periods_recorded,
            self.config.exchange_period,
            time,
        );
    }
}

/// The deterministic per-edge latency factor: a pure SplitMix64 hash of
/// `(edge, salt)` mapped into `[1 − spread, 1 + spread]`.  Shared by the
/// serial and sharded engines so both see the same heterogeneous network.
pub(crate) fn edge_factor(spread: f64, salt: u64, a: usize, b: usize) -> f64 {
    if spread == 0.0 {
        return 1.0;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    // SplitMix64 finalizer over (edge, salt).
    let mut x = ((lo as u64) << 32 | hi as u64).wrapping_add(salt);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 - spread + 2.0 * spread * unit
}

/// Records one round per exchange period boundary fully elapsed by `time`,
/// shared by the serial and sharded engines.
///
/// The boundary test needs slack because `time` reaches a boundary through
/// accumulated additions (horizon + duration, event times) while the
/// boundary itself is computed as `k * period` — the two can disagree by
/// rounding noise.  An absolute `1e-9` covers that at small times, but at
/// the simulated times a 10M-node run reaches (≥ 1e7) a single f64 ULP
/// already exceeds `1e-9`, so the slack is additionally scaled to a few
/// ULPs of the boundary's own magnitude.
pub(crate) fn record_rounds_up_to(
    metrics: &mut ExchangeMetrics,
    periods_recorded: &mut u64,
    period: f64,
    time: f64,
) {
    loop {
        let boundary = (*periods_recorded + 1) as f64 * period;
        let slack = 1e-9_f64.max(boundary * 4.0 * f64::EPSILON);
        if boundary <= time + slack {
            metrics.record_round();
            *periods_recorded += 1;
        } else {
            break;
        }
    }
}

impl<S: StateStore> AsyncGossipEngine<S> {
    /// The event loop: processes events up to `target`; `on_exchange` sees
    /// the population after every applied exchange (with the two touched
    /// indices and the exchange time) and returns `true` to stop early.
    /// Returns `true` if stopped early.
    ///
    /// An adversary, when present, classifies each exchange that survived
    /// the delivery checks — in delivery order, from its own dedicated
    /// sub-stream — and voided exchanges skip the apply (the engine's RNG
    /// stream is untouched either way).
    fn drive<P, R, F>(
        &mut self,
        protocol: &P,
        target: f64,
        rng: &mut R,
        mut adversary: Option<&mut AdversaryState>,
        mut on_exchange: F,
    ) -> bool
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
        F: FnMut(&S, usize, usize, f64) -> bool,
    {
        self.ensure_started(rng);
        let population = self.nodes.population();
        let loss = self.config.loss_probability;
        // The horizon is half-open: events at exactly `target` belong to
        // the next run call (so a budget of R periods fires exactly R
        // initiations per node, matching R rounds of the round engine).
        while let Some(time) = self.queue.peek_time() {
            if time >= target {
                break;
            }
            let (time, kind) = self.queue.pop().expect("peeked event must pop");
            self.now = time;
            match kind {
                EventKind::Crash { node } => self.online[node] = false,
                EventKind::Rejoin { node } => self.online[node] = true,
                EventKind::Initiate { node } => {
                    // The next tick fires regardless — a crashed node's
                    // clock keeps running, it just stays silent.
                    self.queue.push(time + self.config.exchange_period, EventKind::Initiate { node });
                    if !self.online[node] || !self.churn.is_online(rng) {
                        continue;
                    }
                    // Uniform contact over everyone but the initiator (the
                    // initiator cannot observe who is up).
                    let draw = rng.gen_range(0..population - 1);
                    let contact = if draw >= node { draw + 1 } else { draw };
                    self.sim.record_sent();
                    if loss > 0.0 && rng.gen_bool(loss) {
                        self.sim.record_lost();
                        continue;
                    }
                    let delay = self.config.latency.sample(rng) * self.edge_factor(node, contact);
                    self.sim.depart(time);
                    self.queue.push(time + delay, EventKind::Deliver { initiator: node, contact });
                }
                EventKind::Deliver { initiator, contact } => {
                    self.sim.arrive(time);
                    // The contact must be up (schedule) and connected
                    // (churn) to process the request at all.
                    if !self.online[contact] || !self.churn.is_online(rng) {
                        self.sim.record_lost();
                        continue;
                    }
                    // The reply: lost if the initiator crashed while the
                    // request was in flight, or to the loss model.  Either
                    // way the atomic exchange is voided (see module docs).
                    self.sim.record_sent();
                    if !self.online[initiator] || (loss > 0.0 && rng.gen_bool(loss)) {
                        self.sim.record_lost();
                        continue;
                    }
                    if classify_exchange(&mut adversary, initiator, contact) == ExchangeFate::Void
                    {
                        continue;
                    }
                    self.nodes.apply_exchange(protocol, initiator, contact);
                    self.metrics.record_exchange();
                    if on_exchange(&self.nodes, initiator, contact, time) {
                        // Mirror the normal exit: the in-flight integral and
                        // the round accounting are both brought up to the
                        // stop time before control returns to the caller.
                        self.sim.advance(time);
                        self.record_periods_up_to(time);
                        self.horizon = time;
                        return true;
                    }
                }
            }
        }
        self.now = target;
        self.horizon = target;
        self.sim.advance(target);
        self.record_periods_up_to(target);
        false
    }

    /// Advances the simulation by `duration` time units.
    pub fn run_for<P, R>(&mut self, protocol: &P, duration: f64, rng: &mut R)
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
    {
        assert!(duration >= 0.0 && duration.is_finite());
        let target = self.horizon + duration;
        self.drive(protocol, target, rng, None, |_, _, _, _| false);
    }

    /// Advances the simulation until `done` holds over the node states or
    /// `duration` time units have elapsed; returns whether the predicate
    /// was satisfied.  It is checked up front, after the horizon, and after
    /// every exchange — or at most once per
    /// [`AsyncNetworkConfig::convergence_check_period`] of simulated time
    /// when that knob is positive (whole-population predicates are
    /// `O(population)` per call, so per-exchange checking does not scale).
    /// Under an adversary (see [`crate::sim::adversary`]) a seeded subset of
    /// the delivered exchanges is voided; `None` applies every one.
    pub fn run_until<P, R, F>(
        &mut self,
        protocol: &P,
        duration: f64,
        rng: &mut R,
        mut done: F,
        adversary: Option<&mut AdversaryState>,
    ) -> bool
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
        F: FnMut(&S) -> bool,
    {
        assert!(duration >= 0.0 && duration.is_finite());
        if done(&self.nodes) {
            return true;
        }
        let target = self.horizon + duration;
        let period = self.config.convergence_check_period;
        let mut next_check = self.horizon + period;
        let stopped = self.drive(protocol, target, rng, adversary, |nodes, _, _, time| {
            if period > 0.0 {
                if time < next_check {
                    return false;
                }
                next_check = time + period;
            }
            done(nodes)
        });
        if stopped {
            return true;
        }
        done(&self.nodes)
    }
}

impl<N> AsyncGossipEngine<Vec<N>> {
    /// Advances the simulation by `duration` while tracking, per node, the
    /// start of its final stretch of satisfying `node_done` — the wall-clock
    /// convergence times behind the latency percentiles (§6.3).
    pub fn run_tracked<P, R, F>(
        &mut self,
        protocol: &P,
        duration: f64,
        rng: &mut R,
        node_done: F,
    ) -> ConvergenceTimes
    where
        P: PairwiseProtocol<N>,
        R: Rng + ?Sized,
        F: Fn(&N) -> bool,
    {
        assert!(duration >= 0.0 && duration.is_finite());
        let mut tracker = ConvergenceTimes::new(self.nodes.len());
        let start = self.horizon;
        for (i, node) in self.nodes.iter().enumerate() {
            tracker.observe(i, start, node_done(node));
        }
        let target = start + duration;
        self.drive(protocol, target, rng, None, |nodes, initiator, contact, time| {
            tracker.observe(initiator, time, node_done(&nodes[initiator]));
            tracker.observe(contact, time, node_done(&nodes[contact]));
            false
        });
        tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn early_stop_advances_the_in_flight_integral_to_the_stop_time() {
        // Two nodes, synchronized start, constant latency 0.5: both requests
        // depart at t = 0 (two messages in flight), and the first delivery at
        // t = 0.5 converges the pair, stopping the run early.  The in-flight
        // integral must cover the full [0, 0.5) stretch at stop time, so the
        // mean over the stopped horizon is exactly 2 messages.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(0.5))
            .with_synchronized_start(true);
        let mut engine = AsyncGossipEngine::new(vec![1u64, 7u64], config, ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(5);
        let converged = engine.run_until(
            &MaxProtocol,
            10.0,
            &mut rng,
            |nodes: &Vec<u64>| nodes.iter().all(|&v| v == 7),
            None,
        );
        assert!(converged, "the pair must converge at the first delivery");
        assert!((engine.now() - 0.5).abs() < 1e-12, "stop time {}", engine.now());
        let mean = engine.sim_metrics().mean_in_flight(engine.now());
        assert!((mean - 2.0).abs() < 1e-12, "mean in-flight {mean} (integral not advanced to the stop time)");
        assert_eq!(engine.sim_metrics().peak_in_flight, 2);
    }

    #[test]
    fn round_accounting_stays_exact_at_large_sim_times() {
        // At sim times >= 1e7 one f64 ULP exceeds the historical absolute
        // 1e-9 slack: with period 2.5e7/11 the 11th boundary (11 * period)
        // rounds ~3.7e-9 ABOVE the exactly-representable horizon 2.5e7, so
        // an absolute slack miscounts the final boundary round.  The
        // ULP-scaled slack must record all 11.
        let period = 2.5e7 / 11.0;
        let config = AsyncNetworkConfig::default()
            .with_synchronized_start(true)
            .with_latency(LatencyModel::ZERO);
        let config = AsyncNetworkConfig { exchange_period: period, ..config };
        let mut engine = AsyncGossipEngine::new(vec![0u64, 1u64], config, ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(9);
        engine.run_for(&MaxProtocol, 2.5e7, &mut rng);
        assert_eq!(
            engine.metrics().rounds(),
            11,
            "boundary round at t = 2.5e7 miscounted by the period slack"
        );
    }
}
