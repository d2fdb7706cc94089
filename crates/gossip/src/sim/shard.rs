//! The event-driven asynchronous gossip engine: windowed, sharded,
//! multi-threaded.
//!
//! Where [`GossipEngine`](crate::engine::GossipEngine) advances the whole
//! population in lockstep rounds, this engine advances a simulated clock
//! counted in exchange periods: every node *initiates* one exchange per
//! period, the request travels for a sampled per-edge latency, may be lost,
//! and the push-pull exchange is applied **atomically at delivery time**
//! against both peers' then-current states.  The same
//! [`PairwiseProtocol`](crate::engine::PairwiseProtocol) implementations
//! run unchanged.  A global event heap popped on one core would make the
//! heap and its serial RNG stream the wall at 10M nodes; instead the
//! population is partitioned into `P` contiguous **shards**, each shard's
//! schedule runs on its own `shims/rayon` worker between deterministic
//! **barriers**, and the resulting exchanges are applied in a globally
//! ordered, wave-parallel pass — scaling the simulator across cores
//! without giving up bit-reproducibility.  `P = 1` (the
//! [`sim_shards`](AsyncNetworkConfig::sim_shards) default) is the same
//! engine on one worker.
//!
//! # Fidelity notes
//!
//! * An initiator cannot know who is online, so it addresses *any* other
//!   node uniformly; requests to offline nodes are lost in transit.  (The
//!   round engine's omniscient online-set sampling is the synchronous
//!   idealisation of the same overlay.)
//! * A push-pull exchange is two messages.  Because `PairwiseProtocol` is
//!   atomic, a lost *reply* voids the whole exchange rather than leaving it
//!   half-applied; the request still counts as sent and the asymmetry is
//!   visible in [`SimMetrics`].
//! * [`ExchangeMetrics::messages`] keeps its round-engine meaning (two per
//!   *completed* exchange); [`SimMetrics`] additionally counts real traffic
//!   including losses.
//!
//! # Design: windows, mailboxes, barriers
//!
//! Simulated time is cut into *windows* of one exchange period, the
//! engine's only time unit: window `w` is `[w, w + 1)`, and every run call
//! advances a whole number of windows.
//! The engine exploits a structural property of the async gossip model:
//! **no scheduling decision reads node state**.  Initiation times, churn
//! coins, contact choices, loss coins and latency samples are all
//! state-independent, so a shard can resolve the *entire story* of each of
//! its initiations — departure, contact, loss, delivery time, delivery-side
//! churn — the moment it generates it, without seeing any other shard.
//! Node state is only touched when an exchange *applies*, and all
//! applications are deferred to the end-of-window barrier.
//!
//! Per window, each worker drains its shard's implicit event queue (one
//! initiation per owned node per window) and posts a `DeliveryRecord`
//! into the **mailbox** of the window the message lands in.  At the
//! barrier, the current window's mailbox is put in the shard-count-invariant
//! order `(time, seq)` where `seq = (initiation window, initiator)` — a
//! total order, since a node initiates at most once per window — and the
//! surviving exchanges are applied in exactly that order.  No comparison
//! sort builds it.  Shards are contiguous ascending node ranges and each
//! window's shard outputs are posted in shard order, so every mailbox
//! receives its records in `seq` order; every delivery time in mailbox `w`
//! lies in `[w, w + 1)`, so one stable pass over equal-width time buckets
//! completes the order in expected linear time.  Message accounting
//! ([`SimMetrics`]) is rebuilt from the same merged order, so counters, the
//! in-flight gauge and its peak are deterministic too.  The gauge's
//! departures need no sort either: a node initiates at the same phase
//! offset in every window, so one order of the nodes by phase, built when
//! the run seed is drawn, orders every window's departures.
//!
//! The ordered application itself is parallelised by **wavefront
//! decomposition**: exchange `e` is assigned wave `1 + max(wave(initiator),
//! wave(contact))`, making every wave node-disjoint.  Exchanges that share
//! no node commute, and same-node exchanges always land in distinct waves
//! in their original order, so applying waves in sequence (each wave in
//! parallel via [`ProtocolStore::apply_exchanges`]) reproduces the serial in-order
//! result bit for bit.  A single-worker pool skips the decomposition (and
//! allocates no wavefront state) and applies the sorted list directly.
//!
//! # Determinism contract
//!
//! Every random choice is drawn from a dedicated RNG seeded by a pure hash
//! of `(run_seed, node, window)`, where `run_seed` is the **single** draw
//! this engine consumes from the caller's seeded RNG.  Consequences:
//!
//! * a run is a pure function of `(initial states, config, churn, seed)`;
//! * the result is **bit-identical for every shard count and worker
//!   count**, one included (the per-event streams don't depend on the
//!   partition, and the barrier merge key doesn't either) — asserted by the
//!   invariance suite below and enforced by CI's shard-equality lanes.
//!
//! `run_until` evaluates its predicate once up front and once per window
//! barrier (not after every exchange), as the round engine does once per
//! round, so the stop time is a pure function of the config.
//! Reply/loss accounting for a message is booked at its delivery barrier,
//! so messages still in flight at the horizon count only their request leg.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::churn::ChurnModel;
use crate::engine::{apply_in_order, ProtocolStore, StateStore, PARALLEL_EXCHANGE_THRESHOLD};
use crate::metrics::ExchangeMetrics;
use crate::sim::adversary::{classify_exchange, AdversaryState, ExchangeFate};
use crate::sim::metrics::SimMetrics;
use crate::sim::AsyncNetworkConfig;

/// The exchange of this record applies at delivery time.
const FLAG_APPLY: u8 = 1;
/// The contact was up, so a reply went on the wire.
const FLAG_REPLY_SENT: u8 = 1 << 1;
/// A message of this exchange was lost (request wasted or reply dropped).
const FLAG_LOST: u8 = 1 << 2;

/// One fully resolved message: generated by the initiator's shard, parked
/// in the mailbox of its delivery window, applied at that window's barrier.
/// A mailbox receives its records in `(initiation window, initiator)`
/// order, the tie-break the barrier's stable time pass keeps.
#[derive(Debug, Clone, Copy)]
struct DeliveryRecord {
    /// Delivery time (request departure time + sampled edge latency).
    time: f64,
    initiator: u32,
    contact: u32,
    flags: u8,
}

/// What one shard produced for one window.
struct ShardOutput {
    /// One per request that went in flight, so its initiators are the
    /// window's departures.
    records: Vec<DeliveryRecord>,
    sent: u64,
    lost: u64,
}

/// The event-driven engine driving one
/// [`PairwiseProtocol`](crate::engine::PairwiseProtocol) over a population
/// of nodes.  See the module docs for the design and determinism contract.
///
/// The per-node state storage is pluggable ([`StateStore`] /
/// [`ProtocolStore`]): the natural `Vec<N>` array-of-structs
/// layout, or a row slab such as
/// [`EesUnitArena`](crate::sim::arena::EesUnitArena) whose one flat allocation
/// lets 100k–10M-node populations stream through the barriers.  The window
/// loop is storage-agnostic and consumes identical RNG draws either way.
#[derive(Debug)]
pub struct ShardedAsyncEngine<S> {
    nodes: S,
    config: AsyncNetworkConfig,
    churn: ChurnModel,
    shards: usize,
    pool: ThreadPool,
    /// Per-node downtime windows from the crash schedule (empty map when
    /// nobody crashes), queried statelessly as `online(node, t)`.
    downtime: HashMap<u32, Vec<(f64, f64)>>,
    run_seed: u64,
    /// Every node in initiation-phase order, ties by node: the order of
    /// every window's departures.  Built when the run seed is drawn, so it
    /// is empty until the engine has started.
    phase_order: Vec<u32>,
    /// `w + 1` for a node whose request departed in window `w`: the
    /// current window's stamp picks its departures out of `phase_order`,
    /// and older stamps never need clearing.
    departed: Vec<u64>,
    /// Mailboxes: `pending[w - next_window]` holds the records delivering
    /// in window `w`.
    pending: std::collections::VecDeque<Vec<DeliveryRecord>>,
    /// Wavefront stamps (`epoch << 32 | wave`), epoch-tagged so the array
    /// never needs clearing between barriers; empty on one worker, which
    /// never decomposes.
    stamps: Vec<u64>,
    epoch: u64,
    metrics: ExchangeMetrics,
    sim: SimMetrics,
    /// The next window to run; the simulated clock reads `next_window`.
    next_window: u64,
}

/// SplitMix64-style mix of a seed and two coordinates; the per-event
/// stream seed is `mix(run_seed, node, window)`.  Also the hash behind
/// byzantine membership and fault-decision streams
/// ([`crate::sim::adversary`]), so those stay engine-invariant.
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    finalize(seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
}

/// The SplitMix64 finalizer: the avalanche step behind [`mix`] and the
/// per-edge latency factor.
fn finalize(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The RNG stream named by `mix(seed, a, b)`: this crate's one route from
/// a `u64` to an RNG (contract D3).
#[expect(clippy::disallowed_methods, reason = "D3: this is the gossip crate's named seed-mix helper")]
pub(crate) fn mixed_rng(seed: u64, a: u64, b: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, a, b))
}

/// Maps a hash to a uniform f64 in `[0, 1)`.
pub(crate) fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A node's initiation offset in every window: `0` under a synchronized
/// start, else a pure hash of the run seed and the node.
fn phase(config: &AsyncNetworkConfig, run_seed: u64, node: usize) -> f64 {
    if config.synchronized_start {
        0.0
    } else {
        unit_f64(mix(run_seed, node as u64, u64::MAX))
    }
}

/// `items` stably sorted by `key`, for keys in `[origin, origin + 1)`:
/// one counting pass scatters the items, in input order, into
/// `items.len()` equal-width buckets, and each bucket is then sorted
/// stably.  Spread keys sort in expected linear time; keys that share one
/// bucket cost one comparison sort.
fn sort_unit_keys<T: Copy>(items: &[T], origin: f64, key: impl Fn(&T) -> f64) -> Vec<T> {
    let n = items.len();
    let bucket = |item: &T| (((key(item) - origin) * n as f64) as usize).min(n - 1);
    // `ends[b + 1]` counts bucket `b`, then the prefix sum makes `ends[b]`
    // the start of bucket `b`, and the scatter moves it to the bucket's end.
    let mut ends = vec![0usize; n + 1];
    for item in items {
        ends[bucket(item) + 1] += 1;
    }
    for b in 1..=n {
        ends[b] += ends[b - 1];
    }
    let mut sorted = items.to_vec();
    for item in items {
        let slot = &mut ends[bucket(item)];
        sorted[*slot] = *item;
        *slot += 1;
    }
    let mut start = 0;
    for &end in &ends[..n] {
        sorted[start..end].sort_by(|a, b| key(a).total_cmp(&key(b)));
        start = end;
    }
    sorted
}

/// Salt of the per-edge latency factor hash.
const EDGE_SALT: u64 = 0x1A7E_ECED;

/// The deterministic per-edge latency factor: a pure SplitMix64 hash of
/// `(edge, EDGE_SALT)` mapped into `[1 − spread, 1 + spread]`.
fn edge_factor(spread: f64, a: usize, b: usize) -> f64 {
    if spread == 0.0 {
        return 1.0;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let x = finalize(((lo as u64) << 32 | hi as u64).wrapping_add(EDGE_SALT));
    1.0 - spread + 2.0 * spread * unit_f64(x)
}

/// Whether `node` is up at time `t` under the crash schedule.
fn online_at(downtime: &HashMap<u32, Vec<(f64, f64)>>, node: usize, t: f64) -> bool {
    if downtime.is_empty() {
        return true;
    }
    match downtime.get(&(node as u32)) {
        None => true,
        Some(windows) => windows.iter().all(|&(crash, rejoin)| t < crash || t >= rejoin),
    }
}

/// Generates one shard's initiations for window `window`, resolving each
/// message end to end.
#[allow(clippy::too_many_arguments, reason = "called once, from the pool closure, with the engine's fields; a parameter struct would only rename them")]
fn generate_shard(
    shard: usize,
    shards: usize,
    population: usize,
    config: &AsyncNetworkConfig,
    churn: ChurnModel,
    downtime: &HashMap<u32, Vec<(f64, f64)>>,
    run_seed: u64,
    window: u64,
) -> ShardOutput {
    let loss = config.loss_probability;
    let window_start = window as f64;
    let lo = shard * population / shards;
    let hi = (shard + 1) * population / shards;
    let mut out = ShardOutput {
        records: Vec::with_capacity(hi - lo),
        sent: 0,
        lost: 0,
    };
    for node in lo..hi {
        // One initiation per node per window, at its phase offset.
        let time = window_start + phase(config, run_seed, node);
        if !online_at(downtime, node, time) {
            // A crashed node's clock keeps running; it just stays silent.
            continue;
        }
        // The per-event stream: every draw of this initiation (and of its
        // delivery) comes from here, in event order: initiator churn,
        // contact, request loss, latency, contact churn, reply loss.
        let mut ev = mixed_rng(run_seed, node as u64, window);
        if !churn.is_online(&mut ev) {
            continue;
        }
        // Uniform contact over everyone but the initiator.
        let draw = ev.gen_range(0..population - 1);
        let contact = if draw >= node { draw + 1 } else { draw };
        out.sent += 1;
        if loss > 0.0 && ev.gen_bool(loss) {
            out.lost += 1;
            continue;
        }
        let delay = config.latency.sample(&mut ev)
            * edge_factor(config.edge_spread, node, contact);
        let delivery = time + delay;
        // Resolve the delivery-side outcome now (all draws are
        // state-independent); its metrics effects are booked at the
        // delivery barrier, so a message still in flight at the horizon
        // counts only its request leg.
        let mut flags = 0u8;
        if !online_at(downtime, contact, delivery) || !churn.is_online(&mut ev) {
            flags |= FLAG_LOST;
        } else {
            flags |= FLAG_REPLY_SENT;
            if !online_at(downtime, node, delivery) || (loss > 0.0 && ev.gen_bool(loss)) {
                flags |= FLAG_LOST;
            } else {
                flags |= FLAG_APPLY;
            }
        }
        out.records.push(DeliveryRecord {
            time: delivery,
            initiator: node as u32,
            contact: contact as u32,
            flags,
        });
    }
    out
}

impl<S: StateStore> ShardedAsyncEngine<S> {
    /// Creates a sharded engine over the given node storage.  The shard
    /// count comes from [`AsyncNetworkConfig::sim_shards`] (`0` = the
    /// machine's available parallelism); the worker pool always matches
    /// the shard count, though neither changes the results.
    ///
    /// # Panics
    /// Panics if fewer than two nodes are provided, the configuration is
    /// invalid, or a crash window names a node outside the population.
    pub fn new(nodes: S, config: AsyncNetworkConfig, churn: ChurnModel) -> Self {
        assert!(nodes.population() >= 2, "gossip needs at least two participants");
        config.validate();
        let population = nodes.population();
        let shards = if config.sim_shards == 0 {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        } else {
            config.sim_shards
        };
        let shards = shards.min(population);
        let pool = ThreadPoolBuilder::new()
            .num_threads(shards)
            .build()
            .expect("the offline pool cannot fail to build");
        let mut downtime: HashMap<u32, Vec<(f64, f64)>> = HashMap::new();
        for window in config.crash.windows() {
            assert!(
                window.node < population,
                "crash window names node {} of {population}",
                window.node
            );
            downtime.entry(window.node as u32).or_default().push((window.crash_at, window.rejoin_at));
        }
        Self {
            stamps: if shards > 1 { vec![0u64; population] } else { Vec::new() },
            departed: vec![0u64; population],
            nodes,
            config,
            churn,
            shards,
            pool,
            downtime,
            run_seed: 0,
            phase_order: Vec::new(),
            pending: std::collections::VecDeque::new(),
            epoch: 0,
            metrics: ExchangeMetrics::default(),
            sim: SimMetrics::default(),
            next_window: 0,
        }
    }

    /// Immutable access to the node-state storage.
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

    /// The simulated clock, in exchange periods: the barrier the last run
    /// call stopped at.
    pub fn now(&self) -> f64 {
        self.next_window as f64
    }

    /// Consumes the engine, returning the node states and the accounting.
    pub fn into_parts(self) -> (S, ExchangeMetrics, SimMetrics) {
        (self.nodes, self.metrics, self.sim)
    }

    /// Draws the run seed — the single draw this engine consumes from the
    /// caller's RNG; everything else derives from it per event — and orders
    /// the nodes by the initiation phase it fixes.
    fn ensure_started<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.phase_order.is_empty() {
            self.run_seed = rng.gen();
            let (config, run_seed) = (&self.config, self.run_seed);
            let nodes: Vec<u32> = (0..self.nodes.population() as u32).collect();
            self.phase_order = sort_unit_keys(&nodes, 0.0, |&node| phase(config, run_seed, node as usize));
        }
    }

    /// The mailbox of window `w`, growing the deque as needed.
    fn mailbox(&mut self, w: u64) -> &mut Vec<DeliveryRecord> {
        debug_assert!(w >= self.next_window);
        let idx = (w - self.next_window) as usize;
        self.pending.resize_with(self.pending.len().max(idx + 1), Vec::new);
        &mut self.pending[idx]
    }

    /// The wavefront stamp of a node in the current epoch.
    fn stamp(&self, node: u32) -> u32 {
        let packed = self.stamps[node as usize];
        if packed >> 32 == self.epoch {
            packed as u32
        } else {
            0
        }
    }

    /// Applies `applies` in their sorted order: serially on one worker,
    /// else wave-decomposed so each batch is node-disjoint.
    fn apply_ordered<P>(&mut self, protocol: &P, applies: &[(u32, u32)])
    where
        S: ProtocolStore<P>,
    {
        if self.pool.current_num_threads() <= 1 || applies.len() < PARALLEL_EXCHANGE_THRESHOLD {
            let pairs = applies.iter().map(|&(i, c)| (i as usize, c as usize));
            apply_in_order(&mut self.nodes, protocol, pairs);
            return;
        }
        self.epoch += 1;
        let mut waves: Vec<Vec<(u32, u32)>> = Vec::new();
        for &(i, c) in applies {
            let wave = self.stamp(i).max(self.stamp(c)) + 1;
            self.stamps[i as usize] = self.epoch << 32 | u64::from(wave);
            self.stamps[c as usize] = self.epoch << 32 | u64::from(wave);
            let slot = (wave - 1) as usize;
            if waves.len() <= slot {
                waves.push(Vec::new());
            }
            waves[slot].push((i, c));
        }
        for wave in &waves {
            self.nodes.apply_exchanges(&self.pool, protocol, wave);
        }
    }

    /// The window loop: runs whole windows until the clock reads `target`;
    /// `on_barrier` sees the population at every barrier and returns `true`
    /// to stop.  Returns `true` if stopped early.
    ///
    /// An adversary, when present, classifies the surviving exchanges
    /// inside each barrier's serially merged `(time, seq)`-ordered pass —
    /// so its decision stream (and all fault counters) is bit-invariant in
    /// the shard and worker counts, like every other outcome.
    fn drive<P, F>(
        &mut self,
        protocol: &P,
        target: u64,
        mut adversary: Option<&mut AdversaryState>,
        mut on_barrier: F,
    ) -> bool
    where
        S: ProtocolStore<P>,
        F: FnMut(&S) -> bool,
    {
        let population = self.nodes.population();
        while self.next_window < target {
            let w = self.next_window;
            // Parallel generation: every shard resolves its own initiations
            // of this window (deterministic per-event streams, so the
            // partition cannot move any draw).
            let (config, churn, downtime, run_seed, shards) =
                (&self.config, self.churn, &self.downtime, self.run_seed, self.shards);
            let outputs: Vec<ShardOutput> = self.pool.map_range(shards, |s| {
                generate_shard(s, shards, population, config, churn, downtime, run_seed, w)
            });
            for out in outputs {
                self.sim.messages_sent += out.sent;
                self.sim.messages_lost += out.lost;
                for record in out.records {
                    self.departed[record.initiator as usize] = w + 1;
                    // Delivery at or after departure: window `w` or later.
                    // Shards are ascending node ranges, so every mailbox
                    // receives its records in `(initiation window,
                    // initiator)` order.
                    self.mailbox(record.time as u64).push(record);
                }
            }
            self.barrier(protocol, &mut adversary);

            self.next_window = w + 1;
            self.sim.advance(self.now());
            self.metrics.record_round();
            if on_barrier(&self.nodes) {
                return true;
            }
        }
        false
    }

    /// The barrier of window `next_window`: puts its mailbox in `(time, seq)`
    /// order by one stable pass on `time` (the push order supplies `seq`),
    /// replays the merged depart/arrive stream through the gauge, and
    /// applies the surviving exchanges in order.
    fn barrier<P>(&mut self, protocol: &P, adversary: &mut Option<&mut AdversaryState>)
    where
        S: ProtocolStore<P>,
    {
        let w = self.next_window;
        let due = sort_unit_keys(&self.pending.pop_front().unwrap_or_default(), w as f64, |r| r.time);
        let (config, run_seed, departed) = (&self.config, self.run_seed, &self.departed);
        let mut departs = self.phase_order.iter()
            .filter(|&&node| departed[node as usize] == w + 1)
            .map(|&node| w as f64 + phase(config, run_seed, node as usize))
            .peekable();

        // Replay the merged event stream through the in-flight gauge.
        // Departs at or before an arrival time go first, so the gauge can
        // never go negative (a zero-latency message arrives the instant it
        // departs).
        let mut applies: Vec<(u32, u32)> = Vec::new();
        for record in &due {
            while let Some(time) = departs.next_if(|&time| time <= record.time) {
                self.sim.depart(time);
            }
            self.sim.arrive(record.time);
            if record.flags & FLAG_REPLY_SENT != 0 {
                self.sim.messages_sent += 1;
            }
            if record.flags & FLAG_LOST != 0 {
                self.sim.messages_lost += 1;
            }
            if record.flags & FLAG_APPLY != 0
                && classify_exchange(
                    adversary,
                    record.initiator as usize,
                    record.contact as usize,
                ) == ExchangeFate::Apply
            {
                self.metrics.record_exchange();
                applies.push((record.initiator, record.contact));
            }
        }
        for time in departs {
            self.sim.depart(time);
        }
        self.apply_ordered(protocol, &applies);
    }

    /// The window the clock reads after `duration` more exchange periods.
    fn target(&self, duration: f64) -> u64 {
        assert!(
            duration >= 0.0 && duration.is_finite() && duration.fract() == 0.0,
            "run durations are whole exchange periods, got {duration}"
        );
        self.next_window + duration as u64
    }

    /// Advances the simulation by `duration` exchange periods.
    ///
    /// # Panics
    /// Panics unless `duration` is a whole, non-negative number.
    pub fn run_for<P, R>(&mut self, protocol: &P, duration: f64, rng: &mut R)
    where
        S: ProtocolStore<P>,
        R: Rng + ?Sized,
    {
        let target = self.target(duration);
        self.ensure_started(rng);
        self.drive(protocol, target, None, |_| false);
    }

    /// Advances the simulation until `done` holds over the node states or
    /// `duration` exchange periods have elapsed; returns whether the
    /// predicate was satisfied.  It is checked once up front and once at
    /// every window **barrier**, as the round engine checks once before
    /// and once per round — barrier times are pure functions of the config,
    /// so the stop time is shard-count invariant.  Under an adversary (see
    /// [`crate::sim::adversary`]) a seeded subset of the delivered exchanges
    /// is voided; `None` applies every one.
    ///
    /// # Panics
    /// Panics unless `duration` is a whole, non-negative number.
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
        let target = self.target(duration);
        if done(&self.nodes) {
            return true;
        }
        self.ensure_started(rng);
        self.drive(protocol, target, adversary, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PairwiseProtocol;
    use crate::sim::latency::LatencyModel;
    use crate::sim::metrics::ConvergenceTimes;
    use crate::sim::schedule::{CrashSchedule, CrashWindow};
    use crate::eesum::{convergence_report, initial_states, EesState, EesSumProtocol};

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

    /// The full-feature config the invariance suite runs: log-normal
    /// latency, loss, heterogeneous edges, staggered start, crash/rejoin,
    /// churn — every code path that could depend on the partition.
    fn full_feature_config(shards: usize) -> AsyncNetworkConfig {
        AsyncNetworkConfig::default()
            .with_latency(LatencyModel::LogNormal { median: 0.4, sigma: 0.6 })
            .with_loss(0.1)
            .with_edge_spread(0.5)
            .with_crash(CrashSchedule::new(vec![
                CrashWindow { node: 3, crash_at: 2.0, rejoin_at: 9.0 },
                CrashWindow { node: 11, crash_at: 0.5, rejoin_at: f64::INFINITY },
            ]))
            .with_sim_shards(shards)
    }

    type Parts = (Vec<EesState<f64>>, ExchangeMetrics, SimMetrics);

    fn full_feature_engine(shards: usize) -> ShardedAsyncEngine<Vec<EesState<f64>>> {
        ShardedAsyncEngine::new(sum_states(64), full_feature_config(shards), ChurnModel::new(0.2))
    }

    fn full_feature_run(shards: usize) -> Parts {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut engine = full_feature_engine(shards);
        engine.run_for(&EesSumProtocol, 25.0, &mut rng);
        engine.into_parts()
    }

    /// Folds every output bit of a run into one word: the node states, the
    /// exchange metrics, and every sim-metrics field with the in-flight
    /// integral read over `horizon`.  A state enters as its unscaled
    /// `(σ, ω)`: dividing out the exact `2^n` leaves the halving rule's
    /// bits, which the digests were pinned on.
    fn digest((nodes, metrics, sim): &Parts, horizon: f64) -> u64 {
        let states = nodes.iter().flat_map(|s| {
            let divisor = 2f64.powi(s.exchanges as i32);
            [(s.value / divisor).to_bits(), (s.weight / divisor).to_bits()]
        });
        let counts = [metrics.exchanges(), metrics.messages(), u64::from(metrics.rounds())];
        let traffic = [sim.messages_sent, sim.messages_lost, sim.in_flight as u64, sim.peak_in_flight as u64];
        states
            .chain(counts)
            .chain(traffic)
            .chain([sim.mean_in_flight(horizon).to_bits()])
            .enumerate()
            .fold(0, |h, (i, word)| mix(h, i as u64, word))
    }

    #[test]
    fn barrier_order_matches_the_parent_bit_for_bit() {
        // The invariance suite compares shard counts of one build, so a
        // reordering that every count shares would pass it.  These digests
        // pin the barrier's delivery and departure orders themselves: a
        // change to how the engine builds them must leave every bit.
        for shards in [1usize, 2, 4] {
            assert_eq!(digest(&full_feature_run(shards), 25.0), 0xB886_32E3_98D1_2476, "{shards} shards");
        }
        // Synchronized start with constant latency: every delivery of a
        // window lands at one instant, so the push order alone breaks ties.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(0.5))
            .with_synchronized_start(true)
            .with_sim_shards(2);
        let mut engine = ShardedAsyncEngine::new(sum_states(64), config, ChurnModel::new(0.2));
        engine.run_for(&EesSumProtocol, 25.0, &mut StdRng::seed_from_u64(1234));
        assert_eq!(digest(&engine.into_parts(), 25.0), 0xD47D_5772_A711_BD24, "synchronized start");
    }

    /// Keys tagged with their input position.
    type Tagged = Vec<(f64, u32)>;

    /// `keys`, tagged, bucket-sorted from `origin` and, as the reference,
    /// by the std stable sort.
    fn both_sorts(keys: &[f64], origin: f64) -> (Tagged, Tagged) {
        let items: Tagged = keys.iter().zip(0..).map(|(&key, i)| (key, i)).collect();
        let mut reference = items.clone();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        (sort_unit_keys(&items, origin, |item| item.0), reference)
    }

    #[test]
    fn the_bucket_sort_keeps_ties_in_input_order() {
        let (sorted, reference) = both_sorts(&[7.5, 7.25, 7.5, 7.0, 7.25, 7.5, 7.999_999_999], 7.0);
        assert_eq!(sorted.iter().map(|item| item.1).collect::<Vec<_>>(), [3, 1, 4, 0, 2, 5, 6]);
        assert_eq!(sorted, reference);
    }

    #[test]
    fn the_bucket_sort_handles_equal_empty_and_single_inputs() {
        let (sorted, reference) = both_sorts(&[3.5; 100], 3.0);
        assert_eq!(sorted, reference, "all keys equal keep the input order");
        for keys in [&[][..], &[0.25]] {
            let (sorted, reference) = both_sorts(keys, 0.0);
            assert_eq!(sorted, reference, "{keys:?}");
        }
    }

    #[test]
    fn the_bucket_sort_orders_distinct_keys_that_share_one_bucket() {
        // 300 buckets of width 1/300; every key lies in the first, with
        // three distinct values repeated, so only a stable sort inside the
        // bucket both orders them and keeps each value's ties in place.
        let keys: Vec<f64> = (0..300).map(|i| 2.0 + f64::from((i * 7) % 3) * 1e-6).collect();
        let (sorted, reference) = both_sorts(&keys, 2.0);
        assert_eq!(sorted, reference);
    }

    proptest::proptest! {
        /// On keys in `[origin, origin + 1)`, drawn from the whole interval
        /// or from a grid of `steps` points (coarser or finer than the
        /// buckets, so ties, and distinct keys sharing a bucket, are
        /// common), the bucket pass is the std stable sort.
        #[test]
        fn the_bucket_sort_is_the_std_stable_sort(
            origin in 0u32..1_000,
            whole in proptest::prelude::any::<bool>(),
            steps in 1u32..4_096,
            len in 0usize..400,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let origin = f64::from(origin);
            let keys: Vec<f64> = (0..len)
                .map(|_| {
                    let unit = if whole { rng.gen() } else { f64::from(rng.gen_range(0..steps)) / f64::from(steps) };
                    origin + unit
                })
                .collect();
            let (sorted, reference) = both_sorts(&keys, origin);
            proptest::prop_assert_eq!(sorted, reference);
        }
    }

    #[test]
    fn shard_counts_1_2_4_and_7_are_bit_identical() {
        // The tentpole contract: same seed, any shard count (and with it
        // any worker count) -> bit-identical node states, ExchangeMetrics
        // and SimMetrics.
        let (nodes_1, metrics_1, sim_1) = full_feature_run(1);
        assert!(metrics_1.exchanges() > 0, "the run must do real work");
        for shards in [2usize, 4, 7] {
            let (nodes, metrics, sim) = full_feature_run(shards);
            assert_eq!(nodes, nodes_1, "node states diverge at {shards} shards");
            assert_eq!(metrics, metrics_1, "exchange metrics diverge at {shards} shards");
            assert_eq!(sim, sim_1, "sim metrics diverge at {shards} shards");
        }
    }

    #[test]
    fn sharded_runs_are_bit_reproducible_and_seed_sensitive() {
        let (nodes_a, metrics_a, sim_a) = full_feature_run(4);
        let (nodes_b, metrics_b, sim_b) = full_feature_run(4);
        assert_eq!(nodes_a, nodes_b);
        assert_eq!(metrics_a, metrics_b);
        assert_eq!(sim_a, sim_b);

        let mut rng = StdRng::seed_from_u64(1235);
        let mut engine = full_feature_engine(4);
        engine.run_for(&EesSumProtocol, 25.0, &mut rng);
        assert_ne!(engine.nodes(), &nodes_a, "a different seed must diverge");
    }

    #[test]
    fn incremental_driving_matches_one_shot_driving() {
        // Resume across calls: driving in uneven whole-period chunks must
        // land on the same bits as one run_for of the total duration.
        let run = |chunks: &[f64]| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut engine = ShardedAsyncEngine::new(
                sum_states(48),
                full_feature_config(3),
                ChurnModel::new(0.1),
            );
            for &d in chunks {
                engine.run_for(&EesSumProtocol, d, &mut rng);
            }
            engine.into_parts()
        };
        let whole = run(&[12.0]);
        let pieces = run(&[1.0, 2.0, 5.0, 4.0]);
        assert_eq!(whole.0, pieces.0, "node states");
        assert_eq!(whole.1, pieces.1, "exchange metrics");
        assert_eq!(whole.2, pieces.2, "sim metrics");
    }

    #[test]
    fn zero_latency_synchronized_run_matches_round_engine_quality() {
        // With zero latency and synchronized starts every initiation
        // applies within its own window, so exchange counts match the
        // round structure and the epidemic sum converges tightly.
        let population = 512;
        let config = AsyncNetworkConfig::default()
            .with_synchronized_start(true)
            .with_sim_shards(4);
        let mut rng = StdRng::seed_from_u64(41);
        let mut engine = ShardedAsyncEngine::new(sum_states(population), config, ChurnModel::NONE);
        engine.run_for(&EesSumProtocol, 40.0, &mut rng);
        assert_eq!(engine.metrics().exchanges(), population as u64 * 40);
        assert_eq!(engine.metrics().rounds(), 40);
        let report = convergence_report(engine.nodes(), exact_sum(population));
        assert_eq!(report.without_estimate, 0.0);
        assert!(report.max_relative_error < 1e-3, "err {}", report.max_relative_error);
    }

    #[test]
    fn run_until_stops_at_a_barrier_and_is_shard_invariant() {
        let run = |shards: usize| {
            let config = AsyncNetworkConfig::default()
                .with_latency(LatencyModel::LogNormal { median: 0.2, sigma: 0.5 })
                .with_sim_shards(shards);
            let mut rng = StdRng::seed_from_u64(11);
            let nodes: Vec<u64> = (0..100).collect();
            let mut engine = ShardedAsyncEngine::new(nodes, config, ChurnModel::NONE);
            let done = engine
                .run_until(&MaxProtocol, 50.0, &mut rng, |nodes| nodes.iter().all(|&v| v == 99), None);
            (done, engine.now(), engine.nodes().clone())
        };
        let (done_1, now_1, nodes_1) = run(1);
        assert!(done_1, "the max must spread within 50 periods");
        assert!(now_1 < 25.0, "epidemic spreading is logarithmic, stop early");
        for shards in [2usize, 5] {
            let (done, now, nodes) = run(shards);
            assert_eq!(done, done_1);
            assert_eq!(now, now_1, "stop time diverges at {shards} shards");
            assert_eq!(nodes, nodes_1);
        }
    }

    #[test]
    fn message_loss_voids_the_expected_fraction_of_exchanges() {
        // Request and reply each survive with probability 1 − p, so the
        // completed-exchange rate is (1 − p)² of initiations.
        let loss = 0.3f64;
        let config = AsyncNetworkConfig::default().with_loss(loss).with_sim_shards(4);
        let mut rng = StdRng::seed_from_u64(7);
        let mut engine = ShardedAsyncEngine::new(vec![0u64; 200], config, ChurnModel::NONE);
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
        let population = 32;
        let config = AsyncNetworkConfig::default()
            .with_crash(CrashSchedule::new(vec![CrashWindow {
                node: 5,
                crash_at: 0.0,
                rejoin_at: 20.0,
            }]))
            .with_sim_shards(3);
        let nodes: Vec<u64> = (0..population as u64).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = ShardedAsyncEngine::new(nodes, config, ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 19.0, &mut rng);
        assert_eq!(engine.nodes()[5], 5, "a crashed node's state must not move");
        assert!(
            engine.nodes().iter().enumerate().filter(|&(i, _)| i != 5).all(|(_, &v)| v == 31),
            "the rest of the population converges around the crash"
        );
        engine.run_for(&MaxProtocol, 10.0, &mut rng);
        assert_eq!(engine.nodes()[5], 31, "the rejoined node must catch up");
    }

    #[test]
    fn exchange_counter_growth_stays_within_the_packing_budget() {
        // The lane-packing doubling allowance (8·budget + 32, see
        // `chiaroscuro_core`'s `plan::RunPlan::new`) must hold under the
        // sharded schedule too, or packed decodes would trip their overflow
        // guard at scale.
        for &population in &[64usize, 1_000] {
            for &periods in &[8u32, 24] {
                for latency in
                    [LatencyModel::ZERO, LatencyModel::LogNormal { median: 0.3, sigma: 0.5 }]
                {
                    let config = AsyncNetworkConfig::default()
                        .with_latency(latency)
                        .with_sim_shards(4);
                    let mut rng = StdRng::seed_from_u64(5);
                    let states =
                        initial_states((0..population).map(|i| i as f64).collect());
                    let mut engine = ShardedAsyncEngine::new(states, config, ChurnModel::NONE);
                    engine.run_for(&EesSumProtocol, f64::from(periods), &mut rng);
                    let max_n = engine.nodes().iter().map(|n| n.exchanges).max().unwrap();
                    assert!(
                        max_n <= 8 * periods + 32,
                        "pop {population}, {periods} periods: sharded max exchange counter \
                         {max_n} breaches the packing doubling budget"
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_application_matches_forced_serial_application() {
        // Drive enough exchanges through one barrier that the parallel
        // threshold trips, and compare with a single-worker engine (which
        // applies the sorted list serially, and so carries no stamp array):
        // the wave decomposition must not move a single bit.  Worker counts
        // that do not divide a wave put the pool's block edges inside it.
        let population = 4 * PARALLEL_EXCHANGE_THRESHOLD;
        let run = |shards: usize| {
            let config = AsyncNetworkConfig::default()
                .with_synchronized_start(true)
                .with_sim_shards(shards);
            let mut rng = StdRng::seed_from_u64(21);
            let mut engine =
                ShardedAsyncEngine::new(sum_states(population), config, ChurnModel::NONE);
            engine.run_for(&EesSumProtocol, 3.0, &mut rng);
            assert_eq!(engine.stamps.len(), if shards == 1 { 0 } else { population });
            engine.into_parts()
        };
        let serial = run(1);
        for workers in [2, 3, 4, 6, 7] {
            let parallel = run(workers);
            assert_eq!(serial.0, parallel.0, "node states, {workers} workers");
            assert_eq!(serial.1, parallel.1, "exchange metrics, {workers} workers");
            assert_eq!(serial.2, parallel.2, "sim metrics, {workers} workers");
        }
    }

    #[test]
    fn engine_consumes_exactly_one_caller_draw() {
        // The derived-stream discipline: whatever the population or
        // duration, the caller's RNG advances by exactly one u64 draw.
        let mut rng = StdRng::seed_from_u64(99);
        let mut reference = StdRng::seed_from_u64(99);
        let _: u64 = reference.gen();
        let config = AsyncNetworkConfig::default().with_sim_shards(2);
        let mut engine = ShardedAsyncEngine::new(sum_states(32), config, ChurnModel::NONE);
        engine.run_for(&EesSumProtocol, 7.0, &mut rng);
        engine.run_for(&EesSumProtocol, 5.0, &mut rng);
        assert_eq!(rng, reference, "the sharded engine must consume exactly one draw");
    }

    #[test]
    fn convergence_times_are_shard_count_invariant() {
        // The run of `full_feature_run`, driven one period at a
        // time with each node's "my estimate is within 5 % of the exact sum"
        // read at every barrier.
        let tracked_run = |shards: usize| {
            let exact = exact_sum(64);
            let mut rng = StdRng::seed_from_u64(1234);
            let mut engine = full_feature_engine(shards);
            let mut times = ConvergenceTimes::new(64);
            for period in 1..=25 {
                engine.run_for(&EesSumProtocol, 1.0, &mut rng);
                for (i, s) in engine.nodes().iter().enumerate() {
                    let holds = s.estimate().is_some_and(|e| (e - exact).abs() <= 0.05 * exact);
                    times.observe(i, f64::from(period), holds);
                }
            }
            times
        };
        let times_1 = tracked_run(1);
        assert!(times_1.converged_fraction() > 0.5, "{}", times_1.converged_fraction());
        for shards in [2usize, 4, 7] {
            assert_eq!(tracked_run(shards), times_1, "times diverge at {shards} shards");
        }
    }

    #[test]
    fn early_stop_advances_the_in_flight_integral_to_the_barrier() {
        // Two nodes, synchronized start, constant latency 1.5: two requests
        // depart at t = 0 and two more at t = 1; the first pair delivers at
        // t = 1.5 and converges the nodes, which the barrier at t = 2 sees.
        // The in-flight integral must cover the full stretch up to the stop
        // time — 2 over [0, 1), 4 over [1, 1.5), 2 over [1.5, 2) — not end
        // at the last arrival.
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Constant(1.5))
            .with_synchronized_start(true);
        let mut engine = ShardedAsyncEngine::new(vec![1u64, 7u64], config, ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(5);
        let converged = engine.run_until(
            &MaxProtocol,
            10.0,
            &mut rng,
            |nodes: &Vec<u64>| nodes.iter().all(|&v| v == 7),
            None,
        );
        assert!(converged, "the pair must converge at the first delivery");
        assert_eq!(engine.now(), 2.0, "the stop time is the barrier after the delivery");
        assert_eq!(engine.metrics().rounds(), 2);
        let mean = engine.sim_metrics().mean_in_flight(engine.now());
        assert!((mean - 2.5).abs() < 1e-12, "mean in-flight {mean}: integral stops short of the stop");
        assert_eq!(engine.sim_metrics().peak_in_flight, 4);
    }

    #[test]
    #[should_panic(expected = "whole exchange periods")]
    fn run_for_rejects_a_fractional_duration() {
        let mut engine =
            ShardedAsyncEngine::new(vec![0u64, 1u64], AsyncNetworkConfig::default(), ChurnModel::NONE);
        engine.run_for(&MaxProtocol, 2.5, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "whole exchange periods")]
    fn run_until_rejects_a_fractional_duration() {
        let mut engine =
            ShardedAsyncEngine::new(vec![0u64, 1u64], AsyncNetworkConfig::default(), ChurnModel::NONE);
        engine.run_until(&MaxProtocol, 0.5, &mut StdRng::seed_from_u64(1), |_: &Vec<u64>| false, None);
    }
}
