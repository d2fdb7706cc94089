//! Epidemic dissemination of the smallest-identifier value (§4.2.2).
//!
//! When the number of actual noise-share contributors exceeds the expected
//! `nν`, each participant computes its own *correction* proposal and tags it
//! with a random identifier.  Proposals are gossiped, and at every exchange
//! both peers keep the proposal with the smallest identifier, so the whole
//! population converges on a single, unique correction (the unicity
//! requirement of the noise generation).

use crate::engine::{PairwiseProtocol, StateStore};
use crate::slab::{RowLayout, RowSlab};

/// One participant's dissemination state: the best (smallest-id) proposal
/// seen so far.
#[derive(Debug, Clone, PartialEq)]
pub struct MinIdState<T> {
    /// Identifier of the currently retained proposal.
    pub id: u64,
    /// The payload of that proposal (e.g. the noise-correction vector).
    pub payload: T,
}

impl<T> MinIdState<T> {
    /// Creates a state holding this participant's own proposal.
    pub fn new(id: u64, payload: T) -> Self {
        Self { id, payload }
    }
}

/// The min-identifier dissemination protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisseminationProtocol;

impl<T: Clone> PairwiseProtocol<MinIdState<T>> for DisseminationProtocol {
    fn exchange(&self, initiator: &mut MinIdState<T>, contact: &mut MinIdState<T>) {
        if initiator.id <= contact.id {
            contact.id = initiator.id;
            contact.payload = initiator.payload.clone();
        } else {
            initiator.id = contact.id;
            initiator.payload = contact.payload.clone();
        }
    }
}

/// Whether every participant has converged on the same proposal identifier.
pub fn converged<T>(states: &[MinIdState<T>]) -> bool {
    states.windows(2).all(|w| w[0].id == w[1].id)
}

/// The smallest identifier present in the population (the value everyone
/// must converge to).
pub fn global_minimum<T>(states: &[MinIdState<T>]) -> u64 {
    states.iter().map(|s| s.id).min().expect("non-empty population")
}

/// The state holding the globally smallest identifier — the proposal the
/// population is converging to, whether or not dissemination has finished.
///
/// The min-id exchange can only ever *lower* a node's identifier, so the
/// global minimum present after any number of rounds is the true winner; a
/// reader must take this state rather than an arbitrary node's (under churn
/// an unconverged node may still hold a losing proposal).
///
/// # Panics
/// Panics on an empty population.
pub fn winning_state<T>(states: &[MinIdState<T>]) -> &MinIdState<T> {
    states.iter().min_by_key(|s| s.id).expect("non-empty population")
}

/// The shape of a min-identifier row: the proposal identifier, then the
/// `f64` payload as IEEE-754 bit patterns (the form it already travels in on
/// the actor wire).
#[derive(Debug, Clone, PartialEq)]
pub struct MinIdLayout;

/// Flat storage for min-identifier dissemination over fixed-width `f64`
/// payload vectors.
///
/// Semantically equivalent to `Vec<MinIdState<Vec<f64>>>`, but the whole
/// population lives in one flat allocation (a [`RowSlab`] of
/// `[identifier, payload…]` rows), so ten-million-node dissemination phases
/// avoid per-node heap boxes and clone traffic.  Like every slab it is a
/// [`ProtocolStore`](crate::engine::ProtocolStore), so both the round
/// engine and the async engine's wavefront batches drive it directly.
pub type MinIdArena = RowSlab<MinIdLayout>;

impl RowSlab<MinIdLayout> {
    /// Builds an arena of `population` nodes whose per-node proposal is
    /// produced by `init`: for each node the closure fills the (zeroed)
    /// payload row and returns the proposal identifier.
    ///
    /// # Panics
    /// Panics if `population` is zero.
    pub fn build(
        population: usize,
        payload_len: usize,
        mut init: impl FnMut(usize, &mut [f64]) -> u64,
    ) -> Self {
        assert!(population > 0, "dissemination needs a non-empty population");
        let mut arena = Self::zeroed(MinIdLayout, 1 + payload_len, population);
        let mut payload = vec![0.0; payload_len];
        for node in 0..population {
            payload.fill(0.0);
            let id = init(node, &mut payload);
            let row = arena.row_mut(node);
            row[0] = id;
            for (cell, value) in row[1..].iter_mut().zip(&payload) {
                *cell = value.to_bits();
            }
        }
        arena
    }

    /// Width of every payload row.
    pub fn payload_len(&self) -> usize {
        self.row(0).len() - 1
    }

    /// The proposal identifier currently retained by `node`.
    pub fn id(&self, node: usize) -> u64 {
        self.row(node)[0]
    }

    /// The payload currently retained by `node`.
    pub fn payload(&self, node: usize) -> Vec<f64> {
        self.row(node)[1..].iter().map(|&bits| f64::from_bits(bits)).collect()
    }

    /// Whether every node retains the same proposal identifier.
    pub fn converged(&self) -> bool {
        let first = self.id(0);
        self.rows().all(|row| row[0] == first)
    }

    /// The node holding the globally smallest identifier — the arena
    /// counterpart of [`winning_state`], valid whether or not dissemination
    /// has converged.
    pub fn winning_node(&self) -> usize {
        let mut best = 0;
        for node in 1..self.population() {
            if self.id(node) < self.id(best) {
                best = node;
            }
        }
        best
    }
}

/// The min-id rule over one pair of rows: the smaller identifier wins on
/// both sides, ties going to the initiator, and the winning row overwrites
/// the losing one — exactly [`DisseminationProtocol`]'s exchange over
/// `MinIdState<Vec<f64>>`.
impl RowLayout<DisseminationProtocol> for MinIdLayout {
    fn exchange_rows(&self, _protocol: &DisseminationProtocol, initiator: &mut [u64], contact: &mut [u64]) {
        if initiator[0] <= contact[0] {
            contact.copy_from_slice(initiator);
        } else {
            initiator.copy_from_slice(contact);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::{GossipEngine, ProtocolStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_states(population: usize, seed: u64) -> Vec<MinIdState<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..population)
            .map(|_| MinIdState::new(rng.gen::<u64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn exchange_keeps_smaller_identifier_on_both_sides() {
        let mut a = MinIdState::new(5, "a".to_string());
        let mut b = MinIdState::new(2, "b".to_string());
        DisseminationProtocol.exchange(&mut a, &mut b);
        assert_eq!(a.id, 2);
        assert_eq!(b.id, 2);
        assert_eq!(a.payload, "b");
    }

    #[test]
    fn dissemination_converges_to_global_minimum() {
        let mut rng = StdRng::seed_from_u64(1);
        let states = random_states(2_000, 7);
        let expected_min = global_minimum(&states);
        let expected_payload = states.iter().find(|s| s.id == expected_min).unwrap().payload;
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        let ok = engine.run_until(&DisseminationProtocol, 40, &mut rng, |s| converged(s), None);
        assert!(ok, "dissemination must converge within 40 rounds");
        for s in engine.nodes() {
            assert_eq!(s.id, expected_min);
            assert_eq!(s.payload, expected_payload);
        }
    }

    #[test]
    fn dissemination_is_logarithmic_in_population() {
        // The paper observes < 50 messages per participant for 1M nodes; at
        // the scale we simulate here the number of rounds should stay well
        // below 25 and grow slowly with the population.
        let mut rounds = Vec::new();
        for (seed, population) in [(1u64, 500usize), (2, 5_000)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let states = random_states(population, seed);
            let mut engine = GossipEngine::new(states, ChurnModel::NONE);
            let ok = engine.run_until(&DisseminationProtocol, 60, &mut rng, |s| converged(s), None);
            assert!(ok);
            rounds.push(engine.metrics().rounds());
        }
        assert!(rounds[0] <= 25 && rounds[1] <= 30, "rounds = {rounds:?}");
        assert!(rounds[1] <= rounds[0] + 10, "growth must be slow: {rounds:?}");
    }

    #[test]
    fn winning_state_is_correct_even_when_dissemination_did_not_converge() {
        // Regression for reading nodes()[0] after a non-converged run: cut
        // dissemination short under heavy churn so run_until returns false,
        // then check that node 0 may hold a losing proposal while the
        // winning_state is always the global-minimum one.
        let states = random_states(600, 13);
        let expected_min = global_minimum(&states);
        let expected_payload = states.iter().find(|s| s.id == expected_min).unwrap().payload;
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = GossipEngine::new(states, ChurnModel::new(0.6));
        let ok = engine.run_until(&DisseminationProtocol, 3, &mut rng, |s| converged(s), None);
        assert!(!ok, "3 rounds at 60% churn must not converge a 600-node population");
        let winner = winning_state(engine.nodes());
        assert_eq!(winner.id, expected_min, "the global minimum can never be displaced");
        assert_eq!(winner.payload, expected_payload);
        // The old bug: some node (node 0 among them, for this seed) still
        // holds a different proposal — reading it would disagree with the
        // population's eventual agreement.
        assert!(
            engine.nodes().iter().any(|s| s.id != expected_min),
            "the run must be genuinely unconverged for this regression to bite"
        );
    }

    fn arena_and_vec_twins(
        population: usize,
        payload_len: usize,
        seed: u64,
    ) -> (MinIdArena, Vec<MinIdState<Vec<f64>>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let states: Vec<MinIdState<Vec<f64>>> = (0..population)
            .map(|_| {
                let id = rng.gen::<u64>();
                let payload: Vec<f64> = (0..payload_len).map(|_| rng.gen::<f64>()).collect();
                MinIdState::new(id, payload)
            })
            .collect();
        let arena = MinIdArena::build(population, payload_len, |node, row| {
            row.copy_from_slice(&states[node].payload);
            states[node].id
        });
        (arena, states)
    }

    fn assert_arena_matches_vec(arena: &MinIdArena, states: &[MinIdState<Vec<f64>>]) {
        for (node, state) in states.iter().enumerate() {
            assert_eq!(arena.id(node), state.id, "id of node {node}");
            assert_eq!(arena.payload(node), state.payload.as_slice(), "payload of node {node}");
        }
    }

    #[test]
    fn arena_exchanges_stay_in_lockstep_with_the_vec_store() {
        let (mut arena, mut states) = arena_and_vec_twins(200, 3, 21);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2_000 {
            let i = rng.gen_range(0..200usize);
            let c = loop {
                let c = rng.gen_range(0..200usize);
                if c != i {
                    break c;
                }
            };
            arena.apply_exchange(&DisseminationProtocol, i, c);
            states.apply_exchange(&DisseminationProtocol, i, c);
        }
        assert_arena_matches_vec(&arena, &states);
        assert_eq!(arena.converged(), converged(&states));
        assert_eq!(arena.id(arena.winning_node()), global_minimum(&states));
    }

    #[test]
    fn arena_parallel_batches_match_serial_application() {
        let population = 4_096;
        let (mut parallel, _) = arena_and_vec_twins(population, 2, 33);
        let mut serial = parallel.clone();
        // A node-disjoint batch large enough to trip the parallel path.
        let pairs: Vec<(u32, u32)> =
            (0..population as u32 / 2).map(|k| (2 * k, 2 * k + 1)).collect();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        ProtocolStore::apply_exchanges(&mut parallel, &pool, &DisseminationProtocol, &pairs);
        for &(i, c) in &pairs {
            ProtocolStore::apply_exchange(&mut serial, &DisseminationProtocol, i as usize, c as usize);
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sharded_engine_drives_the_arena_and_the_vec_store_identically() {
        // The sharded schedule is state-independent, so the same
        // (seed, config, shards) drives both storages through the same
        // exchange sequence; their states must stay equal throughout.
        use crate::sim::{AsyncNetworkConfig, LatencyModel, ShardedAsyncEngine};
        let (arena, states) = arena_and_vec_twins(96, 2, 55);
        let config = AsyncNetworkConfig::default()
            .with_latency(LatencyModel::Uniform { min: 0.05, max: 0.4 })
            .with_loss(0.05)
            .with_sim_shards(3);
        let mut arena_engine = ShardedAsyncEngine::new(arena, config.clone(), ChurnModel::new(0.1));
        let mut vec_engine = ShardedAsyncEngine::new(states, config, ChurnModel::new(0.1));
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        arena_engine.run_for(&DisseminationProtocol, 30.0, &mut rng_a);
        vec_engine.run_for(&DisseminationProtocol, 30.0, &mut rng_b);
        assert_eq!(arena_engine.metrics(), vec_engine.metrics());
        assert_arena_matches_vec(arena_engine.nodes(), vec_engine.nodes());
        assert!(arena_engine.nodes().converged(), "30s must converge 96 nodes");
    }

    #[test]
    fn round_engine_drives_the_arena_and_the_vec_store_identically() {
        // The round plan is state-independent too, so clones of one RNG
        // drive both storages through the same exchanges and stop them at
        // the same round, converged or not.
        for churn in [0.0, 0.3, 0.6] {
            let model = if churn == 0.0 { ChurnModel::NONE } else { ChurnModel::new(churn) };
            let (arena, states) = arena_and_vec_twins(120, 3, 77);
            let mut arena_engine = GossipEngine::new(arena, model);
            let mut vec_engine = GossipEngine::new(states, model);
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = rng_a.clone();
            let stopped_a =
                arena_engine.run_until(&DisseminationProtocol, 12, &mut rng_a, MinIdArena::converged, None);
            let stopped_b =
                vec_engine.run_until(&DisseminationProtocol, 12, &mut rng_b, |s| converged(s), None);
            assert_eq!(stopped_a, stopped_b, "stop flag at churn {churn}");
            assert_eq!(rng_a, rng_b, "RNG end state at churn {churn}");
            assert_eq!(arena_engine.metrics(), vec_engine.metrics(), "metrics at churn {churn}");
            let (arena, states) = (arena_engine.nodes(), vec_engine.nodes());
            assert_arena_matches_vec(arena, states);
            let (winner, expected) = (arena.winning_node(), winning_state(states));
            assert_eq!(arena.id(winner), expected.id);
            assert_eq!(arena.payload(winner), expected.payload.as_slice());
        }
    }

    #[test]
    fn dissemination_survives_churn() {
        let mut rng = StdRng::seed_from_u64(3);
        let states = random_states(1_000, 11);
        let expected_min = global_minimum(&states);
        let mut engine = GossipEngine::new(states, ChurnModel::new(0.25));
        let ok = engine.run_until(&DisseminationProtocol, 80, &mut rng, |s| converged(s), None);
        assert!(ok, "dissemination must still converge under 25% churn");
        assert_eq!(engine.nodes()[0].id, expected_min);
    }
}
