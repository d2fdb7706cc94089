//! Epidemic dissemination of the smallest-identifier value (§4.2.2).
//!
//! When the number of actual noise-share contributors exceeds the expected
//! `nν`, each participant computes its own *correction* proposal and tags it
//! with a random identifier.  Proposals are gossiped, and at every exchange
//! both peers keep the proposal with the smallest identifier, so the whole
//! population converges on a single, unique correction (the unicity
//! requirement of the noise generation).
//!
//! A proposal is one row of `u64` cells, `[identifier, payload…]`, with the
//! `f64` payload stored as IEEE-754 bit patterns, and [`MinIdLayout`]'s
//! exchange is the one min-id rule over such rows: the simulated population
//! holds its rows in a [`MinIdArena`], a node actor holds its own row, and
//! the rows' cells, big-endian, are the proposal's wire form.

use crate::slab::{RowLayout, RowSlab};

/// The min-identifier dissemination protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisseminationProtocol;

/// The shape of a min-identifier row: the proposal identifier, then the
/// `f64` payload as IEEE-754 bit patterns (the form it already travels in on
/// the actor wire).
#[derive(Debug, Clone, PartialEq)]
pub struct MinIdLayout;

impl MinIdLayout {
    /// One proposal as a row: its identifier, then its payload's bit
    /// patterns.
    pub fn row(id: u64, payload: impl IntoIterator<Item = f64>) -> Vec<u64> {
        std::iter::once(id).chain(payload.into_iter().map(f64::to_bits)).collect()
    }

    /// The payload of a row, as `f64` values.
    pub fn payload(row: &[u64]) -> Vec<f64> {
        row[1..].iter().map(|&bits| f64::from_bits(bits)).collect()
    }
}

/// Flat storage for min-identifier dissemination over fixed-width `f64`
/// payload vectors.
///
/// The whole population lives in one flat allocation (a [`RowSlab`] of
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

    /// The proposal identifier currently retained by `node`.
    pub fn id(&self, node: usize) -> u64 {
        self.row(node)[0]
    }

    /// The payload currently retained by `node`.
    pub fn payload(&self, node: usize) -> Vec<f64> {
        MinIdLayout::payload(self.row(node))
    }

    /// Whether every node retains the same proposal identifier.
    pub fn converged(&self) -> bool {
        let first = self.id(0);
        self.rows().all(|row| row[0] == first)
    }

    /// The node holding the globally smallest identifier (the first such
    /// node, by [`winning_index`]) — the proposal the population is
    /// converging to, whether or not dissemination has finished.
    ///
    /// The min-id exchange can only ever *lower* a node's identifier, so the
    /// global minimum present after any number of rounds is the true winner;
    /// a reader must take this node's row rather than an arbitrary node's
    /// (under churn an unconverged node may still hold a losing proposal).
    pub fn winning_node(&self) -> usize {
        winning_index(self.rows().map(|row| row[0]))
    }
}

/// The position of the smallest identifier in `ids`, ties going to the
/// lower position: the proposal min-id dissemination settles on.  The
/// exchange only ever copies a smaller identifier over a larger one, so
/// over the proposals as drawn this is the winner of any exchange schedule
/// — converged or not, under churn, voids and crash windows alike.
///
/// # Panics
/// Panics if `ids` is empty.
pub fn winning_index(ids: impl IntoIterator<Item = u64>) -> usize {
    // `min_by_key` returns the first of equal minima.
    ids.into_iter().enumerate().min_by_key(|&(_, id)| id).expect("a winner needs at least one proposal").0
}

/// The min-id rule over one pair of rows: the smaller identifier wins on
/// both sides, ties going to the initiator, and the winning row overwrites
/// the losing one.
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
    use crate::engine::{GossipEngine, PairwiseProtocol, ProtocolStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An arena of `population` random proposals, each an identifier and a
    /// one-value payload drawn in that order.
    fn random_arena(population: usize, seed: u64) -> MinIdArena {
        let mut rng = StdRng::seed_from_u64(seed);
        MinIdArena::build(population, 1, |_, payload| {
            let id = rng.gen::<u64>();
            payload[0] = rng.gen::<f64>();
            id
        })
    }

    /// The smallest identifier present and the row that carries it.
    fn minimum(arena: &MinIdArena) -> (u64, Vec<u64>) {
        let row = arena.rows().min_by_key(|row| row[0]).expect("non-empty population");
        (row[0], row.to_vec())
    }

    #[test]
    fn exchange_keeps_smaller_identifier_on_both_sides() {
        let mut a = MinIdLayout::row(5, [1.5]);
        let mut b = MinIdLayout::row(2, [-0.25]);
        MinIdLayout.exchange_rows(&DisseminationProtocol, &mut a, &mut b);
        assert_eq!(a[0], 2);
        assert_eq!(b[0], 2);
        assert_eq!(MinIdLayout::payload(&a), [-0.25]);
        // Ties go to the initiator, whose row is copied bit for bit.
        let mut c = MinIdLayout::row(2, [-0.0]);
        MinIdLayout.exchange_rows(&DisseminationProtocol, &mut c, &mut a);
        assert_eq!(a, MinIdLayout::row(2, [-0.0]));
    }

    #[test]
    fn dissemination_converges_to_global_minimum() {
        let mut rng = StdRng::seed_from_u64(1);
        let arena = random_arena(2_000, 7);
        let (_, expected) = minimum(&arena);
        let mut engine = GossipEngine::new(arena, ChurnModel::NONE);
        let ok = engine.run_until(&DisseminationProtocol, 40, &mut rng, MinIdArena::converged, None);
        assert!(ok, "dissemination must converge within 40 rounds");
        for row in engine.nodes().rows() {
            assert_eq!(row, expected);
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
            let mut engine = GossipEngine::new(random_arena(population, seed), ChurnModel::NONE);
            let ok = engine.run_until(&DisseminationProtocol, 60, &mut rng, MinIdArena::converged, None);
            assert!(ok);
            rounds.push(engine.metrics().rounds());
        }
        assert!(rounds[0] <= 25 && rounds[1] <= 30, "rounds = {rounds:?}");
        assert!(rounds[1] <= rounds[0] + 10, "growth must be slow: {rounds:?}");
    }

    #[test]
    fn winning_state_is_correct_even_when_dissemination_did_not_converge() {
        // Regression for reading node 0 after a non-converged run: cut
        // dissemination short under heavy churn so run_until returns false,
        // then check that node 0 may hold a losing proposal while the
        // winning node always holds the global-minimum one.
        let arena = random_arena(600, 13);
        let (expected_min, expected) = minimum(&arena);
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = GossipEngine::new(arena, ChurnModel::new(0.6));
        let ok = engine.run_until(&DisseminationProtocol, 3, &mut rng, MinIdArena::converged, None);
        assert!(!ok, "3 rounds at 60% churn must not converge a 600-node population");
        let arena = engine.nodes();
        assert_eq!(arena.row(arena.winning_node()), expected, "the global minimum can never be displaced");
        // The old bug: some node (node 0 among them, for this seed) still
        // holds a different proposal — reading it would disagree with the
        // population's eventual agreement.
        assert!(
            arena.rows().any(|row| row[0] != expected_min),
            "the run must be genuinely unconverged for this regression to bite"
        );
    }

    /// An independent reference for the row rule: one boxed proposal per
    /// node, the smaller identifier overwriting the other (ties to the
    /// initiator).
    #[derive(Debug, Clone, PartialEq)]
    struct Reference {
        id: u64,
        payload: Vec<f64>,
    }

    impl PairwiseProtocol<Reference> for DisseminationProtocol {
        fn exchange(&self, initiator: &mut Reference, contact: &mut Reference) {
            if initiator.id <= contact.id {
                *contact = initiator.clone();
            } else {
                *initiator = contact.clone();
            }
        }
    }

    fn arena_and_vec_twins(population: usize, payload_len: usize, seed: u64) -> (MinIdArena, Vec<Reference>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let states: Vec<Reference> = (0..population)
            .map(|_| {
                let id = rng.gen::<u64>();
                let payload: Vec<f64> = (0..payload_len).map(|_| rng.gen::<f64>()).collect();
                Reference { id, payload }
            })
            .collect();
        let arena = MinIdArena::build(population, payload_len, |node, row| {
            row.copy_from_slice(&states[node].payload);
            states[node].id
        });
        (arena, states)
    }

    fn assert_arena_matches_vec(arena: &MinIdArena, states: &[Reference]) {
        for (node, state) in states.iter().enumerate() {
            assert_eq!(arena.id(node), state.id, "id of node {node}");
            assert_eq!(arena.payload(node), state.payload.as_slice(), "payload of node {node}");
        }
    }

    /// The reference population's winner: the first node of smallest id.
    fn reference_winner(states: &[Reference]) -> &Reference {
        states.iter().min_by_key(|s| s.id).expect("non-empty population")
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
        assert_eq!(arena.converged(), states.windows(2).all(|w| w[0].id == w[1].id));
        assert_eq!(arena.id(arena.winning_node()), reference_winner(&states).id);
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
        let agreed = |states: &Vec<Reference>| states.windows(2).all(|w| w[0].id == w[1].id);
        for churn in [0.0, 0.3, 0.6] {
            let model = if churn == 0.0 { ChurnModel::NONE } else { ChurnModel::new(churn) };
            let (arena, states) = arena_and_vec_twins(120, 3, 77);
            let mut arena_engine = GossipEngine::new(arena, model);
            let mut vec_engine = GossipEngine::new(states, model);
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = rng_a.clone();
            let stopped_a =
                arena_engine.run_until(&DisseminationProtocol, 12, &mut rng_a, MinIdArena::converged, None);
            let stopped_b = vec_engine.run_until(&DisseminationProtocol, 12, &mut rng_b, agreed, None);
            assert_eq!(stopped_a, stopped_b, "stop flag at churn {churn}");
            assert_eq!(rng_a, rng_b, "RNG end state at churn {churn}");
            assert_eq!(arena_engine.metrics(), vec_engine.metrics(), "metrics at churn {churn}");
            let (arena, states) = (arena_engine.nodes(), vec_engine.nodes());
            assert_arena_matches_vec(arena, states);
            let (winner, expected) = (arena.winning_node(), reference_winner(states));
            assert_eq!(arena.id(winner), expected.id);
            assert_eq!(arena.payload(winner), expected.payload.as_slice());
        }
    }

    #[test]
    fn an_identifier_only_arena_gossips_in_lockstep_with_the_full_rows() {
        // The min-id rule reads and writes identifiers only by copying
        // whole rows, so dropping the payload changes no schedule, stop or
        // fault: one seed drives both arenas to equal identifiers and equal
        // accounting after every round (window), converged or not, and the
        // full rows' winner carries the payload proposed with the smallest
        // identifier.
        use crate::sim::{run_phase, AdversaryModel, AdversaryState, AsyncNetworkConfig, NetworkModel, PhaseOpts};
        let population = 300;
        let (full, _) = arena_and_vec_twins(population, 3, 91);
        let ids = MinIdArena::build(population, 0, |node, _| full.id(node));
        let proposed = full.row(winning_index(full.rows().map(|row| row[0]))).to_vec();
        let async_two_shards = NetworkModel::Async(AsyncNetworkConfig::default().with_sim_shards(2));
        for network in [NetworkModel::Rounds, async_two_shards] {
            for budget in 1..=4 {
                let phase = |arena: &MinIdArena| {
                    let mut rng = StdRng::seed_from_u64(17);
                    let mut adversary = AdversaryState::new(AdversaryModel::mixed(0.3, 5), 23);
                    let opts = PhaseOpts { until: Some(&mut MinIdArena::converged), adversary: Some(&mut adversary) };
                    let (arena, stats) =
                        run_phase(&network, arena.clone(), ChurnModel::new(0.5), &DisseminationProtocol, budget, &mut rng, opts);
                    (arena, stats, adversary.take_stats())
                };
                let ((full, full_stats, full_faults), (ids, id_stats, id_faults)) = (phase(&full), phase(&ids));
                let at = format!("{network:?}, budget {budget}");
                assert_eq!(full_stats, id_stats, "{at}");
                assert_eq!(full_faults, id_faults, "{at}");
                assert!(full_faults.injected_total() > 0, "{at}: the adversary must void exchanges");
                assert!((0..population).all(|node| full.id(node) == ids.id(node)), "{at}");
                assert_eq!(full.converged(), ids.converged(), "{at}");
                assert!(!full_stats.converged, "{at}: the budget must be too short to converge");
                assert_eq!(full.row(full.winning_node()), proposed, "{at}");
            }
        }
    }

    #[test]
    fn winning_index_takes_the_smallest_identifier_and_the_lower_position_on_ties() {
        assert_eq!(winning_index([9, 4, 7, 4]), 1);
        assert_eq!(winning_index([3]), 0);
    }

    #[test]
    fn dissemination_survives_churn() {
        let mut rng = StdRng::seed_from_u64(3);
        let arena = random_arena(1_000, 11);
        let (expected_min, _) = minimum(&arena);
        let mut engine = GossipEngine::new(arena, ChurnModel::new(0.25));
        let ok = engine.run_until(&DisseminationProtocol, 80, &mut rng, MinIdArena::converged, None);
        assert!(ok, "dissemination must still converge under 25% churn");
        assert_eq!(engine.nodes().id(0), expected_min);
    }
}
