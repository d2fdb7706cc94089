//! Property-based tests for the gossip substrate: mass conservation of the
//! epidemic sum, Appendix C.2.1's bit-exact equivalence of the EESum rule
//! with the plain halving rule, monotone convergence of the min-id
//! dissemination, and engine bookkeeping.

use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena};
use chiaroscuro_gossip::eesum::{initial_states, EesState, EesSumProtocol};
use chiaroscuro_gossip::engine::{GossipEngine, PairwiseProtocol};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One-dimensional EESum states over `values`, the first seeding the weight.
fn scalar_states(values: &[f64]) -> Vec<EesState<f64>> {
    initial_states(values.to_vec())
}

/// A state's unscaled `(σ, ω)`: the pending `2^n` divided out.
fn unscaled(state: &EesState<f64>) -> (f64, f64) {
    let divisor = 2f64.powi(state.exchanges as i32);
    (state.value / divisor, state.weight / divisor)
}

/// The plain push-pull rule (Kempe et al.): both peers replace their
/// `(σ, ω)` by half the combined state.  The library gossips only EESum;
/// this is the independent reference Appendix C.2.1 compares it with.
struct HalvingSum;

impl PairwiseProtocol<(f64, f64)> for HalvingSum {
    fn exchange(&self, initiator: &mut (f64, f64), contact: &mut (f64, f64)) {
        let half = (0.5 * (initiator.0 + contact.0), 0.5 * (initiator.1 + contact.1));
        *initiator = half;
        *contact = half;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The EESum exchange conserves the unscaled mass, so the global
    /// invariants Σσ = Σ values and Σω = 1 hold after any schedule.
    #[test]
    fn push_pull_sum_conserves_mass(
        values in prop::collection::vec(-100.0f64..100.0, 2..40),
        rounds in 0u32..20,
        seed in any::<u64>(),
    ) {
        let exact: f64 = values.iter().sum();
        let mut engine = GossipEngine::new(scalar_states(&values), ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_rounds(&EesSumProtocol, rounds, &mut rng);
        let sigma_total: f64 = engine.nodes().iter().map(|s| unscaled(s).0).sum();
        let omega_total: f64 = engine.nodes().iter().map(|s| unscaled(s).1).sum();
        prop_assert!((sigma_total - exact).abs() < 1e-6 * exact.abs().max(1.0));
        prop_assert!((omega_total - 1.0).abs() < 1e-9);
    }

    /// With non-negative data every intermediate estimate is non-negative and
    /// finite (the rule only adds and scales by powers of two), and the
    /// unscaled weights never leave [0, 1].
    #[test]
    fn push_pull_estimates_stay_nonnegative_and_finite(
        values in prop::collection::vec(0.0f64..50.0, 4..40),
        rounds in 1u32..30,
        seed in any::<u64>(),
    ) {
        let mut engine = GossipEngine::new(scalar_states(&values), ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_rounds(&EesSumProtocol, rounds, &mut rng);
        for state in engine.nodes() {
            let (sigma, omega) = unscaled(state);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&omega));
            prop_assert!(sigma >= -1e-12 && state.value.is_finite() && state.weight.is_finite());
            if let Some(estimate) = state.estimate() {
                prop_assert!(estimate >= -1e-6 && estimate.is_finite());
            }
        }
    }

    /// Appendix C.2.1, bit for bit: under one exchange schedule (the round
    /// engine's, with churn) EESum's estimate `value / weight` equals the
    /// halving rule's `σ / ω` in every bit, at every node after every
    /// round, while the exchange counters stay below f64's range.  The
    /// `2^Δn` scalings are exact, so both rules round the same sums.
    #[test]
    fn eesum_is_arithmetically_equivalent_to_plain_rule(
        values in prop::collection::vec(-50.0f64..50.0, 2..48),
        rounds in 0u32..80,
        churn in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let halving = values.iter().enumerate().map(|(i, &v)| (v, if i == 0 { 1.0 } else { 0.0 })).collect();
        let mut plain: GossipEngine<Vec<(f64, f64)>> = GossipEngine::new(halving, ChurnModel::new(churn));
        let mut scaled = GossipEngine::new(scalar_states(&values), ChurnModel::new(churn));
        let (mut plain_rng, mut scaled_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for round in 0..rounds {
            plain.run_round(&HalvingSum, &mut plain_rng);
            scaled.run_round(&EesSumProtocol, &mut scaled_rng);
            for (node, (&(sigma, omega), state)) in plain.nodes().iter().zip(scaled.nodes()).enumerate() {
                prop_assert!(state.exchanges < 1_000, "node {} left the f64 range's margin", node);
                let reference = (omega > 0.0).then(|| (sigma / omega).to_bits());
                prop_assert_eq!(state.estimate().map(f64::to_bits), reference, "node {} after round {}", node, round);
            }
        }
        prop_assert_eq!(plain.metrics(), scaled.metrics(), "one schedule");
    }

    /// Min-id dissemination is monotone (the retained id never increases)
    /// and, once converged, everyone holds the global minimum.
    #[test]
    fn dissemination_is_monotone_and_reaches_the_minimum(
        ids in prop::collection::vec(any::<u64>(), 2..60),
        rounds in 1u32..40,
        seed in any::<u64>(),
    ) {
        let arena = MinIdArena::build(ids.len(), 1, |node, payload| {
            payload[0] = ids[node] as f64;
            ids[node]
        });
        let expected = *ids.iter().min().unwrap();
        let mut engine = GossipEngine::new(arena, ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut previous = ids.clone();
        for _ in 0..rounds {
            engine.run_round(&DisseminationProtocol, &mut rng);
            let current: Vec<u64> = engine.nodes().rows().map(|row| row[0]).collect();
            for (before, after) in previous.iter().zip(current.iter()) {
                prop_assert!(after <= before, "the retained id must never increase");
            }
            previous = current;
        }
        for &id in &previous {
            prop_assert!(id >= expected);
        }
        if engine.nodes().converged() {
            prop_assert!(previous.iter().all(|&id| id == expected));
        }
    }

    /// Engine bookkeeping: without churn every round produces exactly one
    /// exchange per node; with churn it can only produce fewer.
    #[test]
    fn engine_message_accounting_is_consistent(
        population in 2usize..200,
        rounds in 0u32..10,
        churn in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engine = GossipEngine::new(vec![0u64; population], ChurnModel::new(churn));
        struct Noop;
        impl PairwiseProtocol<u64> for Noop {
            fn exchange(&self, _: &mut u64, _: &mut u64) {}
        }
        engine.run_rounds(&Noop, rounds, &mut rng);
        let metrics = engine.metrics();
        prop_assert_eq!(metrics.rounds(), rounds);
        prop_assert!(metrics.exchanges() <= rounds as u64 * population as u64);
        prop_assert_eq!(metrics.messages(), metrics.exchanges() * 2);
        if churn == 0.0 {
            prop_assert_eq!(metrics.exchanges(), rounds as u64 * population as u64);
        }
    }
}
