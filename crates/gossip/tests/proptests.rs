//! Property-based tests for the gossip substrate: mass conservation of the
//! push-pull sum, arithmetic equivalence of the EESum rule, monotone
//! convergence of the min-id dissemination, and engine bookkeeping.

use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena};
use chiaroscuro_gossip::eesum::{initial_states as ees_states, EesSumProtocol, PlainVector};
use chiaroscuro_gossip::engine::{pair_mut, GossipEngine, PairwiseProtocol};
use chiaroscuro_gossip::sum::{initial_states, PushPullSum, SumState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The push-pull exchange conserves total σ and total ω exactly, so the
    /// global invariants Σσ = Σ values and Σω = 1 hold after any schedule.
    #[test]
    fn push_pull_sum_conserves_mass(
        values in prop::collection::vec(-100.0f64..100.0, 2..40),
        rounds in 0u32..20,
        seed in any::<u64>(),
    ) {
        let exact: f64 = values.iter().sum();
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_rounds(&PushPullSum, rounds, &mut rng);
        let sigma_total: f64 = engine.nodes().iter().map(|s| s.sigma).sum();
        let omega_total: f64 = engine.nodes().iter().map(|s| s.omega).sum();
        prop_assert!((sigma_total - exact).abs() < 1e-6 * exact.abs().max(1.0));
        prop_assert!((omega_total - 1.0).abs() < 1e-9);
    }

    /// With non-negative data every intermediate estimate is non-negative and
    /// finite (σ and ω are preserved non-negative by the averaging rule), and
    /// the weights themselves never leave [0, 1].
    #[test]
    fn push_pull_estimates_stay_nonnegative_and_finite(
        values in prop::collection::vec(0.0f64..50.0, 4..40),
        rounds in 1u32..30,
        seed in any::<u64>(),
    ) {
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::NONE);
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_rounds(&PushPullSum, rounds, &mut rng);
        for state in engine.nodes() {
            prop_assert!(state.omega >= 0.0 && state.omega <= 1.0 + 1e-12);
            prop_assert!(state.sigma >= -1e-12 && state.sigma.is_finite());
            if let Some(estimate) = state.estimate() {
                prop_assert!(estimate >= -1e-6 && estimate.is_finite());
            }
        }
    }

    /// EESum (Algorithm 2) and the plain halving rule are arithmetically
    /// equivalent under an identical exchange schedule — Appendix C.2.1.
    #[test]
    fn eesum_is_arithmetically_equivalent_to_plain_rule(
        values in prop::collection::vec(-20.0f64..20.0, 2..16),
        exchanges in 0usize..200,
        seed in any::<u64>(),
    ) {
        let mut plain: Vec<SumState> = initial_states(&values);
        let mut scaled = ees_states(values.iter().map(|&v| PlainVector(vec![v])).collect());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..exchanges {
            let i = rand::Rng::gen_range(&mut rng, 0..values.len());
            let mut j = rand::Rng::gen_range(&mut rng, 0..values.len());
            while j == i {
                j = rand::Rng::gen_range(&mut rng, 0..values.len());
            }
            let (a, b) = pair_mut(&mut plain, i, j);
            PushPullSum.exchange(a, b);
            let (a, b) = pair_mut(&mut scaled, i, j);
            EesSumProtocol.exchange(a, b);
        }
        for (p, s) in plain.iter().zip(scaled.iter()) {
            match (p.estimate(), s.estimate()) {
                (Some(pe), Some(se)) => prop_assert!((pe - se[0]).abs() <= 1e-6 * pe.abs().max(1.0)),
                (None, None) => {}
                other => prop_assert!(false, "weight spread mismatch: {other:?}"),
            }
        }
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
