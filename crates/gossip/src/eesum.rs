//! EESum: the epidemic sum over values that do not support division
//! (Algorithm 2 of the paper).
//!
//! The standard push-pull sum halves both peers' states at every exchange,
//! but additively-homomorphic ciphertexts only support addition and scalar
//! multiplication.  The EESum local update rule therefore *delays every
//! division*: instead of storing `σ / 2^n` it stores `σ` together with the
//! number of exchanges `n`, and when two peers with different exchange
//! counts meet, the lagging state is scaled by `2^{Δn}` before the addition.
//! Appendix C.2.1 shows the rule is arithmetically equivalent to the plain
//! rule; the property tests of this module check exactly that.
//!
//! The rule is expressed over the [`EpidemicValue`] trait so the same code
//! drives both a plaintext mirror ([`PlainVector`], used for validation and
//! large-scale simulation) and homomorphic ciphertext vectors (implemented
//! in `chiaroscuro-core`, which owns the crypto dependency).

use crate::engine::PairwiseProtocol;

/// A value that supports the two operations EESum needs: scaling by a power
/// of two and (homomorphic) addition.
pub trait EpidemicValue: Clone {
    /// Multiplies the value in place by `2^exponent`.
    fn scale_pow2(&mut self, exponent: u32);

    /// Adds `other` into `self` (dimension-wise for vectors).
    fn add_assign(&mut self, other: &Self);
}

/// A plaintext vector of f64s: the mirror implementation used to validate
/// the update rule and to run large-scale latency simulations without
/// paying the cryptographic cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainVector(pub Vec<f64>);

impl EpidemicValue for PlainVector {
    fn scale_pow2(&mut self, exponent: u32) {
        let factor = 2f64.powi(exponent as i32);
        for v in &mut self.0 {
            *v *= factor;
        }
    }

    fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "dimension mismatch in EESum addition");
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

/// Per-participant EESum state: the (scaled) value, the (scaled) weight and
/// the number of exchanges performed so far.
#[derive(Debug, Clone, PartialEq)]
pub struct EesState<V> {
    /// The scaled value `σ · 2^n` (encrypted in the real protocol).
    pub value: V,
    /// The scaled weight `ω · 2^n` (cleartext: it is data-independent).
    pub weight: f64,
    /// The number of exchanges `n` this state has participated in.
    pub exchanges: u32,
}

impl<V: EpidemicValue> EesState<V> {
    /// State of an ordinary participant.
    pub fn new(value: V) -> Self {
        Self { value, weight: 0.0, exchanges: 0 }
    }

    /// State of the single designated participant seeding the weight with 1.
    pub fn new_seed(value: V) -> Self {
        Self { value, weight: 1.0, exchanges: 0 }
    }

    /// Applies the scaling half of the update rule so that this state's
    /// exchange count reaches `target_exchanges`.
    fn scale_to(&mut self, target_exchanges: u32) {
        if target_exchanges > self.exchanges {
            let diff = target_exchanges - self.exchanges;
            self.value.scale_pow2(diff);
            self.weight *= 2f64.powi(diff as i32);
        }
    }
}

impl EesState<PlainVector> {
    /// The local estimate of the global per-dimension sums: `value / weight`
    /// (the pending power-of-two divisor cancels between numerator and
    /// denominator).  `None` while the weight is still zero.
    pub fn estimate(&self) -> Option<Vec<f64>> {
        if self.weight > 0.0 {
            Some(self.value.0.iter().map(|v| v / self.weight).collect())
        } else {
            None
        }
    }
}

/// The EESum protocol: Algorithm 2 applied symmetrically to both peers.
#[derive(Debug, Clone, Copy, Default)]
pub struct EesSumProtocol;

impl<V: EpidemicValue> PairwiseProtocol<EesState<V>> for EesSumProtocol {
    fn exchange(&self, initiator: &mut EesState<V>, contact: &mut EesState<V>) {
        // Line 1-5 of Algorithm 2: scale the lagging state.
        let target = initiator.exchanges.max(contact.exchanges);
        initiator.scale_to(target);
        contact.scale_to(target);
        // Line 6: add the remote value, bump the exchange count.  In the
        // push-pull exchange both peers end up with the identical combined
        // state (the divisor 2^{n+1} is implicit in the exchange count).
        initiator.value.add_assign(&contact.value);
        initiator.weight += contact.weight;
        initiator.exchanges = target + 1;
        contact.value.clone_from(&initiator.value);
        contact.weight = initiator.weight;
        contact.exchanges = initiator.exchanges;
    }
}

/// Builds the EESum initial states over per-participant local vectors; the
/// first participant seeds the weight.
pub fn initial_states<V: EpidemicValue>(values: Vec<V>) -> Vec<EesState<V>> {
    initial_states_seeded_at(values, 0)
}

/// [`initial_states`] with participant `seed` seeding the weight (a run
/// under a byzantine adversary seeds at an honest node).
pub fn initial_states_seeded_at<V: EpidemicValue>(values: Vec<V>, seed: usize) -> Vec<EesState<V>> {
    assert!(seed < values.len(), "the weight seed must be a participant");
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| if i == seed { EesState::new_seed(v) } else { EesState::new(v) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::GossipEngine;
    use crate::sum::{initial_states as plain_initial_states, PushPullSum, SumState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_sums(values: &[Vec<f64>]) -> Vec<f64> {
        let dims = values[0].len();
        let mut acc = vec![0.0; dims];
        for v in values {
            for (a, b) in acc.iter_mut().zip(v.iter()) {
                *a += b;
            }
        }
        acc
    }

    #[test]
    fn scale_pow2_multiplies_plain_vectors() {
        let mut v = PlainVector(vec![1.0, -2.0, 0.5]);
        v.scale_pow2(3);
        assert_eq!(v.0, vec![8.0, -16.0, 4.0]);
    }

    #[test]
    fn exchange_aligns_exchange_counts() {
        let mut a = EesState::new_seed(PlainVector(vec![4.0]));
        let mut b = EesState::new(PlainVector(vec![2.0]));
        // Give `a` a head start of 2 exchanges.
        a.exchanges = 2;
        a.value.scale_pow2(2);
        a.weight *= 4.0;
        EesSumProtocol.exchange(&mut a, &mut b);
        assert_eq!(a.exchanges, 3);
        assert_eq!(b.exchanges, 3);
        assert_eq!(a.value, b.value);
        // b's value must have been scaled by 2^2 before the addition.
        assert_eq!(a.value.0[0], 4.0 * 4.0 + 2.0 * 4.0);
    }

    #[test]
    fn eesum_converges_to_exact_sums() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 7) as f64, 1.0, (i % 3) as f64 * 0.5]).collect();
        let exact = exact_sums(&values);
        let states = initial_states(values.into_iter().map(PlainVector).collect());
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 60, &mut rng);
        for node in engine.nodes() {
            let est = node.estimate().expect("weight must have spread");
            for (e, x) in est.iter().zip(exact.iter()) {
                assert!((e - x).abs() / x.abs().max(1.0) < 1e-6, "estimate {e} vs exact {x}");
            }
        }
    }

    #[test]
    fn eesum_matches_plain_push_pull_sum() {
        // Appendix C.2.1: the scaled update rule is arithmetically equivalent
        // to the plain halving rule.  Drive both protocols with the same
        // exchange schedule and compare the estimates.
        let values: Vec<f64> = (0..128).map(|i| (i * 13 % 29) as f64).collect();
        let exact: f64 = values.iter().sum();
        let mut plain: Vec<SumState> = plain_initial_states(&values);
        let mut scaled: Vec<EesState<PlainVector>> =
            initial_states(values.iter().map(|&v| PlainVector(vec![v])).collect());
        // A fixed deterministic schedule of exchanges.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4_000 {
            let i = rand::Rng::gen_range(&mut rng, 0..values.len());
            let mut j = rand::Rng::gen_range(&mut rng, 0..values.len());
            while j == i {
                j = rand::Rng::gen_range(&mut rng, 0..values.len());
            }
            {
                let (a, b) = crate::engine::pair_mut(&mut plain, i, j);
                PushPullSum.exchange(a, b);
            }
            {
                let (a, b) = crate::engine::pair_mut(&mut scaled, i, j);
                EesSumProtocol.exchange(a, b);
            }
        }
        for (p, s) in plain.iter().zip(scaled.iter()) {
            match (p.estimate(), s.estimate()) {
                (Some(pe), Some(se)) => {
                    assert!((pe - se[0]).abs() / exact < 1e-9, "plain {pe} vs scaled {}", se[0]);
                }
                (None, None) => {}
                other => panic!("weight spread differs between the two rules: {other:?}"),
            }
        }
    }

    #[test]
    fn exchange_counter_growth_stays_within_the_packing_budget() {
        // The lane-packed encoding sizes its lanes for a worst-case
        // epidemic doubling allowance of 8·rounds + 32 (see
        // `chiaroscuro_core`'s runner).  The exchange counter grows faster
        // than the naive "2 per round" guess — within one round, sequential
        // exchanges cascade the max counter by ~5-6 (weakly increasing with
        // the population) — but it must stay comfortably inside that
        // budget, or packed runs would trip their decode-time guard.
        for &pop in &[16usize, 100, 1_000] {
            for &rounds in &[8u32, 12, 48] {
                for seed in 0..3u64 {
                    // Churn only removes exchanges from a round, so the
                    // no-churn case dominates — but the packed runner
                    // allows churn, so pin the law there too.
                    for churn in [ChurnModel::NONE, ChurnModel::new(0.25), ChurnModel::new(0.5)] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let states =
                        initial_states((0..pop).map(|i| PlainVector(vec![i as f64])).collect());
                    let mut engine = GossipEngine::new(states, churn);
                    engine.run_rounds(&EesSumProtocol, rounds, &mut rng);
                    let max_n = engine.nodes().iter().map(|n| n.exchanges).max().unwrap();
                    assert!(
                        max_n <= 8 * rounds + 32,
                        "pop {pop}, {rounds} rounds, seed {seed}: max exchange counter \
                         {max_n} breaches the packing doubling budget"
                    );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_conserve_mass() {
        let mut rng = StdRng::seed_from_u64(3);
        let states = initial_states((0..50).map(|i| PlainVector(vec![i as f64])).collect());
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 20, &mut rng);
        // The *unscaled* weights (weight / 2^exchanges) must still sum to 1.
        let total: f64 = engine.nodes().iter().map(|n| n.weight / 2f64.powi(n.exchanges as i32)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total unscaled weight = {total}");
    }

    #[test]
    fn eesum_with_churn_still_approximates() {
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<Vec<f64>> = vec![vec![1.0]; 1_000];
        let states = initial_states(values.into_iter().map(PlainVector).collect());
        let mut engine = GossipEngine::new(states, ChurnModel::new(0.25));
        engine.run_rounds(&EesSumProtocol, 80, &mut rng);
        let with_estimate: Vec<f64> = engine
            .nodes()
            .iter()
            .filter_map(|n| n.estimate().map(|e| e[0]))
            .collect();
        assert!(!with_estimate.is_empty());
        let mean = with_estimate.iter().sum::<f64>() / with_estimate.len() as f64;
        assert!((mean - 1_000.0).abs() / 1_000.0 < 0.01, "mean estimate = {mean}");
    }
}
