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
//! rule; the crate's property tests check it bit for bit against a
//! halving reference.
//!
//! The rule is expressed over the [`EpidemicValue`] trait so the same code
//! drives both a one-dimensional plaintext mirror (`f64`: the latency and
//! error experiments of Figures 3(b) and 4(a), read through
//! [`convergence_report`]) and homomorphic ciphertext vectors (implemented
//! in `chiaroscuro-core`, which owns the crypto dependency).  The mirror is
//! the bare `f64`, held inline in each [`EesState`]: a million-node figure
//! run allocates nothing per node.
//!
//! An `f64` state holds the scaled value `σ · 2^n`, so it overflows once an
//! exchange counter `n` passes ≈ 1,023.  The report counts such states as
//! overflowed rather than reading their `∞ / ∞` estimate as a number.

use crate::engine::PairwiseProtocol;

/// A value that supports the two operations EESum needs: scaling by a power
/// of two and (homomorphic) addition.
pub trait EpidemicValue: Clone {
    /// Multiplies the value in place by `2^exponent`.
    fn scale_pow2(&mut self, exponent: u32);

    /// Adds `other` into `self` (dimension-wise for vectors).
    fn add_assign(&mut self, other: &Self);
}

/// A one-dimensional plaintext value: scaling multiplies by `2^exponent`,
/// addition is `+`.
impl EpidemicValue for f64 {
    fn scale_pow2(&mut self, exponent: u32) {
        *self *= 2f64.powi(exponent as i32);
    }

    fn add_assign(&mut self, other: &Self) {
        *self += other;
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

impl EesState<f64> {
    /// The local estimate of the global sum: `value / weight` (the pending
    /// power-of-two divisor cancels between numerator and denominator).
    /// `None` while the weight is still zero.
    pub fn estimate(&self) -> Option<f64> {
        (self.weight > 0.0).then(|| self.value / self.weight)
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

/// Summary of the convergence of a one-dimensional epidemic sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumConvergenceReport {
    /// The exact global sum.
    pub exact: f64,
    /// The worst (largest) relative estimation error across participants
    /// that hold an estimate.
    pub max_relative_error: f64,
    /// The mean relative error across participants that hold an estimate.
    pub mean_relative_error: f64,
    /// Fraction of participants that still have no estimate (weight 0).
    pub without_estimate: f64,
    /// Fraction of participants whose scaled value or weight is no longer
    /// finite: their exchange counter outgrew `f64`.  They hold no
    /// estimate and enter neither error.
    pub overflowed: f64,
}

/// Measures the convergence of `states` against the exact value.
pub fn convergence_report(states: &[EesState<f64>], exact: f64) -> SumConvergenceReport {
    let (mut max, mut total, mut estimates) = (0.0f64, 0.0, 0usize);
    let (mut missing, mut overflowed) = (0usize, 0usize);
    for s in states {
        if !(s.weight.is_finite() && s.value.is_finite()) {
            overflowed += 1;
        } else if let Some(est) = s.estimate() {
            let err = if exact == 0.0 { est.abs() } else { (est - exact).abs() / exact.abs() };
            max = max.max(err);
            total += err;
            estimates += 1;
        } else {
            missing += 1;
        }
    }
    // A run where *no* participant holds an estimate has not converged at
    // all: both aggregate errors must be infinite (a zero max would make a
    // fully-failed run look perfect on the worst-case metric).
    let (max, mean) = if estimates == 0 { (f64::INFINITY, f64::INFINITY) } else { (max, total / estimates as f64) };
    let share = |count: usize| count as f64 / states.len() as f64;
    SumConvergenceReport {
        exact,
        max_relative_error: max,
        mean_relative_error: mean,
        without_estimate: share(missing),
        overflowed: share(overflowed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::GossipEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One-dimensional states over `values`, the first seeding the weight.
    fn scalar_states(values: &[f64]) -> Vec<EesState<f64>> {
        initial_states(values.to_vec())
    }

    /// A state's unscaled `(σ, ω)`: the pending `2^n` divided out.
    fn unscaled(state: &EesState<f64>) -> (f64, f64) {
        let divisor = 2f64.powi(state.exchanges as i32);
        (state.value / divisor, state.weight / divisor)
    }

    #[test]
    fn scale_pow2_multiplies_plain_vectors() {
        let mut v = [1.0f64, -2.0, 0.5];
        v.iter_mut().for_each(|x| x.scale_pow2(3));
        assert_eq!(v, [8.0, -16.0, 4.0]);
    }

    #[test]
    fn exchange_aligns_exchange_counts() {
        let mut a = EesState::new_seed(4.0);
        let mut b = EesState::new(2.0);
        // Give `a` a head start of 2 exchanges.
        a.exchanges = 2;
        a.value.scale_pow2(2);
        a.weight *= 4.0;
        EesSumProtocol.exchange(&mut a, &mut b);
        assert_eq!(a.exchanges, 3);
        assert_eq!(b.exchanges, 3);
        assert_eq!(a.value, b.value);
        // b's value must have been scaled by 2^2 before the addition.
        assert_eq!(a.value, 4.0 * 4.0 + 2.0 * 4.0);
    }

    #[test]
    fn exchange_conserves_mass() {
        let mut a = EesState::new_seed(10.0);
        let mut b = EesState::new(4.0);
        EesSumProtocol.exchange(&mut a, &mut b);
        assert_eq!(a, b);
        let ((sigma_a, omega_a), (sigma_b, omega_b)) = (unscaled(&a), unscaled(&b));
        assert_eq!(sigma_a + sigma_b, 14.0);
        assert_eq!(omega_a + omega_b, 1.0);
    }

    #[test]
    fn estimate_requires_weight() {
        assert_eq!(EesState::new(5.0).estimate(), None);
        assert_eq!(EesState::new_seed(5.0).estimate(), Some(5.0));
    }

    /// A three-dimensional plaintext value, for the vector form of the rule
    /// the ciphertext vectors use.
    #[derive(Debug, Clone, PartialEq)]
    struct Triple([f64; 3]);

    impl EpidemicValue for Triple {
        fn scale_pow2(&mut self, exponent: u32) {
            self.0.iter_mut().for_each(|v| v.scale_pow2(exponent));
        }

        fn add_assign(&mut self, other: &Self) {
            self.0.iter_mut().zip(&other.0).for_each(|(a, b)| *a += b);
        }
    }

    #[test]
    fn eesum_converges_to_exact_sums() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<[f64; 3]> = (0..400).map(|i| [(i % 7) as f64, 1.0, (i % 3) as f64 * 0.5]).collect();
        let exact = values.iter().fold([0.0; 3], |acc, v| [acc[0] + v[0], acc[1] + v[1], acc[2] + v[2]]);
        let states = initial_states(values.into_iter().map(Triple).collect());
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 60, &mut rng);
        for node in engine.nodes() {
            assert!(node.weight > 0.0, "weight must have spread");
            for (value, x) in node.value.0.iter().zip(&exact) {
                let e = value / node.weight;
                assert!((e - x).abs() / x.abs().max(1.0) < 1e-6, "estimate {e} vs exact {x}");
            }
        }
    }

    #[test]
    fn epidemic_sum_converges_to_exact_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..1_000).map(|i| (i % 17) as f64).collect();
        let exact: f64 = values.iter().sum();
        let mut engine = GossipEngine::new(scalar_states(&values), ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 60, &mut rng);
        let report = convergence_report(engine.nodes(), exact);
        assert_eq!((report.without_estimate, report.overflowed), (0.0, 0.0));
        assert!(report.max_relative_error < 1e-6, "max err = {}", report.max_relative_error);
    }

    #[test]
    fn error_decreases_with_more_rounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let exact = 500.0;
        let mut engine = GossipEngine::new(scalar_states(&[1.0; 500]), ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 10, &mut rng);
        let early = convergence_report(engine.nodes(), exact).mean_relative_error;
        engine.run_rounds(&EesSumProtocol, 30, &mut rng);
        let late = convergence_report(engine.nodes(), exact).mean_relative_error;
        assert!(late < early, "early={early}, late={late}");
        assert!(late < 1e-8);
    }

    #[test]
    fn epidemic_sum_tolerates_churn() {
        // Figure 3(b): even with 50% disconnection probability per exchange
        // the relative error remains a small fraction of the exact sum.
        let mut rng = StdRng::seed_from_u64(3);
        let exact = 2_000.0;
        let mut engine = GossipEngine::new(scalar_states(&[1.0; 2_000]), ChurnModel::new(0.5));
        engine.run_rounds(&EesSumProtocol, 100, &mut rng);
        let report = convergence_report(engine.nodes(), exact);
        assert_eq!(report.overflowed, 0.0);
        assert!(report.mean_relative_error < 1e-2, "mean err = {}", report.mean_relative_error);
    }

    #[test]
    fn fully_failed_run_reports_infinite_errors_on_both_metrics() {
        // Regression: when every node lacks an estimate (weight 0
        // everywhere, e.g. the weight seed crashed before its first
        // exchange), the max metric used to read 0.0 — a perfect score for
        // a run that computed nothing — while the mean was already INFINITY.
        let states = vec![EesState::new(3.0); 10];
        let report = convergence_report(&states, 30.0);
        assert_eq!(report.without_estimate, 1.0);
        assert!(report.mean_relative_error.is_infinite());
        assert!(
            report.max_relative_error.is_infinite(),
            "a fully-failed run must not look perfect on the max metric (got {})",
            report.max_relative_error
        );
    }

    #[test]
    fn partial_weight_spread_still_reports_finite_errors() {
        // One node with an estimate is enough for finite aggregates; the
        // missing fraction is reported separately.
        let mut states = vec![EesState::new(3.0); 4];
        states[0] = EesState::new_seed(33.0);
        let report = convergence_report(&states, 30.0);
        assert!((report.without_estimate - 0.75).abs() < 1e-12);
        assert!((report.max_relative_error - 0.1).abs() < 1e-12);
        assert!((report.mean_relative_error - 0.1).abs() < 1e-12);
    }

    #[test]
    fn count_aggregate_is_a_sum_of_ones() {
        // The population counter of the noise generation counts participants
        // by summing local 1s.
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = GossipEngine::new(scalar_states(&[1.0; 300]), ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 50, &mut rng);
        let estimate = engine.nodes()[42].estimate().unwrap();
        assert!((estimate - 300.0).abs() < 1e-3);
    }

    #[test]
    fn overflowed_states_are_counted_apart_from_the_errors() {
        // Past ≈ 1,023 exchanges `2^n` leaves f64: a value or weight reads
        // ∞ and the estimate ∞ or NaN (`NaN.max(x)` is `x`, so a NaN error
        // would print as a perfect run).  Such states are overflowed, not
        // estimates, and the remaining states still report their errors.
        let overflowed = |value: f64, weight: f64| EesState { value, weight, exchanges: 1_100 };
        let states = [
            EesState::new_seed(33.0),
            overflowed(f64::INFINITY, f64::INFINITY),
            overflowed(f64::INFINITY, 1e300),
            EesState::new(3.0),
        ];
        let report = convergence_report(&states, 30.0);
        assert_eq!((report.overflowed, report.without_estimate), (0.5, 0.25));
        assert!((report.max_relative_error - 0.1).abs() < 1e-12, "{report:?}");
        assert_eq!(report.max_relative_error, report.mean_relative_error);
    }

    #[test]
    fn eesum_matches_plain_push_pull_sum() {
        // Appendix C.2.1: the scaled update rule is arithmetically equivalent
        // to the plain halving rule.  Drive both with the same exchange
        // schedule and compare the estimates; the halving reference is the
        // inline `(σ, ω)` average, not a second protocol.
        let values: Vec<f64> = (0..128).map(|i| (i * 13 % 29) as f64).collect();
        let exact: f64 = values.iter().sum();
        let mut plain: Vec<(f64, f64)> =
            values.iter().enumerate().map(|(i, &v)| (v, if i == 0 { 1.0 } else { 0.0 })).collect();
        let mut scaled = scalar_states(&values);
        // A fixed deterministic schedule of exchanges.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4_000 {
            let i = rand::Rng::gen_range(&mut rng, 0..values.len());
            let mut j = rand::Rng::gen_range(&mut rng, 0..values.len());
            while j == i {
                j = rand::Rng::gen_range(&mut rng, 0..values.len());
            }
            let half = (0.5 * (plain[i].0 + plain[j].0), 0.5 * (plain[i].1 + plain[j].1));
            (plain[i], plain[j]) = (half, half);
            let (a, b) = crate::engine::pair_mut(&mut scaled, i, j);
            EesSumProtocol.exchange(a, b);
        }
        for (&(sigma, omega), s) in plain.iter().zip(scaled.iter()) {
            match ((omega > 0.0).then(|| sigma / omega), s.estimate()) {
                (Some(pe), Some(se)) => {
                    assert!((pe - se).abs() / exact < 1e-9, "plain {pe} vs scaled {se}");
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
        // `chiaroscuro_core`'s `plan::RunPlan::new`).  The exchange counter
        // grows faster than the naive "2 per round" guess — within one
        // round, sequential exchanges cascade the max counter by ~5-6
        // (weakly increasing with the population) — but it must stay
        // comfortably inside that budget, or packed runs would trip their
        // decode-time guard.
        for &pop in &[16usize, 100, 1_000] {
            for &rounds in &[8u32, 12, 48] {
                for seed in 0..3u64 {
                    // Churn only removes exchanges from a round, so the
                    // no-churn case dominates — but the packed runner
                    // allows churn, so pin the law there too.
                    for churn in [ChurnModel::NONE, ChurnModel::new(0.25), ChurnModel::new(0.5)] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let states =
                        initial_states((0..pop).map(|i| i as f64).collect());
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
        let states = initial_states((0..50).map(|i| i as f64).collect());
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 20, &mut rng);
        // The *unscaled* weights (weight / 2^exchanges) must still sum to 1.
        let total: f64 = engine.nodes().iter().map(|n| unscaled(n).1).sum();
        assert!((total - 1.0).abs() < 1e-9, "total unscaled weight = {total}");
    }

    #[test]
    fn eesum_with_churn_still_approximates() {
        let mut rng = StdRng::seed_from_u64(4);
        let states = initial_states(vec![1.0; 1_000]);
        let mut engine = GossipEngine::new(states, ChurnModel::new(0.25));
        engine.run_rounds(&EesSumProtocol, 80, &mut rng);
        let with_estimate: Vec<f64> = engine
            .nodes()
            .iter()
            .filter_map(|n| n.estimate())
            .collect();
        assert!(!with_estimate.is_empty());
        let mean = with_estimate.iter().sum::<f64>() / with_estimate.len() as f64;
        assert!((mean - 1_000.0).abs() / 1_000.0 < 0.01, "mean estimate = {mean}");
    }
}
