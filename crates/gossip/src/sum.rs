//! The plaintext push-pull epidemic sum (§3.2 of the paper, after Kempe et
//! al. and Jelasity et al.).
//!
//! Every participant holds a local state `(σ, ω)`.  It initialises `σ` to its
//! local data and `ω` to zero — except one designated participant which sets
//! `ω = 1`.  At every exchange both peers replace their state with half of
//! the combined state.  The local estimate of the global sum is `σ / ω`,
//! which converges to the exact value exponentially fast.
//!
//! The figures measure its latency and error (Figures 3(b) and 4(a)), and
//! it is the plaintext mirror against which the encrypted EESum rule is
//! validated (Appendix C.2.1 claims the two are arithmetically
//! equivalent).  The run itself never gossips it: the contributor count of
//! the noise generation (§4.2.2) is read from the counter unit every
//! encrypted contribution carries.

use crate::engine::PairwiseProtocol;

/// Per-participant state of the push-pull sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumState {
    /// The running sum component σ.
    pub sigma: f64,
    /// The running weight component ω.
    pub omega: f64,
}

impl SumState {
    /// State of an ordinary participant holding `value`.
    pub fn new(value: f64) -> Self {
        Self { sigma: value, omega: 0.0 }
    }

    /// State of the single designated participant that seeds the weight.
    pub fn new_seed(value: f64) -> Self {
        Self { sigma: value, omega: 1.0 }
    }

    /// The local estimate `σ / ω` of the global sum; `None` while the weight
    /// has not reached this participant yet.
    pub fn estimate(&self) -> Option<f64> {
        if self.omega > 0.0 {
            Some(self.sigma / self.omega)
        } else {
            None
        }
    }
}

/// The push-pull averaging protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct PushPullSum;

impl PairwiseProtocol<SumState> for PushPullSum {
    fn exchange(&self, initiator: &mut SumState, contact: &mut SumState) {
        let sigma = 0.5 * (initiator.sigma + contact.sigma);
        let omega = 0.5 * (initiator.omega + contact.omega);
        initiator.sigma = sigma;
        initiator.omega = omega;
        contact.sigma = sigma;
        contact.omega = omega;
    }
}

/// Builds the initial population states for an epidemic sum over `values`
/// (the first participant is the weight seed, as footnote 5 of the paper
/// prescribes: exactly one participant sets ω = 1).
pub fn initial_states(values: &[f64]) -> Vec<SumState> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| if i == 0 { SumState::new_seed(v) } else { SumState::new(v) })
        .collect()
}

/// Summary of the convergence of an epidemic-sum run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SumConvergenceReport {
    /// The exact global sum.
    pub exact: f64,
    /// The worst (largest) relative estimation error across participants
    /// that hold an estimate.
    pub max_relative_error: f64,
    /// The mean relative error across participants that hold an estimate.
    pub mean_relative_error: f64,
    /// Fraction of participants that still have no estimate (ω = 0).
    pub without_estimate: f64,
}

/// Measures the convergence of a set of sum states against the exact value.
pub fn convergence_report(states: &[SumState], exact: f64) -> SumConvergenceReport {
    let mut errors = Vec::with_capacity(states.len());
    let mut missing = 0usize;
    for s in states {
        match s.estimate() {
            Some(est) => {
                let err = if exact == 0.0 { est.abs() } else { (est - exact).abs() / exact.abs() };
                errors.push(err);
            }
            None => missing += 1,
        }
    }
    // A run where *no* participant holds an estimate has not converged at
    // all: both aggregate errors must be infinite (a zero max would make a
    // fully-failed run look perfect on the worst-case metric).
    let (max, mean) = if errors.is_empty() {
        (f64::INFINITY, f64::INFINITY)
    } else {
        (
            errors.iter().copied().fold(0.0f64, f64::max),
            errors.iter().sum::<f64>() / errors.len() as f64,
        )
    };
    SumConvergenceReport {
        exact,
        max_relative_error: max,
        mean_relative_error: mean,
        without_estimate: missing as f64 / states.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::engine::GossipEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exchange_conserves_mass() {
        let mut a = SumState { sigma: 10.0, omega: 1.0 };
        let mut b = SumState { sigma: 4.0, omega: 0.0 };
        PushPullSum.exchange(&mut a, &mut b);
        assert_eq!(a.sigma + b.sigma, 14.0);
        assert_eq!(a.omega + b.omega, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_requires_weight() {
        assert!(SumState::new(5.0).estimate().is_none());
        assert_eq!(SumState::new_seed(5.0).estimate(), Some(5.0));
    }

    #[test]
    fn epidemic_sum_converges_to_exact_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..1_000).map(|i| (i % 17) as f64).collect();
        let exact: f64 = values.iter().sum();
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::NONE);
        engine.run_rounds(&PushPullSum, 60, &mut rng);
        let report = convergence_report(engine.nodes(), exact);
        assert_eq!(report.without_estimate, 0.0);
        assert!(report.max_relative_error < 1e-6, "max err = {}", report.max_relative_error);
    }

    #[test]
    fn error_decreases_with_more_rounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<f64> = vec![1.0; 500];
        let exact = 500.0;
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::NONE);
        engine.run_rounds(&PushPullSum, 10, &mut rng);
        let early = convergence_report(engine.nodes(), exact).mean_relative_error;
        engine.run_rounds(&PushPullSum, 30, &mut rng);
        let late = convergence_report(engine.nodes(), exact).mean_relative_error;
        assert!(late < early, "early={early}, late={late}");
        assert!(late < 1e-8);
    }

    #[test]
    fn epidemic_sum_tolerates_churn() {
        // Figure 3(b): even with 50% disconnection probability per exchange
        // the relative error remains a small fraction of the exact sum.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f64> = vec![1.0; 2_000];
        let exact = 2_000.0;
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::new(0.5));
        engine.run_rounds(&PushPullSum, 100, &mut rng);
        let report = convergence_report(engine.nodes(), exact);
        assert!(report.mean_relative_error < 1e-2, "mean err = {}", report.mean_relative_error);
    }

    #[test]
    fn fully_failed_run_reports_infinite_errors_on_both_metrics() {
        // Regression: when every node lacks an estimate (ω = 0 everywhere,
        // e.g. the weight seed crashed before its first exchange), the max
        // metric used to read 0.0 — a perfect score for a run that computed
        // nothing — while the mean was already INFINITY.
        let states = vec![SumState::new(3.0); 10];
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
        let mut states = vec![SumState::new(3.0); 4];
        states[0] = SumState { sigma: 33.0, omega: 1.0 };
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
        let values = vec![1.0; 300];
        let mut engine = GossipEngine::new(initial_states(&values), ChurnModel::NONE);
        engine.run_rounds(&PushPullSum, 50, &mut rng);
        let estimate = engine.nodes()[42].estimate().unwrap();
        assert!((estimate - 300.0).abs() < 1e-3);
    }
}
