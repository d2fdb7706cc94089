//! (ε, δ)-probabilistic differential-privacy accounting (Definition 3 and
//! Appendix B of the paper).
//!
//! The gossip computation of sums is approximate, so Chiaroscuro relaxes
//! ε-differential privacy to its probabilistic variant: the mechanism is
//! ε-DP with probability at least δ.  This module implements:
//!
//! * the split of the global δ into a per-perturbed-value `δ_atom`
//!   (`δ_atom = δ^(1 / (n_max_it · 2n))`, Appendix B.1.1);
//! * Theorem 3 (Newscast convergence): the minimum number of gossip
//!   exchanges per participant needed to reach a target approximation error
//!   with probability `1 − ι`.
//!
//! The per-iteration ε values themselves come from
//! [`crate::budget::BudgetSchedule`], whose cumulative spend never exceeds
//! the total ε by construction.

/// Global probabilistic-DP parameters of a Chiaroscuro run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilisticDpParams {
    /// Total privacy budget ε (the paper uses ln 2 ≈ 0.69).
    pub epsilon: f64,
    /// Target probability δ with which ε-DP must hold (close to 1, e.g. 0.995).
    pub delta: f64,
    /// Maximum number of perturbed k-means iterations `n_max_it`.
    pub max_iterations: usize,
    /// Series length `n` (each iteration perturbs `2n` values per centroid
    /// pair of sum/count vectors in the δ split of Appendix B).
    pub series_length: usize,
}

impl ProbabilisticDpParams {
    /// Creates the parameter set.
    ///
    /// # Panics
    /// Panics if ε ≤ 0, δ ∉ (0, 1], or either count is zero.
    pub fn new(epsilon: f64, delta: f64, max_iterations: usize, series_length: usize) -> Self {
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be positive");
        assert!(delta > 0.0 && delta <= 1.0, "delta must be in (0, 1]");
        assert!(max_iterations > 0 && series_length > 0);
        Self { epsilon, delta, max_iterations, series_length }
    }

    /// The number of independently perturbed values the δ budget is split
    /// over: `n_max_it · 2n` (Appendix B.1.1).
    pub fn atoms(&self) -> usize {
        self.max_iterations * 2 * self.series_length
    }

    /// The per-value probability `δ_atom = δ^(1/atoms)`.
    pub fn delta_atom(&self) -> f64 {
        self.delta.powf(1.0 / self.atoms() as f64)
    }

    /// The per-value failure probability `ι = 1 − δ_atom` used by Theorem 3.
    pub fn iota(&self) -> f64 {
        1.0 - self.delta_atom()
    }
}

/// Theorem 3 (from Kowalczyk & Vlassis, Newscast EM): with probability
/// `1 − ι`, after
/// `ne = ⌈0.581 · (ln n_p + 2 ln s + 2 ln(1/e_max) + ln(1/ι))⌉`
/// exchanges per participant, every local estimate is within `e_max` of the
/// exact aggregate, where `n_p` is the population size and `s²` the data
/// variance.
pub fn exchanges_for(population: usize, data_variance: f64, e_max: f64, iota: f64) -> usize {
    assert!(population > 0, "population must be positive");
    assert!(data_variance > 0.0, "data variance must be positive");
    assert!(e_max > 0.0, "approximation error bound must be positive");
    assert!(iota > 0.0 && iota < 1.0, "iota must be in (0, 1)");
    let s = data_variance.sqrt();
    let value = 0.581
        * ((population as f64).ln() + 2.0 * s.ln() + 2.0 * (1.0 / e_max).ln() + (1.0 / iota).ln());
    value.ceil().max(1.0) as usize
}

/// Convenience wrapper: the number of exchanges needed for a Chiaroscuro run
/// with global parameters `params`, population `population` and expected data
/// variance `data_variance` (Appendix B worked example).
pub fn exchanges_for_params(params: &ProbabilisticDpParams, population: usize, data_variance: f64, e_max: f64) -> usize {
    exchanges_for(population, data_variance, e_max, params.iota())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example (Appendix B.1.1): δ = 0.995, e_max = 1e-12,
    /// s² = 1, n_max_it = 10, n_p = 1e6, n = 24 ⇒ δ_atom = 0.995^(1/480) and
    /// ne = 47 exchanges.
    #[test]
    fn appendix_b_worked_example() {
        let params = ProbabilisticDpParams::new(0.69, 0.995, 10, 24);
        assert_eq!(params.atoms(), 480);
        let delta_atom = params.delta_atom();
        assert!((delta_atom - 0.995f64.powf(1.0 / 480.0)).abs() < 1e-15);
        // δ_atom ≈ 1 − 1e-5.
        assert!((1.0 - delta_atom) < 2e-5 && (1.0 - delta_atom) > 5e-6);
        let ne = exchanges_for_params(&params, 1_000_000, 1.0, 1e-12);
        assert_eq!(ne, 47, "Theorem 3 worked example must give 47 exchanges");
    }

    #[test]
    fn footnote_11_example_is_about_one_hundred_exchanges() {
        // §6.3.2 footnote: ne = 100 exchanges with e_max = 1e-9-ish absolute
        // error on a 1M population — check the formula stays in that order of
        // magnitude.
        let ne = exchanges_for(1_000_000, 1.0, 1e-9, 1e-5);
        assert!((30..=110).contains(&ne), "ne = {ne}");
    }

    #[test]
    fn exchanges_grow_logarithmically_with_population() {
        let small = exchanges_for(1_000, 1.0, 1e-3, 1e-3);
        let large = exchanges_for(1_000_000, 1.0, 1e-3, 1e-3);
        assert!(large > small);
        // 1000x the population costs only ~ 0.581·ln(1000) ≈ 4 more exchanges.
        assert!(large - small <= 6, "small={small}, large={large}");
    }

    #[test]
    fn exchanges_grow_with_tighter_error() {
        let loose = exchanges_for(10_000, 1.0, 1e-1, 1e-3);
        let tight = exchanges_for(10_000, 1.0, 1e-6, 1e-3);
        assert!(tight > loose);
    }

    #[test]
    fn delta_atom_increases_with_more_atoms() {
        // Splitting δ over more values forces each value closer to certainty.
        let few = ProbabilisticDpParams::new(0.69, 0.995, 5, 20);
        let many = ProbabilisticDpParams::new(0.69, 0.995, 10, 24);
        assert!(many.delta_atom() > few.delta_atom());
        assert!(many.iota() < few.iota());
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1]")]
    fn invalid_delta_rejected() {
        ProbabilisticDpParams::new(0.69, 1.5, 10, 24);
    }
}
