//! Privacy-budget concentration strategies (§5.1 of the paper).
//!
//! The total privacy budget `ε` must be split across the k-means iterations.
//! Because k-means gains most of its quality in the first iterations
//! (logarithmic error-loss rate), the paper concentrates the budget early:
//!
//! * **GREEDY** — iteration `i` (1-based) receives `ε / 2^i`; the geometric
//!   series never exceeds `ε`;
//! * **GREEDY_FLOOR** — the GREEDY assignment is spread over floors of `f`
//!   iterations: each of the first `f` iterations receives `ε / (2f)`, each
//!   of the next `f` receives `ε / (4f)`, and so on;
//! * **UNIFORM_FAST** — the number of iterations is capped at a small limit
//!   and the budget split uniformly among them.

/// Which budget-concentration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetStrategy {
    /// GREEDY (G): exponential decay, 1/2ⁱ of the budget to iteration i.
    Greedy,
    /// GREEDY_FLOOR (GF): exponential decay by floors of `floor_size`
    /// iterations.
    GreedyFloor {
        /// Number of consecutive iterations sharing the same assignment
        /// (the paper uses 4).
        floor_size: usize,
    },
    /// UNIFORM_FAST (UF): uniform split over at most `max_iterations`
    /// iterations (the paper uses 5 or 10).
    UniformFast {
        /// Hard limit on the number of perturbed iterations.
        max_iterations: usize,
    },
}

/// A concrete per-iteration ε schedule for a total budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSchedule {
    strategy: BudgetStrategy,
    total_epsilon: f64,
    max_iterations: usize,
}

impl BudgetSchedule {
    /// Creates a schedule for `total_epsilon` over at most `max_iterations`
    /// iterations.
    ///
    /// For [`BudgetStrategy::UniformFast`] the effective iteration limit is
    /// the *minimum* of the strategy's own limit and `max_iterations`.
    ///
    /// # Panics
    /// Panics if `total_epsilon <= 0`, `max_iterations == 0`, or a strategy
    /// parameter is zero.
    pub fn new(strategy: BudgetStrategy, total_epsilon: f64, max_iterations: usize) -> Self {
        assert!(total_epsilon.is_finite() && total_epsilon > 0.0, "epsilon must be positive");
        assert!(max_iterations > 0, "max_iterations must be positive");
        match strategy {
            BudgetStrategy::GreedyFloor { floor_size } => {
                assert!(floor_size > 0, "floor_size must be positive");
            }
            BudgetStrategy::UniformFast { max_iterations: m } => {
                assert!(m > 0, "UNIFORM_FAST iteration limit must be positive");
            }
            BudgetStrategy::Greedy => {}
        }
        Self { strategy, total_epsilon, max_iterations }
    }

    /// The strategy of this schedule.
    pub fn strategy(&self) -> BudgetStrategy {
        self.strategy
    }

    /// The total privacy budget ε.
    pub fn total_epsilon(&self) -> f64 {
        self.total_epsilon
    }

    /// The number of iterations that receive a non-zero budget.
    pub fn effective_iterations(&self) -> usize {
        match self.strategy {
            BudgetStrategy::UniformFast { max_iterations } => max_iterations.min(self.max_iterations),
            _ => self.max_iterations,
        }
    }

    /// The privacy budget `εᵢ` assigned to iteration `iteration`
    /// (0-based).  Returns 0 beyond the effective iteration limit.
    pub fn epsilon_for_iteration(&self, iteration: usize) -> f64 {
        if iteration >= self.effective_iterations() {
            return 0.0;
        }
        match self.strategy {
            BudgetStrategy::Greedy => {
                // 1-based exponent: iteration 0 gets ε/2, iteration 1 gets ε/4, ...
                self.total_epsilon / 2f64.powi(iteration as i32 + 1)
            }
            BudgetStrategy::GreedyFloor { floor_size } => {
                let floor = iteration / floor_size;
                self.total_epsilon / (2f64.powi(floor as i32 + 1) * floor_size as f64)
            }
            BudgetStrategy::UniformFast { .. } => {
                self.total_epsilon / self.effective_iterations() as f64
            }
        }
    }

    /// The cumulative budget spent after `iterations` iterations.
    pub fn cumulative_epsilon(&self, iterations: usize) -> f64 {
        (0..iterations).map(|i| self.epsilon_for_iteration(i)).sum()
    }

    /// Verifies the invariant that the schedule never exceeds the total
    /// budget, whatever the number of iterations actually executed.
    pub fn never_exceeds_budget(&self) -> bool {
        self.cumulative_epsilon(self.max_iterations.max(64)) <= self.total_epsilon + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.69; // ln 2, the paper's setting.

    #[test]
    fn greedy_halves_each_iteration() {
        let s = BudgetSchedule::new(BudgetStrategy::Greedy, EPS, 10);
        assert!((s.epsilon_for_iteration(0) - EPS / 2.0).abs() < 1e-12);
        assert!((s.epsilon_for_iteration(1) - EPS / 4.0).abs() < 1e-12);
        assert!((s.epsilon_for_iteration(4) - EPS / 32.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_floor_is_constant_within_a_floor() {
        let s = BudgetSchedule::new(BudgetStrategy::GreedyFloor { floor_size: 4 }, EPS, 10);
        let first_floor: Vec<f64> = (0..4).map(|i| s.epsilon_for_iteration(i)).collect();
        assert!(first_floor.iter().all(|&e| (e - EPS / 8.0).abs() < 1e-12));
        let second_floor = s.epsilon_for_iteration(4);
        assert!((second_floor - EPS / 16.0).abs() < 1e-12);
        assert!(second_floor < first_floor[0]);
    }

    #[test]
    fn uniform_fast_splits_evenly_and_stops() {
        let s = BudgetSchedule::new(BudgetStrategy::UniformFast { max_iterations: 5 }, EPS, 10);
        for i in 0..5 {
            assert!((s.epsilon_for_iteration(i) - EPS / 5.0).abs() < 1e-12);
        }
        assert_eq!(s.epsilon_for_iteration(5), 0.0);
        assert_eq!(s.effective_iterations(), 5);
    }

    #[test]
    fn uniform_fast_respects_outer_limit() {
        let s = BudgetSchedule::new(BudgetStrategy::UniformFast { max_iterations: 10 }, EPS, 5);
        assert_eq!(s.effective_iterations(), 5);
        assert!((s.epsilon_for_iteration(0) - EPS / 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_strategies_respect_total_budget() {
        let strategies = [
            BudgetStrategy::Greedy,
            BudgetStrategy::GreedyFloor { floor_size: 4 },
            BudgetStrategy::GreedyFloor { floor_size: 1 },
            BudgetStrategy::UniformFast { max_iterations: 5 },
            BudgetStrategy::UniformFast { max_iterations: 10 },
        ];
        for strat in strategies {
            let s = BudgetSchedule::new(strat, EPS, 10);
            assert!(s.never_exceeds_budget(), "{strat:?} exceeds the budget");
            assert!(s.cumulative_epsilon(10) <= EPS + 1e-12);
        }
    }

    #[test]
    fn uniform_fast_spends_exactly_the_budget() {
        let s = BudgetSchedule::new(BudgetStrategy::UniformFast { max_iterations: 5 }, EPS, 10);
        assert!((s.cumulative_epsilon(10) - EPS).abs() < 1e-12);
    }

    #[test]
    fn greedy_first_iterations_get_more_than_uniform() {
        // The whole point of budget concentration: early iterations are less
        // noisy under GREEDY than under a 10-iteration uniform split.
        let g = BudgetSchedule::new(BudgetStrategy::Greedy, EPS, 10);
        let uniform_10 = EPS / 10.0;
        assert!(g.epsilon_for_iteration(0) > uniform_10);
        assert!(g.epsilon_for_iteration(1) > uniform_10);
    }

    #[test]
    fn greedy_noise_eventually_overwhelms() {
        // Later GREEDY iterations get vanishing budget, hence exploding noise
        // (the paper's motivation for the iteration cap).
        let g = BudgetSchedule::new(BudgetStrategy::Greedy, EPS, 20);
        assert!(g.epsilon_for_iteration(15) < 1e-4 * EPS);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn negative_epsilon_rejected() {
        BudgetSchedule::new(BudgetStrategy::Greedy, -1.0, 10);
    }
}
