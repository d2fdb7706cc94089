//! Churn model: participants connect and disconnect arbitrarily.
//!
//! §6.1.5 of the paper models churn as a uniform probability for each
//! participant to be disconnected at each gossip exchange (and, at the
//! k-means level, at each iteration).

use rand::Rng;

/// The uniform-disconnection churn model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Probability that a given participant is offline at a given exchange.
    disconnection_probability: f64,
}

impl ChurnModel {
    /// No churn: every participant is always online.
    pub const NONE: ChurnModel = ChurnModel { disconnection_probability: 0.0 };

    /// Creates a churn model with the given per-exchange disconnection
    /// probability.
    ///
    /// # Panics
    /// Panics if the probability is outside `[0, 1)`.
    pub fn new(disconnection_probability: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&disconnection_probability),
            "disconnection probability must be in [0, 1), got {disconnection_probability}"
        );
        Self { disconnection_probability }
    }

    /// The disconnection probability.
    pub fn probability(&self) -> f64 {
        self.disconnection_probability
    }

    /// Samples whether a participant is online for the current exchange.
    pub fn is_online<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.disconnection_probability == 0.0 || rng.gen::<f64>() >= self.disconnection_probability
    }

    /// Samples one connectivity mask for a whole gossip round: entry `i` is
    /// whether participant `i` is online for that round (PeerSim semantics —
    /// a node's connectivity is a property of the round, not re-rolled at
    /// every contact attempt, so a node can never be observed both online
    /// and offline within the same round).
    ///
    /// With no churn the mask is all-online and consumes no randomness, so
    /// churn-free schedules stay byte-identical to a model-free run.
    pub fn sample_mask<R: Rng + ?Sized>(&self, population: usize, rng: &mut R) -> Vec<bool> {
        if self.disconnection_probability == 0.0 {
            vec![true; population]
        } else {
            (0..population).map(|_| self.is_online(rng)).collect()
        }
    }
}

impl Default for ChurnModel {
    fn default() -> Self {
        Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_churn_is_always_online() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(ChurnModel::NONE.is_online(&mut rng));
        }
    }

    #[test]
    fn churn_rate_matches_probability() {
        let churn = ChurnModel::new(0.25);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let offline = (0..n).filter(|_| !churn.is_online(&mut rng)).count();
        let rate = offline as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "disconnection probability")]
    fn probability_one_rejected() {
        ChurnModel::new(1.0);
    }

    #[test]
    #[should_panic(expected = "disconnection probability")]
    fn negative_probability_rejected() {
        ChurnModel::new(-0.1);
    }

    #[test]
    fn zero_probability_consumes_no_randomness() {
        // ChurnModel::NONE short-circuits, so a no-churn run must not burn
        // RNG draws: the downstream gossip schedule stays identical whether
        // the model was consulted or not.
        let mut with_model = StdRng::seed_from_u64(7);
        let without = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert!(ChurnModel::NONE.is_online(&mut with_model));
        }
        assert_eq!(with_model, without, "NONE must not advance the RNG");
    }

    #[test]
    fn mask_sampling_matches_probability_and_consumes_nothing_without_churn() {
        let mut rng = StdRng::seed_from_u64(5);
        let mask = ChurnModel::new(0.3).sample_mask(50_000, &mut rng);
        let online = mask.iter().filter(|&&b| b).count() as f64 / 50_000.0;
        assert!((online - 0.7).abs() < 0.01, "online rate = {online}");

        let mut with_model = StdRng::seed_from_u64(9);
        let untouched = StdRng::seed_from_u64(9);
        assert_eq!(ChurnModel::NONE.sample_mask(1_000, &mut with_model), vec![true; 1_000]);
        assert_eq!(with_model, untouched, "a churn-free mask must not advance the RNG");
    }

    #[test]
    fn default_is_no_churn() {
        assert_eq!(ChurnModel::default(), ChurnModel::NONE);
        assert_eq!(ChurnModel::NONE.probability(), 0.0);
        assert_eq!(ChurnModel::new(0.42).probability(), 0.42);
    }

    #[test]
    fn extreme_churn_rate_is_still_sampled_correctly() {
        let churn = ChurnModel::new(0.95);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let online = (0..n).filter(|_| churn.is_online(&mut rng)).count();
        let rate = online as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "online rate = {rate}");
    }
}
