//! Per-edge message-latency distributions for the asynchronous simulator.
//!
//! The paper's PeerSim evaluation (§6.3) delivers gossip messages with
//! realistic, heterogeneous delays rather than in lockstep rounds.  A
//! [`LatencyModel`] samples one delay per message; the engine additionally
//! applies a deterministic per-edge factor so that a pair of nodes can be
//! persistently near or far (see
//! [`AsyncNetworkConfig::edge_spread`](crate::sim::AsyncNetworkConfig)).

use rand::Rng;

/// A message-delay distribution, in exchange periods (the engine's only
/// time unit: a latency of `1.0` means "one full gossip period in
/// transit").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.  `Constant(0.0)` consumes no
    /// randomness, so a zero-latency schedule stays byte-comparable to a
    /// latency-free run.
    Constant(f64),
    /// Uniform delay in `[min, max)`.
    Uniform {
        /// Smallest possible delay.
        min: f64,
        /// Largest possible delay.
        max: f64,
    },
    /// Log-normal delay — the standard model for wide-area network latency
    /// (a heavy right tail over a stable median).
    LogNormal {
        /// The distribution's median `exp(μ)` (50% of messages are faster).
        median: f64,
        /// The shape parameter σ of the underlying normal; `0.5` gives a
        /// realistic WAN-like spread (p99 ≈ 3.2× the median).
        sigma: f64,
    },
}

impl LatencyModel {
    /// Instant delivery (consumes no randomness).
    pub const ZERO: LatencyModel = LatencyModel::Constant(0.0);

    /// Checks the parameters are usable.
    ///
    /// # Panics
    /// Panics on negative, NaN or infinite parameters, or an empty uniform
    /// range.
    pub fn validate(&self) {
        match *self {
            LatencyModel::Constant(delay) => {
                assert!(delay.is_finite() && delay >= 0.0, "constant latency must be finite and >= 0, got {delay}");
            }
            LatencyModel::Uniform { min, max } => {
                assert!(min.is_finite() && min >= 0.0, "uniform latency min must be finite and >= 0, got {min}");
                assert!(max.is_finite() && max > min, "uniform latency needs min < max, got [{min}, {max})");
            }
            LatencyModel::LogNormal { median, sigma } => {
                assert!(median.is_finite() && median > 0.0, "log-normal median must be finite and > 0, got {median}");
                assert!(sigma.is_finite() && sigma >= 0.0, "log-normal sigma must be finite and >= 0, got {sigma}");
            }
        }
    }

    /// Draws one message delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencyModel::Constant(delay) => delay,
            LatencyModel::Uniform { min, max } => rng.gen_range(min..max),
            LatencyModel::LogNormal { median, sigma } => {
                // Box–Muller over two uniform draws; 1 - u keeps the first
                // draw strictly positive so ln never sees zero.
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                median * (sigma * z).exp()
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_latency_consumes_no_randomness() {
        let mut with = StdRng::seed_from_u64(1);
        let untouched = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(LatencyModel::Constant(0.25).sample(&mut with), 0.25);
        }
        assert_eq!(with, untouched, "constant latency must not advance the RNG");
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let model = LatencyModel::Uniform { min: 0.1, max: 0.9 };
        model.validate();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let d = model.sample(&mut rng);
            assert!((0.1..0.9).contains(&d), "delay {d} out of range");
        }
    }

    #[test]
    fn log_normal_median_and_tail_are_plausible() {
        let model = LatencyModel::LogNormal { median: 0.2, sigma: 0.5 };
        model.validate();
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples: Vec<f64> = (0..50_000).map(|_| model.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 0.2).abs() < 0.01, "empirical median {median}");
        let p99 = samples[samples.len() * 99 / 100];
        // exp(2.326 * 0.5) ≈ 3.2× the median.
        assert!((p99 / 0.2 - 3.2).abs() < 0.3, "p99/median = {}", p99 / 0.2);
        assert!(samples.iter().all(|&d| d > 0.0 && d.is_finite()));
    }

    #[test]
    #[should_panic(expected = "min < max")]
    fn empty_uniform_range_rejected() {
        LatencyModel::Uniform { min: 0.5, max: 0.5 }.validate();
    }

    #[test]
    #[should_panic(expected = "median must be finite")]
    fn zero_log_normal_median_rejected() {
        LatencyModel::LogNormal { median: 0.0, sigma: 0.5 }.validate();
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_constant_rejected() {
        LatencyModel::Constant(-1.0).validate();
    }

    #[test]
    fn default_is_zero_latency() {
        assert_eq!(LatencyModel::default(), LatencyModel::ZERO);
    }
}
