//! Infinitely-divisible Laplace noise (Lemma 1) and per-participant noise
//! shares (Definition 5).
//!
//! A Laplace variable `L(λ)` equals in distribution the sum of `nν`
//! independent *noise shares* `νᵢ = G₁(nν, λ) − G₂(nν, λ)`, where `G₁` and
//! `G₂` are i.i.d. Gamma variables with shape `1/nν` and scale `λ`.  In
//! Chiaroscuro each participant draws one share locally, encrypts it, and
//! the epidemic sum of shares yields the collaborative Laplace perturbation
//! that no single participant knows.

use rand::Rng;

use crate::gamma::Gamma;

/// Default number of Laplace-scale e-folds a packed-encoding lane reserves
/// for one noise share (see [`NoiseShareGenerator::magnitude_bound`]).
///
/// Each half of a share is `Gamma(1/nν, λ)` with shape ≤ 1, whose tail is
/// dominated by the exponential: `P(|ν| > t·λ) ≲ 2·e^{-t}`.  At `t = 64`
/// that is ~3·10⁻²⁸ per draw — even 3M participants × 50k coordinates ×
/// dozens of iterations stay below 10⁻¹⁵ overall, and a violation panics at
/// pack time instead of corrupting a lane.
pub const LANE_TAIL_E_FOLDS: f64 = 64.0;

/// One participant's noise share (Definition 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseShare {
    /// The sampled value `ν = G₁ − G₂`.
    pub value: f64,
}

/// Generator of noise shares for a target Laplace scale and a share count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseShareGenerator {
    /// Total number of shares `nν` whose sum forms the Laplace noise.
    num_shares: usize,
    /// Target Laplace scale `λ`.
    scale: f64,
}

impl NoiseShareGenerator {
    /// Creates a generator for `nν` shares and Laplace scale `λ`.
    ///
    /// # Panics
    /// Panics if `num_shares` is zero or `scale` is not strictly positive.
    pub fn new(num_shares: usize, scale: f64) -> Self {
        assert!(num_shares > 0, "the number of noise shares must be positive");
        assert!(scale.is_finite() && scale > 0.0, "the Laplace scale must be positive");
        Self { num_shares, scale }
    }

    /// The number of shares `nν`.
    pub fn num_shares(&self) -> usize {
        self.num_shares
    }

    /// The target Laplace scale `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The Gamma distribution of each half of a share: shape `1/nν`,
    /// scale `λ`.
    fn component(&self) -> Gamma {
        Gamma::new(1.0 / self.num_shares as f64, self.scale)
    }

    /// Draws one noise share.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> NoiseShare {
        let g = self.component();
        NoiseShare { value: g.sample(rng) - g.sample(rng) }
    }

    /// The per-share magnitude a packed-encoding lane must accommodate so
    /// that injecting one share per lane cannot overflow it in any run that
    /// will realistically ever happen ([`LANE_TAIL_E_FOLDS`] e-folds of the
    /// Laplace scale; the tail probability is ~10⁻²⁸ per draw).
    ///
    /// Sampling is **not** clamped to this bound — that would bias the DP
    /// noise and break packed/unpacked bit-equality.  A share beyond the
    /// bound is instead rejected loudly at pack time.
    pub fn magnitude_bound(&self) -> f64 {
        self.magnitude_bound_with(LANE_TAIL_E_FOLDS)
    }

    /// [`Self::magnitude_bound`] with an explicit number of e-folds.
    ///
    /// # Panics
    /// Panics unless `e_folds` is strictly positive and finite.
    pub fn magnitude_bound_with(&self, e_folds: f64) -> f64 {
        assert!(e_folds.is_finite() && e_folds > 0.0, "e-folds must be positive");
        e_folds * self.scale
    }

    /// Draws a whole vector of shares (one per dimension of a time-series),
    /// as a participant does for the `k · (n + 1)` Laplace noises of one
    /// iteration.
    pub fn sample_vector<R: Rng + ?Sized>(&self, dimensions: usize, rng: &mut R) -> Vec<NoiseShare> {
        (0..dimensions).map(|_| self.sample(rng)).collect()
    }

    /// Draws the *surplus correction* of §4.2.2: when `extra` more
    /// participants than expected contributed shares, the correction is
    /// distributed as the sum of `extra` freshly drawn shares, to be
    /// subtracted from the aggregated noise so that exactly `nν` shares
    /// remain in expectation.
    ///
    /// Sampled in O(1) rather than by summing `extra` individual shares:
    /// each share is `G₁(1/nν, λ) − G₂(1/nν, λ)`, and Gamma variables of a
    /// common scale are additive in the shape, so the sum of `extra` i.i.d.
    /// shares equals in distribution `G₁(extra/nν, λ) − G₂(extra/nν, λ)`.
    /// An unconverged contributor counter can report a surplus on the order
    /// of the population, which made the per-share loop
    /// O(population · dimensions) per proposal — quadratic across the
    /// population — where the aggregate draw is constant-time.
    pub fn sample_correction<R: Rng + ?Sized>(&self, extra: usize, rng: &mut R) -> f64 {
        if extra == 0 {
            return 0.0;
        }
        let g = Gamma::new(extra as f64 / self.num_shares as f64, self.scale);
        g.sample(rng) - g.sample(rng)
    }
}

/// Sums a slice of noise shares, yielding (a sample of) the aggregated
/// Laplace noise.
pub fn aggregate(shares: &[NoiseShare]) -> f64 {
    shares.iter().map(|s| s.value).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::Laplace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "noise shares must be positive")]
    fn zero_shares_rejected() {
        NoiseShareGenerator::new(0, 1.0);
    }

    #[test]
    fn shares_have_zero_mean() {
        let gen = NoiseShareGenerator::new(100, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean = (0..n).map(|_| gen.sample(&mut rng).value).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn sum_of_shares_matches_laplace_variance() {
        // Lemma 1: the sum of nν shares has the same distribution as L(λ);
        // in particular the variance must match 2λ².
        let nu = 50usize;
        let scale = 3.0;
        let gen = NoiseShareGenerator::new(nu, scale);
        let target = Laplace::new(scale);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let sums: Vec<f64> = (0..trials)
            .map(|_| aggregate(&gen.sample_vector(nu, &mut rng)))
            .collect();
        let mean = sums.iter().sum::<f64>() / trials as f64;
        let var = sums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
        assert!(mean.abs() < 0.2, "mean={mean}");
        assert!(
            (var - target.variance()).abs() / target.variance() < 0.1,
            "var={var}, expected {}",
            target.variance()
        );
    }

    #[test]
    fn sum_of_shares_tail_matches_laplace() {
        // Check a tail probability: P(|L(λ)| > 2λ) = e^{-2} ≈ 0.1353.
        let nu = 20usize;
        let scale = 1.0;
        let gen = NoiseShareGenerator::new(nu, scale);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 30_000;
        let exceed = (0..trials)
            .filter(|_| {
                let total: f64 = (0..nu).map(|_| gen.sample(&mut rng).value).sum();
                total.abs() > 2.0 * scale
            })
            .count();
        let frac = exceed as f64 / trials as f64;
        assert!((frac - (-2.0f64).exp()).abs() < 0.02, "tail fraction={frac}");
    }

    #[test]
    fn single_share_is_much_smaller_than_total_noise() {
        // Privacy rationale: one share discloses a negligible fraction of the
        // noise when nν is large (Appendix B.3).
        let gen = NoiseShareGenerator::new(10_000, 100.0);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 10_000;
        let mean_abs_share = (0..n).map(|_| gen.sample(&mut rng).value.abs()).sum::<f64>() / n as f64;
        let mean_abs_laplace = 100.0; // E|L(λ)| = λ
        assert!(mean_abs_share < 0.05 * mean_abs_laplace);
    }

    #[test]
    fn correction_of_zero_extra_is_zero() {
        let gen = NoiseShareGenerator::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(gen.sample_correction(0, &mut rng), 0.0);
    }

    #[test]
    fn correction_matches_the_summed_share_distribution() {
        // Gamma additivity: the O(1) aggregate draw must equal in
        // distribution the sum of `extra` individual shares.  Both are
        // zero-mean; compare the variance, 2·extra·λ²/nν, against each
        // empirical estimate.
        let nu = 500usize;
        let scale = 2.0;
        let extra = 40usize;
        let gen = NoiseShareGenerator::new(nu, scale);
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 30_000;
        let variance = |samples: &[f64]| {
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64
        };
        let aggregate: Vec<f64> = (0..trials).map(|_| gen.sample_correction(extra, &mut rng)).collect();
        let summed: Vec<f64> = (0..trials)
            .map(|_| (0..extra).map(|_| gen.sample(&mut rng).value).sum())
            .collect();
        let expected = 2.0 * extra as f64 * scale * scale / nu as f64;
        let (va, vs) = (variance(&aggregate), variance(&summed));
        assert!((va - expected).abs() / expected < 0.1, "aggregate var {va} vs {expected}");
        assert!((vs - expected).abs() / expected < 0.1, "summed var {vs} vs {expected}");
        let mean = aggregate.iter().sum::<f64>() / trials as f64;
        assert!(mean.abs() < 0.05, "aggregate mean {mean}");
    }

    #[test]
    fn correction_cost_is_independent_of_the_surplus() {
        // Regression: an unconverged contributor counter can report a
        // surplus on the order of the population; a population-sized
        // correction must be a constant-time draw, not a 10M-share
        // accumulation (which made the runner's correction phase quadratic
        // across the population).
        let gen = NoiseShareGenerator::new(10_000_000, 100.0);
        let mut rng = StdRng::seed_from_u64(12);
        let v = gen.sample_correction(10_000_000, &mut rng);
        assert!(v.is_finite());
        // With extra == nν the aggregate is a full Laplace(λ) sample's
        // worth of noise — typically of order λ, never degenerate zero.
        let spread = (0..64).map(|_| gen.sample_correction(10_000_000, &mut rng).abs()).fold(0.0, f64::max);
        assert!(spread > 1.0, "population-sized corrections must carry Laplace-scale mass, got {spread}");
    }

    #[test]
    fn sample_vector_length() {
        let gen = NoiseShareGenerator::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(gen.sample_vector(25, &mut rng).len(), 25);
    }

    #[test]
    fn magnitude_bound_scales_with_lambda_and_is_never_hit_in_practice() {
        let gen = NoiseShareGenerator::new(50, 3.0);
        assert_eq!(gen.magnitude_bound(), LANE_TAIL_E_FOLDS * 3.0);
        assert_eq!(gen.magnitude_bound_with(10.0), 30.0);
        // Empirically, tens of thousands of draws stay far inside even a
        // modest 20-e-fold bound (the default reserves 64).
        let mut rng = StdRng::seed_from_u64(7);
        let worst = (0..50_000).map(|_| gen.sample(&mut rng).value.abs()).fold(0.0, f64::max);
        assert!(worst < gen.magnitude_bound_with(20.0), "worst |share| = {worst}");
    }

    #[test]
    #[should_panic(expected = "e-folds must be positive")]
    fn non_positive_e_folds_rejected() {
        NoiseShareGenerator::new(10, 1.0).magnitude_bound_with(0.0);
    }
}
