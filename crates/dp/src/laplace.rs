//! The Laplace distribution and the Laplace mechanism of Definition 4.

use rand::Rng;

/// A centred Laplace distribution `L(λ)` with probability density
/// `f(x, λ) = 1/(2λ) · e^{-|x|/λ}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale `λ`.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "Laplace scale must be positive, got {scale}");
        Self { scale }
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance `2λ²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (x / self.scale).exp()
        } else {
            1.0 - 0.5 * (-x / self.scale).exp()
        }
    }

    /// Draws one sample by inverse-CDF transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-0.5, 0.5]; the open lower bound avoids ln(0).
        let u: f64 = rng.gen::<f64>() - 0.5;
        let u = if u == -0.5 { -0.5 + f64::EPSILON } else { u };
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

/// The sensitivity of the time-series `Sum` aggregation function.
///
/// Inserting or deleting one individual's series changes the dimension-wise
/// sum by at most `max(|d_min|, |d_max|)` on each of the `n` dimensions, i.e.
/// by `n · max(|d_min|, |d_max|)` in L1 norm (Definition 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Series length `n`.
    pub series_length: usize,
    /// Per-measure magnitude bound `max(|d_min|, |d_max|)`.
    pub per_measure: f64,
}

impl Sensitivity {
    /// Builds the sensitivity from the domain range bounds.
    pub fn from_range(series_length: usize, d_min: f64, d_max: f64) -> Self {
        assert!(series_length > 0);
        assert!(d_min.is_finite() && d_max.is_finite() && d_min <= d_max);
        Self { series_length, per_measure: d_min.abs().max(d_max.abs()) }
    }

    /// The L1 sum sensitivity `n · max(|d_min|, |d_max|)`.
    pub fn l1(&self) -> f64 {
        self.series_length as f64 * self.per_measure
    }

    /// The sensitivity of the cluster *count* (a sum of 0/1 indicators): 1.
    pub fn count() -> f64 {
        1.0
    }
}

/// The Laplace mechanism of Definition 4: perturbs the output of `Sum` with
/// noise `L(sensitivity / ε)` on each dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    sensitivity: Sensitivity,
    epsilon: f64,
    /// Optional gossip approximation-error compensation (Lemma 2): the scale
    /// is multiplied by `(1 + e_max)` and the drawn noise by
    /// `(1 + e_max / (1 - e_max))`.
    gossip_error_bound: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism with privacy parameter `ε` (no gossip
    /// compensation).
    ///
    /// # Panics
    /// Panics if `epsilon` is not strictly positive.
    pub fn new(sensitivity: Sensitivity, epsilon: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        Self { sensitivity, epsilon, gossip_error_bound: 0.0 }
    }

    /// Enables the Lemma-2 compensation for a gossip relative approximation
    /// error bounded by `e_max` (0 ≤ e_max < 1).
    pub fn with_gossip_error_bound(mut self, e_max: f64) -> Self {
        assert!((0.0..1.0).contains(&e_max), "e_max must be in [0, 1)");
        self.gossip_error_bound = e_max;
        self
    }

    /// The privacy parameter ε of this mechanism instance.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The sensitivity this mechanism is calibrated to.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// The Laplace scale applied to each dimension of the *sum* part:
    /// `λ = (1 + e_max) · n · max(|d_min|, |d_max|) / ε`.
    pub fn sum_scale(&self) -> f64 {
        (1.0 + self.gossip_error_bound) * self.sensitivity.l1() / self.epsilon
    }

    /// The Laplace scale applied to the *count* part: `(1 + e_max) / ε`.
    pub fn count_scale(&self) -> f64 {
        (1.0 + self.gossip_error_bound) * Sensitivity::count() / self.epsilon
    }

    /// The Lemma-2 post-hoc amplification factor
    /// `1 + e_max / (1 - e_max)` applied to the aggregated noise.
    pub fn compensation_factor(&self) -> f64 {
        1.0 + self.gossip_error_bound / (1.0 - self.gossip_error_bound)
    }

    /// Perturbs a cleartext dimension-wise sum in place.
    pub fn perturb_sum<R: Rng + ?Sized>(&self, sum: &mut [f64], rng: &mut R) {
        let noise = Laplace::new(self.sum_scale());
        let comp = self.compensation_factor();
        for v in sum {
            *v += comp * noise.sample(rng);
        }
    }

    /// Perturbs a cleartext count.
    pub fn perturb_count<R: Rng + ?Sized>(&self, count: f64, rng: &mut R) -> f64 {
        let noise = Laplace::new(self.count_scale());
        count + self.compensation_factor() * noise.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        Laplace::new(0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Laplace::new(2.0);
        // Trapezoidal integration over a wide support.
        let mut acc = 0.0;
        let step = 0.01;
        let mut x = -60.0;
        while x < 60.0 {
            acc += step * 0.5 * (d.pdf(x) + d.pdf(x + step));
            x += step;
        }
        assert!((acc - 1.0).abs() < 1e-3, "pdf mass = {acc}");
    }

    #[test]
    fn cdf_properties() {
        let d = Laplace::new(1.5);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(d.cdf(-20.0) < 1e-5);
        assert!(d.cdf(20.0) > 1.0 - 1e-5);
        assert!(d.cdf(1.0) > d.cdf(-1.0));
    }

    #[test]
    fn sample_moments_match_theory() {
        let d = Laplace::new(3.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - d.variance()).abs() / d.variance() < 0.05, "var = {var}");
    }

    #[test]
    fn sample_sign_is_balanced() {
        let d = Laplace::new(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let positives = (0..n).filter(|_| d.sample(&mut rng) > 0.0).count();
        let frac = positives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction = {frac}");
    }

    #[test]
    fn sensitivity_matches_paper_datasets() {
        // CER: 24 measures in [0, 80] -> 1920; NUMED: 20 in [0, 50] -> 1000.
        assert_eq!(Sensitivity::from_range(24, 0.0, 80.0).l1(), 1920.0);
        assert_eq!(Sensitivity::from_range(20, 0.0, 50.0).l1(), 1000.0);
    }

    #[test]
    fn mechanism_scale_follows_definition_4() {
        let s = Sensitivity::from_range(24, 0.0, 80.0);
        let m = LaplaceMechanism::new(s, 0.69);
        assert!((m.sum_scale() - 1920.0 / 0.69).abs() < 1e-9);
        assert!((m.count_scale() - 1.0 / 0.69).abs() < 1e-9);
        assert_eq!(m.compensation_factor(), 1.0);
    }

    #[test]
    fn gossip_compensation_increases_scale() {
        let s = Sensitivity::from_range(24, 0.0, 80.0);
        let base = LaplaceMechanism::new(s, 0.69);
        let comp = LaplaceMechanism::new(s, 0.69).with_gossip_error_bound(0.01);
        assert!(comp.sum_scale() > base.sum_scale());
        assert!(comp.compensation_factor() > 1.0);
        // Lemma 2: c = e_max / (1 - e_max).
        assert!((comp.compensation_factor() - (1.0 + 0.01 / 0.99)).abs() < 1e-12);
    }

    #[test]
    fn perturb_sum_changes_values_but_keeps_length() {
        let s = Sensitivity::from_range(4, 0.0, 10.0);
        let m = LaplaceMechanism::new(s, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = vec![100.0, 200.0, 300.0, 400.0];
        let before = sum.clone();
        m.perturb_sum(&mut sum, &mut rng);
        assert_eq!(sum.len(), 4);
        assert_ne!(sum, before);
    }

    #[test]
    fn smaller_epsilon_means_larger_noise() {
        let s = Sensitivity::from_range(24, 0.0, 80.0);
        let tight = LaplaceMechanism::new(s, 0.1);
        let loose = LaplaceMechanism::new(s, 1.0);
        assert!(tight.sum_scale() > loose.sum_scale());
    }
}
