//! Gamma sampling.
//!
//! Noise shares (Definition 5) are differences of two i.i.d. Gamma variables
//! with shape `1/nν` and scale `λ`.  Because `nν` is large (the paper sets it
//! to the population size), the shape parameter is far below 1, so we need a
//! sampler that is correct for arbitrarily small shapes:
//!
//! * shape ≥ 1 — Marsaglia & Tsang's squeeze method;
//! * shape < 1 — the standard boost `Gamma(α) = Gamma(α + 1) · U^{1/α}`.

use rand::Rng;

/// A Gamma distribution with shape `α > 0` and scale `θ > 0`, with density
/// `g(x) = x^{α-1} e^{-x/θ} / (Γ(α) θ^α)` for `x ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a Gamma distribution.
    ///
    /// # Panics
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "Gamma shape must be positive, got {shape}");
        assert!(scale.is_finite() && scale > 0.0, "Gamma scale must be positive, got {scale}");
        Self { shape, scale }
    }

    /// The shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The mean `αθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    /// The variance `αθ²`.
    pub fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: if X ~ Gamma(α+1, θ) and U ~ Uniform(0,1) then
            // X · U^{1/α} ~ Gamma(α, θ).
            let boosted = Gamma { shape: self.shape + 1.0, scale: self.scale };
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            boosted.sample(rng) * u.powf(1.0 / self.shape)
        } else {
            self.scale * marsaglia_tsang(self.shape, rng)
        }
    }
}

/// Marsaglia & Tsang (2000) sampler for Gamma(shape ≥ 1, scale = 1).
fn marsaglia_tsang<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    debug_assert!(shape >= 1.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        // Squeeze check, then full check.
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Standard normal sample via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(dist: Gamma, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn zero_shape_rejected() {
        Gamma::new(0.0, 1.0);
    }

    #[test]
    fn samples_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(1);
        for &shape in &[0.01, 0.1, 0.5, 1.0, 2.0, 10.0] {
            let d = Gamma::new(shape, 3.0);
            for _ in 0..1_000 {
                assert!(d.sample(&mut rng) >= 0.0);
            }
        }
    }

    #[test]
    fn moments_match_for_large_shape() {
        let d = Gamma::new(4.0, 2.0);
        let (mean, var) = moments(d, 100_000, 2);
        assert!((mean - d.mean()).abs() / d.mean() < 0.03, "mean={mean}");
        assert!((var - d.variance()).abs() / d.variance() < 0.06, "var={var}");
    }

    #[test]
    fn moments_match_for_unit_shape() {
        // Gamma(1, θ) is Exponential(θ).
        let d = Gamma::new(1.0, 5.0);
        let (mean, var) = moments(d, 100_000, 3);
        assert!((mean - 5.0).abs() < 0.1);
        assert!((var - 25.0).abs() / 25.0 < 0.06);
    }

    #[test]
    fn moments_match_for_small_shape() {
        // This is the regime used by noise shares: shape = 1/nν << 1.
        let d = Gamma::new(0.05, 2.0);
        let (mean, var) = moments(d, 300_000, 4);
        assert!((mean - d.mean()).abs() / d.mean() < 0.05, "mean={mean}, expected {}", d.mean());
        assert!((var - d.variance()).abs() / d.variance() < 0.08, "var={var}, expected {}", d.variance());
    }

    #[test]
    fn small_shape_is_mostly_near_zero() {
        // With shape 0.01 almost all the mass is extremely close to zero —
        // a single noise share reveals essentially nothing about the total
        // Laplace noise, which is the privacy argument for distributing the
        // noise generation (Appendix B.3).
        let d = Gamma::new(0.01, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let tiny = (0..10_000).filter(|_| d.sample(&mut rng) < 1e-3).count();
        assert!(tiny as f64 / 10_000.0 > 0.8);
    }
}
