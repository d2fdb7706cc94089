//! Gamma sampling.
//!
//! Noise shares (Definition 5) are differences of two i.i.d. Gamma variables
//! with shape `1/nν` and scale `λ`.  Because `nν` is large (the paper sets it
//! to the population size), the shape parameter is far below 1, so we need a
//! sampler that is correct for arbitrarily small shapes:
//!
//! * shape ≥ 1 — Marsaglia & Tsang's squeeze method;
//! * shape < 1 — the standard boost `Gamma(α) = Gamma(α + 1) · U^{1/α}`.
//!
//! A [`Gamma`] is a *prepared* sampler: [`Gamma::new`] computes the
//! squeeze constants `d` and `c` and the boost exponent `1/α` once per
//! distribution instead of once per draw.
//!
//! **Exact underflow skip.**  At the shapes noise shares use the boost
//! factor is almost always zero: with `α = 1/nν` and `nν = 20 000`,
//! `U^{1/α}` underflows to `+0` on 96 % of draws.  Whenever
//! `U < exp(−760·α)` the true power is below `e^{−760}`, far under half the
//! smallest subnormal (`2^{−1075} ≈ e^{−745.1}`), so the correctly rounded
//! `powf` *is* `+0` and so is the product; the sampler returns `+0` there
//! without calling `powf`.  The boosted draw is still made, so the RNG
//! stream — and every sample bit — is the one the unprepared
//! `Gamma(α + 1) · U^{1/α}` produces (a property test pins both against a
//! copy of that sampler).

use rand::Rng;

/// A Gamma distribution with shape `α > 0` and scale `θ > 0`, with density
/// `g(x) = x^{α-1} e^{-x/θ} / (Γ(α) θ^α)` for `x ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    /// Marsaglia & Tsang's `d = a − 1/3` and `c = 1/√(9d)` for the shape
    /// `a` the squeeze runs at: `α`, or `α + 1` under the boost.
    d: f64,
    c: f64,
    /// The boost exponent `1/α` (unused when `α ≥ 1`).
    inv_shape: f64,
    /// `exp(−760·α)`: a boost uniform below it makes `U^{1/α}` exactly `+0`
    /// (`0` when `α ≥ 1`, or when the threshold itself underflows).
    zero_below: f64,
}

impl Gamma {
    /// Creates a Gamma distribution.
    ///
    /// # Panics
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape.is_finite() && shape > 0.0, "Gamma shape must be positive, got {shape}");
        assert!(scale.is_finite() && scale > 0.0, "Gamma scale must be positive, got {scale}");
        let boosted = shape < 1.0;
        let d = if boosted { shape + 1.0 } else { shape } - 1.0 / 3.0;
        let zero_below = if boosted { (-760.0 * shape).exp() } else { 0.0 };
        Self { shape, scale, d, c: 1.0 / (9.0 * d).sqrt(), inv_shape: 1.0 / shape, zero_below }
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
            // X · U^{1/α} ~ Gamma(α, θ).  X is drawn even when U makes the
            // product +0, so the RNG stream does not depend on U.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let boosted = self.scale * marsaglia_tsang(self.d, self.c, rng);
            if u < self.zero_below {
                0.0
            } else {
                boosted * u.powf(self.inv_shape)
            }
        } else {
            self.scale * marsaglia_tsang(self.d, self.c, rng)
        }
    }
}

/// Marsaglia & Tsang (2000) sampler for Gamma(shape ≥ 1, scale = 1), given
/// the shape's `d = shape − 1/3` and `c = 1/√(9d)`.
fn marsaglia_tsang<R: Rng + ?Sized>(d: f64, c: f64, rng: &mut R) -> f64 {
    debug_assert!(d >= 2.0 / 3.0);
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

    /// The sampler as it was before it was prepared: `d`, `c` and `1/α` per
    /// draw, and `powf` on every boosted draw.  The reference the prepared
    /// sampler must reproduce bit for bit.
    fn unprepared_sample<R: Rng + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
        if shape < 1.0 {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            return unprepared_sample(shape + 1.0, scale, rng) * u.powf(1.0 / shape);
        }
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
            if u < 1.0 - 0.0331 * x * x * x * x || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return scale * (d * v);
            }
        }
    }

    proptest::proptest! {
        /// Noise-share shapes `1/P` and surplus-correction shapes `extra/P`
        /// for `P` log-uniform over `[1, 10⁶]`: every draw carries the bits
        /// of the unprepared sampler, and the RNG ends in the same state.
        #[test]
        fn the_prepared_sampler_is_bit_identical_to_the_unprepared_one(
            log_shares in 0.0f64..=6.0,
            extra in 1u64..=2_000_000,
            correction in proptest::prelude::any::<bool>(),
            scale in 0.01f64..10_000.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let shares = 10f64.powf(log_shares).round();
            let shape = if correction { extra as f64 / shares } else { 1.0 / shares };
            let gamma = Gamma::new(shape, scale);
            let (mut prepared, mut unprepared) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..256 {
                let (a, b) = (gamma.sample(&mut prepared), unprepared_sample(shape, scale, &mut unprepared));
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits(), "shape {}", shape);
            }
            proptest::prop_assert_eq!(prepared, unprepared);
        }
    }

    /// Draws whose first `next_u64` is scripted and whose later ones come
    /// from a seeded generator.
    #[derive(Debug, PartialEq)]
    struct Scripted {
        first: Option<u64>,
        rest: StdRng,
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.rest.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.rest.fill_bytes(dest);
        }
    }

    #[test]
    fn the_underflow_skip_agrees_with_powf_one_ulp_either_side_of_its_threshold() {
        for shares in [2_000.0, 20_000.0, 1_000_000.0] {
            let shape = 1.0 / shares;
            let gamma = Gamma::new(shape, 3.0);
            let threshold = (-760.0 * shape).exp();
            // In [0.5, 1) a double is a multiple of 2^-53, as every uniform
            // `gen::<f64>()` returns, so each `u` below is a drawable value.
            assert!((0.5..1.0).contains(&threshold));
            for (u, skipped) in
                [(threshold.next_down(), true), (threshold, false), (threshold.next_up(), false)]
            {
                let script = || Scripted {
                    first: Some(((u * (1u64 << 53) as f64) as u64) << 11),
                    rest: StdRng::seed_from_u64(9),
                };
                let (mut prepared, mut unprepared) = (script(), script());
                let (a, b) = (gamma.sample(&mut prepared), unprepared_sample(shape, 3.0, &mut unprepared));
                assert_eq!(a.to_bits(), b.to_bits(), "nν = {shares}, u = {u:e}");
                assert_eq!(prepared, unprepared, "nν = {shares}, u = {u:e}: the boosted draw is made");
                assert_eq!(u < gamma.zero_below, skipped, "nν = {shares}, u = {u:e}");
                assert_eq!(a.to_bits(), 0, "nν = {shares}: e^-760 underflows to +0 on both sides");
            }
        }
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
