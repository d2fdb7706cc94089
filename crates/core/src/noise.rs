//! Epidemic noise generation and surplus correction (§4.2.2).
//!
//! Each participant locally draws one noise share per perturbed value
//! (`k` sums of length `n` plus `k` counts), encrypts them, and the epidemic
//! sum of all shares yields the collaborative Laplace perturbation.  Because
//! the number of actual contributors may exceed the expected `nν`, each
//! contribution also carries a counter unit encrypting 1, whose decrypted
//! sum counts the contributors; a unique correction (chosen by smallest
//! random identifier) distributed as the sum of the surplus shares is
//! agreed upon epidemically and subtracted.  The correction is an
//! independent draw, so it adds variance rather than removing the surplus
//! (see [`NoiseCorrection`]).

use rand::Rng;

use chiaroscuro_dp::noise_share::{NoiseShareGenerator, SurplusCorrection};

/// The per-participant cleartext noise-share vectors for one iteration:
/// one share per sum dimension and per count, laid out to match the flat
/// encrypted-means vector (all sums of all clusters first, then all counts).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseShareVector {
    /// Shares perturbing the `k · n` sum dimensions.
    pub sum_shares: Vec<f64>,
    /// Shares perturbing the `k` counts.
    pub count_shares: Vec<f64>,
}

impl NoiseShareVector {
    /// Draws the local noise-share vectors for `k` clusters of series length
    /// `n`, targeting the Laplace scales `sum_scale` and `count_scale` split
    /// over `num_shares` contributors.
    pub fn generate<R: Rng + ?Sized>(
        k: usize,
        series_length: usize,
        sum_scale: f64,
        count_scale: f64,
        num_shares: usize,
        rng: &mut R,
    ) -> Self {
        let sum_generator = NoiseShareGenerator::new(num_shares, sum_scale);
        let count_generator = NoiseShareGenerator::new(num_shares, count_scale);
        Self {
            sum_shares: (0..k * series_length).map(|_| sum_generator.sample(rng).value).collect(),
            count_shares: (0..k).map(|_| count_generator.sample(rng).value).collect(),
        }
    }

    /// Flattens into the layout of the encrypted vector: all sum shares then
    /// all count shares.
    pub fn flatten(&self) -> Vec<f64> {
        self.sum_shares.iter().chain(self.count_shares.iter()).copied().collect()
    }

    /// Number of perturbed values.
    pub fn len(&self) -> usize {
        self.sum_shares.len() + self.count_shares.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The noise-surplus correction proposal of one participant (§4.2.2): a
/// vector distributed as the sum of the surplus shares, tagged with a
/// random identifier for the min-id epidemic agreement.  It is a fresh
/// draw, independent of the surplus shares actually aggregated, so
/// subtracting it adds its variance to the released noise instead of
/// cancelling the surplus: with `s` surplus contributors the noise variance
/// is `(nν + 2s)/nν · 2λ²`, not Laplace's `2λ²`.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseCorrection {
    /// Random identifier (the population keeps the smallest).
    pub id: u64,
    /// Correction for each sum dimension (`k · n` values).
    pub sum_correction: Vec<f64>,
    /// Correction for each count (`k` values).
    pub count_correction: Vec<f64>,
}

impl NoiseCorrection {
    /// Builds a correction distributed as the noise of `surplus` extra
    /// contributors.  With no surplus the correction is all zeros (and
    /// harmless).  The draw is independent of the aggregated noise it is
    /// subtracted from, so it adds variance rather than removing the
    /// surplus ([`SurplusCorrection`] quantifies it).
    ///
    /// Each dimension draws the aggregated surplus in one shot
    /// ([`SurplusCorrection::sample`], exact by Gamma additivity, prepared
    /// once per scale) instead of accumulating `surplus` individual shares,
    /// so the cost is O(k·n) however far an unconverged contributor count
    /// overshoots.
    pub fn generate<R: Rng + ?Sized>(
        surplus: usize,
        k: usize,
        series_length: usize,
        sum_scale: f64,
        count_scale: f64,
        num_shares: usize,
        rng: &mut R,
    ) -> Self {
        // One prepared Gamma per scale; no surplus, no Gamma and no draw.
        let mut correction = |scale, len| {
            let correction = SurplusCorrection::new(num_shares, scale, surplus);
            (0..len).map(|_| correction.sample(rng)).collect()
        };
        let sum_correction = correction(sum_scale, k * series_length);
        let count_correction = correction(count_scale, k);
        Self { id: rng.gen(), sum_correction, count_correction }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_produces_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = NoiseShareVector::generate(5, 8, 100.0, 2.0, 50, &mut rng);
        assert_eq!(v.sum_shares.len(), 40);
        assert_eq!(v.count_shares.len(), 5);
        assert_eq!(v.flatten().len(), 45);
        assert_eq!(v.len(), 45);
        assert!(!v.is_empty());
    }

    #[test]
    fn aggregated_shares_have_laplace_like_spread() {
        // Summing the shares of `num_shares` participants must produce noise
        // with the variance of the target Laplace (2·scale²), dimension-wise.
        let num_shares = 40;
        let scale = 10.0;
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 3_000;
        let mut totals = Vec::with_capacity(trials);
        for _ in 0..trials {
            let total: f64 = (0..num_shares)
                .map(|_| NoiseShareVector::generate(1, 1, scale, scale, num_shares, &mut rng).sum_shares[0])
                .sum();
            totals.push(total);
        }
        let mean = totals.iter().sum::<f64>() / trials as f64;
        let var = totals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
        let expected = 2.0 * scale * scale;
        assert!((var - expected).abs() / expected < 0.15, "var {var} vs expected {expected}");
    }

    #[test]
    fn zero_surplus_correction_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = NoiseCorrection::generate(0, 3, 4, 10.0, 1.0, 100, &mut rng);
        assert!(c.sum_correction.iter().all(|&v| v == 0.0));
        assert!(c.count_correction.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn surplus_correction_has_matching_shape_and_nonzero_mass() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = NoiseCorrection::generate(10, 3, 4, 10.0, 1.0, 100, &mut rng);
        assert_eq!(c.sum_correction.len(), 12);
        assert_eq!(c.count_correction.len(), 3);
        assert!(c.sum_correction.iter().any(|&v| v != 0.0));
    }

    /// The correction as it was drawn before its Gamma was prepared once
    /// per scale: a fresh `Gamma(s/nν, λ)` for every coordinate.
    fn per_coordinate_correction(
        surplus: usize,
        (k, n): (usize, usize),
        (sum_scale, count_scale): (f64, f64),
        num_shares: usize,
        rng: &mut StdRng,
    ) -> NoiseCorrection {
        use chiaroscuro_dp::gamma::Gamma;
        let mut correction = |scale, len| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    if surplus == 0 {
                        return 0.0;
                    }
                    let g = Gamma::new(surplus as f64 / num_shares as f64, scale);
                    g.sample(rng) - g.sample(rng)
                })
                .collect()
        };
        let sum_correction = correction(sum_scale, k * n);
        let count_correction = correction(count_scale, k);
        NoiseCorrection { id: rng.gen(), sum_correction, count_correction }
    }

    #[test]
    fn a_prepared_correction_draws_what_the_per_coordinate_one_drew() {
        let bits = |c: &NoiseCorrection| -> Vec<u64> {
            c.sum_correction.iter().chain(&c.count_correction).map(|v| v.to_bits()).chain([c.id]).collect()
        };
        for (surplus, seed) in [(0, 30), (1, 31), (17, 32), (2_000, 33)] {
            let (mut prepared, mut reference) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..3 {
                let got = NoiseCorrection::generate(surplus, 3, 5, 40.0, 2.5, 40, &mut prepared);
                let want = per_coordinate_correction(surplus, (3, 5), (40.0, 2.5), 40, &mut reference);
                assert_eq!(bits(&got), bits(&want), "surplus {surplus}");
            }
            assert_eq!(prepared.gen::<u64>(), reference.gen::<u64>(), "surplus {surplus}: RNG end state");
        }
    }

    #[test]
    fn correction_identifiers_differ_across_participants() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = NoiseCorrection::generate(1, 1, 1, 1.0, 1.0, 10, &mut rng);
        let b = NoiseCorrection::generate(1, 1, 1, 1.0, 1.0, 10, &mut rng);
        assert_ne!(a.id, b.id);
    }
}
