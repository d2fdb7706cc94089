//! Modular-arithmetic helpers shared by the encryption scheme and the
//! threshold machinery.

use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::{One, Zero};

/// Modular inverse of `a` modulo `m`, if it exists.
///
/// Extended Euclid over unsigned integers: of `a·xₖ + m·yₖ = rₖ` only the
/// remainders and the coefficients `xₖ` of `a` are kept.  From `x₀ = 1`,
/// `x₁ = 0` the recurrence `xₖ₊₁ = xₖ₋₁ − qₖ·xₖ` yields coefficients whose
/// signs alternate (`xₖ ≥ 0` for even `k`, `≤ 0` for odd `k`), so their
/// magnitudes obey `uₖ₊₁ = uₖ₋₁ + qₖ·uₖ` and the sign is the parity of the
/// step count — no signed type.  The invariant `uₖ·rₖ₋₁ + uₖ₋₁·rₖ = m`
/// bounds the final magnitude below `m` (at `0` when `m = 1`), so nothing
/// is reduced along the way and a negative coefficient `−u` reads `m − u`.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    let (mut r0, mut r1) = (a.clone(), m.clone());
    let (mut u0, mut u1) = (BigUint::one(), BigUint::zero());
    let mut negative = false;
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        let u2 = u0 + q * &u1;
        (r0, r1) = (r1, r2);
        (u0, u1) = (u1, u2);
        negative = !negative;
    }
    if !r0.is_one() {
        return None;
    }
    Some(if negative && !u0.is_zero() { m - u0 } else { u0 })
}

/// Least common multiple of two positive integers.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    a / a.gcd(b) * b
}

/// `value!` as a big integer.
pub fn factorial(value: usize) -> BigUint {
    let mut acc = BigUint::one();
    for i in 2..=value {
        acc *= BigUint::from(i);
    }
    acc
}

/// The Damgård–Jurik discrete-log extraction: given
/// `a = (1 + n)^x mod n^{s+1}` with `0 ≤ x < n^s`, recovers `x`.
///
/// This is Theorem 1 of Damgård & Jurik (PKC 2001); for `s = 1` it reduces
/// to Paillier's `L(u) = (u − 1)/n`.
pub fn extract_plaintext(a: &BigUint, n: &BigUint, s: u32) -> BigUint {
    let mut powers = Vec::with_capacity(s as usize + 2);
    let mut acc = BigUint::one();
    for _ in 0..=(s + 1) {
        powers.push(acc.clone());
        acc *= n;
    }
    // powers[j] = n^j.
    let l = |u: &BigUint, j: usize| -> BigUint {
        // L_j(u) = (u - 1) / n, computed modulo n^{j+1} first.
        let reduced = u % &powers[j + 1];
        (reduced - BigUint::one()) / n
    };

    let mut i = BigUint::zero();
    for j in 1..=(s as usize) {
        let n_j = &powers[j];
        let mut t1 = l(a, j) % n_j;
        let mut t2 = i.clone();
        let mut k_factorial = BigUint::one();
        for k in 2..=j {
            // i := i - 1 (well-defined: i >= 1 whenever this loop runs).
            i = (i + n_j - BigUint::one()) % n_j;
            t2 = (&t2 * &i) % n_j;
            k_factorial *= BigUint::from(k);
            // t1 := t1 - t2 * n^{k-1} / k!   (mod n^j)
            let inv_kfact = mod_inverse(&(&k_factorial % n_j), n_j).expect("k! invertible mod n^j");
            let term = (&t2 * &powers[k - 1]) % n_j * inv_kfact % n_j;
            t1 = (t1 + n_j - term) % n_j;
        }
        i = t1;
    }
    i
}

/// The integer Lagrange coefficient `Δ · ∏_{j ∈ subset, j ≠ index} j / (j − index)`
/// evaluated at 0, where `Δ = ℓ!`, as `(magnitude, negative)`.  The factor Δ
/// clears every denominator so the result is an exact integer (Shoup's
/// trick, reused by Damgård–Jurik threshold decryption).
///
/// The sign is all a caller needs beyond the magnitude — it decides whether
/// a partial decryption lands in the numerator or the denominator of the
/// combination — and it is the parity of the subset members below `index`
/// (the negative `j − index` factors), so the product runs over magnitudes.
///
/// `subset` holds the 1-based share indices participating in the
/// reconstruction; `index` must belong to it.
pub fn lagrange_at_zero(index: usize, subset: &[usize], delta: &BigUint) -> (BigUint, bool) {
    assert!(subset.contains(&index), "index must be part of the reconstruction subset");
    let mut numerator = delta.clone();
    let mut denominator = BigUint::one();
    let mut negative = false;
    for &j in subset {
        if j == index {
            continue;
        }
        numerator *= BigUint::from(j);
        denominator *= BigUint::from(j.abs_diff(index));
        negative ^= j < index;
    }
    let (magnitude, r) = numerator.div_rem(&denominator);
    assert!(r.is_zero(), "Δ must clear the Lagrange denominator exactly");
    (magnitude, negative)
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    proptest! {
        /// The inverse is an inverse in `[0, m)`, and is refused exactly
        /// when the shim's own `Integer::gcd` says the pair is not coprime:
        /// coprime pairs and pairs sharing a planted factor, odd and even
        /// moduli, the value below, at and above the modulus, and the
        /// values at the rim of the residue ring.
        #[test]
        fn mod_inverse_inverts_exactly_the_units(
            seed in any::<u64>(),
            m_bits in 64u64..=3072,
            a_bits in 1u64..=3200,
            planted in any::<bool>(),
            even in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = if planted { rng.gen_biguint(1 + seed % 40) + BigUint::from(3u32) } else { BigUint::one() };
            let mut m = rng.gen_biguint(m_bits);
            m.set_bit(m_bits - 1, true);
            m.set_bit(0, !even);
            let m = m * &shared;
            let a = (rng.gen_biguint(a_bits) + BigUint::one()) * &shared;
            let one = BigUint::one();
            let inverse = mod_inverse(&a, &m);
            prop_assert_eq!(inverse.is_some(), a.gcd(&m).is_one(), "a = {a}, m = {m}");
            if let Some(x) = &inverse {
                prop_assert!(*x < m && &a * x % &m == one, "a = {a}, m = {m}");
            }
            // The residue class decides, not the representative.
            prop_assert_eq!(&mod_inverse(&(&a % &m), &m), &inverse);
            prop_assert_eq!(&mod_inverse(&(&a + &m), &m), &inverse);
            prop_assert_eq!(mod_inverse(&BigUint::zero(), &m), None);
            prop_assert_eq!(mod_inverse(&one, &m), Some(one.clone()));
            prop_assert_eq!(mod_inverse(&(&m - &one), &m), Some(&m - &one));
        }

        /// Sign and magnitude together: over any τ-subset of `1..=ℓ`, in
        /// any order, the coefficients interpolate a degree-`τ − 1`
        /// polynomial at zero, scaled by Δ.
        #[test]
        fn lagrange_coefficients_interpolate_at_zero(
            seed in any::<u64>(),
            num_shares in 1usize..=12,
            coefficients in prop::collection::vec(0u32..1000, 1..=12),
        ) {
            let mut points: Vec<usize> = (1..=num_shares).collect();
            points.shuffle(&mut StdRng::seed_from_u64(seed));
            let threshold = coefficients.len().min(num_shares);
            let (subset, coefficients) = (&points[..threshold], &coefficients[..threshold]);
            let delta = factorial(num_shares);
            let f = |x: usize| coefficients.iter().rev().fold(BigUint::zero(), |acc, &c| acc * BigUint::from(x) + BigUint::from(c));
            let (positive, negative) = signed_interpolation(subset, &delta, f);
            prop_assert_eq!(positive, negative + delta * f(0), "subset {subset:?}");
        }
    }

    /// `Σ ±magnitudeᵢ · f(i)` over the subset, as its positive and its
    /// negative part.
    fn signed_interpolation(subset: &[usize], delta: &BigUint, f: impl Fn(usize) -> BigUint) -> (BigUint, BigUint) {
        let (mut positive, mut negative) = (BigUint::zero(), BigUint::zero());
        for &i in subset {
            let (magnitude, is_negative) = lagrange_at_zero(i, subset, delta);
            *(if is_negative { &mut negative } else { &mut positive }) += magnitude * f(i);
        }
        (positive, negative)
    }

    #[test]
    fn mod_inverse_modulo_one_is_zero() {
        // The one modulus whose inverse has magnitude zero.
        assert_eq!(mod_inverse(&BigUint::from(5u32), &BigUint::one()), Some(BigUint::zero()));
        assert_eq!(mod_inverse(&BigUint::zero(), &BigUint::one()), Some(BigUint::zero()));
    }

    #[test]
    fn mod_inverse_round_trip() {
        let m = BigUint::from(97u32);
        for a in 1u32..97 {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &m).unwrap();
            assert_eq!((a * inv) % &m, BigUint::one());
        }
    }

    #[test]
    fn mod_inverse_fails_for_non_coprime() {
        assert!(mod_inverse(&BigUint::from(6u32), &BigUint::from(9u32)).is_none());
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(&BigUint::from(4u32), &BigUint::from(6u32)), BigUint::from(12u32));
    }

    #[test]
    fn factorial_values() {
        assert_eq!(factorial(0), BigUint::one());
        assert_eq!(factorial(1), BigUint::one());
        assert_eq!(factorial(5), BigUint::from(120u32));
        assert_eq!(factorial(10), BigUint::from(3_628_800u32));
    }

    #[test]
    fn extract_plaintext_paillier_case() {
        // s = 1: a = (1+n)^x mod n^2, recover x.
        let n = BigUint::from(187u32); // 11 * 17, plenty for the identity (1+n)^x = 1 + xn mod n^2.
        let n2 = &n * &n;
        let g = &n + BigUint::one();
        for x in [0u32, 1, 5, 42, 100, 186] {
            let a = g.modpow(&BigUint::from(x), &n2);
            assert_eq!(extract_plaintext(&a, &n, 1), BigUint::from(x));
        }
    }

    #[test]
    fn extract_plaintext_general_s() {
        // s = 2 and s = 3 with a modest modulus and random exponents.
        let n = BigUint::from(35u32 * 3u32 + 2u32); // 107, prime — not an RSA modulus but gcd(k!, n)=1 holds.
        let mut rng = StdRng::seed_from_u64(7);
        for s in 2u32..=3 {
            let n_s = n.pow(s);
            let n_s1 = n.pow(s + 1);
            let g = &n + BigUint::one();
            for _ in 0..20 {
                let x = rng.gen_biguint_below(&n_s);
                let a = g.modpow(&x, &n_s1);
                assert_eq!(extract_plaintext(&a, &n, s), x, "failed for s={s}");
            }
        }
    }

    #[test]
    fn lagrange_coefficients_reconstruct_constant_polynomial() {
        // f(x) = 7 (degree 0) shared at points 1..=5; any subset reconstructs
        // Δ·7 at zero when coefficients are summed.
        let delta = factorial(5);
        let (positive, negative) = signed_interpolation(&[2, 4, 5], &delta, |_| BigUint::from(7u32));
        assert_eq!(positive, negative + delta * BigUint::from(7u32));
    }

    #[test]
    fn lagrange_coefficients_reconstruct_linear_polynomial() {
        // f(x) = 3 + 2x shared at x = 1..=4, threshold 2: any 2 points give
        // Σ λ_i f(i) = Δ · f(0) = Δ · 3.
        let delta = factorial(4);
        let f = |x: usize| BigUint::from(3 + 2 * x);
        for subset in [[1usize, 2], [1, 3], [2, 4], [3, 4]] {
            let (positive, negative) = signed_interpolation(&subset, &delta, f);
            assert_eq!(positive, negative + &delta * BigUint::from(3u32), "subset {subset:?}");
        }
    }
}
