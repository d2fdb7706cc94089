//! Modular-arithmetic helpers shared by the encryption scheme and the
//! threshold machinery.

use num_bigint::{BigInt, BigUint};
use num_integer::Integer;
use num_traits::{One, Signed, Zero};

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
///
/// One division per step: the remainder sequence `r` and the two Bézout
/// sequences advance together off a single `div_rem`.
pub fn extended_gcd(a: &BigInt, b: &BigInt) -> (BigInt, BigInt, BigInt) {
    let (mut r0, mut r1) = (a.clone(), b.clone());
    let (mut x0, mut x1) = (BigInt::one(), BigInt::zero());
    let (mut y0, mut y1) = (BigInt::zero(), BigInt::one());
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        let x2 = x0 - &q * &x1;
        let y2 = y0 - &q * &y1;
        (r0, r1) = (r1, r2);
        (x0, x1) = (x1, x2);
        (y0, y1) = (y1, y2);
    }
    (r0, x0, y0)
}

/// Modular inverse of `a` modulo `m`, if it exists.
///
/// [`extended_gcd`] with the Bézout sequence of `m` left out: the inverse
/// is the coefficient of `a` alone, and the other sequence costs as many
/// multiplications again.  Value-identical to reading `x` off
/// `extended_gcd(a, m)`.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    let m_int = BigInt::from(m.clone());
    let (mut r0, mut r1) = (BigInt::from(a.clone()), m_int.clone());
    let (mut x0, mut x1) = (BigInt::one(), BigInt::zero());
    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        let x2 = x0 - &q * &x1;
        (r0, r1) = (r1, r2);
        (x0, x1) = (x1, x2);
    }
    if !r0.is_one() {
        return None;
    }
    let mut x = x0 % &m_int;
    if x.is_negative() {
        x += &m_int;
    }
    Some(x.to_biguint().expect("non-negative by construction"))
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

/// Raises `base` to a possibly *negative* exponent modulo `modulus`.
///
/// A negative exponent requires `base` to be invertible modulo `modulus`.
///
/// # Panics
/// Panics if the exponent is negative and `base` is not invertible.
pub fn modpow_signed(base: &BigUint, exponent: &BigInt, modulus: &BigUint) -> BigUint {
    if exponent.is_negative() {
        let inv = mod_inverse(base, modulus).expect("base must be invertible for negative exponents");
        let positive = (-exponent).to_biguint().expect("positive");
        inv.modpow(&positive, modulus)
    } else {
        let positive = exponent.to_biguint().expect("non-negative");
        base.modpow(&positive, modulus)
    }
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
/// evaluated at 0, where `Δ = ℓ!`.  The factor Δ clears every denominator so
/// the result is an exact integer (Shoup's trick, reused by Damgård–Jurik
/// threshold decryption).
///
/// `subset` holds the 1-based share indices participating in the
/// reconstruction; `index` must belong to it.
pub fn lagrange_at_zero(index: usize, subset: &[usize], delta: &BigUint) -> BigInt {
    assert!(subset.contains(&index), "index must be part of the reconstruction subset");
    let mut numerator = BigInt::from(delta.clone());
    let mut denominator = BigInt::one();
    for &j in subset {
        if j == index {
            continue;
        }
        numerator *= BigInt::from(j);
        denominator *= BigInt::from(j as i64 - index as i64);
    }
    let (q, r) = numerator.div_rem(&denominator);
    assert!(r.is_zero(), "Δ must clear the Lagrange denominator exactly");
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The recursive two-division formulation `extended_gcd` replaced,
    /// kept as the reference its values are pinned to.
    fn extended_gcd_recursive(a: &BigInt, b: &BigInt) -> (BigInt, BigInt, BigInt) {
        if b.is_zero() {
            return (a.clone(), BigInt::one(), BigInt::zero());
        }
        let (g, x, y) = extended_gcd_recursive(b, &(a % b));
        (g, y.clone(), x - (a / b) * y)
    }

    #[test]
    fn extended_gcd_matches_the_recursive_reference_value_for_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let zero = BigInt::zero();
        assert_eq!(extended_gcd(&zero, &zero), extended_gcd_recursive(&zero, &zero));
        for round in 0..200u64 {
            let a = BigInt::from(rng.gen_biguint(1 + (round * 37) % 700));
            let b = BigInt::from(rng.gen_biguint(1 + (round * 53) % 700));
            // Every sign combination, both argument orders, and a zero side.
            for (a, b) in [(a.clone(), b.clone()), (-a.clone(), b.clone()), (a.clone(), -b.clone()), (b.clone(), zero.clone()), (zero.clone(), -a.clone())] {
                let got = extended_gcd(&a, &b);
                assert_eq!(got, extended_gcd_recursive(&a, &b), "a = {a}, b = {b}");
                assert_eq!(&a * &got.1 + &b * &got.2, got.0, "Bézout identity");
            }
        }
    }

    #[test]
    fn mod_inverse_is_the_x_coefficient_of_extended_gcd() {
        // Coprime pairs and pairs sharing a planted factor, 1 to 2048 bits,
        // the value below, at and above the modulus.
        let mut rng = StdRng::seed_from_u64(5);
        let reference = |a: &BigUint, m: &BigUint| {
            let m_int = BigInt::from(m.clone());
            let (g, x, _) = extended_gcd(&BigInt::from(a.clone()), &m_int);
            g.is_one().then(|| ((x % &m_int + &m_int) % &m_int).to_biguint().expect("reduced into [0, m)"))
        };
        let (mut invertible, mut refused) = (0, 0);
        for round in 0..300u64 {
            let (a_bits, m_bits) = (1 + (round * 41) % 2048, 1 + (round * 67) % 2048);
            let shared = if round % 3 == 0 { rng.gen_biguint(1 + round % 40) + BigUint::from(2u32) } else { BigUint::one() };
            let a = (rng.gen_biguint(a_bits) + BigUint::one()) * &shared;
            let m = (rng.gen_biguint(m_bits) + BigUint::one()) * &shared;
            for a in [a.clone(), &a % &m, &a + &m] {
                let got = mod_inverse(&a, &m);
                assert_eq!(got, reference(&a, &m), "a = {a}, m = {m}");
                match got {
                    Some(inv) => {
                        assert!(inv < m && (a * inv % &m) == BigUint::one() % &m);
                        invertible += 1;
                    }
                    None => refused += 1,
                }
            }
        }
        assert!(invertible > 100 && refused > 100, "{invertible} invertible, {refused} refused");
        assert_eq!(mod_inverse(&BigUint::zero(), &BigUint::from(7u32)), None);
        assert_eq!(mod_inverse(&BigUint::from(5u32), &BigUint::one()), Some(BigUint::zero()));
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
    fn modpow_signed_negative_exponent() {
        let modulus = BigUint::from(101u32);
        let base = BigUint::from(7u32);
        let neg = modpow_signed(&base, &BigInt::from(-3), &modulus);
        let pos = base.modpow(&BigUint::from(3u32), &modulus);
        assert_eq!((neg * pos) % modulus, BigUint::one());
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
        let subset = vec![2usize, 4, 5];
        let mut acc = BigInt::zero();
        for &i in &subset {
            let coeff = lagrange_at_zero(i, &subset, &delta);
            acc += coeff * BigInt::from(7);
        }
        assert_eq!(acc, BigInt::from(delta) * BigInt::from(7));
    }

    #[test]
    fn lagrange_coefficients_reconstruct_linear_polynomial() {
        // f(x) = 3 + 2x shared at x = 1..=4, threshold 2: any 2 points give
        // Σ λ_i f(i) = Δ · f(0) = Δ · 3.
        let delta = factorial(4);
        let f = |x: usize| BigInt::from(3 + 2 * x as i64);
        for subset in [vec![1usize, 2], vec![1, 3], vec![2, 4], vec![3, 4]] {
            let mut acc = BigInt::zero();
            for &i in &subset {
                acc += lagrange_at_zero(i, &subset, &delta) * f(i);
            }
            assert_eq!(acc, BigInt::from(delta.clone()) * BigInt::from(3), "subset {subset:?}");
        }
    }
}
