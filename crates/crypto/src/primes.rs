//! Miller–Rabin primality testing and random prime generation for the RSA
//! modulus of the Damgård–Jurik scheme.

use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::{BigUint, RandBigInt};
use num_integer::Integer;
use num_traits::{One, Zero};
use rand::Rng;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Number of Miller–Rabin rounds.  40 rounds give a failure probability
/// below 2⁻⁸⁰ for random candidates.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Probabilistic primality test (trial division + Miller–Rabin).
pub fn is_probably_prime<R: Rng + ?Sized>(candidate: &BigUint, rng: &mut R) -> bool {
    if candidate < &BigUint::from(2u32) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = BigUint::from(p);
        if candidate == &p {
            return true;
        }
        if (candidate % &p).is_zero() {
            return false;
        }
    }
    miller_rabin(candidate, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases.
///
/// Every candidate reaching this point is odd (2 belongs to the trial
/// divisors), so one [`MontgomeryCtx`] serves all `rounds` witness
/// exponentiations and their follow-up squarings — the per-modulus
/// Montgomery setup is paid once per candidate instead of once per modpow.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u32);
    let n_minus_one = n - &one;
    // Write n - 1 = 2^r · d with d odd.
    let mut d = n_minus_one.clone();
    let mut r = 0u32;
    while d.is_even() {
        d >>= 1;
        r += 1;
    }
    let ctx = MontgomeryCtx::new(n).expect("trial division removed every even candidate");
    'witness: for _ in 0..rounds {
        let a = rng.gen_biguint_range(&two, &n_minus_one);
        let mut x = ctx.modpow(&a, &d);
        if x == one || x == n_minus_one {
            continue 'witness;
        }
        for _ in 0..(r - 1) {
            x = ctx.modpow(&x, &two);
            if x == n_minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
/// Panics if `bits < 8`.
pub fn generate_prime<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = rng.gen_biguint(bits);
        // Force the top bit (exact size) and the bottom bit (odd).
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(0, true);
        if is_probably_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates two distinct primes of `bits` bits each, suitable as RSA factors.
pub fn generate_prime_pair<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> (BigUint, BigUint) {
    let p = generate_prime(bits, rng);
    loop {
        let q = generate_prime(bits, rng);
        if q != p {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_small_primes_and_composites() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u32, 3, 5, 97, 101, 65_537, 104_729] {
            assert!(is_probably_prime(&BigUint::from(p), &mut rng), "{p} is prime");
        }
        for c in [0u32, 1, 4, 100, 561, 6_601, 62_745, 104_730] {
            // 561, 6601, 62745 are Carmichael numbers.
            assert!(!is_probably_prime(&BigUint::from(c), &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut rng = StdRng::seed_from_u64(2);
        let p = (BigUint::one() << 127u32) - BigUint::one();
        assert!(is_probably_prime(&p, &mut rng));
        // 2^128 - 1 is composite.
        let c = (BigUint::one() << 128u32) - BigUint::one();
        assert!(!is_probably_prime(&c, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size_and_are_odd() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [16u64, 32, 64, 128] {
            let p = generate_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
            assert!(is_probably_prime(&p, &mut rng));
        }
    }

    #[test]
    fn prime_pair_is_distinct() {
        let mut rng = StdRng::seed_from_u64(4);
        let (p, q) = generate_prime_pair(64, &mut rng);
        assert_ne!(p, q);
    }
}
