//! Key material for the Damgård–Jurik scheme.
//!
//! The public key is `χ = (n, g)` with `n = p·q` an RSA modulus and
//! `g = 1 + n` (the standard choice, which makes the discrete logarithm of
//! `(1+n)^x` efficiently extractable).  The computation space is
//! `Z*_{n^{s+1}}` and the plaintext space `Z_{n^s}` (§3.3.1).
//!
//! For threshold decryption the scheme uses the exponent `d` determined by
//! the Chinese Remainder Theorem as `d ≡ 0 (mod λ)` and `d ≡ 1 (mod n^s)`,
//! where `λ = lcm(p−1, q−1)`: raising a ciphertext to the power `d` strips
//! the random mask and leaves `(1+n)^m`, whatever the plaintext `m`.

use std::sync::{Arc, OnceLock};

use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::BigUint;
use num_traits::One;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arith::{lcm, mod_inverse};
use crate::crt::CrtContext;
use crate::primes::generate_prime_pair;

/// The public encryption key `χ = (n, g)` plus the precomputed powers of `n`.
///
/// The key also lazily caches the Montgomery context for the ciphertext
/// modulus `n^{s+1}` (see [`PublicKey::modpow_ciphertext`]), amortising the
/// per-modulus REDC setup across every exponentiation of a run.  The cache
/// is invisible to equality and serialisation (it is derived state, rebuilt
/// on demand).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicKey {
    n: BigUint,
    s: u32,
    n_s: BigUint,
    n_s1: BigUint,
    g: BigUint,
    key_bits: u64,
    ct_ctx: OnceLock<Arc<MontgomeryCtx>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // n and s determine every derived field; the cached context is
        // deliberately excluded (it is a performance artefact, not identity).
        self.n == other.n && self.s == other.s && self.key_bits == other.key_bits
    }
}

impl Eq for PublicKey {}

impl PublicKey {
    pub(crate) fn new(n: BigUint, s: u32, key_bits: u64) -> Self {
        assert!(s >= 1, "the Damgard-Jurik exponent s must be at least 1");
        let n_s = n.pow(s);
        let n_s1 = &n_s * &n;
        let g = &n + BigUint::one();
        Self { n, s, n_s, n_s1, g, key_bits, ct_ctx: OnceLock::new() }
    }

    /// The RSA modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The Damgård–Jurik exponent `s` (s = 1 is plain Paillier).
    pub fn s(&self) -> u32 {
        self.s
    }

    /// The plaintext modulus `n^s`.
    pub fn plaintext_modulus(&self) -> &BigUint {
        &self.n_s
    }

    /// The ciphertext modulus `n^{s+1}`.
    pub fn ciphertext_modulus(&self) -> &BigUint {
        &self.n_s1
    }

    /// The generator `g = 1 + n`.
    pub fn generator(&self) -> &BigUint {
        &self.g
    }

    /// The nominal key size in bits (the size of `n`), e.g. 1024 in the
    /// paper's experiments.
    pub fn key_bits(&self) -> u64 {
        self.key_bits
    }

    /// The size of one ciphertext in bytes (an element of `Z_{n^{s+1}}`).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_s1.bits().div_ceil(8) as usize
    }

    /// `g^m mod n^{s+1}` in closed form: because `g = 1 + n`, the binomial
    /// theorem collapses to `Σ_{i=0}^{s} C(m,i)·n^i` (every higher term
    /// vanishes modulo `n^{s+1}`) — for `s = 1` literally `1 + m·n`, one
    /// modular multiplication (Damgård & Jurik, PKC 2001, §4.2).  This is
    /// the `g^m` half of every encryption.
    ///
    /// Exact for every `m ≥ 0` (no plaintext-range precondition).
    pub fn generator_pow(&self, m: &BigUint) -> BigUint {
        let modulus = &self.n_s1;
        // i = 0 term of the binomial sum.
        let mut result = BigUint::one();
        // Falling factorial m·(m−1)···(m−i+1) mod n^{s+1}.  For m < i the
        // true product contains an exact zero factor (at j = m), so the
        // modular wrap of later factors is harmless: C(m,i) = 0 sticks.
        let mut falling = BigUint::one();
        let mut i_factorial = BigUint::one();
        let mut n_pow_i = BigUint::one();
        for i in 1..=u64::from(self.s) {
            n_pow_i = &n_pow_i * &self.n % modulus;
            let j = BigUint::from(i - 1);
            let factor = if *m >= j { m - &j } else { modulus - ((&j - m) % modulus) };
            falling = falling * (factor % modulus) % modulus;
            i_factorial *= BigUint::from(i);
            let inv = mod_inverse(&(&i_factorial % modulus), modulus)
                .expect("i! has only small prime factors, coprime with n^{s+1}");
            result = (result + &falling * inv % modulus * &n_pow_i) % modulus;
        }
        result
    }

    /// The cached Montgomery context for the ciphertext modulus `n^{s+1}`.
    ///
    /// `n^{s+1}` is odd for every real key (both prime factors are odd), so
    /// this only returns `None` for degenerate hand-built keys; callers fall
    /// back to the generic [`BigUint::modpow`].
    pub fn ciphertext_ctx(&self) -> Option<&Arc<MontgomeryCtx>> {
        if self.ct_ctx.get().is_none() {
            let ctx = MontgomeryCtx::new(&self.n_s1)?;
            let _ = self.ct_ctx.set(Arc::new(ctx));
        }
        self.ct_ctx.get()
    }

    /// `base^exponent mod n^{s+1}` through the cached Montgomery context —
    /// the batched form every ciphertext-space exponentiation of a run
    /// should use (one REDC setup for all of them).  Value-identical to
    /// `base.modpow(exponent, n^{s+1})`.
    pub fn modpow_ciphertext(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        match self.ciphertext_ctx() {
            Some(ctx) => ctx.modpow(base, exponent),
            None => base.modpow(exponent, &self.n_s1),
        }
    }

    /// Eagerly builds the cached Montgomery context (idempotent).
    pub fn precompute(&self) {
        let _ = self.ciphertext_ctx();
    }
}

/// The secret key: the factorisation of `n` and the derived exponents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey {
    p: BigUint,
    q: BigUint,
    lambda: BigUint,
    /// CRT-combined decryption exponent: `d ≡ 0 (mod λ)`, `d ≡ 1 (mod n^s)`.
    d: BigUint,
}

impl SecretKey {
    /// The Carmichael value `λ = lcm(p−1, q−1)`.
    pub fn lambda(&self) -> &BigUint {
        &self.lambda
    }

    /// The threshold decryption exponent `d`.
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// The secret-sharing modulus `n^s · λ` used by the Shamir dealer.
    pub fn sharing_modulus(&self, pk: &PublicKey) -> BigUint {
        pk.plaintext_modulus() * &self.lambda
    }

    /// Builds the CRT fast-path context from the factorisation this key
    /// holds (see [`CrtContext`] for the trust boundary).  `None` only for
    /// degenerate keys whose factors cannot support the split.
    pub fn crt_context(&self, pk: &PublicKey) -> Option<CrtContext> {
        debug_assert_eq!(&(&self.p * &self.q), pk.modulus(), "key pair mismatch");
        CrtContext::new(&self.p, &self.q, pk.s())
    }
}

/// A freshly generated key pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    /// The public key, distributed to every participant.
    pub public: PublicKey,
    /// The secret key, held only by the trusted dealer that creates the
    /// key-shares (the paper's bootstrap server).
    pub secret: SecretKey,
}

impl KeyPair {
    /// Generates a key pair with an RSA modulus of `modulus_bits` bits and
    /// Damgård–Jurik exponent `s`.
    ///
    /// The paper uses 1024-bit keys ("average security"); tests use smaller
    /// moduli to stay fast.
    ///
    /// # Panics
    /// Panics if `modulus_bits < 16` or `s == 0`.
    pub fn generate<R: Rng + ?Sized>(modulus_bits: u64, s: u32, rng: &mut R) -> Self {
        assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
        assert!(s >= 1);
        let (p, q) = generate_prime_pair(modulus_bits / 2, rng);
        let n = &p * &q;
        let public = PublicKey::new(n, s, modulus_bits);
        let one = BigUint::one();
        let lambda = lcm(&(&p - &one), &(&q - &one));
        let d = crt_combine(&lambda, public.plaintext_modulus());
        let secret = SecretKey { p, q, lambda, d };
        Self { public, secret }
    }
}

/// Finds `d` with `d ≡ 0 (mod λ)` and `d ≡ 1 (mod n^s)` via the CRT:
/// `d = λ · (λ⁻¹ mod n^s)`.
fn crt_combine(lambda: &BigUint, n_s: &BigUint) -> BigUint {
    let lambda_inv = mod_inverse(&(lambda % n_s), n_s)
        .expect("gcd(lambda, n^s) = 1 because p, q are large primes");
    lambda * lambda_inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_integer::Integer;
    use num_traits::Zero;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_keypair(seed: u64, s: u32) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyPair::generate(128, s, &mut rng)
    }

    #[test]
    fn generator_is_one_plus_n() {
        let kp = small_keypair(1, 1);
        assert_eq!(kp.public.generator(), &(kp.public.modulus() + BigUint::one()));
    }

    #[test]
    fn moduli_are_consistent_powers() {
        let kp = small_keypair(2, 2);
        let n = kp.public.modulus().clone();
        assert_eq!(kp.public.plaintext_modulus(), &n.pow(2));
        assert_eq!(kp.public.ciphertext_modulus(), &n.pow(3));
    }

    #[test]
    fn d_satisfies_both_congruences() {
        for s in 1..=2u32 {
            let kp = small_keypair(3 + s as u64, s);
            let d = kp.secret.d();
            assert!((d % kp.secret.lambda()).is_zero(), "d must be 0 mod lambda");
            assert_eq!(d % kp.public.plaintext_modulus(), BigUint::one(), "d must be 1 mod n^s");
        }
    }

    #[test]
    fn lambda_divides_order() {
        // For any unit a, a^(n·λ) ≡ 1 mod n^2 (Carmichael for Z*_{n^2}).
        let kp = small_keypair(5, 1);
        let n = kp.public.modulus();
        let n2 = kp.public.ciphertext_modulus();
        let exponent = n * kp.secret.lambda();
        for base in [2u32, 3, 7, 12_345] {
            let base = BigUint::from(base);
            if base.gcd(n) == BigUint::one() {
                assert_eq!(base.modpow(&exponent, n2), BigUint::one());
            }
        }
    }

    #[test]
    fn ciphertext_bytes_scale_with_s() {
        let kp1 = small_keypair(6, 1);
        let kp2 = small_keypair(6, 2);
        assert!(kp2.public.ciphertext_bytes() > kp1.public.ciphertext_bytes());
        // s = 1: ciphertext lives in Z_{n^2}, about twice the key size.
        let expected = (2 * 128) / 8;
        let got = kp1.public.ciphertext_bytes();
        assert!((got as i64 - expected as i64).abs() <= 1, "got {got}, expected about {expected}");
    }

    #[test]
    fn distinct_seeds_give_distinct_moduli() {
        let a = small_keypair(7, 1);
        let b = small_keypair(8, 1);
        assert_ne!(a.public.modulus(), b.public.modulus());
    }

    #[test]
    fn generator_pow_closed_form_handles_edge_exponents() {
        use num_bigint::RandBigInt;
        let mut rng = StdRng::seed_from_u64(99);
        for s in 1..=3u32 {
            let kp = small_keypair(40 + s as u64, s);
            let pk = &kp.public;
            let n2 = pk.ciphertext_modulus();
            // m = 0, 1, tiny m (smaller than the binomial index i), the
            // largest plaintext, and two random ones.
            for m in [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from(2u32),
                pk.plaintext_modulus() - BigUint::one(),
                rng.gen_biguint_below(pk.plaintext_modulus()),
                rng.gen_biguint_below(pk.plaintext_modulus()),
            ] {
                assert_eq!(pk.generator_pow(&m), pk.generator().modpow(&m, n2), "s = {s}, m = {m}");
            }
        }
    }

    #[test]
    fn table_cache_is_invisible_to_equality_and_clone() {
        let kp = small_keypair(30, 1);
        let cold = kp.public.clone();
        kp.public.precompute();
        // One side has the context built, the other does not: still equal.
        assert_eq!(kp.public, cold);
        // A clone taken after precompute carries the cache and still works.
        let warm = kp.public.clone();
        let (base, exp) = (BigUint::from(12_345u32), BigUint::from(678u32));
        assert_eq!(
            warm.modpow_ciphertext(&base, &exp),
            base.modpow_schoolbook(&exp, kp.public.ciphertext_modulus())
        );
    }
}
