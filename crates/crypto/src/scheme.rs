//! The Damgård–Jurik encryption scheme: encryption, decryption and the
//! additive homomorphism (§3.3.1 of the paper).

use num_bigint::{BigUint, RandBigInt};
use num_traits::{One, Zero};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::arith::extract_plaintext;
use crate::keys::{PublicKey, SecretKey};

/// A ciphertext: an element of `Z*_{n^{s+1}}`.
///
/// The homomorphic addition operator `+ₕ` is the modular product of the
/// underlying values; scalar multiplication is modular exponentiation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    value: BigUint,
}

impl Ciphertext {
    /// Wraps a raw ciphertext value (used by the threshold module).
    pub(crate) fn from_raw(value: BigUint) -> Self {
        Self { value }
    }

    /// The raw value in `Z_{n^{s+1}}`.
    pub fn raw(&self) -> &BigUint {
        &self.value
    }
}

impl PublicKey {
    /// Encrypts an integer plaintext `m ∈ Z_{n^s}`:
    /// `E(m) = g^m · h_s^α mod n^{s+1}` with `α` uniform below
    /// `2^⌈|n|/2⌉` — one draw of [`PublicKey::mask_exponent_bits`] bits from
    /// `rng`.  The mask `h_s^α` is an `n^s`-th power exactly like the
    /// textbook `r^{n^s}`, so decryption and the homomorphism cannot tell
    /// the two apart.  Every party runs this one path: holding the
    /// factorisation makes encryption no faster.
    ///
    /// # Panics
    /// Panics if `m ≥ n^s`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
        assert!(m < self.plaintext_modulus(), "plaintext must be below n^s");
        let mask = self.mask_pow(&rng.gen_biguint(self.mask_exponent_bits()));
        // g = 1 + n, so g^m collapses to the closed-form binomial sum
        // (1 + m·n for s = 1) — negative fixed-point encodings are
        // full-width exponents, so this replaces an entire square-and-
        // multiply chain per encryption.
        let gm = self.generator_pow(m);
        Ciphertext { value: (gm * mask) % self.ciphertext_modulus() }
    }

    /// Encrypts zero (used to initialise the `k − 1` means a participant is
    /// not assigned to, §4.2 step 1).
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        self.encrypt(&BigUint::zero(), rng)
    }

    /// Homomorphic addition `E(a) +ₕ E(b) = E(a + b mod n^s)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext { value: (&a.value * &b.value) % self.ciphertext_modulus() }
    }

    /// Homomorphic scalar multiplication `k ·ₕ E(a) = E(k · a mod n^s)`.
    pub fn scalar_mul(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext { value: self.modpow_ciphertext(&a.value, k) }
    }

    /// Doubles a ciphertext `e` times: `E(2^e · a)`.  This is the scaling
    /// operation of the EESum local update rule (Algorithm 2), implemented
    /// by repeated squaring of the exponent `2^e`.
    pub fn scale_pow2(&self, a: &Ciphertext, e: u32) -> Ciphertext {
        self.scalar_mul(a, &(BigUint::one() << e))
    }

    /// Re-randomises a ciphertext by multiplying it with a fresh encryption
    /// of zero, so the same plaintext yields an unlinkable ciphertext.
    pub fn rerandomize<R: Rng + ?Sized>(&self, a: &Ciphertext, rng: &mut R) -> Ciphertext {
        self.add(a, &self.encrypt_zero(rng))
    }
}

impl SecretKey {
    /// Decrypts a ciphertext with the full secret key:
    /// `c^d = (1+n)^m (mod n^{s+1})`, then the plaintext `m` is extracted
    /// from the discrete logarithm of `1 + n`.
    pub fn decrypt(&self, pk: &PublicKey, c: &Ciphertext) -> BigUint {
        // The secret key knows the factorisation, so `c^d` gets the full
        // CRT split (bit-identical to the direct modpow).
        let stripped = self.crt().modpow(c.raw(), self.d());
        extract_plaintext(&stripped, pk.modulus(), pk.s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64, s: u32) -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(128, s, &mut rng);
        (kp, rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip_s1() {
        let (kp, mut rng) = keypair(1, 1);
        for m in [0u64, 1, 42, 1_000_000, u64::MAX / 7] {
            let m = BigUint::from(m);
            let c = kp.public.encrypt(&m, &mut rng);
            assert_eq!(kp.secret.decrypt(&kp.public, &c), m);
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip_s2() {
        let (kp, mut rng) = keypair(2, 2);
        // Plaintexts above n (but below n^2) only work because s = 2.
        let n = kp.public.modulus().clone();
        for m in [BigUint::from(7u32), &n + BigUint::from(123u32), &n * BigUint::from(9u32)] {
            let c = kp.public.encrypt(&m, &mut rng);
            assert_eq!(kp.secret.decrypt(&kp.public, &c), m);
        }
    }

    #[test]
    fn encryption_is_randomised() {
        let (kp, mut rng) = keypair(3, 1);
        let m = BigUint::from(99u32);
        let c1 = kp.public.encrypt(&m, &mut rng);
        let c2 = kp.public.encrypt(&m, &mut rng);
        assert_ne!(c1, c2, "semantic security requires randomised encryption");
        assert_eq!(kp.secret.decrypt(&kp.public, &c1), kp.secret.decrypt(&kp.public, &c2));
    }

    #[test]
    fn homomorphic_addition() {
        let (kp, mut rng) = keypair(4, 1);
        let a = BigUint::from(1234u32);
        let b = BigUint::from(8765u32);
        let ca = kp.public.encrypt(&a, &mut rng);
        let cb = kp.public.encrypt(&b, &mut rng);
        let sum = kp.public.add(&ca, &cb);
        assert_eq!(kp.secret.decrypt(&kp.public, &sum), &a + &b);
    }

    #[test]
    fn homomorphic_addition_wraps_modulo_plaintext_space() {
        let (kp, mut rng) = keypair(5, 1);
        let n_s = kp.public.plaintext_modulus().clone();
        let a = &n_s - BigUint::from(1u32);
        let b = BigUint::from(5u32);
        let ca = kp.public.encrypt(&a, &mut rng);
        let cb = kp.public.encrypt(&b, &mut rng);
        let sum = kp.public.add(&ca, &cb);
        assert_eq!(kp.secret.decrypt(&kp.public, &sum), BigUint::from(4u32));
    }

    #[test]
    fn scalar_multiplication() {
        let (kp, mut rng) = keypair(6, 1);
        let a = BigUint::from(321u32);
        let ca = kp.public.encrypt(&a, &mut rng);
        let scaled = kp.public.scalar_mul(&ca, &BigUint::from(17u32));
        assert_eq!(kp.secret.decrypt(&kp.public, &scaled), BigUint::from(321u32 * 17));
    }

    #[test]
    fn scale_pow2_matches_repeated_addition() {
        let (kp, mut rng) = keypair(7, 1);
        let a = BigUint::from(55u32);
        let ca = kp.public.encrypt(&a, &mut rng);
        let scaled = kp.public.scale_pow2(&ca, 5);
        assert_eq!(kp.secret.decrypt(&kp.public, &scaled), BigUint::from(55u32 * 32));
    }

    #[test]
    fn rerandomisation_preserves_plaintext() {
        let (kp, mut rng) = keypair(8, 1);
        let a = BigUint::from(777u32);
        let ca = kp.public.encrypt(&a, &mut rng);
        let cr = kp.public.rerandomize(&ca, &mut rng);
        assert_ne!(ca, cr);
        assert_eq!(kp.secret.decrypt(&kp.public, &cr), a);
    }

    #[test]
    fn sum_of_many_zero_encryptions_decrypts_to_zero() {
        // This mirrors the k − 1 "empty" means every participant contributes.
        let (kp, mut rng) = keypair(9, 1);
        let mut acc = kp.public.encrypt_zero(&mut rng);
        for _ in 0..20 {
            acc = kp.public.add(&acc, &kp.public.encrypt_zero(&mut rng));
        }
        assert_eq!(kp.secret.decrypt(&kp.public, &acc), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "plaintext must be below")]
    fn oversized_plaintext_rejected() {
        let (kp, mut rng) = keypair(10, 1);
        let too_big = kp.public.plaintext_modulus() + BigUint::one();
        kp.public.encrypt(&too_big, &mut rng);
    }
}
