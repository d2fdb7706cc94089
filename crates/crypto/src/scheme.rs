//! The Damgård–Jurik encryption scheme: encryption, decryption and the
//! additive homomorphism (§3.3.1 of the paper).

use num_bigint::montgomery::MontInt;
use num_bigint::{BigUint, RandBigInt};
use num_traits::Zero;
use rand::Rng;

use crate::arith::extract_plaintext;
use crate::keys::{PublicKey, SecretKey};

/// A ciphertext: an element of `Z*_{n^{s+1}}`, held **resident** — as the
/// Montgomery residue `c·R mod n^{s+1}` (`R = 2^{64·L}`, `L` the 64-bit
/// limb count of `n^{s+1}`) the multiplication kernels work on, from the
/// moment encryption produces it until a decryptor reads it out.
///
/// The homomorphic addition operator `+ₕ` is the modular product of the
/// underlying values; scalar multiplication is modular exponentiation.
/// Kept resident, the first is one Montgomery product and a doubling one
/// Montgomery squaring, with no division and no conversion in between —
/// and none at the wire, which carries the residue as it stands
/// ([`PublicKey::ciphertext_to_bytes`]).  `x ↦ x·R` is a bijection of
/// `Z_{n^{s+1}}`, so equality of ciphertexts is equality of residues.
///
/// Only a [`PublicKey`] makes one, and only from a value it has checked:
/// the kernels assume every input is below the modulus.
#[derive(Debug, PartialEq, Eq)]
pub struct Ciphertext {
    value: MontInt,
}

impl Clone for Ciphertext {
    fn clone(&self) -> Self {
        Self { value: self.value.clone() }
    }

    /// Overwrites the residue where it stands (no allocation): what a
    /// gossip contact does with the merged state at the end of an exchange.
    fn clone_from(&mut self, source: &Self) {
        self.value.clone_from(&source.value);
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
        // The comb accumulates the mask in Montgomery form: it stays there.
        let mut value = self.mask_pow(&rng.gen_biguint(self.mask_exponent_bits()));
        // g = 1 + n, so g^m collapses to the closed-form binomial sum
        // (1 + m·n for s = 1) — negative fixed-point encodings are
        // full-width exponents, so this replaces an entire square-and-
        // multiply chain per encryption.
        let ctx = self.ciphertext_ctx();
        ctx.mont_mul_assign(&mut value, &ctx.to_mont(&self.generator_pow(m)), &mut Vec::new());
        Ciphertext { value }
    }

    /// Encrypts zero (used to initialise the `k − 1` means a participant is
    /// not assigned to, §4.2 step 1).
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        self.encrypt(&BigUint::zero(), rng)
    }

    /// Homomorphic addition in place, unit by unit over two vectors of one
    /// length: `acc[i] ← acc[i] +ₕ other[i]`, one Montgomery product each
    /// on one shared scratch.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn add_assign(&self, acc: &mut [Ciphertext], other: &[Ciphertext]) {
        assert_eq!(acc.len(), other.len(), "dimension mismatch");
        let (ctx, mut scratch) = (self.ciphertext_ctx(), Vec::new());
        for (a, b) in acc.iter_mut().zip(other) {
            ctx.mont_mul_assign(&mut a.value, &b.value, &mut scratch);
        }
    }

    /// Doubles every ciphertext of a vector `e` times in place:
    /// `E(a) ← E(2^e · a)`, `e` Montgomery squarings each on one shared
    /// scratch.  This is the scaling operation of the EESum local update
    /// rule (Algorithm 2).
    pub fn scale_pow2_assign(&self, units: &mut [Ciphertext], e: u32) {
        let (ctx, mut scratch) = (self.ciphertext_ctx(), Vec::new());
        for unit in units {
            ctx.mont_sqr_n_assign(&mut unit.value, e, &mut scratch);
        }
    }

    /// Homomorphic addition `E(a) +ₕ E(b) = E(a + b mod n^s)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let mut sum = a.clone();
        self.add_assign(std::slice::from_mut(&mut sum), std::slice::from_ref(b));
        sum
    }

    /// Doubles a ciphertext `e` times: `E(2^e · a)`.
    pub fn scale_pow2(&self, a: &Ciphertext, e: u32) -> Ciphertext {
        let mut scaled = a.clone();
        self.scale_pow2_assign(std::slice::from_mut(&mut scaled), e);
        scaled
    }

    /// Homomorphic scalar multiplication `k ·ₕ E(a) = E(k · a mod n^s)`.
    pub fn scalar_mul(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext { value: self.ciphertext_ctx().to_mont(&self.modpow_ciphertext(&self.canonical(a), k)) }
    }

    /// Re-randomises a ciphertext by multiplying it with a fresh encryption
    /// of zero, so the same plaintext yields an unlinkable ciphertext.
    pub fn rerandomize<R: Rng + ?Sized>(&self, a: &Ciphertext, rng: &mut R) -> Ciphertext {
        self.add(a, &self.encrypt_zero(rng))
    }

    /// The canonical residue `c ∈ [0, n^{s+1})` a resident ciphertext
    /// stands for: one Montgomery reduction.  This is the read-out every
    /// decryptor starts with, and the number a textbook description of the
    /// scheme — or an implementation with another `R` — calls "the
    /// ciphertext".
    pub fn canonical(&self, c: &Ciphertext) -> BigUint {
        self.ciphertext_ctx().from_mont(&c.value)
    }

    /// The ciphertext with canonical residue `value`, the inverse of
    /// [`PublicKey::canonical`]: how a ciphertext computed outside this
    /// crate's `encrypt` comes in.  Fails closed like
    /// [`PublicKey::ciphertext_from_bytes`]: `None` for `0` and for
    /// anything at or above `n^{s+1}`.
    pub fn ciphertext_from_canonical(&self, value: &BigUint) -> Option<Ciphertext> {
        (!value.is_zero() && value < self.ciphertext_modulus())
            .then(|| Ciphertext { value: self.ciphertext_ctx().to_mont(value) })
    }

    /// One ciphertext as it travels: the resident residue, big-endian, in
    /// exactly [`PublicKey::ciphertext_bytes`] bytes.  Nothing is converted
    /// — sender and receiver share the key, hence the modulus, hence `R`.
    pub fn ciphertext_to_bytes(&self, c: &Ciphertext) -> Vec<u8> {
        self.ciphertext_ctx().mont_to_bytes_be(&c.value)
    }

    /// Reads a ciphertext a peer sent with
    /// [`PublicKey::ciphertext_to_bytes`] (leading zero padding ignored).
    /// Fails closed: a ciphertext lives in `[1, n^{s+1})` and so does its
    /// resident form (the Montgomery map is a bijection of `Z_{n^{s+1}}`
    /// fixing 0), so `0` and anything at or above the modulus is refused
    /// before it can reach a multiplication kernel, which assumes its
    /// inputs reduced.
    pub fn ciphertext_from_bytes(&self, bytes: &[u8]) -> Option<Ciphertext> {
        let value = self.ciphertext_ctx().mont_from_bytes_be(bytes)?;
        (!value.is_zero()).then_some(Ciphertext { value })
    }
}

impl SecretKey {
    /// Decrypts a ciphertext with the full secret key:
    /// `c^d = (1+n)^m (mod n^{s+1})`, then the plaintext `m` is extracted
    /// from the discrete logarithm of `1 + n`.
    pub fn decrypt(&self, pk: &PublicKey, c: &Ciphertext) -> BigUint {
        // The secret key knows the factorisation, so `c^d` gets the full
        // CRT split (bit-identical to the direct modpow).
        let stripped = self.crt().modpow(&pk.canonical(c), self.d());
        extract_plaintext(&stripped, pk.modulus(), pk.s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use num_traits::One;
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
    fn canonical_constructor_inverts_the_read_out_and_fails_closed() {
        for s in 1..=2 {
            let (kp, mut rng) = keypair(11, s);
            let pk = &kp.public;
            let c = pk.encrypt(&BigUint::from(31_337u32), &mut rng);
            let canonical = pk.canonical(&c);
            assert!(!canonical.is_zero() && &canonical < pk.ciphertext_modulus());
            assert_eq!(pk.ciphertext_from_canonical(&canonical), Some(c));
            // g itself is the textbook encryption of 1 under the mask 1.
            let g = pk.ciphertext_from_canonical(pk.generator()).expect("in range");
            assert_eq!(kp.secret.decrypt(pk, &g), BigUint::one());
            assert_eq!(pk.ciphertext_from_canonical(&BigUint::zero()), None);
            assert_eq!(pk.ciphertext_from_canonical(pk.ciphertext_modulus()), None);
            assert_eq!(pk.ciphertext_from_canonical(&(pk.ciphertext_modulus() + &canonical)), None);
        }
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
