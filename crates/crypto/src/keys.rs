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
//!
//! The key also carries the mask base `h_s = h^{n^s} mod n^{s+1}` of the
//! Damgård–Jurik–Nielsen variant (IJIS 2010, §4): an encryption masks with
//! `h_s^α` for a short random `α` instead of `r^{n^s}` for a fresh `r`, so
//! the mask is a fixed-base power any key holder can table.  `h_s` is an
//! `n^s`-th power like every classic mask, so decryption is unchanged; see
//! docs/ARCHITECTURE.md, "Encryption masks and what they assume".

use std::sync::{Arc, OnceLock};

use num_bigint::montgomery::{FixedBaseTable, MontInt, MontgomeryCtx};
use num_bigint::{BigUint, RandBigInt};
use num_integer::Integer;
use num_traits::One;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arith::{lcm, mod_inverse};
use crate::crt::CrtContext;
use crate::primes::generate_prime_pair;

/// Teeth of the Lim–Lee comb behind [`PublicKey::mask_pow`]: `2^6 − 1`
/// entries of one ciphertext each, 16 KiB for a 1024-bit key.  Every node
/// actor holds its own table, so the width is a memory budget as much as a
/// speed knob: 8 teeth cost a quarter more peak RSS on the deployed path
/// for a fifth fewer multiplications.
const MASK_COMB_TEETH: u32 = 6;

/// Largest supported Damgård–Jurik exponent `s`.  Key generation refuses a
/// larger one and so does the wire parser, which has to raise a peer's `n`
/// to a peer's `s` before it can check anything else about the key.
pub(crate) const MAX_S: u32 = 16;

/// The public encryption key `χ = (n, g, h_s)` plus the precomputed powers
/// of `n`.
///
/// The key also lazily caches the Montgomery context for the ciphertext
/// modulus `n^{s+1}` (see [`PublicKey::modpow_ciphertext`]) and the comb
/// table of `h_s` (see [`PublicKey::encrypt`]), amortising both set-ups
/// across every operation of a run.  The caches are invisible to equality
/// and serialisation (derived state, rebuilt on demand) and shared by
/// clones taken after they were built.
#[derive(Debug, Clone)]
pub struct PublicKey {
    n: BigUint,
    s: u32,
    n_s: BigUint,
    n_s1: BigUint,
    g: BigUint,
    h_s: BigUint,
    key_bits: u64,
    ct_ctx: OnceLock<Arc<MontgomeryCtx>>,
    mask_table: OnceLock<Arc<FixedBaseTable>>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        // n, s and h_s determine every derived field; the caches are
        // deliberately excluded (performance artefacts, not identity).
        self.n == other.n && self.s == other.s && self.h_s == other.h_s && self.key_bits == other.key_bits
    }
}

impl Eq for PublicKey {}

impl PublicKey {
    /// # Panics
    /// Panics if `s` is 0 or `n` is even: ciphertexts live in Montgomery
    /// form modulo `n^{s+1}`, which only an odd modulus has (and no product
    /// of two odd primes is even).  The wire parser refuses both first.
    pub(crate) fn new(n: BigUint, s: u32, key_bits: u64, h_s: BigUint) -> Self {
        assert!(s >= 1, "the Damgard-Jurik exponent s must be at least 1");
        assert!(n.is_odd(), "the modulus n must be odd");
        let n_s = n.pow(s);
        let n_s1 = &n_s * &n;
        let g = &n + BigUint::one();
        Self { n, s, n_s, n_s1, g, h_s, key_bits, ct_ctx: OnceLock::new(), mask_table: OnceLock::new() }
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

    /// The mask base `h_s = h^{n^s} mod n^{s+1}`: key material with the
    /// same trust as `n` (a key with a bad `h_s` encrypts badly).
    pub fn mask_base(&self) -> &BigUint {
        &self.h_s
    }

    /// The width of a mask exponent `α` in bits: half the size of `n`
    /// (`key_bits / 2` for every generated key), the short-exponent
    /// parameter of the Damgård–Jurik–Nielsen variant.
    pub fn mask_exponent_bits(&self) -> u64 {
        self.n.bits().div_ceil(2)
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

    /// The cached Montgomery context for the ciphertext modulus `n^{s+1}`
    /// (odd: a key is only ever built, or parsed, around an odd `n`): the one
    /// arithmetic every ciphertext-space operation runs on, and the `R`
    /// resident ciphertexts are held against.
    pub fn ciphertext_ctx(&self) -> &Arc<MontgomeryCtx> {
        self.ct_ctx
            .get_or_init(|| Arc::new(MontgomeryCtx::new(&self.n_s1).expect("n is odd, so is every power of it")))
    }

    /// `base^exponent mod n^{s+1}` through the cached Montgomery context —
    /// the batched form every ciphertext-space exponentiation of a run
    /// should use (one Montgomery setup for all of them).  Value-identical to
    /// `base.modpow(exponent, n^{s+1})`.
    pub fn modpow_ciphertext(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        self.ciphertext_ctx().modpow(base, exponent)
    }

    /// The encryption mask `h_s^α mod n^{s+1}`, in Montgomery form, through
    /// the cached comb table of `h_s`, built by the first call: `⌈bits/6⌉`
    /// squarings and as many products instead of one squaring per bit of a
    /// full-width exponent.  The Montgomery form of
    /// `h_s.modpow(α, n^{s+1})` for `α` of at most
    /// [`PublicKey::mask_exponent_bits`] bits, which is all the table
    /// covers.
    pub(crate) fn mask_pow(&self, alpha: &BigUint) -> MontInt {
        let ctx = self.ciphertext_ctx();
        let table = self.mask_table.get_or_init(|| {
            Arc::new(ctx.fixed_base_table(&self.h_s, self.mask_exponent_bits(), MASK_COMB_TEETH))
        });
        ctx.fixed_base_pow_mont(table, alpha).expect("a mask exponent is drawn within the table's bound")
    }

    /// Eagerly builds the cached Montgomery context (idempotent).  The
    /// mask table is not built here: a party that never encrypts (the
    /// coordinator of a deployed run) should never pay for one.
    pub fn precompute(&self) {
        let _ = self.ciphertext_ctx();
    }
}

/// The secret key: the factorisation of `n` (held as the [`CrtContext`]
/// key generation built from it) and the derived exponents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecretKey {
    lambda: BigUint,
    /// CRT-combined decryption exponent: `d ≡ 0 (mod λ)`, `d ≡ 1 (mod n^s)`.
    d: BigUint,
    crt: CrtContext,
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

    /// A copy of the CRT fast-path context key generation built from the
    /// factorisation (see [`CrtContext`] for the trust boundary).  Always
    /// `Some`: a generated key has two distinct odd primes.
    pub fn crt_context(&self, pk: &PublicKey) -> Option<CrtContext> {
        debug_assert_eq!(self.crt.ciphertext_modulus(), pk.ciphertext_modulus(), "key pair mismatch");
        Some(self.crt.clone())
    }

    /// The CRT context itself, for the full-key decryption in this crate.
    pub(crate) fn crt(&self) -> &CrtContext {
        &self.crt
    }
}

/// A freshly generated key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Panics if `modulus_bits < 16`, `s == 0` or `s > 16`.
    pub fn generate<R: Rng + ?Sized>(modulus_bits: u64, s: u32, rng: &mut R) -> Self {
        let (p, q) = draw_factors(modulus_bits, s, rng);
        let n = &p * &q;
        let crt = CrtContext::new(&p, &q, s).expect("two distinct odd primes support the split");
        // h_s = h^{n^s}: one dealer-speed exponentiation, no caller draw.
        let h_s = crt.pow_n_s(&mask_generator(&n));
        let public = PublicKey::new(n, s, modulus_bits, h_s);
        let lambda = carmichael(&p, &q);
        let d = crt_combine(&lambda, public.plaintext_modulus());
        let secret = SecretKey { lambda, d, crt };
        Self { public, secret }
    }
}

/// Every draw key generation takes from the caller's RNG: the two prime
/// factors.  Shared with [`crate::backend::PlaintextSurrogate`]'s parity
/// set-up, which replays these draws and derives nothing else.
///
/// # Panics
/// Panics if `modulus_bits < 16` or `s` is outside `1..=MAX_S`.
pub(crate) fn draw_factors<R: Rng + ?Sized>(modulus_bits: u64, s: u32, rng: &mut R) -> (BigUint, BigUint) {
    assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
    assert!((1..=MAX_S).contains(&s), "the Damgard-Jurik exponent s must be in 1..={MAX_S}");
    generate_prime_pair(modulus_bits / 2, rng)
}

/// The Carmichael value `λ = lcm(p − 1, q − 1)` of `n = p·q`.
fn carmichael(p: &BigUint, q: &BigUint) -> BigUint {
    let one = BigUint::one();
    lcm(&(p - &one), &(q - &one))
}

/// The secret-sharing modulus `n^s · λ` from the bare factors (what
/// [`SecretKey::sharing_modulus`] returns for the key they generate).
pub(crate) fn sharing_modulus_of(p: &BigUint, q: &BigUint, s: u32) -> BigUint {
    (p * q).pow(s) * carmichael(p, q)
}

/// The RNG stream that names the mask generator for modulus `n`: seeded by
/// an FNV-1a fold of the modulus limbs, so `h` is a public function of `n`
/// and key generation draws nothing for it from the caller's RNG (the
/// master stream, and with it every pinned seed, is where it was).
#[expect(clippy::disallowed_methods, reason = "D3: the named mask-generator seed helper, keyed by the modulus")]
fn mask_generator_rng(n: &BigUint) -> StdRng {
    let fold = |acc: u64, limb: &u64| (acc ^ limb).wrapping_mul(0x0000_0100_0000_01B3);
    StdRng::seed_from_u64(n.to_u64_digits().iter().fold(0xCBF2_9CE4_8422_2325, fold))
}

/// The mask generator `h = x² mod n` for the first `x` off
/// [`mask_generator_rng`] that is a unit whose square is not 1.  A square,
/// not DJN's `−x²`: that choice needs `−1` to be a non-square of Jacobi
/// symbol 1, i.e. `p ≡ q ≡ 3 (mod 4)`, which these primes do not promise.
fn mask_generator(n: &BigUint) -> BigUint {
    let mut rng = mask_generator_rng(n);
    loop {
        let x = rng.gen_biguint_below(n);
        let h = &x * &x % n;
        if h > BigUint::one() && h.gcd(n).is_one() {
            return h;
        }
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
    fn mask_base_takes_no_draw_and_is_a_function_of_the_modulus() {
        // Key generation leaves the caller's RNG exactly where drawing the
        // two primes leaves it: the pinned master streams did not move.
        let mut rng = StdRng::seed_from_u64(31);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let mut primes_only = StdRng::seed_from_u64(31);
        let _ = generate_prime_pair(64, &mut primes_only);
        assert_eq!(rng, primes_only);
        // Same modulus, same generator; and it is a square unit other than 1.
        let h = mask_generator(kp.public.modulus());
        assert_eq!(h, mask_generator(kp.public.modulus()));
        assert!(h > BigUint::one() && h.gcd(kp.public.modulus()).is_one());
        assert_ne!(h, mask_generator(small_keypair(32, 1).public.modulus()));
    }

    #[test]
    fn mask_base_is_an_n_s_th_power_the_secret_exponent_strips() {
        for s in 1..=2u32 {
            let kp = small_keypair(33 + u64::from(s), s);
            let (pk, h_s) = (&kp.public, kp.public.mask_base());
            assert!(h_s > &BigUint::one() && h_s < pk.ciphertext_modulus());
            assert!(h_s.gcd(pk.modulus()).is_one());
            let h = mask_generator(pk.modulus());
            assert_eq!(h_s, &h.modpow_schoolbook(pk.plaintext_modulus(), pk.ciphertext_modulus()));
            // h_s^λ = h^{n^s·λ} = 1: every mask vanishes under d ≡ 0 (mod λ).
            assert_eq!(pk.modpow_ciphertext(h_s, kp.secret.lambda()), BigUint::one(), "s = {s}");
        }
    }

    #[test]
    fn mask_pow_matches_plain_exponentiation_up_to_its_bound() {
        let mut rng = StdRng::seed_from_u64(35);
        for s in 1..=2u32 {
            let pk = small_keypair(36 + u64::from(s), s).public;
            let bits = pk.mask_exponent_bits();
            assert_eq!(bits, 64, "half of a 127- or 128-bit modulus");
            let all_ones = (BigUint::one() << bits) - BigUint::one();
            for alpha in [BigUint::from(0u32), BigUint::one(), all_ones, rng.gen_biguint(bits), rng.gen_biguint(bits / 3)] {
                let expected = pk.mask_base().modpow_schoolbook(&alpha, pk.ciphertext_modulus());
                assert_eq!(pk.ciphertext_ctx().from_mont(&pk.mask_pow(&alpha)), expected, "s = {s}, alpha = {alpha}");
            }
        }
    }

    #[test]
    fn mask_table_fits_its_memory_budget_at_the_paper_key_size() {
        // Any odd 1024-bit modulus sizes the table like a real key's does.
        let mut n = StdRng::seed_from_u64(38).gen_biguint(1024);
        n.set_bit(1023, true);
        n.set_bit(0, true);
        let pk = PublicKey::new(n, 1, 1024, BigUint::from(4u32));
        assert_eq!(pk.mask_exponent_bits(), 512);
        let _ = pk.mask_pow(&BigUint::from(5u32));
        let table = pk.mask_table.get().expect("built by the first mask");
        assert!(table.exponent_bits() >= 512);
        assert!(table.heap_bytes() <= 16 << 10, "{} bytes: every node actor holds one", table.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_modulus_is_refused_where_a_key_is_built() {
        let _ = PublicKey::new(BigUint::one() << 127u32, 1, 128, BigUint::from(3u32));
    }

    #[test]
    fn table_cache_is_invisible_to_equality_and_clone() {
        let kp = small_keypair(30, 1);
        let cold = kp.public.clone();
        kp.public.precompute();
        let _ = kp.public.mask_pow(&BigUint::from(3u32));
        assert!(cold.mask_table.get().is_none() && kp.public.mask_table.get().is_some());
        // One side has its caches built, the other does not: still equal,
        // and the same draws still make the same ciphertext.
        assert_eq!(kp.public, cold);
        let m = BigUint::from(77u32);
        assert_eq!(
            kp.public.encrypt(&m, &mut StdRng::seed_from_u64(1)),
            cold.encrypt(&m, &mut StdRng::seed_from_u64(1))
        );
        // A clone taken after precompute carries the cache and still works.
        let warm = kp.public.clone();
        let (base, exp) = (BigUint::from(12_345u32), BigUint::from(678u32));
        assert_eq!(
            warm.modpow_ciphertext(&base, &exp),
            base.modpow_schoolbook(&exp, kp.public.ciphertext_modulus())
        );
    }
}
