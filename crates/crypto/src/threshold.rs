//! Non-interactive threshold decryption (§3.3.1, property 3).
//!
//! The decryption exponent `d` is Shamir-shared among `ℓ` key-shares with a
//! polynomial of degree `τ − 1` over `Z_{n^s · λ}`, so that any `τ` distinct
//! shares suffice to decrypt while fewer reveal nothing about `d`.  Each
//! partial decryption raises the ciphertext to `2Δ·sᵢ` where `Δ = ℓ!`;
//! combination applies integer Lagrange coefficients (scaled by `Δ`) and a
//! final correction by `(4Δ²)⁻¹ mod n^s`, following Shoup's RSA-threshold
//! technique as adapted by Damgård–Jurik.  A coefficient's sign is the only
//! sign in the scheme, and all it decides is whether a partial multiplies
//! into the numerator or the denominator of the combination — so it
//! travels as a flag beside an unsigned magnitude, and every integer here
//! is a `BigUint`.
//!
//! In the paper every participant holds one key-share (out of millions) and
//! the epidemic decryption protocol collects τ *distinct* partial
//! decryptions.  The cryptographic combination here is exercised with
//! moderate share counts (tests use ℓ ≤ 32); the protocol-level behaviour at
//! population scale is simulated in the `gossip` crate (`gossip::decryption`;
//! the §4.2.3 row of `docs/ARCHITECTURE.md`, "Paper-to-crate map").

use num_bigint::{BigUint, RandBigInt};
use num_traits::One;
use rand::Rng;

use crate::arith::{extract_plaintext, factorial, lagrange_at_zero, mod_inverse};
use crate::crt::CrtContext;
use crate::keys::{KeyPair, PublicKey};
use crate::scheme::Ciphertext;

/// One participant's private key-share `κᵢ = (i, f(i))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyShare {
    /// 1-based share index (the evaluation point of the polynomial).
    index: usize,
    /// The share value `f(index) mod n^s·λ`.
    value: BigUint,
    /// Total number of shares `ℓ` (needed for Δ = ℓ!).
    num_shares: usize,
}

impl KeyShare {
    /// The 1-based index of this share.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shares dealt.
    pub fn num_shares(&self) -> usize {
        self.num_shares
    }

    /// Partially decrypts a ciphertext: `cᵢ = c^{2Δ·sᵢ} mod n^{s+1}`.
    pub fn partial_decrypt(&self, pk: &PublicKey, c: &Ciphertext) -> PartialDecryption {
        self.partial_decrypt_with(pk, c, None)
    }

    /// [`KeyShare::partial_decrypt`] with an optional CRT fast-path context.
    ///
    /// The exponent `2Δ·sᵢ` is the protocol's largest — `Δ = ℓ!` alone is
    /// thousands of bits at population scale — so the group-order reduction
    /// inside the CRT split pays off most here.  The simulation-side dealer
    /// (which already holds the factorisation) passes `Some`; a real device
    /// computes the identical value through the direct path.
    pub fn partial_decrypt_with(
        &self,
        pk: &PublicKey,
        c: &Ciphertext,
        crt: Option<&CrtContext>,
    ) -> PartialDecryption {
        let delta = factorial(self.num_shares);
        let exponent = BigUint::from(2u32) * &delta * &self.value;
        // One reduction out of the resident form, then the exponentiation
        // (≈ 1 µs before ≥ 0.9 ms); a partial decryption is canonical.
        let c = pk.canonical(c);
        let value = match crt {
            Some(ctx) => ctx.modpow(&c, &exponent),
            None => pk.modpow_ciphertext(&c, &exponent),
        };
        PartialDecryption { share_index: self.index, value }
    }
}

/// The result of applying one key-share to a ciphertext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialDecryption {
    /// Index of the key-share that produced this partial decryption.
    pub share_index: usize,
    /// The partially decrypted value `c^{2Δ·sᵢ}`.
    value: BigUint,
}

impl PartialDecryption {
    /// The raw partially-decrypted value.
    pub fn raw(&self) -> &BigUint {
        &self.value
    }
}

/// The trusted dealer (the paper's bootstrap server) that splits the secret
/// exponent into key-shares.
#[derive(Debug, Clone)]
pub struct ThresholdDealer {
    sharing_modulus: BigUint,
    d: BigUint,
    num_shares: usize,
    threshold: usize,
}

impl ThresholdDealer {
    /// Creates a dealer that will produce `num_shares` shares with
    /// reconstruction threshold `threshold` (τ).
    ///
    /// # Panics
    /// Panics if `threshold` is 0 or greater than `num_shares`.
    pub fn new(keypair: &KeyPair, num_shares: usize, threshold: usize) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        assert!(threshold <= num_shares, "threshold cannot exceed the number of shares");
        Self {
            sharing_modulus: keypair.secret.sharing_modulus(&keypair.public),
            d: keypair.secret.d().clone(),
            num_shares,
            threshold,
        }
    }

    /// The reconstruction threshold τ.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The total number of shares ℓ.
    pub fn num_shares(&self) -> usize {
        self.num_shares
    }

    /// Deals the key-shares: a random polynomial `f` of degree `τ − 1` with
    /// `f(0) = d`, evaluated at `1..=ℓ` modulo `n^s·λ`.
    ///
    /// The `τ − 1` blinding coefficients (`draw_blinding_coefficients`)
    /// are the *only* randomness dealing consumes — share evaluation is
    /// deterministic — so an RNG-parity surrogate (see
    /// `crate::backend::PlaintextSurrogate`) replays the exact dealing
    /// draws through that function without paying the population-sized
    /// evaluation.
    pub fn deal<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<KeyShare> {
        let mut coefficients = vec![self.d.clone()];
        coefficients.extend(draw_blinding_coefficients(&self.sharing_modulus, self.threshold, rng));
        (1..=self.num_shares)
            .map(|i| {
                let x = BigUint::from(i);
                // Horner evaluation modulo the sharing modulus.
                let mut acc = BigUint::from(0u32);
                for coeff in coefficients.iter().rev() {
                    acc = (acc * &x + coeff) % &self.sharing_modulus;
                }
                KeyShare { index: i, value: acc, num_shares: self.num_shares }
            })
            .collect()
    }
}

/// The `τ − 1` uniform draws below the sharing modulus that blind `d` in
/// the sharing polynomial — every draw dealing takes from the caller's RNG.
pub(crate) fn draw_blinding_coefficients<R: Rng + ?Sized>(
    sharing_modulus: &BigUint,
    threshold: usize,
    rng: &mut R,
) -> Vec<BigUint> {
    (1..threshold).map(|_| rng.gen_biguint_below(sharing_modulus)).collect()
}

/// Errors that can occur while combining partial decryptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// Fewer distinct partial decryptions than the threshold requires.
    NotEnoughShares {
        /// How many distinct shares were provided.
        provided: usize,
        /// The required threshold τ.
        required: usize,
    },
    /// The same key-share index appears twice.
    DuplicateShare(usize),
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::NotEnoughShares { provided, required } => {
                write!(f, "not enough partial decryptions: {provided} provided, {required} required")
            }
            CombineError::DuplicateShare(i) => write!(f, "duplicate partial decryption from share {i}"),
        }
    }
}

impl std::error::Error for CombineError {}

/// Combines at least τ distinct partial decryptions into the plaintext.
///
/// `threshold` is the dealer's τ; `num_shares` is ℓ (for Δ = ℓ!).
pub fn combine(
    pk: &PublicKey,
    partials: &[PartialDecryption],
    threshold: usize,
    num_shares: usize,
) -> Result<BigUint, CombineError> {
    combine_with(pk, partials, threshold, num_shares, None)
}

/// [`combine`] with an optional CRT fast-path context for the Δ-scaled
/// Lagrange exponentiations (which grow with `ℓ!` just like the partial
/// decryption exponents).  Value-identical to the direct path.
///
/// A coefficient arrives as `(magnitude, negative)`
/// ([`lagrange_at_zero`]): the magnitude, doubled, is the exponent, and the
/// flag only picks the accumulator.  Partials with a negative coefficient
/// are gathered into one denominator and inverted together: a modular
/// inversion costs several times the short exponentiation it would
/// otherwise precede.
pub fn combine_with(
    pk: &PublicKey,
    partials: &[PartialDecryption],
    threshold: usize,
    num_shares: usize,
    crt: Option<&CrtContext>,
) -> Result<BigUint, CombineError> {
    if partials.len() < threshold {
        return Err(CombineError::NotEnoughShares { provided: partials.len(), required: threshold });
    }
    // BTreeSet, not HashSet: insert-only today, but protocol code must
    // never be one `.iter()` away from randomized order (contract D2).
    let mut seen = std::collections::BTreeSet::new();
    for p in partials {
        if !seen.insert(p.share_index) {
            return Err(CombineError::DuplicateShare(p.share_index));
        }
    }
    // Use exactly τ of the provided partial decryptions.
    let used = &partials[..threshold];
    let subset: Vec<usize> = used.iter().map(|p| p.share_index).collect();
    let delta = factorial(num_shares);

    // c' = Π cᵢ^{2·λ_i} where λ_i is the Δ-scaled integer Lagrange coefficient.
    let modulus = pk.ciphertext_modulus();
    let (mut combined, mut denominator) = (BigUint::one(), BigUint::one());
    for p in used {
        let (magnitude, negative) = lagrange_at_zero(p.share_index, &subset, &delta);
        let exponent = magnitude << 1u32;
        let factor = match crt {
            Some(ctx) => ctx.modpow(&p.value, &exponent),
            None => pk.modpow_ciphertext(&p.value, &exponent),
        };
        let side = if negative { &mut denominator } else { &mut combined };
        *side = &*side * factor % modulus;
    }
    if !denominator.is_one() {
        let inverse = mod_inverse(&denominator, modulus).expect("partial decryptions are units of Z_{n^{s+1}}");
        combined = combined * inverse % modulus;
    }
    // combined = c^{4Δ²·d} = (1+n)^{4Δ²·m}; extract and divide by 4Δ² mod n^s.
    let log = extract_plaintext(&combined, pk.modulus(), pk.s());
    let four_delta_sq = BigUint::from(4u32) * &delta * &delta;
    let inv = mod_inverse(&(four_delta_sq % pk.plaintext_modulus()), pk.plaintext_modulus())
        .expect("4Δ² is coprime with n^s");
    Ok((log * inv) % pk.plaintext_modulus())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn setup(seed: u64, s: u32, shares: usize, threshold: usize) -> (KeyPair, Vec<KeyShare>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(128, s, &mut rng);
        let dealer = ThresholdDealer::new(&kp, shares, threshold);
        let key_shares = dealer.deal(&mut rng);
        (kp, key_shares, rng)
    }

    #[test]
    fn threshold_decryption_round_trip() {
        let (kp, shares, mut rng) = setup(1, 1, 7, 3);
        let indices: Vec<usize> = shares.iter().map(KeyShare::index).collect();
        assert_eq!(indices, (1..=7).collect::<Vec<_>>(), "one distinct 1-based share per participant");
        let m = BigUint::from(123_456u32);
        let c = kp.public.encrypt(&m, &mut rng);
        let partials: Vec<PartialDecryption> =
            shares[..3].iter().map(|s| s.partial_decrypt(&kp.public, &c)).collect();
        assert_eq!(combine(&kp.public, &partials, 3, 7).unwrap(), m);
    }

    #[test]
    fn any_subset_of_size_threshold_works() {
        let (kp, shares, mut rng) = setup(2, 1, 6, 3);
        let m = BigUint::from(98_765u32);
        let c = kp.public.encrypt(&m, &mut rng);
        for subset in [[0usize, 1, 2], [3, 4, 5], [0, 2, 4], [1, 3, 5], [5, 2, 0]] {
            // As given, reversed and shuffled: a coefficient's sign follows
            // the share indices, not their position among the partials.
            let (mut reversed, mut shuffled) = (subset, subset);
            reversed.reverse();
            shuffled.shuffle(&mut rng);
            for order in [subset, reversed, shuffled] {
                let partials: Vec<PartialDecryption> =
                    order.iter().map(|&i| shares[i].partial_decrypt(&kp.public, &c)).collect();
                assert_eq!(combine(&kp.public, &partials, 3, 6).unwrap(), m, "subset {order:?}");
            }
        }
    }

    #[test]
    fn more_than_threshold_shares_also_work() {
        let (kp, shares, mut rng) = setup(3, 1, 5, 2);
        let m = BigUint::from(42u32);
        let c = kp.public.encrypt(&m, &mut rng);
        let partials: Vec<PartialDecryption> =
            shares.iter().map(|s| s.partial_decrypt(&kp.public, &c)).collect();
        assert_eq!(combine(&kp.public, &partials, 2, 5).unwrap(), m);
    }

    #[test]
    fn too_few_shares_fail() {
        let (kp, shares, mut rng) = setup(4, 1, 5, 3);
        let c = kp.public.encrypt(&BigUint::from(9u32), &mut rng);
        let partials: Vec<PartialDecryption> =
            shares[..2].iter().map(|s| s.partial_decrypt(&kp.public, &c)).collect();
        assert_eq!(
            combine(&kp.public, &partials, 3, 5).unwrap_err(),
            CombineError::NotEnoughShares { provided: 2, required: 3 }
        );
    }

    #[test]
    fn duplicate_shares_rejected() {
        let (kp, shares, mut rng) = setup(5, 1, 5, 2);
        let c = kp.public.encrypt(&BigUint::from(9u32), &mut rng);
        let p = shares[0].partial_decrypt(&kp.public, &c);
        let err = combine(&kp.public, &[p.clone(), p], 2, 5).unwrap_err();
        assert_eq!(err, CombineError::DuplicateShare(1));
    }

    #[test]
    fn threshold_decryption_of_homomorphic_sum() {
        // The exact operation Chiaroscuro performs: sum encrypted values,
        // then threshold-decrypt the aggregate.
        let (kp, shares, mut rng) = setup(6, 1, 9, 4);
        let values = [15u32, 27, 3, 900, 41];
        let mut acc = kp.public.encrypt_zero(&mut rng);
        for v in values {
            let c = kp.public.encrypt(&BigUint::from(v), &mut rng);
            acc = kp.public.add(&acc, &c);
        }
        let partials: Vec<PartialDecryption> =
            shares[2..6].iter().map(|s| s.partial_decrypt(&kp.public, &acc)).collect();
        let expected: u32 = values.iter().sum();
        assert_eq!(combine(&kp.public, &partials, 4, 9).unwrap(), BigUint::from(expected));
    }

    #[test]
    fn threshold_one_behaves_like_single_key() {
        let (kp, shares, mut rng) = setup(7, 1, 4, 1);
        let m = BigUint::from(777u32);
        let c = kp.public.encrypt(&m, &mut rng);
        let p = shares[3].partial_decrypt(&kp.public, &c);
        assert_eq!(combine(&kp.public, &[p], 1, 4).unwrap(), m);
    }

    #[test]
    fn works_for_s2() {
        let (kp, shares, mut rng) = setup(8, 2, 5, 3);
        let m = kp.public.modulus() + BigUint::from(55u32); // above n, below n^2
        let c = kp.public.encrypt(&m, &mut rng);
        let partials: Vec<PartialDecryption> =
            shares[1..4].iter().map(|s| s.partial_decrypt(&kp.public, &c)).collect();
        assert_eq!(combine(&kp.public, &partials, 3, 5).unwrap(), m);
    }

    #[test]
    fn dealer_rejects_invalid_threshold() {
        let mut rng = StdRng::seed_from_u64(9);
        let kp = KeyPair::generate(128, 1, &mut rng);
        assert!(std::panic::catch_unwind(|| ThresholdDealer::new(&kp, 3, 5)).is_err());
        assert!(std::panic::catch_unwind(|| ThresholdDealer::new(&kp, 3, 0)).is_err());
    }
}
