//! Pluggable cipher backends for the distributed execution sequence.
//!
//! The paper evaluates clustering *quality* with a centralized perturbed
//! k-means surrogate precisely because it cannot run millions of real
//! devices (§6.1): the full protocol — gossip, EESum, churn, dissemination,
//! noise shares, threshold decryption — was only ever exercised at small
//! populations because every hot-path operation was a Damgård–Jurik
//! modular exponentiation.  [`CipherBackend`] extracts exactly the
//! operations the runner and the gossip payloads perform on ciphertexts so
//! the *protocol* can scale past the *crypto*:
//!
//! * [`DamgardJurik`] — the real scheme.  Every method delegates to the
//!   existing [`PublicKey`]/[`KeyShare`] operations in the same order with
//!   the same RNG draws, so runs through this backend are **bit-identical**
//!   to the historical hard-wired path from the same seed (pinned by the
//!   runner and scenario tests).
//! * [`PlaintextSurrogate`] — carries the exact plaintext integers the
//!   ciphertexts would decrypt to, with the same lane-packed layout and
//!   bias accounting (`crate::packing`) but no modular arithmetic.  A
//!   million-node protocol simulation then costs integer additions instead
//!   of 2048-bit modular exponentiations, while quality, ε accounting,
//!   message counts and gossip schedules stay *identical* to a crypto run
//!   from the same seed (see the RNG-parity contract below).
//!
//! # RNG-parity contract
//!
//! Everything downstream of backend setup — initial-centroid sampling,
//! per-participant device seeds, gossip schedules, churn masks, noise
//! draws — comes off the caller's master RNG.  For a surrogate run to be
//! comparable value-for-value with a crypto run from the same seed, setup
//! must consume **exactly the same draws**: [`PlaintextSurrogate::setup`]
//! therefore draws the real prime factors and the dealer's polynomial
//! coefficients (both population-independent or cheap) through the very
//! functions key generation and dealing draw them with, and derives no key
//! material from them — no `d`, no CRT context, no mask base `h_s` (which
//! takes no draw: it is a function of `n`).  The per-device *encryption*
//! randomness needs no mirroring: the runner isolates it in
//! per-participant sub-streams that nothing else reads.
//!
//! # What stays backend-independent
//!
//! The epidemic sum rule, the exchange/message accounting, the ε schedule,
//! the lane-packed overflow contract and the decoded sums are properties of
//! the *protocol* and hold identically under both backends (the scenario
//! matrix and the backend-equivalence proptests assert this).  Semantic
//! security and requirement R2 are properties of the *cipher* and hold only
//! under [`DamgardJurik`]: surrogate units travel in cleartext, standing in
//! for the ciphertexts the deployed protocol would send.

use std::sync::Arc;

use num_bigint::BigUint;
use num_traits::Zero;
use rand::Rng;

use crate::crt::CrtContext;
use crate::encoding::FixedPointEncoder;
use crate::keys::{draw_factors, sharing_modulus_of, KeyPair, PublicKey};
use crate::packing::PackedLayout;
use crate::threshold::{
    combine_with, draw_blinding_coefficients, KeyShare, PartialDecryption, ThresholdDealer,
};

/// Everything a backend needs to bootstrap one distributed run.
#[derive(Debug, Clone, Copy)]
pub struct BackendSetup<'a> {
    /// RSA-modulus size in bits.
    pub key_bits: u64,
    /// Damgård–Jurik exponent `s` (1 = Paillier).
    pub damgard_jurik_s: u32,
    /// Number of participants (one key-share each).
    pub population: usize,
    /// Key-share threshold τ.
    pub key_share_threshold: usize,
    /// The lane-packed plaintext layout the run will use, when lane packing
    /// is enabled.  Plaintext backends size their wire units from it.
    pub packed_layout: Option<&'a PackedLayout>,
}

/// The homomorphic operations the Chiaroscuro runner and gossip payloads
/// perform, abstracted over the concrete cipher.
///
/// A backend is set up once per run (consuming the master RNG, see the
/// module docs for the parity contract) and then shared immutably across
/// worker threads; all methods take `&self`.
pub trait CipherBackend: std::fmt::Debug + Send + Sync + Sized + 'static {
    /// The unit travelling in gossip payloads: a real ciphertext for
    /// encrypted backends, a plain lane-packed integer for surrogates.
    type Unit: Clone + Send + Sync + std::fmt::Debug;

    /// Human-readable backend name (reported by benches and docs).
    const NAME: &'static str;

    /// Whether units are semantically secure ciphertexts.  `false` means
    /// the backend is a scalability surrogate whose units stand in for the
    /// ciphertexts the deployed protocol would send — requirement R2 is
    /// then a property of the simulated design, not of the wire content.
    const ENCRYPTED: bool;

    /// Bootstraps the backend: key generation plus threshold dealing (or
    /// the RNG-parity equivalent for surrogates).
    fn setup<R: Rng + ?Sized>(config: &BackendSetup<'_>, rng: &mut R) -> Self;

    /// Eagerly builds derived lookup state (Montgomery contexts) so the
    /// first timed operation does not pay for it.
    /// Idempotent; a no-op for backends without derived state.
    fn precompute(&self) {}

    /// Encrypts one plaintext integer into a unit.
    fn encrypt<R: Rng + ?Sized>(&self, plaintext: &BigUint, rng: &mut R) -> Self::Unit;

    /// Encrypts zero (the `k − 1` means a participant is not assigned to).
    fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Unit {
        self.encrypt(&BigUint::zero(), rng)
    }

    /// Homomorphic addition in place, unit by unit over two vectors of one
    /// length: `acc[i] ← acc[i] +ₕ other[i]`.  Slice-level so that a
    /// backend's scratch serves a whole epidemic vector; the EESum exchange
    /// runs on this and [`CipherBackend::scale_pow2_assign`] and allocates
    /// nothing per unit.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    fn add_assign(&self, acc: &mut [Self::Unit], other: &[Self::Unit]);

    /// Homomorphic scaling by `2^exponent` in place, every unit of a vector
    /// (the EESum update rule).
    fn scale_pow2_assign(&self, units: &mut [Self::Unit], exponent: u32);

    /// Homomorphic addition of two units: [`CipherBackend::add_assign`] on
    /// a copy of `a`.
    fn add(&self, a: &Self::Unit, b: &Self::Unit) -> Self::Unit {
        let mut sum = a.clone();
        self.add_assign(std::slice::from_mut(&mut sum), std::slice::from_ref(b));
        sum
    }

    /// Homomorphic scaling of one unit by `2^exponent`:
    /// [`CipherBackend::scale_pow2_assign`] on a copy of `a`.
    fn scale_pow2(&self, a: &Self::Unit, exponent: u32) -> Self::Unit {
        let mut scaled = a.clone();
        self.scale_pow2_assign(std::slice::from_mut(&mut scaled), exponent);
        scaled
    }

    /// Recovers the plaintext integer of an accumulated unit with τ
    /// distinct key-shares (an identity read for plaintext backends).
    fn threshold_decrypt(&self, unit: &Self::Unit) -> BigUint;

    /// The plaintext integer a unit carries, **without** any key material —
    /// the bridge to row-slab lane arenas.  Only plaintext
    /// backends can answer; encrypted backends panic.  Returns a borrow so
    /// the million-unit arena fill never clones big integers.
    fn plaintext_of<'a>(&self, unit: &'a Self::Unit) -> &'a BigUint;

    /// Fixed-point-encodes a signed value into the backend's plaintext
    /// space (modular negatives for encrypted backends).
    fn encode(&self, encoder: &FixedPointEncoder, value: f64) -> BigUint;

    /// Reverses [`CipherBackend::encode`] after homomorphic accumulation.
    fn decode(&self, encoder: &FixedPointEncoder, plaintext: &BigUint) -> f64;

    /// Wire size of one unit in bytes — a ciphertext for encrypted
    /// backends, the honest packed-plaintext payload for surrogates.
    fn unit_bytes(&self) -> usize;

    /// Serialises the backend's *public* material — everything a node actor
    /// needs to encrypt and run the homomorphic operators, none of the
    /// key-shares — so a coordinator can provision remote actors over the
    /// wire ([`crate::wire`] framing).
    fn export_public(&self) -> Vec<u8>;

    /// Rebuilds an operations-only backend from [`Self::export_public`]
    /// bytes: it encrypts, adds and scales exactly like the original but
    /// cannot threshold-decrypt (node actors never do — decryption stays
    /// with the share holders).  Returns `None` on malformed bytes.
    fn import_public(bytes: &[u8]) -> Option<Self>;

    /// Serialises one unit as raw big-endian bytes, **without** length
    /// framing — the fixed-width vector encoding of
    /// [`crate::wire::serialize_units`] supplies it.  The bytes are the
    /// unit as the backend holds it (a Damgård–Jurik ciphertext travels as
    /// its resident residue): only [`Self::unit_from_bytes`] of a backend
    /// with the same public material gives them meaning.
    fn unit_to_bytes(&self, unit: &Self::Unit) -> Vec<u8>;

    /// Rebuilds a unit from [`Self::unit_to_bytes`] bytes (leading
    /// zero-padding, added by the fixed-width encoding, is ignored).
    fn unit_from_bytes(&self, bytes: &[u8]) -> Option<Self::Unit>;

    /// The plaintext-space capacity a lane-packed layout must fit in, or
    /// `None` when the backend has no modulus (surrogate integers grow
    /// freely, the packing overflow guard still applies at decode time).
    fn plaintext_capacity_bits(&self) -> Option<u64>;
}

/// The real Damgård–Jurik threshold scheme (the default backend).
///
/// Holds the public key and the dealt key-shares; the first τ shares
/// perform every threshold decryption, matching the historical runner.
///
/// Because this backend plays every role of the simulated deployment —
/// dealer, encrypting devices, decrypting share-holders — it also keeps the
/// CRT context derived from the factorisation it generated
/// ([`CrtContext`]; see that type's docs for the trust boundary) and
/// threshold-decrypts through it.  The context never leaves the struct:
/// [`CipherBackend::export_public`] ships only the public key, so a backend
/// rebuilt from it (a provisioned node actor) holds none.  Encryption is
/// the same code at the same speed on both: it never takes the context.
#[derive(Debug, Clone)]
pub struct DamgardJurik {
    public: PublicKey,
    shares: Vec<KeyShare>,
    threshold: usize,
    crt: Option<Arc<CrtContext>>,
}

impl DamgardJurik {
    /// An operations-only backend around an existing public key: supports
    /// encryption and the homomorphic operators but has no key-shares, so
    /// [`CipherBackend::threshold_decrypt`] panics.  Useful for tests and
    /// benches that decrypt with the full secret key.
    pub fn from_public_key(public: PublicKey) -> Self {
        Self { public, shares: Vec::new(), threshold: 0, crt: None }
    }

    /// The CRT context, when the factorisation is held (`None` means
    /// threshold decryption takes the public, direct route).
    fn crt(&self) -> Option<&CrtContext> {
        self.crt.as_deref()
    }
}

impl CipherBackend for DamgardJurik {
    type Unit = crate::scheme::Ciphertext;

    const NAME: &'static str = "damgard-jurik";
    const ENCRYPTED: bool = true;

    fn setup<R: Rng + ?Sized>(config: &BackendSetup<'_>, rng: &mut R) -> Self {
        let keypair = KeyPair::generate(config.key_bits, config.damgard_jurik_s, rng);
        let dealer = ThresholdDealer::new(&keypair, config.population, config.key_share_threshold);
        let shares = dealer.deal(rng);
        let crt = keypair.secret.crt_context(&keypair.public).map(Arc::new);
        Self { public: keypair.public, shares, threshold: config.key_share_threshold, crt }
    }

    fn precompute(&self) {
        self.public.precompute();
    }

    fn encrypt<R: Rng + ?Sized>(&self, plaintext: &BigUint, rng: &mut R) -> Self::Unit {
        self.public.encrypt(plaintext, rng)
    }

    fn add_assign(&self, acc: &mut [Self::Unit], other: &[Self::Unit]) {
        self.public.add_assign(acc, other);
    }

    fn scale_pow2_assign(&self, units: &mut [Self::Unit], exponent: u32) {
        self.public.scale_pow2_assign(units, exponent);
    }

    fn threshold_decrypt(&self, unit: &Self::Unit) -> BigUint {
        assert!(
            self.threshold >= 1 && self.shares.len() >= self.threshold,
            "this Damgård–Jurik backend holds no key-shares (built with from_public_key?)"
        );
        let crt = self.crt();
        let partials: Vec<PartialDecryption> = self.shares[..self.threshold]
            .iter()
            .map(|share| share.partial_decrypt_with(&self.public, unit, crt))
            .collect();
        combine_with(&self.public, &partials, self.threshold, self.shares.len(), crt)
            .expect("threshold decryption with exactly tau distinct shares")
    }

    fn plaintext_of<'a>(&self, _unit: &'a Self::Unit) -> &'a BigUint {
        panic!(
            "Damgård–Jurik units are semantically secure ciphertexts; the plaintext \
             bridge exists only for surrogate backends"
        );
    }

    fn encode(&self, encoder: &FixedPointEncoder, value: f64) -> BigUint {
        encoder.encode(value, &self.public)
    }

    fn decode(&self, encoder: &FixedPointEncoder, plaintext: &BigUint) -> f64 {
        encoder.decode(plaintext, &self.public)
    }

    fn unit_bytes(&self) -> usize {
        self.public.ciphertext_bytes()
    }

    fn export_public(&self) -> Vec<u8> {
        crate::wire::serialize_public_key(&self.public).to_vec()
    }

    fn import_public(bytes: &[u8]) -> Option<Self> {
        crate::wire::deserialize_public_key(bytes).map(Self::from_public_key)
    }

    fn unit_to_bytes(&self, unit: &Self::Unit) -> Vec<u8> {
        self.public.ciphertext_to_bytes(unit)
    }

    /// Fails closed on peer bytes: a ciphertext lives in `[1, n^{s+1})`, so
    /// `0` and anything at or above the modulus is rejected before it can
    /// reach [`Self::add_assign`].
    fn unit_from_bytes(&self, bytes: &[u8]) -> Option<Self::Unit> {
        self.public.ciphertext_from_bytes(bytes)
    }

    fn plaintext_capacity_bits(&self) -> Option<u64> {
        Some(self.public.packing_capacity_bits())
    }
}

/// The plaintext scalability surrogate: units are the exact lane-packed
/// integers the Damgård–Jurik ciphertexts would decrypt to.
///
/// Homomorphic addition becomes integer addition, `scale_pow2` a left
/// shift, threshold decryption an identity read.  The lane-packed bias
/// accounting (`crate::packing`) makes every value non-negative, so no
/// modulus is needed and the decoded sums are *bit-identical* to a crypto
/// run from the same seed (setup replays the key-generation draws — see
/// the module docs).  Requires lane packing: the legacy per-coordinate
/// encoding represents negatives modularly, which has no plaintext analogue.
#[derive(Debug, Clone)]
pub struct PlaintextSurrogate {
    /// Honest wire size of one unit in bits: the lane payload actually
    /// carried (`lanes · lane_bits`), not a ciphertext expansion.
    payload_bits: u64,
}

impl CipherBackend for PlaintextSurrogate {
    type Unit = BigUint;

    const NAME: &'static str = "plaintext-surrogate";
    const ENCRYPTED: bool = false;

    fn setup<R: Rng + ?Sized>(config: &BackendSetup<'_>, rng: &mut R) -> Self {
        // RNG parity with DamgardJurik::setup: the same keygen draws and the
        // same τ−1 polynomial-coefficient draws, with everything that
        // consumes no randomness skipped (the mask-base exponentiation and
        // the population-sized share evaluation above all).
        let (p, q) = draw_factors(config.key_bits, config.damgard_jurik_s, rng);
        let sharing_modulus = sharing_modulus_of(&p, &q, config.damgard_jurik_s);
        let _ = draw_blinding_coefficients(&sharing_modulus, config.key_share_threshold, rng);
        let payload_bits = match config.packed_layout {
            Some(layout) => layout.lanes as u64 * layout.lane_bits,
            // No packed layout (rejected by the runner, but keep the wire
            // model meaningful): the full conservative plaintext capacity.
            None => u64::from(config.damgard_jurik_s) * (config.key_bits - 2),
        };
        Self { payload_bits }
    }

    fn encrypt<R: Rng + ?Sized>(&self, plaintext: &BigUint, _rng: &mut R) -> Self::Unit {
        plaintext.clone()
    }

    fn add_assign(&self, acc: &mut [Self::Unit], other: &[Self::Unit]) {
        assert_eq!(acc.len(), other.len(), "dimension mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a += b;
        }
    }

    fn scale_pow2_assign(&self, units: &mut [Self::Unit], exponent: u32) {
        for unit in units {
            *unit <<= exponent;
        }
    }

    fn threshold_decrypt(&self, unit: &Self::Unit) -> BigUint {
        unit.clone()
    }

    fn plaintext_of<'a>(&self, unit: &'a Self::Unit) -> &'a BigUint {
        unit
    }

    fn encode(&self, _encoder: &FixedPointEncoder, _value: f64) -> BigUint {
        panic!(
            "the plaintext surrogate represents signed values via lane-packed biases \
             only; enable lane_packing (the legacy modular-negative encoding has no \
             plaintext analogue)"
        );
    }

    fn decode(&self, _encoder: &FixedPointEncoder, _plaintext: &BigUint) -> f64 {
        panic!(
            "the plaintext surrogate represents signed values via lane-packed biases \
             only; enable lane_packing (the legacy modular-negative encoding has no \
             plaintext analogue)"
        );
    }

    fn unit_bytes(&self) -> usize {
        self.payload_bits.div_ceil(8) as usize
    }

    fn export_public(&self) -> Vec<u8> {
        self.payload_bits.to_be_bytes().to_vec()
    }

    fn import_public(bytes: &[u8]) -> Option<Self> {
        let bits: [u8; 8] = bytes.try_into().ok()?;
        Some(Self { payload_bits: u64::from_be_bytes(bits) })
    }

    fn unit_to_bytes(&self, unit: &Self::Unit) -> Vec<u8> {
        unit.to_bytes_be()
    }

    fn unit_from_bytes(&self, bytes: &[u8]) -> Option<Self::Unit> {
        Some(BigUint::from_bytes_be(bytes))
    }

    fn plaintext_capacity_bits(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::{LaneBudget, PackedEncoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup_config(population: usize, threshold: usize) -> BackendSetup<'static> {
        BackendSetup {
            key_bits: 256,
            damgard_jurik_s: 1,
            population,
            key_share_threshold: threshold,
            packed_layout: None,
        }
    }

    #[test]
    fn damgard_jurik_backend_matches_direct_key_usage_bit_for_bit() {
        // Same seed: the backend's setup + encrypt must consume exactly the
        // draws the historical hard-wired path consumed, producing identical
        // ciphertexts.
        let config = setup_config(8, 3);
        let mut direct_rng = StdRng::seed_from_u64(11);
        let keypair = KeyPair::generate(256, 1, &mut direct_rng);
        let dealer = ThresholdDealer::new(&keypair, 8, 3);
        let _shares = dealer.deal(&mut direct_rng);
        let m = BigUint::from(123_456u32);
        let direct_ct = keypair.public.encrypt(&m, &mut direct_rng);

        let mut backend_rng = StdRng::seed_from_u64(11);
        let backend = DamgardJurik::setup(&config, &mut backend_rng);
        let backend_ct = backend.encrypt(&m, &mut backend_rng);
        assert_eq!(direct_ct, backend_ct, "the backend must be a transparent delegate");
        assert_eq!(direct_rng, backend_rng, "both paths must consume identical draws");

        // Threshold decryption through the backend recovers the plaintext.
        assert_eq!(backend.threshold_decrypt(&backend_ct), m);
    }

    #[test]
    fn surrogate_setup_leaves_the_rng_in_the_same_state_as_the_crypto_setup() {
        // The parity contract: after setup, both backends have consumed the
        // same number of master-RNG draws, so every downstream random choice
        // (gossip schedules, noise) is identical.
        let config = setup_config(12, 4);
        let mut crypto_rng = StdRng::seed_from_u64(21);
        let _ = DamgardJurik::setup(&config, &mut crypto_rng);
        let mut surrogate_rng = StdRng::seed_from_u64(21);
        let _ = PlaintextSurrogate::setup(&config, &mut surrogate_rng);
        assert_eq!(crypto_rng, surrogate_rng, "setup must consume identical draw sequences");
    }

    #[test]
    fn surrogate_homomorphism_matches_crypto_decodes_exactly() {
        // Accumulate the same packed contributions through both backends:
        // the surrogate's plain integers must equal the threshold-decrypted
        // Damgård–Jurik plaintexts bit for bit.
        let config = setup_config(4, 2);
        let mut rng = StdRng::seed_from_u64(31);
        let crypto = DamgardJurik::setup(&config, &mut rng);
        let surrogate = PlaintextSurrogate::setup(&setup_config(4, 2), &mut StdRng::seed_from_u64(99));

        let encoder = FixedPointEncoder::new(3);
        let budget =
            LaneBudget { contributors: 4, doubling_budget: 6, max_abs_value: 50.0, biased_vectors: 1 };
        let packer = PackedEncoder::plan(254, &encoder, &budget).unwrap();
        let contributions = [vec![1.5, -2.25, 30.0], vec![-1.5, 10.0, 0.125], vec![0.0, 0.5, -30.0]];

        let mut crypto_acc = crypto.encrypt(&packer.pack(&contributions[0])[0], &mut rng);
        let mut surrogate_acc = surrogate.encrypt(&packer.pack(&contributions[0])[0], &mut rng);
        for c in &contributions[1..] {
            let m = &packer.pack(c)[0];
            crypto_acc = crypto.add(&crypto_acc, &crypto.encrypt(m, &mut rng));
            surrogate_acc = surrogate.add(&surrogate_acc, &surrogate.encrypt(m, &mut rng));
        }
        // One EESum doubling on both sides.
        crypto_acc = crypto.scale_pow2(&crypto_acc, 3);
        surrogate_acc = surrogate.scale_pow2(&surrogate_acc, 3);
        assert_eq!(
            crypto.threshold_decrypt(&crypto_acc),
            surrogate.threshold_decrypt(&surrogate_acc),
            "accumulated plaintexts must agree bit for bit"
        );
        assert_eq!(surrogate.plaintext_of(&surrogate_acc), &surrogate_acc);
    }

    #[test]
    fn surrogate_unit_bytes_report_the_packed_plaintext_payload() {
        let encoder = FixedPointEncoder::new(3);
        let budget =
            LaneBudget { contributors: 100, doubling_budget: 16, max_abs_value: 80.0, biased_vectors: 2 };
        let packer = PackedEncoder::plan(1022, &encoder, &budget).unwrap();
        let layout = packer.layout().clone();
        let config = BackendSetup { packed_layout: Some(&layout), ..setup_config(100, 3) };
        let mut rng = StdRng::seed_from_u64(41);
        let surrogate = PlaintextSurrogate::setup(&config, &mut rng);
        let expected = (layout.lanes as u64 * layout.lane_bits).div_ceil(8) as usize;
        assert_eq!(surrogate.unit_bytes(), expected);

        // The honest plaintext payload undercuts the ciphertext expansion of
        // a comparable crypto backend (2× the modulus for s = 1).
        let mut crypto_rng = StdRng::seed_from_u64(42);
        let crypto = DamgardJurik::setup(&setup_config(4, 2), &mut crypto_rng);
        assert!(surrogate.unit_bytes() < crypto.unit_bytes() * 4);
    }

    #[test]
    #[should_panic(expected = "lane_packing")]
    fn surrogate_rejects_the_legacy_signed_encoding() {
        let mut rng = StdRng::seed_from_u64(51);
        let surrogate = PlaintextSurrogate::setup(&setup_config(4, 2), &mut rng);
        let _ = surrogate.encode(&FixedPointEncoder::new(3), -1.5);
    }

    #[test]
    #[should_panic(expected = "plaintext bridge")]
    fn crypto_backend_has_no_plaintext_bridge() {
        let mut rng = StdRng::seed_from_u64(61);
        let crypto = DamgardJurik::setup(&setup_config(4, 2), &mut rng);
        let ct = crypto.encrypt(&BigUint::from(1u32), &mut rng);
        let _ = crypto.plaintext_of(&ct);
    }

    #[test]
    #[should_panic(expected = "no key-shares")]
    fn public_key_only_backend_cannot_threshold_decrypt() {
        let mut rng = StdRng::seed_from_u64(71);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = DamgardJurik::from_public_key(kp.public);
        let ct = backend.encrypt(&BigUint::from(5u32), &mut rng);
        let _ = backend.threshold_decrypt(&ct);
    }
}
