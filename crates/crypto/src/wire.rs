//! Wire-size model for encrypted Diptych payloads (Figure 5(b)).
//!
//! A gossip exchange transfers a whole set of encrypted means.  Each mean
//! consists of `n` encrypted sum components plus one encrypted count, plus a
//! cleartext weight and exchange counter.  This module computes the payload
//! sizes that the bandwidth figure reports, and the codecs of what actually
//! travels: the public key a coordinator provisions node actors with, and
//! fixed-width vectors of backend units.  A lone unit has no codec here —
//! only a backend, which holds the key, can range-check one
//! ([`CipherBackend::unit_from_bytes`](crate::backend::CipherBackend::unit_from_bytes)).

use bytes::{BufMut, Bytes, BytesMut};
use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::One;

use crate::keys::{PublicKey, MAX_S};

/// Size model for one set of encrypted means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeansWireModel {
    /// Number of means (k, the number of clusters).
    pub num_means: usize,
    /// Number of measures per mean (the series length n).
    pub measures_per_mean: usize,
    /// Size in bytes of one ciphertext (an element of `Z_{n^{s+1}}`).
    pub ciphertext_bytes: usize,
    /// Size in bytes of the cleartext per-mean metadata (weight + exchange
    /// counter, both 8-byte values).
    pub cleartext_bytes_per_mean: usize,
    /// Coordinates per ciphertext: 1 for the per-coordinate legacy encoding,
    /// the lane count `L` when lane packing is enabled (see
    /// `chiaroscuro_crypto::packing`).
    pub lanes_per_ciphertext: usize,
    /// Bookkeeping ciphertexts per set: 0 for the legacy encoding, 1 for a
    /// packed set (the accumulated-bias counter).  Kept separate from the
    /// lane count because a degenerate packed layout can have `L = 1` and
    /// still carries its counter.
    pub counter_ciphertexts: usize,
    /// Per-message transport framing overhead in bytes: 0 when the set
    /// travels as an in-memory value (the monolithic runner and the
    /// channel-backed bus), the frame header plus state metadata when a
    /// socket transport actually serialises it.  Honesty contract: with a
    /// socket transport configured, reported payload bytes must match the
    /// bytes written to the wire, framing included.
    pub frame_overhead_bytes: usize,
}

impl MeansWireModel {
    /// Builds the model from a public key and the clustering dimensions
    /// (legacy per-coordinate encoding: one ciphertext per coordinate, no
    /// counter).
    pub fn new(pk: &PublicKey, num_means: usize, measures_per_mean: usize) -> Self {
        Self::with_unit_bytes(pk.ciphertext_bytes(), num_means, measures_per_mean, None)
    }

    /// Builds the model for whatever [`CipherBackend`](crate::backend::CipherBackend)
    /// carries the set: `backend.unit_bytes()` is the honest per-unit wire
    /// size — a ciphertext for the Damgård–Jurik backend, the packed
    /// *plaintext* payload for the surrogate — so scale-mode network-load
    /// numbers never report ciphertext expansion the run did not pay.
    /// `lanes = None` models the legacy per-coordinate encoding.
    pub fn for_backend<B: crate::backend::CipherBackend>(
        backend: &B,
        num_means: usize,
        measures_per_mean: usize,
        lanes: Option<usize>,
    ) -> Self {
        Self::with_unit_bytes(backend.unit_bytes(), num_means, measures_per_mean, lanes)
    }

    /// Builds the model from an explicit per-unit wire size.  `lanes = None`
    /// is the legacy per-coordinate encoding (no counter unit); `Some(L)`
    /// packs `L` coordinates per unit plus one counter unit.
    pub fn with_unit_bytes(
        unit_bytes: usize,
        num_means: usize,
        measures_per_mean: usize,
        lanes: Option<usize>,
    ) -> Self {
        if let Some(lanes) = lanes {
            assert!(lanes >= 1, "a ciphertext carries at least one coordinate");
        }
        Self {
            num_means,
            measures_per_mean,
            ciphertext_bytes: unit_bytes,
            cleartext_bytes_per_mean: 16,
            lanes_per_ciphertext: lanes.unwrap_or(1),
            counter_ciphertexts: usize::from(lanes.is_some()),
            frame_overhead_bytes: 0,
        }
    }

    /// Number of coordinates in one set of means: `k · (n + 1)` (sums plus
    /// the count).
    pub fn coordinates_per_set(&self) -> usize {
        self.num_means * (self.measures_per_mean + 1)
    }

    /// Number of ciphertexts in one set of means: one per coordinate in the
    /// legacy encoding, `⌈k·(n+1) / L⌉ + 1` (data lanes plus the counter)
    /// when packed.
    pub fn ciphertexts_per_set(&self) -> usize {
        self.coordinates_per_set().div_ceil(self.lanes_per_ciphertext) + self.counter_ciphertexts
    }

    /// Total size in bytes of one set of encrypted means (including the
    /// transport framing overhead, when one is configured).
    pub fn set_bytes(&self) -> usize {
        self.ciphertexts_per_set() * self.ciphertext_bytes
            + self.num_means * self.cleartext_bytes_per_mean
            + self.frame_overhead_bytes
    }

    /// Total size in kilobytes (the unit of Figure 5(b)).
    pub fn set_kilobytes(&self) -> f64 {
        self.set_bytes() as f64 / 1_000.0
    }

    /// Bytes transferred by one epidemic-sum exchange (both directions:
    /// each peer sends its set of means).
    pub fn sum_exchange_bytes(&self) -> usize {
        2 * self.set_bytes()
    }

    /// Bytes transferred by one epidemic-decryption exchange (the paper
    /// counts the encrypted means plus their partially decrypted version —
    /// the equivalent of four sets, §6.3.1).
    pub fn decryption_exchange_bytes(&self) -> usize {
        4 * self.set_bytes()
    }
}

/// Splits one `len (u32) | bytes` field off the front of `bytes`.
fn take_field(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_be_bytes(*len) as usize;
    (rest.len() >= len).then(|| rest.split_at(len))
}

/// Serialises a public key — the Damgård–Jurik exponent `s`, the nominal
/// key size, the modulus `n` and the mask base `h_s` — as `s (u32) |
/// key_bits (u64) | n_len (u32) | n | h_len (u32) | h_s` (big-endian).
/// This is the provisioning payload a coordinator hands to remote node
/// actors: everything needed to encrypt and run the homomorphic operators,
/// none of the key-shares.
pub fn serialize_public_key(pk: &PublicKey) -> Bytes {
    let n = pk.modulus().to_bytes_be();
    let h_s = pk.mask_base().to_bytes_be();
    let mut buf = BytesMut::with_capacity(n.len() + h_s.len() + 20);
    buf.put_u32(pk.s());
    buf.put_u64(pk.key_bits());
    for field in [&n, &h_s] {
        buf.put_u32(field.len() as u32);
        buf.put_slice(field);
    }
    buf.freeze()
}

/// Deserialises a public key produced by [`serialize_public_key`].
///
/// Fails closed: returns `None` if the buffer is malformed (a missing,
/// truncated or trailing field, an exponent outside `1..=16`, an
/// implausibly small or an even modulus — ciphertexts are held in
/// Montgomery form, which an even `n^{s+1}` does not have) or if the mask
/// base is not key material a generated key could carry — `h_s` must lie
/// strictly between 1 and `n^{s+1}` and share no factor with `n`, or every
/// mask would be trivial, out of range or a non-unit no share-holder can
/// decrypt around.
pub fn deserialize_public_key(bytes: &[u8]) -> Option<PublicKey> {
    let (s, rest) = bytes.split_first_chunk::<4>()?;
    let (key_bits, rest) = rest.split_first_chunk::<8>()?;
    let (s, key_bits) = (u32::from_be_bytes(*s), u64::from_be_bytes(*key_bits));
    let (n, rest) = take_field(rest)?;
    let (h_s, rest) = take_field(rest)?;
    if !rest.is_empty() || s == 0 || s > MAX_S || key_bits < 64 {
        return None;
    }
    let n = BigUint::from_bytes_be(n);
    if n.bits() < 8 || n.is_even() {
        return None;
    }
    let pk = PublicKey::new(n, s, key_bits, BigUint::from_bytes_be(h_s));
    let h_s = pk.mask_base();
    (h_s > &BigUint::one() && h_s < pk.ciphertext_modulus() && h_s.gcd(pk.modulus()).is_one())
        .then_some(pk)
}

/// Serialises a vector of backend units at a fixed per-unit width:
/// `count (u32) | width (u32) | count × width` big-endian, zero-padded
/// bytes.  The width is the larger of the backend's honest unit size and
/// the widest unit present, so Damgård–Jurik ciphertexts (always below the
/// ciphertext modulus) serialise at exactly
/// [`CipherBackend::unit_bytes`](crate::backend::CipherBackend::unit_bytes)
/// each — the wire cost the [`MeansWireModel`] reports — while surrogate
/// integers (which outgrow their nominal payload under EESum doublings)
/// stay lossless.
///
/// # Panics
/// Panics if a unit is wider than `u32::MAX` bytes (not reachable for any
/// supported key size).
pub fn serialize_units<B: crate::backend::CipherBackend>(backend: &B, units: &[B::Unit]) -> Bytes {
    let raw: Vec<Vec<u8>> = units.iter().map(|u| backend.unit_to_bytes(u)).collect();
    let width = raw
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .max(backend.unit_bytes());
    let mut buf = BytesMut::with_capacity(8 + units.len() * width);
    buf.put_u32(u32::try_from(units.len()).expect("unit count fits u32"));
    buf.put_u32(u32::try_from(width).expect("unit width fits u32"));
    for bytes in &raw {
        for _ in bytes.len()..width {
            buf.put_u8(0);
        }
        buf.put_slice(bytes);
    }
    buf.freeze()
}

/// Deserialises a unit vector produced by [`serialize_units`].
///
/// Returns `None` if the buffer is malformed (short header, length not
/// matching `count × width`, or a unit the backend rejects).
pub fn deserialize_units<B: crate::backend::CipherBackend>(
    backend: &B,
    bytes: &[u8],
) -> Option<Vec<B::Unit>> {
    if bytes.len() < 8 {
        return None;
    }
    let count = u32::from_be_bytes(bytes[0..4].try_into().ok()?) as usize;
    let width = u32::from_be_bytes(bytes[4..8].try_into().ok()?) as usize;
    let body = count.checked_mul(width)?;
    if bytes.len() != 8 + body {
        return None;
    }
    bytes[8..]
        .chunks_exact(width.max(1))
        .take(count)
        .map(|chunk| backend.unit_from_bytes(chunk))
        .collect::<Option<Vec<_>>>()
        .filter(|units| units.len() == count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_setting_is_order_hundreds_of_kilobytes() {
        // Paper setting: 50 means, 20 measures, 1024-bit key.  The paper
        // reports ~125-145 kB; a Paillier ciphertext is 2x the modulus, so
        // our model gives about twice that.
        let model = MeansWireModel {
            num_means: 50,
            measures_per_mean: 20,
            ciphertext_bytes: 256, // 2048-bit ciphertexts for a 1024-bit key
            cleartext_bytes_per_mean: 16,
            lanes_per_ciphertext: 1,
            counter_ciphertexts: 0,
            frame_overhead_bytes: 0,
        };
        assert_eq!(model.ciphertexts_per_set(), 1_050);
        let kb = model.set_kilobytes();
        assert!(kb > 200.0 && kb < 300.0, "kb = {kb}");
        assert_eq!(model.sum_exchange_bytes(), 2 * model.set_bytes());
        assert_eq!(model.decryption_exchange_bytes(), 4 * model.set_bytes());
    }

    #[test]
    fn lane_packing_divides_the_payload() {
        // Packing 12 coordinates per ciphertext turns the paper's 1050
        // ciphertexts into ⌈1050/12⌉ + 1 = 89 — an ~11.8× payload cut.
        let packed = MeansWireModel {
            num_means: 50,
            measures_per_mean: 20,
            ciphertext_bytes: 256,
            cleartext_bytes_per_mean: 16,
            lanes_per_ciphertext: 12,
            counter_ciphertexts: 1,
            frame_overhead_bytes: 0,
        };
        assert_eq!(packed.coordinates_per_set(), 1_050);
        assert_eq!(packed.ciphertexts_per_set(), 1_050usize.div_ceil(12) + 1);
        let legacy = MeansWireModel { lanes_per_ciphertext: 1, counter_ciphertexts: 0, ..packed };
        let ratio = legacy.set_bytes() as f64 / packed.set_bytes() as f64;
        assert!(ratio > 8.0, "packed payload must shrink by ~the lane factor, got {ratio:.1}x");
    }

    #[test]
    fn model_matches_real_ciphertext_sizes() {
        use crate::backend::{CipherBackend, DamgardJurik};
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(256, 1, &mut rng);
        let model = MeansWireModel::new(&kp.public, 5, 4);
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let c = backend.encrypt(&BigUint::from(123u32), &mut rng);
        // A serialised unit is exactly the model's per-ciphertext size.
        assert_eq!(backend.unit_to_bytes(&c).len(), model.ciphertext_bytes);
    }

    #[test]
    fn ciphertext_serialization_round_trip() {
        use crate::backend::{CipherBackend, DamgardJurik};
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let m = BigUint::from(9_999u32);
        let c = backend.encrypt(&m, &mut rng);
        let back = backend.unit_from_bytes(&backend.unit_to_bytes(&c)).unwrap();
        assert_eq!(back, c, "the wire carries the unit as it stands");
        assert_eq!(kp.secret.decrypt(&kp.public, &back), m);
    }

    #[test]
    fn malformed_buffers_rejected() {
        use crate::backend::{CipherBackend, DamgardJurik};
        let pk = KeyPair::generate(128, 1, &mut StdRng::seed_from_u64(2)).public;
        let backend = DamgardJurik::from_public_key(pk.clone());
        // Empty and all-zero bytes are the unit 0; the modulus is out of
        // range however it is padded; over-long bytes are beyond it.
        assert!(backend.unit_from_bytes(&[]).is_none());
        assert!(backend.unit_from_bytes(&vec![0; backend.unit_bytes()]).is_none());
        let modulus = pk.ciphertext_modulus().to_bytes_be();
        assert!(backend.unit_from_bytes(&modulus).is_none());
        assert!(backend.unit_from_bytes(&[&[0u8; 9][..], &modulus].concat()).is_none());
        assert!(backend.unit_from_bytes(&vec![1; backend.unit_bytes() + 9]).is_none());
        assert!(backend.unit_from_bytes(&[1]).is_some());
    }

    #[test]
    fn public_key_serialization_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        for (bits, s) in [(128u64, 1u32), (256, 1), (128, 2)] {
            let kp = KeyPair::generate(bits, s, &mut rng);
            let bytes = serialize_public_key(&kp.public);
            let back = deserialize_public_key(&bytes).expect("round trip");
            assert_eq!(back, kp.public, "modulus, exponent, key size and mask base all round-trip");
            // The rebuilt key must encrypt interoperably: the original
            // secret key decrypts a ciphertext produced by the copy.
            let m = BigUint::from(42_001u32);
            let c = back.encrypt(&m, &mut rng);
            assert_eq!(kp.secret.decrypt(&kp.public, &c), m);
        }
    }

    #[test]
    fn malformed_public_keys_rejected() {
        assert!(deserialize_public_key(&[]).is_none());
        assert!(deserialize_public_key(&[0u8; 15]).is_none());
        let pk = KeyPair::generate(128, 1, &mut StdRng::seed_from_u64(5)).public;
        let good = serialize_public_key(&pk).to_vec();
        assert!(deserialize_public_key(&good).is_some());
        // Declared length not matching the buffer: a truncated mask base,
        // and a trailing byte after it.
        assert!(deserialize_public_key(&good[..good.len() - 1]).is_none());
        assert!(deserialize_public_key(&[good.as_slice(), &[0]].concat()).is_none());
        // Zero exponent.
        let mut zero_s = vec![0u8; 20];
        zero_s[4..12].copy_from_slice(&128u64.to_be_bytes());
        zero_s[12..16].copy_from_slice(&4u32.to_be_bytes());
        assert!(deserialize_public_key(&zero_s).is_none());

        // The same key with its modulus, exponent or mask-base field replaced.
        let with_modulus = |n: &BigUint, s: u32, mask_field: Option<&BigUint>| {
            let n = n.to_bytes_be();
            let mut bytes = [&s.to_be_bytes()[..], &128u64.to_be_bytes(), &(n.len() as u32).to_be_bytes(), &n].concat();
            if let Some(h_s) = mask_field {
                let h_s = h_s.to_bytes_be();
                bytes.extend_from_slice(&(h_s.len() as u32).to_be_bytes());
                bytes.extend_from_slice(&h_s);
            }
            deserialize_public_key(&bytes)
        };
        let with = |s: u32, mask_field: Option<&BigUint>| with_modulus(pk.modulus(), s, mask_field);
        assert_eq!(with(1, Some(pk.mask_base())), Some(pk.clone()), "the helper rebuilds the good key");
        // An exponent the parser would have to allocate unboundedly for.
        assert!(with(u32::MAX, Some(pk.mask_base())).is_none());
        // No mask base at all (the pre-`h_s` format), or an empty one.
        assert!(with(1, None).is_none());
        assert!(with(1, Some(&BigUint::from(0u32))).is_none());
        // Outside (1, n^{s+1}): a trivial mask, the modulus itself, beyond it.
        let n_s1 = pk.ciphertext_modulus();
        assert!(with(1, Some(&BigUint::one())).is_none());
        assert!(with(1, Some(n_s1)).is_none());
        assert!(with(1, Some(&(n_s1 + pk.mask_base()))).is_none());
        assert!(with(1, Some(&(n_s1 - BigUint::one()))).is_some(), "−1 is in range and a unit");
        // An even modulus has no Montgomery form to hold a ciphertext in.
        // Its mask base passes every other check (in range, coprime), so
        // only the parity check can be what refuses the key.
        let (two, three, four) = (BigUint::from(2u32), BigUint::from(3u32), BigUint::from(4u32));
        assert!(with_modulus(&(pk.modulus() + BigUint::one()), 1, Some(pk.modulus())).is_none(), "gcd(n, n + 1) = 1");
        assert!(with_modulus(&(BigUint::one() << 127u32), 1, Some(&three)).is_none());
        assert!(with_modulus(&(pk.modulus() + two), 1, Some(&four)).is_some(), "odd, and 4 is a unit");
        // In range but sharing a factor with n: masks would be non-units.
        assert!(with(1, Some(&(pk.modulus() * BigUint::from(2u32)))).is_none());
        assert!(with(1, Some(pk.modulus())).is_none());
    }

    #[test]
    fn unit_vectors_serialize_at_the_honest_fixed_width() {
        use crate::backend::{CipherBackend, DamgardJurik};
        let mut rng = StdRng::seed_from_u64(6);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let units: Vec<_> =
            (0..5u32).map(|v| backend.encrypt(&BigUint::from(v), &mut rng)).collect();
        let bytes = serialize_units(&backend, &units);
        // Fixed width = the model's per-unit size: header + count × unit_bytes.
        assert_eq!(bytes.len(), 8 + units.len() * backend.unit_bytes());
        let back = deserialize_units(&backend, &bytes).expect("round trip");
        assert_eq!(back.len(), units.len());
        for (original, copy) in units.iter().zip(&back) {
            assert_eq!(kp.secret.decrypt(&kp.public, original), kp.secret.decrypt(&kp.public, copy));
        }
    }

    #[test]
    fn malformed_unit_vectors_rejected() {
        use crate::backend::DamgardJurik;
        let mut rng = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = DamgardJurik::from_public_key(kp.public);
        assert!(deserialize_units(&backend, &[]).is_none());
        assert!(deserialize_units(&backend, &[0u8; 7]).is_none());
        // Header promising more body than present.
        let mut bytes = vec![0u8; 8];
        bytes[0..4].copy_from_slice(&3u32.to_be_bytes());
        bytes[4..8].copy_from_slice(&16u32.to_be_bytes());
        assert!(deserialize_units(&backend, &bytes).is_none());
        // count × width overflowing usize must be rejected, not panic.
        let mut absurd = vec![0u8; 8];
        absurd[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        absurd[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(deserialize_units(&backend, &absurd).is_none());
    }

    #[test]
    fn frame_overhead_is_added_once_per_set() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let bare = MeansWireModel::new(&kp.public, 5, 4);
        let framed = MeansWireModel { frame_overhead_bytes: 37, ..bare };
        assert_eq!(framed.set_bytes(), bare.set_bytes() + 37);
        assert_eq!(framed.sum_exchange_bytes(), bare.sum_exchange_bytes() + 2 * 37);
        assert_eq!(framed.ciphertexts_per_set(), bare.ciphertexts_per_set());
    }

    #[test]
    fn larger_keys_mean_larger_payloads() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = KeyPair::generate(128, 1, &mut rng);
        let large = KeyPair::generate(256, 1, &mut rng);
        let m_small = MeansWireModel::new(&small.public, 50, 20);
        let m_large = MeansWireModel::new(&large.public, 50, 20);
        assert!(m_large.set_bytes() > m_small.set_bytes());
    }
}
