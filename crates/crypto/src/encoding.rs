//! Fixed-point encoding of real-valued measures into the plaintext space.
//!
//! Time-series measures, cluster counts and noise shares are real numbers,
//! while Damgård–Jurik plaintexts live in `Z_{n^s}`.  Chiaroscuro only ever
//! *adds* encrypted values (any division is delayed until after decryption,
//! §4.2.1), so a plain fixed-point encoding is sufficient:
//!
//! * a non-negative value `v` is encoded as `round(v · scale)`;
//! * a negative value (noise shares can be negative!) is encoded as
//!   `n^s − round(|v| · scale)`, i.e. as a modular negative;
//! * decoding interprets values above `n^s / 2` as negatives.
//!
//! The encoding is homomorphism-compatible: the sum of encodings decodes to
//! the sum of the values as long as the accumulated magnitude stays far
//! below `n^s / 2`, which a 1024-bit modulus guarantees for any realistic
//! population (3M series of magnitude ≤ 80·10³ is ~2.4·10¹¹ ≪ 2^1023).
//!
//! That headroom — a thousand-bit plaintext carrying a ~40-bit sum — is
//! exactly what [`crate::packing`] exploits: instead of one coordinate per
//! ciphertext, many coordinates share one plaintext in disjoint bit-lanes,
//! cutting encryptions, gossip payloads and decryptions proportionally.

use num_bigint::BigUint;

use crate::keys::PublicKey;

/// Default number of decimal digits preserved by the fixed-point encoding.
pub const DEFAULT_DECIMAL_DIGITS: u32 = 3;

/// A fixed-point encoder bound to a public key's plaintext space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointEncoder {
    /// Multiplicative scale (10^digits).
    scale: u64,
}

impl FixedPointEncoder {
    /// Creates an encoder preserving `decimal_digits` decimal digits.
    ///
    /// # Panics
    /// Panics if `decimal_digits > 15` (beyond f64 precision).
    pub fn new(decimal_digits: u32) -> Self {
        assert!(decimal_digits <= 15, "more than 15 decimal digits exceeds f64 precision");
        Self { scale: 10u64.pow(decimal_digits) }
    }

    /// The multiplicative scale applied to values.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Encodes a (possibly negative) real value into `Z_{n^s}`.
    ///
    /// # Panics
    /// Panics if the value is not finite or its magnitude overflows the
    /// plaintext space.
    pub fn encode(&self, value: f64, pk: &PublicKey) -> BigUint {
        assert!(value.is_finite(), "cannot encode a non-finite value");
        let magnitude = (value.abs() * self.scale as f64).round();
        let encoded = BigUint::from(magnitude as u128);
        let n_s = pk.plaintext_modulus();
        assert!(
            encoded < (n_s / 2u32),
            "encoded magnitude overflows the plaintext space"
        );
        if value < 0.0 && magnitude != 0.0 {
            n_s - encoded
        } else {
            encoded
        }
    }

    /// Decodes a plaintext back to a real value, interpreting the upper half
    /// of `Z_{n^s}` as negatives.
    pub fn decode(&self, plaintext: &BigUint, pk: &PublicKey) -> f64 {
        let n_s = pk.plaintext_modulus();
        let half = n_s / 2u32;
        if plaintext > &half {
            let magnitude = n_s - plaintext;
            -(biguint_to_f64(&magnitude) / self.scale as f64)
        } else {
            biguint_to_f64(plaintext) / self.scale as f64
        }
    }
}

impl Default for FixedPointEncoder {
    fn default() -> Self {
        Self::new(DEFAULT_DECIMAL_DIGITS)
    }
}

/// Lossy conversion of a (decoded-magnitude) big integer to `f64`.
///
/// Shared with [`crate::packing`]: both decode paths must run the exact same
/// integer-to-float conversion for their results to be bit-identical.
pub(crate) fn biguint_to_f64(value: &BigUint) -> f64 {
    // Values that matter are far below 2^128; fall back to a digit-by-digit
    // conversion for larger (pathological) inputs.
    let digits = value.to_u64_digits();
    let mut acc = 0.0f64;
    for &d in digits.iter().rev() {
        acc = acc * 2f64.powi(64) + d as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pk() -> PublicKey {
        let mut rng = StdRng::seed_from_u64(1);
        KeyPair::generate(128, 1, &mut rng).public
    }

    #[test]
    fn encode_decode_round_trip_positive() {
        let pk = pk();
        let enc = FixedPointEncoder::new(3);
        for v in [0.0, 0.001, 1.0, 42.5, 79.999, 1_000_000.25] {
            let decoded = enc.decode(&enc.encode(v, &pk), &pk);
            assert!((decoded - v).abs() < 1e-3, "{v} -> {decoded}");
        }
    }

    #[test]
    fn encode_decode_round_trip_negative() {
        let pk = pk();
        let enc = FixedPointEncoder::new(3);
        for v in [-0.001, -1.0, -42.5, -123_456.789] {
            let decoded = enc.decode(&enc.encode(v, &pk), &pk);
            assert!((decoded - v).abs() < 1e-3, "{v} -> {decoded}");
        }
    }

    #[test]
    fn negative_zero_encodes_as_zero() {
        let pk = pk();
        let enc = FixedPointEncoder::new(3);
        assert_eq!(enc.encode(-0.0, &pk), BigUint::from(0u32));
        assert_eq!(enc.encode(-0.0001, &pk), BigUint::from(0u32));
    }

    #[test]
    fn sums_of_encodings_decode_to_sums_of_values() {
        // Homomorphism compatibility: E(a) + E(b) (mod n^s) decodes to a + b,
        // including sign cancellations.
        let pk = pk();
        let enc = FixedPointEncoder::new(3);
        let pairs = [(10.5, 2.25), (10.5, -2.25), (-10.5, 2.25), (-10.5, -2.25), (0.0, -7.125)];
        for (a, b) in pairs {
            let ea = enc.encode(a, &pk);
            let eb = enc.encode(b, &pk);
            let sum = (ea + eb) % pk.plaintext_modulus();
            let decoded = enc.decode(&sum, &pk);
            assert!((decoded - (a + b)).abs() < 2e-3, "{a} + {b} -> {decoded}");
        }
    }

    #[test]
    fn encrypted_sum_of_signed_values_round_trips() {
        // Full pipeline: encode, encrypt, homomorphically add, decrypt, decode.
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let enc = FixedPointEncoder::new(3);
        let values = [12.5, -3.75, 0.25, -8.0, 42.125];
        let mut acc = kp.public.encrypt_zero(&mut rng);
        for v in values {
            let c = kp.public.encrypt(&enc.encode(v, &kp.public), &mut rng);
            acc = kp.public.add(&acc, &c);
        }
        let decoded = enc.decode(&kp.secret.decrypt(&kp.public, &acc), &kp.public);
        let expected: f64 = values.iter().sum();
        assert!((decoded - expected).abs() < 1e-2, "decoded {decoded}, expected {expected}");
    }

    #[test]
    fn scale_controls_precision() {
        let pk = pk();
        let coarse = FixedPointEncoder::new(0);
        let fine = FixedPointEncoder::new(6);
        let v = 3.362_592;
        assert!((coarse.decode(&coarse.encode(v, &pk), &pk) - 3.0).abs() < 1e-9);
        assert!((fine.decode(&fine.encode(v, &pk), &pk) - v).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        let pk = pk();
        FixedPointEncoder::new(3).encode(f64::NAN, &pk);
    }
}
