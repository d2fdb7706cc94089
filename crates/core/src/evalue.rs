//! The encrypted-means vector as an *epidemic value*, generic over the
//! cipher backend.
//!
//! The gossip substrate expresses the EESum local update rule (Algorithm 2)
//! over any value supporting `+ₕ` and scaling by powers of two.  This module
//! provides the production implementation: a flat vector of backend units —
//! Damgård–Jurik ciphertexts for the real protocol
//! ([`EncryptedVector`]), exact plaintext lane integers for the
//! million-node scalability surrogate — carrying a shared handle to the
//! backend that owns the homomorphic operations.

use std::sync::Arc;

use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
use chiaroscuro_gossip::eesum::EpidemicValue;

/// A vector of backend units with the homomorphic operations required by
/// the EESum rule.
pub struct BackendVector<B: CipherBackend> {
    backend: Arc<B>,
    units: Vec<B::Unit>,
}

/// The production vector of Damgård–Jurik ciphertexts (the historical name
/// of the type, kept as the default-backend alias).
pub type EncryptedVector = BackendVector<DamgardJurik>;

impl<B: CipherBackend> BackendVector<B> {
    /// Wraps a vector of units.
    pub fn new(backend: Arc<B>, units: Vec<B::Unit>) -> Self {
        assert!(!units.is_empty(), "an epidemic vector cannot be empty");
        Self { backend, units }
    }

    /// The units (ciphertexts under an encrypted backend).
    pub fn units(&self) -> &[B::Unit] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always false (construction rejects empty vectors).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl<B: CipherBackend> Clone for BackendVector<B> {
    fn clone(&self) -> Self {
        Self { backend: Arc::clone(&self.backend), units: self.units.clone() }
    }

    /// Overwrites unit by unit into the buffers `self` already owns: the
    /// contact's half of every EESum exchange.
    fn clone_from(&mut self, source: &Self) {
        self.backend.clone_from(&source.backend);
        self.units.clone_from(&source.units);
    }
}

impl<B: CipherBackend> std::fmt::Debug for BackendVector<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendVector")
            .field("backend", &B::NAME)
            .field("units", &self.units)
            .finish()
    }
}

impl<B: CipherBackend> EpidemicValue for BackendVector<B> {
    fn scale_pow2(&mut self, exponent: u32) {
        if exponent > 0 {
            self.backend.scale_pow2_assign(&mut self.units, exponent);
        }
    }

    fn add_assign(&mut self, other: &Self) {
        self.backend.add_assign(&mut self.units, &other.units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_crypto::backend::{BackendSetup, PlaintextSurrogate};
    use chiaroscuro_crypto::encoding::FixedPointEncoder;
    use chiaroscuro_crypto::keys::KeyPair;
    use chiaroscuro_gossip::churn::ChurnModel;
    use chiaroscuro_gossip::eesum::{initial_states, EesSumProtocol, EesState};
    use chiaroscuro_gossip::engine::GossipEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dj_backend(seed: u64) -> (KeyPair, Arc<DamgardJurik>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = Arc::new(DamgardJurik::from_public_key(kp.public.clone()));
        (kp, backend)
    }

    #[test]
    fn scale_and_add_match_plaintext_arithmetic() {
        let mut rng = StdRng::seed_from_u64(1);
        let (kp, backend) = dj_backend(1);
        let encoder = FixedPointEncoder::new(3);
        let enc = |v: f64, rng: &mut StdRng| backend.encrypt(&encoder.encode(v, &kp.public), rng);
        let mut a = BackendVector::new(backend.clone(), vec![enc(1.5, &mut rng), enc(-2.0, &mut rng)]);
        let b = BackendVector::new(backend.clone(), vec![enc(0.25, &mut rng), enc(4.0, &mut rng)]);
        a.scale_pow2(2);
        a.add_assign(&b);
        let decoded: Vec<f64> = a
            .units()
            .iter()
            .map(|c| encoder.decode(&kp.secret.decrypt(&kp.public, c), &kp.public))
            .collect();
        assert!((decoded[0] - (1.5 * 4.0 + 0.25)).abs() < 1e-2);
        assert!((decoded[1] - (-2.0 * 4.0 + 4.0)).abs() < 1e-2);
    }

    #[test]
    fn eesum_over_ciphertexts_converges_to_the_encrypted_global_sum() {
        // A miniature end-to-end check of the encrypted epidemic sum: 8
        // participants each hold one encrypted value; after enough exchanges
        // every participant's decrypted estimate equals the global sum.
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = Arc::new(DamgardJurik::from_public_key(kp.public.clone()));
        let encoder = FixedPointEncoder::new(3);
        let values: Vec<f64> = vec![1.0, 2.5, -0.5, 4.0, 0.0, 10.0, 3.25, 1.75];
        let exact: f64 = values.iter().sum();
        let vectors: Vec<EncryptedVector> = values
            .iter()
            .map(|&v| {
                BackendVector::new(
                    backend.clone(),
                    vec![backend.encrypt(&encoder.encode(v, &kp.public), &mut rng)],
                )
            })
            .collect();
        let states = initial_states(vectors);
        let mut engine = GossipEngine::new(states, ChurnModel::NONE);
        engine.run_rounds(&EesSumProtocol, 25, &mut rng);
        for state in engine.nodes() {
            let EesState { value, weight, .. } = state;
            if *weight <= 0.0 {
                continue;
            }
            let decoded = encoder.decode(&kp.secret.decrypt(&kp.public, &value.units()[0]), &kp.public);
            let estimate = decoded / *weight;
            assert!((estimate - exact).abs() / exact.abs() < 1e-3, "estimate {estimate} vs exact {exact}");
        }
    }

    #[test]
    fn surrogate_vectors_drive_the_same_epidemic_rule() {
        // The generic vector must run the EESum rule over plaintext units
        // exactly as over ciphertexts: integer sums, power-of-two scalings.
        use num_bigint::BigUint;
        let setup = BackendSetup {
            key_bits: 128,
            damgard_jurik_s: 1,
            population: 4,
            key_share_threshold: 2,
            packed_layout: None,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let backend = Arc::new(PlaintextSurrogate::setup(&setup, &mut rng));
        let mut a = BackendVector::new(
            backend.clone(),
            vec![backend.encrypt(&BigUint::from(5u32), &mut rng)],
        );
        let b = BackendVector::new(
            backend.clone(),
            vec![backend.encrypt(&BigUint::from(7u32), &mut rng)],
        );
        a.scale_pow2(3);
        a.add_assign(&b);
        assert_eq!(backend.threshold_decrypt(&a.units()[0]), BigUint::from(5u32 * 8 + 7));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_assign_rejects_length_mismatch() {
        let mut rng = StdRng::seed_from_u64(3);
        let (_kp, backend) = dj_backend(3);
        let mut a = BackendVector::new(backend.clone(), vec![backend.encrypt_zero(&mut rng)]);
        let b = BackendVector::new(
            backend.clone(),
            vec![backend.encrypt_zero(&mut rng), backend.encrypt_zero(&mut rng)],
        );
        a.add_assign(&b);
    }
}
