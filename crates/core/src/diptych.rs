//! The Diptych data structure (Definition 6 of the paper).
//!
//! A Diptych pairs, for each of the `k` clusters:
//!
//! * a *cleartext perturbed centroid* `C[i]` — safe to reveal because it is
//!   differentially private;
//! * an *encrypted mean* `M[i] = (E(σ_sum), E(σ_count), ω)` — the epidemic
//!   representation of the cluster's dimension-wise sum and cardinality,
//!   both additively-homomorphically encrypted, with the data-independent
//!   weight in the clear.
//!
//! The run encrypts the means side lane-packed ([`PackedMeans`]): the same
//! `k·(n+1)` coordinates, `L` per unit.  The per-coordinate shape
//! (`Diptych`, one unit per coordinate) is off the run path; it stays as the
//! reference the packed initialisation is tested against and for a
//! benchmark probe.
//!
//! [`PackedMeans`] is generic over the [`CipherBackend`]: under the
//! default [`DamgardJurik`] backend the units are real ciphertexts; under
//! the plaintext surrogate they are the exact integers those ciphertexts
//! would decrypt to, letting million-node protocol simulations skip the
//! modular arithmetic.  The per-coordinate shape is Damgård–Jurik only: it
//! encodes a negative coordinate as its modular complement, which only a
//! real plaintext space has.

use rand::Rng;

use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::PackedEncoder;
use chiaroscuro_crypto::scheme::Ciphertext;
use chiaroscuro_timeseries::distance::closest;
use chiaroscuro_timeseries::TimeSeries;

// The per-coordinate Diptych is off the run path: `chiarobench/src/layers.rs`
// times `Diptych::initialise` as `crypto.contribution_legacy_ms` and cannot
// change in a protocol PR, so `EncryptedMean` and `Diptych` stay until a
// benchmark PR retires that probe.  The test below keeps the per-coordinate
// initialisation as the packed one's reference.
/// The encrypted-mean side of the Diptych for one cluster.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct EncryptedMean {
    /// Encrypted dimension-wise sum of the cluster (`E(σ_sum)`, length n).
    pub sums: Vec<Ciphertext>,
    /// Encrypted cardinality of the cluster (`E(σ_count)`).
    pub count: Ciphertext,
}

/// The Diptych: cleartext perturbed centroids plus encrypted means, one
/// unit per coordinate.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Diptych {
    /// The cleartext, differentially-private centroids `C`.
    pub centroids: Vec<TimeSeries>,
    /// The encrypted means `M` (one per centroid).
    pub means: Vec<EncryptedMean>,
}

impl Diptych {
    /// Builds a participant's initial Diptych for one iteration
    /// (Algorithm 1, assignment step): the participant's series is encrypted
    /// into the mean of its closest centroid, every other mean is an
    /// encryption of zero, and counts follow (1 for the chosen cluster, 0
    /// elsewhere).
    pub fn initialise<R: Rng + ?Sized>(
        centroids: &[TimeSeries],
        local_series: &TimeSeries,
        backend: &DamgardJurik,
        encoder: &FixedPointEncoder,
        rng: &mut R,
    ) -> (Self, usize) {
        assert!(!centroids.is_empty());
        let n = local_series.len();
        let best = closest_centroid(centroids, local_series);
        let means = centroids
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i == best {
                    EncryptedMean {
                        sums: local_series
                            .values()
                            .iter()
                            .map(|&v| backend.encrypt(&backend.encode(encoder, v), rng))
                            .collect(),
                        count: backend.encrypt(&backend.encode(encoder, 1.0), rng),
                    }
                } else {
                    EncryptedMean {
                        sums: (0..n).map(|_| backend.encrypt_zero(rng)).collect(),
                        count: backend.encrypt_zero(rng),
                    }
                }
            })
            .collect();
        (Self { centroids: centroids.to_vec(), means }, best)
    }
}

/// Index of the centroid closest to `series` (ties to the smallest index) —
/// the assignment step of Algorithm 1, by the workspace's one
/// nearest-centroid rule, [`closest`].  The benchmark's
/// `core.closest_centroid_ns` probe times it by this name.
pub fn closest_centroid(centroids: &[TimeSeries], series: &TimeSeries) -> usize {
    closest(series.values(), centroids).0
}

/// The lane-packed encrypted side of a participant's initial Diptych: its
/// `k·(n+1)` means coordinates (all sums cluster-major, then all counts)
/// packed into `⌈k·(n+1)/L⌉` units.
///
/// The counter unit of the packed overflow contract is **not** part of
/// this struct: one counter serves a whole gossip contribution (means
/// *and* noise shares), so the runner appends it once per
/// [`crate::evalue::BackendVector`].
#[derive(Debug, Clone)]
pub struct PackedMeans<B: CipherBackend = DamgardJurik> {
    /// The packed sum-and-count units, lane layout per the
    /// [`PackedEncoder`] that built them.
    pub units: Vec<B::Unit>,
}

impl<B: CipherBackend> PackedMeans<B> {
    /// Builds a participant's initial means for one iteration (Algorithm 1,
    /// assignment step): the local series is packed into the coordinates of
    /// its closest centroid's mean (count 1), every other coordinate is
    /// zero, and the whole flat vector is encrypted `L` lanes at a time.
    ///
    /// Returns the packed means and the assignment index.
    pub fn initialise<R: Rng + ?Sized>(
        centroids: &[TimeSeries],
        local_series: &TimeSeries,
        backend: &B,
        packer: &PackedEncoder,
        rng: &mut R,
    ) -> (Self, usize) {
        let k = centroids.len();
        let n = local_series.len();
        let best = closest_centroid(centroids, local_series);
        // Flat coordinate layout: all sums cluster-major, then all counts.
        let mut coordinates = vec![0.0f64; k * (n + 1)];
        coordinates[best * n..(best + 1) * n].copy_from_slice(local_series.values());
        coordinates[k * n + best] = 1.0;
        let units = packer.pack(&coordinates).iter().map(|m| backend.encrypt(m, rng)).collect();
        (Self { units }, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiaroscuro_crypto::keys::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (KeyPair, DamgardJurik, FixedPointEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = KeyPair::generate(128, 1, &mut rng);
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        (kp, backend, FixedPointEncoder::new(3), rng)
    }

    #[test]
    fn initialise_assigns_to_closest_centroid() {
        let (kp, backend, encoder, mut rng) = setup();
        let centroids = vec![
            TimeSeries::new(vec![0.0, 0.0]),
            TimeSeries::new(vec![10.0, 10.0]),
        ];
        let series = TimeSeries::new(vec![9.0, 9.5]);
        let (diptych, assigned) = Diptych::initialise(&centroids, &series, &backend, &encoder, &mut rng);
        assert_eq!(assigned, 1);
        assert_eq!(diptych.means.len(), 2);
        // The assigned mean decrypts to the series values; the other decrypts to zeros.
        for (j, &v) in series.values().iter().enumerate() {
            let decoded = encoder.decode(&kp.secret.decrypt(&kp.public, &diptych.means[1].sums[j]), &kp.public);
            assert!((decoded - v).abs() < 1e-3);
            let zero = encoder.decode(&kp.secret.decrypt(&kp.public, &diptych.means[0].sums[j]), &kp.public);
            assert!(zero.abs() < 1e-9);
        }
        let count1 = encoder.decode(&kp.secret.decrypt(&kp.public, &diptych.means[1].count), &kp.public);
        let count0 = encoder.decode(&kp.secret.decrypt(&kp.public, &diptych.means[0].count), &kp.public);
        assert!((count1 - 1.0).abs() < 1e-9);
        assert!(count0.abs() < 1e-9);
    }

    #[test]
    fn packed_initialise_matches_the_per_coordinate_diptych() {
        use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder};
        use num_bigint::BigUint;

        let (kp, backend, encoder, mut rng) = setup();
        let budget =
            LaneBudget { contributors: 8, doubling_budget: 4, max_abs_value: 80.0, biased_vectors: 1 };
        let packer =
            PackedEncoder::plan(kp.public.packing_capacity_bits(), &encoder, &budget).unwrap();
        let centroids = vec![
            TimeSeries::new(vec![0.0, 0.0, 0.0]),
            TimeSeries::new(vec![10.0, 10.0, 10.0]),
        ];
        let series = TimeSeries::new(vec![9.0, 9.5, 8.75]);
        let (k, n) = (2usize, 3usize);
        let (packed, packed_assigned) =
            PackedMeans::initialise(&centroids, &series, &backend, &packer, &mut rng);
        let (diptych, assigned) = Diptych::initialise(&centroids, &series, &backend, &encoder, &mut rng);
        assert_eq!(packed_assigned, assigned, "both paths must agree on the assignment");
        assert_eq!(packed.units.len(), packer.ciphertexts_for(k * (n + 1)));
        assert!(packed.units.len() < k * (n + 1), "packing must use fewer ciphertexts");

        // Decrypt + unpack (single contribution: counter C = 1, one biased
        // vector) and compare with the per-coordinate decodes.
        let plaintexts: Vec<BigUint> =
            packed.units.iter().map(|c| kp.secret.decrypt(&kp.public, c)).collect();
        let decoded = packer.unpack(&plaintexts, k * (n + 1), &BigUint::from(1u32), 1);
        for cluster in 0..k {
            for j in 0..n {
                let legacy = encoder
                    .decode(&kp.secret.decrypt(&kp.public, &diptych.means[cluster].sums[j]), &kp.public);
                assert_eq!(decoded[cluster * n + j], legacy, "sum ({cluster}, {j})");
            }
            let legacy_count = encoder
                .decode(&kp.secret.decrypt(&kp.public, &diptych.means[cluster].count), &kp.public);
            assert_eq!(decoded[k * n + cluster], legacy_count, "count {cluster}");
        }
    }

    #[test]
    fn ties_break_to_smallest_index() {
        let (_kp, backend, encoder, mut rng) = setup();
        let centroids = vec![TimeSeries::new(vec![1.0]), TimeSeries::new(vec![3.0])];
        let series = TimeSeries::new(vec![2.0]);
        let (_, assigned) = Diptych::initialise(&centroids, &series, &backend, &encoder, &mut rng);
        assert_eq!(assigned, 0);
    }
}
