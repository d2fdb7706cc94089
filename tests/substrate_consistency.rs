//! Cross-crate consistency tests between the substrates: the encrypted
//! EESum against its plaintext mirror, the divisible-Laplace noise against
//! the centralized Laplace mechanism, and the threshold decryption of
//! gossip-aggregated ciphertexts.

use std::sync::Arc;

use chiaroscuro::core::evalue::{BackendVector, EncryptedVector};
use chiaroscuro::crypto::backend::DamgardJurik;
use chiaroscuro::crypto::encoding::FixedPointEncoder;
use chiaroscuro::crypto::keys::KeyPair;
use chiaroscuro::crypto::threshold::{combine, PartialDecryption, ThresholdDealer};
use chiaroscuro::dp::laplace::Laplace;
use chiaroscuro::dp::noise_share::NoiseShareGenerator;
use chiaroscuro::gossip::churn::ChurnModel;
use chiaroscuro::gossip::eesum::{initial_states, EesSumProtocol, PlainVector};
use chiaroscuro::gossip::engine::{pair_mut, GossipEngine, PairwiseProtocol};
use chiaroscuro::gossip::sum::{initial_states as plain_states, PushPullSum};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn encrypted_and_plaintext_eesum_agree() {
    // Drive the ciphertext EESum and the plaintext mirror with the *same*
    // exchange schedule; their estimates must agree to fixed-point precision.
    let mut rng = StdRng::seed_from_u64(1);
    let keypair = KeyPair::generate(192, 1, &mut rng);
    let public = Arc::new(keypair.public.clone());
    let backend = Arc::new(DamgardJurik::from_public_key(keypair.public.clone()));
    let encoder = FixedPointEncoder::new(3);
    let values: Vec<f64> = vec![3.5, -1.25, 8.0, 0.5, 2.75, 10.0, -4.5, 6.25];

    let encrypted: Vec<EncryptedVector> = values
        .iter()
        .map(|&v| {
            BackendVector::new(
                backend.clone(),
                vec![public.encrypt(&encoder.encode(v, &public), &mut rng)],
            )
        })
        .collect();
    let mut enc_states = initial_states(encrypted);
    let mut plain_states_vec = initial_states(values.iter().map(|&v| PlainVector(vec![v])).collect());

    let mut schedule_rng = StdRng::seed_from_u64(99);
    for _ in 0..300 {
        let i = rand::Rng::gen_range(&mut schedule_rng, 0..values.len());
        let mut j = rand::Rng::gen_range(&mut schedule_rng, 0..values.len());
        while j == i {
            j = rand::Rng::gen_range(&mut schedule_rng, 0..values.len());
        }
        {
            let (a, b) = pair_mut(&mut enc_states, i, j);
            EesSumProtocol.exchange(a, b);
        }
        {
            let (a, b) = pair_mut(&mut plain_states_vec, i, j);
            EesSumProtocol.exchange(a, b);
        }
    }

    for (enc, plain) in enc_states.iter().zip(plain_states_vec.iter()) {
        if plain.weight <= 0.0 {
            continue;
        }
        let decrypted = encoder.decode(&keypair.secret.decrypt(&keypair.public, &enc.value.units()[0]), &keypair.public);
        let enc_estimate = decrypted / enc.weight;
        let plain_estimate = plain.value.0[0] / plain.weight;
        assert!(
            (enc_estimate - plain_estimate).abs() < 0.05,
            "encrypted {enc_estimate} vs plaintext {plain_estimate}"
        );
    }
}

#[test]
fn gossip_aggregated_noise_matches_centralized_laplace_statistics() {
    // The distributed noise (sum of per-participant shares computed by the
    // plaintext epidemic sum) must have the same variance as the Laplace the
    // centralized mechanism would draw.
    let population = 64usize;
    let scale = 5.0;
    let target = Laplace::new(scale);
    let mut rng = StdRng::seed_from_u64(2);
    let generator = NoiseShareGenerator::new(population, scale);
    let trials = 400;
    let mut aggregated = Vec::with_capacity(trials);
    for _ in 0..trials {
        let shares: Vec<f64> = (0..population).map(|_| generator.sample(&mut rng).value).collect();
        let exact: f64 = shares.iter().sum();
        // Aggregate via gossip and read one participant's estimate.
        let mut engine = GossipEngine::new(plain_states(&shares), ChurnModel::NONE);
        engine.run_rounds(&PushPullSum, 40, &mut rng);
        let estimate = engine.nodes()[7].estimate().unwrap();
        // The gossip approximation error is relative to the magnitude of the
        // summed shares (≈ scale), not to the near-zero total.
        assert!((estimate - exact).abs() < 1e-3 * scale * population as f64, "estimate {estimate} vs exact {exact}");
        aggregated.push(estimate);
    }
    let mean = aggregated.iter().sum::<f64>() / trials as f64;
    let var = aggregated.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / trials as f64;
    assert!(mean.abs() < 1.5, "mean = {mean}");
    assert!((var - target.variance()).abs() / target.variance() < 0.35, "var = {var}");
}

#[test]
fn threshold_decryption_of_a_gossip_summed_ciphertext() {
    // End-to-end path of the computation step on one value: participants
    // encrypt, gossip-sum, and τ of them decrypt the aggregate.
    let mut rng = StdRng::seed_from_u64(3);
    let keypair = KeyPair::generate(192, 1, &mut rng);
    let public = Arc::new(keypair.public.clone());
    let backend = Arc::new(DamgardJurik::from_public_key(keypair.public.clone()));
    let encoder = FixedPointEncoder::new(3);
    let dealer = ThresholdDealer::new(&keypair, 10, 4);
    let shares = dealer.deal(&mut rng);
    let values: Vec<f64> = (0..10).map(|i| i as f64 * 1.5).collect();
    let exact: f64 = values.iter().sum();

    let encrypted: Vec<EncryptedVector> = values
        .iter()
        .map(|&v| {
            BackendVector::new(
                backend.clone(),
                vec![public.encrypt(&encoder.encode(v, &public), &mut rng)],
            )
        })
        .collect();
    let mut engine = GossipEngine::new(initial_states(encrypted), ChurnModel::NONE);
    engine.run_rounds(&EesSumProtocol, 20, &mut rng);

    let reference = engine.nodes().iter().find(|s| s.weight > 0.0).unwrap();
    let ciphertext = &reference.value.units()[0];
    let partials: Vec<PartialDecryption> =
        shares[3..7].iter().map(|s| s.partial_decrypt(&keypair.public, ciphertext)).collect();
    let plaintext = combine(&keypair.public, &partials, 4, 10).unwrap();
    let estimate = encoder.decode(&plaintext, &keypair.public) / reference.weight;
    assert!((estimate - exact).abs() < 0.05, "estimate {estimate} vs exact {exact}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The arithmetic-equivalence claim of Appendix C.2.1, as a property over
    /// random values and random exchange schedules (plaintext mirror only,
    /// so the case count can stay high enough to matter).
    #[test]
    fn eesum_estimates_track_push_pull_estimates(
        values in prop::collection::vec(-50.0f64..50.0, 4..24),
        schedule_seed in any::<u64>(),
    ) {
        let mut scaled = initial_states(values.iter().map(|&v| PlainVector(vec![v])).collect());
        let mut plain = plain_states(&values);
        let mut rng = StdRng::seed_from_u64(schedule_seed);
        for _ in 0..500 {
            let i = rand::Rng::gen_range(&mut rng, 0..values.len());
            let mut j = rand::Rng::gen_range(&mut rng, 0..values.len());
            while j == i {
                j = rand::Rng::gen_range(&mut rng, 0..values.len());
            }
            {
                let (a, b) = pair_mut(&mut scaled, i, j);
                EesSumProtocol.exchange(a, b);
            }
            {
                let (a, b) = pair_mut(&mut plain, i, j);
                PushPullSum.exchange(a, b);
            }
        }
        for (s, p) in scaled.iter().zip(plain.iter()) {
            match (s.estimate(), p.estimate()) {
                (Some(se), Some(pe)) => prop_assert!((se[0] - pe).abs() < 1e-6 * pe.abs().max(1.0)),
                (None, None) => {}
                other => prop_assert!(false, "weight spread mismatch: {other:?}"),
            }
        }
    }
}
