//! Property tests of the cipher-backend equivalence contract: from the same
//! seed, the Damgård–Jurik backend and the plaintext surrogate must decode
//! identical centroids and report identical message/exchange statistics at
//! any small population, k, churn level and seed.
//!
//! This is the load-bearing guarantee behind running quality/ε scenarios at
//! 100k–10M nodes on the surrogate: whatever the surrogate reports *is* what
//! the crypto run would have reported, minus the modular arithmetic.

use chiaroscuro_core::prelude::*;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};
use proptest::prelude::*;

/// A `population`-device dataset of two well-separated constant profiles.
fn dataset(population: usize) -> TimeSeriesSet {
    let series = (0..population)
        .map(|i| {
            if i % 2 == 0 {
                TimeSeries::constant(4, 12.0)
            } else {
                TimeSeries::constant(4, 68.0)
            }
        })
        .collect();
    TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
}

fn params(k: usize, churn: f64) -> ChiaroscuroParams {
    ChiaroscuroParams::builder()
        .k(k)
        .max_iterations(2)
        .key_bits(256)
        .key_share_threshold(3)
        .num_noise_shares(10)
        // 8 exchanges keep the epidemic doubling allowance small enough for
        // 256-bit keys to fit more than one lane (the packing precondition).
        .exchanges(8)
        .churn(churn)
        .epsilon(40.0)
        .lane_packing(true)
        .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn surrogate_and_crypto_backends_agree_bit_for_bit(
        population in 12usize..=20,
        k in 1usize..=2,
        churn_step in 0u8..=1,
        seed in any::<u64>(),
    ) {
        let churn = f64::from(churn_step) * 0.25;
        let data = dataset(population);
        let crypto = DistributedRun::new(params(k, churn), &data).execute(seed);
        let surrogate =
            DistributedRun::<PlaintextSurrogate>::with_backend(params(k, churn), &data).execute(seed);

        // Identical decoded sums: every centroid value, bit for bit.
        let crypto_values: Vec<Vec<f64>> =
            crypto.centroids().iter().map(|c| c.values().to_vec()).collect();
        let surrogate_values: Vec<Vec<f64>> =
            surrogate.centroids().iter().map(|c| c.values().to_vec()).collect();
        prop_assert_eq!(crypto_values, surrogate_values);
        prop_assert_eq!(crypto.report.num_iterations(), surrogate.report.num_iterations());
        prop_assert!((crypto.report.total_epsilon() - surrogate.report.total_epsilon()).abs() < 1e-12);

        // Identical IterationNetworkStats message/exchange accounting; only
        // the payload *bytes* may differ (the surrogate reports the honest
        // plaintext size, strictly below the ciphertext expansion).
        prop_assert_eq!(crypto.network.len(), surrogate.network.len());
        for (c, s) in crypto.network.iter().zip(surrogate.network.iter()) {
            prop_assert_eq!(c.sum_messages_per_node, s.sum_messages_per_node);
            prop_assert_eq!(c.dissemination_messages_per_node, s.dissemination_messages_per_node);
            prop_assert_eq!(c.sum_rounds, s.sum_rounds);
            prop_assert_eq!(c.dissemination_converged, s.dissemination_converged);
            prop_assert_eq!(c.noise_share_deficit, s.noise_share_deficit);
            prop_assert_eq!(c.sum_payload_ciphertexts, s.sum_payload_ciphertexts);
            prop_assert!(s.sum_payload_bytes < c.sum_payload_bytes);
        }
    }
}
