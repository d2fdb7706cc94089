//! Property tests of the cipher-backend equivalence contract: from the same
//! seed, the Damgård–Jurik backend and the plaintext surrogate must decode
//! identical centroids and report identical message/exchange statistics at
//! any small population, k, churn level, network model and seed.
//!
//! This is the load-bearing guarantee behind running quality/ε scenarios at
//! 100k–10M nodes on the surrogate: whatever the surrogate reports *is* what
//! the crypto run would have reported, minus the modular arithmetic.  It is
//! also the run-level storage parity: the surrogate gossips on the limb slab
//! (`EesUnitArena`) under either engine, Damgård–Jurik on per-node vectors.

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

fn params(k: usize, churn: f64, asynchronous: bool) -> ChiaroscuroParams {
    let network = if asynchronous {
        NetworkModel::Async(
            AsyncNetworkConfig::default().with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 }),
        )
    } else {
        NetworkModel::Rounds
    };
    ChiaroscuroParams::builder()
        .network(network)
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
        .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn surrogate_and_crypto_backends_agree_bit_for_bit(
        population in 12usize..=20,
        k in 1usize..=2,
        churn_step in 0u8..=1,
        asynchronous in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let churn = f64::from(churn_step) * 0.25;
        let data = dataset(population);
        let crypto = DistributedRun::new(params(k, churn, asynchronous), &data).execute(seed);
        let surrogate = DistributedRun::<PlaintextSurrogate>::with_backend(params(k, churn, asynchronous), &data)
            .execute(seed);

        // Every report row, audit event, network statistic and centroid bit;
        // only the payload *bytes* differ, by a constant: the surrogate
        // reports the honest plaintext size, strictly below the ciphertext
        // expansion.
        let (c, s) = (crypto.network[0].sum_payload_bytes, surrogate.network[0].sum_payload_bytes);
        prop_assert!(s < c);
        prop_assert_eq!(crypto.first_divergence(&surrogate, c - s), None);
    }
}
