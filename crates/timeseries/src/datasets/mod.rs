//! Synthetic dataset generators standing in for the paper's evaluation data.
//!
//! The paper evaluates Chiaroscuro on three datasets we cannot redistribute:
//!
//! * **CER** — 3M daily electricity-consumption series (24 hourly measures,
//!   range [0, 80]) from the Irish Commission for Energy Regulation trial;
//! * **NUMED** — 1.2M synthetic tumor-growth series (20 weekly measures,
//!   range [0, 50]) generated from Claret-style growth models;
//! * **A3** — a 2-D clustering benchmark (7.5K points, 50 clusters),
//!   duplicated 100× with jitter (Appendix D).
//!
//! Each generator here reproduces the *shape* that matters for the
//! experiments: series length, value range (hence DP sensitivity), and the
//! ground-truth cluster structure.

pub mod cer;
pub mod numed;
pub mod points2d;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::set::TimeSeriesSet;

/// A reproducible synthetic dataset generator.
///
/// Generators are seeded so every experiment can be re-run bit-for-bit.
pub trait DatasetGenerator {
    /// Generates `count` time-series.
    fn generate(&self, count: usize) -> TimeSeriesSet;

    /// A short machine-friendly name ("cer", "numed", "points2d").
    fn name(&self) -> &'static str;
}

/// Helper: builds a deterministic RNG from a generator seed and a stream id,
/// so that e.g. data and initial centroids use disjoint random streams (the
/// paper forbids using raw member series as initial centroids).
#[expect(clippy::disallowed_methods, reason = "D3: the named dataset-stream seed helper")]
pub(crate) fn stream_rng(seed: u64, stream: u64) -> StdRng {
    // SplitMix64-style mix keeps distinct streams decorrelated even for
    // adjacent seeds.
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stream_rngs_are_deterministic() {
        let mut a = stream_rng(42, 0);
        let mut b = stream_rng(42, 0);
        let xs: Vec<u64> = (0..5).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..5).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_decorrelate() {
        let mut a = stream_rng(42, 0);
        let mut b = stream_rng(42, 1);
        let xs: Vec<u64> = (0..5).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..5).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }
}
