//! The §6.3.2 iteration estimate: `fig4_latency --part iteration-model`
//! multiplies fixed per-participant message counts by Fig 5's per-set local
//! costs.  It is figure arithmetic, not a protocol step, so it lives in the
//! figure harness rather than in the protocol crates.

use chiaroscuro_crypto::wire::{MeansWireModel, CLEARTEXT_BYTES_PER_MEAN};

/// Ciphertexts per set of means in the paper's setting: 50 means of 20
/// measures plus a count, one ciphertext per coordinate.
pub const FULL_SET: usize = 50 * (20 + 1);

/// Transfer time in seconds of `bytes` over a participant's 1 Mb/s link.
pub fn transfer_secs(bytes: usize) -> f64 {
    (bytes as f64 * 8.0) / 1_000_000.0
}

/// The §6.3.2 estimate of one iteration for one participant, with the
/// surviving fraction of the paper's 50 centroids: `(ciphertexts per set,
/// minutes)`.  `set_kilobytes` sizes the full one-ciphertext-per-coordinate
/// set, and `lanes` packs that many coordinates per ciphertext (plus one
/// counter ciphertext when `lanes > 1`).  The local costs are Fig 5's per-set
/// times (3 s encrypt, 0.08 s add, 9 s decrypt) divided by [`FULL_SET`]; the
/// message counts are fixed: two epidemic sums of 100 messages, each carrying
/// one set and one addition; 50 dissemination messages at a tenth of a set;
/// 100 decryption messages of two sets, then one decryption.  At the default
/// flags this reads 7.5 minutes for the first iteration and 3.0 for the
/// fifth — it does not regenerate the paper's ≈26 minutes.
pub fn iteration_estimate(lanes: usize, set_kilobytes: f64, surviving_fraction: f64) -> (usize, f64) {
    let cleartext_bytes = (50 * CLEARTEXT_BYTES_PER_MEAN) as f64;
    let wire = MeansWireModel {
        num_means: (50.0 * surviving_fraction) as usize,
        measures_per_mean: 20,
        ciphertext_bytes: ((set_kilobytes * 1_000.0 - cleartext_bytes) / FULL_SET as f64) as usize,
        lanes_per_ciphertext: lanes,
    };
    let ciphertexts = wire.ciphertexts_per_set();
    let per_set = ciphertexts as f64;
    let transfer = transfer_secs(wire.set_bytes());
    let sum_phase = 2.0 * 100.0 * (transfer + per_set * (0.08 / FULL_SET as f64));
    let dissemination_phase = 50.0 * transfer * 0.1;
    let decryption_phase = 100.0 * (2.0 * transfer) + per_set * (9.0 / FULL_SET as f64);
    let encrypt = per_set * (3.0 / FULL_SET as f64);
    (ciphertexts, (encrypt + sum_phase + dissemination_phase + decryption_phase) / 60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(ciphertexts per set, minutes to one decimal)` at the default
    /// `--set-kb 130`, as `fig4_latency` prints the row.
    fn row(lanes: usize, surviving_fraction: f64) -> (usize, String) {
        let (ciphertexts, minutes) = iteration_estimate(lanes, 130.0, surviving_fraction);
        (ciphertexts, format!("{minutes:.1}"))
    }

    #[test]
    fn paper_scale_iteration_is_tens_of_minutes() {
        // The paper's setting, one ciphertext per coordinate: 1050
        // ciphertexts per set and 7.5 minutes (the paper reports ≈26; the
        // fixed message counts here are not retuned to it).
        assert_eq!(row(1, 1.0), (FULL_SET, "7.5".to_string()));
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1,000 × 125 B = 1 Mb at 1 Mb/s: one second.
        assert_eq!(transfer_secs(1_000 * 125), 1.0);
    }

    #[test]
    fn later_iterations_with_fewer_centroids_are_cheaper() {
        // The fifth iteration, after 60 % of the centroids became aberrant:
        // 20 means make 420 ciphertexts per set and 3.0 minutes.
        assert_eq!(row(1, 0.4), (420, "3.0".to_string()));
        assert!(iteration_estimate(1, 130.0, 0.4).1 < iteration_estimate(1, 130.0, 1.0).1);
    }

    #[test]
    fn lane_packing_divides_the_iteration_estimate() {
        // 12 lanes per ciphertext: ⌈1050/12⌉ + 1 = 89 ciphertexts and 0.7
        // minutes for the first iteration, 36 and 0.3 for the fifth.
        assert_eq!(row(12, 1.0), (FULL_SET.div_ceil(12) + 1, "0.7".to_string()));
        assert_eq!(row(12, 0.4), (36, "0.3".to_string()));
    }
}
