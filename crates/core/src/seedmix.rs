//! Named seed-mix helpers: the only approved routes from a `u64` seed to
//! an RNG stream in protocol code (contract D3: `clippy.toml` bans
//! `seed_from_u64` everywhere else in product code).
//!
//! Concentrating every `seed_from_u64` behind a named helper keeps the
//! stream-derivation tree auditable: the run seed feeds [`run_rng`], the
//! master stream deals one `u64` per participant, and each participant
//! seed splits into exactly two sub-streams via [`device_streams`] — one
//! for noise-share generation, one for encryption.  The split order is
//! load-bearing: the monolithic runner and the actor deployment both call
//! [`device_streams`], which is what makes their per-device RNG
//! consumption bit-identical (pinned by the actor-parity tests).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The top-level RNG for a run, derived from the caller-facing seed.
///
/// Every deployment shape (monolithic runner, actor cluster, bench
/// harness) must start from this helper so that a given seed names the
/// same master stream everywhere.
#[expect(clippy::disallowed_methods, reason = "D3: the named run-level seed helper")]
pub fn run_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The two per-device RNG sub-streams derived from a participant seed.
pub struct DeviceStreams {
    /// Drives `NoiseShareVector::generate` for this device.
    pub noise: StdRng,
    /// Drives encoding + encryption for this device's contribution.
    pub encryption: StdRng,
}

/// Splits one participant seed into the noise and encryption sub-streams.
///
/// The noise stream is seeded from the *first* draw and the encryption
/// stream from the *second*; noise generation therefore never perturbs
/// the encryption stream, so the packed and legacy encoding paths (which
/// encrypt different unit counts) still consume bit-identical noise.
#[expect(clippy::disallowed_methods, reason = "D3: the named device-level seed helper")]
pub fn device_streams(participant_seed: u64) -> DeviceStreams {
    let mut device_rng = StdRng::seed_from_u64(participant_seed);
    let noise_seed: u64 = device_rng.gen();
    let encryption_seed: u64 = device_rng.gen();
    DeviceStreams {
        noise: StdRng::seed_from_u64(noise_seed),
        encryption: StdRng::seed_from_u64(encryption_seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_streams_match_the_historical_inline_split() {
        // The exact sequence the runner/actor used inline before this
        // helper existed — the refactor must not move any pinned seed.
        let mut device_rng = StdRng::seed_from_u64(0xC1A0_0007);
        let noise_seed: u64 = device_rng.gen();
        let encryption_seed: u64 = device_rng.gen();
        let mut expect_noise = StdRng::seed_from_u64(noise_seed);
        let mut expect_enc = StdRng::seed_from_u64(encryption_seed);

        let mut streams = device_streams(0xC1A0_0007);
        for _ in 0..16 {
            assert_eq!(streams.noise.gen::<u64>(), expect_noise.gen::<u64>());
            assert_eq!(streams.encryption.gen::<u64>(), expect_enc.gen::<u64>());
        }
    }

    #[test]
    fn run_rng_is_seed_stable() {
        let mut a = run_rng(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
