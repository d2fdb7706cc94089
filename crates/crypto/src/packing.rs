//! Lane-packed plaintext encoding: many fixed-point coordinates per
//! ciphertext.
//!
//! The Damgård–Jurik plaintext space `Z_{n^s}` is at least 1024 bits in the
//! paper's setting, while one summed fixed-point coordinate needs well under
//! 64 bits even for millions of contributors (see the headroom analysis in
//! [`crate::encoding`]).  Encrypting one coordinate per ciphertext therefore
//! wastes most of every ciphertext — and the `k·(n+1)` ciphertexts per
//! Diptych dominate the cost of every encryption, gossip transfer and
//! threshold decryption of an iteration (§4.2, §6.3).
//!
//! This module packs `L` coordinates into disjoint bit-*lanes* of a single
//! plaintext, SIMD-style, so one homomorphic addition adds `L` coordinates
//! at once and the ciphertext count drops by ~`L`×.
//!
//! # Lane layout
//!
//! A plaintext is split into `L` lanes of `W` bits each (`L·W` strictly
//! below the plaintext-space capacity, so packed values never wrap modulo
//! `n^s`).  Coordinate `i` of a packed vector lives in ciphertext `i / L`,
//! lane `i % L`, at bit offset `(i % L)·W`:
//!
//! ```text
//! plaintext = Σ_l  lane_l · 2^(l·W)         0 ≤ lane_l < 2^W
//! ```
//!
//! Because homomorphic addition adds plaintexts as plain integers (far below
//! `n^s`), lane-wise sums are exact **as long as no lane ever reaches
//! `2^W`** — a carry out of a lane would silently corrupt its neighbour.
//! The whole design therefore revolves around making that overflow
//! impossible, and *detectable* if an assumption is ever violated.
//!
//! # Overflow contract
//!
//! Negative coordinates (noise shares!) cannot use the modular-negative
//! trick of [`crate::encoding::FixedPointEncoder`] inside a lane: `n^s − x`
//! wraps across *all* lanes.  Instead every lane carries a **bias**: a
//! coordinate `v` is stored as `round(|v|·scale)` added to (or subtracted
//! from) a per-addend bias `B ≥ M`, where `M` bounds every coordinate
//! magnitude.  Lane payloads are thus always in `[0, B + M]` and sums of
//! payloads can only grow — no borrow, no wrap.
//!
//! The decoder must know the *accumulated bias* to subtract.  Homomorphic
//! pipelines (the EESum gossip rule) multiply contributions by power-of-two
//! coefficients, so the total bias is `B · C` where `C = Σ_j c_j` is the sum
//! of every contribution's coefficient.  `C` is recovered exactly from a
//! dedicated **counter ciphertext** in which every contributor encrypts the
//! constant `1` and which travels through the very same homomorphic
//! operations as the data ciphertexts.
//!
//! Three guards make the contract airtight:
//!
//! 1. **Plan-time** ([`PackedEncoder::plan`]): the lane width `W` is sized
//!    so that `A · C_max · (B + M) < 2^W`, where `C_max` is the worst-case
//!    coefficient sum derived from the population and the epidemic doubling
//!    budget ([`LaneBudget`]).  An infeasible configuration is rejected
//!    here, before anything is encrypted.
//! 2. **Pack-time** ([`PackedEncoder::pack`]): every coordinate magnitude is
//!    checked against `M`; a value outside the planned bound panics instead
//!    of encoding a lane that could overflow downstream.
//! 3. **Decode-time** ([`PackedEncoder::unpack`]): the *actual* `C` read
//!    from the counter ciphertext is checked against the lane capacity; if
//!    the epidemic exceeded the doubling budget the decode panics loudly
//!    instead of returning silently corrupted sums.
//!
//! If guard 3 passes, every lane sum was provably below `2^W`, hence no
//! carry ever crossed a lane boundary and the decoded integers are exactly
//! the integers the unpacked path would have decrypted — which is what makes
//! the packed and legacy pipelines bit-identical.

use num_bigint::BigUint;
use num_traits::One;

use crate::encoding::{biguint_to_f64, FixedPointEncoder};
use crate::keys::PublicKey;

/// The additive capacity one lane must absorb without overflowing.
///
/// Mirrors `ChiaroscuroParams::validate_for_population`: the budget is
/// validated **up front**, against the population and protocol parameters,
/// not discovered by corruption at decode time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneBudget {
    /// Maximum number of distinct contributions ever summed into one lane
    /// (the population, in Chiaroscuro).
    pub contributors: usize,
    /// Allowance for epidemic power-of-two scalings (EESum's `scale_pow2`,
    /// Algorithm 2): each contribution's coefficient may grow up to
    /// `2^doubling_budget`.  The runner derives this from the gossip
    /// exchange budget (a node participates in ~2 exchanges per round);
    /// violations are caught loudly by the decode-time guard.
    pub doubling_budget: u32,
    /// Bound on the absolute value of any packed coordinate (data measures,
    /// counts and noise shares alike), *before* fixed-point scaling.
    pub max_abs_value: f64,
    /// How many independently biased packed vectors are homomorphically
    /// combined before one decode (2 in the runner: the means vector plus
    /// the noise-share vector).
    pub biased_vectors: u32,
}

/// Why a packing configuration was rejected at validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingError {
    /// One lane would need more bits than the plaintext space offers: the
    /// worst-case accumulated sum cannot be represented without overflow.
    LaneOverflow {
        /// Bits one lane requires to hold the worst-case accumulation.
        required_bits: u64,
        /// Bits the plaintext space can safely dedicate to lanes.
        available_bits: u64,
    },
    /// The scaled coordinate magnitude bound itself exceeds the packer's
    /// 128-bit lane arithmetic — no key could pack it.
    MagnitudeOverflow {
        /// Approximate bits the scaled magnitude bound occupies.
        magnitude_bits: u64,
    },
}

impl std::fmt::Display for PackingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackingError::LaneOverflow { required_bits, available_bits } => write!(
                f,
                "lane packing infeasible: one lane needs {required_bits} bits to absorb the \
                 worst-case homomorphic sum but the plaintext space only offers \
                 {available_bits}; use a larger key, fewer decimal digits, or disable \
                 lane_packing"
            ),
            PackingError::MagnitudeOverflow { magnitude_bits } => write!(
                f,
                "lane packing infeasible: the scaled coordinate magnitude bound occupies \
                 ~{magnitude_bits} bits, beyond the packer's 128-bit lane arithmetic; \
                 reduce max_abs_value or the decimal scale"
            ),
        }
    }
}

impl std::error::Error for PackingError {}

/// The planned lane geometry: lane width, lane count and bias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayout {
    /// Width `W` of one lane in bits.
    pub lane_bits: u64,
    /// Number of lanes `L` per plaintext.
    pub lanes: usize,
    /// Per-addend bias `B` added to every lane payload (equals the scaled
    /// magnitude limit `M`, so payloads are always non-negative).
    pub bias: u128,
    /// Maximum scaled coordinate magnitude `M` a lane accepts.
    pub magnitude_limit: u128,
    /// Planned maximum number of biased vectors combined before decode.
    pub biased_vectors: u32,
}

impl PackedLayout {
    /// Number of plaintexts (hence ciphertexts) needed for `coordinates`
    /// packed values — **excluding** the one extra counter ciphertext a
    /// homomorphic pipeline carries (see [`PackedEncoder::counter_plaintext`]).
    pub fn ciphertexts_for(&self, coordinates: usize) -> usize {
        coordinates.div_ceil(self.lanes)
    }
}

/// Packs fixed-point coordinates into bit-lanes of `Z_{n^s}` plaintexts and
/// exactly reverses the packing after homomorphic accumulation.
///
/// Built by [`PackedEncoder::plan`]; shares its fixed-point scale with the
/// [`FixedPointEncoder`] so the packed and per-coordinate paths round
/// identically (a prerequisite for bit-identical decoded results).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedEncoder {
    layout: PackedLayout,
    scale: u64,
}

impl PackedEncoder {
    /// Plans a lane layout for `capacity_bits` of plaintext space, the given
    /// fixed-point encoder and the additive [`LaneBudget`] — or rejects the
    /// configuration if a single lane cannot absorb the worst case.
    ///
    /// `capacity_bits` must be chosen so that `2^capacity_bits ≤ n^s`; use
    /// [`PublicKey::packing_capacity_bits`] for a concrete key, or the
    /// conservative `s · (key_bits − 2)` when planning before key
    /// generation (key generation only guarantees `n ≥ 2^(key_bits−2)`:
    /// it forces the top bit of each `key_bits/2`-bit prime, and the
    /// product of two such primes can still fall below `2^(key_bits−1)`).
    /// Both choices keep every packed plaintext strictly below `n^s`.
    ///
    /// # Panics
    /// Panics if the budget is degenerate (no contributors, a non-finite or
    /// negative magnitude bound, zero biased vectors).
    pub fn plan(
        capacity_bits: u64,
        encoder: &FixedPointEncoder,
        budget: &LaneBudget,
    ) -> Result<Self, PackingError> {
        assert!(budget.contributors >= 1, "a lane budget needs at least one contributor");
        assert!(budget.biased_vectors >= 1, "at least one biased vector is combined");
        assert!(
            budget.max_abs_value.is_finite() && budget.max_abs_value >= 0.0,
            "the magnitude bound must be finite and non-negative"
        );
        // M: the largest scaled integer a coordinate may round to.  `+ 1`
        // absorbs the round-half-up edge of values sitting exactly at the
        // bound.  Magnitudes near u128 range can never pack into any real
        // key anyway — reject them here rather than saturate the cast (a
        // saturated + wrapped limit of 0 would make plan() succeed with an
        // absurd layout and every later pack() fail confusingly).
        let scaled_bound = budget.max_abs_value * encoder.scale() as f64;
        if scaled_bound >= 2f64.powi(126) {
            return Err(PackingError::MagnitudeOverflow {
                magnitude_bits: scaled_bound.log2().ceil() as u64,
            });
        }
        let magnitude_limit = scaled_bound.round() as u128 + 1;
        let bias = magnitude_limit;
        // Worst-case lane accumulation:
        //   A vectors · C_max coefficient mass · (B + M) per contribution,
        // with C_max = contributors · 2^doubling_budget.
        let worst: BigUint = (BigUint::from(budget.biased_vectors)
            * BigUint::from(budget.contributors)
            * BigUint::from(bias + magnitude_limit))
            << budget.doubling_budget;
        // `bits()` = ⌊log2⌋ + 1, so every sum ≤ `worst` fits strictly below
        // 2^lane_bits.
        let lane_bits = worst.bits();
        let lanes = (capacity_bits / lane_bits) as usize;
        if lanes == 0 {
            return Err(PackingError::LaneOverflow {
                required_bits: lane_bits,
                available_bits: capacity_bits,
            });
        }
        Ok(Self {
            layout: PackedLayout {
                lane_bits,
                lanes,
                bias,
                magnitude_limit,
                biased_vectors: budget.biased_vectors,
            },
            scale: encoder.scale(),
        })
    }

    /// The planned lane geometry.
    pub fn layout(&self) -> &PackedLayout {
        &self.layout
    }

    /// Number of lanes per plaintext.
    pub fn lanes(&self) -> usize {
        self.layout.lanes
    }

    /// The fixed-point scale shared with the per-coordinate encoder.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Number of data ciphertexts for a `coordinates`-dimensional vector
    /// (excluding the counter ciphertext).
    pub fn ciphertexts_for(&self, coordinates: usize) -> usize {
        self.layout.ciphertexts_for(coordinates)
    }

    /// Packs a vector of real coordinates into biased lane plaintexts
    /// (`ciphertexts_for(values.len())` of them, each ready to encrypt).
    ///
    /// Rounding is *identical* to [`FixedPointEncoder::encode`]
    /// (`round(|v|·scale)`), which is what makes the packed pipeline decode
    /// to bit-identical `f64`s.
    ///
    /// # Panics
    /// Panics if a value is non-finite or its magnitude exceeds the planned
    /// [`LaneBudget::max_abs_value`] — encoding it could overflow a lane
    /// downstream, so the contract is enforced here, loudly.
    pub fn pack(&self, values: &[f64]) -> Vec<BigUint> {
        let layout = &self.layout;
        values
            .chunks(layout.lanes)
            .map(|chunk| {
                // One buffer sized for the chunk's lanes: they are disjoint
                // bit ranges, so each payload is shifted to its offset and
                // or-ed into place.
                let mut digits = vec![0u64; (chunk.len() as u64 * layout.lane_bits).div_ceil(64) as usize];
                for (lane, &v) in chunk.iter().enumerate() {
                    assert!(v.is_finite(), "cannot pack a non-finite value");
                    let magnitude = (v.abs() * self.scale as f64).round();
                    let mag_int = magnitude as u128;
                    assert!(
                        mag_int <= layout.magnitude_limit,
                        "value {v} (scaled magnitude {mag_int}) exceeds the planned lane \
                         magnitude bound {}; repack with a larger LaneBudget::max_abs_value",
                        layout.magnitude_limit
                    );
                    // Biased payload: B ± |v|·scale, always in [0, B + M].
                    let payload = if v < 0.0 && magnitude != 0.0 {
                        layout.bias - mag_int
                    } else {
                        layout.bias + mag_int
                    };
                    let offset = lane as u64 * layout.lane_bits;
                    let (low, high, shift) = (payload as u64, (payload >> 64) as u64, offset % 64);
                    let shifted = match shift {
                        0 => [low, high, 0],
                        _ => [low << shift, high << shift | low >> (64 - shift), high >> (64 - shift)],
                    };
                    // A payload is below 2^lane_bits (plan sized the lane for
                    // far more), so only zeros fall past the buffer's end.
                    for (digit, part) in digits[(offset / 64) as usize..].iter_mut().zip(shifted) {
                        *digit |= part;
                    }
                }
                BigUint::from_u64_digits(digits)
            })
            .collect()
    }

    /// The counter plaintext every contributor encrypts alongside its data
    /// ciphertexts: the constant `1`.
    ///
    /// Travelling through the same homomorphic operations as the data, the
    /// counter accumulates exactly the coefficient sum `C = Σ_j c_j`, which
    /// the decoder needs to subtract the accumulated bias `B·C` per lane
    /// (and to verify the overflow guard).
    pub fn counter_plaintext(&self) -> BigUint {
        BigUint::one()
    }

    /// Unpacks homomorphically accumulated lane plaintexts back into the
    /// per-coordinate sums, subtracting `biased_vectors · bias · counter`
    /// from every lane and interpreting the result as a signed integer.
    ///
    /// `counter` is the decrypted counter plaintext (the exact coefficient
    /// sum `C`); `biased_vectors` is how many biased packed vectors were
    /// homomorphically combined into `plaintexts` (2 for means + noise).
    ///
    /// The returned `f64`s are bit-identical to what
    /// [`FixedPointEncoder::decode`] would have produced for the same
    /// integer sums on the per-coordinate path.
    ///
    /// # Panics
    /// Panics if the overflow guard fails — i.e. the accumulated coefficient
    /// mass `C` exceeds what the planned lane width can absorb, meaning the
    /// epidemic exceeded its doubling budget and lanes may have carried into
    /// each other.  Results are never silently corrupted.
    pub fn unpack(
        &self,
        plaintexts: &[BigUint],
        coordinates: usize,
        counter: &BigUint,
        biased_vectors: u32,
    ) -> Vec<f64> {
        let layout = &self.layout;
        assert!(
            biased_vectors <= layout.biased_vectors,
            "decode combines {biased_vectors} biased vectors but the layout was planned \
             for at most {}",
            layout.biased_vectors
        );
        assert_eq!(
            plaintexts.len(),
            layout.ciphertexts_for(coordinates),
            "plaintext count does not match the packed vector dimension"
        );
        // Decode-time overflow guard: with the *actual* coefficient sum C,
        // every lane held at most biased_vectors · C · (B + M); if that is
        // still below 2^W no carry can ever have crossed a lane boundary.
        let worst = BigUint::from(biased_vectors)
            * counter
            * BigUint::from(layout.bias + layout.magnitude_limit);
        assert!(
            worst.bits() <= layout.lane_bits,
            "lane overflow: accumulated coefficient mass {counter} exceeds the planned \
             doubling budget; decoded sums would be corrupted"
        );
        let total_bias = BigUint::from(layout.bias) * BigUint::from(biased_vectors) * counter;
        let lane_modulus = BigUint::one() << layout.lane_bits;
        (0..coordinates)
            .map(|i| {
                let plaintext = &plaintexts[i / layout.lanes];
                let offset = (i % layout.lanes) as u64 * layout.lane_bits;
                let lane = (plaintext >> offset) % &lane_modulus;
                // Signed reconstruction, then the exact decode arithmetic of
                // FixedPointEncoder::decode (magnitude → f64 → / scale).
                if lane >= total_bias {
                    biguint_to_f64(&(lane - &total_bias)) / self.scale as f64
                } else {
                    -(biguint_to_f64(&(&total_bias - lane)) / self.scale as f64)
                }
            })
            .collect()
    }
}

impl PublicKey {
    /// Number of bits lane packing may safely use in this key's plaintext
    /// space: one bit below `bits(n^s)`, so every packed plaintext is
    /// strictly smaller than `n^s`.
    pub fn packing_capacity_bits(&self) -> u64 {
        self.plaintext_modulus().bits() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use num_traits::Zero;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn budget() -> LaneBudget {
        LaneBudget { contributors: 16, doubling_budget: 8, max_abs_value: 100.0, biased_vectors: 2 }
    }

    fn encoder() -> FixedPointEncoder {
        FixedPointEncoder::new(3)
    }

    #[test]
    fn plan_produces_multiple_lanes_on_realistic_keys() {
        // 1024-bit paper key: the lane width for a town-sized population is
        // far below the plaintext capacity.
        let packer = PackedEncoder::plan(1023, &encoder(), &budget()).unwrap();
        assert!(packer.lanes() >= 8, "1024-bit keys must fit >= 8 lanes, got {}", packer.lanes());
        assert!(packer.layout().lane_bits * packer.lanes() as u64 <= 1023);
    }

    #[test]
    fn plan_rejects_overflowing_configuration() {
        // A 64-bit plaintext space cannot absorb the worst-case lane sum of
        // a long-running epidemic (48 doublings): the configuration must be
        // rejected at validation, not allowed to corrupt silently.
        let overflowing = LaneBudget { doubling_budget: 48, ..budget() };
        let err = PackedEncoder::plan(63, &encoder(), &overflowing).unwrap_err();
        let PackingError::LaneOverflow { required_bits, available_bits } = err else {
            panic!("expected LaneOverflow, got {err:?}");
        };
        assert!(required_bits > available_bits);
        assert_eq!(available_bits, 63);
        assert!(err.to_string().contains("lane packing infeasible"));
    }

    #[test]
    fn plan_rejects_astronomical_magnitude_bounds_without_overflowing() {
        // A magnitude bound near the u128 range must come back as a clean
        // PackingError, not an integer overflow in the cast arithmetic.
        let absurd = LaneBudget { max_abs_value: 1.0e40, ..budget() };
        let err = PackedEncoder::plan(1023, &encoder(), &absurd).unwrap_err();
        assert!(matches!(err, PackingError::MagnitudeOverflow { magnitude_bits } if magnitude_bits >= 126));
        assert!(err.to_string().contains("128-bit lane arithmetic"));
    }

    #[test]
    fn pack_unpack_round_trip_single_contribution() {
        let packer = PackedEncoder::plan(1023, &encoder(), &budget()).unwrap();
        let values = [0.0, 1.5, -2.25, 99.999, -99.999, 0.001, -0.001, 42.0, 7.5];
        let plaintexts = packer.pack(&values);
        assert_eq!(plaintexts.len(), packer.ciphertexts_for(values.len()));
        let decoded = packer.unpack(&plaintexts, values.len(), &BigUint::one(), 1);
        for (v, d) in values.iter().zip(decoded.iter()) {
            assert!((v - d).abs() < 1e-3, "{v} -> {d}");
        }
    }

    #[test]
    fn plain_integer_addition_of_packed_vectors_matches_scalar_sums() {
        // The homomorphic property packing relies on, checked in the clear:
        // adding packed plaintexts as integers adds every lane.
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        let a = [1.5, -2.0, 30.25, -0.125];
        let b = [-1.0, 4.5, -30.25, 99.0];
        let pa = packer.pack(&a);
        let pb = packer.pack(&b);
        let summed: Vec<BigUint> = pa.iter().zip(pb.iter()).map(|(x, y)| x + y).collect();
        let decoded = packer.unpack(&summed, a.len(), &BigUint::from(2u32), 1);
        for ((x, y), d) in a.iter().zip(b.iter()).zip(decoded.iter()) {
            assert!((x + y - d).abs() < 2e-3, "{x} + {y} -> {d}");
        }
    }

    #[test]
    fn encrypted_packed_sum_matches_unpacked_pipeline_bit_for_bit() {
        // The tentpole contract in miniature: N contributors, homomorphic
        // accumulation, threshold-free decryption — packed and unpacked
        // decoded values must be *identical* f64s, not merely close.
        let mut rng = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(256, 1, &mut rng);
        let enc = encoder();
        let packer =
            PackedEncoder::plan(kp.public.packing_capacity_bits(), &enc, &budget()).unwrap();
        let contributions: Vec<Vec<f64>> = vec![
            vec![10.5, -3.25, 0.0, 80.0, -0.5],
            vec![-10.5, 3.25, 1.0, -80.0, 0.5],
            vec![0.125, 0.125, 0.125, 0.125, 0.125],
        ];
        let dims = contributions[0].len();

        // Unpacked path: one ciphertext per coordinate.
        let mut flat_acc: Vec<_> =
            contributions[0].iter().map(|&v| kp.public.encrypt(&enc.encode(v, &kp.public), &mut rng)).collect();
        for c in &contributions[1..] {
            for (acc, v) in flat_acc.iter_mut().zip(c.iter()) {
                let ct = kp.public.encrypt(&enc.encode(*v, &kp.public), &mut rng);
                *acc = kp.public.add(acc, &ct);
            }
        }
        let unpacked: Vec<f64> = flat_acc
            .iter()
            .map(|c| enc.decode(&kp.secret.decrypt(&kp.public, c), &kp.public))
            .collect();

        // Packed path: lanes + counter ciphertext.
        let blocks = packer.ciphertexts_for(dims);
        let mut packed_acc: Vec<_> =
            packer.pack(&contributions[0]).iter().map(|m| kp.public.encrypt(m, &mut rng)).collect();
        let mut counter_acc = kp.public.encrypt(&packer.counter_plaintext(), &mut rng);
        for c in &contributions[1..] {
            for (acc, m) in packed_acc.iter_mut().zip(packer.pack(c).iter()) {
                *acc = kp.public.add(acc, &kp.public.encrypt(m, &mut rng));
            }
            let one = kp.public.encrypt(&packer.counter_plaintext(), &mut rng);
            counter_acc = kp.public.add(&counter_acc, &one);
        }
        let plaintexts: Vec<BigUint> =
            packed_acc.iter().map(|c| kp.secret.decrypt(&kp.public, c)).collect();
        let counter = kp.secret.decrypt(&kp.public, &counter_acc);
        assert_eq!(counter, BigUint::from(contributions.len()));
        let packed = packer.unpack(&plaintexts, dims, &counter, 1);

        assert_eq!(packed, unpacked, "packed and unpacked decodes must be bit-identical");
        assert!(blocks < dims, "packing must reduce the ciphertext count");
    }

    #[test]
    fn scale_pow2_keeps_lanes_exact_within_the_doubling_budget() {
        // EESum scales contributions by powers of two; lanes must stay exact
        // as long as the doublings stay within the planned budget.
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        let values = [12.5, -7.25, 0.0];
        let packed = packer.pack(&values);
        // One contribution scaled by 2^8 (the full budget): C = 2^8.
        let scaled: Vec<BigUint> = packed.iter().map(|p| p << 8u32).collect();
        let counter = BigUint::one() << 8u32;
        let decoded = packer.unpack(&scaled, values.len(), &counter, 1);
        for (v, d) in values.iter().zip(decoded.iter()) {
            // 2^8·(B ± m) with total bias 2^8·B leaves 2^8·m; dividing by the
            // epidemic weight is the caller's job, so expect the scaled sum.
            assert!((256.0 * v - d).abs() < 1e-3, "{v} -> {d}");
        }
    }

    #[test]
    #[should_panic(expected = "lane overflow")]
    fn decode_guard_rejects_coefficient_mass_beyond_the_budget() {
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        let packed = packer.pack(&[1.0]);
        // Pretend the epidemic scaled far beyond the planned budget.
        let absurd_counter = BigUint::one() << 200u32;
        packer.unpack(&packed, 1, &absurd_counter, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the planned lane magnitude bound")]
    fn pack_rejects_values_beyond_the_magnitude_bound() {
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        packer.pack(&[1e9]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn pack_rejects_non_finite_values()  {
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        packer.pack(&[f64::NAN]);
    }

    #[test]
    fn pack_places_every_lane_exactly_where_the_layout_says() {
        // Σ payload_l · 2^(l·W), spelled with big-integer shifts and adds,
        // for lane widths below, at and above one and two limbs, full and
        // partial last chunks, and magnitudes up to the packer's own limit.
        let mut cases = Vec::new();
        for (capacity, doubling_budget, max_abs_value) in
            [(160, 0, 1.0), (511, 8, 100.0), (1023, 33, 100.0), (1023, 40, 3.0e5), (2046, 100, 1.0e9), (3000, 200, 8.0e34)]
        {
            let budget = LaneBudget { doubling_budget, max_abs_value, ..budget() };
            let packer = PackedEncoder::plan(capacity, &encoder(), &budget).unwrap();
            let layout = packer.layout().clone();
            cases.push(layout.lane_bits);
            let values: Vec<f64> = (0..2 * layout.lanes + 3)
                .map(|i| [1.0, -1.0, 0.37, -0.61, 0.0][i % 5] * max_abs_value / (1 + i / 5) as f64)
                .collect();
            let expected: Vec<BigUint> = values
                .chunks(layout.lanes)
                .map(|chunk| {
                    chunk.iter().rev().fold(BigUint::zero(), |acc, &v| {
                        let magnitude = (v.abs() * packer.scale() as f64).round() as u128;
                        let payload = if v < 0.0 { layout.bias - magnitude } else { layout.bias + magnitude };
                        (acc << layout.lane_bits) + BigUint::from(payload)
                    })
                })
                .collect();
            assert_eq!(packer.pack(&values), expected, "lane_bits = {}", layout.lane_bits);
        }
        assert!(cases.iter().any(|&w| w < 64) && cases.iter().any(|&w| w > 128), "lane widths {cases:?}");
    }

    #[test]
    fn negative_zero_packs_like_zero() {
        let packer = PackedEncoder::plan(511, &encoder(), &budget()).unwrap();
        assert_eq!(packer.pack(&[-0.0]), packer.pack(&[0.0]));
        assert_eq!(packer.pack(&[-0.0001]), packer.pack(&[0.0]));
    }
}
