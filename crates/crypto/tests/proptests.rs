//! Property-based tests for the homomorphic threshold encryption substrate.
//!
//! Key generation is expensive, so the tests share a handful of lazily
//! generated key pairs and vary plaintexts, scalars and share subsets.

use std::sync::OnceLock;

use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::keys::KeyPair;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder, PackingError};
use chiaroscuro_crypto::threshold::{combine, PartialDecryption, ThresholdDealer};
use num_bigint::BigUint;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn keypair() -> &'static KeyPair {
    static KP: OnceLock<KeyPair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        KeyPair::generate(160, 1, &mut rng)
    })
}

fn keypair_s2() -> &'static KeyPair {
    static KP: OnceLock<KeyPair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        KeyPair::generate(128, 2, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encrypt_decrypt_round_trip(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = BigUint::from(m);
        let c = kp.public.encrypt(&m, &mut rng);
        prop_assert_eq!(kp.secret.decrypt(&kp.public, &c), m);
    }

    #[test]
    fn homomorphic_addition_matches_plaintext_addition(
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = (BigUint::from(a), BigUint::from(b));
        let sum = kp.public.add(&kp.public.encrypt(&a, &mut rng), &kp.public.encrypt(&b, &mut rng));
        prop_assert_eq!(kp.secret.decrypt(&kp.public, &sum), (&a + &b) % kp.public.plaintext_modulus());
    }

    #[test]
    fn scalar_multiplication_matches(m in any::<u32>(), k in 0u32..10_000, seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public.encrypt(&BigUint::from(m), &mut rng);
        let scaled = kp.public.scalar_mul(&c, &BigUint::from(k));
        prop_assert_eq!(
            kp.secret.decrypt(&kp.public, &scaled),
            (BigUint::from(m) * BigUint::from(k)) % kp.public.plaintext_modulus()
        );
    }

    #[test]
    fn scale_pow2_is_multiplication_by_power_of_two(m in any::<u32>(), e in 0u32..20, seed in any::<u64>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = kp.public.encrypt(&BigUint::from(m), &mut rng);
        let scaled = kp.public.scale_pow2(&c, e);
        prop_assert_eq!(
            kp.secret.decrypt(&kp.public, &scaled),
            BigUint::from(m) << e
        );
    }

    #[test]
    fn general_s_round_trip(m in any::<u64>(), seed in any::<u64>()) {
        let kp = keypair_s2();
        let mut rng = StdRng::seed_from_u64(seed);
        // Stretch the plaintext above n to exercise the s = 2 extraction.
        let m = BigUint::from(m) * kp.public.modulus() / BigUint::from(3u32);
        let c = kp.public.encrypt(&m, &mut rng);
        prop_assert_eq!(kp.secret.decrypt(&kp.public, &c), m);
    }

    #[test]
    fn threshold_combination_from_any_subset(
        m in any::<u32>(),
        subset_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        for kp in [keypair(), keypair_s2()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dealer = ThresholdDealer::new(kp, 8, 3);
            let shares = dealer.deal(&mut rng);
            let m = BigUint::from(m);
            let c = kp.public.encrypt(&m, &mut rng);
            // Pick 3 distinct share indices from the subset seed.
            let mut pick_rng = StdRng::seed_from_u64(subset_seed);
            let mut indices: Vec<usize> = (0..8).collect();
            use rand::seq::SliceRandom;
            indices.shuffle(&mut pick_rng);
            let partials: Vec<PartialDecryption> = indices[..3]
                .iter()
                .map(|&i| shares[i].partial_decrypt(&kp.public, &c))
                .collect();
            prop_assert_eq!(combine(&kp.public, &partials, 3, 8).unwrap(), m);
        }
    }

    #[test]
    fn textbook_and_short_exponent_masks_interoperate(
        a in any::<u64>(),
        b in any::<u64>(),
        e in 0u32..12,
        seed in any::<u64>(),
    ) {
        // A ciphertext masked the textbook way, g^a · r^{n^s} for a fresh
        // unit r, is a ciphertext of the same scheme as the h_s^α-masked
        // ones `encrypt` makes: they add, scale, re-randomise and decrypt
        // (full key and τ-of-ℓ) together, for s = 1 and s = 2.
        use num_bigint::RandBigInt;
        for kp in [keypair(), keypair_s2()] {
            let pk = &kp.public;
            let mut rng = StdRng::seed_from_u64(seed);
            let (a, b) = (BigUint::from(a), BigUint::from(b));
            let r = rng.gen_biguint_range(&BigUint::from(2u32), pk.modulus());
            let textbook = pk.generator_pow(&a) * pk.modpow_ciphertext(&r, pk.plaintext_modulus())
                % pk.ciphertext_modulus();
            let textbook = pk.ciphertext_from_canonical(&textbook).expect("a unit of Z_{n^{s+1}}");
            prop_assert_eq!(kp.secret.decrypt(pk, &textbook), a.clone());

            let sum = pk.add(&textbook, &pk.encrypt(&b, &mut rng));
            let expected = (&a + &b) % pk.plaintext_modulus();
            prop_assert_eq!(kp.secret.decrypt(pk, &sum), expected.clone());
            let fresh = pk.rerandomize(&sum, &mut rng);
            prop_assert_ne!(&fresh, &sum);
            prop_assert_eq!(kp.secret.decrypt(pk, &fresh), expected.clone());
            let scaled = pk.scale_pow2(&fresh, e);
            let expected = (expected << e) % pk.plaintext_modulus();
            prop_assert_eq!(kp.secret.decrypt(pk, &scaled), expected.clone());

            let shares = ThresholdDealer::new(kp, 5, 2).deal(&mut rng);
            let partials: Vec<PartialDecryption> =
                shares[1..3].iter().map(|share| share.partial_decrypt(pk, &scaled)).collect();
            prop_assert_eq!(combine(pk, &partials, 2, 5).unwrap(), expected);
        }
    }

    #[test]
    fn resident_operators_read_out_as_the_textbook_group_operations(
        a in any::<u64>(),
        b in any::<u64>(),
        e in 0u32..=64,
        seed in any::<u64>(),
    ) {
        // A ciphertext is held as c·R mod n^{s+1}; what it *is* is c.  Read
        // out canonically, +ₕ is the modular product, a 2^e scaling is e
        // modular squarings and a re-randomisation is a product with an
        // encryption of zero — each computed here inline, the slow way.
        use num_traits::One;
        for kp in [keypair(), keypair_s2()] {
            let pk = &kp.public;
            let modulus = pk.ciphertext_modulus();
            let mut rng = StdRng::seed_from_u64(seed);
            let (ca, cb) = (pk.encrypt(&BigUint::from(a), &mut rng), pk.encrypt(&BigUint::from(b), &mut rng));
            let (ra, rb) = (pk.canonical(&ca), pk.canonical(&cb));
            prop_assert!(ra > BigUint::one() && &ra < modulus);
            prop_assert_eq!(pk.ciphertext_from_canonical(&ra), Some(ca.clone()));

            prop_assert_eq!(pk.canonical(&pk.add(&ca, &cb)), &ra * &rb % modulus);
            let power = BigUint::one() << e;
            prop_assert_eq!(pk.canonical(&pk.scale_pow2(&ca, e)), ra.modpow_schoolbook(&power, modulus));
            prop_assert_eq!(pk.scale_pow2(&ca, e), pk.scalar_mul(&ca, &power));
            let zero = pk.encrypt_zero(&mut StdRng::seed_from_u64(!seed));
            let fresh = pk.rerandomize(&ca, &mut StdRng::seed_from_u64(!seed));
            prop_assert_eq!(pk.canonical(&fresh), &ra * pk.canonical(&zero) % modulus);
            prop_assert_eq!(kp.secret.decrypt(pk, &fresh), BigUint::from(a));
        }
    }

    #[test]
    fn in_place_operators_match_the_out_of_place_ones_on_both_backends(
        values in prop::collection::vec(any::<u64>(), 1..6),
        e in 0u32..=64,
        seed in any::<u64>(),
    ) {
        use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend, DamgardJurik, PlaintextSurrogate};
        fn check<B: CipherBackend>(backend: &B, values: &[u64], e: u32, seed: u64) -> Result<(), TestCaseError>
        where
            B::Unit: PartialEq,
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut units = |shift: u32| -> Vec<B::Unit> {
                values.iter().map(|&v| backend.encrypt(&(BigUint::from(v) << shift), &mut rng)).collect()
            };
            let (ours, theirs) = (units(0), units(70));
            let mut acc = ours.clone();
            backend.scale_pow2_assign(&mut acc, e);
            for (scaled, unit) in acc.iter().zip(&ours) {
                prop_assert!(*scaled == backend.scale_pow2(unit, e));
            }
            let scaled = acc.clone();
            backend.add_assign(&mut acc, &theirs);
            for ((sum, a), b) in acc.iter().zip(&scaled).zip(&theirs) {
                prop_assert!(*sum == backend.add(a, b));
            }
            // The contact's overwrite lands on the same units too.
            let mut contact = theirs;
            contact.clone_from(&acc);
            prop_assert!(contact == acc);
            Ok(())
        }
        check(&DamgardJurik::from_public_key(keypair().public.clone()), &values, e, seed)?;
        check(&DamgardJurik::from_public_key(keypair_s2().public.clone()), &values, e, seed)?;
        let setup = BackendSetup {
            key_bits: 128,
            damgard_jurik_s: 1,
            population: 4,
            key_share_threshold: 2,
            packed_layout: None,
        };
        check(&PlaintextSurrogate::setup(&setup, &mut StdRng::seed_from_u64(1)), &values, e, seed)?;
    }

    #[test]
    fn fixed_point_encoding_round_trips(v in -1.0e9f64..1.0e9, digits in 0u32..7) {
        let kp = keypair();
        let enc = FixedPointEncoder::new(digits);
        let decoded = enc.decode(&enc.encode(v, &kp.public), &kp.public);
        let tolerance = 0.51 / 10f64.powi(digits as i32) + v.abs() * 1e-12;
        prop_assert!((decoded - v).abs() <= tolerance, "{} -> {} (digits {})", v, decoded, digits);
    }

    #[test]
    fn fixed_point_sums_commute_with_encoding(
        values in prop::collection::vec(-1.0e5f64..1.0e5, 1..20),
    ) {
        let kp = keypair();
        let enc = FixedPointEncoder::new(3);
        let mut acc = BigUint::from(0u32);
        for &v in &values {
            acc = (acc + enc.encode(v, &kp.public)) % kp.public.plaintext_modulus();
        }
        let decoded = enc.decode(&acc, &kp.public);
        let expected: f64 = values.iter().sum();
        prop_assert!((decoded - expected).abs() < 1e-2 * values.len() as f64);
    }

    #[test]
    fn packing_homomorphic_sum_round_trips_to_scalar_sums(
        // Up to 7 contributors of 9 signed coordinates each: negative values
        // stand in for the noise shares that must survive the biased lanes.
        contributions in prop::collection::vec(
            prop::collection::vec(-500.0f64..500.0, 9),
            1..8,
        ),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let enc = FixedPointEncoder::new(3);
        let budget = LaneBudget {
            contributors: 8,
            doubling_budget: 4,
            max_abs_value: 600.0,
            biased_vectors: 1,
        };
        let packer =
            PackedEncoder::plan(kp.public.packing_capacity_bits(), &enc, &budget).unwrap();
        prop_assert!(packer.lanes() >= 2, "the 160-bit test key must fit several lanes");
        let dims = contributions[0].len();
        let mut rng = StdRng::seed_from_u64(seed);

        // pack -> encrypt -> homomorphically add N contributions (+ counter).
        let mut acc: Vec<chiaroscuro_crypto::scheme::Ciphertext> =
            packer.pack(&contributions[0]).iter().map(|m| kp.public.encrypt(m, &mut rng)).collect();
        let mut counter = kp.public.encrypt(&packer.counter_plaintext(), &mut rng);
        for c in &contributions[1..] {
            for (a, m) in acc.iter_mut().zip(packer.pack(c).iter()) {
                *a = kp.public.add(a, &kp.public.encrypt(m, &mut rng));
            }
            counter = kp.public.add(&counter, &kp.public.encrypt(&packer.counter_plaintext(), &mut rng));
        }

        // decrypt -> unpack == the scalar per-coordinate sums.
        let plaintexts: Vec<BigUint> =
            acc.iter().map(|c| kp.secret.decrypt(&kp.public, c)).collect();
        let counter_plain = kp.secret.decrypt(&kp.public, &counter);
        prop_assert_eq!(&counter_plain, &BigUint::from(contributions.len()));
        let decoded = packer.unpack(&plaintexts, dims, &counter_plain, 1);
        for (i, d) in decoded.iter().enumerate() {
            let expected: f64 = contributions.iter().map(|c| c[i]).sum();
            // Each addend rounds to 3 decimals: the packed sum is exact in
            // that fixed-point arithmetic.
            prop_assert!(
                (d - expected).abs() <= 0.5e-3 * contributions.len() as f64,
                "coordinate {}: {} vs {}", i, d, expected
            );
        }
    }

    #[test]
    fn packing_matches_the_per_coordinate_encoding_bit_for_bit(
        contributions in prop::collection::vec(
            prop::collection::vec(-80.0f64..80.0, 5),
            1..6,
        ),
    ) {
        // The packed decode must replicate FixedPointEncoder::decode's f64s
        // exactly — same rounding, same magnitude conversion, same division.
        let kp = keypair();
        let enc = FixedPointEncoder::new(3);
        let budget = LaneBudget {
            contributors: 8,
            doubling_budget: 4,
            max_abs_value: 100.0,
            biased_vectors: 1,
        };
        let packer =
            PackedEncoder::plan(kp.public.packing_capacity_bits(), &enc, &budget).unwrap();
        let dims = contributions[0].len();
        // Plain (unencrypted) accumulation on both paths: the homomorphic
        // layer is exercised by the sibling test, the bit-equality question
        // is purely arithmetic.
        let mut legacy = vec![BigUint::from(0u32); dims];
        for c in &contributions {
            for (acc, &v) in legacy.iter_mut().zip(c.iter()) {
                *acc = (&*acc + enc.encode(v, &kp.public)) % kp.public.plaintext_modulus();
            }
        }
        let legacy_decoded: Vec<f64> =
            legacy.iter().map(|p| enc.decode(p, &kp.public)).collect();

        let mut packed = packer.pack(&contributions[0]);
        for c in &contributions[1..] {
            for (acc, p) in packed.iter_mut().zip(packer.pack(c).iter()) {
                *acc = &*acc + p;
            }
        }
        let packed_decoded =
            packer.unpack(&packed, dims, &BigUint::from(contributions.len()), 1);
        prop_assert_eq!(packed_decoded, legacy_decoded);
    }

    // --- Transport wire round trips -------------------------------------
    //
    // Every payload class that crosses the node Transport must round-trip
    // encode → decode to identity: raw ciphertexts, public-key provisioning
    // blobs, and fixed-width unit vectors (per-coordinate *and* packed-lane
    // payloads, under both the real cipher and the plaintext surrogate).

    #[test]
    fn wire_ciphertext_round_trips(m in any::<u64>(), doublings in 0u32..40, seed in any::<u64>()) {
        // One unit, fresh and after an exchange's worth of operators: the
        // bytes are never wider than the backend's honest unit size (they
        // are exactly that wide) and read back as the unit that was sent —
        // the resident residue travels as it stands.
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        for kp in [keypair(), keypair_s2()] {
            let backend = DamgardJurik::from_public_key(kp.public.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let m = BigUint::from(m);
            let fresh = backend.encrypt(&m, &mut rng);
            let merged = backend.add(&backend.scale_pow2(&fresh, doublings), &backend.encrypt_zero(&mut rng));
            for (unit, plaintext) in [(&fresh, m.clone()), (&merged, &m << doublings)] {
                let bytes = backend.unit_to_bytes(unit);
                prop_assert!(bytes.len() <= backend.unit_bytes());
                prop_assert_eq!(bytes.len(), kp.public.ciphertext_bytes());
                let back = backend.unit_from_bytes(&bytes).unwrap();
                prop_assert_eq!(&back, unit);
                prop_assert_eq!(kp.secret.decrypt(&kp.public, &back), plaintext);
            }
        }
    }

    #[test]
    fn wire_unit_bytes_are_refused_or_safe_to_operate_on(
        noise in prop::collection::vec(any::<u8>(), 0..80),
        excess in any::<u32>(),
        seed in any::<u64>(),
    ) {
        // Whatever a peer sends as one unit — nothing, zeros, the modulus,
        // just past it, over-long bytes, noise of any length — is refused
        // or is a value below the modulus, which the in-place kernels take
        // without a panic (they assume exactly that of their inputs).
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        for kp in [keypair(), keypair_s2()] {
            let backend = DamgardJurik::from_public_key(kp.public.clone());
            let modulus = kp.public.ciphertext_modulus();
            let width = backend.unit_bytes();
            let honest = backend.encrypt(&BigUint::from(excess), &mut StdRng::seed_from_u64(seed));
            let refused = [
                Vec::new(),
                vec![0u8; width],
                modulus.to_bytes_be(),
                (modulus + BigUint::from(1u32)).to_bytes_be(),
                (modulus + BigUint::from(excess)).to_bytes_be(),
                [&[0u8; 11][..], &modulus.to_bytes_be()].concat(),
                vec![0xFF; width],
                [&[1u8][..], &backend.unit_to_bytes(&honest)].concat(),
            ];
            for bytes in &refused {
                prop_assert!(backend.unit_from_bytes(bytes).is_none(), "{} bytes accepted", bytes.len());
            }
            let in_range = (modulus - BigUint::from(1u32)).to_bytes_be();
            let padded = [&[0u8; 11][..], &in_range].concat();
            for bytes in [&noise, &in_range, &padded, &vec![1u8]] {
                let Some(unit) = backend.unit_from_bytes(bytes) else { continue };
                prop_assert_eq!(BigUint::from_bytes_be(&backend.unit_to_bytes(&unit)), BigUint::from_bytes_be(bytes));
                let mut acc = [honest.clone(), unit.clone()];
                backend.add_assign(&mut acc, &[unit.clone(), unit]);
                backend.scale_pow2_assign(&mut acc, 12);
                // Products and powers of units are units: still on the wire's terms.
                for merged in &acc {
                    prop_assert_eq!(backend.unit_from_bytes(&backend.unit_to_bytes(merged)), Some(merged.clone()));
                }
            }
        }
    }

    #[test]
    fn wire_public_key_round_trips_and_interoperates(m in any::<u32>(), seed in any::<u64>()) {
        use chiaroscuro_crypto::wire::{deserialize_public_key, serialize_public_key};
        for kp in [keypair(), keypair_s2()] {
            let back = deserialize_public_key(&serialize_public_key(&kp.public)).unwrap();
            prop_assert_eq!(&back, &kp.public);
            let mut rng = StdRng::seed_from_u64(seed);
            let c = back.encrypt(&BigUint::from(m), &mut rng);
            prop_assert_eq!(kp.secret.decrypt(&kp.public, &c), BigUint::from(m));
        }
    }

    #[test]
    fn wire_public_key_bytes_never_panic_the_parser(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        cut in any::<usize>(),
    ) {
        // Arbitrary bytes, and a well-formed key cut, extended and
        // overwritten at an arbitrary offset: a typed refusal or a key that
        // passes every wire check, never a panic (or an allocation sized by
        // a peer's exponent).
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        use chiaroscuro_crypto::wire::{deserialize_public_key, serialize_public_key};
        use num_traits::One;
        for kp in [keypair(), keypair_s2()] {
            let sample = serialize_public_key(&kp.public).to_vec();
            let cut = cut % (sample.len() + 1);
            let spliced: Vec<u8> = sample[..cut].iter().chain(&noise).copied().collect();
            let mut overwritten = sample.clone();
            for (byte, &n) in overwritten[cut..].iter_mut().zip(&noise) {
                *byte = n;
            }
            // The same key with the low `cut % 8 + 1` bits of its modulus
            // cleared: an even modulus, every other field as a generated
            // key carries it.
            let n_len = kp.public.modulus().to_bytes_be().len();
            let mut even = sample.clone();
            even[16 + n_len - 1] &= 0xFE << (cut % 8);
            prop_assert!(deserialize_public_key(&even).is_none(), "an even modulus was accepted");
            for bytes in [&noise, &spliced, &overwritten, &sample[..cut].to_vec(), &even] {
                let parsed = deserialize_public_key(bytes);
                prop_assert_eq!(DamgardJurik::import_public(bytes).is_some(), parsed.is_some());
                if let Some(pk) = parsed {
                    let h_s = pk.mask_base();
                    prop_assert!(h_s > &BigUint::one() && h_s < pk.ciphertext_modulus());
                    // Odd, so the key has the Montgomery form its ciphertexts
                    // live in: the first encryption must not panic.
                    prop_assert!(pk.modulus().bit(0));
                    let _ = pk.encrypt(&BigUint::one(), &mut StdRng::seed_from_u64(cut as u64));
                }
            }
        }
    }

    #[test]
    fn wire_unit_vectors_round_trip_per_coordinate(
        values in prop::collection::vec(any::<u32>(), 1..12),
        seed in any::<u64>(),
    ) {
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        use chiaroscuro_crypto::wire::{deserialize_units, serialize_units};
        let kp = keypair();
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let units: Vec<_> =
            values.iter().map(|&v| backend.encrypt(&BigUint::from(v), &mut rng)).collect();
        let bytes = serialize_units(&backend, &units);
        prop_assert_eq!(bytes.len(), 8 + units.len() * backend.unit_bytes());
        let back = deserialize_units(&backend, &bytes).unwrap();
        prop_assert_eq!(back.len(), units.len());
        for (u, b) in units.iter().zip(&back) {
            prop_assert_eq!(kp.secret.decrypt(&kp.public, u), kp.secret.decrypt(&kp.public, b));
        }
    }

    #[test]
    fn wire_unit_vectors_reject_zero_and_out_of_range_units(
        values in prop::collection::vec(any::<u32>(), 1..8),
        position in 0usize..8,
        excess in any::<u32>(),
        seed in any::<u64>(),
    ) {
        // Peer bytes fail closed: a Damgård–Jurik unit lives in
        // [1, n^{s+1}), so a vector carrying 0, n^{s+1} itself or anything
        // above it must not deserialize (and so never reaches `add`).
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        use chiaroscuro_crypto::wire::{deserialize_units, serialize_units};
        let kp = keypair();
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let units: Vec<_> =
            values.iter().map(|&v| backend.encrypt(&BigUint::from(v), &mut rng)).collect();
        let honest = serialize_units(&backend, &units).to_vec();
        let width = backend.unit_bytes();
        let slot = 8 + (position % units.len()) * width;
        let modulus = kp.public.ciphertext_modulus();
        for bad in [BigUint::from(0u32), modulus.clone(), modulus + BigUint::from(excess)] {
            let mut raw = bad.to_bytes_be();
            if raw.len() > width {
                raw = vec![0xFF; width]; // still ≥ n^{s+1}, which fits the width
            }
            let mut bytes = honest.clone();
            bytes[slot..slot + width].fill(0);
            bytes[slot + width - raw.len()..slot + width].copy_from_slice(&raw);
            prop_assert!(deserialize_units(&backend, &bytes).is_none());
        }
        // The largest in-range value is still accepted.
        let mut bytes = honest;
        let top = (modulus - BigUint::from(1u32)).to_bytes_be();
        bytes[slot..slot + width].fill(0);
        bytes[slot + width - top.len()..slot + width].copy_from_slice(&top);
        prop_assert!(deserialize_units(&backend, &bytes).is_some());
    }

    #[test]
    fn wire_unit_vectors_round_trip_packed_lanes(
        coordinates in prop::collection::vec(-500.0f64..500.0, 9),
        seed in any::<u64>(),
    ) {
        // A packed-lane contribution: pack → encrypt → serialize must decode
        // back to ciphertexts carrying the identical packed plaintexts.
        use chiaroscuro_crypto::backend::{CipherBackend, DamgardJurik};
        use chiaroscuro_crypto::wire::{deserialize_units, serialize_units};
        let kp = keypair();
        let backend = DamgardJurik::from_public_key(kp.public.clone());
        let enc = FixedPointEncoder::new(3);
        let budget = LaneBudget {
            contributors: 8,
            doubling_budget: 4,
            max_abs_value: 600.0,
            biased_vectors: 1,
        };
        let packer =
            PackedEncoder::plan(kp.public.packing_capacity_bits(), &enc, &budget).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let plaintexts = packer.pack(&coordinates);
        let units: Vec<_> = plaintexts.iter().map(|m| backend.encrypt(m, &mut rng)).collect();
        let back = deserialize_units(&backend, &serialize_units(&backend, &units)).unwrap();
        for (m, b) in plaintexts.iter().zip(&back) {
            prop_assert_eq!(m, &kp.secret.decrypt(&kp.public, b));
        }
    }

    #[test]
    fn wire_surrogate_units_round_trip_even_past_their_nominal_width(
        values in prop::collection::vec(any::<u64>(), 1..10),
        doublings in 0u32..200,
    ) {
        // Surrogate units outgrow their nominal payload under EESum
        // doublings; the fixed-width encoding must widen and stay lossless.
        use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend, PlaintextSurrogate};
        use chiaroscuro_crypto::wire::{deserialize_units, serialize_units};
        let setup = BackendSetup {
            key_bits: 128,
            damgard_jurik_s: 1,
            population: 4,
            key_share_threshold: 2,
            packed_layout: None,
        };
        let backend = PlaintextSurrogate::setup(&setup, &mut StdRng::seed_from_u64(1));
        let units: Vec<BigUint> =
            values.iter().map(|&v| BigUint::from(v) << doublings).collect();
        let back = deserialize_units(&backend, &serialize_units(&backend, &units)).unwrap();
        prop_assert_eq!(back, units);
    }

    #[test]
    fn wire_surrogate_public_material_round_trips(seed in any::<u64>()) {
        use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend, PlaintextSurrogate};
        let setup = BackendSetup {
            key_bits: 128,
            damgard_jurik_s: 1,
            population: 6,
            key_share_threshold: 2,
            packed_layout: None,
        };
        let backend = PlaintextSurrogate::setup(&setup, &mut StdRng::seed_from_u64(seed));
        let back = PlaintextSurrogate::import_public(&backend.export_public()).unwrap();
        prop_assert_eq!(back.unit_bytes(), backend.unit_bytes());
        prop_assert!(PlaintextSurrogate::import_public(&[1, 2, 3]).is_none());
    }

    #[test]
    fn packing_rejects_overflowing_budgets_at_validation(
        doubling_budget in 150u32..4_000,
    ) {
        // A budget whose single lane cannot fit the 160-bit key's plaintext
        // space must be rejected by plan(), never silently truncated.
        let kp = keypair();
        let enc = FixedPointEncoder::new(3);
        let budget = LaneBudget {
            contributors: 1_000,
            doubling_budget,
            max_abs_value: 1.0e6,
            biased_vectors: 2,
        };
        let result = PackedEncoder::plan(kp.public.packing_capacity_bits(), &enc, &budget);
        prop_assert!(matches!(result, Err(PackingError::LaneOverflow { .. })));
    }
}
