//! Differential battery: Montgomery arithmetic vs the schoolbook
//! baseline.
//!
//! The crypto substrate trusts `BigUint::modpow` blindly — every
//! Damgård–Jurik ciphertext, threshold share and Miller–Rabin witness goes
//! through it — so the Montgomery fast path must be **value-identical** to
//! the schoolbook ladder on every input, not merely "correct".  These
//! proptests pin that equivalence over random odd moduli from 1 to 4096
//! bits, plus the edge cases the dispatch has to get right: base ≥
//! modulus, zero/one exponents, exponent bit lengths straddling limb
//! boundaries, and modulus = 1.  The fixed-base comb is pinned to both
//! (`fixed_base_pow` ≡ `MontgomeryCtx::modpow` ≡ `modpow_schoolbook`), and
//! the in-place kernels a resident value lives on — `mont_mul_assign`,
//! `mont_sqr_n_assign`, the comb's Montgomery exit and the resident byte
//! codec — to the allocating ones and to the schoolbook.  One deterministic
//! test drives every carry chain to saturation at limb counts from 1 to 64.

use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::{BigUint, RandBigInt};
use num_traits::{One, Zero};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic odd modulus of exactly `bits` bits derived from `seed`.
fn odd_modulus(seed: u64, bits: u64) -> BigUint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = rng.gen_biguint(bits);
    if bits > 0 {
        m.set_bit(bits - 1, true);
    }
    m.set_bit(0, true);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `mont_mul` == plain `a·b mod n` over random odd moduli (1–4096 bits).
    #[test]
    fn mont_mul_matches_plain_product(seed in 0u64..1u64 << 40, bits in 1u64..4097) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        // Oversized operands too: to_mont must reduce first.
        let a_extra = rng.gen_range(0..65u64);
        let b_extra = rng.gen_range(0..65u64);
        let a = rng.gen_biguint(bits + a_extra);
        let b = rng.gen_biguint(bits + b_extra);
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        prop_assert_eq!(got, &a * &b % &m);
        let sq = ctx.from_mont(&ctx.mont_sqr(&ctx.to_mont(&a)));
        prop_assert_eq!(sq, &a * &a % &m);
    }

    /// The in-place product and `count`-fold squaring on one reused scratch
    /// == `mont_mul` / repeated `mont_sqr` == the schoolbook, and a value
    /// kept resident across a chain of them reads out canonically right.
    #[test]
    fn in_place_kernels_match_allocating_kernels_and_schoolbook(
        seed in 0u64..1u64 << 40,
        bits in 1u64..4097,
        count in 0u32..65,
    ) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E);
        let (a, b) = (rng.gen_biguint(bits + 3), rng.gen_biguint(bits + 3));
        let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
        // A fresh scratch is sized by its first call and then reused.
        let mut scratch = Vec::new();

        let mut product = am.clone();
        ctx.mont_mul_assign(&mut product, &bm, &mut scratch);
        prop_assert_eq!(&product, &ctx.mont_mul(&am, &bm));
        prop_assert_eq!(ctx.from_mont(&product), &a * &b % &m);
        let mut square = am.clone();
        ctx.mont_mul_assign(&mut square, &am, &mut scratch);
        prop_assert_eq!(&square, &ctx.mont_sqr(&am), "a value times a copy of itself");

        let mut power = am.clone();
        ctx.mont_sqr_n_assign(&mut power, count, &mut scratch);
        let by_steps = (0..count).fold(am.clone(), |x, _| ctx.mont_sqr(&x));
        prop_assert_eq!(&power, &by_steps);
        prop_assert_eq!(ctx.from_mont(&power), a.modpow_schoolbook(&(BigUint::one() << count), &m));

        // The exchange's shape: scale, then add, on the same scratch.
        ctx.mont_mul_assign(&mut power, &product, &mut scratch);
        let expected = a.modpow_schoolbook(&(BigUint::one() << count), &m) * (&a * &b % &m) % &m;
        prop_assert_eq!(ctx.from_mont(&power), expected);
    }

    /// The resident byte codec: exactly as wide as the modulus, an identity
    /// on the residue as it stands (no reduction either way), indifferent
    /// to zero padding, and closed to anything at or above the modulus.
    #[test]
    fn resident_bytes_round_trip_and_refuse_out_of_range(
        seed in 0u64..1u64 << 40,
        bits in 1u64..4097,
        padding in 0usize..20,
    ) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB17E);
        let width = bits.div_ceil(8) as usize;
        for x in [BigUint::zero(), BigUint::one(), &m - BigUint::one(), rng.gen_biguint(bits + 3)] {
            let resident = ctx.to_mont(&x);
            let bytes = ctx.mont_to_bytes_be(&resident);
            prop_assert_eq!(bytes.len(), width);
            let padded = [vec![0u8; padding], bytes.clone()].concat();
            prop_assert_eq!(ctx.mont_from_bytes_be(&bytes), Some(resident.clone()));
            prop_assert_eq!(ctx.mont_from_bytes_be(&padded), Some(resident.clone()));
            // The bytes are the residue itself, not its canonical value.
            prop_assert_eq!(BigUint::from_bytes_be(&bytes), &x % &m * (BigUint::one() << (64 * bits.div_ceil(64))) % &m);
            prop_assert_eq!(resident.is_zero(), (&x % &m).is_zero());
        }
        // Every value below the modulus is some residue's resident form.
        let below = rng.gen_biguint_below(&m);
        let read = ctx.mont_from_bytes_be(&below.to_bytes_be()).expect("below the modulus");
        prop_assert_eq!(BigUint::from_bytes_be(&ctx.mont_to_bytes_be(&read)), below);
        prop_assert!(ctx.mont_from_bytes_be(&[]).is_some_and(|zero| zero.is_zero()));
        // The modulus, anything above it, and a set bit beyond the limbs.
        let extra = BigUint::from(rng.gen_range(1u64..1 << 20));
        for bad in [m.clone(), &m + &extra, &m << 64u32, (&m - BigUint::one()) + (BigUint::one() << (64 * bits.div_ceil(64) + 8 * padding as u64))] {
            prop_assert_eq!(ctx.mont_from_bytes_be(&bad.to_bytes_be()), None, "{} bits", bad.bits());
        }
    }

    /// Windowed Montgomery modpow == schoolbook modpow, random everything.
    #[test]
    fn modpow_ctx_matches_schoolbook(seed in 0u64..1u64 << 40, bits in 1u64..4097) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let base_bits = rng.gen_range(0..bits + 65);
        let base = rng.gen_biguint(base_bits);
        // Exponents up to ~2x the modulus size, like the threshold
        // decryption exponents 2Δ·s_i.
        let exp_bits = rng.gen_range(0..2 * bits + 3);
        let exp = rng.gen_biguint(exp_bits);
        prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_schoolbook(&exp, &m));
    }

    /// The public `BigUint::modpow` dispatcher agrees with the schoolbook
    /// baseline for odd AND even moduli.
    #[test]
    fn public_modpow_dispatch_matches_schoolbook(seed in 0u64..1u64 << 40, bits in 1u64..513) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = rng.gen_biguint(bits);
        m.set_bit(bits.saturating_sub(1), true); // non-zero, exact bit length
        let base_bits = rng.gen_range(0..bits + 65);
        let base = rng.gen_biguint(base_bits);
        let exp_bits = rng.gen_range(0..bits + 65);
        let exp = rng.gen_biguint(exp_bits);
        prop_assert_eq!(base.modpow(&exp, &m), base.modpow_schoolbook(&exp, &m));
    }

    /// Base ≥ modulus, including multiples of the modulus (whose residue
    /// is zero) and modulus ± small offsets.
    #[test]
    fn modpow_oversized_bases(seed in 0u64..1u64 << 40, bits in 2u64..1025) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let k = BigUint::from(rng.gen_range(1u64..9));
        let exp_bits = rng.gen_range(0..200u64);
        let exp = rng.gen_biguint(exp_bits);
        for base in [&m * &k, &m + BigUint::one(), &m - BigUint::one(), &m * &m] {
            prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_schoolbook(&exp, &m));
        }
    }

    /// Exponent bit lengths at and around every limb boundary up to 4
    /// limbs, plus the window-width switchover points.
    #[test]
    fn modpow_exponent_limb_boundaries(seed in 0u64..1u64 << 40) {
        let m = odd_modulus(seed, 384);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let base = rng.gen_biguint(380);
        for bits in [1u64, 2, 15, 16, 17, 47, 48, 63, 64, 65, 127, 128, 129, 143, 144, 191, 192, 193, 255, 256, 257] {
            let mut exp = rng.gen_biguint(bits);
            exp.set_bit(bits - 1, true); // exact bit length
            prop_assert_eq!(
                ctx.modpow(&base, &exp),
                base.modpow_schoolbook(&exp, &m),
                "exponent bits = {}", bits
            );
        }
    }

    /// Lim–Lee comb == windowed Montgomery modpow == schoolbook modpow for
    /// every in-bound exponent, over random odd moduli (1–4096 bits),
    /// random tooth counts and table widths from 0 bits (below any tooth
    /// count) up; an exponent one bit past the bound is refused.
    #[test]
    fn fixed_base_comb_matches_modpow_and_schoolbook(
        seed in 0u64..1u64 << 40,
        bits in 1u64..4097,
        teeth in 1u32..9,
    ) {
        let m = odd_modulus(seed, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0B);
        let base_bits = rng.gen_range(0..bits + 65);
        let base = rng.gen_biguint(base_bits);
        let asked = rng.gen_range(0..bits.min(384) + 3);
        let table = ctx.fixed_base_table(&base, asked, teeth);
        let bound = table.exponent_bits();
        prop_assert!(asked <= bound && bound < asked + u64::from(teeth));
        let all_ones = (BigUint::one() << bound) - BigUint::one();
        let narrow = rng.gen_range(0..bound + 1);
        for exp in [
            BigUint::zero(),
            BigUint::one(),
            all_ones.clone(),
            &all_ones >> 1,
            rng.gen_biguint(bound),
            rng.gen_biguint(narrow),
        ] {
            if exp.bits() > bound {
                continue; // `one` against a 0-bit table
            }
            let got = ctx.fixed_base_pow(&table, &exp);
            prop_assert_eq!(got.as_ref(), Some(&ctx.modpow(&base, &exp)), "exponent bits = {}", exp.bits());
            // The Montgomery exit is the same power, not yet reduced out.
            let resident = got.as_ref().map(|power| ctx.to_mont(power));
            prop_assert_eq!(ctx.fixed_base_pow_mont(&table, &exp), resident);
            prop_assert_eq!(got, Some(base.modpow_schoolbook(&exp, &m)));
        }
        let too_wide = all_ones + BigUint::one();
        prop_assert_eq!(ctx.fixed_base_pow(&table, &too_wide), None);
        prop_assert_eq!(ctx.fixed_base_pow_mont(&table, &too_wide), None);
    }
}

/// Carry-saturating inputs, every case every run: random moduli almost
/// never drive a `u128` carry chain or a column sum to its limit, these
/// do.  Moduli `2^{64L} − 1` (every limb all ones) and `2^{64L−1} + 1`
/// at limb counts around the word sizes the kernels run at, against the
/// extreme operands `0, 1, n − 1, n − 2, R mod n, ⌊n/2⌋`.
#[test]
fn carry_saturating_moduli_and_operands_match_the_schoolbook() {
    let one = BigUint::one();
    for limbs in [1u64, 2, 3, 4, 8, 15, 16, 17, 31, 32, 33, 64] {
        let r = &one << (64 * limbs);
        for n in [&r - &one, (&one << (64 * limbs - 1)) + &one] {
            let ctx = MontgomeryCtx::new(&n).expect("odd modulus");
            let operands = [BigUint::zero(), one.clone(), &n - &one, &n - 2u32, &r % &n, &n >> 1];
            let mut scratch = Vec::new();
            for a in &operands {
                let am = ctx.to_mont(a);
                assert_eq!(&ctx.from_mont(&am), a, "round trip, {limbs} limbs");
                let square = ctx.mont_sqr(&am);
                assert_eq!(square, ctx.mont_mul(&am, &am), "square vs product, {limbs} limbs");
                assert_eq!(ctx.from_mont(&square), a * a % &n);
                let mut power = am.clone();
                ctx.mont_sqr_n_assign(&mut power, 3, &mut scratch);
                assert_eq!(ctx.from_mont(&power), a.modpow_schoolbook(&BigUint::from(8u32), &n));
                for b in &operands {
                    let bm = ctx.to_mont(b);
                    let product = ctx.mont_mul(&am, &bm);
                    assert_eq!(ctx.from_mont(&product), a * b % &n, "product, {limbs} limbs");
                    let mut in_place = am.clone();
                    ctx.mont_mul_assign(&mut in_place, &bm, &mut scratch);
                    assert_eq!(in_place, product);
                }
                let table = ctx.fixed_base_table(a, 130, 4);
                let all_ones = (&one << table.exponent_bits()) - &one;
                assert_eq!(ctx.fixed_base_pow(&table, &all_ones), Some(a.modpow_schoolbook(&all_ones, &n)));
            }
        }
    }
}

#[test]
fn modpow_zero_and_one_exponents() {
    for bits in [1u64, 2, 64, 65, 1024] {
        let m = odd_modulus(bits, bits);
        let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
        let mut rng = StdRng::seed_from_u64(bits);
        let base = rng.gen_biguint(bits + 3);
        let zero = BigUint::zero();
        let one = BigUint::one();
        // x^0 = 1 mod n (or 0 when n = 1), including 0^0 = 1.
        assert_eq!(ctx.modpow(&base, &zero), base.modpow_schoolbook(&zero, &m));
        assert_eq!(ctx.modpow(&zero, &zero), zero.modpow_schoolbook(&zero, &m));
        // x^1 = x mod n.
        assert_eq!(ctx.modpow(&base, &one), base.modpow_schoolbook(&one, &m));
        assert_eq!(ctx.modpow(&zero, &one), zero.modpow_schoolbook(&one, &m));
    }
}

#[test]
fn modpow_modulus_one_is_zero() {
    let one = BigUint::one();
    let ctx = MontgomeryCtx::new(&one).expect("1 is odd");
    for (b, e) in [(0u64, 0u64), (0, 5), (7, 0), (12345, 678)] {
        let base = BigUint::from(b);
        let exp = BigUint::from(e);
        assert_eq!(ctx.modpow(&base, &exp), BigUint::zero());
        assert_eq!(ctx.modpow(&base, &exp), base.modpow_schoolbook(&exp, &one));
        assert_eq!(base.modpow(&exp, &one), BigUint::zero());
    }
}

/// The comb's edge widths, exhaustively where the bound is small: tables
/// narrower than their tooth count (some teeth never fire), a single
/// tooth (plain square-and-multiply), and widths straddling a limb.
#[test]
fn fixed_base_comb_edge_widths() {
    let m = odd_modulus(17, 200);
    let ctx = MontgomeryCtx::new(&m).expect("odd modulus");
    let base = StdRng::seed_from_u64(18).gen_biguint(230);
    for teeth in [1u32, 2, 6, 8] {
        for asked in [0u64, 1, 2, 5, 7, 63, 64, 65, 130] {
            let table = ctx.fixed_base_table(&base, asked, teeth);
            let bound = table.exponent_bits();
            let exponents: Vec<BigUint> = if bound <= 8 {
                (0..1u32 << bound).map(BigUint::from).collect()
            } else {
                let top = BigUint::one() << (bound - 1);
                vec![BigUint::zero(), BigUint::one(), top.clone(), (&top << 1) - BigUint::one(), top + BigUint::one()]
            };
            for exp in exponents {
                assert_eq!(
                    ctx.fixed_base_pow(&table, &exp),
                    Some(base.modpow_schoolbook(&exp, &m)),
                    "teeth = {teeth}, asked = {asked}, exp = {exp}"
                );
            }
            assert_eq!(ctx.fixed_base_pow(&table, &(BigUint::one() << bound)), None);
        }
    }
    // Modulus 1: every power is 0, the refusal still applies.
    let one = BigUint::one();
    let ctx = MontgomeryCtx::new(&one).expect("1 is odd");
    let table = ctx.fixed_base_table(&base, 12, 6);
    assert_eq!(ctx.fixed_base_pow(&table, &BigUint::zero()), Some(BigUint::zero()));
    assert_eq!(ctx.fixed_base_pow(&table, &BigUint::from(77u32)), Some(BigUint::zero()));
    assert_eq!(ctx.fixed_base_pow(&table, &(BigUint::one() << 12)), None);
}
