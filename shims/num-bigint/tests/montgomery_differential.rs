//! Differential battery: Montgomery/REDC arithmetic vs the schoolbook
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
//! (`fixed_base_pow` ≡ `MontgomeryCtx::modpow` ≡ `modpow_schoolbook`).

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
            prop_assert_eq!(got, Some(base.modpow_schoolbook(&exp, &m)));
        }
        prop_assert_eq!(ctx.fixed_base_pow(&table, &(all_ones + BigUint::one())), None);
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
