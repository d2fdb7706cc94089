//! CRT-split modular exponentiation over the ciphertext space `Z_{n^{s+1}}`.
//!
//! Knowing the factorisation `n = p·q` turns one exponentiation modulo
//! `n^{s+1}` into two half-width ones: compute `x_p = b^e mod p^{s+1}` and
//! `x_q = b^e mod q^{s+1}`, then recombine with Garner's formula.  Each half
//! additionally reduces the *exponent* modulo the group order
//! `|Z*_{p^{s+1}}| = p^s·(p−1)` whenever the base is a unit, so the
//! multi-thousand-bit threshold exponents `2Δ·sᵢ` shrink to roughly the size
//! of one prime power.  Together with the Montgomery kernels underneath
//! (one [`MontgomeryCtx`] per prime power, reused for every call) this is
//! where the Damgård–Jurik fast path earns most of its speedup.
//!
//! # Where the factorisation is allowed to live
//!
//! A [`CrtContext`] *is* the secret key in spread-out form — `p` and `q` are
//! right there in the struct.  Key generation builds the one context of a
//! key pair (it computes the public mask base `h_s` with it), the
//! [`SecretKey`](crate::keys::SecretKey) keeps it, and
//! [`SecretKey::crt_context`](crate::keys::SecretKey::crt_context) hands
//! copies to parties that legitimately know the factorisation: the
//! simulation-side [`DamgardJurik`](crate::backend::DamgardJurik) backend
//! (which plays *every* role, including the dealer's) and tests/benches.
//! Exported public material
//! ([`CipherBackend::export_public`](crate::backend::CipherBackend::export_public)),
//! node actors and the wire format never see it; a deployed share-holder
//! partially decrypts at the public-key-only speed.  Encryption takes no
//! context at all: its mask is a fixed-base power of public key material,
//! as fast for a device as for the dealer.
//!
//! # Determinism contract
//!
//! Every method returns the canonical residue in `[0, n^{s+1})` — the exact
//! value the non-CRT path produces — and consumes no randomness, so routing
//! an operation through a [`CrtContext`] can never move a pinned-seed
//! baseline.  The equivalence is pinned by `tests/crt_equivalence.rs` across
//! the scenario grid of `(s, key_bits, threshold)` plus random-plaintext
//! proptests.

use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::BigUint;
use num_traits::{One, Zero};

use crate::arith::mod_inverse;

/// Precomputed CRT state for fast exponentiation modulo `n^{s+1}`.
///
/// Immutable after construction and freely shared across threads (the
/// backend wraps it in an `Arc`); one context serves every partial
/// decryption and share combination of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtContext {
    /// The prime factor `p` (for the unit test `gcd(b, p) = 1`).
    p: BigUint,
    /// The prime factor `q`.
    q: BigUint,
    /// The Damgård–Jurik exponent `s`.
    s: u32,
    /// `p^{s+1}`.
    p_s1: BigUint,
    /// `q^{s+1}`.
    q_s1: BigUint,
    /// `|Z*_{p^{s+1}}| = p^s·(p−1)` — the exponent reduction modulus.
    ord_p: BigUint,
    /// `|Z*_{q^{s+1}}| = q^s·(q−1)`.
    ord_q: BigUint,
    /// Garner coefficient `(q^{s+1})⁻¹ mod p^{s+1}`.
    q_s1_inv: BigUint,
    /// Montgomery state for the `mod p^{s+1}` half.
    p_ctx: MontgomeryCtx,
    /// Montgomery state for the `mod q^{s+1}` half.
    q_ctx: MontgomeryCtx,
    /// The recombined modulus `n^{s+1}`.
    n_s1: BigUint,
}

impl CrtContext {
    /// Builds a context from the secret factorisation and the Damgård–Jurik
    /// exponent `s`.  Returns `None` when the factors cannot support the
    /// split (equal, even, zero or one) — callers fall back to the direct
    /// path.
    pub fn new(p: &BigUint, q: &BigUint, s: u32) -> Option<Self> {
        if p.is_zero() || q.is_zero() || p.is_one() || q.is_one() || p == q {
            return None;
        }
        let one = BigUint::one();
        let p_s1 = p.pow(s + 1);
        let q_s1 = q.pow(s + 1);
        // Even "primes" have no Montgomery context; bail out to the caller.
        let p_ctx = MontgomeryCtx::new(&p_s1)?;
        let q_ctx = MontgomeryCtx::new(&q_s1)?;
        let ord_p = p.pow(s) * (p - &one);
        let ord_q = q.pow(s) * (q - &one);
        let q_s1_inv = mod_inverse(&(&q_s1 % &p_s1), &p_s1)?;
        let n_s1 = &p_s1 * &q_s1;
        Some(Self { p: p.clone(), q: q.clone(), s, p_s1, q_s1, ord_p, ord_q, q_s1_inv, p_ctx, q_ctx, n_s1 })
    }

    /// The ciphertext modulus `n^{s+1}` this context exponentiates under.
    pub fn ciphertext_modulus(&self) -> &BigUint {
        &self.n_s1
    }

    /// `base^exponent mod n^{s+1}`, bit-identical to
    /// `base.modpow(exponent, n^{s+1})` for every input.
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let xp = half_pow(base, exponent, &self.p, &self.p_s1, &self.ord_p, &self.p_ctx);
        let xq = half_pow(base, exponent, &self.q, &self.q_s1, &self.ord_q, &self.q_ctx);
        self.recombine(&xp, &xq)
    }

    /// `base^{n^s} mod n^{s+1}` — the shape of the public mask base `h_s` —
    /// bit-identical to `self.modpow(base, n^s)` at about five eighths of
    /// its cost.  `y^{p^s} mod p^{s+1}` depends only on `y mod p`, so the
    /// `q^s` part of the exponent runs modulo the bare prime (half the
    /// width, and reduced by `p − 1`) and only the `p^s` part — half the
    /// exponent — runs modulo `p^{s+1}`.
    pub fn pow_n_s(&self, base: &BigUint) -> BigUint {
        let half = |p: &BigUint, q: &BigUint, ctx: &MontgomeryCtx| {
            // p − 1 is even and q^s odd, so the reduced exponent is never 0
            // and a base divisible by p stays 0, as it must.
            let residue = (base % p).modpow(&(q.pow(self.s) % (p - BigUint::one())), p);
            ctx.modpow(&residue, &p.pow(self.s))
        };
        self.recombine(&half(&self.p, &self.q, &self.p_ctx), &half(&self.q, &self.p, &self.q_ctx))
    }

    /// Garner recombination: the unique `x < n^{s+1}` with
    /// `x ≡ xp (mod p^{s+1})` and `x ≡ xq (mod q^{s+1})`.
    fn recombine(&self, xp: &BigUint, xq: &BigUint) -> BigUint {
        let xq_mod_p = xq % &self.p_s1;
        let diff =
            if *xp >= xq_mod_p { xp - &xq_mod_p } else { &self.p_s1 - (&xq_mod_p - xp) };
        let h = diff * &self.q_s1_inv % &self.p_s1;
        xq + h * &self.q_s1
    }
}

/// One CRT half: `(base mod p^{s+1})^exponent mod p^{s+1}`, reducing the
/// exponent by the group order when the base is a unit.
///
/// The guards keep the Lagrange-order shortcut exact on *every* input, not
/// just well-formed ciphertexts: a zero residue stays zero (or one for a
/// zero exponent), and a residue divisible by `p` but not by `p^{s+1}` is a
/// non-unit whose powers the order reduction does not describe — it keeps
/// the full-length exponent (still correct, never hit by honest traffic).
fn half_pow(
    base: &BigUint,
    exponent: &BigUint,
    prime: &BigUint,
    prime_s1: &BigUint,
    order: &BigUint,
    ctx: &MontgomeryCtx,
) -> BigUint {
    if exponent.is_zero() {
        return BigUint::one() % prime_s1;
    }
    let b = base % prime_s1;
    if b.is_zero() {
        return BigUint::zero();
    }
    if (&b % prime).is_zero() {
        return ctx.modpow(&b, exponent);
    }
    let e = exponent % order;
    ctx.modpow(&b, &e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_context(s: u32) -> (CrtContext, BigUint) {
        let p = BigUint::from(1_000_003u64);
        let q = BigUint::from(999_983u64);
        let ctx = CrtContext::new(&p, &q, s).expect("distinct odd primes");
        let n_s1 = (&p * &q).pow(s + 1);
        (ctx, n_s1)
    }

    #[test]
    fn rejects_degenerate_factorisations() {
        let p = BigUint::from(13u32);
        assert!(CrtContext::new(&p, &p, 1).is_none(), "equal factors");
        assert!(CrtContext::new(&p, &BigUint::zero(), 1).is_none());
        assert!(CrtContext::new(&p, &BigUint::one(), 1).is_none());
        assert!(CrtContext::new(&p, &BigUint::from(8u32), 1).is_none(), "even factor");
    }

    #[test]
    fn modpow_matches_direct_for_random_inputs() {
        for s in 1..=2u32 {
            let (ctx, n_s1) = small_context(s);
            assert_eq!(ctx.ciphertext_modulus(), &n_s1);
            let mut rng = StdRng::seed_from_u64(7 + u64::from(s));
            for _ in 0..25 {
                let b = rng.gen_biguint_below(&n_s1);
                let e = rng.gen_biguint(3 * n_s1.bits());
                assert_eq!(ctx.modpow(&b, &e), b.modpow(&e, &n_s1), "s = {s}");
            }
        }
    }

    #[test]
    fn modpow_handles_non_unit_bases() {
        let (ctx, n_s1) = small_context(1);
        let p = BigUint::from(1_000_003u64);
        let q = BigUint::from(999_983u64);
        // Multiples of p, q, p², n and n² — all non-units of Z_{n^{s+1}}.
        for b in [
            p.clone(),
            q.clone(),
            &p * &p,
            &p * &q,
            &p * &q * &p * &q,
            &p * BigUint::from(12_345u32),
            BigUint::zero(),
        ] {
            for e in [0u32, 1, 2, 3, 1000] {
                let e = BigUint::from(e);
                assert_eq!(ctx.modpow(&b, &e), b.modpow(&e, &n_s1), "b = {b}, e = {e}");
            }
        }
    }

    #[test]
    fn pow_n_s_matches_modpow_by_the_plaintext_modulus() {
        let p = BigUint::from(1_000_003u64);
        let q = BigUint::from(999_983u64);
        for s in 1..=3u32 {
            let (ctx, n_s1) = small_context(s);
            let n_s = (&p * &q).pow(s);
            let mut rng = StdRng::seed_from_u64(17 + u64::from(s));
            let mut bases: Vec<BigUint> = (0..20).map(|_| rng.gen_biguint(2 * n_s1.bits())).collect();
            // Non-units and the trivial bases too.
            bases.extend([BigUint::zero(), BigUint::one(), p.clone(), &q * &q, &p * &q, &n_s1 - BigUint::one()]);
            for b in bases {
                assert_eq!(ctx.pow_n_s(&b), b.modpow_schoolbook(&n_s, &n_s1), "s = {s}, b = {b}");
            }
        }
    }

    #[test]
    fn modpow_handles_oversized_bases_and_zero_exponent() {
        let (ctx, n_s1) = small_context(2);
        let mut rng = StdRng::seed_from_u64(11);
        let big = rng.gen_biguint(2 * n_s1.bits() + 7);
        let e = rng.gen_biguint(64);
        assert_eq!(ctx.modpow(&big, &e), big.modpow(&e, &n_s1));
        assert_eq!(ctx.modpow(&big, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.modpow(&BigUint::zero(), &BigUint::zero()), BigUint::one());
    }

    #[test]
    fn exponent_order_reduction_is_exact_at_the_wraparound() {
        // e ≡ 0 (mod ord) with e ≠ 0 must give exactly 1 for units.
        let (ctx, n_s1) = small_context(1);
        let p = BigUint::from(1_000_003u64);
        let q = BigUint::from(999_983u64);
        let one = BigUint::one();
        let lambda_like = (&p - &one) * (&q - &one) * &p * &q; // multiple of both orders
        for b in [BigUint::from(2u32), BigUint::from(7u32)] {
            assert_eq!(ctx.modpow(&b, &lambda_like), b.modpow(&lambda_like, &n_s1));
            assert_eq!(ctx.modpow(&b, &lambda_like), one.clone());
        }
    }
}
