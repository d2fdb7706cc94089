//! Montgomery-form modular arithmetic for odd moduli.
//!
//! The Damgård–Jurik hot path is modular exponentiation over the fixed odd
//! modulus `n^{s+1}`: thousands of modular multiplications per ciphertext,
//! each of which the schoolbook path pays for with a full Knuth-D division.
//! Montgomery reduction folds that division into the multiplication itself,
//! ending in one conditional subtraction, and a precomputed context
//! ([`MontgomeryCtx`]) amortises the per-modulus setup (`n' = -n⁻¹ mod 2⁶⁴`
//! and `R² mod n` with `R = 2^{64·L}`) across every operation on the same
//! modulus.
//!
//! There are two kernels, after Koç, Acar and Kaliski ("Analyzing and
//! Comparing Montgomery Multiplication Algorithms", IEEE Micro 1996): a
//! product that multiplies and reduces in one pass per limb, and a square
//! that scans its product by column, summing each off-diagonal term once
//! and the reduction terms alongside.  Conversion out of Montgomery form is
//! the product against 1.
//!
//! # Values that stay in Montgomery form
//!
//! A caller whose values only ever multiply against each other under one
//! modulus — a Damgård–Jurik ciphertext between encryption and decryption
//! — need not leave Montgomery form at all.  For it the two kernels are
//! public **in place, on caller-owned scratch**
//! ([`MontgomeryCtx::mont_mul_assign`], [`MontgomeryCtx::mont_sqr_n_assign`]):
//! no allocation, no reduction in or out.  The comb has a Montgomery exit
//! ([`MontgomeryCtx::fixed_base_pow_mont`]) and a [`MontInt`] has a
//! fixed-width byte codec that ships it as it stands
//! ([`MontgomeryCtx::mont_to_bytes_be`] / [`MontgomeryCtx::mont_from_bytes_be`],
//! which refuses anything at or above the modulus: the kernels assume
//! reduced inputs).
//!
//! # Determinism contract
//!
//! Every function here is **value-identical** to the schoolbook path: for
//! any inputs, `ctx.modpow(b, e) == b.modpow_schoolbook(e, n)`.  The layer
//! changes *where time is spent*, never a single output bit, and consumes
//! no randomness — which is what lets [`crate::BigUint::modpow`] dispatch
//! here transparently without moving any pinned seed baseline.  The
//! differential test battery (`tests/montgomery_differential.rs` plus the
//! in-module tests) pins the equivalence over random odd moduli from 1 to
//! 4096 bits and every edge case the crypto substrate exercises.

use num_traits::{One, Zero};

use crate::biguint::BigUint;

/// A value in Montgomery form: `x·R mod n` as exactly `L` little-endian
/// limbs (where `L` is the modulus limb count of the owning context).
///
/// Montgomery integers are only meaningful relative to the
/// [`MontgomeryCtx`] that produced them; mixing contexts is a logic error
/// (debug-asserted via the limb length).
#[derive(Debug, PartialEq, Eq)]
pub struct MontInt {
    limbs: Vec<u64>,
}

impl Clone for MontInt {
    fn clone(&self) -> Self {
        Self { limbs: self.limbs.clone() }
    }

    /// Copies into the buffer `self` already owns (every value of one
    /// context is `L` limbs, so this never allocates).
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clone_from(&source.limbs);
    }
}

impl MontInt {
    /// Whether the residue is 0 (the one value whose Montgomery form is
    /// itself: the map `x ↦ x·R mod n` is a bijection fixing 0).
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&limb| limb == 0)
    }
}

/// Precomputed per-modulus state for Montgomery multiplication and
/// windowed modular exponentiation.
///
/// Construction is a single division (`R² mod n`) plus a word inverse; a
/// context is immutable afterwards and freely shared across threads, so
/// one context serves all exponentiations against the same modulus (the
/// Damgård–Jurik public key caches one per `n^{s+1}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryCtx {
    /// The (odd) modulus as a `BigUint`.
    modulus: BigUint,
    /// The modulus limbs, length `L ≥ 1`, top limb non-zero.
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴` (the reduction's word inverse `n'`).
    n0_inv: u64,
    /// `R² mod n`, padded to `L` limbs (`R = 2^{64·L}`).
    r2: Vec<u64>,
    /// `R mod n`, padded to `L` limbs — the Montgomery form of 1.
    one: Vec<u64>,
}

/// A Lim–Lee comb table (CRYPTO '94) for powers of one fixed base: the
/// exponent is cut into `teeth` blocks of `spacing` bits, and entry `j`
/// holds `∏ base^{2^{i·spacing}}` over the set bits `i` of `j`, so one
/// table product consumes one bit of every block at once.  An in-bound
/// exponentiation then costs `spacing − 1` squarings and at most `spacing`
/// products, whatever the base — against one squaring per exponent bit for
/// [`MontgomeryCtx::modpow`].
///
/// Built by [`MontgomeryCtx::fixed_base_table`] and only meaningful to the
/// context that built it (like [`MontInt`], debug-asserted via the limb
/// length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBaseTable {
    teeth: u32,
    spacing: u64,
    /// Entries `1..2^teeth` in Montgomery form, `L` limbs each, entry `j`
    /// at `(j − 1)·L` (entry 0, the identity, is never multiplied in).
    limbs: Vec<u64>,
}

impl FixedBaseTable {
    /// The widest exponent the table serves, in bits: the width asked for
    /// at construction rounded up to a multiple of the tooth count.
    pub fn exponent_bits(&self) -> u64 {
        self.spacing * u64::from(self.teeth)
    }

    /// The table's heap footprint in bytes: `(2^teeth − 1)·L` limbs.
    pub fn heap_bytes(&self) -> usize {
        self.limbs.len() * std::mem::size_of::<u64>()
    }
}

/// `-a⁻¹ mod 2⁶⁴` for odd `a`, by Newton–Hensel lifting (5 doublings of
/// precision from the 4-bit seed `a⁻¹ ≡ a mod 16`).
fn neg_inv_u64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "word inverse requires an odd modulus");
    let mut inv = a; // correct to 4 bits for odd a
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    debug_assert_eq!(a.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Compares two equal-length limb slices (not necessarily normalized).
fn cmp_fixed(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x.cmp(y);
        }
    }
    std::cmp::Ordering::Equal
}

/// `out = a - b` over equal-length slices; requires `a >= b` unless the
/// caller absorbs the returned borrow (the final subtraction of a kernel
/// does, via the guaranteed high limb).
fn sub_fixed(a: &[u64], b: &[u64], out: &mut [u64]) -> u64 {
    let mut borrow = false;
    for ((limb, &x), &y) in out.iter_mut().zip(a).zip(b) {
        (*limb, borrow) = x.borrowing_sub(y, borrow);
    }
    u64::from(borrow)
}

/// One column sum of the product-scanning square: three words, low first
/// (a column of `L`-limb operands sums fewer than `2L` double words).
#[derive(Clone, Copy, Default)]
struct Column([u64; 3]);

impl Column {
    /// Adds a three-word value.
    #[inline(always)]
    fn add(&mut self, [x, y, z]: [u64; 3]) {
        let (low, carry) = self.0[0].overflowing_add(x);
        let (mid, carry) = self.0[1].carrying_add(y, carry);
        self.0 = [low, mid, self.0[2] + z + u64::from(carry)];
    }

    /// Adds `x·y`.
    #[inline(always)]
    fn mac(&mut self, x: u64, y: u64) {
        let p = x as u128 * y as u128;
        self.add([p as u64, (p >> 64) as u64, 0]);
    }

    /// Adds `Σ xᵢ·yᵢ` over the shorter of two limb runs.
    #[inline(always)]
    fn dot(&mut self, x: &[u64], y: &[u64]) {
        for (&x, &y) in x.iter().zip(y) {
            self.mac(x, y);
        }
    }

    /// Adds column `k` of `a²`: every `aᵢ·aⱼ` with `i < j`, `i + j = k`
    /// once and doubled, then `a_{k/2}²`.  `rev` is `a` reversed, so both
    /// runs of the dot product scan forward.
    #[inline(always)]
    fn add_square_terms(&mut self, a: &[u64], rev: &[u64], k: usize) {
        let half = k.div_ceil(2);
        let mut off_diagonal = Self::default();
        off_diagonal.dot(&a[k + 1 - half..], &rev[a.len() - half..]);
        let [x, y, z] = off_diagonal.0;
        self.add([x << 1, y << 1 | x >> 63, z << 1 | y >> 63]);
        if k.is_multiple_of(2) {
            self.mac(a[k / 2], a[k / 2]);
        }
    }

    /// Returns the low word and shifts the sum one word down.
    #[inline(always)]
    fn shift_out(&mut self) -> u64 {
        let [low, mid, high] = self.0;
        self.0 = [mid, high, 0];
        low
    }
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus; returns `None` for even or
    /// zero moduli (the caller falls back to the schoolbook path).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        let n = modulus.to_u64_digits();
        if n.is_empty() || n[0] & 1 == 0 {
            return None;
        }
        let l = n.len();
        let n0_inv = neg_inv_u64(n[0]);
        // R² mod n and R mod n via one exact division each (R = 2^{64l}).
        let mut r2 = (&(BigUint::one() << (128 * l)) % modulus).to_u64_digits();
        r2.resize(l, 0);
        let mut one = (&(BigUint::one() << (64 * l)) % modulus).to_u64_digits();
        one.resize(l, 0);
        Some(Self { modulus: modulus.clone(), n, n0_inv, r2, one })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The modulus size in limbs (`L`).
    fn width(&self) -> usize {
        self.n.len()
    }

    /// `t[..=L] = a·b·R⁻¹ + (0 or n)` over raw `L`-limb slices, `b ≤ n`, by
    /// one fused multiply-reduce pass per limb of `a` (finely integrated
    /// operand scanning): a single inner loop carries `t + aᵢ·b` and
    /// `+ m·n` on two chains and stores each limb already shifted down one
    /// word, so the accumulator is read and written once per round.  `t`
    /// is scratch of at least `L + 1` limbs (clobbered, need not be zeroed
    /// on entry); the caller finishes with [`Self::settle`], into a third
    /// buffer or back into `a` — which nothing reads once the scan is over.
    #[inline]
    fn mul_reduce(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = self.n.as_slice();
        let l = n.len();
        // One up-front check lets the optimizer drop the per-limb bounds
        // checks in the hot loop below.
        assert!(a.len() == l && b.len() == l && t.len() > l);
        let t = &mut t[..=l];
        t.fill(0);
        for &ai in a {
            // Limb 0: m makes t + aᵢ·b + m·n divisible by the word base.
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n0_inv);
            let mut mul_carry = s >> 64;
            let mut red_carry = (s as u64 as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..l {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + mul_carry;
                mul_carry = s >> 64;
                let s = s as u64 as u128 + m as u128 * n[j] as u128 + red_carry;
                red_carry = s >> 64;
                t[j - 1] = s as u64;
            }
            // t stays below 2n < 2^{64L + 1}: the top limb is 0 or 1.
            let s = t[l] as u128 + mul_carry + red_carry;
            t[l - 1] = s as u64;
            t[l] = (s >> 64) as u64;
        }
    }

    /// The one conditional subtraction that ends either kernel: `t` is
    /// `L + 1` limbs holding a value below `2n`, `out` receives it mod `n`.
    #[inline]
    fn settle(&self, t: &[u64], out: &mut [u64]) {
        let n = self.n.as_slice();
        let l = n.len();
        assert!(t.len() == l + 1 && out.len() == l);
        if t[l] != 0 || cmp_fixed(&t[..l], n) != std::cmp::Ordering::Less {
            let borrow = sub_fixed(&t[..l], n, out);
            debug_assert_eq!(borrow, t[l], "a settled value must be below 2n");
        } else {
            out.copy_from_slice(&t[..l]);
        }
    }

    /// `out = a·b·R⁻¹ mod n` ([`Self::mul_reduce`], settled into `out`).
    fn mul_raw(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        self.mul_reduce(a, b, t);
        self.settle(&t[..=self.n.len()], out);
    }

    /// `a = a·b·R⁻¹ mod n` where `a` stands.
    fn mul_assign_raw(&self, a: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.mul_reduce(a, b, t);
        self.settle(&t[..=self.n.len()], a);
    }

    /// `a = a²·R⁻¹ mod n` where `a < n` stands, by one product-scanning
    /// square-reduce on `t`, exactly [`Self::scratch_len`] limbs.  Column
    /// `k` of `a² + M·n` (`M = Σ mᵢ·2^{64i}`) is summed in one [`Column`]:
    /// the square's terms, then the reduction terms `mᵢ·n[k−i]`.  Below
    /// column `L` the sum's low word picks `m_k`, which makes it vanish;
    /// from column `L` on it is result limb `k − L`.  `t` holds `a`
    /// reversed, the `mᵢ` from the top down (so that every dot product
    /// scans forward), and the `L + 1` result limbs settled into `a`.
    fn sqr_assign_raw(&self, a: &mut [u64], t: &mut [u64]) {
        let n = self.n.as_slice();
        let l = n.len();
        assert!(a.len() == l && t.len() == self.scratch_len());
        let (rev, rest) = t.split_at_mut(l);
        let (m, out) = rest.split_at_mut(l);
        rev.copy_from_slice(a);
        rev.reverse();
        let mut column = Column::default();
        for k in 0..l {
            column.add_square_terms(a, rev, k);
            column.dot(&n[1..], &m[l - k..]);
            let mk = column.0[0].wrapping_mul(self.n0_inv);
            m[l - 1 - k] = mk;
            column.mac(mk, n[0]);
            column.shift_out();
        }
        for k in l..2 * l - 1 {
            column.add_square_terms(a, rev, k);
            column.dot(&n[k + 1 - l..], m);
            out[k - l] = column.shift_out();
        }
        // (a² + M·n) / R < 2n: two words remain, the top one 0 or 1.
        out[l - 1] = column.shift_out();
        out[l] = column.shift_out();
        self.settle(out, a);
    }

    /// Scratch limbs either kernel runs on: the square's reversed operand,
    /// its `L` reduction words and its `L + 1` result limbs.
    fn scratch_len(&self) -> usize {
        3 * self.width() + 1
    }

    /// Converts a plain integer (any size — it is reduced modulo `n`
    /// first) into Montgomery form.
    pub fn to_mont(&self, x: &BigUint) -> MontInt {
        let l = self.width();
        let mut limbs = (x % &self.modulus).to_u64_digits();
        limbs.resize(l, 0);
        let mut t = vec![0u64; l + 1];
        let mut out = vec![0u64; l];
        self.mul_raw(&limbs, &self.r2, &mut t, &mut out);
        MontInt { limbs: out }
    }

    /// Converts a Montgomery-form value back to a plain integer `< n`: the
    /// product kernel against 1, `x·1·R⁻¹`.
    pub fn from_mont(&self, x: &MontInt) -> BigUint {
        let l = self.width();
        debug_assert_eq!(x.limbs.len(), l, "MontInt from a different context");
        let mut unit = vec![0u64; l];
        unit[0] = 1;
        let mut t = vec![0u64; l + 1];
        self.mul_assign_raw(&mut unit, &x.limbs, &mut t);
        BigUint::from_limbs(unit)
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub fn one(&self) -> MontInt {
        MontInt { limbs: self.one.clone() }
    }

    /// Montgomery product: `mont(a·b)` for Montgomery-form inputs.
    pub fn mont_mul(&self, a: &MontInt, b: &MontInt) -> MontInt {
        let l = self.width();
        debug_assert!(a.limbs.len() == l && b.limbs.len() == l);
        let mut t = vec![0u64; l + 1];
        let mut out = vec![0u64; l];
        self.mul_raw(&a.limbs, &b.limbs, &mut t, &mut out);
        MontInt { limbs: out }
    }

    /// Montgomery square: `mont(a²)`, using the square kernel (squarings
    /// dominate every modpow, so they get the dedicated path).
    pub fn mont_sqr(&self, a: &MontInt) -> MontInt {
        debug_assert_eq!(a.limbs.len(), self.width());
        let mut out = a.clone();
        self.sqr_assign_raw(&mut out.limbs, &mut vec![0u64; self.scratch_len()]);
        out
    }

    /// `a = mont(a·b)` where `a` stands, on the caller's scratch: no
    /// allocation once `scratch` has served one call of this context (it is
    /// sized here, so `Vec::new()` is a valid first scratch).  One scratch
    /// serves any number of values in turn.  Value-identical to
    /// [`Self::mont_mul`].
    pub fn mont_mul_assign(&self, a: &mut MontInt, b: &MontInt, scratch: &mut Vec<u64>) {
        scratch.resize(self.scratch_len(), 0);
        self.mul_assign_raw(&mut a.limbs, &b.limbs, scratch);
    }

    /// `a = mont(a^{2^count})` where `a` stands: `count` squarings on the
    /// caller's scratch (see [`Self::mont_mul_assign`]), `count = 0` leaving
    /// `a` as it is.  Value-identical to `count` calls of
    /// [`Self::mont_sqr`].
    pub fn mont_sqr_n_assign(&self, a: &mut MontInt, count: u32, scratch: &mut Vec<u64>) {
        scratch.resize(self.scratch_len(), 0);
        for _ in 0..count {
            self.sqr_assign_raw(&mut a.limbs, scratch);
        }
    }

    /// The residue of `x` **as it stands** — `x·R mod n`, not `x` — as
    /// big-endian bytes, exactly as many as the modulus has;
    /// [`Self::mont_from_bytes_be`] reads them back.  Nothing is reduced in
    /// either direction: a party that keeps its values resident ships them
    /// resident.
    pub fn mont_to_bytes_be(&self, x: &MontInt) -> Vec<u8> {
        debug_assert_eq!(x.limbs.len(), self.width(), "MontInt from a different context");
        let mut bytes: Vec<u8> = x.limbs.iter().rev().flat_map(|limb| limb.to_be_bytes()).collect();
        // A residue is below the modulus, so the bytes the top limb has
        // beyond the modulus' own length are zero.
        let excess = bytes.len() - self.modulus.bits().div_ceil(8) as usize;
        debug_assert!(bytes[..excess].iter().all(|&b| b == 0));
        bytes.drain(..excess);
        bytes
    }

    /// Reads a resident residue from big-endian bytes of any length
    /// (leading zero padding is ignored).  `None` unless the value is below
    /// the modulus, which the multiplication kernels assume of every input;
    /// every value below it *is* the Montgomery form of exactly one
    /// residue, so there is nothing else to check.
    pub fn mont_from_bytes_be(&self, bytes: &[u8]) -> Option<MontInt> {
        let mut limbs = vec![0u64; self.width()];
        let (padding, body) = bytes.split_at(bytes.len().saturating_sub(8 * limbs.len()));
        let (partial, whole) = body.as_rchunks::<8>();
        for (limb, chunk) in limbs.iter_mut().zip(whole.iter().rev()) {
            *limb = u64::from_be_bytes(*chunk);
        }
        if let Some(limb) = limbs.get_mut(whole.len()) {
            *limb = partial.iter().fold(0, |acc, &b| acc << 8 | u64::from(b));
        }
        let in_range = padding.iter().all(|&b| b == 0) && cmp_fixed(&limbs, &self.n) == std::cmp::Ordering::Less;
        in_range.then_some(MontInt { limbs })
    }

    /// Fixed-window width for an exponent of `bits` bits: table cost
    /// (`2^w − 2` products) must stay well below the multiply savings.
    fn window_bits(bits: u64) -> u64 {
        match bits {
            0..=15 => 1,
            16..=47 => 2,
            48..=143 => 3,
            144..=767 => 4,
            _ => 5,
        }
    }

    /// `base^exponent mod n` by left-to-right fixed-window exponentiation
    /// entirely in Montgomery form.  Value-identical to
    /// [`BigUint::modpow_schoolbook`] for every input (including
    /// `base ≥ n`, zero/one exponents and `n = 1`).
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        let bits = exponent.bits();
        if bits == 0 {
            return BigUint::one();
        }
        let base_m = self.to_mont(base);
        if bits == 1 {
            return self.from_mont(&base_m);
        }
        let l = self.width();
        let w = Self::window_bits(bits);
        // table[d] = mont(base^d) for every window digit d.
        let mut t = vec![0u64; self.scratch_len()];
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(1 << w);
        table.push(self.one.clone());
        table.push(base_m.limbs);
        for d in 2..(1usize << w) {
            let mut out = vec![0u64; l];
            self.mul_raw(&table[d - 1], &table[1], &mut t, &mut out);
            table.push(out);
        }
        let digits = exponent.to_u64_digits();
        let mask = (1u64 << w) - 1;
        let digit_at = |window: u64| -> u64 {
            let bit = window * w;
            let limb = (bit / 64) as usize;
            if limb >= digits.len() {
                return 0;
            }
            let offset = bit % 64;
            let mut digit = (digits[limb] >> offset) & mask;
            if offset + w > 64 {
                if let Some(&next) = digits.get(limb + 1) {
                    digit |= (next << (64 - offset)) & mask;
                }
            }
            digit
        };
        let windows = bits.div_ceil(w);
        // The top window covers the exponent's most significant bit, so
        // its digit is non-zero and seeds the accumulator directly.
        let top = digit_at(windows - 1);
        debug_assert!(top != 0);
        let mut acc = table[top as usize].clone();
        for window in (0..windows - 1).rev() {
            for _ in 0..w {
                self.sqr_assign_raw(&mut acc, &mut t);
            }
            let digit = digit_at(window);
            if digit != 0 {
                self.mul_assign_raw(&mut acc, &table[digit as usize], &mut t);
            }
        }
        self.from_mont(&MontInt { limbs: acc })
    }

    /// Builds the comb table of `base` for exponents of up to
    /// `exponent_bits` bits: `(teeth − 1)·spacing` squarings for the block
    /// powers and one product per remaining entry.
    ///
    /// # Panics
    /// Panics unless `1 ≤ teeth ≤ 16` (the table has `2^teeth − 1` entries).
    pub fn fixed_base_table(&self, base: &BigUint, exponent_bits: u64, teeth: u32) -> FixedBaseTable {
        assert!((1..=16).contains(&teeth), "a comb has between 1 and 16 teeth");
        let l = self.width();
        let spacing = exponent_bits.div_ceil(u64::from(teeth));
        let mut limbs = vec![0u64; ((1usize << teeth) - 1) * l];
        let mut t = vec![0u64; self.scratch_len()];
        // base^{2^{tooth·spacing}}, the power tooth `tooth` contributes.
        let mut power = self.to_mont(base).limbs;
        for tooth in 0..teeth {
            let single = 1usize << tooth;
            limbs[(single - 1) * l..single * l].copy_from_slice(&power);
            // Every entry whose top set bit is this tooth: entry(single) · entry(lower).
            for lower in 1..single {
                let (done, rest) = limbs.split_at_mut((single + lower - 1) * l);
                let (a, b) = (&done[(single - 1) * l..single * l], &done[(lower - 1) * l..lower * l]);
                self.mul_raw(a, b, &mut t, &mut rest[..l]);
            }
            if tooth + 1 < teeth {
                for _ in 0..spacing {
                    self.sqr_assign_raw(&mut power, &mut t);
                }
            }
        }
        FixedBaseTable { teeth, spacing, limbs }
    }

    /// `base^exponent mod n` for the base `table` was built from.
    /// Value-identical to [`MontgomeryCtx::modpow`] for every exponent of
    /// at most [`FixedBaseTable::exponent_bits`] bits; `None` for a wider
    /// one (the table has no entry for its top bits).
    pub fn fixed_base_pow(&self, table: &FixedBaseTable, exponent: &BigUint) -> Option<BigUint> {
        self.fixed_base_pow_mont(table, exponent).map(|power| self.from_mont(&power))
    }

    /// [`Self::fixed_base_pow`] left in Montgomery form, where the comb
    /// accumulates it: `to_mont(base^exponent)` without the reduction out
    /// and back in, for a caller whose next step is another Montgomery
    /// product.
    pub fn fixed_base_pow_mont(&self, table: &FixedBaseTable, exponent: &BigUint) -> Option<MontInt> {
        if exponent.bits() > table.exponent_bits() {
            return None;
        }
        let l = self.width();
        debug_assert_eq!(table.limbs.len(), ((1 << table.teeth) - 1) * l, "table from a different context");
        let digits = exponent.to_u64_digits();
        let bit = |i: u64| digits.get((i / 64) as usize).map_or(0, |d| (d >> (i % 64)) as usize & 1);
        let mut t = vec![0u64; self.scratch_len()];
        // Until the first non-zero column the accumulator is the identity.
        let mut acc = self.one.clone();
        let mut started = false;
        for column in (0..table.spacing).rev() {
            if started {
                self.sqr_assign_raw(&mut acc, &mut t);
            }
            let entry = (0..table.teeth)
                .fold(0, |entry, tooth| entry | bit(u64::from(tooth) * table.spacing + column) << tooth);
            if entry == 0 {
                continue;
            }
            let factor = &table.limbs[(entry - 1) * l..entry * l];
            if started {
                self.mul_assign_raw(&mut acc, factor, &mut t);
            } else {
                acc.copy_from_slice(factor);
                started = true;
            }
        }
        Some(MontInt { limbs: acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandBigInt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn rejects_even_and_zero_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&big(2)).is_none());
        assert!(MontgomeryCtx::new(&big(1 << 20)).is_none());
        assert!(MontgomeryCtx::new(&big(1)).is_some());
        assert!(MontgomeryCtx::new(&big(3)).is_some());
    }

    #[test]
    fn word_inverse_is_exact_for_odd_words() {
        for a in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1, u64::MAX - 1] {
            if a & 1 == 1 {
                let neg_inv = neg_inv_u64(a);
                assert_eq!(a.wrapping_mul(neg_inv.wrapping_neg()), 1, "a = {a:#x}");
            }
        }
    }

    #[test]
    fn mont_round_trip_preserves_values() {
        let m = big(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for v in [0u128, 1, 2, 999_999_999, 1_000_000_006, u64::MAX as u128] {
            let x = big(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), &x % &m, "v = {v}");
        }
    }

    #[test]
    fn mont_mul_and_sqr_match_plain_modular_arithmetic() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [64u64, 65, 127, 128, 192, 1024] {
            let mut m = rng.gen_biguint(bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for _ in 0..20 {
                let a = rng.gen_biguint_below(&m);
                let b = rng.gen_biguint_below(&m);
                let prod = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
                assert_eq!(prod, &a * &b % &m);
                let sq = ctx.from_mont(&ctx.mont_sqr(&ctx.to_mont(&a)));
                assert_eq!(sq, &a * &a % &m);
            }
        }
    }

    #[test]
    fn modpow_matches_schoolbook_on_small_values() {
        let m = big(97);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for base in 0u64..10 {
            for exp in 0u64..20 {
                let b = BigUint::from(base);
                let e = BigUint::from(exp);
                assert_eq!(
                    ctx.modpow(&b, &e),
                    b.modpow_schoolbook(&e, &m),
                    "base = {base}, exp = {exp}"
                );
            }
        }
    }

    #[test]
    fn modpow_handles_modulus_one_and_oversized_bases() {
        let one = BigUint::one();
        let ctx = MontgomeryCtx::new(&one).unwrap();
        assert_eq!(ctx.modpow(&big(12345), &big(678)), BigUint::zero());
        let m = big(1_000_003);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let oversized = &m * &m + big(17);
        let e = big(123);
        assert_eq!(ctx.modpow(&oversized, &e), oversized.modpow_schoolbook(&e, &m));
    }

    #[test]
    fn modpow_window_boundaries_match_schoolbook() {
        // Exponent bit lengths straddling every window-width threshold and
        // the 64-bit limb boundaries.
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = rng.gen_biguint(256);
        m.set_bit(0, true);
        m.set_bit(255, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for bits in [1u64, 15, 16, 47, 48, 63, 64, 65, 127, 128, 129, 143, 144, 191, 192, 767, 768]
        {
            let mut e = rng.gen_biguint(bits);
            e.set_bit(bits - 1, true); // pin the exact bit length
            let b = rng.gen_biguint_below(&m);
            assert_eq!(ctx.modpow(&b, &e), b.modpow_schoolbook(&e, &m), "bits = {bits}");
        }
    }

    #[test]
    fn shared_context_serves_many_exponentiations() {
        // The batching pattern the crypto layer uses: one context, many
        // (base, exponent) pairs.
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = rng.gen_biguint(512);
        m.set_bit(0, true);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for _ in 0..25 {
            let b_bits = rng.gen_range(1..600u64);
            let e_bits = rng.gen_range(0..600u64);
            let b = rng.gen_biguint(b_bits);
            let e = rng.gen_biguint(e_bits);
            assert_eq!(ctx.modpow(&b, &e), b.modpow_schoolbook(&e, &m));
        }
    }
}
