//! Unsigned arbitrary-precision integers.

use std::cmp::Ordering;
use std::fmt;

use num_integer::Integer;
use num_traits::{One, Zero};

/// An unsigned big integer: little-endian 64-bit limbs, normalized so the
/// top limb is non-zero (zero is the empty limb vector).
#[derive(PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl Clone for BigUint {
    fn clone(&self) -> Self {
        Self { limbs: self.limbs.clone() }
    }

    /// Reuses `self`'s buffer, growing it to exactly the source's length:
    /// a gossip state overwritten a thousand times keeps one allocation
    /// and never holds doubled slack.
    fn clone_from(&mut self, source: &Self) {
        self.limbs.clear();
        self.limbs.reserve_exact(source.limbs.len());
        self.limbs.extend_from_slice(&source.limbs);
    }
}

// --- limb-level kernels -------------------------------------------------

fn normalize(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u128;
    for (i, &limb) in long.iter().enumerate() {
        let sum = limb as u128 + *short.get(i).unwrap_or(&0) as u128 + carry;
        out.push(sum as u64);
        carry = sum >> 64;
    }
    if carry > 0 {
        out.push(carry as u64);
    }
    out
}

/// `a += b` where `a` stands, growing it by exactly the limbs the sum
/// needs (`reserve_exact`: amortised doubling would leave up to one spare
/// copy of every long-lived accumulator on the heap).
fn add_assign_limbs(a: &mut Vec<u64>, b: &[u64]) {
    if b.len() > a.len() {
        a.reserve_exact(b.len() - a.len());
        a.resize(b.len(), 0);
    }
    let (low, high) = a.split_at_mut(b.len());
    let mut carry = 0u128;
    for (x, &y) in low.iter_mut().zip(b) {
        let sum = *x as u128 + y as u128 + carry;
        *x = sum as u64;
        carry = sum >> 64;
    }
    for x in high {
        if carry == 0 {
            return;
        }
        let sum = *x as u128 + carry;
        *x = sum as u64;
        carry = sum >> 64;
    }
    if carry > 0 {
        a.reserve_exact(1);
        a.push(carry as u64);
    }
}

/// `a - b`; requires `a >= b`.
fn sub_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_limbs(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i128;
    for (i, &limb) in a.iter().enumerate() {
        let diff = limb as i128 - *b.get(i).unwrap_or(&0) as i128 + borrow;
        out.push(diff as u64);
        borrow = diff >> 64; // arithmetic shift: 0 or -1
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
    normalize(&mut out);
    out
}

fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        // Position i + b.len() is untouched by earlier rows, so the carry
        // always fits without a further ripple.
        out[i + b.len()] = carry as u64;
    }
    normalize(&mut out);
    out
}

fn shl_limbs(a: &[u64], bits: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    let mut out = vec![0u64; a.len() + limb_shift + 1];
    for (i, &limb) in a.iter().enumerate() {
        if bit_shift == 0 {
            out[i + limb_shift] = limb;
        } else {
            out[i + limb_shift] |= limb << bit_shift;
            out[i + limb_shift + 1] |= limb >> (64 - bit_shift);
        }
    }
    normalize(&mut out);
    out
}

/// `a <<= bits` where `a` stands: the limbs move up from the top down, and
/// the buffer grows by exactly the limbs the shifted value occupies.
fn shl_assign_limbs(a: &mut Vec<u64>, bits: usize) {
    let old = a.len();
    if old == 0 || bits == 0 {
        return;
    }
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    let spill = if bit_shift == 0 { 0 } else { a[old - 1] >> (64 - bit_shift) };
    let new = old + limb_shift + usize::from(spill != 0);
    a.reserve_exact(new - old);
    a.resize(new, 0);
    if bit_shift == 0 {
        a.copy_within(..old, limb_shift);
    } else {
        if spill != 0 {
            a[new - 1] = spill;
        }
        for i in (0..old).rev() {
            let below = if i == 0 { 0 } else { a[i - 1] >> (64 - bit_shift) };
            a[i + limb_shift] = (a[i] << bit_shift) | below;
        }
    }
    a[..limb_shift].fill(0);
}

fn shr_limbs(a: &[u64], bits: usize) -> Vec<u64> {
    let limb_shift = bits / 64;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = bits % 64;
    let mut out = Vec::with_capacity(a.len() - limb_shift);
    for i in limb_shift..a.len() {
        let mut limb = a[i] >> bit_shift;
        if bit_shift > 0 {
            if let Some(&next) = a.get(i + 1) {
                limb |= next << (64 - bit_shift);
            }
        }
        out.push(limb);
    }
    normalize(&mut out);
    out
}

/// Division by a single limb.
fn div_rem_small(u: &[u64], d: u64) -> (Vec<u64>, u64) {
    assert!(d != 0, "division by zero");
    let mut q = vec![0u64; u.len()];
    let mut rem = 0u128;
    for i in (0..u.len()).rev() {
        let cur = (rem << 64) | u[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    normalize(&mut q);
    (q, rem as u64)
}

/// Branch-coverage counters for the rare Algorithm D corrections: the D3
/// q̂-adjustment loop and the D6 add-back step fire with probability
/// ~2⁻⁶⁴ on random inputs, so the targeted tests assert through these that
/// their crafted inputs really exercised the branches.
#[cfg(test)]
pub(crate) mod knuth_coverage {
    use std::cell::Cell;

    thread_local! {
        static TOTAL_CORRECTIONS: Cell<u64> = const { Cell::new(0) };
        static ROUND_CORRECTIONS: Cell<u64> = const { Cell::new(0) };
        static MAX_ROUND_CORRECTIONS: Cell<u64> = const { Cell::new(0) };
        static ADD_BACKS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counter snapshot: (total q̂ corrections, max corrections within a
    /// single D2..D7 round, D6 add-backs) since the last [`reset`].
    pub(crate) struct Snapshot {
        pub(crate) corrections: u64,
        pub(crate) max_round_corrections: u64,
        pub(crate) add_backs: u64,
    }

    pub(crate) fn reset() {
        TOTAL_CORRECTIONS.with(|c| c.set(0));
        ROUND_CORRECTIONS.with(|c| c.set(0));
        MAX_ROUND_CORRECTIONS.with(|c| c.set(0));
        ADD_BACKS.with(|c| c.set(0));
    }

    pub(crate) fn snapshot() -> Snapshot {
        Snapshot {
            corrections: TOTAL_CORRECTIONS.with(Cell::get),
            max_round_corrections: MAX_ROUND_CORRECTIONS.with(Cell::get),
            add_backs: ADD_BACKS.with(Cell::get),
        }
    }

    pub(crate) fn begin_round() {
        ROUND_CORRECTIONS.with(|c| c.set(0));
    }

    pub(crate) fn note_correction() {
        TOTAL_CORRECTIONS.with(|c| c.set(c.get() + 1));
        ROUND_CORRECTIONS.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn end_round() {
        let round = ROUND_CORRECTIONS.with(Cell::get);
        MAX_ROUND_CORRECTIONS.with(|c| c.set(c.get().max(round)));
    }

    pub(crate) fn note_add_back() {
        ADD_BACKS.with(|c| c.set(c.get() + 1));
    }
}

/// Knuth Algorithm D (TAOCP 4.3.1) for multi-limb divisors.
/// Requires `v.len() >= 2` and `u >= v`.
fn div_rem_knuth(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let n = v.len();
    let m = u.len();
    debug_assert!(n >= 2 && m >= n);

    // D1: normalize so the top divisor limb has its high bit set.
    let s = v[n - 1].leading_zeros() as usize;
    let vn = shl_limbs(v, s);
    debug_assert_eq!(vn.len(), n);
    let mut un = shl_limbs(u, s);
    un.resize(m + 1, 0); // extra high limb for the first iteration

    let mut q = vec![0u64; m - n + 1];
    // D2..D7: one quotient limb per round, most significant first.
    for j in (0..=m - n).rev() {
        // D3: estimate q̂ from the top two dividend limbs and the top
        // divisor limb, then correct it with the second divisor limb
        // (at most two corrections, per Knuth's theorem).
        let numer = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = numer / vn[n - 1] as u128;
        let mut rhat = numer % vn[n - 1] as u128;
        #[cfg(test)]
        knuth_coverage::begin_round();
        loop {
            if qhat >> 64 != 0
                || qhat * vn[n - 2] as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                #[cfg(test)]
                knuth_coverage::note_correction();
                rhat += vn[n - 1] as u128;
                if rhat >> 64 == 0 {
                    continue;
                }
            }
            break;
        }
        #[cfg(test)]
        knuth_coverage::end_round();

        // D4: multiply-and-subtract q̂·v from the current dividend window.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
            un[i + j] = t as u64;
            borrow = t >> 64; // 0 or -1
        }
        let t = un[j + n] as i128 - carry as i128 + borrow;
        un[j + n] = t as u64;

        // D6: q̂ was one too large (probability ~2⁻⁶⁴): add one divisor back.
        if t < 0 {
            qhat -= 1;
            #[cfg(test)]
            knuth_coverage::note_add_back();
            let mut carry = 0u128;
            for i in 0..n {
                let sum = un[i + j] as u128 + vn[i] as u128 + carry;
                un[i + j] = sum as u64;
                carry = sum >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    let rem = shr_limbs(&un[..n], s);
    normalize(&mut q);
    (q, rem)
}

fn div_rem_limbs(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!v.is_empty(), "division by zero");
    match cmp_limbs(u, v) {
        Ordering::Less => (Vec::new(), u.to_vec()),
        Ordering::Equal => (vec![1], Vec::new()),
        Ordering::Greater => {
            if v.len() == 1 {
                let (q, r) = div_rem_small(u, v[0]);
                (q, if r == 0 { Vec::new() } else { vec![r] })
            } else {
                div_rem_knuth(u, v)
            }
        }
    }
}

// --- public API ---------------------------------------------------------

impl BigUint {
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        normalize(&mut limbs);
        Self { limbs }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() as u64 - 1) + (64 - top.leading_zeros() as u64),
        }
    }

    /// Sets or clears one bit, growing the number as needed.
    pub fn set_bit(&mut self, bit: u64, value: bool) {
        let limb = (bit / 64) as usize;
        let mask = 1u64 << (bit % 64);
        if value {
            if limb >= self.limbs.len() {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= mask;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !mask;
            normalize(&mut self.limbs);
        }
    }

    /// Tests one bit.
    pub fn bit(&self, bit: u64) -> bool {
        let limb = (bit / 64) as usize;
        limb < self.limbs.len() && self.limbs[limb] & (1u64 << (bit % 64)) != 0
    }

    /// `self^exponent mod modulus`.
    ///
    /// Odd moduli take the Montgomery windowed path
    /// ([`crate::montgomery::MontgomeryCtx`]); even moduli take
    /// [`Self::modpow_schoolbook`].  The two are value-identical on every
    /// input — the differential test battery in
    /// `tests/montgomery_differential.rs` pins this.
    ///
    /// Callers exponentiating repeatedly against one odd modulus should
    /// hold a [`crate::montgomery::MontgomeryCtx`] themselves to amortise
    /// the per-modulus precomputation this convenience wrapper redoes.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        match crate::montgomery::MontgomeryCtx::new(modulus) {
            Some(ctx) => ctx.modpow(self, exponent),
            None => self.modpow_schoolbook(exponent, modulus),
        }
    }

    /// `self^exponent mod modulus` by left-to-right binary exponentiation
    /// with a full Knuth-D division per step.
    ///
    /// This is the reference the differential tests and the benchmark's
    /// `bigint.schoolbook_ratio_2048` probe compare the Montgomery path
    /// against.
    pub fn modpow_schoolbook(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let base = self % modulus;
        let mut result = BigUint::one();
        let bits = exponent.bits();
        for i in (0..bits).rev() {
            result = &result * &result % modulus;
            if exponent.bit(i) {
                result = &result * &base % modulus;
            }
        }
        result
    }

    /// `self^exponent` (plain integer power).
    pub fn pow(&self, exponent: u32) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.clone();
        let mut e = exponent;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        result
    }

    /// Integer square root (largest `r` with `r² ≤ self`).
    pub fn sqrt(&self) -> BigUint {
        if self.limbs.len() <= 1 {
            let v = self.limbs.first().copied().unwrap_or(0);
            // f64 sqrt is only a seed: above ~2^53 it can land one off in
            // either direction, so correct it exactly.
            let mut r = (v as f64).sqrt() as u64;
            while r > 0 && r.checked_mul(r).is_none_or(|sq| sq > v) {
                r -= 1;
            }
            while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= v) {
                r += 1;
            }
            return BigUint::from(r);
        }
        // Newton's method from a high starting point.
        let mut x = BigUint::one() << ((self.bits() / 2 + 1) as u32);
        loop {
            let next = (&x + self / &x) / 2u32;
            if next >= x {
                return x;
            }
            x = next;
        }
    }

    /// Big-endian byte encoding (empty-free: zero encodes as `[0]`).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut bytes: Vec<u8> = self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        while bytes.last() == Some(&0) {
            bytes.pop();
        }
        bytes.reverse();
        bytes
    }

    /// Parses a big-endian byte string.
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        BigUint::from_limbs(limbs)
    }

    /// The number with these little-endian 64-bit digits (trailing zero
    /// digits allowed), taking the buffer as it is: the inverse of
    /// [`Self::to_u64_digits`] for a caller that assembles a value digit by
    /// digit.
    pub fn from_u64_digits(digits: Vec<u64>) -> BigUint {
        BigUint::from_limbs(digits)
    }

    /// The little-endian 64-bit digits.
    pub fn to_u64_digits(&self) -> Vec<u64> {
        self.limbs.clone()
    }

    /// Iterates the little-endian 64-bit digits without allocating.
    pub fn iter_u64_digits(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.limbs.iter().copied()
    }

    /// The value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

}

// --- conversions --------------------------------------------------------

macro_rules! impl_from_small_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for BigUint {
            fn from(v: $t) -> Self {
                BigUint::from_limbs(vec![v as u64])
            }
        }
    )*};
}

impl_from_small_uint!(u8, u16, u32, u64, usize);

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

// --- comparisons --------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// --- arithmetic operators ----------------------------------------------

/// Implements all four owned/borrowed combinations of a binary operator by
/// delegating to the `&T op &T` implementation.
macro_rules! forward_ref_binop {
    (impl $imp:ident, $method:ident for $t:ty) => {
        impl std::ops::$imp<$t> for $t {
            type Output = $t;
            fn $method(self, rhs: $t) -> $t {
                std::ops::$imp::$method(&self, &rhs)
            }
        }
        impl std::ops::$imp<&$t> for $t {
            type Output = $t;
            fn $method(self, rhs: &$t) -> $t {
                std::ops::$imp::$method(&self, rhs)
            }
        }
        impl std::ops::$imp<$t> for &$t {
            type Output = $t;
            fn $method(self, rhs: $t) -> $t {
                std::ops::$imp::$method(self, &rhs)
            }
        }
    };
}

impl std::ops::Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint { limbs: add_limbs(&self.limbs, &rhs.limbs) }
    }
}

impl std::ops::Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        assert!(self >= rhs, "BigUint subtraction underflow");
        BigUint { limbs: sub_limbs(&self.limbs, &rhs.limbs) }
    }
}

impl std::ops::Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint { limbs: mul_limbs(&self.limbs, &rhs.limbs) }
    }
}

impl std::ops::Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        BigUint { limbs: div_rem_limbs(&self.limbs, &rhs.limbs).0 }
    }
}

impl std::ops::Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        BigUint { limbs: div_rem_limbs(&self.limbs, &rhs.limbs).1 }
    }
}

forward_ref_binop!(impl Add, add for BigUint);
forward_ref_binop!(impl Sub, sub for BigUint);
forward_ref_binop!(impl Mul, mul for BigUint);
forward_ref_binop!(impl Div, div for BigUint);
forward_ref_binop!(impl Rem, rem for BigUint);

/// Mixed operations with primitive unsigned integers.
macro_rules! impl_scalar_ops {
    ($($t:ty),*) => {$(
        impl std::ops::Div<$t> for &BigUint {
            type Output = BigUint;
            fn div(self, rhs: $t) -> BigUint {
                self / &BigUint::from(rhs)
            }
        }
        impl std::ops::Div<$t> for BigUint {
            type Output = BigUint;
            fn div(self, rhs: $t) -> BigUint {
                &self / &BigUint::from(rhs)
            }
        }
        impl std::ops::Rem<$t> for &BigUint {
            type Output = BigUint;
            fn rem(self, rhs: $t) -> BigUint {
                self % &BigUint::from(rhs)
            }
        }
        impl std::ops::Rem<$t> for BigUint {
            type Output = BigUint;
            fn rem(self, rhs: $t) -> BigUint {
                &self % &BigUint::from(rhs)
            }
        }
        impl std::ops::Mul<$t> for &BigUint {
            type Output = BigUint;
            fn mul(self, rhs: $t) -> BigUint {
                self * &BigUint::from(rhs)
            }
        }
        impl std::ops::Mul<$t> for BigUint {
            type Output = BigUint;
            fn mul(self, rhs: $t) -> BigUint {
                &self * &BigUint::from(rhs)
            }
        }
        impl std::ops::Add<$t> for &BigUint {
            type Output = BigUint;
            fn add(self, rhs: $t) -> BigUint {
                self + &BigUint::from(rhs)
            }
        }
        impl std::ops::Add<$t> for BigUint {
            type Output = BigUint;
            fn add(self, rhs: $t) -> BigUint {
                &self + &BigUint::from(rhs)
            }
        }
        impl std::ops::Sub<$t> for &BigUint {
            type Output = BigUint;
            fn sub(self, rhs: $t) -> BigUint {
                self - &BigUint::from(rhs)
            }
        }
        impl std::ops::Sub<$t> for BigUint {
            type Output = BigUint;
            fn sub(self, rhs: $t) -> BigUint {
                &self - &BigUint::from(rhs)
            }
        }
    )*};
}

impl_scalar_ops!(u8, u16, u32, u64, usize);

macro_rules! impl_assign_ops {
    ($(($imp:ident, $method:ident, $op:tt)),*) => {$(
        impl std::ops::$imp<BigUint> for BigUint {
            fn $method(&mut self, rhs: BigUint) {
                *self = &*self $op &rhs;
            }
        }
        impl std::ops::$imp<&BigUint> for BigUint {
            fn $method(&mut self, rhs: &BigUint) {
                *self = &*self $op rhs;
            }
        }
    )*};
}

impl std::ops::AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        add_assign_limbs(&mut self.limbs, &rhs.limbs);
    }
}

impl std::ops::AddAssign<BigUint> for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self += &rhs;
    }
}

impl_assign_ops!(
    (SubAssign, sub_assign, -),
    (MulAssign, mul_assign, *),
    (DivAssign, div_assign, /),
    (RemAssign, rem_assign, %)
);

macro_rules! impl_shifts {
    ($($t:ty),*) => {$(
        impl std::ops::Shl<$t> for BigUint {
            type Output = BigUint;
            fn shl(self, rhs: $t) -> BigUint {
                &self << rhs
            }
        }
        impl std::ops::Shl<$t> for &BigUint {
            type Output = BigUint;
            fn shl(self, rhs: $t) -> BigUint {
                BigUint { limbs: shl_limbs(&self.limbs, rhs as usize) }
            }
        }
        impl std::ops::Shr<$t> for BigUint {
            type Output = BigUint;
            fn shr(self, rhs: $t) -> BigUint {
                &self >> rhs
            }
        }
        impl std::ops::Shr<$t> for &BigUint {
            type Output = BigUint;
            fn shr(self, rhs: $t) -> BigUint {
                BigUint { limbs: shr_limbs(&self.limbs, rhs as usize) }
            }
        }
        impl std::ops::ShlAssign<$t> for BigUint {
            fn shl_assign(&mut self, rhs: $t) {
                shl_assign_limbs(&mut self.limbs, rhs as usize);
            }
        }
        impl std::ops::ShrAssign<$t> for BigUint {
            fn shr_assign(&mut self, rhs: $t) {
                self.limbs = shr_limbs(&self.limbs, rhs as usize);
            }
        }
    )*};
}

impl_shifts!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// --- num-traits / num-integer ------------------------------------------

impl Zero for BigUint {
    fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }
    fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }
}

impl One for BigUint {
    fn one() -> Self {
        BigUint { limbs: vec![1] }
    }
    fn is_one(&self) -> bool {
        self.limbs == [1]
    }
}

impl Integer for BigUint {
    fn div_rem(&self, other: &Self) -> (Self, Self) {
        let (q, r) = div_rem_limbs(&self.limbs, &other.limbs);
        (BigUint { limbs: q }, BigUint { limbs: r })
    }
    fn gcd(&self, other: &Self) -> Self {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }
    fn lcm(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            BigUint::zero()
        } else {
            self / self.gcd(other) * other
        }
    }
    fn div_floor(&self, other: &Self) -> Self {
        self / other
    }
    fn mod_floor(&self, other: &Self) -> Self {
        self % other
    }
    fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }
    fn is_odd(&self) -> bool {
        !Integer::is_even(self)
    }
    fn is_multiple_of(&self, other: &Self) -> bool {
        if other.is_zero() {
            self.is_zero()
        } else {
            (self % other).is_zero()
        }
    }
}

// --- formatting ---------------------------------------------------------

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by the largest power of ten in a limb.
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        let mut limbs = self.limbs.clone();
        let mut chunks = Vec::new();
        while !limbs.is_empty() {
            let (q, r) = div_rem_small(&limbs, CHUNK);
            chunks.push(r);
            limbs = q;
        }
        write!(f, "{}", chunks.pop().unwrap_or(0))?;
        for chunk in chunks.iter().rev() {
            write!(f, "{chunk:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn add_sub_round_trip() {
        let a = big(0xFFFF_FFFF_FFFF_FFFF_FFFF);
        let b = big(0x1_0000_0001);
        assert_eq!(&(&a + &b) - &b, a);
        assert_eq!(&a - &a, BigUint::zero());
    }

    #[test]
    fn mul_matches_u128() {
        for (x, y) in [(0u128, 5), (7, 9), (u64::MAX as u128, u64::MAX as u128), (123_456_789, 987_654_321)] {
            assert_eq!(big(x) * big(y), big(x * y));
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        for (x, y) in [(100u128, 7u128), (u128::MAX / 3, 17), (12_345_678_901_234_567_890, 97)] {
            let (q, r) = (x / y, x % y);
            assert_eq!(&big(x) / &big(y), big(q));
            assert_eq!(&big(x) % &big(y), big(r));
        }
    }

    #[test]
    fn knuth_division_exercises_addback_region() {
        // Multi-limb divisors with top limbs that force q̂ corrections.
        let a = (BigUint::one() << 200u32) - BigUint::one();
        let b = (BigUint::one() << 100u32) + BigUint::from(3u32);
        let (q, r) = Integer::div_rem(&a, &b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_reconstruction_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let a_limbs: Vec<u64> = (0..rng.gen_range(1..6usize)).map(|_| rng.gen()).collect();
            let b_limbs: Vec<u64> = (0..rng.gen_range(1..4usize)).map(|_| rng.gen()).collect();
            let a = BigUint::from_limbs(a_limbs);
            let b = BigUint::from_limbs(b_limbs);
            if b.is_zero() {
                continue;
            }
            let (q, r) = Integer::div_rem(&a, &b);
            assert_eq!(&q * &b + &r, a, "reconstruction failed");
            assert!(r < b, "remainder must be below the divisor");
        }
    }

    #[test]
    fn knuth_double_qhat_correction_branch() {
        // TAOCP 4.3.1-style extremal operands for the D3 estimate: with
        // v = [b-1, b/2] (b = 2^64) the top-limb estimate of q̂ for the
        // dividend window [*, b-2, b/2] overshoots the true quotient limb
        // by two — the first correction comes from the q̂ ≥ b overflow
        // check, the second from the v_{n-2} two-limb test — which is the
        // maximum Knuth's theorem allows per round.
        let b_max = u64::MAX; // b - 1
        let top = 1u64 << 63; // b / 2
        let u = BigUint::from_limbs(vec![7, b_max - 1, top]);
        let v = BigUint::from_limbs(vec![b_max, top]);
        knuth_coverage::reset();
        let (q, r) = Integer::div_rem(&u, &v);
        let cov = knuth_coverage::snapshot();
        assert_eq!(
            cov.max_round_corrections, 2,
            "crafted input must take exactly two q̂ corrections in one round"
        );
        assert_eq!(&q * &v + &r, u, "reconstruction");
        assert!(r < v);
        // The corrected quotient limb is b - 1 (estimate was b + 1).
        assert_eq!(q, BigUint::from_limbs(vec![u64::MAX]));
    }

    #[test]
    fn knuth_add_back_branch() {
        // 64-bit analog of the classic add-back vector (Hacker's Delight
        // §9-2 test set): v's second limb is zero, so the two-limb D3 test
        // cannot catch the overshoot and D6 must add one divisor back.
        let u = BigUint::from_limbs(vec![3, 0, 1u64 << 63]);
        let v = BigUint::from_limbs(vec![1, 0, 1u64 << 61]);
        knuth_coverage::reset();
        let (q, r) = Integer::div_rem(&u, &v);
        let cov = knuth_coverage::snapshot();
        assert!(cov.add_backs >= 1, "crafted input must exercise the D6 add-back");
        assert_eq!(q, BigUint::from(3u32));
        assert_eq!(r, BigUint::one() << 189u32);
        assert_eq!(&q * &v + &r, u, "reconstruction");
    }

    #[test]
    fn knuth_correction_searches_stay_within_theorem_bound() {
        // Structured fuzz around the extremal region (minimal normalized
        // top divisor limb, near-maximal dividend limbs): every division
        // must reconstruct exactly and no round may correct q̂ more than
        // twice (TAOCP 4.3.1 Theorem B).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1F);
        knuth_coverage::reset();
        for _ in 0..2_000 {
            let n = rng.gen_range(2..4usize);
            let m = rng.gen_range(n..n + 3);
            let mut v_limbs: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() | (u64::MAX << 32)).collect();
            v_limbs[n - 1] = (1u64 << 63) + rng.gen_range(0..4u64);
            let u_limbs: Vec<u64> = (0..m).map(|_| u64::MAX - rng.gen_range(0..4u64)).collect();
            let u = BigUint::from_limbs(u_limbs);
            let v = BigUint::from_limbs(v_limbs);
            if u < v {
                continue;
            }
            let (q, r) = Integer::div_rem(&u, &v);
            assert_eq!(&q * &v + &r, u, "reconstruction");
            assert!(r < v);
        }
        let cov = knuth_coverage::snapshot();
        assert!(cov.corrections > 0, "extremal region must exercise the D3 correction");
        assert!(
            cov.max_round_corrections <= 2,
            "no round may correct q̂ more than twice, saw {}",
            cov.max_round_corrections
        );
    }

    #[test]
    fn div_rem_differential_vs_u128() {
        // Fuzz-style differential: on ≤128-bit operands the shim must
        // agree limb-for-limb with native u128 arithmetic.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for i in 0..10_000 {
            let u_bits = rng.gen_range(0..129u32);
            let v_bits = rng.gen_range(1..129u32);
            let mut mask = |bits: u32| -> u128 {
                if bits == 0 {
                    0
                } else {
                    let raw: u128 = (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128;
                    let top_masked = raw >> (128 - bits);
                    top_masked | 1u128 << (bits - 1) // pin the bit length
                }
            };
            let u = mask(u_bits);
            let v = mask(v_bits);
            if v == 0 {
                continue;
            }
            let (q, r) = Integer::div_rem(&BigUint::from(u), &BigUint::from(v));
            assert_eq!(q, BigUint::from(u / v), "case {i}: {u} / {v}");
            assert_eq!(r, BigUint::from(u % v), "case {i}: {u} % {v}");
        }
    }

    #[test]
    fn modpow_dispatch_agrees_with_schoolbook_both_parities() {
        // The public modpow must agree with the schoolbook baseline for
        // odd moduli (Montgomery path) and even moduli (fallback).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1F0);
        for _ in 0..40 {
            let m_bits = rng.gen_range(2..300u64);
            let mut m = BigUint::from_limbs(
                (0..m_bits.div_ceil(64)).map(|_| rng.gen::<u64>()).collect(),
            );
            m.set_bit(m_bits - 1, true);
            if m.is_one() {
                continue;
            }
            let base = BigUint::from_limbs((0..6).map(|_| rng.gen::<u64>()).collect());
            let exp = BigUint::from_limbs((0..3).map(|_| rng.gen::<u64>()).collect());
            let expected = base.modpow_schoolbook(&exp, &m);
            assert_eq!(base.modpow(&exp, &m), expected);
        }
    }

    #[test]
    fn modpow_matches_naive() {
        let m = big(1_000_000_007);
        let base = big(31_337);
        let mut naive = BigUint::one();
        for e in 0..50u64 {
            assert_eq!(base.modpow(&BigUint::from(e), &m), naive, "e = {e}");
            naive = naive * &base % &m;
        }
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // p prime => a^(p-1) = 1 mod p.
        let p = big(1_000_000_007);
        for a in [2u64, 3, 65_537, 123_456_789] {
            assert_eq!(big(a as u128).modpow(&(&p - 1u32), &p), BigUint::one());
        }
    }

    #[test]
    fn bits_and_set_bit() {
        let mut x = BigUint::zero();
        assert_eq!(x.bits(), 0);
        x.set_bit(127, true);
        assert_eq!(x.bits(), 128);
        assert_eq!(x, BigUint::one() << 127u32);
        x.set_bit(0, true);
        assert!(x.is_odd());
        x.set_bit(127, false);
        assert_eq!(x, BigUint::one());
    }

    #[test]
    fn byte_codec_round_trip() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128 + 12_345] {
            let x = big(v);
            assert_eq!(BigUint::from_bytes_be(&x.to_bytes_be()), x);
        }
        let large = (BigUint::one() << 300u32) - BigUint::from(9u32);
        assert_eq!(BigUint::from_bytes_be(&large.to_bytes_be()), large);
    }

    #[test]
    fn display_matches_u128_formatting() {
        for v in [0u128, 9, 10, 12_345_678_901_234_567_890_123_456_789u128] {
            assert_eq!(big(v).to_string(), v.to_string());
        }
        // A value needing more than one 10^19 chunk with internal zero padding.
        let x = big(100_000_000_000_000_000_000_000u128);
        assert_eq!(x.to_string(), "100000000000000000000000");
    }

    #[test]
    fn pow_and_sqrt() {
        assert_eq!(big(7).pow(0), BigUint::one());
        assert_eq!(big(7).pow(3), big(343));
        let x = big(144);
        assert_eq!(x.sqrt(), big(12));
        // Single-limb values past 2^53, where the f64 seed is inexact.
        assert_eq!(big(u64::MAX as u128).sqrt(), big((1u128 << 32) - 1));
        let k = 3_037_000_499u128; // floor(sqrt(2^63)) + margin
        assert_eq!(big(k * k).sqrt(), big(k));
        assert_eq!(big(k * k - 1).sqrt(), big(k - 1));
        assert_eq!(big(k * k + 1).sqrt(), big(k));
        let big_square = big(123_456_789) * big(123_456_789);
        assert_eq!(big_square.sqrt(), big(123_456_789));
        let huge = (BigUint::one() << 130u32) + BigUint::one();
        let r = huge.sqrt();
        assert!(&r * &r <= huge && &(&r + 1u32) * &(&r + 1u32) > huge);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(48).gcd(&big(36)), big(12));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    /// Operands around every edge the in-place kernels branch on: zero,
    /// one limb, all-ones limbs (a carry out of the top limb), and values
    /// shorter than, as long as and longer than 16 limbs.
    fn in_place_operands() -> Vec<BigUint> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A);
        let mut values = vec![BigUint::zero(), BigUint::one(), big(u64::MAX as u128), big(u128::MAX)];
        for limbs in [1usize, 2, 15, 16, 17, 40] {
            values.push(BigUint::from_limbs(vec![u64::MAX; limbs]));
            values.push(BigUint::from_limbs((0..limbs).map(|_| rng.gen::<u64>() | 1).collect()));
        }
        values
    }

    #[test]
    fn in_place_add_shift_and_clone_from_match_the_allocating_operators() {
        let values = in_place_operands();
        for a in &values {
            for b in &values {
                let mut sum = a.clone();
                sum += b;
                assert_eq!(sum, a + b, "{a} += {b}");
                let mut owned = a.clone();
                owned += b.clone();
                assert_eq!(owned, sum);
                let mut copy = a.clone();
                copy.clone_from(b);
                assert_eq!(copy, b.clone());
                assert_eq!(copy.limbs, b.limbs, "a clone is normalised like its source");
            }
            let mut doubled = a.clone();
            doubled += &a.clone();
            assert_eq!(doubled, a << 1u32, "a value added to a copy of itself");
            for bits in [0u32, 1, 63, 64, 65, 127, 128, 1_000] {
                let mut shifted = a.clone();
                shifted <<= bits;
                assert_eq!(shifted, a << bits, "{a} <<= {bits}");
                assert_eq!(&shifted >> bits, *a);
                assert_ne!(shifted.limbs.last(), Some(&0), "the top limb stays significant");
            }
        }
    }

    #[test]
    fn in_place_operators_grow_their_buffer_exactly() {
        // A gossip unit: 16 limbs, added to, doubled and overwritten by a
        // peer's a few hundred times.  Amortised doubling would leave it
        // holding up to twice what it uses; exact growth never leaves more
        // than the one limb a shift's spill may have asked for.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1B);
        let mut random = |limbs: usize| BigUint::from_limbs((0..limbs).map(|_| rng.gen::<u64>() | 1).collect());
        let mut value = random(16);
        let mut mirror = value.clone();
        for step in 0..200usize {
            match step % 4 {
                0 => {
                    let addend = random(1 + step % value.limbs.len());
                    value += &addend;
                    mirror = &mirror + &addend;
                }
                1 => {
                    let bits = [1u32, 3, 64, 7][step / 4 % 4];
                    value <<= bits;
                    mirror = &mirror << bits;
                }
                2 => {
                    let addend = random(value.limbs.len());
                    value += &addend;
                    mirror = &mirror + &addend;
                }
                _ => {
                    // A peer's merged state is never shorter than ours.
                    let peer = &value + random(value.limbs.len() + step % 3);
                    value.clone_from(&peer);
                    mirror = peer;
                }
            }
            assert_eq!(value, mirror, "step {step}");
            assert!(
                value.limbs.capacity() <= value.limbs.len() + 1,
                "step {step}: {} limbs in a buffer of {}",
                value.limbs.len(),
                value.limbs.capacity()
            );
        }
    }

    #[test]
    fn shifts() {
        let one = BigUint::one();
        assert_eq!((&one << 64u32) >> 64u32, one);
        let mut d = big(40);
        d >>= 1;
        assert_eq!(d, big(20));
        assert_eq!(big(5) << 2u32, big(20));
    }
}
