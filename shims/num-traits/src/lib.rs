//! Offline stand-in for the `num-traits` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the small subset of `num-traits` it actually uses: the additive and
//! multiplicative identities ([`Zero`], [`One`]) and the sign queries of
//! [`Signed`].  The API mirrors the upstream crate so the source code keeps
//! compiling unchanged if the real dependency is ever restored.

use std::ops::{Add, Mul, Neg};

/// Additive identity.
pub trait Zero: Sized + Add<Self, Output = Self> {
    /// Returns the additive identity.
    fn zero() -> Self;
    /// Whether `self` is the additive identity.
    fn is_zero(&self) -> bool;
}

/// Multiplicative identity.
pub trait One: Sized + Mul<Self, Output = Self> {
    /// Returns the multiplicative identity.
    fn one() -> Self;
    /// Whether `self` is the multiplicative identity.
    fn is_one(&self) -> bool;
}

/// Signed numbers.
pub trait Signed: Sized + Neg<Output = Self> {
    /// The absolute value.
    fn abs(&self) -> Self;
    /// Whether `self` is strictly positive.
    fn is_positive(&self) -> bool;
    /// Whether `self` is strictly negative.
    fn is_negative(&self) -> bool;
}

macro_rules! impl_identities_int {
    ($($t:ty),*) => {$(
        impl Zero for $t {
            fn zero() -> Self { 0 }
            fn is_zero(&self) -> bool { *self == 0 }
        }
        impl One for $t {
            fn one() -> Self { 1 }
            fn is_one(&self) -> bool { *self == 1 }
        }
    )*};
}

impl_identities_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_identities_float {
    ($($t:ty),*) => {$(
        impl Zero for $t {
            fn zero() -> Self { 0.0 }
            fn is_zero(&self) -> bool { *self == 0.0 }
        }
        impl One for $t {
            fn one() -> Self { 1.0 }
            fn is_one(&self) -> bool { *self == 1.0 }
        }
        impl Signed for $t {
            fn abs(&self) -> Self { <$t>::abs(*self) }
            fn is_positive(&self) -> bool { *self > 0.0 }
            fn is_negative(&self) -> bool { *self < 0.0 }
        }
    )*};
}

impl_identities_float!(f32, f64);

macro_rules! impl_signed_int {
    ($($t:ty),*) => {$(
        impl Signed for $t {
            fn abs(&self) -> Self { <$t>::abs(*self) }
            fn is_positive(&self) -> bool { *self > 0 }
            fn is_negative(&self) -> bool { *self < 0 }
        }
    )*};
}

impl_signed_int!(i8, i16, i32, i64, i128, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert!(u32::zero().is_zero());
        assert!(u64::one().is_one());
        assert!(f64::zero().is_zero());
        assert!((-3i64).is_negative());
        assert_eq!((-3i64).abs(), 3);
    }
}
