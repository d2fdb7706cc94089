//! Offline stand-in for the `num-traits` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the small subset of `num-traits` it actually uses: the additive and
//! multiplicative identities ([`Zero`], [`One`]).  The API mirrors the
//! upstream crate so the source code keeps compiling unchanged if the real
//! dependency is ever restored.

use std::ops::{Add, Mul};

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
    )*};
}

impl_identities_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert!(u32::zero().is_zero());
        assert!(u64::one().is_one());
        assert!(f64::zero().is_zero());
    }
}
