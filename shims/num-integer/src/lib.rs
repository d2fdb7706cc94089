//! Offline stand-in for the `num-integer` crate.
//!
//! Provides the [`Integer`] trait with the operations this workspace uses
//! (`div_rem`, `gcd`, `lcm`, parity queries, floored division).  The big
//! integer type of the sibling `num-bigint` shim implements this trait, just
//! as the upstream crate does.

use num_traits::{One, Zero};

/// Integer operations beyond the primitive arithmetic operators.
pub trait Integer: Sized + Zero + One + Ord {
    /// Truncated division and remainder in one call.
    fn div_rem(&self, other: &Self) -> (Self, Self);
    /// Greatest common divisor (always non-negative).
    fn gcd(&self, other: &Self) -> Self;
    /// Least common multiple.
    fn lcm(&self, other: &Self) -> Self;
    /// Floored division.
    fn div_floor(&self, other: &Self) -> Self;
    /// Remainder of floored division (sign of the divisor).
    fn mod_floor(&self, other: &Self) -> Self;
    /// Whether `self` is even.
    fn is_even(&self) -> bool;
    /// Whether `self` is odd.
    fn is_odd(&self) -> bool;
    /// Whether `other` divides `self` exactly.
    fn divides(&self, other: &Self) -> bool {
        self.is_multiple_of(other)
    }
    /// Whether `self` is a multiple of `other`.
    fn is_multiple_of(&self, other: &Self) -> bool;
}

macro_rules! impl_integer_unsigned {
    ($($t:ty),*) => {$(
        impl Integer for $t {
            fn div_rem(&self, other: &Self) -> (Self, Self) { (self / other, self % other) }
            fn gcd(&self, other: &Self) -> Self {
                let (mut a, mut b) = (*self, *other);
                while b != 0 {
                    let r = a % b;
                    a = b;
                    b = r;
                }
                a
            }
            fn lcm(&self, other: &Self) -> Self {
                if *self == 0 || *other == 0 { 0 } else { self / self.gcd(other) * other }
            }
            fn div_floor(&self, other: &Self) -> Self { self / other }
            fn mod_floor(&self, other: &Self) -> Self { self % other }
            fn is_even(&self) -> bool { self % 2 == 0 }
            fn is_odd(&self) -> bool { self % 2 == 1 }
            fn is_multiple_of(&self, other: &Self) -> bool {
                if *other == 0 { *self == 0 } else { self % other == 0 }
            }
        }
    )*};
}

impl_integer_unsigned!(u8, u16, u32, u64, u128, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_basics() {
        assert_eq!(14u64.div_rem(&4), (3, 2));
        assert_eq!(12u32.gcd(&18), 6);
        assert_eq!(4u32.lcm(&6), 12);
        assert!(4u32.is_even());
        assert!(7u32.is_odd());
    }
}
