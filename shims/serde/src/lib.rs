//! Offline stand-in for `serde`.
//!
//! The workspace annotates its data structures with
//! `#[derive(Serialize, Deserialize)]` but never routes them through a
//! serde serializer (the crypto wire format is hand-rolled).  This shim
//! keeps those annotations compiling without crates.io access:
//!
//! * [`Serialize`] and [`Deserialize`] are marker traits, blanket-implemented
//!   for every type;
//! * the derive macros (re-exported from the `serde_derive` shim) expand to
//!   nothing.
//!
//! If the real serde is ever restored, the derives regain their meaning
//! without touching any annotated type.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize {}

impl<T: ?Sized> Deserialize for T {}

#[cfg(test)]
mod tests {
    #[allow(unused_imports, reason = "the derive macros resolve by name; the blanket-impl traits are never named")]
    use super::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, super::Serialize, super::Deserialize)]
    struct Annotated<T> {
        value: T,
    }

    fn assert_bounds<T: super::Serialize>() {}

    #[test]
    fn derives_and_bounds_compile() {
        assert_bounds::<Annotated<u32>>();
        let a = Annotated { value: 7u32 };
        assert_eq!(a.clone(), a);
    }
}
