//! Offline stand-in for the `num-bigint` crate.
//!
//! The build environment cannot reach crates.io, so this workspace ships a
//! real — not mocked — arbitrary-precision **unsigned** integer, [`BigUint`],
//! covering the API subset the Damgård–Jurik crypto substrate uses (which
//! needs no signed type: see `chiaroscuro_crypto::arith`): schoolbook
//! multiplication, Knuth Algorithm D division, modular exponentiation,
//! Euclidean gcd, bit manipulation, byte/limb codecs and the `RandBigInt`
//! sampling extension over the workspace's `rand` shim.
//!
//! Numbers in this workspace stay below ~4096 bits (the paper's 1024-bit
//! RSA moduli with Damgård–Jurik exponent `s ≤ 2` give `n^{s+1}` ≈ 3072
//! bits), so quadratic multiplication is the right trade-off — no Karatsuba.
//! Modular exponentiation, the crypto hot path, additionally ships a
//! Montgomery path ([`montgomery::MontgomeryCtx`]) with windowed
//! exponentiation that [`BigUint::modpow`] takes for every odd modulus;
//! the binary schoolbook ladder, [`BigUint::modpow_schoolbook`], serves
//! even moduli and is the reference the differential test battery
//! compares against.

mod biguint;
pub mod montgomery;
mod rand_support;

pub use biguint::BigUint;
pub use rand_support::RandBigInt;

#[doc(hidden)]
pub mod fastpath {
    // `chiarobench/src/measure.rs` asserts this and cannot change in a
    // protocol PR; it goes when a benchmark PR drops that assert.
    pub const fn enabled() -> bool {
        true
    }
}
