//! Additively-homomorphic threshold encryption for the Chiaroscuro
//! reproduction.
//!
//! The paper (§3.3.1) requires an encryption scheme that is
//!
//! 1. *semantically secure*,
//! 2. *additively homomorphic* — `D(E(a) +ₕ E(b)) = a + b`, and
//! 3. *non-interactively threshold-decryptable* — the decryption key is split
//!    into key-shares and any τ distinct partial decryptions can be combined.
//!
//! The concrete instance used by the paper is the Damgård–Jurik
//! generalisation of Paillier, which this crate implements from scratch on
//! top of `num-bigint` arithmetic:
//!
//! * [`primes`] — Miller–Rabin primality testing and random prime generation;
//! * [`arith`] — modular inverses, the Damgård–Jurik plaintext-extraction
//!   function, factorials and Lagrange coefficients;
//! * [`keys`] — key generation (`n = p·q`, `g = 1 + n`, the mask base
//!   `h_s = h^{n^s}`, the CRT-combined threshold exponent `d`);
//! * [`crt`] — CRT-split exponentiation modulo `n^{s+1}` for holders of the
//!   factorisation (half-width Montgomery halves, group-order exponent
//!   reduction, Garner recombination — the Damgård–Jurik fast path);
//! * [`scheme`] — encryption (`g^m · h_s^α`, the short-exponent fixed-base
//!   mask of Damgård–Jurik–Nielsen), decryption, homomorphic addition and
//!   scalar multiplication, re-randomisation;
//! * [`threshold`] — Shamir sharing of `d`, partial decryption with one
//!   key-share, and combination of τ partial decryptions;
//! * [`encoding`] — fixed-point encoding of real-valued time-series measures
//!   (and of possibly *negative* noise shares) into the plaintext space;
//! * [`packing`] — the lane-packed vector encoding: many fixed-point
//!   coordinates per plaintext in disjoint bit-lanes, with a validated
//!   overflow contract (cuts ciphertext counts by the lane factor);
//! * [`wire`] — the ciphertext wire-size model used by the bandwidth figures;
//! * [`backend`] — the pluggable [`backend::CipherBackend`] abstraction over
//!   everything the protocol does with ciphertexts, with the real
//!   [`backend::DamgardJurik`] scheme and the exact
//!   [`backend::PlaintextSurrogate`] that lets million-node protocol
//!   simulations skip the modular arithmetic.
//!
//! # Security caveat
//!
//! This is a research reproduction.  The primitives follow the textbook
//! algorithms and are validated by round-trip and property tests, but the
//! code has not been audited, does not attempt constant-time execution, and
//! must not be used to protect real personal data.

pub mod arith;
pub mod backend;
pub mod crt;
pub mod encoding;
pub mod keys;
pub mod packing;
pub mod primes;
pub mod scheme;
pub mod threshold;
pub mod wire;

pub use backend::{BackendSetup, CipherBackend, DamgardJurik, PlaintextSurrogate};
pub use crt::CrtContext;
pub use encoding::FixedPointEncoder;
pub use keys::{KeyPair, PublicKey, SecretKey};
pub use packing::{LaneBudget, PackedEncoder, PackedLayout, PackingError};
pub use scheme::Ciphertext;
pub use threshold::{KeyShare, PartialDecryption, ThresholdDealer};

/// Commonly used items.
pub mod prelude {
    pub use crate::backend::{BackendSetup, CipherBackend, DamgardJurik, PlaintextSurrogate};
    pub use crate::encoding::FixedPointEncoder;
    pub use crate::keys::{KeyPair, PublicKey, SecretKey};
    pub use crate::packing::{LaneBudget, PackedEncoder, PackedLayout, PackingError};
    pub use crate::scheme::Ciphertext;
    pub use crate::threshold::{KeyShare, PartialDecryption, ThresholdDealer};
}
