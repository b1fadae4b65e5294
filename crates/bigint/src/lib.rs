//! Minimal multiprecision arithmetic for the base oblivious transfer.
//!
//! DeepSecure's base OTs run Diffie-Hellman-style exponentiations in a
//! multiplicative group modulo a large prime (the MODP groups of RFC 3526).
//! This crate implements exactly the arithmetic that needs from scratch:
//!
//! * [`Ubig`] — an arbitrary-precision unsigned integer over 64-bit limbs
//!   with schoolbook multiplication and binary long division.
//! * [`Mont`] — a Montgomery (CIOS) multiplication context providing
//!   allocation-free products and fixed-window `modpow` for odd moduli.
//! * [`DhGroup`] — named groups: RFC 3526 1536/2048-bit and the RFC 2409
//!   768-bit group (the default base-OT group), with fixed-base tables for
//!   powers of the generator and batched inversion.
//!
//! # Example
//!
//! ```
//! use deepsecure_bigint::{DhGroup, Ubig};
//!
//! let group = DhGroup::modp_768();
//! let x = Ubig::from(123_456_789u64);
//! let gx = group.pow(&group.generator().clone(), &x);
//! assert!(gx < *group.prime());
//! ```

mod group;
mod mont;
mod ubig;

pub use group::DhGroup;
pub use mont::Mont;
pub use ubig::{ParseUbigError, Ubig};
