//! CEILIDH — public-key cryptography on the algebraic torus `T6(Fp)`.
//!
//! This crate is the primary contribution of the reproduction of
//! *"FPGA Design for Algebraic Tori-Based Public-Key Cryptography"*
//! (Fan, Batina, Sakiyama, Verbauwhede — DATE 2008). It implements the
//! CEILIDH cryptosystem of Rubin and Silverberg on top of the
//! representation F1 = `Fp[z]/(z^6 + z^3 + 1)` provided by the `field`
//! crate:
//!
//! * [`CeilidhParams`] — domain parameters: a prime `p ≡ 2, 5 (mod 9)`,
//!   a large prime `q` dividing `Φ6(p) = p² - p + 1`, and a generator of
//!   the order-`q` subgroup of the torus.
//! * [`TorusElement`] and the group operations (multiplication, cheap
//!   conjugation-based inversion, exponentiation, membership testing).
//! * [`compress`]/[`decompress`] — CEILIDH's maps ρ/ψ, the factor-3
//!   bandwidth compression: two `Fp` elements, a third of an `Fp6`
//!   element.
//! * Key exchange ([`KeyPair`], [`shared_secret`]), ElGamal-style
//!   encryption ([`encrypt_element`]/[`decrypt_element`]) and Schnorr-style
//!   signatures ([`sign`]/[`verify`]).
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), ceilidh::CeilidhError> {
//! use ceilidh::{CeilidhParams, KeyPair, shared_secret};
//!
//! let mut rng = rand::thread_rng();
//! let params = CeilidhParams::toy()?; // small parameters for demos/tests
//!
//! let alice = KeyPair::generate(&params, &mut rng);
//! let bob = KeyPair::generate(&params, &mut rng);
//!
//! let k_ab = shared_secret(&params, alice.secret(), bob.public());
//! let k_ba = shared_secret(&params, bob.secret(), alice.public());
//! assert_eq!(k_ab, k_ba);
//! # Ok(())
//! # }
//! ```
//!
//! The 170-bit parameter set matching the paper's evaluation is available
//! as [`CeilidhParams::date2008`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compress;
mod elgamal;
mod error;
mod kdf;
mod keys;
mod params;
mod schnorr;
mod torus;

pub use compress::{compress, decompress, CompressedTorus};
pub use elgamal::{
    decrypt_element, decrypt_hybrid, encrypt_element, encrypt_hybrid, ElGamalCiphertext,
    HybridCiphertext,
};
pub use error::CeilidhError;
pub use kdf::ToyKdf;
pub use keys::{shared_secret, shared_secret_bytes, KeyPair, PublicKey, SecretKey};
pub use params::CeilidhParams;
pub use schnorr::{sign, verify, Signature};
pub use torus::TorusElement;
