//! RSA — the second comparator of the DATE 2008 evaluation.
//!
//! The paper reports one 1024-bit RSA exponentiation at 96 ms on the same
//! platform that runs the 170-bit torus exponentiation in 20 ms (Table 3),
//! and a 1024-bit Montgomery modular multiplication at 4447 cycles versus
//! 193 cycles for the 170-bit one (Table 1). This crate provides the
//! host-side RSA implementation used to verify the platform simulator and
//! to drive those benchmark rows: key generation, raw and padded
//! encryption/decryption, signatures, and CRT-accelerated private-key
//! operations on a regular exponentiation schedule, each result checked
//! by re-encryption before release.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), rsa_torus::RsaError> {
//! use rsa_torus::RsaKeyPair;
//!
//! let mut rng = rand::thread_rng();
//! // 512-bit keys keep the doc test fast; the benches use 1024 bits.
//! let keys = RsaKeyPair::generate(512, &mut rng)?;
//! let msg = b"torus beats us on bandwidth";
//! let ct = keys.public().encrypt(msg, &mut rng)?;
//! assert_eq!(keys.decrypt(&ct)?, msg);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod keys;
mod padding;

pub use error::RsaError;
pub use keys::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use padding::{pad_encrypt, pad_sign, unpad_encrypt, unpad_sign};
