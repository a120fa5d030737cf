//! Multi-precision integer arithmetic for the torus-FPGA reproduction.
//!
//! This crate provides the arbitrary-precision unsigned integer type
//! [`BigUint`], the radix-2^w primitives the DATE 2008 paper builds on
//! (Montgomery modular multiplication in the FIOS schedule of its
//! Algorithm 1), generic modular arithmetic, extended GCD / modular
//! inversion and Miller–Rabin based prime generation. A [`ResidueJob`],
//! written once over [`ResidueOps`], runs through [`MontgomeryParams::run`]
//! on the stack context of its modulus's width ([`fixed`]) or, at widths
//! without one, on the heap reference. [`recoding`] writes each exponent
//! and scalar recoding once, as a stream of steps every exponentiation and
//! ladder folds.
//!
//! Every higher layer of the reproduction (the `field` tower, the `ceilidh`
//! torus cryptosystem, the `ecc` and `rsa` comparators and the `platform`
//! coprocessor simulator) is built on, and verified against, this crate.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), bignum::ParseBigUintError> {
//! use bignum::{BigUint, MontgomeryParams};
//!
//! let p = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffac73")?;
//! let a = BigUint::from(123456789u64);
//! let b = BigUint::from(987654321u64);
//!
//! let mont = MontgomeryParams::new(&p).expect("odd modulus");
//! let am = mont.to_mont(&a);
//! let bm = mont.to_mont(&b);
//! let prod = mont.from_mont(&mont.mont_mul(&am, &bm));
//! assert_eq!(prod, (&a * &b) % &p);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fixed;
mod gcd;
mod limb;
mod modular;
mod montgomery;
mod prime;
pub mod recoding;
mod residue;
mod uint;

pub use error::{DivideByZeroError, ParseBigUintError};
pub use gcd::{extended_gcd, gcd, ExtendedGcd};
pub use limb::{DoubleLimb, Limb, LIMB_BITS};
pub use modular::{mod_add, mod_exp, mod_inv, mod_mul, mod_neg, mod_sub};
pub use montgomery::MontgomeryParams;
pub use prime::{gen_prime, gen_prime_congruent, is_prime, miller_rabin};
pub use recoding::ExponentBits;
pub use residue::{square_and_multiply, ResidueJob, ResidueOps};
pub use uint::BigUint;
