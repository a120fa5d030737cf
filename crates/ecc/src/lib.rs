//! Elliptic-curve cryptography over prime fields.
//!
//! The paper implements 160-bit ECC over `Fp` on the same multicore
//! platform as CEILIDH and RSA, and reports it to be roughly twice as fast
//! as the torus at equivalent security (Table 3). This crate provides the
//! comparator: short-Weierstrass curves `y² = x³ + ax + b`, affine and
//! Jacobian group laws, scalar multiplication (double-and-add, NAF and
//! fixed-window), point compression and Diffie–Hellman, together with the
//! per-operation `Fp` multiplication/addition counts that feed the platform
//! cycle model.
//!
//! The point formulas live in [`formulas`], each written once over
//! [`field::FieldOps`] and shared by the host ladders and the platform
//! simulator's programs. The ladders around them — the degenerate cases,
//! the return to affine form, the four scalar-multiplication algorithms
//! and the batch driver — live in [`ladder`], each written once over
//! [`field::ValueOps`]. [`Curve::scalar_mul`] and
//! [`Curve::scalar_mul_batch`] hand their ladders to
//! [`field::FpContext::run`], which runs them on the field's own stack
//! context at every width up to 256 bits and counts them in one update;
//! the single `jacobian_*` operations run on the counted field.
//!
//! Curves are described by the [`WeierstrassParameters`] trait — constants
//! as associated data on zero-sized marker types — and built through
//! [`Curve::from_parameters`] (or [`Curve::by_name`] at runtime). The
//! registry ships the standards curves [`Secp256k1`] and [`P256`] alongside
//! the paper's [`P160Reproduction`] and the tiny [`Toy`] validation curve;
//! one-off curves use the [`CurveSpec`] builder directly.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), ecc::EccError> {
//! use ecc::prelude::*;
//!
//! let mut rng = rand::thread_rng();
//! let curve = Curve::from_parameters::<Secp256k1>()?;
//! let alice = EccKeyPair::generate(&curve, &mut rng);
//! let bob = EccKeyPair::generate(&curve, &mut rng);
//! let k1 = curve.shared_secret(alice.secret(), bob.public())?;
//! let k2 = curve.shared_secret(bob.secret(), alice.public())?;
//! assert_eq!(k1, k2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curve;
mod ecdh;
mod error;
pub mod formulas;
pub mod ladder;
mod params;
mod point;
mod scalar;

pub use curve::{Curve, CurveSpec};
pub use ecdh::EccKeyPair;
pub use error::EccError;
pub use params::{P160Reproduction, Secp256k1, Toy, WeierstrassParameters, P256};
pub use point::{AffinePoint, JacobianPoint};
pub use scalar::{naf_digits, window_digits, ScalarMulAlgorithm};

/// One-line import for the common ECC surface: the parameter trait, the
/// registered marker types, the curve and point types, and the key-exchange
/// helpers.
///
/// ```
/// use ecc::prelude::*;
///
/// let curve = Curve::by_name("p256")?;
/// assert!(curve.a_is_minus_three());
/// # Ok::<(), EccError>(())
/// ```
pub mod prelude {
    pub use crate::curve::{Curve, CurveSpec};
    pub use crate::ecdh::EccKeyPair;
    pub use crate::error::EccError;
    pub use crate::params::{P160Reproduction, Secp256k1, Toy, WeierstrassParameters, P256};
    pub use crate::point::{AffinePoint, JacobianPoint};
    pub use crate::scalar::{naf_digits, ScalarMulAlgorithm};
}
