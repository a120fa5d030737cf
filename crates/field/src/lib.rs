//! Finite-field arithmetic for the torus-FPGA reproduction.
//!
//! The DATE 2008 paper performs all CEILIDH arithmetic in the
//! representation `F1 = Fp6 = Fp[z]/(z^6 + z^3 + 1)` (Section 2.2), built
//! from prime-field operations that the coprocessor executes as Montgomery
//! modular multiplications and modular additions. This crate provides the
//! whole tower:
//!
//! * [`FpContext`]/[`FpElement`] — the base prime field with Montgomery
//!   arithmetic and M/A/I operation counting (the counts drive the cycle
//!   model in the `platform` crate).
//! * [`Fp3Context`] — `Fp[x]/(x^3 - 3x + 1)`, the cubic subfield generated
//!   by `ζ9 + ζ9^{-1}` (requires `p ≡ 2, 5 mod 9`).
//! * [`Fp6Context`] — the paper's representation F1 with the 18M + ~60A
//!   Karatsuba multiplication, Frobenius maps, norms and inversion.
//! * [`F2Repr`] — the representation F2 = `Fp3[y]/(y^2 - x·y + 1)` of
//!   Fig. 1 with the maps τ / τ⁻¹ between F1 and F2.
//! * [`FieldOps`] — the mul/add/sub/copy interface every composite
//!   formula is written against once ([`karatsuba_fp6`] here, the ECC
//!   point formulas in the `ecc` crate), instantiated on the field, the
//!   tally every field job runs behind and the platform's program
//!   recorder.
//! * [`ValueOps`] — what the value backends add for the `ecc` scalar
//!   ladders: constants, the zero test, negation, one batched inversion
//!   and the conversions from and to [`FpElement`].
//! * [`FieldJob`] — a computation written once over [`ValueOps`], which
//!   [`FpContext::run`] runs as one [`bignum::MontgomeryParams::run`]
//!   behind a tally, added to the shared [`OpCounter`] when it returns.
//!   Every [`FpContext`] operation is such a job, and so are each
//!   [`Fp6Context`] product and exponentiation and each `ecc` scalar
//!   ladder. `MontgomeryParams::run` is the only place that picks a width:
//!   this crate stores the residues of fields of at most 256 bits in four
//!   words, and never picks a context.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), field::FieldError> {
//! use bignum::BigUint;
//! use field::{FpContext, Fp6Context};
//!
//! // A small prime p ≡ 2 (mod 9) for illustration.
//! let fp = FpContext::new(&BigUint::from(101u64))?;
//! let fp6 = Fp6Context::new(fp.clone())?;
//! let a = fp6.from_u64_coeffs([1, 2, 3, 4, 5, 6]);
//! let inv = fp6.inv(&a).expect("non-zero");
//! assert_eq!(fp6.mul(&a, &inv), fp6.one());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod f2repr;
mod formulas;
mod fp;
mod fp3;
mod fp6;
mod linalg;
mod opcount;

pub use error::FieldError;
pub use f2repr::{F2Element, F2Repr};
pub use formulas::{karatsuba_fp6, FieldJob, FieldOps, ValueOps};
pub use fp::{FpContext, FpElement};
pub use fp3::{Fp3Context, Fp3Element};
pub use fp6::{Fp6Context, Fp6Element};
pub use linalg::FpMatrix;
pub use opcount::{OpCount, OpCounter};
