//! Stack-allocated fixed-width integers: the const-generic fast backend.
//!
//! [`BigUint`](crate::BigUint) keeps its limbs in a `Vec<u32>`, which makes
//! every ladder step on the host allocate. When the operand width is known
//! — every field of the paper (160, 170 bits), the 256-bit named curves,
//! the RSA-1024 moduli and their CRT halves — the arithmetic can instead
//! run on a `[u64; LIMBS]` stack array with `u128` carry/widening
//! primitives and no heap traffic at all:
//!
//! - [`Uint`]: the `Copy` const-generic integer with explicit
//!   carry/borrow/widening arithmetic and `BigUint` conversions.
//! - [`MontgomeryContext`]: CIOS Montgomery multiplication, SOS squaring,
//!   exponentiation and Fermat inversion with zero allocation past setup,
//!   mirroring [`MontgomeryParams`](crate::MontgomeryParams); it implements
//!   [`ResidueOps`](crate::ResidueOps), whose batched inversion
//!   (Montgomery's trick) every ladder's affine normalization runs on.
//! - The width rule, [`montgomery_words`]: a modulus of `n` bits runs on
//!   `MontgomeryContext<L>` with `L = ⌈n/64⌉`. The heap backend uses the
//!   same radix `R = 2^(64·L)` at every width, so Montgomery forms are
//!   interchangeable and results bit-identical.
//!   [`MontgomeryParams`](crate::MontgomeryParams) builds the `L`-word
//!   context once for `L` in {1, 2, 3, 4, 8, 16}, and its
//!   [`run`](crate::MontgomeryParams::run), the one place that picks a
//!   width, hands it every [`ResidueJob`](crate::ResidueJob).
//! - Free modular helpers ([`add_mod`], [`sub_mod`], [`neg_mod`],
//!   [`mul_mod`], [`reduce_wide`]) for reduced fixed-width residues.
//!
//! Higher layers do not construct these directly. `field::FpContext`
//! stores every residue of a field of at most 256 bits in four words of a
//! [`Uint`] and runs each of its operations, and whole computations such
//! as the `ecc` ladders, as jobs through `MontgomeryParams::run`; RSA and
//! the platform simulator reach the stack the same way. The differential
//! proptest suite (`tests/fixed_uint_properties.rs`) pins every operation
//! here to the heap backend bit for bit.

mod modular;
mod montgomery;
mod uint;
mod width;

pub use modular::{add_mod, mul_mod, neg_mod, reduce_wide, sub_mod};
pub use montgomery::MontgomeryContext;
pub use uint::{Uint, FIXED_LIMB_BITS};
pub use width::montgomery_words;

// The u64 carry/borrow/widening primitives, re-exported for differential
// test harnesses; higher layers use the typed `Uint` operations instead.
pub use crate::limb::{borrowing_sub64, carrying_add64, mac64, widening_mul64};
