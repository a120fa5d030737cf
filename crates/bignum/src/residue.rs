//! One interface over the two Montgomery backends, and computations written
//! once against it.
//!
//! [`ResidueOps`] is what a computation on residues modulo one odd modulus
//! needs: Montgomery products, modular sums and differences, the Montgomery
//! one, and the conversions from and to [`BigUint`]. It has two
//! implementations: the stack [`MontgomeryContext<L>`] (CIOS on `L` words)
//! and [`MontgomeryParams`] itself (the heap FIOS reference). A
//! [`ResidueJob`] is written once over the trait, and
//! [`MontgomeryParams::run`] runs it on the stack context of the modulus's
//! width, or on the heap reference at widths without one. The two backends
//! share the radix `R`, so a job computes the same residues on either.

use crate::fixed::{add_mod, sub_mod, MontgomeryContext, Uint};
use crate::modular::{mod_add, mod_sub};
use crate::montgomery::MontgomeryParams;
use crate::uint::BigUint;

/// Arithmetic on reduced residues modulo one odd modulus.
///
/// Every operation takes reduced operands (`< p`) and returns a reduced
/// result, and every backend computes the same residues.
pub trait ResidueOps {
    /// A residue in the backend's own representation, ordered as the
    /// integer it holds.
    type Elem: Clone + Ord;

    /// The Montgomery product `a·b·R⁻¹ mod p`.
    fn mont_mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `a + b mod p`.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `a − b mod p`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `R mod p`, the Montgomery form of 1.
    fn one_mont(&self) -> Self::Elem;

    /// The backend form of `v`, which must fit the modulus's width; `v` is
    /// repacked, not reduced.
    fn lower(&self, v: &BigUint) -> Self::Elem;

    /// The integer a backend value holds.
    fn lift(&self, e: &Self::Elem) -> BigUint;
}

/// A computation written once over [`ResidueOps`], which
/// [`MontgomeryParams::run`] runs on the backend of the modulus's width.
pub trait ResidueJob {
    /// What the job returns.
    type Output;

    /// Runs the job on `r`.
    fn run<R: ResidueOps>(self, r: &R) -> Self::Output;
}

/// CIOS products and word-level sums on `L` stack words.
impl<const L: usize> ResidueOps for MontgomeryContext<L> {
    type Elem = Uint<L>;

    #[inline]
    fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        MontgomeryContext::mont_mul(self, a, b)
    }

    #[inline]
    fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        add_mod(a, b, self.modulus())
    }

    #[inline]
    fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        sub_mod(a, b, self.modulus())
    }

    fn one_mont(&self) -> Uint<L> {
        MontgomeryContext::one_mont(self)
    }

    fn lower(&self, v: &BigUint) -> Uint<L> {
        Uint::from_biguint(v).expect("the value fits the modulus's width")
    }

    fn lift(&self, e: &Uint<L>) -> BigUint {
        e.to_biguint()
    }
}

/// The heap FIOS reference: [`MontgomeryParams::mont_mul`] products and
/// `BigUint` sums.
impl ResidueOps for MontgomeryParams {
    type Elem = BigUint;

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        MontgomeryParams::mont_mul(self, a, b)
    }

    fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        mod_add(a, b, self.modulus())
    }

    fn sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        mod_sub(a, b, self.modulus())
    }

    fn one_mont(&self) -> BigUint {
        MontgomeryParams::one_mont(self)
    }

    fn lower(&self, v: &BigUint) -> BigUint {
        v.clone()
    }

    fn lift(&self, e: &BigUint) -> BigUint {
        e.clone()
    }
}
