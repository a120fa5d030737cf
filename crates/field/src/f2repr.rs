//! Representation F2 of Fig. 1: `Fp6` viewed as `Fp3[y]/(y² - x·y + 1)`.
//!
//! In the paper's notation, F2 is the quadratic extension of `Fp3` and the
//! maps τ / τ⁻¹ convert between F1 (the `z`-power basis of
//! `Fp[z]/(z^6+z^3+1)`) and F2 (pairs of `Fp3` elements). Concretely,
//! `z` itself satisfies `z² - x·z + 1 = 0` over `Fp3` where
//! `x = z + z^{-1}`, so an F2 element `(u, v)` represents `u + v·z`.
//!
//! The DATE paper performs all arithmetic in F1 and notes that "for a
//! complete cryptosystem also the mappings between different representations
//! have to be implemented"; this module supplies those mappings as exact
//! `Fp`-linear basis changes.

use std::fmt;

use rand::Rng;

use crate::error::FieldError;
use crate::fp::{FpContext, FpElement};
use crate::fp3::{Fp3Context, Fp3Element};
use crate::fp6::{Fp6Context, Fp6Element};
use crate::linalg::FpMatrix;

/// An element of representation F2: the pair `(u, v)` standing for `u + v·z`
/// with `u, v ∈ Fp3`.
#[derive(Clone, PartialEq, Eq)]
pub struct F2Element {
    u: Fp3Element,
    v: Fp3Element,
}

impl fmt::Debug for F2Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F2({:?} + {:?}·z)", self.u, self.v)
    }
}

impl F2Element {
    /// The `Fp3` component not multiplied by `z`.
    pub fn u(&self) -> &Fp3Element {
        &self.u
    }

    /// The `Fp3` component multiplied by `z`.
    pub fn v(&self) -> &Fp3Element {
        &self.v
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.u.is_zero() && self.v.is_zero()
    }
}

/// The representation F2 together with the conversion maps τ / τ⁻¹ to and
/// from representation F1.
#[derive(Clone)]
pub struct F2Repr {
    fp: FpContext,
    fp3: Fp3Context,
    fp6: Fp6Context,
    /// τ⁻¹ as a 6×6 matrix: F2 coordinates `(u0,u1,u2,v0,v1,v2)` → F1
    /// coordinates in the `z`-power basis.
    to_f1: FpMatrix,
    /// τ as a 6×6 matrix: the inverse basis change.
    to_f2: FpMatrix,
}

impl fmt::Debug for F2Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F2Repr over {:?}", self.fp)
    }
}

impl F2Repr {
    /// Builds the F2 representation and its conversion matrices.
    ///
    /// # Errors
    ///
    /// Propagates the congruence requirements of [`Fp3Context`] and
    /// [`Fp6Context`] (`p ≡ 2, 5 mod 9`).
    pub fn new(fp: FpContext) -> Result<Self, FieldError> {
        let fp3 = Fp3Context::new(fp.clone())?;
        let fp6 = Fp6Context::new(fp.clone())?;

        // Images of the F2 basis {1, x, x², z, x·z, x²·z} in the z-power basis.
        let x = fp6.zeta_plus_inverse();
        let z = fp6.gen_z();
        let x2 = fp6.mul(&x, &x);
        let basis = [
            fp6.one(),
            x.clone(),
            x2.clone(),
            z.clone(),
            fp6.mul(&x, &z),
            fp6.mul(&x2, &z),
        ];
        let mut to_f1 = FpMatrix::zero(&fp, 6, 6);
        for (col, e) in basis.iter().enumerate() {
            for (row, coeff) in e.coeffs().iter().enumerate() {
                to_f1.set(row, col, coeff.clone());
            }
        }
        let to_f2 = to_f1.inverse()?;
        Ok(F2Repr {
            fp,
            fp3,
            fp6,
            to_f1,
            to_f2,
        })
    }

    /// The underlying prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The `Fp3` context the components live in.
    pub fn fp3(&self) -> &Fp3Context {
        &self.fp3
    }

    /// The F1 (`Fp6`) context used by the conversion maps.
    pub fn fp6(&self) -> &Fp6Context {
        &self.fp6
    }

    /// The additive identity.
    pub fn zero(&self) -> F2Element {
        F2Element {
            u: self.fp3.zero(),
            v: self.fp3.zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one(&self) -> F2Element {
        F2Element {
            u: self.fp3.one(),
            v: self.fp3.zero(),
        }
    }

    /// Builds an element from its two `Fp3` components.
    pub fn from_components(&self, u: Fp3Element, v: Fp3Element) -> F2Element {
        F2Element { u, v }
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> F2Element {
        F2Element {
            u: self.fp3.random(rng),
            v: self.fp3.random(rng),
        }
    }

    /// The map τ of Fig. 1: representation F1 → representation F2.
    pub fn from_f1(&self, a: &Fp6Element) -> F2Element {
        let coords: Vec<FpElement> = a.coeffs().to_vec();
        let out = self.to_f2.mul_vec(&coords);
        F2Element {
            u: self
                .fp3
                .from_coeffs([out[0].clone(), out[1].clone(), out[2].clone()]),
            v: self
                .fp3
                .from_coeffs([out[3].clone(), out[4].clone(), out[5].clone()]),
        }
    }

    /// The map τ⁻¹ of Fig. 1: representation F2 → representation F1.
    pub fn to_f1(&self, a: &F2Element) -> Fp6Element {
        let coords: Vec<FpElement> =
            a.u.coeffs()
                .iter()
                .chain(a.v.coeffs().iter())
                .cloned()
                .collect();
        let out = self.to_f1.mul_vec(&coords);
        self.fp6
            .from_coeffs(std::array::from_fn(|i| out[i].clone()))
    }

    /// Addition.
    pub fn add(&self, a: &F2Element, b: &F2Element) -> F2Element {
        F2Element {
            u: self.fp3.add(&a.u, &b.u),
            v: self.fp3.add(&a.v, &b.v),
        }
    }

    /// Subtraction.
    pub fn sub(&self, a: &F2Element, b: &F2Element) -> F2Element {
        F2Element {
            u: self.fp3.sub(&a.u, &b.u),
            v: self.fp3.sub(&a.v, &b.v),
        }
    }

    /// Negation.
    pub fn neg(&self, a: &F2Element) -> F2Element {
        F2Element {
            u: self.fp3.neg(&a.u),
            v: self.fp3.neg(&a.v),
        }
    }

    /// Multiplication using `z² = x·z - 1`.
    pub fn mul(&self, a: &F2Element, b: &F2Element) -> F2Element {
        let f3 = &self.fp3;
        let x = f3.gen_x();
        let uu = f3.mul(&a.u, &b.u);
        let vv = f3.mul(&a.v, &b.v);
        let cross = f3.add(&f3.mul(&a.u, &b.v), &f3.mul(&a.v, &b.u));
        F2Element {
            u: f3.sub(&uu, &vv),
            v: f3.add(&cross, &f3.mul(&vv, &x)),
        }
    }

    /// Squaring.
    pub fn square(&self, a: &F2Element) -> F2Element {
        self.mul(a, a)
    }

    /// Conjugation over `Fp3` (`z ↦ z^{-1} = x - z`).
    pub fn conjugate(&self, a: &F2Element) -> F2Element {
        let f3 = &self.fp3;
        let x = f3.gen_x();
        F2Element {
            u: f3.add(&a.u, &f3.mul(&a.v, &x)),
            v: f3.neg(&a.v),
        }
    }

    /// The relative norm `N_{F2/Fp3}(a) = a · ā ∈ Fp3`.
    pub fn norm(&self, a: &F2Element) -> Fp3Element {
        let n = self.mul(a, &self.conjugate(a));
        debug_assert!(n.v.is_zero(), "relative norm must lie in Fp3");
        n.u
    }

    /// Inversion via the relative norm.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for the zero element.
    pub fn inv(&self, a: &F2Element) -> Result<F2Element, FieldError> {
        if a.is_zero() {
            return Err(FieldError::DivisionByZero);
        }
        let conj = self.conjugate(a);
        let n = self.norm(a);
        let n_inv = self.fp3.inv(&n)?;
        Ok(F2Element {
            u: self.fp3.mul(&conj.u, &n_inv),
            v: self.fp3.mul(&conj.v, &n_inv),
        })
    }

    /// Exponentiation by square-and-multiply.
    pub fn exp(&self, base: &F2Element, exp: &bignum::BigUint) -> F2Element {
        bignum::square_and_multiply(self.one(), base, exp, |a, b| self.mul(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::BigUint;
    use rand::SeedableRng;

    fn repr() -> F2Repr {
        F2Repr::new(FpContext::new(&BigUint::from(101u64)).unwrap()).unwrap()
    }

    #[test]
    fn conversion_roundtrip_f1_to_f2() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let a = r.fp6().random(&mut rng);
            assert_eq!(r.to_f1(&r.from_f1(&a)), a);
        }
    }

    #[test]
    fn conversion_roundtrip_f2_to_f1() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..20 {
            let a = r.random(&mut rng);
            assert_eq!(r.from_f1(&r.to_f1(&a)), a);
        }
    }

    #[test]
    fn conversion_is_a_ring_isomorphism() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let a = r.fp6().random(&mut rng);
            let b = r.fp6().random(&mut rng);
            // τ(a·b) = τ(a)·τ(b)
            assert_eq!(
                r.from_f1(&r.fp6().mul(&a, &b)),
                r.mul(&r.from_f1(&a), &r.from_f1(&b))
            );
            // τ(a+b) = τ(a)+τ(b)
            assert_eq!(
                r.from_f1(&r.fp6().add(&a, &b)),
                r.add(&r.from_f1(&a), &r.from_f1(&b))
            );
        }
        assert_eq!(r.from_f1(&r.fp6().one()), r.one());
    }

    #[test]
    fn field_axioms_in_f2() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for _ in 0..10 {
            let a = r.random(&mut rng);
            let b = r.random(&mut rng);
            assert_eq!(r.mul(&a, &b), r.mul(&b, &a));
            assert_eq!(r.add(&a, &r.neg(&a)), r.zero());
            assert_eq!(r.sub(&a, &b), r.add(&a, &r.neg(&b)));
            if !a.is_zero() {
                let inv = r.inv(&a).unwrap();
                assert_eq!(r.mul(&a, &inv), r.one());
            }
        }
        assert_eq!(r.inv(&r.zero()).unwrap_err(), FieldError::DivisionByZero);
    }

    #[test]
    fn norm_is_multiplicative() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let a = r.random(&mut rng);
        let b = r.random(&mut rng);
        assert_eq!(
            r.norm(&r.mul(&a, &b)),
            r.fp3().mul(&r.norm(&a), &r.norm(&b))
        );
    }

    #[test]
    fn exponentiation_agrees_with_f1() {
        let r = repr();
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let a = r.fp6().random(&mut rng);
        let e = BigUint::from(12345u64);
        assert_eq!(r.from_f1(&r.fp6().exp(&a, &e)), r.exp(&r.from_f1(&a), &e));
    }
}
