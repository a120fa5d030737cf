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
//! `Fp`-linear basis changes. τ⁻¹ sends the F2 basis
//! `{1, x, x², z, x·z, x²·z}` to `1`, `z - z² - z⁵`, `2 - z + z² - z⁴`, `z`,
//! `1 + z²` and `2z - z² + z³ - z⁵`. That is an integer matrix of
//! determinant −1, so its inverse τ is an integer matrix too. Each has 15
//! non-zero entries in `{-1, 1, 2}`, the same for every `p`, so both maps are
//! a handful of additions.

use std::fmt;

use rand::Rng;

use crate::error::FieldError;
use crate::fp::FpContext;
use crate::fp3::{Fp3Context, Fp3Element};
use crate::fp6::{Fp6Context, Fp6Element};

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
}

impl fmt::Debug for F2Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F2Repr over {:?}", self.fp)
    }
}

impl F2Repr {
    /// Builds the F2 representation over `fp`.
    ///
    /// # Errors
    ///
    /// Propagates the congruence requirements of [`Fp3Context`] and
    /// [`Fp6Context`] (`p ≡ 2, 5 mod 9`).
    pub fn new(fp: FpContext) -> Result<Self, FieldError> {
        let fp3 = Fp3Context::new(fp.clone())?;
        let fp6 = Fp6Context::new(fp.clone())?;
        Ok(F2Repr { fp, fp3, fp6 })
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

    /// The map τ of Fig. 1: representation F1 → representation F2. From
    /// the `z`-power coefficients `c`, `u = (c₀ - c₂ + c₄ + c₅, -c₃ - c₅,
    /// -c₄)` and `v = (c₁ - c₃ - c₄ + c₅, c₂ + c₄ - c₅, c₃)`.
    pub fn from_f1(&self, a: &Fp6Element) -> F2Element {
        let fp = &self.fp;
        let [c0, c1, c2, c3, c4, c5] = a.coeffs();
        let u = [
            fp.add(&fp.sub(&fp.add(c0, c4), c2), c5),
            fp.neg(&fp.add(c3, c5)),
            fp.neg(c4),
        ];
        let v = [
            fp.add(&fp.sub(&fp.sub(c1, c3), c4), c5),
            fp.sub(&fp.add(c2, c4), c5),
            c3.clone(),
        ];
        F2Element {
            u: self.fp3.from_coeffs(u),
            v: self.fp3.from_coeffs(v),
        }
    }

    /// The map τ⁻¹ of Fig. 1: representation F2 → representation F1. The
    /// `z`-power coefficients are `(u₀ + 2u₂ + v₁, u₁ - u₂ + v₀ + 2v₂,
    /// -u₁ + u₂ + v₁ - v₂, v₂, -u₂, -u₁ - v₂)`.
    pub fn to_f1(&self, a: &F2Element) -> Fp6Element {
        let fp = &self.fp;
        let [u0, u1, u2] = a.u.coeffs();
        let [v0, v1, v2] = a.v.coeffs();
        self.fp6.from_coeffs([
            fp.add(&fp.add(u0, &fp.double(u2)), v1),
            fp.add(&fp.add(&fp.sub(u1, u2), v0), &fp.double(v2)),
            fp.sub(&fp.add(&fp.sub(u2, u1), v1), v2),
            v2.clone(),
            fp.neg(u2),
            fp.neg(&fp.add(u1, v2)),
        ])
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

    /// The toy field and the CEILIDH-170 prime, whose residues span three
    /// words.
    fn reprs() -> [F2Repr; 2] {
        let p170 = BigUint::from_hex("2e14985ba5778232ba167ef32f9741a9a30db4650f7").unwrap();
        [repr(), F2Repr::new(FpContext::new(&p170).unwrap()).unwrap()]
    }

    #[test]
    fn conversion_roundtrip_f1_to_f2() {
        for r in reprs() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            for _ in 0..20 {
                let a = r.fp6().random(&mut rng);
                assert_eq!(r.to_f1(&r.from_f1(&a)), a);
            }
        }
    }

    #[test]
    fn conversion_roundtrip_f2_to_f1() {
        for r in reprs() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(32);
            for _ in 0..20 {
                let a = r.random(&mut rng);
                assert_eq!(r.from_f1(&r.to_f1(&a)), a);
            }
        }
    }

    #[test]
    fn conversion_is_a_ring_isomorphism() {
        for r in reprs() {
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
            // τ⁻¹ sends x and z to x and z.
            let fp3 = r.fp3();
            let x = r.from_components(fp3.gen_x(), fp3.zero());
            let z = r.from_components(fp3.zero(), fp3.one());
            assert_eq!(r.to_f1(&x), r.fp6().zeta_plus_inverse());
            assert_eq!(r.to_f1(&z), r.fp6().gen_z());
        }
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
