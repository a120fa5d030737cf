//! The cubic extension `Fp3 = Fp[x]/(x^3 - 3x + 1)`.
//!
//! The generator `x` corresponds to `ζ9 + ζ9^{-1}` (twice the cosine of
//! 2π/9), whose minimal polynomial is `x^3 - 3x + 1`. For the CEILIDH
//! primes (`p ≡ 2, 5 mod 9`) this polynomial is irreducible over `Fp`, so
//! `Fp3` is the cubic subfield of `Fp6` and the field underlying the
//! representation F2 of Fig. 1.

use std::fmt;

use bignum::BigUint;
use rand::Rng;

use crate::error::FieldError;
use crate::formulas::karatsuba3;
use crate::fp::{square_and_multiply, FpContext, FpElement};

/// Context for arithmetic in `Fp3 = Fp[x]/(x^3 - 3x + 1)`.
#[derive(Clone)]
pub struct Fp3Context {
    fp: FpContext,
    /// `x^p`, cached so the Frobenius map is two multiplications.
    frob_x: [FpElement; 3],
    /// `(x^p)^2`.
    frob_x2: [FpElement; 3],
}

impl fmt::Debug for Fp3Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp3Context over {:?}", self.fp)
    }
}

/// An element `c0 + c1·x + c2·x²` of `Fp3`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fp3Element {
    c: [FpElement; 3],
}

impl fmt::Debug for Fp3Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp3({:?}, {:?}, {:?})", self.c[0], self.c[1], self.c[2])
    }
}

impl Fp3Element {
    /// The coefficients `(c0, c1, c2)` in the basis `{1, x, x²}`.
    pub fn coeffs(&self) -> &[FpElement; 3] {
        &self.c
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.c.iter().all(FpElement::is_zero)
    }
}

impl Fp3Context {
    /// Creates the cubic extension over `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedCongruence`] unless
    /// `p ≡ 2 or 5 (mod 9)`, the CEILIDH congruence that keeps
    /// `x^3 - 3x + 1` irreducible.
    pub fn new(fp: FpContext) -> Result<Self, FieldError> {
        let r = fp.modulus_mod(9);
        if r != 2 && r != 5 {
            return Err(FieldError::UnsupportedCongruence {
                modulus: 9,
                expected: &[2, 5],
                found: r,
            });
        }
        // Bootstrap a context without Frobenius caches to compute x^p.
        let mut ctx = Fp3Context {
            fp: fp.clone(),
            frob_x: [fp.zero(), fp.zero(), fp.zero()],
            frob_x2: [fp.zero(), fp.zero(), fp.zero()],
        };
        let x = ctx.gen_x();
        let xp = ctx.exp(&x, fp.modulus());
        let xp2 = ctx.mul(&xp, &xp);
        ctx.frob_x = xp.c;
        ctx.frob_x2 = xp2.c;
        Ok(ctx)
    }

    /// The underlying prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp3Element {
        self.from_coeffs([self.fp.zero(), self.fp.zero(), self.fp.zero()])
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp3Element {
        self.from_coeffs([self.fp.one(), self.fp.zero(), self.fp.zero()])
    }

    /// The generator `x` (a root of `x^3 - 3x + 1`).
    pub fn gen_x(&self) -> Fp3Element {
        self.from_coeffs([self.fp.zero(), self.fp.one(), self.fp.zero()])
    }

    /// Builds an element from coefficients in the basis `{1, x, x²}`.
    pub fn from_coeffs(&self, c: [FpElement; 3]) -> Fp3Element {
        Fp3Element { c }
    }

    /// Builds an element from small integers.
    pub fn from_u64_coeffs(&self, c: [u64; 3]) -> Fp3Element {
        self.from_coeffs([
            self.fp.from_u64(c[0]),
            self.fp.from_u64(c[1]),
            self.fp.from_u64(c[2]),
        ])
    }

    /// Embeds a base-field element.
    pub fn from_fp(&self, v: FpElement) -> Fp3Element {
        self.from_coeffs([v, self.fp.zero(), self.fp.zero()])
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp3Element {
        self.from_coeffs([
            self.fp.random(rng),
            self.fp.random(rng),
            self.fp.random(rng),
        ])
    }

    /// Addition.
    pub fn add(&self, a: &Fp3Element, b: &Fp3Element) -> Fp3Element {
        self.from_coeffs([
            self.fp.add(&a.c[0], &b.c[0]),
            self.fp.add(&a.c[1], &b.c[1]),
            self.fp.add(&a.c[2], &b.c[2]),
        ])
    }

    /// Subtraction.
    pub fn sub(&self, a: &Fp3Element, b: &Fp3Element) -> Fp3Element {
        self.from_coeffs([
            self.fp.sub(&a.c[0], &b.c[0]),
            self.fp.sub(&a.c[1], &b.c[1]),
            self.fp.sub(&a.c[2], &b.c[2]),
        ])
    }

    /// Negation.
    pub fn neg(&self, a: &Fp3Element) -> Fp3Element {
        self.from_coeffs([
            self.fp.neg(&a.c[0]),
            self.fp.neg(&a.c[1]),
            self.fp.neg(&a.c[2]),
        ])
    }

    /// Multiplication by a base-field scalar (3 multiplications).
    pub fn scalar_mul(&self, a: &Fp3Element, s: &FpElement) -> Fp3Element {
        self.from_coeffs([
            self.fp.mul(&a.c[0], s),
            self.fp.mul(&a.c[1], s),
            self.fp.mul(&a.c[2], s),
        ])
    }

    /// Multiplication using the 6M Karatsuba formula of Section 2.2.2 and
    /// the reduction `x^3 = 3x - 1`, `x^4 = 3x² - x`.
    pub fn mul(&self, a: &Fp3Element, b: &Fp3Element) -> Fp3Element {
        let d = karatsuba3(&self.fp, a.c.each_ref(), b.c.each_ref());
        self.reduce_deg4(&d)
    }

    /// Squaring (delegates to [`mul`](Self::mul); the paper counts squarings
    /// as multiplications).
    pub fn square(&self, a: &Fp3Element) -> Fp3Element {
        self.mul(a, a)
    }

    /// Exponentiation by square-and-multiply.
    pub fn exp(&self, base: &Fp3Element, exp: &BigUint) -> Fp3Element {
        square_and_multiply(self.one(), base, exp, |a, b| self.mul(a, b))
    }

    /// The Frobenius map `a ↦ a^p` (an `Fp`-linear map; uses the cached
    /// image of `x`).
    pub fn frobenius(&self, a: &Fp3Element) -> Fp3Element {
        let xp = Fp3Element {
            c: self.frob_x.clone(),
        };
        let xp2 = Fp3Element {
            c: self.frob_x2.clone(),
        };
        let t1 = self.scalar_mul(&xp, &a.c[1]);
        let t2 = self.scalar_mul(&xp2, &a.c[2]);
        self.add(&self.from_fp(a.c[0].clone()), &self.add(&t1, &t2))
    }

    /// The norm `N(a) = a · a^p · a^{p²} ∈ Fp`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the computed norm does not lie in `Fp`,
    /// which would indicate an internal inconsistency.
    pub fn norm(&self, a: &Fp3Element) -> FpElement {
        let f1 = self.frobenius(a);
        let f2 = self.frobenius(&f1);
        let n = self.mul(a, &self.mul(&f1, &f2));
        debug_assert!(n.c[1].is_zero() && n.c[2].is_zero(), "norm not in Fp");
        n.c[0].clone()
    }

    /// Inversion via the norm: `a^{-1} = a^p · a^{p²} / N(a)`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for the zero element.
    pub fn inv(&self, a: &Fp3Element) -> Result<Fp3Element, FieldError> {
        if a.is_zero() {
            return Err(FieldError::DivisionByZero);
        }
        let f1 = self.frobenius(a);
        let f2 = self.frobenius(&f1);
        let adj = self.mul(&f1, &f2);
        let n = self.mul(a, &adj);
        debug_assert!(n.c[1].is_zero() && n.c[2].is_zero(), "norm not in Fp");
        let n_inv = self.fp.inv(&n.c[0]).ok_or(FieldError::DivisionByZero)?;
        Ok(self.scalar_mul(&adj, &n_inv))
    }

    /// Reduces a degree-4 polynomial in `x` modulo `x^3 - 3x + 1`.
    fn reduce_deg4(&self, d: &[FpElement; 5]) -> Fp3Element {
        let fp = &self.fp;
        // x^3 = 3x - 1, x^4 = 3x^2 - x
        let three_d3 = fp.mul_small(&d[3], 3);
        let three_d4 = fp.mul_small(&d[4], 3);
        let r0 = fp.sub(&d[0], &d[3]);
        let r1 = fp.sub(&fp.add(&d[1], &three_d3), &d[4]);
        let r2 = fp.add(&d[2], &three_d4);
        self.from_coeffs([r0, r1, r2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> Fp3Context {
        Fp3Context::new(FpContext::new(&BigUint::from(101u64)).unwrap()).unwrap()
    }

    /// Schoolbook multiplication used as a reference for the Karatsuba path.
    fn schoolbook_mul(f: &Fp3Context, a: &Fp3Element, b: &Fp3Element) -> Fp3Element {
        let fp = f.fp();
        let mut d = [fp.zero(), fp.zero(), fp.zero(), fp.zero(), fp.zero()];
        for i in 0..3 {
            for j in 0..3 {
                d[i + j] = fp.add(&d[i + j], &fp.mul(&a.coeffs()[i], &b.coeffs()[j]));
            }
        }
        f.reduce_deg4(&d)
    }

    #[test]
    fn rejects_wrong_congruence() {
        // 37 ≡ 1 (mod 9)
        let fp = FpContext::new(&BigUint::from(37u64)).unwrap();
        assert!(matches!(
            Fp3Context::new(fp),
            Err(FieldError::UnsupportedCongruence { modulus: 9, .. })
        ));
        // 23 ≡ 5 (mod 9) is accepted.
        let fp = FpContext::new(&BigUint::from(23u64)).unwrap();
        assert!(Fp3Context::new(fp).is_ok());
    }

    #[test]
    fn x_satisfies_its_minimal_polynomial() {
        let f = ctx();
        let x = f.gen_x();
        // x^3 - 3x + 1 = 0
        let x3 = f.mul(&f.mul(&x, &x), &x);
        let three_x = f.scalar_mul(&x, &f.fp().from_u64(3));
        let val = f.add(&f.sub(&x3, &three_x), &f.one());
        assert!(val.is_zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            assert_eq!(f.mul(&a, &b), schoolbook_mul(&f, &a, &b));
        }
    }

    #[test]
    fn ring_axioms() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for _ in 0..15 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            let c = f.random(&mut rng);
            assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
            assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
            assert_eq!(
                f.mul(&a, &f.add(&b, &c)),
                f.add(&f.mul(&a, &b), &f.mul(&a, &c))
            );
            assert_eq!(f.mul(&a, &f.one()), a);
        }
    }

    #[test]
    fn frobenius_properties() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        // Multiplicative.
        assert_eq!(
            f.frobenius(&f.mul(&a, &b)),
            f.mul(&f.frobenius(&a), &f.frobenius(&b))
        );
        // Order 3.
        let f3 = f.frobenius(&f.frobenius(&f.frobenius(&a)));
        assert_eq!(f3, a);
        // Matches exponentiation by p.
        assert_eq!(f.frobenius(&a), f.exp(&a, &BigUint::from(101u64)));
        // Fixes Fp.
        let c = f.from_fp(f.fp().from_u64(42));
        assert_eq!(f.frobenius(&c), c);
    }

    #[test]
    fn inversion_and_norm() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for _ in 0..15 {
            let a = f.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), f.one());
        }
        assert_eq!(f.inv(&f.zero()).unwrap_err(), FieldError::DivisionByZero);
        // Norm is multiplicative.
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        assert_eq!(f.norm(&f.mul(&a, &b)), f.fp().mul(&f.norm(&a), &f.norm(&b)));
    }

    #[test]
    fn group_order_is_p_cubed_minus_one() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let order = BigUint::from(101u64 * 101 * 101 - 1);
        for _ in 0..5 {
            let a = f.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(f.exp(&a, &order), f.one());
        }
    }
}
