//! The torus group `T6(Fp)` and its subgroup of prime order `q`.

use bignum::BigUint;
use field::{FieldError, Fp6Context, Fp6Element};
use rand::Rng;

use crate::error::CeilidhError;
use crate::params::CeilidhParams;

/// An element of the algebraic torus `T6(Fp)`, stored in representation F1.
///
/// The newtype exists so that protocol-level code cannot accidentally feed
/// arbitrary `Fp6` values (outside the torus) into group operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TorusElement {
    value: Fp6Element,
}

impl TorusElement {
    /// Wraps an `Fp6` element **without** checking torus membership.
    ///
    /// Intended for internal use and for benchmarks that construct elements
    /// they already know are valid; use [`CeilidhParams::lift`] otherwise.
    /// [`CeilidhParams::pow`] of an element outside `T6` is unspecified.
    pub fn from_fp6_unchecked(value: Fp6Element) -> Self {
        TorusElement { value }
    }

    /// The underlying `Fp6` (representation F1) element.
    pub fn as_fp6(&self) -> &Fp6Element {
        &self.value
    }

    /// Consumes the wrapper, returning the `Fp6` element.
    pub fn into_fp6(self) -> Fp6Element {
        self.value
    }
}

impl CeilidhParams {
    /// The identity element of the torus.
    pub fn identity(&self) -> TorusElement {
        TorusElement::from_fp6_unchecked(self.fp6().one())
    }

    /// Checks whether an `Fp6` element lies on the torus `T6(Fp)`, the
    /// elements of order dividing `Φ6(p) = p² - p + 1`: a non-zero `g` with
    /// `g·σ²(g) = σ(g)` for the Frobenius map σ, one product and two maps.
    /// This is equivalent to both relative norms, to `Fp3` and to `Fp2`,
    /// being 1, because `gcd(p³ + 1, p⁴ + p² + 1) = Φ6(p)`.
    pub fn is_torus_member(&self, value: &Fp6Element) -> bool {
        let fp6 = self.fp6();
        !value.is_zero() && fp6.mul(value, &fp6.frobenius(value, 2)) == fp6.frobenius(value, 1)
    }

    /// Checks whether an element lies in the prime-order-`q` subgroup used
    /// by the cryptosystem: a torus member whose `q`-th power, by
    /// [`Fp6Context::exp_cyclotomic`](field::Fp6Context::exp_cyclotomic),
    /// is 1.
    pub fn is_subgroup_member(&self, value: &Fp6Element) -> bool {
        self.is_torus_member(value)
            && self.fp6().exp_cyclotomic(value, self.q()) == self.fp6().one()
    }

    /// Validates and wraps an `Fp6` element as a torus element.
    ///
    /// # Errors
    ///
    /// Returns [`CeilidhError::NotInTorus`] if the element is not on `T6`.
    pub fn lift(&self, value: Fp6Element) -> Result<TorusElement, CeilidhError> {
        if self.is_torus_member(&value) {
            Ok(TorusElement { value })
        } else {
            Err(CeilidhError::NotInTorus)
        }
    }

    /// Group multiplication on the torus (one 18M `Fp6` multiplication).
    pub fn mul(&self, a: &TorusElement, b: &TorusElement) -> TorusElement {
        TorusElement {
            value: self.fp6().mul(&a.value, &b.value),
        }
    }

    /// Group inversion. For torus elements the inverse is the `Fp3`-conjugate
    /// (`g^{-1} = g^{p³}`), a free coefficient permutation — one of the
    /// operational advantages of torus-based systems.
    pub fn invert(&self, a: &TorusElement) -> TorusElement {
        TorusElement {
            value: self.fp6().conjugate(&a.value),
        }
    }

    /// Exponentiation `g^k` on the torus, the operation the paper's
    /// platform spends its 20 ms on, by
    /// [`Fp6Context::exp_cyclotomic`](field::Fp6Context::exp_cyclotomic):
    /// `k` reduced modulo `Φ6(p)` and split at `p` by the Frobenius map,
    /// one shared 4-bit window and 6 M squarings. The platform simulator
    /// keeps the paper's binary method, which
    /// [`Fp6Context::exp`](field::Fp6Context::exp) also runs.
    ///
    /// The result for a `base` outside `T6` is unspecified; elements built
    /// with [`TorusElement::from_fp6_unchecked`] must be members.
    pub fn pow(&self, base: &TorusElement, exponent: &BigUint) -> TorusElement {
        TorusElement {
            value: self.fp6().exp_cyclotomic(&base.value, exponent),
        }
    }

    /// A uniformly random element of the order-`q` subgroup, together with
    /// its discrete logarithm to the generator.
    pub fn random_subgroup_element<R: Rng + ?Sized>(&self, rng: &mut R) -> (BigUint, TorusElement) {
        let exponent = BigUint::random_below(rng, self.q());
        let element = self.pow(&self.generator(), &exponent);
        (exponent, element)
    }

    /// Projects an arbitrary non-zero field element onto the torus by
    /// raising it to `(p^6 - 1)/Φ6(p) = (p³ - 1)(p + 1)`, as `y^p · y` with
    /// `y = x̄ · x⁻¹`. Returns `None` for zero and if the projection is the
    /// identity.
    pub fn project_to_torus(&self, value: &Fp6Element) -> Option<TorusElement> {
        let projected = project(self.fp6(), value).ok()?;
        (projected != self.fp6().one()).then_some(TorusElement { value: projected })
    }
}

/// `x^((p^6 - 1)/Φ6(p))`, the projection of `x` onto `T6(Fp)`. The exponent
/// is `(p³ - 1)(p + 1)`, so this is `y^p · y` with `y = x^{p³ - 1} = x̄ · x⁻¹`:
/// one `Fp6` inversion, two Frobenius maps and two products.
///
/// # Errors
///
/// Returns [`FieldError::DivisionByZero`] for zero.
pub(crate) fn project(fp6: &Fp6Context, x: &Fp6Element) -> Result<Fp6Element, FieldError> {
    let y = fp6.mul(&fp6.conjugate(x), &fp6.inv(x)?);
    Ok(fp6.mul(&fp6.frobenius(&y, 1), &y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> CeilidhParams {
        CeilidhParams::toy().unwrap()
    }

    #[test]
    fn generator_is_a_torus_member() {
        let params = params();
        let g = params.generator();
        assert!(params.is_torus_member(g.as_fp6()));
        assert!(params.is_subgroup_member(g.as_fp6()));
        assert!(params.is_torus_member(params.identity().as_fp6()));
        assert!(!params.is_torus_member(&params.fp6().zero()));
    }

    #[test]
    fn membership_by_norms_matches_membership_by_order() {
        // The Frobenius test g·σ²(g) = σ(g), both norms being 1 and
        // g^Φ6(p) = 1 agree, on random elements (almost never members) and
        // on projected ones (always members), at p ≡ 2 and p ≡ 5 (mod 9).
        for (p, q) in [(101u64, 37u64), (23, 13)] {
            let params =
                CeilidhParams::from_components(&BigUint::from(p), &BigUint::from(q)).unwrap();
            let fp6 = params.fp6();
            let mut rng = rand::rngs::StdRng::seed_from_u64(51);
            let order = params.torus_order();
            let mut members = 0;
            for _ in 0..40 {
                let random = fp6.random(&mut rng);
                let projected = project(fp6, &random).unwrap_or_else(|_| fp6.zero());
                for candidate in [random, projected] {
                    let by_frobenius = params.is_torus_member(&candidate);
                    let by_norms = !candidate.is_zero()
                        && fp6.norm_to_fp3(&candidate) == fp6.one()
                        && fp6.norm_to_fp2(&candidate) == fp6.one();
                    let by_order = !candidate.is_zero() && fp6.exp(&candidate, &order) == fp6.one();
                    assert_eq!(by_frobenius, by_order, "p = {p}: {candidate:?}");
                    assert_eq!(by_norms, by_order, "p = {p}: {candidate:?}");
                    members += usize::from(by_order);
                }
            }
            assert!((40..80).contains(&members), "p = {p}: {members} members");
        }
    }

    #[test]
    fn group_laws() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let (_, a) = params.random_subgroup_element(&mut rng);
        let (_, b) = params.random_subgroup_element(&mut rng);
        let (_, c) = params.random_subgroup_element(&mut rng);
        assert_eq!(params.mul(&a, &b), params.mul(&b, &a));
        assert_eq!(
            params.mul(&params.mul(&a, &b), &c),
            params.mul(&a, &params.mul(&b, &c))
        );
        assert_eq!(params.mul(&a, &params.identity()), a);
        assert_eq!(params.mul(&a, &params.invert(&a)), params.identity());
    }

    #[test]
    fn conjugation_inverse_matches_field_inverse() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let (_, a) = params.random_subgroup_element(&mut rng);
        let inv = params.invert(&a);
        let field_inv = params.fp6().inv(a.as_fp6()).unwrap();
        assert_eq!(inv.as_fp6(), &field_inv);
    }

    #[test]
    fn exponentiation_laws() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        let g = params.generator();
        let x = BigUint::random_below(&mut rng, params.q());
        let y = BigUint::random_below(&mut rng, params.q());
        // g^x * g^y = g^(x+y mod q)
        let lhs = params.mul(&params.pow(&g, &x), &params.pow(&g, &y));
        let sum = bignum::mod_add(&x, &y, params.q());
        assert_eq!(lhs, params.pow(&g, &sum));
        // g^q = 1
        assert_eq!(params.pow(&g, params.q()), params.identity());
    }

    #[test]
    fn lift_rejects_non_members() {
        let params = params();
        let bad = params.fp6().from_u64_coeffs([2, 0, 0, 0, 0, 0]);
        assert_eq!(params.lift(bad).unwrap_err(), CeilidhError::NotInTorus);
        let good = params.generator().into_fp6();
        assert!(params.lift(good).is_ok());
    }

    #[test]
    fn projection_lands_in_torus() {
        // The projection is the power (p⁶ - 1)/Φ6(p), at p ≡ 2 and p ≡ 5
        // (mod 9).
        for (p, q) in [(101u64, 37u64), (23, 13)] {
            let params =
                CeilidhParams::from_components(&BigUint::from(p), &BigUint::from(q)).unwrap();
            let fp6 = params.fp6();
            let (exp, rem) = (&params.p().pow(6) - &BigUint::one())
                .div_rem(&params.torus_order())
                .unwrap();
            assert!(rem.is_zero());
            let mut rng = rand::rngs::StdRng::seed_from_u64(55);
            for _ in 0..20 {
                let v = fp6.random(&mut rng);
                if v.is_zero() {
                    continue;
                }
                let power = fp6.exp(&v, &exp);
                match params.project_to_torus(&v) {
                    Some(t) => {
                        assert_eq!(t.as_fp6(), &power);
                        assert!(params.is_torus_member(t.as_fp6()));
                    }
                    None => assert_eq!(power, fp6.one()),
                }
            }
            assert!(params.project_to_torus(&fp6.zero()).is_none());
        }
    }
}
