//! The sextic extension in representation F1: `Fp6 = Fp[z]/(z^6 + z^3 + 1)`.
//!
//! This is the representation the paper performs every torus computation in
//! (Section 2.2): `z` is a primitive 9th root of unity, `p ≡ 2 or 5 (mod 9)`
//! makes the 9th cyclotomic polynomial `z^6 + z^3 + 1` irreducible, and one
//! multiplication costs 18 base-field multiplications plus roughly 60
//! additions/subtractions — the figure that drives the Type-A/Type-B cycle
//! analysis of the evaluation. The paper's representation F2 (Fig. 1) is
//! present only as the maps τ/τ⁻¹ on the cubic subfield `Fp3`, generated
//! by `x = z + z⁻¹`: [`Fp6Context::to_fp3`] and [`Fp6Context::from_fp3`].

use std::fmt;

use bignum::{square_and_multiply, BigUint};
use rand::Rng;

use crate::error::FieldError;
use crate::formulas::{karatsuba_fp6, FieldJob, ValueOps};
use crate::fp::{FpContext, FpElement};

/// Context for arithmetic in `Fp6 = Fp[z]/(z^6 + z^3 + 1)` (representation F1).
#[derive(Clone)]
pub struct Fp6Context {
    fp: FpContext,
    p_mod_9: u32,
}

impl fmt::Debug for Fp6Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fp6Context over {:?} (p ≡ {} mod 9)",
            self.fp, self.p_mod_9
        )
    }
}

/// An element `Σ c_i z^i` of `Fp6` in the basis `{1, z, z², z³, z⁴, z⁵}`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fp6Element {
    c: [FpElement; 6],
}

impl fmt::Debug for Fp6Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp6{:?}", self.c)
    }
}

impl Fp6Element {
    /// The six coefficients in the basis `{1, z, …, z⁵}`.
    pub fn coeffs(&self) -> &[FpElement; 6] {
        &self.c
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.c.iter().all(FpElement::is_zero)
    }
}

impl Fp6Context {
    /// Creates the sextic extension over `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::UnsupportedCongruence`] unless
    /// `p ≡ 2 or 5 (mod 9)`, which is required for `z^6 + z^3 + 1` to be
    /// irreducible over `Fp`.
    pub fn new(fp: FpContext) -> Result<Self, FieldError> {
        let r = fp.modulus_mod(9);
        if r != 2 && r != 5 {
            return Err(FieldError::UnsupportedCongruence {
                modulus: 9,
                expected: &[2, 5],
                found: r,
            });
        }
        Ok(Fp6Context { fp, p_mod_9: r })
    }

    /// The underlying prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The residue of the characteristic modulo 9 (2 or 5).
    pub fn p_mod_9(&self) -> u32 {
        self.p_mod_9
    }

    /// The additive identity.
    pub fn zero(&self) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|_| self.fp.zero()))
    }

    /// The multiplicative identity.
    pub fn one(&self) -> Fp6Element {
        let mut c: [FpElement; 6] = std::array::from_fn(|_| self.fp.zero());
        c[0] = self.fp.one();
        self.from_coeffs(c)
    }

    /// The generator `z` (a primitive 9th root of unity).
    pub fn gen_z(&self) -> Fp6Element {
        let mut c: [FpElement; 6] = std::array::from_fn(|_| self.fp.zero());
        c[1] = self.fp.one();
        self.from_coeffs(c)
    }

    /// The element `x = z + z^{-1} = z - z² - z⁵`, generating the `Fp3`
    /// subfield (a root of `x³ - 3x + 1`).
    pub fn zeta_plus_inverse(&self) -> Fp6Element {
        let fp = &self.fp;
        self.from_coeffs([
            fp.zero(),
            fp.one(),
            fp.from_i64(-1),
            fp.zero(),
            fp.zero(),
            fp.from_i64(-1),
        ])
    }

    /// The element `γ = z - z^{-1} = z + z² + z⁵`, which is "purely
    /// imaginary" for the quadratic extension `Fp6 / Fp3`
    /// (`γ^{p³} = -γ`); used by the torus compression map.
    pub fn zeta_minus_inverse(&self) -> Fp6Element {
        let fp = &self.fp;
        self.from_coeffs([
            fp.zero(),
            fp.one(),
            fp.one(),
            fp.zero(),
            fp.zero(),
            fp.one(),
        ])
    }

    /// Builds an element from its six coefficients.
    pub fn from_coeffs(&self, c: [FpElement; 6]) -> Fp6Element {
        Fp6Element { c }
    }

    /// Builds an element from small integer coefficients.
    pub fn from_u64_coeffs(&self, c: [u64; 6]) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|i| self.fp.from_u64(c[i])))
    }

    /// Embeds a base-field element as a constant polynomial.
    pub fn from_fp(&self, v: FpElement) -> Fp6Element {
        let mut c: [FpElement; 6] = std::array::from_fn(|_| self.fp.zero());
        c[0] = v;
        self.from_coeffs(c)
    }

    /// The element `u₀ + u₁·x + u₂·x²` of the `Fp3` subfield, with
    /// `x = z + z⁻¹`: the map τ⁻¹ of Fig. 1 on `Fp3`, which sends `x` and
    /// `x²` to `z - z² - z⁵` and `2 - z + z² - z⁴`. The `z`-power
    /// coefficients are `(u₀ + 2u₂, u₁ - u₂, u₂ - u₁, 0, -u₂, -u₁)`.
    pub fn from_fp3(&self, u: [FpElement; 3]) -> Fp6Element {
        let fp = &self.fp;
        let [u0, u1, u2] = &u;
        self.from_coeffs([
            fp.add(u0, &fp.double(u2)),
            fp.sub(u1, u2),
            fp.sub(u2, u1),
            fp.zero(),
            fp.neg(u2),
            fp.neg(u1),
        ])
    }

    /// The coordinates `(u₀, u₁, u₂)` of an element `a` of the `Fp3`
    /// subfield in the basis `{1, x, x²}`: the map τ of Fig. 1 on `Fp3`,
    /// inverse to [`from_fp3`](Self::from_fp3), which it reads back from
    /// the `z`-power coefficients `c₀`, `c₄` and `c₅`:
    /// `u = (c₀ + 2c₄, -c₅, -c₄)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) unless `a` is fixed by conjugation, that is
    /// unless `c₃ = 0`, `c₁ + c₂ = 0` and `c₁ + c₅ = c₄`. The check is
    /// uncounted.
    pub fn to_fp3(&self, a: &Fp6Element) -> [FpElement; 3] {
        let fp = &self.fp;
        let [c0, c1, c2, c3, c4, c5] = &a.c;
        debug_assert!(
            {
                let [c1, c2, c4, c5] = [c1, c2, c4, c5].map(|c| fp.to_biguint(c));
                let p = fp.modulus();
                c3.is_zero() && ((&c1 + &c2) % p).is_zero() && (&c1 + &c5) % p == c4
            },
            "an element of the Fp3 subfield is fixed by conjugation"
        );
        [fp.add(c0, &fp.double(c4)), fp.neg(c5), fp.neg(c4)]
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|_| self.fp.random(rng)))
    }

    /// Addition (6 base-field additions, as in Section 2.2.1).
    pub fn add(&self, a: &Fp6Element, b: &Fp6Element) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|i| self.fp.add(&a.c[i], &b.c[i])))
    }

    /// Subtraction.
    pub fn sub(&self, a: &Fp6Element, b: &Fp6Element) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|i| self.fp.sub(&a.c[i], &b.c[i])))
    }

    /// Negation.
    pub fn neg(&self, a: &Fp6Element) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|i| self.fp.neg(&a.c[i])))
    }

    /// Multiplication by a base-field scalar (6 multiplications).
    pub fn scalar_mul(&self, a: &Fp6Element, s: &FpElement) -> Fp6Element {
        self.from_coeffs(std::array::from_fn(|i| self.fp.mul(&a.c[i], s)))
    }

    /// Multiplication with the paper's 18M Karatsuba schedule
    /// (Section 2.2.2), reduced modulo `z^6 + z^3 + 1`: one
    /// [`crate::karatsuba_fp6`] run as a [`FieldJob`] through
    /// [`FpContext::run`], so the whole product runs on one backend (the
    /// stack context of the field's width, where it has one) and its
    /// 18 M + 20 A + 44 S reach the counter in one update.
    pub fn mul(&self, a: &Fp6Element, b: &Fp6Element) -> Fp6Element {
        self.fp.run(Mul { a, b })
    }

    /// Squaring (delegates to [`mul`](Self::mul), counted as 18M like the paper).
    pub fn square(&self, a: &Fp6Element) -> Fp6Element {
        self.mul(a, a)
    }

    /// Exponentiation by left-to-right square-and-multiply, as one
    /// [`FieldJob`]: the base is lowered once, every product runs
    /// [`crate::karatsuba_fp6`] on the backend [`FpContext::run`] picks,
    /// and the `bit_len + popcount` products reach the counter in one
    /// update.
    pub fn exp(&self, base: &Fp6Element, exp: &BigUint) -> Fp6Element {
        self.fp.run(Exp { base, exp })
    }

    /// Sliding-window exponentiation with `window` bits (1 ≤ window ≤ 8).
    ///
    /// Used by the exponentiation ablation bench; produces identical results
    /// to [`exp`](Self::exp).
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or larger than 8.
    pub fn exp_window(&self, base: &Fp6Element, exp: &BigUint, window: usize) -> Fp6Element {
        assert!((1..=8).contains(&window), "window must be in 1..=8");
        if window == 1 {
            return self.exp(base, exp);
        }
        // Precompute odd powers base^1, base^3, ..., base^(2^window - 1).
        let base_sq = self.square(base);
        let mut odd_powers = vec![base.clone()];
        for _ in 1..(1 << (window - 1)) {
            let prev = odd_powers.last().expect("non-empty").clone();
            odd_powers.push(self.mul(&prev, &base_sq));
        }
        let mut acc = self.one();
        let mut i = exp.bit_len() as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                acc = self.square(&acc);
                i -= 1;
                continue;
            }
            // Find the longest window ending in a set bit.
            let lo = (i - window as isize + 1).max(0);
            let mut j = lo;
            while !exp.bit(j as usize) {
                j += 1;
            }
            let width = (i - j + 1) as usize;
            let mut value = 0usize;
            for k in (j..=i).rev() {
                value = (value << 1) | exp.bit(k as usize) as usize;
            }
            for _ in 0..width {
                acc = self.square(&acc);
            }
            acc = self.mul(&acc, &odd_powers[(value - 1) / 2]);
            i = j - 1;
        }
        acc
    }

    /// The Frobenius map iterated `k` times: `a ↦ a^{p^k}`.
    ///
    /// Because `z` is a 9th root of unity this is just a signed permutation
    /// of coefficients (no multiplications): `z^i ↦ z^{(i·p^k) mod 9}` with
    /// `z^6 = -z³ - 1`, `z^7 = -z⁴ - z`, `z^8 = -z⁵ - z²`.
    pub fn frobenius(&self, a: &Fp6Element, k: usize) -> Fp6Element {
        let fp = &self.fp;
        // p^k mod 9
        let mut e = 1u32;
        for _ in 0..(k % 6) {
            e = (e * self.p_mod_9) % 9;
        }
        let mut r: [FpElement; 6] = std::array::from_fn(|_| fp.zero());
        for i in 0..6 {
            if a.c[i].is_zero() {
                continue;
            }
            let m = ((i as u32) * e % 9) as usize;
            match m {
                0..=5 => r[m] = fp.add(&r[m], &a.c[i]),
                6 => {
                    r[3] = fp.sub(&r[3], &a.c[i]);
                    r[0] = fp.sub(&r[0], &a.c[i]);
                }
                7 => {
                    r[4] = fp.sub(&r[4], &a.c[i]);
                    r[1] = fp.sub(&r[1], &a.c[i]);
                }
                8 => {
                    r[5] = fp.sub(&r[5], &a.c[i]);
                    r[2] = fp.sub(&r[2], &a.c[i]);
                }
                _ => unreachable!("exponent reduced mod 9"),
            }
        }
        self.from_coeffs(r)
    }

    /// The conjugate over `Fp3`: `a ↦ a^{p³}` (i.e. `z ↦ z^{-1}`).
    pub fn conjugate(&self, a: &Fp6Element) -> Fp6Element {
        self.frobenius(a, 3)
    }

    /// The relative norm to `Fp3`: `N_{Fp6/Fp3}(a) = a · a^{p³}` (an element
    /// of the `Fp3` subfield, returned as an `Fp6` element).
    pub fn norm_to_fp3(&self, a: &Fp6Element) -> Fp6Element {
        self.mul(a, &self.conjugate(a))
    }

    /// The relative norm to `Fp2`: `N_{Fp6/Fp2}(a) = a · a^{p²} · a^{p⁴}`.
    pub fn norm_to_fp2(&self, a: &Fp6Element) -> Fp6Element {
        let f2 = self.frobenius(a, 2);
        let f4 = self.frobenius(a, 4);
        self.mul(a, &self.mul(&f2, &f4))
    }

    /// The absolute norm `N_{Fp6/Fp}(a) ∈ Fp`, through the relative norm:
    /// three products (see [`inv`](Self::inv)).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the computed norm does not lie in `Fp`.
    pub fn norm(&self, a: &Fp6Element) -> FpElement {
        self.norm_tower(a).2
    }

    /// Inversion through the relative norm `n = a·ā ∈ Fp3`: with
    /// `m = n^p·n^{p²}`, `N(a) = n·m ∈ Fp` and `a⁻¹ = ā·m / N(a)`. Four
    /// products and three Frobenius maps, a scalar product and one `Fp`
    /// inversion.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for the zero element.
    pub fn inv(&self, a: &Fp6Element) -> Result<Fp6Element, FieldError> {
        if a.is_zero() {
            return Err(FieldError::DivisionByZero);
        }
        let (conj, m, norm) = self.norm_tower(a);
        let norm_inv = self.fp.inv(&norm).ok_or(FieldError::DivisionByZero)?;
        Ok(self.scalar_mul(&self.mul(&conj, &m), &norm_inv))
    }

    /// `(ā, m, N(a))` with `n = a·ā ∈ Fp3`, `m = n^p·n^{p²}` and
    /// `N(a) = n·m ∈ Fp`: the norm and the factors inversion reuses.
    fn norm_tower(&self, a: &Fp6Element) -> (Fp6Element, Fp6Element, FpElement) {
        let conj = self.conjugate(a);
        let n = self.mul(a, &conj);
        let m = self.mul(&self.frobenius(&n, 1), &self.frobenius(&n, 2));
        let [norm, rest @ ..] = self.mul(&n, &m).c;
        debug_assert!(
            rest.iter().all(FpElement::is_zero),
            "absolute norm must lie in Fp"
        );
        (conj, m, norm)
    }
}

/// The backend form of an element's six coefficients.
fn lower<F: ValueOps>(f: &F, a: &Fp6Element) -> [F::Elem; 6] {
    a.c.each_ref().map(|c| f.lower(c))
}

/// The element of six backend coefficients.
fn lift<F: ValueOps>(f: &F, c: [F::Elem; 6]) -> Fp6Element {
    Fp6Element {
        c: c.map(|c| f.lift(c)),
    }
}

/// [`Fp6Context::mul`]'s product, on the backend [`FpContext::run`] picks.
struct Mul<'a> {
    a: &'a Fp6Element,
    b: &'a Fp6Element,
}

impl FieldJob for Mul<'_> {
    type Output = Fp6Element;

    fn run<F: ValueOps>(self, f: &F) -> Fp6Element {
        let (a, b) = (lower(f, self.a), lower(f, self.b));
        lift(f, karatsuba_fp6(f, a.each_ref(), b.each_ref()))
    }
}

/// [`Fp6Context::exp`]'s loop, on the backend [`FpContext::run`] picks.
struct Exp<'a> {
    base: &'a Fp6Element,
    exp: &'a BigUint,
}

impl FieldJob for Exp<'_> {
    type Output = Fp6Element;

    fn run<F: ValueOps>(self, f: &F) -> Fp6Element {
        let base = lower(f, self.base);
        let one = std::array::from_fn(|i| if i == 0 { f.one() } else { f.zero() });
        let power = square_and_multiply(one, &base, self.exp, |a, b| {
            karatsuba_fp6(f, a.each_ref(), b.each_ref())
        });
        lift(f, power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> Fp6Context {
        Fp6Context::new(FpContext::new(&BigUint::from(101u64)).unwrap()).unwrap()
    }

    /// Schoolbook 36M reference multiplication, reduced top-down with
    /// `z^k = -z^(k-3) - z^(k-6)` for `k >= 6`.
    fn schoolbook_mul(f: &Fp6Context, a: &Fp6Element, b: &Fp6Element) -> Fp6Element {
        let fp = f.fp();
        let mut d: Vec<FpElement> = vec![fp.zero(); 11];
        for i in 0..6 {
            for j in 0..6 {
                d[i + j] = fp.add(&d[i + j], &fp.mul(&a.coeffs()[i], &b.coeffs()[j]));
            }
        }
        for k in (6..11).rev() {
            d[k - 3] = fp.sub(&d[k - 3], &d[k]);
            d[k - 6] = fp.sub(&d[k - 6], &d[k]);
        }
        f.from_coeffs(std::array::from_fn(|i| d[i].clone()))
    }

    #[test]
    fn rejects_wrong_congruence() {
        let fp = FpContext::new(&BigUint::from(19u64)).unwrap(); // 19 ≡ 1 mod 9
        assert!(matches!(
            Fp6Context::new(fp),
            Err(FieldError::UnsupportedCongruence { modulus: 9, .. })
        ));
    }

    #[test]
    fn z_is_a_primitive_ninth_root_of_unity() {
        let f = ctx();
        let z = f.gen_z();
        let mut acc = f.one();
        for i in 1..9 {
            acc = f.mul(&acc, &z);
            if i < 9 {
                assert_ne!(acc, f.one(), "z^{i} must not be 1");
            }
        }
        acc = f.mul(&acc, &z);
        assert_eq!(acc, f.one(), "z^9 must be 1");
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..25 {
            let a = f.random(&mut rng);
            let b = f.random(&mut rng);
            assert_eq!(f.mul(&a, &b), schoolbook_mul(&f, &a, &b));
        }
    }

    #[test]
    fn multiplication_costs_18m() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        f.fp().reset_op_count();
        let _ = f.mul(&a, &b);
        let count = f.fp().op_count();
        assert_eq!(count.mul, 18, "paper: one Fp6 mult = 18M");
        let adds = count.additions_total();
        assert!(
            (50..=70).contains(&adds),
            "paper: one Fp6 mult ≈ 60A, measured {adds}"
        );
    }

    #[test]
    fn ring_axioms() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..10 {
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
            assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        }
    }

    #[test]
    fn frobenius_is_automorphism_and_matches_exponentiation() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let a = f.random(&mut rng);
        let b = f.random(&mut rng);
        for k in 0..6 {
            assert_eq!(
                f.frobenius(&f.mul(&a, &b), k),
                f.mul(&f.frobenius(&a, k), &f.frobenius(&b, k))
            );
        }
        // frobenius(a, 1) == a^p
        assert_eq!(f.frobenius(&a, 1), f.exp(&a, &BigUint::from(101u64)));
        // frobenius composition: frob^6 = identity
        assert_eq!(f.frobenius(&a, 6), a);
        // conjugate twice = identity
        assert_eq!(f.conjugate(&f.conjugate(&a)), a);
    }

    #[test]
    fn gamma_is_purely_imaginary() {
        let f = ctx();
        let gamma = f.zeta_minus_inverse();
        assert_eq!(f.conjugate(&gamma), f.neg(&gamma));
        let x = f.zeta_plus_inverse();
        assert_eq!(f.conjugate(&x), x);
        // x satisfies x^3 - 3x + 1 = 0.
        let x3 = f.mul(&f.mul(&x, &x), &x);
        let three_x = f.scalar_mul(&x, &f.fp().from_u64(3));
        assert!(f.add(&f.sub(&x3, &three_x), &f.one()).is_zero());
    }

    #[test]
    fn norms_land_in_subfields() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        let a = f.random(&mut rng);
        // Norm to Fp3 is fixed by conjugation.
        let n3 = f.norm_to_fp3(&a);
        assert_eq!(f.conjugate(&n3), n3);
        // Norm to Fp2 is fixed by frobenius^2.
        let n2 = f.norm_to_fp2(&a);
        assert_eq!(f.frobenius(&n2, 2), n2);
        // Absolute norm is multiplicative.
        let b = f.random(&mut rng);
        assert_eq!(f.norm(&f.mul(&a, &b)), f.fp().mul(&f.norm(&a), &f.norm(&b)));
        // It is the product of all six conjugates.
        let conjugates = (1..6).fold(a.clone(), |acc, k| f.mul(&acc, &f.frobenius(&a, k)));
        assert_eq!(f.from_fp(f.norm(&a)), conjugates);
    }

    #[test]
    fn fp3_coordinates_are_the_basis_one_x_x_squared() {
        // τ⁻¹ sends u to u₀ + u₁·x + u₂·x², τ reads u back, and τ⁻¹∘τ is the
        // identity on the Fp3 subfield: at p ≡ 2 and p ≡ 5 (mod 9) and at
        // the CEILIDH-170 prime.
        let p170 = BigUint::from_hex("2e14985ba5778232ba167ef32f9741a9a30db4650f7").unwrap();
        for p in [BigUint::from(101u64), BigUint::from(23u64), p170] {
            let f = Fp6Context::new(FpContext::new(&p).unwrap()).unwrap();
            let fp = f.fp();
            let x = f.zeta_plus_inverse();
            let x2 = f.square(&x);
            let mut rng = rand::rngs::StdRng::seed_from_u64(29);
            for _ in 0..20 {
                let u: [FpElement; 3] = std::array::from_fn(|_| fp.random(&mut rng));
                let a = f.from_fp3(u.clone());
                let [u0, u1, u2] = &u;
                let expected = f.add(
                    &f.add(&f.from_fp(u0.clone()), &f.scalar_mul(&x, u1)),
                    &f.scalar_mul(&x2, u2),
                );
                assert_eq!(a, expected);
                assert_eq!(f.to_fp3(&a), u);
                let n = f.norm_to_fp3(&f.random(&mut rng));
                assert_eq!(f.from_fp3(f.to_fp3(&n)), n);
            }
        }
    }

    #[test]
    fn inversion_roundtrip() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        for _ in 0..10 {
            let a = f.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), f.one());
        }
        assert_eq!(f.inv(&f.zero()).unwrap_err(), FieldError::DivisionByZero);
    }

    #[test]
    fn exponentiation_group_order() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let order = BigUint::from(101u64).pow(6) - BigUint::one();
        let a = f.random(&mut rng);
        if !a.is_zero() {
            assert_eq!(f.exp(&a, &order), f.one());
        }
        assert_eq!(f.exp(&a, &BigUint::zero()), f.one());
    }

    #[test]
    fn windowed_exponentiation_matches_plain() {
        let f = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(28);
        for _ in 0..5 {
            let a = f.random(&mut rng);
            let e = BigUint::random_bits(&mut rng, 80);
            let plain = f.exp(&a, &e);
            for w in [2usize, 3, 4, 5] {
                assert_eq!(f.exp_window(&a, &e, w), plain, "window {w}");
            }
        }
        // Edge cases: zero and tiny exponents.
        let a = f.random(&mut rng);
        assert_eq!(f.exp_window(&a, &BigUint::zero(), 4), f.one());
        assert_eq!(f.exp_window(&a, &BigUint::one(), 4), a);
    }
}
