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

use bignum::fixed::Uint;
use bignum::{square_and_multiply, BigUint, ExponentBits};
use rand::Rng;

use crate::error::FieldError;
use crate::formulas::{cyclotomic_square, karatsuba_fp6, FieldJob, ValueOps};
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

    /// Exponentiation by left-to-right square-and-multiply, the paper's
    /// binary method, for every element, as one [`FieldJob`]: the base is
    /// lowered once, every product runs [`crate::karatsuba_fp6`] on the
    /// backend [`FpContext::run`] picks, and the `bit_len + popcount`
    /// products reach the counter in one update. Elements of the torus
    /// `T6` take [`exp_cyclotomic`](Self::exp_cyclotomic).
    pub fn exp(&self, base: &Fp6Element, exp: &BigUint) -> Fp6Element {
        self.fp.run(Exp { base, exp })
    }

    /// `base^exp` for `base` in the torus `T6`, by the torus's own
    /// Frobenius map σ (Stam and Lenstra, CHES 2002): one [`FieldJob`]
    /// that reduces `exp` modulo `Φ6(p) = p² − p + 1`, the order of `T6`,
    /// splits it as `e₀ + e₁·p` with `e₀, e₁ < p`, and computes
    /// `base^e₀ · σ(base)^e₁` with one interleaved 4-bit sliding window
    /// and the 6 M torus squaring (Granger and Scott, PKC 2010).
    ///
    /// The tables hold `base, base³, …, base¹⁵` (one squaring and 7
    /// products) and, unless `e₁` is zero, their images under σ
    /// (Frobenius maps, no products).
    /// The loop starts from the top window's entry, squares once per bit
    /// and multiplies wherever a window of `e₀` or of `e₁` ends. At fields
    /// of at most 256 bits the split runs on stack words, and the call
    /// allocates nothing.
    ///
    /// The result for a `base` outside `T6` is unspecified: the squaring
    /// and the reduction of the exponent hold on `T6` only.
    /// [`exp`](Self::exp) is the paper's binary method, for every element.
    pub fn exp_cyclotomic(&self, base: &Fp6Element, exp: &BigUint) -> Fp6Element {
        let p = self.fp.modulus();
        let sigma = self.p_mod_9 as usize;
        match Uint::<4>::from_biguint(p) {
            Some(p) => self.fp.run(ExpCyclotomic {
                base,
                digits: split_at_p(exp, &p),
                sigma,
            }),
            None => {
                // Wider fields keep their residues on the heap, and so
                // does the split.
                let (e1, e0) = (exp % &phi6(p)).div_rem(p).expect("p is not zero");
                self.fp.run(ExpCyclotomic {
                    base,
                    digits: [e0, e1],
                    sigma,
                })
            }
        }
    }

    /// The Frobenius map iterated `k` times: `a ↦ a^{p^k}`, as one job.
    ///
    /// Because `z` is a 9th root of unity this is a signed permutation of
    /// the coefficients, with no multiplications: `z^i ↦ z^{(i·p^k) mod 9}`,
    /// where `z⁶ = -z³ - 1`, `z⁷ = -z⁴ - z` and `z⁸ = -z⁵ - z²`. A
    /// coefficient that lands on `z⁰..z⁵` moves, uncounted; one that lands
    /// on `z^{6+j}` is subtracted from the coefficients of `z^j` and
    /// `z^{j+3}`, 2 S. The conjugation of a full element records 6 S, and
    /// σ at `p ≡ 2 (mod 9)` is `(c₀ - c₃, c₅, c₁ - c₄, -c₃, c₂, -c₄)`.
    pub fn frobenius(&self, a: &Fp6Element, k: usize) -> Fp6Element {
        let power = (0..k % 6).fold(1, |e, _| e * self.p_mod_9 as usize % 9);
        self.fp.run(Frobenius { a, power })
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
    /// products and three Frobenius maps ([`adjugate`](Self::adjugate)),
    /// a scalar product and one `Fp` inversion.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DivisionByZero`] for the zero element.
    pub fn inv(&self, a: &Fp6Element) -> Result<Fp6Element, FieldError> {
        if a.is_zero() {
            return Err(FieldError::DivisionByZero);
        }
        let (adjugate, norm) = self.adjugate(a);
        let norm_inv = self.fp.inv(&norm).ok_or(FieldError::DivisionByZero)?;
        Ok(self.scalar_mul(&adjugate, &norm_inv))
    }

    /// The pair `(ā·m, N(a))` with `a·ā·m = N(a) ∈ Fp`, so that
    /// `a⁻¹ = ā·m / N(a)` for non-zero `a` ([`inv`](Self::inv)): four
    /// products and three Frobenius maps, no inversion. A caller that
    /// only needs `a⁻¹` up to a factor in `Fp` can skip the inversion of
    /// the norm.
    pub fn adjugate(&self, a: &Fp6Element) -> (Fp6Element, FpElement) {
        let (conj, m, norm) = self.norm_tower(a);
        (self.mul(&conj, &m), norm)
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

/// The backend form of the identity.
fn one<F: ValueOps>(f: &F) -> [F::Elem; 6] {
    std::array::from_fn(|i| if i == 0 { f.one() } else { f.zero() })
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
        let power = square_and_multiply(one(f), &base, self.exp, |a, b| {
            karatsuba_fp6(f, a.each_ref(), b.each_ref())
        });
        lift(f, power)
    }
}

/// [`Fp6Context::frobenius`]'s signed permutation, on the backend
/// [`FpContext::run`] picks.
struct Frobenius<'a> {
    a: &'a Fp6Element,
    /// `p^k mod 9`.
    power: usize,
}

impl FieldJob for Frobenius<'_> {
    type Output = Fp6Element;

    fn run<F: ValueOps>(self, f: &F) -> Fp6Element {
        lift(f, frobenius(f, lower(f, self.a).each_ref(), self.power))
    }
}

/// `a^{p^k}` with `power = p^k mod 9`: the coefficient of `z^i` moves to
/// `z^{i·power mod 9}`, and one that lands on `z^{6+j} = -z^{j+3} - z^j`
/// is subtracted from the slots `j` and `j + 3`, as a difference where a
/// moved coefficient sits and as a negation where none does.
fn frobenius<F: ValueOps>(f: &F, a: [&F::Elem; 6], power: usize) -> [F::Elem; 6] {
    let target = |i: usize| i * power % 9;
    let mut r: [Option<F::Elem>; 6] =
        std::array::from_fn(|m| (0..6).find(|&i| target(i) == m).map(|i| a[i].clone()));
    for (i, c) in a.into_iter().enumerate() {
        let m = target(i);
        if m >= 6 {
            for slot in [m - 6, m - 3] {
                r[slot] = Some(match &r[slot] {
                    Some(moved) => f.sub(moved, c),
                    None => f.neg(c),
                });
            }
        }
    }
    r.map(|c| c.expect("every slot receives a coefficient"))
}

/// The width of [`Fp6Context::exp_cyclotomic`]'s sliding window.
const WINDOW: usize = 4;

/// The odd powers `g, g³, …, g^{2^WINDOW - 1}` a window reads.
const TABLE: usize = 1 << (WINDOW - 1);

/// [`Fp6Context::exp_cyclotomic`]'s loop, on the backend
/// [`FpContext::run`] picks.
struct ExpCyclotomic<'a, E> {
    base: &'a Fp6Element,
    /// The digits `e₀` and `e₁` of the reduced exponent `e₀ + e₁·p`.
    digits: [E; 2],
    /// `p mod 9`, the power σ raises `z` to.
    sigma: usize,
}

impl<E: ExponentBits> FieldJob for ExpCyclotomic<'_, E> {
    type Output = Fp6Element;

    fn run<F: ValueOps>(self, f: &F) -> Fp6Element {
        let mut windows = self.digits.each_ref().map(|e| window_below(e, e.bit_len()));
        let Some(start) = windows.iter().flatten().map(|&(low, _)| low).max() else {
            return lift(f, one(f));
        };
        // g, g³, …, g¹⁵ for e₀, and their images under σ for e₁ unless it
        // is zero.
        let base = lower(f, self.base);
        let square = cyclotomic_square(f, base.each_ref());
        let mut powers: [[F::Elem; 6]; TABLE] = std::array::from_fn(|_| base.clone());
        for k in 1..TABLE {
            powers[k] = karatsuba_fp6(f, powers[k - 1].each_ref(), square.each_ref());
        }
        let images = windows[1].map(|_| {
            powers
                .each_ref()
                .map(|g| frobenius(f, g.each_ref(), self.sigma))
        });
        let tables = [Some(&powers), images.as_ref()];

        // From the first window's entry: one squaring per bit, and one
        // product wherever a window of e₀ or of e₁ ends.
        let mut acc: Option<[F::Elem; 6]> = None;
        for i in (0..=start).rev() {
            if let Some(a) = &acc {
                acc = Some(cyclotomic_square(f, a.each_ref()));
            }
            for ((window, table), e) in windows.iter_mut().zip(tables).zip(&self.digits) {
                let Some((low, value)) = *window else {
                    continue;
                };
                if low == i {
                    let entry = &table.expect("a digit with a window has a table")[value / 2];
                    acc = Some(match &acc {
                        Some(a) => karatsuba_fp6(f, a.each_ref(), entry.each_ref()),
                        None => entry.clone(),
                    });
                    *window = window_below(e, low);
                }
            }
        }
        lift(f, acc.expect("the first window ends at the start"))
    }
}

/// The highest window of `exp` below bit `end`: its lowest bit and its
/// value, odd and at most [`WINDOW`] bits wide. `None` when no bit below
/// `end` is set.
fn window_below(exp: &impl ExponentBits, end: usize) -> Option<(usize, usize)> {
    let high = (0..end).rev().find(|&i| exp.bit(i))?;
    let low = (high.saturating_sub(WINDOW - 1)..high)
        .find(|&i| exp.bit(i))
        .unwrap_or(high);
    let value = (low..=high)
        .rev()
        .fold(0, |v, i| 2 * v + usize::from(exp.bit(i)));
    Some((low, value))
}

/// `Φ6(p) = p² - p + 1`, the order of the torus `T6`.
fn phi6(p: &BigUint) -> BigUint {
    &(&(p * p) - p) + &BigUint::one()
}

/// `exp mod Φ6(p)` as the digits `[e₀, e₁]` of `e₀ + e₁·p`, each below
/// `p`, on stack words: Horner's rule over the bits of `exp`, keeping
/// `v = e₀ + e₁·p` below `Φ6(p) = (p - 1)·p + 1` after every step.
fn split_at_p(exp: &BigUint, p: &Uint<4>) -> [Uint<4>; 2] {
    let one = Uint::from_u64(1);
    let top = p.wrapping_sub(&one);
    // 2x + bit for a digit x < p: the digit mod p and the carry out of it.
    let double = |x: &Uint<4>, bit: u64| {
        let (sum, overflow) = x.carrying_add(x, bit);
        if overflow == 1 || sum >= *p {
            (sum.wrapping_sub(p), 1)
        } else {
            (sum, 0)
        }
    };
    let [mut e0, mut e1] = [Uint::ZERO; 2];
    for i in (0..exp.bit_len()).rev() {
        // 2v + bit = t₀ + (t₁ + carry·p)·p, below 2·Φ6(p): subtract Φ6(p)
        // once unless it is already below it.
        let (t0, carry) = double(&e0, u64::from(exp.bit(i)));
        let (t1, carry) = double(&e1, carry);
        [e0, e1] = if carry == 0 && (t1 != top || t0.is_zero()) {
            [t0, t1]
        } else if t0.is_zero() {
            // The carry is set: (t₁ + p)·p - Φ6(p) = (p - 1) + t₁·p.
            [top, t1]
        } else {
            // (t₀ - 1) + (t₁ + carry·p - (p - 1))·p, where t₁ = p - 1 if
            // the carry is clear.
            let t1 = if carry == 1 {
                t1.wrapping_add(&one)
            } else {
                Uint::ZERO
            };
            [t0.wrapping_sub(&one), t1]
        };
    }
    [e0, e1]
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

    /// The CEILIDH-170 prime and the prime order `q = Φ6(p)/327` of its
    /// working subgroup.
    const P170: &str = "2e14985ba5778232ba167ef32f9741a9a30db4650f7";
    const Q170: &str =
        "67e5cb35a64054b95002ed1c23bce161cfe740e26415dcc6b4a57f167304b8ea12b4dd0c3f6d1e80d4d";

    /// The towers over p = 101 ≡ 2 and p = 23 ≡ 5 (mod 9) and over the
    /// CEILIDH-170 prime, each with a prime q dividing Φ6(p).
    fn torus_fields() -> Vec<(Fp6Context, BigUint)> {
        [("65", "25"), ("17", "d"), (P170, Q170)]
            .iter()
            .map(|(p, q)| {
                let p = BigUint::from_hex(p).unwrap();
                let f = Fp6Context::new(FpContext::new(&p).unwrap()).unwrap();
                (f, BigUint::from_hex(q).unwrap())
            })
            .collect()
    }

    /// `x^((p³ - 1)(p + 1))` as `y^p·y` with `y = x̄·x⁻¹`: an element of
    /// `T6`, anywhere in it.
    fn project(f: &Fp6Context, x: &Fp6Element) -> Fp6Element {
        let y = f.mul(&f.conjugate(x), &f.inv(x).unwrap());
        f.mul(&f.frobenius(&y, 1), &y)
    }

    #[test]
    fn frobenius_moves_coefficients_and_subtracts_the_wrapped_ones() {
        // p = 101 ≡ 2 (mod 9): σ sends z^i to z^(2i), and z³, z⁴ land on
        // z⁶, z⁸.
        let f = ctx();
        let fp = f.fp();
        let a = f.from_u64_coeffs([1, 2, 3, 4, 5, 6]);
        fp.reset_op_count();
        let sigma = f.frobenius(&a, 1);
        let count = fp.op_count();
        assert_eq!(
            (count.add, count.sub),
            (0, 4),
            "σ: 2 S per wrapped coefficient"
        );
        let c = |i: i64| fp.from_i64(i);
        assert_eq!(
            sigma,
            f.from_coeffs([c(1 - 4), c(6), c(2 - 5), c(-4), c(3), c(-5)])
        );
        fp.reset_op_count();
        let conj = f.conjugate(&a);
        let count = fp.op_count();
        assert_eq!((count.add, count.sub), (0, 6), "conjugation: 6 S");
        assert_eq!(
            conj,
            f.from_coeffs([c(1 - 4), c(-3), c(-2), c(-4), c(6 - 3), c(5 - 2)])
        );
    }

    #[test]
    fn cyclotomic_squaring_is_the_square_on_the_torus_only() {
        for (f, _) in torus_fields() {
            let order = phi6(f.fp().modulus());
            let square =
                |g: &Fp6Element| f.from_coeffs(cyclotomic_square(f.fp(), g.coeffs().each_ref()));
            let mut rng = rand::rngs::StdRng::seed_from_u64(30);
            let mut outside = 0;
            for _ in 0..20 {
                let x = f.random(&mut rng);
                if x.is_zero() {
                    continue;
                }
                let g = project(&f, &x);
                assert_eq!(square(&g), f.square(&g), "{:?}", f.fp());
                if f.exp(&x, &order) != f.one() {
                    assert_ne!(square(&x), f.square(&x), "{:?}", f.fp());
                    outside += 1;
                }
            }
            assert!(outside > 10);
            let g = project(&f, &f.gen_z());
            f.fp().reset_op_count();
            let _ = square(&g);
            let count = f.fp().op_count();
            assert_eq!((count.mul, count.add, count.sub), (6, 21, 7));
        }
    }

    #[test]
    fn cyclotomic_exponentiation_matches_exp() {
        for (f, q) in torus_fields() {
            let p = f.fp().modulus().clone();
            let phi6 = phi6(&p);
            let one = BigUint::one();
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let exponents = [
                BigUint::zero(),
                one.clone(),
                BigUint::from(2u64),
                &p - &one,
                p.clone(),
                &p + &one,
                &q - &one,
                q.clone(),
                &phi6 - &one,
                phi6.clone(),
                &phi6 + &one,
                &p * &p,
                BigUint::random_below(&mut rng, &q),
                BigUint::random_bits(&mut rng, 700),
            ];
            for _ in 0..3 {
                let g = project(&f, &f.random(&mut rng));
                for e in &exponents {
                    assert_eq!(f.exp_cyclotomic(&g, e), f.exp(&g, e), "{p:?}^{e:?}");
                }
            }
        }
    }

    #[test]
    fn the_exponent_splits_at_p_on_words() {
        // Horner's rule on the digits of e mod Φ6(p) against the division,
        // up to a 256-bit prime close to 2^256, where doubling a digit
        // carries out of the top word.
        let secp256k1 =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let primes = [
            BigUint::from(101u64),
            BigUint::from(23u64),
            BigUint::from_hex(P170).unwrap(),
            secp256k1,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let one = BigUint::one();
        for p in primes {
            let phi6 = phi6(&p);
            let words = Uint::<4>::from_biguint(&p).unwrap();
            let mut exponents = vec![
                BigUint::zero(),
                one.clone(),
                &p - &one,
                p.clone(),
                &p + &one,
                &(&phi6 - &p) - &one,
                &phi6 - &p,
                &phi6 - &one,
                phi6.clone(),
                &phi6 + &one,
                &(&p * &p) - &one,
                &p * &p,
                &one.shl_bits(2 * p.bit_len() + 1) - &one,
                BigUint::random_bits(&mut rng, 700),
            ];
            exponents.extend((0..20).map(|_| BigUint::random_below(&mut rng, &phi6)));
            for e in exponents {
                let (e1, e0) = (&e % &phi6).div_rem(&p).unwrap();
                let want = [e0, e1].map(|d| Uint::from_biguint(&d).unwrap());
                assert_eq!(split_at_p(&e, &words), want, "{e:?} at {p:?}");
            }
        }
    }
}
