//! Field operations as traits, the `Fp6` product and the torus squaring
//! written once against them, and the counted backend every field job
//! runs on.
//!
//! The paper's composite operations are straight-line sequences of
//! modular multiplications, additions and subtractions. [`FieldOps`] is
//! the smallest interface such a sequence needs, so each sequence is
//! written exactly once as a generic, branch-free body and then
//! instantiated on every backend:
//!
//! * [`FpContext`] — the field itself, each operation one counted job on
//!   the shared counter (behind the `ecc` crate's single
//!   `Curve::jacobian_*` operations);
//! * a tally over any [`ResidueOps`] backend, which [`FpContext::run`]
//!   hands every [`FieldJob`] — each single [`FpContext`] operation, each
//!   [`crate::Fp6Context`] product and exponentiation, each
//!   [`FpContext::exp`] and each `ecc` scalar ladder. The backend is the
//!   one [`bignum::MontgomeryParams::run`] picks for the field's width
//!   (the heap reference on a `heap_only` twin);
//! * the platform crate's recorder, which turns each operation into one
//!   step of the coprocessor program.
//!
//! The step order of a body *is* the program the platform executes, so
//! bodies are written in that order. The ECC point formulas follow the
//! same pattern in the `ecc` crate.

use std::cell::Cell;

use bignum::{ResidueJob, ResidueOps};

use crate::fp::{FpContext, FpElement};
use crate::opcount::{OpCount, OpCounter};

/// The arithmetic a formula body may perform.
///
/// Value backends compute; a recording backend appends one program step
/// per call, so bodies must stay branch-free and data-independent.
pub trait FieldOps {
    /// A field element, or a handle to where one will live.
    type Elem;

    /// One Montgomery product `a · b`.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// One modular addition `a + b`.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// One modular subtraction `a − b`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Moves a value to a new place. Value backends return `a` unchanged;
    /// the recorder emits the decoder copy the platform program executes.
    fn copy(&self, a: Self::Elem) -> Self::Elem;
}

/// What a backend that holds values (not a recorder) adds to [`FieldOps`]:
/// the constants, the zero test, the two operations a scalar ladder
/// performs outside the formula bodies — negating an addend and one
/// batched inversion to return to affine form — and the conversions
/// between [`FpElement`] and the backend's own element.
///
/// [`FpContext`] implements it, and so does the tally over the backend
/// [`FpContext::run`] hands a job; the `ecc` crate's ladders and the
/// tower's exponentiations are written once against it. Both count exactly
/// what the inherent [`FpContext`] operations count.
pub trait ValueOps: FieldOps<Elem: Clone + PartialEq> {
    /// The additive identity.
    fn zero(&self) -> Self::Elem;

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// Whether `a` is zero.
    fn is_zero(&self, a: &Self::Elem) -> bool;

    /// `−a`.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;

    /// Inverts every element of `values` in place with one shared
    /// inversion (Montgomery's trick).
    ///
    /// # Panics
    ///
    /// Panics if an element is zero.
    fn invert_batch(&self, values: &mut [Self::Elem]);

    /// The backend form of a field element.
    fn lower(&self, e: &FpElement) -> Self::Elem;

    /// The field element of a backend value.
    fn lift(&self, e: Self::Elem) -> FpElement;
}

/// A computation written once over [`ValueOps`], which
/// [`FpContext::run`] runs on the backend it picks for the field.
pub trait FieldJob {
    /// What the job returns.
    type Output;

    /// Runs the job on `f`.
    fn run<F: ValueOps>(self, f: &F) -> Self::Output;
}

impl FieldOps for FpContext {
    type Elem = FpElement;

    fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpContext::mul(self, a, b)
    }

    fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpContext::add(self, a, b)
    }

    fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        FpContext::sub(self, a, b)
    }

    fn copy(&self, a: FpElement) -> FpElement {
        a
    }
}

/// Counted like the inherent methods: [`FpContext::neg`] records one
/// subtraction, and the batch records one inversion per element.
impl ValueOps for FpContext {
    fn zero(&self) -> FpElement {
        FpContext::zero(self)
    }

    fn one(&self) -> FpElement {
        FpContext::one(self)
    }

    fn is_zero(&self, a: &FpElement) -> bool {
        a.is_zero()
    }

    fn neg(&self, a: &FpElement) -> FpElement {
        FpContext::neg(self, a)
    }

    fn invert_batch(&self, values: &mut [FpElement]) {
        let inverses = self.inv_batch(values);
        for (value, inverse) in values.iter_mut().zip(inverses) {
            *value = inverse.expect("batched inversion of zero");
        }
    }

    fn lower(&self, e: &FpElement) -> FpElement {
        e.clone()
    }

    fn lift(&self, e: FpElement) -> FpElement {
        e
    }
}

/// The backend [`FpContext::run`] hands a job: a [`ResidueOps`] backend
/// plus a tally of exactly what [`FpContext`] records for the same calls.
struct Tally<'a, R> {
    r: &'a R,
    /// Whether the field's elements store their residues in words.
    words: bool,
    // Four cells, not one `Cell<OpCount>`, so that each operation updates
    // one word instead of rewriting the whole tally.
    mul: Cell<u64>,
    add: Cell<u64>,
    sub: Cell<u64>,
    inv: Cell<u64>,
}

impl<R: ResidueOps> FieldOps for Tally<'_, R> {
    type Elem = R::Elem;

    #[inline]
    fn mul(&self, a: &R::Elem, b: &R::Elem) -> R::Elem {
        self.mul.set(self.mul.get() + 1);
        self.r.mont_mul(a, b)
    }

    #[inline]
    fn add(&self, a: &R::Elem, b: &R::Elem) -> R::Elem {
        self.add.set(self.add.get() + 1);
        self.r.add(a, b)
    }

    #[inline]
    fn sub(&self, a: &R::Elem, b: &R::Elem) -> R::Elem {
        self.sub.set(self.sub.get() + 1);
        self.r.sub(a, b)
    }

    #[inline]
    fn copy(&self, a: R::Elem) -> R::Elem {
        a
    }
}

impl<R: ResidueOps> ValueOps for Tally<'_, R> {
    #[inline]
    fn zero(&self) -> R::Elem {
        self.r.lower_words(&[])
    }

    #[inline]
    fn one(&self) -> R::Elem {
        self.r.one_mont()
    }

    #[inline]
    fn is_zero(&self, a: &R::Elem) -> bool {
        self.r.is_zero(a)
    }

    /// Counted as one subtraction, unless `a` is zero.
    #[inline]
    fn neg(&self, a: &R::Elem) -> R::Elem {
        if !self.r.is_zero(a) {
            self.sub.set(self.sub.get() + 1);
        }
        self.r.neg(a)
    }

    /// Counted as one inversion per element.
    fn invert_batch(&self, values: &mut [R::Elem]) {
        self.inv.set(self.inv.get() + values.len() as u64);
        assert!(self.r.invert_batch(values), "batched inversion of zero");
    }

    #[inline]
    fn lower(&self, e: &FpElement) -> R::Elem {
        e.lower(self.r)
    }

    #[inline]
    fn lift(&self, e: R::Elem) -> FpElement {
        FpElement::lift(self.r, &e, self.words)
    }
}

/// A [`FieldJob`] as the [`ResidueJob`] [`FpContext::run`] dispatches: the
/// job runs behind a [`Tally`] on the backend it is handed, and the tally
/// reaches the shared counter once, when the job returns.
pub(crate) struct Tallied<'a, J> {
    pub(crate) job: J,
    /// Whether the field's elements store their residues in words.
    pub(crate) words: bool,
    pub(crate) counter: &'a OpCounter,
}

impl<J: FieldJob> ResidueJob for Tallied<'_, J> {
    type Output = J::Output;

    #[inline(always)]
    fn run<R: ResidueOps>(self, r: &R) -> J::Output {
        let tally = Tally {
            r,
            words: self.words,
            mul: Cell::new(0),
            add: Cell::new(0),
            sub: Cell::new(0),
            inv: Cell::new(0),
        };
        let out = self.job.run(&tally);
        self.counter.add(OpCount {
            mul: tally.mul.get(),
            add: tally.add.get(),
            sub: tally.sub.get(),
            inv: tally.inv.get(),
        });
        out
    }
}

/// The 6M Karatsuba product of two degree-2 polynomials (Section 2.2.2):
/// the five coefficients of `a · b`, in 6 M + 12 A/S.
fn karatsuba3<F: FieldOps>(f: &F, a: [&F::Elem; 3], b: [&F::Elem; 3]) -> [F::Elem; 5] {
    let c0 = f.mul(a[0], b[0]);
    let c1 = f.mul(a[1], b[1]);
    let c2 = f.mul(a[2], b[2]);
    // c3 = (a0 − a1)(b0 − b1), c4 = (a0 − a2)(b0 − b2), c5 = (a1 − a2)(b1 − b2)
    let c3 = f.mul(&f.sub(a[0], a[1]), &f.sub(b[0], b[1]));
    let c4 = f.mul(&f.sub(a[0], a[2]), &f.sub(b[0], b[2]));
    let c5 = f.mul(&f.sub(a[1], a[2]), &f.sub(b[1], b[2]));
    // d0 = c0, d1 = (c0 + c1) − c3, d2 = (c0 + c1) + c2 − c4,
    // d3 = c1 + c2 − c5, d4 = c2 — the sum c0 + c1 is shared.
    let s01 = f.add(&c0, &c1);
    let d0 = f.copy(c0);
    let d1 = f.sub(&s01, &c3);
    let d2 = f.sub(&f.add(&s01, &c2), &c4);
    let d3 = f.sub(&f.add(&c1, &c2), &c5);
    let d4 = f.copy(c2);
    [d0, d1, d2, d3, d4]
}

/// `karatsuba-fp6`: the `Fp6 = Fp[z]/(z⁶ + z³ + 1)` product of
/// Section 2.2.2 in 18 M + 64 A/S (and 10 decoder copies on the
/// platform).
///
/// Writing `A = A0 + A1·z³` and `B = B0 + B1·z³` with degree-2 halves,
/// the three half-products `C0 = A0·B0`, `C1 = A1·B1` and
/// `C2 = (A0 − A1)(B0 − B1)` give `A·B = C0 + (C0 + C1 − C2)·z³ + C1·z⁶`,
/// which is then reduced with `z⁶ = −z³ − 1`, `z⁷ = −z⁴ − z`,
/// `z⁸ = −z⁵ − z²`, `z⁹ = 1` and `z¹⁰ = z`.
pub fn karatsuba_fp6<F: FieldOps>(f: &F, a: [&F::Elem; 6], b: [&F::Elem; 6]) -> [F::Elem; 6] {
    let [c00, c01, c02, c03, c04] = karatsuba3(f, [a[0], a[1], a[2]], [b[0], b[1], b[2]]);
    let c1 = karatsuba3(f, [a[3], a[4], a[5]], [b[3], b[4], b[5]]);
    let [ad0, bd0, ad1, bd1, ad2, bd2] = [
        f.sub(a[0], a[3]),
        f.sub(b[0], b[3]),
        f.sub(a[1], a[4]),
        f.sub(b[1], b[4]),
        f.sub(a[2], a[5]),
        f.sub(b[2], b[5]),
    ];
    let c2 = karatsuba3(f, [&ad0, &ad1, &ad2], [&bd0, &bd1, &bd2]);
    // mid[k] = C0[k] + C1[k] − C2[k]
    let c0 = [&c00, &c01, &c02, &c03, &c04];
    let [m0, m1, m2, m3, m4]: [F::Elem; 5] =
        std::array::from_fn(|k| f.sub(&f.add(c0[k], &c1[k]), &c2[k]));
    // Coefficients d0..d10 before reduction: C0 at z⁰, mid at z³, C1 at
    // z⁶; only z³, z⁴, z⁶ and z⁷ need an addition.
    let r0 = f.copy(c00);
    let r1 = f.copy(c01);
    let r2 = f.copy(c02);
    let r3 = f.add(&c03, &m0);
    let r4 = f.add(&c04, &m1);
    let r5 = f.copy(m2);
    let d6 = f.add(&m3, &c1[0]);
    let d7 = f.add(&m4, &c1[1]);
    // Reduction modulo z⁶ + z³ + 1 (d8, d9, d10 are C1[2..5]).
    let r3 = f.sub(&r3, &d6);
    let r0 = f.sub(&r0, &d6);
    let r4 = f.sub(&r4, &d7);
    let r1 = f.sub(&r1, &d7);
    let r5 = f.sub(&r5, &c1[2]);
    let r2 = f.sub(&r2, &c1[2]);
    let r0 = f.add(&r0, &c1[3]);
    let r1 = f.add(&r1, &c1[4]);
    [r0, r1, r2, r3, r4, r5]
}

/// The square of an element of the torus `T6` in 6 M + 21 A + 7 S
/// (Granger and Scott, "Faster squaring in the cyclotomic subgroup of
/// sixth degree extensions", PKC 2010), against the 18 M + 64 A/S of
/// [`karatsuba_fp6`].
///
/// Regroup `g = a + b·z + c·z²` over `Fp2 = Fp(ω)`, `ω = z³`,
/// `ω² = −1 − ω`: `a = c₀ + c₃ω`, `b = c₁ + c₄ω`, `c = c₂ + c₅ω`. On `T6`,
/// `g^(p² − p + 1) = 1`, so `g·σ²(g) = σ(g)` for the Frobenius map σ (at
/// `p ≡ 5 (mod 9)`, take σ⁵ for σ: the same identities follow). Written out
/// coefficient by coefficient, with `x̄` the conjugate of `x` in `Fp2`,
/// that is `a² − ωbc = ā`, `c² − ω̄ab = ωc̄` and `ω(b² − ac) = b̄`, and
/// substituting the cross terms into `g² = (a² + 2ωbc) + (2ab + ωc²)·z +
/// (b² + 2ac)·z²` gives
/// `g² = (3a² − 2ā) + (3ωc² − 2ω̄c̄)·z + (3b² − 2ω̄b̄)·z²`: three `Fp2`
/// squarings `x² = (x₀ − x₁)(x₀ + x₁) + x₁(2x₀ − x₁)·ω` of 2 M each.
///
/// Valid on `T6` only: off it, the result is not the square of `g`.
pub(crate) fn cyclotomic_square<F: FieldOps>(f: &F, g: [&F::Elem; 6]) -> [F::Elem; 6] {
    // The square of x₀ + x₁ω as its two coordinates, and x₀ − x₁.
    let square = |x0: &F::Elem, x1: &F::Elem| {
        let d = f.sub(x0, x1);
        let t = f.add(x0, &d);
        let y0 = f.mul(&d, &f.add(x0, x1));
        (y0, f.mul(x1, &t), d)
    };
    // y + 2s, the form of 3y ± 2x with s = y ± x.
    let y_plus_twice = |y: &F::Elem, s: F::Elem| f.add(&f.add(&s, &s), y);
    // 3a² − 2ā, with ā = (a₀ − a₁) − a₁ω.
    let (a0, a1, d) = square(g[0], g[3]);
    let r0 = y_plus_twice(&a0, f.sub(&a0, &d));
    let r3 = y_plus_twice(&a1, f.add(&a1, g[3]));
    // 3ωc² − 2ω̄c̄, with ωy = −y₁ + (y₀ − y₁)ω and ω̄c̄ = −c₀ − (c₀ − c₁)ω.
    let (c0, c1, d) = square(g[2], g[5]);
    let u = f.sub(g[2], &c1);
    let r1 = f.sub(&f.add(&u, &u), &c1);
    let w = f.sub(&c0, &c1);
    let r4 = y_plus_twice(&w, f.add(&w, &d));
    // 3b² − 2ω̄b̄, with ω̄b̄ = −b₀ − (b₀ − b₁)ω.
    let (b0, b1, d) = square(g[1], g[4]);
    let r2 = y_plus_twice(&b0, f.add(&b0, g[1]));
    let r5 = y_plus_twice(&b1, f.add(&b1, &d));
    [r0, r1, r2, r3, r4, r5]
}
