//! Field operations as traits, the `Fp6` product written once against
//! them, and the field's counted stack backend.
//!
//! The paper's composite operations are straight-line sequences of
//! modular multiplications, additions and subtractions. [`FieldOps`] is
//! the smallest interface such a sequence needs, so each sequence is
//! written exactly once as a generic, branch-free body and then
//! instantiated on every backend:
//!
//! * [`FpContext`] — the field itself, counting every operation on the
//!   shared counter (behind [`crate::Fp3Context`], and behind every
//!   [`FieldJob`] on a `heap_only` twin or a field wider than 256 bits);
//! * the field's own `L`-word [`MontgomeryContext`], which
//!   [`FpContext::run`] hands a [`FieldJob`] behind a non-atomic tally —
//!   each [`crate::Fp6Context`] product and exponentiation, each
//!   [`FpContext::exp`] and each `ecc` scalar ladder is one such job;
//! * the platform crate's recorder, which turns each operation into one
//!   step of the coprocessor program.
//!
//! The step order of a body *is* the program the platform executes, so
//! bodies are written in that order. The ECC point formulas follow the
//! same pattern in the `ecc` crate.

use std::cell::Cell;

use bignum::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};

use crate::fp::{FpContext, FpElement};
use crate::opcount::OpCount;

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
/// [`FpContext`] implements it, and so does the stack backend
/// [`FpContext::run`] picks; the `ecc` crate's ladders and the tower's
/// exponentiations are written once against it. Both count exactly what
/// the inherent [`FpContext`] operations count.
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

/// The backend [`FpContext::run`] hands a job on a field of at most 256
/// bits: the field's own `L`-word [`MontgomeryContext`], whose elements
/// are the low `L` words of each [`FpElement`] residue, plus a tally of
/// exactly what [`FpContext`] records for the same calls. `run` adds the
/// tally to the shared counter once, when the job returns.
pub(crate) struct Words<'a, const L: usize> {
    ctx: &'a MontgomeryContext<L>,
    // Four cells, not one `Cell<OpCount>`, so that each operation updates
    // one word instead of rewriting the whole tally.
    mul: Cell<u64>,
    add: Cell<u64>,
    sub: Cell<u64>,
    inv: Cell<u64>,
}

impl<'a, const L: usize> Words<'a, L> {
    /// The backend over `ctx`, with an empty tally.
    pub(crate) fn new(ctx: &'a MontgomeryContext<L>) -> Self {
        Words {
            ctx,
            mul: Cell::new(0),
            add: Cell::new(0),
            sub: Cell::new(0),
            inv: Cell::new(0),
        }
    }

    /// The operations recorded so far.
    pub(crate) fn tally(&self) -> OpCount {
        OpCount {
            mul: self.mul.get(),
            add: self.add.get(),
            sub: self.sub.get(),
            inv: self.inv.get(),
        }
    }
}

impl<const L: usize> FieldOps for Words<'_, L> {
    type Elem = Uint<L>;

    #[inline]
    fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        self.mul.set(self.mul.get() + 1);
        self.ctx.mont_mul(a, b)
    }

    #[inline]
    fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        self.add.set(self.add.get() + 1);
        add_mod(a, b, self.ctx.modulus())
    }

    #[inline]
    fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        self.sub.set(self.sub.get() + 1);
        sub_mod(a, b, self.ctx.modulus())
    }

    #[inline]
    fn copy(&self, a: Uint<L>) -> Uint<L> {
        a
    }
}

impl<const L: usize> ValueOps for Words<'_, L> {
    #[inline]
    fn zero(&self) -> Uint<L> {
        Uint::ZERO
    }

    #[inline]
    fn one(&self) -> Uint<L> {
        self.ctx.one_mont()
    }

    #[inline]
    fn is_zero(&self, a: &Uint<L>) -> bool {
        a.is_zero()
    }

    #[inline]
    fn neg(&self, a: &Uint<L>) -> Uint<L> {
        if a.is_zero() {
            return Uint::ZERO;
        }
        self.sub.set(self.sub.get() + 1);
        neg_mod(a, self.ctx.modulus())
    }

    fn invert_batch(&self, values: &mut [Uint<L>]) {
        self.inv.set(self.inv.get() + values.len() as u64);
        // A lone value needs no prefix chain, so a single inversion stays
        // off the heap.
        if let [value] = values {
            *value = self.ctx.mont_inv_prime(value).expect("inversion of zero");
            return;
        }
        let mut scratch = vec![Uint::ZERO; values.len()];
        assert!(
            self.ctx.mont_inv_batch(values, &mut scratch),
            "batched inversion of zero"
        );
    }

    #[inline]
    fn lower(&self, e: &FpElement) -> Uint<L> {
        let words = e
            .mont_repr()
            .expect("a field of at most 256 bits stores words");
        Uint::from_limbs(std::array::from_fn(|i| words.limbs()[i]))
    }

    #[inline]
    fn lift(&self, e: Uint<L>) -> FpElement {
        let mut words = [0; 4];
        words[..L].copy_from_slice(e.limbs());
        FpElement::from_words(Uint::from_limbs(words))
    }
}

/// The 6M Karatsuba product of two degree-2 polynomials (Section 2.2.2):
/// the five coefficients of `a · b`, in 6 M + 12 A/S.
pub(crate) fn karatsuba3<F: FieldOps>(f: &F, a: [&F::Elem; 3], b: [&F::Elem; 3]) -> [F::Elem; 5] {
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
