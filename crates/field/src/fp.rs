//! The base prime field `Fp`.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use bignum::fixed::Uint;
use bignum::{square_and_multiply, BigUint, MontgomeryParams, ResidueJob, ResidueOps};
use rand::Rng;

use crate::error::FieldError;
use crate::formulas::{FieldJob, Tallied, ValueOps};
use crate::opcount::{OpCount, OpCounter};

/// Context for arithmetic in the prime field `Fp`.
///
/// All elements are kept in Montgomery form internally (mirroring the
/// coprocessor, which works on Montgomery residues throughout an
/// exponentiation), and every multiplication / addition / subtraction /
/// inversion is recorded in the context's [`OpCounter`].
///
/// Every operation is a job: a computation written once over
/// [`crate::ValueOps`] — a single `mul` or `inv`, an `Fp6` product or
/// exponentiation, a scalar-mult ladder, [`FpContext::exp`] — runs through
/// [`FpContext::run`] on the backend [`MontgomeryParams::run`] picks for
/// the field's width: the `⌈n/64⌉`-word stack context at 1–4, 8 and 16
/// words, the heap FIOS reference elsewhere. Its counts (an
/// exponentiation's squarings and multiplications included) are added to
/// the counter once, when the job returns. On a field of at most 256 bits
/// — the toy fields, the paper's 160- and 170-bit primes and the 256-bit
/// curves — every residue lives in four stack words; wider fields keep
/// `BigUint` residues. Both backends share the Montgomery radix at every
/// width, so residues and counts do not depend on the backend.
///
/// Cloning the context is cheap and clones share the same counter.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), field::FieldError> {
/// use bignum::BigUint;
/// use field::FpContext;
///
/// let fp = FpContext::new(&BigUint::from(1000000007u64))?;
/// let a = fp.from_u64(3);
/// let b = fp.inv(&a).expect("3 is invertible");
/// assert_eq!(fp.mul(&a, &b), fp.one());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct FpContext {
    inner: Arc<FpInner>,
}

#[derive(Clone)]
struct FpInner {
    mont: MontgomeryParams,
    /// The multiplicative identity.
    one: FpElement,
    /// The element of value `R`, whose residue `R² mod p` is the factor
    /// into Montgomery form.
    r2: FpElement,
    /// Whether elements store their residues in four words: fields of at
    /// most 256 bits.
    words: bool,
    /// Whether jobs run on the heap FIOS reference at every width: the
    /// [`FpContext::heap_only`] twin.
    heap_only: bool,
    counter: Arc<OpCounter>,
}

/// An element of `Fp`, stored in Montgomery form.
///
/// Elements do not carry a back-reference to their context; mixing elements
/// from different [`FpContext`]s is a logic error (it may panic). Elements
/// of a context and of its [`FpContext::heap_only`] twin share one
/// representation, so they compare and hash equal exactly when their
/// values are equal.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FpElement(Residue);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Residue {
    /// Fields of at most 256 bits: four words, zero above the field's
    /// width.
    Limbs(Uint<4>),
    /// Wider fields.
    Heap(BigUint),
}

impl FpElement {
    /// Returns `true` if this element is zero.
    pub fn is_zero(&self) -> bool {
        match &self.0 {
            Residue::Limbs(w) => w.is_zero(),
            Residue::Heap(h) => h.is_zero(),
        }
    }

    /// The Montgomery-form residue in four 64-bit words, zero above the
    /// field's width: its low `⌈n/64⌉` words are the operand on the
    /// fixed-width context of the field's width. `None` on fields wider
    /// than 256 bits.
    pub fn mont_repr(&self) -> Option<Uint<4>> {
        match &self.0 {
            Residue::Limbs(w) => Some(*w),
            Residue::Heap(_) => None,
        }
    }

    /// The residue on backend `r`.
    pub(crate) fn lower<R: ResidueOps>(&self, r: &R) -> R::Elem {
        match &self.0 {
            Residue::Limbs(w) => r.lower_words(w.limbs()),
            Residue::Heap(h) => r.lower(h),
        }
    }

    /// The element of residue `e` on backend `r`, stored in four words when
    /// `words`.
    pub(crate) fn lift<R: ResidueOps>(r: &R, e: &R::Elem, words: bool) -> Self {
        FpElement(if words {
            let mut w = [0; 4];
            r.lift_words(e, &mut w);
            Residue::Limbs(Uint::from_limbs(w))
        } else {
            Residue::Heap(r.lift(e))
        })
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Residue::Limbs(w) => write!(f, "FpElement(mont=0x{w})"),
            Residue::Heap(h) => write!(f, "FpElement(mont=0x{})", h.to_hex()),
        }
    }
}

impl FpContext {
    /// Creates a context for the field of integers modulo `p`.
    ///
    /// `p` must be odd and greater than 3; primality is the caller's
    /// responsibility (parameter generation in the `ceilidh` crate uses
    /// [`bignum::is_prime`]).
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::InvalidModulus`] if `p` is even or `<= 3`.
    pub fn new(p: &BigUint) -> Result<Self, FieldError> {
        if p.is_even() || *p <= BigUint::from(3u64) {
            return Err(FieldError::InvalidModulus);
        }
        let mont = MontgomeryParams::new(p).ok_or(FieldError::InvalidModulus)?;
        let words = p.bit_len() <= Uint::<4>::BITS;
        let one = mont.one_mont();
        Ok(FpContext {
            inner: Arc::new(FpInner {
                one: FpElement::lift(&mont, &one, words),
                r2: FpElement::lift(&mont, &mont.to_mont(&one), words),
                mont,
                words,
                heap_only: false,
                counter: OpCounter::new(),
            }),
        })
    }

    /// The field characteristic `p`.
    pub fn modulus(&self) -> &BigUint {
        self.inner.mont.modulus()
    }

    /// Bit length of the modulus (e.g. 170 for the paper's torus field).
    pub fn bit_len(&self) -> usize {
        self.modulus().bit_len()
    }

    /// The residue of `p` modulo `m` as a small integer.
    pub fn modulus_mod(&self, m: u32) -> u32 {
        (self.modulus() % &BigUint::from(m)).to_u64().unwrap_or(0) as u32
    }

    /// Runs `job` as one [`MontgomeryParams::run`], on the backend it picks
    /// for the field's width (the stack context at 1–4, 8 and 16 words, the
    /// heap FIOS reference elsewhere), behind a non-atomic tally of exactly
    /// what the single operations record; the tally is added to the shared
    /// counter once, when the job returns. A [`FpContext::heap_only`] twin
    /// runs the same job, tally included, directly on the heap FIOS
    /// reference. Results and counts are the same either way.
    // This, `dispatch`, `MontgomeryParams::run`, `Tallied::run` and
    // `Op::run` are always inlined, so that a single operation compiles to
    // that one operation at each width, not to a match over all of them.
    #[inline(always)]
    pub fn run<J: FieldJob>(&self, job: J) -> J::Output {
        self.dispatch(Tallied {
            job,
            words: self.inner.words,
            counter: &self.inner.counter,
        })
    }

    /// Runs `job` on the backend [`MontgomeryParams::run`] picks, or on the
    /// heap reference itself on a [`FpContext::heap_only`] twin.
    #[inline(always)]
    fn dispatch<J: ResidueJob>(&self, job: J) -> J::Output {
        if self.inner.heap_only {
            job.run(&self.inner.mont)
        } else {
            self.inner.mont.run(job)
        }
    }

    /// A twin of this context whose jobs all run on the heap: same
    /// modulus, same Montgomery constants, same element representation,
    /// and the **same shared operation counter**, but every job — each
    /// single operation, [`FpContext::exp`], each `Fp6` product and each
    /// `ecc` ladder — runs on the heap `BigUint` FIOS reference
    /// ([`MontgomeryParams`] itself) instead of the stack context of the
    /// field's width, behind the same tally.
    ///
    /// This exists for honest baselines: `scalar_mul_reference` and the
    /// differential tests must run the heap products, not the stack context
    /// against itself.
    pub fn heap_only(&self) -> FpContext {
        FpContext {
            inner: Arc::new(FpInner {
                heap_only: true,
                ..FpInner::clone(&self.inner)
            }),
        }
    }

    /// The shared operation counter.
    pub fn counter(&self) -> &Arc<OpCounter> {
        &self.inner.counter
    }

    /// Snapshot of the operation counts recorded so far.
    pub fn op_count(&self) -> OpCount {
        self.inner.counter.snapshot()
    }

    /// Resets the operation counters to zero.
    pub fn reset_op_count(&self) {
        self.inner.counter.reset();
    }

    /// The additive identity.
    pub fn zero(&self) -> FpElement {
        FpElement(if self.inner.words {
            Residue::Limbs(Uint::ZERO)
        } else {
            Residue::Heap(BigUint::zero())
        })
    }

    /// The multiplicative identity.
    pub fn one(&self) -> FpElement {
        self.inner.one.clone()
    }

    /// Embeds an arbitrary integer (reduced modulo `p`).
    pub fn from_biguint(&self, v: &BigUint) -> FpElement {
        let reduced = if v < self.modulus() {
            Cow::Borrowed(v)
        } else {
            Cow::Owned(v % self.modulus())
        };
        self.dispatch(ToMont {
            v: &reduced,
            r2: &self.inner.r2,
            words: self.inner.words,
        })
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> FpElement {
        self.from_biguint(&BigUint::from(v))
    }

    /// Embeds a signed small integer (negative values wrap modulo `p`).
    pub fn from_i64(&self, v: i64) -> FpElement {
        if v >= 0 {
            self.from_u64(v as u64)
        } else {
            self.neg(&self.from_u64(v.unsigned_abs()))
        }
    }

    /// Returns the canonical (non-Montgomery) residue of an element.
    pub fn to_biguint(&self, a: &FpElement) -> BigUint {
        self.dispatch(FromMont(a))
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> FpElement {
        self.from_biguint(&BigUint::random_below(rng, self.modulus()))
    }

    /// Modular addition.
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.run(Op::Add(a, b))
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.run(Op::Sub(a, b))
    }

    /// Modular negation, counted as one subtraction unless `a` is zero.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        self.run(Op::Neg(a))
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Modular multiplication (one Montgomery multiplication).
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.run(Op::Mul(a, b))
    }

    /// Modular squaring (counted as a multiplication, as in the paper).
    pub fn square(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Multiplication by a small constant via `k − 1` additions from `a` (none
    /// for `k = 0`): the coprocessor has no dedicated small-constant multiplier.
    pub fn mul_small(&self, a: &FpElement, k: u32) -> FpElement {
        let start = if k == 0 { self.zero() } else { a.clone() };
        (1..k).fold(start, |acc, _| self.add(&acc, a))
    }

    /// Modular exponentiation by [`square_and_multiply`], run as one job:
    /// whatever the exponent's width, the whole loop runs on one backend and
    /// its `bit_len + popcount` products reach the counter in one update.
    pub fn exp(&self, base: &FpElement, exp: &BigUint) -> FpElement {
        self.run(Exp { base, exp })
    }

    /// Batched modular inversion by **Montgomery's trick**
    /// ([`ResidueOps::invert_batch`]): one Fermat inversion plus `3(n-1)`
    /// multiplications for the whole batch of `n` non-zero elements, instead
    /// of one Fermat inversion each. Zero elements yield `None` without
    /// disturbing their neighbours.
    ///
    /// Results are bit-identical to calling [`FpContext::inv`] element by
    /// element, and so are the recorded operation counts: one inversion
    /// per non-zero element and no multiplications — inversion stays its
    /// own primitive (the trick's internal products are host bookkeeping,
    /// not modeled field work).
    pub fn inv_batch(&self, elems: &[FpElement]) -> Vec<Option<FpElement>> {
        let live: Vec<&FpElement> = elems.iter().filter(|e| !e.is_zero()).collect();
        let mut inverses = self.run(InvBatch(&live)).into_iter();
        elems
            .iter()
            .map(|e| if e.is_zero() { None } else { inverses.next() })
            .collect()
    }

    /// Modular inversion via Fermat's little theorem. Returns `None` for zero.
    ///
    /// The exponentiation's internal multiplications are deliberately not
    /// counted: the paper treats inversion as its own primitive.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        (!a.is_zero()).then(|| self.run(Op::Inv(a)))
    }

    /// Returns `true` if two contexts describe the same field.
    pub fn same_field(&self, other: &FpContext) -> bool {
        self.modulus() == other.modulus()
    }

    /// Euler's criterion: returns `true` if `a` is a non-zero quadratic
    /// residue modulo `p`.
    pub fn is_square(&self, a: &FpElement) -> bool {
        if a.is_zero() {
            return false;
        }
        let exp = (self.modulus() - &BigUint::one()).shr_bits(1);
        self.exp(a, &exp) == self.one()
    }

    /// Modular square root. Returns `None` if `a` is a non-residue;
    /// `Some(0)` for zero. When a root `r` exists, `p - r` is the other
    /// root.
    ///
    /// For `p ≡ 3 (mod 4)` this is one exponentiation and one squaring:
    /// `r = a^((p+1)/4)` is a root exactly when `a` is a square. Otherwise
    /// it is Tonelli–Shanks after Euler's criterion.
    pub fn sqrt(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return Some(self.zero());
        }
        let p = self.modulus();
        let one = BigUint::one();
        if (p % &BigUint::from(4u64)).to_u64() == Some(3) {
            let r = self.exp(a, &(p + &one).shr_bits(2));
            return (self.square(&r) == *a).then_some(r);
        }
        if !self.is_square(a) {
            return None;
        }
        // Tonelli–Shanks. Write p - 1 = q · 2^s with q odd.
        let p_minus_one = p - &one;
        let s = p_minus_one.trailing_zeros();
        let q = p_minus_one.shr_bits(s);
        // Find a quadratic non-residue z (deterministic scan; half of all
        // elements qualify so this terminates quickly).
        let mut z = self.from_u64(2);
        while self.is_square(&z) {
            z = self.add(&z, &self.one());
        }
        let mut m = s;
        let mut c = self.exp(&z, &q);
        let mut t = self.exp(a, &q);
        let mut r = self.exp(a, &(&q + &one).shr_bits(1));
        while t != self.one() {
            // Find the least i with t^(2^i) = 1.
            let mut i = 0usize;
            let mut probe = t.clone();
            while probe != self.one() {
                probe = self.square(&probe);
                i += 1;
                if i == m {
                    return None; // unreachable for residues; defensive
                }
            }
            let mut b = c.clone();
            for _ in 0..(m - i - 1) {
                b = self.square(&b);
            }
            m = i;
            c = self.square(&b);
            t = self.mul(&t, &c);
            r = self.mul(&r, &b);
        }
        Some(r)
    }
}

/// One counted operation, run as a job like any other.
enum Op<'a> {
    Mul(&'a FpElement, &'a FpElement),
    Add(&'a FpElement, &'a FpElement),
    Sub(&'a FpElement, &'a FpElement),
    Neg(&'a FpElement),
    /// The inversion of a non-zero element.
    Inv(&'a FpElement),
}

impl FieldJob for Op<'_> {
    type Output = FpElement;

    #[inline(always)]
    fn run<F: ValueOps>(self, f: &F) -> FpElement {
        f.lift(match self {
            Op::Mul(a, b) => f.mul(&f.lower(a), &f.lower(b)),
            Op::Add(a, b) => f.add(&f.lower(a), &f.lower(b)),
            Op::Sub(a, b) => f.sub(&f.lower(a), &f.lower(b)),
            Op::Neg(a) => f.neg(&f.lower(a)),
            Op::Inv(a) => {
                let mut value = [f.lower(a)];
                f.invert_batch(&mut value);
                let [inverse] = value;
                inverse
            }
        })
    }
}

/// [`FpContext::inv_batch`]'s inversion of its non-zero elements.
struct InvBatch<'a>(&'a [&'a FpElement]);

impl FieldJob for InvBatch<'_> {
    type Output = Vec<FpElement>;

    fn run<F: ValueOps>(self, f: &F) -> Vec<FpElement> {
        let mut values: Vec<F::Elem> = self.0.iter().map(|e| f.lower(e)).collect();
        f.invert_batch(&mut values);
        values.into_iter().map(|v| f.lift(v)).collect()
    }
}

/// [`FpContext::exp`]'s loop.
struct Exp<'a> {
    base: &'a FpElement,
    exp: &'a BigUint,
}

impl FieldJob for Exp<'_> {
    type Output = FpElement;

    fn run<F: ValueOps>(self, f: &F) -> FpElement {
        let base = f.lower(self.base);
        f.lift(square_and_multiply(f.one(), &base, self.exp, |a, b| {
            f.mul(a, b)
        }))
    }
}

/// [`FpContext::from_biguint`] of a reduced value, uncounted: its
/// Montgomery product with `R²`.
struct ToMont<'a> {
    v: &'a BigUint,
    r2: &'a FpElement,
    words: bool,
}

impl ResidueJob for ToMont<'_> {
    type Output = FpElement;

    fn run<R: ResidueOps>(self, r: &R) -> FpElement {
        let mont = r.mont_mul(&r.lower(self.v), &self.r2.lower(r));
        FpElement::lift(r, &mont, self.words)
    }
}

/// [`FpContext::to_biguint`], uncounted: the Montgomery product with 1.
struct FromMont<'a>(&'a FpElement);

impl ResidueJob for FromMont<'_> {
    type Output = BigUint;

    fn run<R: ResidueOps>(self, r: &R) -> BigUint {
        r.lift(&r.mont_mul(&self.0.lower(r), &r.lower_words(&[1])))
    }
}

impl fmt::Debug for FpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FpContext(p=0x{}, {} bits)",
            self.modulus().to_hex(),
            self.bit_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> FpContext {
        FpContext::new(&BigUint::from(1_000_000_007u64)).unwrap()
    }

    #[test]
    fn rejects_bad_modulus() {
        assert_eq!(
            FpContext::new(&BigUint::from(10u64)).unwrap_err(),
            FieldError::InvalidModulus
        );
        assert_eq!(
            FpContext::new(&BigUint::from(3u64)).unwrap_err(),
            FieldError::InvalidModulus
        );
    }

    #[test]
    fn add_sub_roundtrip() {
        let fp = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = fp.random(&mut rng);
            let b = fp.random(&mut rng);
            assert_eq!(fp.sub(&fp.add(&a, &b), &b), a);
            assert_eq!(fp.add(&fp.sub(&a, &b), &b), a);
        }
    }

    #[test]
    fn neg_and_double() {
        let fp = ctx();
        let a = fp.from_u64(17);
        assert_eq!(fp.add(&a, &fp.neg(&a)), fp.zero());
        assert_eq!(fp.neg(&fp.zero()), fp.zero());
        assert_eq!(fp.double(&a), fp.from_u64(34));
        for (k, adds) in [(0, 0), (1, 0), (2, 1), (5, 4)] {
            let before = fp.op_count();
            assert_eq!(fp.mul_small(&a, k), fp.from_u64(17 * u64::from(k)));
            assert_eq!(fp.op_count().since(&before).add, adds, "k = {k}");
        }
    }

    #[test]
    fn mul_matches_plain_arithmetic() {
        let fp = ctx();
        let a = fp.from_u64(123_456_789);
        let b = fp.from_u64(987_654_321);
        let expected = (123_456_789u128 * 987_654_321u128 % 1_000_000_007u128) as u64;
        assert_eq!(fp.to_biguint(&fp.mul(&a, &b)).to_u64(), Some(expected));
    }

    #[test]
    fn from_i64_wraps() {
        let fp = ctx();
        assert_eq!(fp.from_i64(-1), fp.from_u64(1_000_000_006));
        assert_eq!(fp.from_i64(5), fp.from_u64(5));
    }

    #[test]
    fn inversion_and_exponentiation() {
        let fp = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let a = fp.random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = fp.inv(&a).unwrap();
            assert_eq!(fp.mul(&a, &inv), fp.one());
        }
        assert!(fp.inv(&fp.zero()).is_none());
        // Fermat: a^(p-1) = 1.
        let a = fp.from_u64(2);
        let pm1 = fp.modulus() - &BigUint::one();
        assert_eq!(fp.exp(&a, &pm1), fp.one());
        assert_eq!(fp.exp(&a, &BigUint::zero()), fp.one());
    }

    #[test]
    fn op_counter_tracks_operations() {
        let fp = ctx();
        fp.reset_op_count();
        let a = fp.from_u64(3);
        let b = fp.from_u64(5);
        let _ = fp.mul(&a, &b);
        let _ = fp.add(&a, &b);
        let _ = fp.sub(&a, &b);
        let _ = fp.inv(&a);
        let c = fp.op_count();
        assert_eq!(c.mul, 1);
        assert_eq!(c.add, 1);
        assert_eq!(c.sub, 1);
        assert_eq!(c.inv, 1);
    }

    #[test]
    fn montgomery_repr_roundtrip() {
        let fp = ctx();
        // A 30-bit field runs on one word: R = 2^64.
        let a = fp.from_u64(424_242);
        let repr = a.mont_repr().expect("a 30-bit field stores words");
        let r = BigUint::one().shl_bits(64);
        assert_eq!(
            repr.to_biguint(),
            &(&r * &BigUint::from(424_242u64)) % fp.modulus()
        );
        assert_eq!(fp.to_biguint(&a).to_u64(), Some(424_242));
    }

    #[test]
    fn modulus_mod_small() {
        let fp = ctx();
        assert_eq!(fp.modulus_mod(9), (1_000_000_007u64 % 9) as u32);
    }

    #[test]
    fn sqrt_roundtrip_both_congruence_classes() {
        // 1000000007 ≡ 3 (mod 4): fast path. 1000000009 ≡ 1 (mod 4): Tonelli–Shanks.
        for p in [1_000_000_007u64, 1_000_000_009] {
            let fp = FpContext::new(&BigUint::from(p)).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(p);
            let mut found_nonresidue = false;
            for _ in 0..20 {
                let a = fp.random(&mut rng);
                if a.is_zero() {
                    continue;
                }
                let sq = fp.square(&a);
                assert!(fp.is_square(&sq));
                let r = fp.sqrt(&sq).expect("square has a root");
                assert!(r == a || r == fp.neg(&a), "root must be ±a (p = {p})");
                if !fp.is_square(&a) {
                    found_nonresidue = true;
                    assert!(fp.sqrt(&a).is_none());
                }
            }
            assert!(found_nonresidue, "expected to see a non-residue");
            assert_eq!(fp.sqrt(&fp.zero()), Some(fp.zero()));
            assert!(!fp.is_square(&fp.zero()));
        }

        // p ≡ 3 (mod 4): one exponentiation by (p+1)/4 and one squaring,
        // with no separate residuosity test.
        let fp = ctx();
        let e = (fp.modulus() + &BigUint::one()).shr_bits(2);
        let set_bits = (0..e.bit_len()).filter(|&i| e.bit(i)).count() as u64;
        for a in [fp.from_u64(4), fp.from_u64(5)] {
            fp.reset_op_count();
            let _ = fp.sqrt(&a);
            assert_eq!(fp.op_count().mul, e.bit_len() as u64 + set_bits + 1);
        }
    }

    #[test]
    fn stack_exponentiation_matches_heap_loops() {
        // secp256k1's p: four words.
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let fp = FpContext::new(&p).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let a = fp.random(&mut rng);
            let e = BigUint::random_below(&mut rng, &p);
            // Reference: plain square-and-multiply on the plain residue (not
            // Montgomery, so the stack loop is not checked against itself).
            let expected = bignum::mod_exp(&fp.to_biguint(&a), &e, &p);
            assert_eq!(fp.to_biguint(&fp.exp(&a, &e)), expected);
            if !a.is_zero() {
                let expected_inv = bignum::mod_inv(&fp.to_biguint(&a), &p).unwrap();
                assert_eq!(fp.to_biguint(&fp.inv(&a).unwrap()), expected_inv);
            }
        }

        // Exponents wider than the field's four words run on the same
        // stack loop and count like every other exponent.
        let a = fp.random(&mut rng);
        let wide = BigUint::random_bits(&mut rng, 300);
        fp.reset_op_count();
        let got = fp.exp(&a, &wide);
        let set_bits = (0..wide.bit_len()).filter(|&i| wide.bit(i)).count();
        assert!(wide.bit_len() > 256);
        assert_eq!(fp.op_count().mul, (wide.bit_len() + set_bits) as u64);
        let expected = bignum::mod_exp(&fp.to_biguint(&a), &wide, &p);
        assert_eq!(fp.to_biguint(&got), expected);

        // One mul per squaring plus one per set exponent bit, as on the
        // per-operation counted loop.
        fp.reset_op_count();
        let e = BigUint::from(0b1011u64);
        let _ = fp.exp(&fp.from_u64(7), &e);
        assert_eq!(fp.op_count().mul, 4 + 3);
        fp.reset_op_count();
        let _ = fp.inv(&fp.from_u64(7));
        let c = fp.op_count();
        assert_eq!((c.inv, c.mul), (1, 0), "inversion stays its own primitive");
    }

    #[test]
    fn single_products_route_fixed_and_heap_twin_matches() {
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let fp = FpContext::new(&p).unwrap();
        let heap = fp.heap_only();
        assert!(fp.same_field(&heap));

        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let a = fp.random(&mut rng);
            let b = fp.random(&mut rng);
            // Fixed-backend product bit-identical to the heap product (the
            // backends share the Montgomery radix), and both are the plain
            // modular product.
            assert_eq!(fp.mul(&a, &b), heap.mul(&a, &b));
            assert_eq!(fp.square(&a), heap.square(&a));
            let expected = (&fp.to_biguint(&a) * &fp.to_biguint(&b)) % &p;
            assert_eq!(fp.to_biguint(&fp.mul(&a, &b)), expected);
        }

        // The twin shares the counter, so op-count accounting is unchanged
        // whichever context executes.
        fp.reset_op_count();
        let a = fp.from_u64(3);
        let _ = fp.mul(&a, &a);
        let _ = heap.mul(&a, &a);
        assert_eq!(fp.op_count().mul, 2);
    }

    #[test]
    fn inv_batch_matches_serial_and_skips_zeros() {
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        for fp in [FpContext::new(&p).unwrap(), ctx()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(6);
            let mut elems: Vec<FpElement> = (0..6).map(|_| fp.random(&mut rng)).collect();
            elems.insert(2, fp.zero());
            elems.push(fp.from_u64(1));
            fp.reset_op_count();
            let batch = fp.inv_batch(&elems);
            let count = fp.op_count();
            for (e, inv) in elems.iter().zip(&batch) {
                assert_eq!(inv.as_ref(), fp.inv(e).as_ref(), "batch matches serial inv");
                if let Some(inv) = inv {
                    assert_eq!(fp.mul(e, inv), fp.one());
                }
            }
            assert!(batch[2].is_none(), "zero element yields None");
            // One recorded inversion per non-zero element, no recorded muls:
            // inversion stays its own primitive.
            assert_eq!((count.inv, count.mul), (7, 0));
            assert!(fp.inv_batch(&[]).is_empty());
            assert_eq!(fp.inv_batch(&[fp.zero()]), vec![None]);
            let one_batch = fp.inv_batch(&elems[..1]);
            assert_eq!(one_batch[0], fp.inv(&elems[0]));
        }
    }

    #[test]
    fn contexts_share_counters_across_clones() {
        let fp = ctx();
        let fp2 = fp.clone();
        fp.reset_op_count();
        let _ = fp2.mul(&fp2.from_u64(2), &fp2.from_u64(3));
        assert_eq!(fp.op_count().mul, 1);
        assert!(fp.same_field(&fp2));
    }
}
