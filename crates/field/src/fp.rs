//! The base prime field `Fp`.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use bignum::fixed::{Montgomery256, MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use rand::Rng;

use crate::error::FieldError;
use crate::formulas::{FieldJob, ValueOps, Words};
use crate::opcount::{OpCount, OpCounter};

/// Context for arithmetic in the prime field `Fp`.
///
/// All elements are kept in Montgomery form internally (mirroring the
/// coprocessor, which works on Montgomery residues throughout an
/// exponentiation), and every multiplication / addition / subtraction /
/// inversion is recorded in the context's [`OpCounter`].
///
/// On a field of at most 256 bits — the toy fields, the paper's 160- and
/// 170-bit primes and the 256-bit curves — every residue lives in four
/// stack words and every operation runs on the
/// [`bignum::fixed::MontgomeryContext`] of the field's own width
/// (`⌈n/64⌉` words, see [`bignum::fixed::montgomery_words`]). The heap
/// [`MontgomeryParams`] share its radix at every width, so the residues are
/// bit-identical to the heap backend's. Wider fields keep `BigUint`
/// residues. Either way each single operation records exactly one count,
/// so op counts do not depend on the backend.
///
/// A whole computation written over [`crate::ValueOps`] — a scalar-mult
/// ladder, an `Fp6` product or exponentiation, or [`FpContext::exp`]
/// itself — runs through [`FpContext::run`] instead: the width is picked
/// once, the operations run on that context directly, and the same counts
/// (an exponentiation's squarings and multiplications included) are added
/// to the counter once, when the computation returns.
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

struct FpInner {
    modulus: BigUint,
    mont: MontgomeryParams,
    backend: Backend,
    counter: Arc<OpCounter>,
}

/// Where a field's residues live and what runs its products.
enum Backend {
    /// A field of at most 256 bits: word residues, every operation on the
    /// stack context of the field's width.
    Words(Montgomery256),
    /// The [`FpContext::heap_only`] twin of such a field: word residues,
    /// but products (and so exponentiations) run on the heap FIOS
    /// reference.
    HeapProducts(Montgomery256),
    /// A field wider than 256 bits: `BigUint` residues throughout.
    Heap,
}

impl Backend {
    /// The stack context, when residues are words.
    fn words(&self) -> Option<&Montgomery256> {
        match self {
            Backend::Words(ctx) | Backend::HeapProducts(ctx) => Some(ctx),
            Backend::Heap => None,
        }
    }

    /// The stack context, when products run on it too.
    fn products(&self) -> Option<&Montgomery256> {
        match self {
            Backend::Words(ctx) => Some(ctx),
            Backend::HeapProducts(_) | Backend::Heap => None,
        }
    }
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
    Words(Uint<4>),
    /// Wider fields.
    Heap(BigUint),
}

impl FpElement {
    /// Returns `true` if this element is zero.
    pub fn is_zero(&self) -> bool {
        match &self.0 {
            Residue::Words(w) => w.is_zero(),
            Residue::Heap(h) => h.is_zero(),
        }
    }

    /// The Montgomery-form residue in four 64-bit words, zero above the
    /// field's width: its low `⌈n/64⌉` words are the operand on the
    /// fixed-width context of the field's width. `None` on fields wider
    /// than 256 bits.
    pub fn mont_repr(&self) -> Option<Uint<4>> {
        match &self.0 {
            Residue::Words(w) => Some(*w),
            Residue::Heap(_) => None,
        }
    }

    /// The element whose Montgomery residue is `words`, which must be
    /// reduced and zero above the field's width: the inverse of
    /// [`FpElement::mont_repr`].
    pub(crate) fn from_words(words: Uint<4>) -> Self {
        FpElement(Residue::Words(words))
    }

    /// The Montgomery residue as a heap integer.
    fn heap_residue(&self) -> Cow<'_, BigUint> {
        match &self.0 {
            Residue::Words(w) => Cow::Owned(w.to_biguint()),
            Residue::Heap(h) => Cow::Borrowed(h),
        }
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Residue::Words(w) => write!(f, "FpElement(mont=0x{w})"),
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
        let backend = Montgomery256::new(p).map_or(Backend::Heap, Backend::Words);
        Ok(FpContext {
            inner: Arc::new(FpInner {
                modulus: p.clone(),
                mont,
                backend,
                counter: OpCounter::new(),
            }),
        })
    }

    /// The field characteristic `p`.
    pub fn modulus(&self) -> &BigUint {
        &self.inner.modulus
    }

    /// Bit length of the modulus (e.g. 170 for the paper's torus field).
    pub fn bit_len(&self) -> usize {
        self.inner.modulus.bit_len()
    }

    /// The residue of `p` modulo `m` as a small integer.
    pub fn modulus_mod(&self, m: u32) -> u32 {
        (&self.inner.modulus % &BigUint::from(m))
            .to_u64()
            .unwrap_or(0) as u32
    }

    /// Runs `job` on the field's own stack context: a field of at most
    /// 256 bits picks its `L`-word [`MontgomeryContext`] once for the
    /// whole job, which runs on it behind a non-atomic tally; the tally is
    /// added to the shared counter once, when the job returns. A
    /// [`FpContext::heap_only`] twin and a field wider than 256 bits run
    /// the job on this context itself, which counts every operation as it
    /// happens. Results and counts are the same either way.
    pub fn run<J: FieldJob>(&self, job: J) -> J::Output {
        match self.inner.backend.products() {
            Some(Montgomery256::W1(ctx)) => self.run_on_words(ctx, job),
            Some(Montgomery256::W2(ctx)) => self.run_on_words(ctx, job),
            Some(Montgomery256::W3(ctx)) => self.run_on_words(ctx, job),
            Some(Montgomery256::W4(ctx)) => self.run_on_words(ctx, job),
            None => job.run(self),
        }
    }

    /// [`FpContext::run`] at one width.
    fn run_on_words<const L: usize, J: FieldJob>(
        &self,
        ctx: &MontgomeryContext<L>,
        job: J,
    ) -> J::Output {
        let words = Words::new(ctx);
        let out = job.run(&words);
        self.inner.counter.add(words.tally());
        out
    }

    /// A twin of this context whose products run on the heap: same
    /// modulus, same Montgomery constants, same element representation,
    /// and the **same shared operation counter**, but every product — and
    /// so every [`FpContext::exp`] step — runs the heap `BigUint` FIOS
    /// reference ([`MontgomeryParams::mont_mul`]), and [`FpContext::run`]
    /// runs its job on the twin itself, counting every operation.
    ///
    /// This exists for honest baselines: `scalar_mul_reference` and the
    /// differential tests must run the heap products and the per-operation
    /// counted loop, not the stack context against itself. Additions,
    /// subtractions and inversions are not products and run as on this
    /// context.
    pub fn heap_only(&self) -> FpContext {
        let backend = match self.inner.backend.words() {
            Some(ctx) => Backend::HeapProducts(ctx.clone()),
            None => Backend::Heap,
        };
        FpContext {
            inner: Arc::new(FpInner {
                modulus: self.inner.modulus.clone(),
                mont: self.inner.mont.clone(),
                backend,
                counter: Arc::clone(&self.inner.counter),
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

    /// Stores a Montgomery residue computed on the heap in this field's
    /// representation.
    fn store_heap_residue(&self, mont: BigUint) -> FpElement {
        FpElement(match self.inner.backend.words() {
            Some(_) => Residue::Words(
                Uint::from_biguint(&mont).expect("a residue of a field of at most 256 bits"),
            ),
            None => Residue::Heap(mont),
        })
    }

    /// The additive identity.
    pub fn zero(&self) -> FpElement {
        FpElement(match self.inner.backend.words() {
            Some(_) => Residue::Words(Uint::ZERO),
            None => Residue::Heap(BigUint::zero()),
        })
    }

    /// The multiplicative identity.
    pub fn one(&self) -> FpElement {
        FpElement(match self.inner.backend.words() {
            Some(ctx) => Residue::Words(ctx.one_mont()),
            None => Residue::Heap(self.inner.mont.one_mont()),
        })
    }

    /// Embeds an arbitrary integer (reduced modulo `p`).
    pub fn from_biguint(&self, v: &BigUint) -> FpElement {
        let Some(ctx) = self.inner.backend.words() else {
            return FpElement(Residue::Heap(self.inner.mont.to_mont(v)));
        };
        let reduced = if *v < self.inner.modulus {
            Cow::Borrowed(v)
        } else {
            Cow::Owned(v % &self.inner.modulus)
        };
        let words = Uint::from_biguint(&reduced).expect("a reduced residue fits in four words");
        FpElement(Residue::Words(ctx.to_mont(&words)))
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
        match (self.inner.backend.words(), &a.0) {
            (Some(ctx), Residue::Words(w)) => ctx.from_mont(w).to_biguint(),
            _ => self.inner.mont.from_mont(&a.heap_residue()),
        }
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> FpElement {
        self.from_biguint(&BigUint::random_below(rng, &self.inner.modulus))
    }

    /// Applies `words` to word residues and `heap` to heap residues.
    fn binary(
        &self,
        a: &FpElement,
        b: &FpElement,
        words: impl FnOnce(&Montgomery256, &Uint<4>, &Uint<4>) -> Uint<4>,
        heap: impl FnOnce(&BigUint, &BigUint) -> BigUint,
    ) -> FpElement {
        FpElement(match (self.inner.backend.words(), &a.0, &b.0) {
            (Some(ctx), Residue::Words(x), Residue::Words(y)) => Residue::Words(words(ctx, x, y)),
            (None, Residue::Heap(x), Residue::Heap(y)) => Residue::Heap(heap(x, y)),
            _ => panic!("elements of another field"),
        })
    }

    /// Modular addition.
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_add();
        self.binary(a, b, Montgomery256::add, |x, y| {
            let s = x + y;
            if s >= self.inner.modulus {
                &s - &self.inner.modulus
            } else {
                s
            }
        })
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_sub();
        self.binary(a, b, Montgomery256::sub, |x, y| {
            if x >= y {
                x - y
            } else {
                &(x + &self.inner.modulus) - y
            }
        })
    }

    /// Modular negation.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        if a.is_zero() {
            return self.zero();
        }
        self.inner.counter.record_sub();
        self.binary(a, a, |ctx, x, _| ctx.neg(x), |x, _| &self.inner.modulus - x)
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Modular multiplication (one Montgomery multiplication), on the
    /// field's stack context, or on the heap FIOS reference for a
    /// [`FpContext::heap_only`] twin or a field wider than 256 bits. The
    /// residue is the same either way.
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_mul();
        match (self.inner.backend.products(), &a.0, &b.0) {
            (Some(ctx), Residue::Words(x), Residue::Words(y)) => {
                FpElement(Residue::Words(ctx.mont_mul(x, y)))
            }
            _ => self.store_heap_residue(
                self.inner
                    .mont
                    .mont_mul(&a.heap_residue(), &b.heap_residue()),
            ),
        }
    }

    /// Modular squaring (counted as a multiplication, as in the paper).
    pub fn square(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Multiplication by a small constant via repeated addition (the
    /// coprocessor has no dedicated small-constant multiplier).
    pub fn mul_small(&self, a: &FpElement, k: u32) -> FpElement {
        let mut acc = self.zero();
        for _ in 0..k {
            acc = self.add(&acc, a);
        }
        acc
    }

    /// Modular exponentiation by square-and-multiply, run as one
    /// [`FieldJob`] through [`FpContext::run`]: up to 256 bits the whole
    /// loop runs on the field's stack context, whatever the exponent's
    /// width, and its `bit_len + popcount` products reach the counter in
    /// one update. A [`FpContext::heap_only`] twin or a wider field counts
    /// each product as it runs. Results and counts are identical.
    pub fn exp(&self, base: &FpElement, exp: &BigUint) -> FpElement {
        self.run(Exp { base, exp })
    }

    /// Batched modular inversion by **Montgomery's trick**: one Fermat
    /// inversion plus `3(n-1)` multiplications for the whole batch of `n`
    /// non-zero elements, instead of one Fermat inversion each. Zero
    /// elements yield `None` without disturbing their neighbours.
    ///
    /// Results are bit-identical to calling [`FpContext::inv`] element by
    /// element, and so are the recorded operation counts: one inversion
    /// per non-zero element and no multiplications — inversion stays its
    /// own primitive (the trick's internal products are host bookkeeping,
    /// not modeled field work). The chain runs on the field's stack
    /// context; a field wider than 256 bits inverts element by element.
    pub fn inv_batch(&self, elems: &[FpElement]) -> Vec<Option<FpElement>> {
        let live: Vec<usize> = (0..elems.len()).filter(|&i| !elems[i].is_zero()).collect();
        self.inner.counter.add(OpCount {
            inv: live.len() as u64,
            ..OpCount::default()
        });
        let mut out: Vec<Option<FpElement>> = vec![None; elems.len()];
        let Some(ctx) = self.inner.backend.words() else {
            for &i in &live {
                out[i] = Some(self.fermat_inverse(&elems[i]));
            }
            return out;
        };
        let mut values: Vec<Uint<4>> = live
            .iter()
            .map(|&i| elems[i].mont_repr().expect("a word residue"))
            .collect();
        let ok = ctx.mont_inv_batch(&mut values);
        debug_assert!(ok, "non-zero elements invert");
        for (slot, inv) in live.iter().zip(values) {
            out[*slot] = Some(FpElement(Residue::Words(inv)));
        }
        out
    }

    /// Modular inversion via Fermat's little theorem. Returns `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return None;
        }
        // The exponentiation's internal multiplications are deliberately not
        // double-counted: the paper treats inversion as its own primitive.
        self.inner.counter.record_inv();
        Some(match (self.inner.backend.words(), &a.0) {
            (Some(ctx), Residue::Words(w)) => FpElement(Residue::Words(
                ctx.mont_inv_prime(w)
                    .expect("non-zero element stays non-zero in fixed form"),
            )),
            _ => self.fermat_inverse(a),
        })
    }

    /// `a^(p−2)` of a non-zero element through
    /// [`MontgomeryParams::mont_pow`], uncounted.
    fn fermat_inverse(&self, a: &FpElement) -> FpElement {
        let exp = &self.inner.modulus - &BigUint::from(2u64);
        self.store_heap_residue(self.inner.mont.mont_pow(&a.heap_residue(), &exp))
    }

    /// Returns `true` if two contexts describe the same field.
    pub fn same_field(&self, other: &FpContext) -> bool {
        self.inner.modulus == other.inner.modulus
    }

    /// Euler's criterion: returns `true` if `a` is a non-zero quadratic
    /// residue modulo `p`.
    pub fn is_square(&self, a: &FpElement) -> bool {
        if a.is_zero() {
            return false;
        }
        let exp = (&self.inner.modulus - &BigUint::one()).shr_bits(1);
        self.exp(a, &exp) == self.one()
    }

    /// Modular square root by Tonelli–Shanks. Returns `None` if `a` is a
    /// non-residue; `Some(0)` for zero. When a root `r` exists, `p - r` is
    /// the other root.
    pub fn sqrt(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return Some(self.zero());
        }
        if !self.is_square(a) {
            return None;
        }
        let p = &self.inner.modulus;
        let one = BigUint::one();
        // Fast path: p ≡ 3 (mod 4) → a^((p+1)/4).
        if (p % &BigUint::from(4u64)).to_u64() == Some(3) {
            let exp = (p + &one).shr_bits(2);
            return Some(self.exp(a, &exp));
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

/// [`FpContext::exp`]'s loop, on the backend [`FpContext::run`] picks.
struct Exp<'a> {
    base: &'a FpElement,
    exp: &'a BigUint,
}

impl FieldJob for Exp<'_> {
    type Output = FpElement;

    fn run<F: ValueOps>(self, f: &F) -> FpElement {
        let base = f.lower(self.base);
        let power = square_and_multiply(f.one(), &base, self.exp, |a, b| f.mul(a, b));
        f.lift(power)
    }
}

/// Left-to-right square-and-multiply from `one`, squaring as `mul(acc, acc)`:
/// the one loop behind `exp` on every level of the tower.
pub(crate) fn square_and_multiply<E>(
    one: E,
    base: &E,
    exp: &BigUint,
    mul: impl Fn(&E, &E) -> E,
) -> E {
    let mut acc = one;
    for i in (0..exp.bit_len()).rev() {
        acc = mul(&acc, &acc);
        if exp.bit(i) {
            acc = mul(&acc, base);
        }
    }
    acc
}

impl fmt::Debug for FpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FpContext(p=0x{}, {} bits)",
            self.inner.modulus.to_hex(),
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
        assert_eq!(fp.mul_small(&a, 5), fp.from_u64(85));
        assert_eq!(fp.mul_small(&a, 0), fp.zero());
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
        let a = fp.from_u64(424_242);
        let repr = a.mont_repr().expect("a 30-bit field stores words");
        assert_eq!(FpElement::from_words(repr), a);
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
        assert!(matches!(fp.inner.backend, Backend::Words(_)));
        assert!(
            matches!(heap.inner.backend, Backend::HeapProducts(_)),
            "twin must stay on the heap"
        );
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
