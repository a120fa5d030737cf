//! The base prime field `Fp`.

use std::fmt;
use std::sync::Arc;

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use rand::Rng;

use crate::error::FieldError;
use crate::opcount::{OpCount, OpCounter};

/// Context for arithmetic in the prime field `Fp`.
///
/// All elements are kept in Montgomery form internally (mirroring the
/// coprocessor, which works on Montgomery residues throughout an
/// exponentiation), and every multiplication / addition / subtraction /
/// inversion is recorded in the context's [`OpCounter`].
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
    /// Fixed-width fast backend for 256-bit primes. Populated exactly when
    /// the heap parameters use 8 u32 limbs, so both backends share the
    /// Montgomery radix `R = 2^256` and representations are
    /// interchangeable (see [`bignum::fixed::MontgomeryContext`]).
    fixed256: Option<MontgomeryContext<4>>,
    counter: Arc<OpCounter>,
}

/// An element of `Fp`, stored in Montgomery form.
///
/// Elements do not carry a back-reference to their context; mixing elements
/// from different [`FpContext`]s is a logic error (debug builds may panic on
/// limb-length mismatches).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FpElement {
    mont: BigUint,
}

impl FpElement {
    /// Returns `true` if this element is zero.
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Raw Montgomery-form representation (used by the platform simulator to
    /// load operands into the coprocessor data memory).
    pub fn mont_repr(&self) -> &BigUint {
        &self.mont
    }

    /// Constructs an element directly from a Montgomery-form residue.
    ///
    /// This is the inverse of [`FpElement::mont_repr`] and is intended for
    /// the platform simulator; normal users should go through
    /// [`FpContext::from_biguint`].
    pub fn from_mont_repr(mont: BigUint) -> Self {
        FpElement { mont }
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FpElement(mont=0x{})", self.mont.to_hex())
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
        let fixed256 = (mont.num_limbs() == 8)
            .then(|| MontgomeryContext::new(p))
            .flatten();
        Ok(FpContext {
            inner: Arc::new(FpInner {
                modulus: p.clone(),
                mont,
                fixed256,
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

    /// The Montgomery parameters backing this field (exposed for the
    /// platform simulator, which replays the same constants in microcode).
    pub fn montgomery(&self) -> &MontgomeryParams {
        &self.inner.mont
    }

    /// The fixed-width (4×u64 limb) Montgomery context backing this field,
    /// when the modulus is a 256-bit prime — `None` otherwise.
    ///
    /// The fixed backend shares the Montgomery radix `R = 2^256` with
    /// [`FpContext::montgomery`], so an [`FpElement`]'s `mont_repr` is also
    /// its fixed-backend Montgomery form (only the limb packing differs).
    /// [`FpContext::mul`]/[`FpContext::square`] single products and the
    /// [`FpContext::exp`] / [`FpContext::inv`] square-and-multiply loops
    /// all route through it automatically; `ecc` uses this accessor to run
    /// whole scalar-mult ladders on the stack. A context built by
    /// [`FpContext::heap_only`] opts out, which is how the benchmark
    /// baselines stay on the `BigUint` path.
    pub fn fixed256(&self) -> Option<&MontgomeryContext<4>> {
        self.inner.fixed256.as_ref()
    }

    /// A twin of this context with the fixed-width backend disabled: same
    /// modulus, same Montgomery constants, and the **same shared operation
    /// counter**, but every product runs on the heap `BigUint` path.
    ///
    /// This exists for honest baselines: `fixed_vs_heap` benches and
    /// `scalar_mul_reference` must measure the heap implementation, not the
    /// fixed backend against itself.
    pub fn heap_only(&self) -> FpContext {
        FpContext {
            inner: Arc::new(FpInner {
                modulus: self.inner.modulus.clone(),
                mont: self.inner.mont.clone(),
                fixed256: None,
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

    /// The additive identity.
    pub fn zero(&self) -> FpElement {
        FpElement {
            mont: BigUint::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one(&self) -> FpElement {
        FpElement {
            mont: self.inner.mont.one_mont(),
        }
    }

    /// Embeds an arbitrary integer (reduced modulo `p`).
    pub fn from_biguint(&self, v: &BigUint) -> FpElement {
        FpElement {
            mont: self.inner.mont.to_mont(v),
        }
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
        self.inner.mont.from_mont(&a.mont)
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> FpElement {
        self.from_biguint(&BigUint::random_below(rng, &self.inner.modulus))
    }

    /// Modular addition.
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_add();
        let s = &a.mont + &b.mont;
        FpElement {
            mont: if s >= self.inner.modulus {
                &s - &self.inner.modulus
            } else {
                s
            },
        }
    }

    /// Modular subtraction.
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_sub();
        FpElement {
            mont: if a.mont >= b.mont {
                &a.mont - &b.mont
            } else {
                &(&a.mont + &self.inner.modulus) - &b.mont
            },
        }
    }

    /// Modular negation.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        if a.is_zero() {
            return self.zero();
        }
        self.inner.counter.record_sub();
        FpElement {
            mont: &self.inner.modulus - &a.mont,
        }
    }

    /// Doubling (`a + a`), counted as one addition.
    pub fn double(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Modular multiplication (one Montgomery multiplication).
    ///
    /// For 256-bit primes the product runs on the fixed-width backend;
    /// residues are bit-identical to the heap path because both backends
    /// share the Montgomery radix.
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.inner.counter.record_mul();
        if let Some(ctx) = self.inner.fixed256.as_ref() {
            if let (Some(a_f), Some(b_f)) = (
                Uint::<4>::from_biguint(&a.mont),
                Uint::<4>::from_biguint(&b.mont),
            ) {
                return FpElement {
                    mont: ctx.mont_mul(&a_f, &b_f).to_biguint(),
                };
            }
        }
        FpElement {
            mont: self.inner.mont.mont_mul(&a.mont, &b.mont),
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

    /// Modular exponentiation by square-and-multiply.
    ///
    /// For 256-bit primes and exponents of at most 256 bits the whole loop
    /// runs on the fixed-width backend ([`MontgomeryContext::mont_pow`], no
    /// heap allocation per step); the recorded operation counts and the
    /// result are identical to the heap path.
    pub fn exp(&self, base: &FpElement, exp: &BigUint) -> FpElement {
        if let Some(ctx) = self.inner.fixed256.as_ref() {
            if let (Some(base_f), Some(exp_f)) = (
                Uint::<4>::from_biguint(&base.mont),
                Uint::<4>::from_biguint(exp),
            ) {
                self.record_serial_exp_ops(exp);
                return FpElement {
                    mont: ctx.mont_pow(&base_f, &exp_f).to_biguint(),
                };
            }
        }
        square_and_multiply(self.one(), base, exp, |a, b| self.mul(a, b))
    }

    /// Batched modular exponentiation: `out[i] = pairs[i].0 ^ pairs[i].1`.
    ///
    /// On 256-bit primes the squaring ladders run **lane-parallel** on the
    /// fixed backend ([`bignum::fixed::MontgomeryContext::mont_pow_batch`],
    /// four lanes per pass) so batch traffic amortizes host wall-clock; a
    /// trailing partial chunk — and every element on non-256-bit fields or
    /// with an exponent wider than 256 bits — falls back to the serial
    /// [`FpContext::exp`] loop.
    ///
    /// Results are bit-identical to calling `exp` element by element, and
    /// so are the recorded operation counts (one multiplication per
    /// squaring plus one per set exponent bit, **per element** — the batch
    /// kernel's lane-lockstep padding squarings are not modeled work).
    pub fn exp_batch(&self, pairs: &[(FpElement, BigUint)]) -> Vec<FpElement> {
        const LANES: usize = 4;
        let mut out: Vec<Option<FpElement>> = vec![None; pairs.len()];
        let mut lanes: Vec<(usize, Uint<4>, Uint<4>)> = Vec::new();
        if let Some(ctx) = self.inner.fixed256.as_ref() {
            for (i, (base, exp)) in pairs.iter().enumerate() {
                if let (Some(b), Some(e)) = (
                    Uint::<4>::from_biguint(&base.mont),
                    Uint::<4>::from_biguint(exp),
                ) {
                    lanes.push((i, b, e));
                }
            }
            for group in lanes.chunks(LANES) {
                if let [l0, l1, l2, l3] = group {
                    let pow =
                        ctx.mont_pow_batch(&[l0.1, l1.1, l2.1, l3.1], &[l0.2, l1.2, l2.2, l3.2]);
                    for (lane, (i, _, _)) in group.iter().enumerate() {
                        self.record_serial_exp_ops(&pairs[*i].1);
                        out[*i] = Some(FpElement {
                            mont: pow[lane].to_biguint(),
                        });
                    }
                }
            }
        }
        for (i, (base, exp)) in pairs.iter().enumerate() {
            if out[i].is_none() {
                out[i] = Some(self.exp(base, exp));
            }
        }
        out.into_iter()
            .map(|e| e.expect("every slot filled"))
            .collect()
    }

    /// Records what the serial square-and-multiply loop would record for
    /// exponent `exp` — the batch entry points keep the modeled operation
    /// counts identical to their serial counterparts.
    fn record_serial_exp_ops(&self, exp: &BigUint) {
        for i in 0..exp.bit_len() {
            self.inner.counter.record_mul();
            if exp.bit(i) {
                self.inner.counter.record_mul();
            }
        }
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
    /// not modeled field work). On 256-bit primes the chain runs on the
    /// fixed backend; other fields use the heap Montgomery parameters.
    pub fn inv_batch(&self, elems: &[FpElement]) -> Vec<Option<FpElement>> {
        let live: Vec<usize> = (0..elems.len()).filter(|&i| !elems[i].is_zero()).collect();
        for _ in &live {
            self.inner.counter.record_inv();
        }
        let mut out: Vec<Option<FpElement>> = vec![None; elems.len()];
        if live.is_empty() {
            return out;
        }
        if let Some(ctx) = self.inner.fixed256.as_ref() {
            let mut values: Vec<Uint<4>> = live
                .iter()
                .map(|&i| {
                    Uint::<4>::from_biguint(&elems[i].mont)
                        .expect("256-bit field residue fits in 4 limbs")
                })
                .collect();
            let mut scratch = vec![Uint::<4>::ZERO; values.len()];
            let ok = ctx.mont_inv_batch(&mut values, &mut scratch);
            debug_assert!(ok, "non-zero elements invert");
            for (slot, inv) in live.iter().zip(values) {
                out[*slot] = Some(FpElement {
                    mont: inv.to_biguint(),
                });
            }
            return out;
        }
        // Heap path: the same prefix-product chain on the raw Montgomery
        // parameters (deliberately uncounted — see the doc note above).
        let mont = &self.inner.mont;
        let mut prefix: Vec<BigUint> = Vec::with_capacity(live.len());
        for &i in &live {
            prefix.push(match prefix.last() {
                None => elems[i].mont.clone(),
                Some(acc) => mont.mont_mul(acc, &elems[i].mont),
            });
        }
        let exp = &self.inner.modulus - &BigUint::from(2u64);
        let mut inv = mont.mont_pow(prefix.last().expect("live is non-empty"), &exp);
        for idx in (1..live.len()).rev() {
            out[live[idx]] = Some(FpElement {
                mont: mont.mont_mul(&inv, &prefix[idx - 1]),
            });
            inv = mont.mont_mul(&inv, &elems[live[idx]].mont);
        }
        out[live[0]] = Some(FpElement { mont: inv });
        out
    }

    /// Modular inversion via Fermat's little theorem. Returns `None` for zero.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return None;
        }
        self.inner.counter.record_inv();
        // The exponentiation's internal multiplications are deliberately not
        // double-counted: the paper treats inversion as its own primitive.
        if let Some(ctx) = self.inner.fixed256.as_ref() {
            if let Some(a_f) = Uint::<4>::from_biguint(&a.mont) {
                let inv = ctx
                    .mont_inv_prime(&a_f)
                    .expect("non-zero element stays non-zero in fixed form");
                return Some(FpElement {
                    mont: inv.to_biguint(),
                });
            }
        }
        let exp = &self.inner.modulus - &BigUint::from(2u64);
        Some(FpElement {
            mont: self.inner.mont.mont_pow(&a.mont, &exp),
        })
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
        let repr = a.mont_repr().clone();
        assert_eq!(FpElement::from_mont_repr(repr), a);
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
    fn fixed256_fast_path_matches_heap_loops() {
        // secp256k1's p: 8 u32 limbs, so the fixed backend engages.
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let fp = FpContext::new(&p).unwrap();
        assert!(fp.fixed256().is_some());
        assert!(ctx().fixed256().is_none(), "small primes stay on the heap");

        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let a = fp.random(&mut rng);
            let e = BigUint::random_below(&mut rng, &p);
            // Reference: the heap Montgomery exponentiation on the plain residue.
            let expected = fp.montgomery().mod_exp(&fp.to_biguint(&a), &e);
            assert_eq!(fp.to_biguint(&fp.exp(&a, &e)), expected);
            if !a.is_zero() {
                let expected_inv = fp.montgomery().mod_inv_prime(&fp.to_biguint(&a)).unwrap();
                assert_eq!(fp.to_biguint(&fp.inv(&a).unwrap()), expected_inv);
            }
        }

        // Exponents wider than the fixed backend's 256 bits still work, on
        // the generic loop, and count like every other exponent.
        let a = fp.random(&mut rng);
        let wide = BigUint::random_bits(&mut rng, 300);
        fp.reset_op_count();
        let got = fp.exp(&a, &wide);
        let set_bits = (0..wide.bit_len()).filter(|&i| wide.bit(i)).count();
        assert!(wide.bit_len() > 256);
        assert_eq!(fp.op_count().mul, (wide.bit_len() + set_bits) as u64);
        let expected = fp.montgomery().mod_exp(&fp.to_biguint(&a), &wide);
        assert_eq!(fp.to_biguint(&got), expected);

        // The fast path records the same operation counts as the heap loop:
        // one mul per squaring plus one per set exponent bit.
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
        assert!(fp.fixed256().is_some());
        assert!(heap.fixed256().is_none(), "twin must stay on the heap");
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
    fn exp_batch_matches_serial_on_both_backends() {
        let p =
            BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        for fp in [FpContext::new(&p).unwrap(), ctx()] {
            let heap = fp.heap_only();
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            // 7 pairs: exercises a full lane group plus a partial trailing
            // chunk, with edge exponents {0, 1, p-1} mixed in.
            let mut pairs: Vec<(FpElement, BigUint)> = vec![
                (fp.random(&mut rng), BigUint::zero()),
                (fp.random(&mut rng), BigUint::one()),
                (fp.random(&mut rng), fp.modulus() - &BigUint::one()),
            ];
            for _ in 0..4 {
                let e = BigUint::random_below(&mut rng, fp.modulus());
                pairs.push((fp.random(&mut rng), e));
            }
            let serial: Vec<FpElement> = pairs.iter().map(|(b, e)| heap.exp(b, e)).collect();
            fp.reset_op_count();
            let expected: Vec<FpElement> = pairs.iter().map(|(b, e)| fp.exp(b, e)).collect();
            let serial_count = fp.op_count();
            assert_eq!(expected, serial, "fixed serial path matches heap");
            fp.reset_op_count();
            let batch = fp.exp_batch(&pairs);
            assert_eq!(batch, serial, "batch bit-identical to serial");
            assert_eq!(
                fp.op_count().mul,
                serial_count.mul,
                "batch records serial-equivalent mul counts"
            );
            assert!(fp.exp_batch(&[]).is_empty());
            let single = fp.exp_batch(&pairs[..1]);
            assert_eq!(single, serial[..1]);
        }
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
