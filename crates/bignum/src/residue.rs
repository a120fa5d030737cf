//! One interface over the two Montgomery backends, and computations written
//! once against it.
//!
//! [`ResidueOps`] is what a computation on residues modulo one odd modulus
//! needs: Montgomery products and squares, modular sums, differences and
//! negations, the zero test, a table read, Fermat and batched inversion,
//! the Montgomery one, and the conversions from and to [`BigUint`] or
//! 64-bit words. It has two implementations: the stack
//! [`MontgomeryContext<L>`] (CIOS products, and SOS squares above four
//! words, on `L` words) and [`MontgomeryParams`] itself (the heap FIOS
//! reference). A [`ResidueJob`] is written once over the trait, and
//! [`MontgomeryParams::run`] runs it on the stack context of the modulus's
//! width, or on the heap reference at widths without one. The two backends
//! share the radix `R`, so a job computes the same residues on either.
//!
//! Two exponentiations are written here once for both backends. [`pow`],
//! behind every public exponent, folds a sliding window whose width
//! follows the exponent's length. [`pow_secret`], behind a secret one,
//! folds a fixed window over a length the caller fixes, so which products
//! run does not depend on the exponent. [`square_and_multiply`] folds the
//! binary recoding on every level of the `field` tower, where each product
//! is counted.

use crate::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};
use crate::limb::{Limb, LIMB_BITS};
use crate::modular::{mod_add, mod_neg, mod_sub};
use crate::montgomery::MontgomeryParams;
use crate::recoding::{binary, fixed_window, sliding_window, ExponentBits, Step};
use crate::uint::BigUint;

/// Arithmetic on reduced residues modulo one odd modulus.
///
/// Every operation takes reduced operands (`< p`) and returns a reduced
/// result, and every backend computes the same residues.
pub trait ResidueOps {
    /// A residue in the backend's own representation, ordered as the
    /// integer it holds.
    type Elem: Clone + Ord;

    /// The Montgomery product `a·b·R⁻¹ mod p`.
    fn mont_mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// The Montgomery square `a²·R⁻¹ mod p`: [`mont_mul`](Self::mont_mul)
    /// `(a, a)`, which the stack context replaces with a dedicated
    /// squaring above four words.
    fn mont_sqr(&self, a: &Self::Elem) -> Self::Elem {
        self.mont_mul(a, a)
    }

    /// `table[index]`. The stack context reads every entry under a mask,
    /// so which memory the read touches does not depend on `index`; the
    /// heap reference indexes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of the table's range.
    fn select(&self, table: &[Self::Elem], index: usize) -> Self::Elem {
        table[index].clone()
    }

    /// `a + b mod p`.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `a − b mod p`.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// `−a mod p`.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;

    /// Whether `a` is zero.
    fn is_zero(&self, a: &Self::Elem) -> bool;

    /// `R mod p`, the Montgomery form of 1.
    fn one_mont(&self) -> Self::Elem;

    /// The inverse of a Montgomery-form residue, staying in Montgomery
    /// form, by Fermat's little theorem: `a^(p−2)` under Montgomery
    /// products. Only valid for a prime modulus; `None` for zero.
    fn mont_inv_prime(&self, a: &Self::Elem) -> Option<Self::Elem>;

    /// Inverts every Montgomery-form residue of `values` in place by
    /// Montgomery's trick: one [`mont_inv_prime`](Self::mont_inv_prime)
    /// plus `3(n − 1)` products for `n` values. A lone value is one Fermat
    /// inversion and allocates nothing. Returns `false`, leaving `values`
    /// untouched, if any of them is zero; only valid for a prime modulus.
    fn invert_batch(&self, values: &mut [Self::Elem]) -> bool {
        if values.iter().any(|v| self.is_zero(v)) {
            return false;
        }
        let [first, rest @ ..] = values else {
            return true;
        };
        if rest.is_empty() {
            *first = self.mont_inv_prime(first).expect("a non-zero value");
            return true;
        }
        // prefix[i] = values[0] · … · values[i].
        let mut prefix = Vec::with_capacity(values.len());
        prefix.push(values[0].clone());
        for v in &values[1..] {
            let next = self.mont_mul(prefix.last().expect("non-empty"), v);
            prefix.push(next);
        }
        let mut inv = self
            .mont_inv_prime(prefix.last().expect("non-empty"))
            .expect("a product of non-zero values modulo a prime");
        for i in (1..values.len()).rev() {
            let v = std::mem::replace(&mut values[i], self.mont_mul(&inv, &prefix[i - 1]));
            inv = self.mont_mul(&inv, &v);
        }
        values[0] = inv;
        true
    }

    /// The backend form of `v`, which must fit the modulus's width; `v` is
    /// repacked, not reduced.
    fn lower(&self, v: &BigUint) -> Self::Elem;

    /// The integer a backend value holds.
    fn lift(&self, e: &Self::Elem) -> BigUint;

    /// [`lower`](Self::lower) of the value whose 64-bit words, least
    /// significant first, are `words`.
    fn lower_words(&self, words: &[u64]) -> Self::Elem;

    /// Writes the 64-bit words of `e`, least significant first, to
    /// `words`, which must hold its value; words above it are zeroed.
    fn lift_words(&self, e: &Self::Elem, words: &mut [u64]);
}

/// A computation written once over [`ResidueOps`], which
/// [`MontgomeryParams::run`] runs on the backend of the modulus's width.
pub trait ResidueJob {
    /// What the job returns.
    type Output;

    /// Runs the job on `r`.
    fn run<R: ResidueOps>(self, r: &R) -> Self::Output;
}

/// `base^exp` by the [`binary`] recoding from `one`: one `mul(acc, acc)` per
/// bit of `exp` and one `mul(acc, base)` per set bit.
///
/// ```
/// use bignum::{square_and_multiply, BigUint};
///
/// let e = BigUint::from(0b1011u64);
/// let power = square_and_multiply(1u64, &3, &e, |a, b| a * b % 101);
/// assert_eq!(power, 3u64.pow(11) % 101);
/// ```
pub fn square_and_multiply<E>(
    one: E,
    base: &E,
    exp: &impl ExponentBits,
    mut mul: impl FnMut(&E, &E) -> E,
) -> E {
    binary(exp).fold(one, |acc, step| match step {
        Step::Square => mul(&acc, &acc),
        Step::Multiply { .. } => mul(&acc, base),
    })
}

/// The sliding window's width for an exponent of `bits` bits: OpenSSL's
/// `BN_window_bits_for_exponent_size`, capped at 5 so that the odd powers
/// fit [`pow`]'s 16-entry table.
fn window_width(bits: usize) -> usize {
    match bits {
        0..=23 => 1,
        24..=79 => 3,
        80..=239 => 4,
        _ => 5,
    }
}

/// `base^exp` in Montgomery form on `r`, for a public exponent: a
/// [`sliding_window`] of [`window_width`] bits over a table of the odd
/// powers `base^1, base^3, …`, squaring with
/// [`mont_sqr`](ResidueOps::mont_sqr). Which products run follows the
/// exponent's bits.
pub(crate) fn pow<R: ResidueOps>(r: &R, base: &R::Elem, exp: &impl ExponentBits) -> R::Elem {
    let width = window_width(exp.bit_len());
    // Entry i is base^(2i + 1); the unused entries repeat the base.
    let mut table: [R::Elem; 16] = std::array::from_fn(|_| base.clone());
    if width > 1 {
        let square = r.mont_sqr(base);
        for i in 1..1 << (width - 1) {
            table[i] = r.mont_mul(&table[i - 1], &square);
        }
    }
    // From one, as `square_and_multiply` folds: one squaring of one and
    // one product by it more, but the loop's product stays a call the
    // compiler inlines. Started from the first window's entry instead, a
    // 256-bit Fermat inversion left the four-word product out of line and
    // took 11.9 µs instead of 8.5 µs (2-vCPU Xeon, minimum of batches).
    sliding_window(std::array::from_ref(exp), width).fold(r.one_mont(), |acc, step| match step {
        Step::Square => r.mont_sqr(&acc),
        Step::Multiply { index, .. } => r.mont_mul(&acc, &table[index]),
    })
}

/// The window width of [`pow_secret`].
const SECRET_WINDOW: usize = 5;

/// `base^exp` in Montgomery form on `r`, for a secret exponent of at most
/// `bits` bits: the [`fixed_window`] recoding at 5 bits over `bits` bits.
/// A table of every power `base^0 … base^31` costs 30 products; the fold
/// starts from the top digit's entry, and each further digit costs five
/// squarings, one [`select`](ResidueOps::select) and one product. Which
/// products run, and in which order, depends on `bits` alone.
///
/// # Panics
///
/// Panics if `exp` has more than `bits` bits.
pub(crate) fn pow_secret<R: ResidueOps>(
    r: &R,
    base: &R::Elem,
    exp: &impl ExponentBits,
    bits: usize,
) -> R::Elem {
    // Entry i is base^i.
    let mut table: [R::Elem; 1 << SECRET_WINDOW] = std::array::from_fn(|_| r.one_mont());
    table[1] = base.clone();
    for i in 2..table.len() {
        table[i] = r.mont_mul(&table[i - 1], base);
    }
    let mut steps = fixed_window(exp, bits, SECRET_WINDOW).skip_while(|&s| s == Step::Square);
    let Some(Step::Multiply { index, .. }) = steps.next() else {
        return r.one_mont();
    };
    steps.fold(r.select(&table, index), |acc, step| match step {
        Step::Square => r.mont_sqr(&acc),
        Step::Multiply { index, .. } => r.mont_mul(&acc, &r.select(&table, index)),
    })
}

/// CIOS products and word-level sums on `L` stack words.
impl<const L: usize> ResidueOps for MontgomeryContext<L> {
    type Elem = Uint<L>;

    #[inline]
    fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        MontgomeryContext::mont_mul(self, a, b)
    }

    /// The dedicated square above four words. Up to four words the CIOS
    /// product overlaps each row's products with the previous row's
    /// reduction, and the square's separate reduction chain costs more
    /// than the cross products it saves: a 256-bit Fermat inversion took
    /// 11.3–13.0 µs on squares and 7.5–8.6 µs on products (2-vCPU Xeon,
    /// minimum of batches).
    #[inline]
    fn mont_sqr(&self, a: &Uint<L>) -> Uint<L> {
        if L <= 4 {
            MontgomeryContext::mont_mul(self, a, a)
        } else {
            MontgomeryContext::mont_sqr(self, a)
        }
    }

    /// Reads every entry and keeps the one at `index` under a mask, with
    /// no branch on `index`.
    fn select(&self, table: &[Uint<L>], index: usize) -> Uint<L> {
        assert!(index < table.len(), "table index out of range");
        let mut out = [0u64; L];
        for (i, entry) in table.iter().enumerate() {
            // All ones when i == index, else zero.
            let mask = u64::from(i == index).wrapping_neg();
            for (o, &w) in out.iter_mut().zip(entry.limbs()) {
                *o |= w & mask;
            }
        }
        Uint::from_limbs(out)
    }

    #[inline]
    fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        add_mod(a, b, self.modulus())
    }

    #[inline]
    fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        sub_mod(a, b, self.modulus())
    }

    #[inline]
    fn neg(&self, a: &Uint<L>) -> Uint<L> {
        neg_mod(a, self.modulus())
    }

    #[inline]
    fn is_zero(&self, a: &Uint<L>) -> bool {
        a.is_zero()
    }

    fn one_mont(&self) -> Uint<L> {
        MontgomeryContext::one_mont(self)
    }

    fn mont_inv_prime(&self, a: &Uint<L>) -> Option<Uint<L>> {
        MontgomeryContext::mont_inv_prime(self, a)
    }

    fn lower(&self, v: &BigUint) -> Uint<L> {
        Uint::from_biguint(v).expect("the value fits the modulus's width")
    }

    fn lift(&self, e: &Uint<L>) -> BigUint {
        e.to_biguint()
    }

    #[inline]
    fn lower_words(&self, words: &[u64]) -> Uint<L> {
        debug_assert!(
            words.iter().skip(L).all(|&w| w == 0),
            "the value fits the modulus's width"
        );
        Uint::from_limbs(std::array::from_fn(|i| words.get(i).copied().unwrap_or(0)))
    }

    #[inline]
    fn lift_words(&self, e: &Uint<L>, words: &mut [u64]) {
        debug_assert!(
            e.limbs().iter().skip(words.len()).all(|&w| w == 0),
            "the words hold the value"
        );
        for (i, w) in words.iter_mut().enumerate() {
            *w = e.limbs().get(i).copied().unwrap_or(0);
        }
    }
}

/// The heap FIOS reference: [`MontgomeryParams::mont_mul`] products and
/// `BigUint` sums.
impl ResidueOps for MontgomeryParams {
    type Elem = BigUint;

    fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        MontgomeryParams::mont_mul(self, a, b)
    }

    fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        mod_add(a, b, self.modulus())
    }

    fn sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        mod_sub(a, b, self.modulus())
    }

    fn neg(&self, a: &BigUint) -> BigUint {
        mod_neg(a, self.modulus())
    }

    fn is_zero(&self, a: &BigUint) -> bool {
        a.is_zero()
    }

    fn one_mont(&self) -> BigUint {
        MontgomeryParams::one_mont(self)
    }

    fn mont_inv_prime(&self, a: &BigUint) -> Option<BigUint> {
        if a.is_zero() {
            return None;
        }
        Some(pow(self, a, &(self.modulus() - &BigUint::from(2u64))))
    }

    fn lower(&self, v: &BigUint) -> BigUint {
        v.clone()
    }

    fn lift(&self, e: &BigUint) -> BigUint {
        e.clone()
    }

    fn lower_words(&self, words: &[u64]) -> BigUint {
        let limbs: Vec<Limb> = words
            .iter()
            .flat_map(|&w| [w as Limb, (w >> LIMB_BITS) as Limb])
            .collect();
        BigUint::from_limbs(&limbs)
    }

    fn lift_words(&self, e: &BigUint, words: &mut [u64]) {
        words.fill(0);
        for (i, &limb) in e.limbs().iter().enumerate() {
            words[i / 2] |= u64::from(limb) << (LIMB_BITS * (i % 2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secp256k1_p() -> BigUint {
        BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap()
    }

    /// Deterministic non-zero Montgomery-form residues, lowered to `r`.
    fn sample_residues<R: ResidueOps>(r: &R, heap: &MontgomeryParams, n: usize) -> Vec<R::Elem> {
        let mut state = 7 + n as u64;
        (0..n)
            .map(|_| {
                let words: [u64; 4] = std::array::from_fn(|_| {
                    // SplitMix64: cheap, deterministic, well-mixed test data.
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                });
                r.lower(&heap.to_mont(&heap.lower_words(&words)))
            })
            .collect()
    }

    /// The batch against one Fermat inversion per element, on one backend.
    fn check_invert_batch<R: ResidueOps>(r: &R, heap: &MontgomeryParams)
    where
        R::Elem: std::fmt::Debug,
    {
        for n in [0usize, 1, 2, 5, 16] {
            let mut values = sample_residues(r, heap, n);
            let expected: Vec<_> = values
                .iter()
                .map(|v| r.mont_inv_prime(v).unwrap())
                .collect();
            assert!(r.invert_batch(&mut values), "n = {n}");
            assert_eq!(values, expected, "n = {n}");
        }
        // A zero is rejected with the values untouched.
        let mut with_zero = vec![r.one_mont(), r.lower_words(&[]), r.one_mont()];
        let snapshot = with_zero.clone();
        assert!(!r.invert_batch(&mut with_zero));
        assert_eq!(with_zero, snapshot);
        assert!(r.mont_inv_prime(&r.lower_words(&[])).is_none());
    }

    #[test]
    fn invert_batch_matches_fermat_per_element() {
        let heap = MontgomeryParams::new(&secp256k1_p()).unwrap();
        check_invert_batch(&MontgomeryContext::<4>::new(&secp256k1_p()).unwrap(), &heap);
        check_invert_batch(&heap, &heap);
    }
}
