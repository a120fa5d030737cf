//! One interface over the two Montgomery backends, and computations written
//! once against it.
//!
//! [`ResidueOps`] is what a computation on residues modulo one odd modulus
//! needs: Montgomery products, modular sums, differences and negations, the
//! zero test, Fermat and batched inversion, the Montgomery one, and the
//! conversions from and to [`BigUint`] or 64-bit words. It has two
//! implementations: the stack [`MontgomeryContext<L>`] (CIOS on `L` words)
//! and [`MontgomeryParams`] itself (the heap FIOS reference). A
//! [`ResidueJob`] is written once over the trait, and
//! [`MontgomeryParams::run`] runs it on the stack context of the modulus's
//! width, or on the heap reference at widths without one. The two backends
//! share the radix `R`, so a job computes the same residues on either.
//! [`square_and_multiply`] folds the binary recoding on these backends and
//! on every level of the `field` tower.

use crate::fixed::{add_mod, neg_mod, sub_mod, MontgomeryContext, Uint};
use crate::limb::{Limb, LIMB_BITS};
use crate::modular::{mod_add, mod_neg, mod_sub};
use crate::montgomery::MontgomeryParams;
use crate::recoding::{binary, ExponentBits, Step};
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

/// `base^exp` on Montgomery products of `r`.
pub(crate) fn pow<R: ResidueOps>(r: &R, base: &R::Elem, exp: &BigUint) -> R::Elem {
    square_and_multiply(r.one_mont(), base, exp, |a, b| r.mont_mul(a, b))
}

/// CIOS products and word-level sums on `L` stack words.
impl<const L: usize> ResidueOps for MontgomeryContext<L> {
    type Elem = Uint<L>;

    #[inline]
    fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        MontgomeryContext::mont_mul(self, a, b)
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
