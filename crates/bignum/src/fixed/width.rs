//! The width rule, and Montgomery arithmetic at every width up to 256 bits.

use super::modular::{add_mod, neg_mod, sub_mod};
use super::montgomery::MontgomeryContext;
use super::uint::Uint;
use crate::BigUint;

/// The width rule: a modulus of `bits` bits runs on
/// [`MontgomeryContext<L>`](MontgomeryContext) with `L = ⌈bits/64⌉` words,
/// whose Montgomery radix is `R = 2^(64·L)`.
///
/// [`MontgomeryParams`](crate::MontgomeryParams) rounds its 32-bit limb
/// count up to `2·L`, so the heap and fixed backends share `R`, and with it
/// every Montgomery residue, at every width.
pub const fn montgomery_words(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Montgomery arithmetic for an odd modulus of at most 256 bits, on the
/// context [`montgomery_words`] picks for it.
///
/// Residues are four words wide, zero above the modulus's own width, so
/// one element type serves every width; each operation runs on the
/// `L`-word context and never allocates (apart from
/// [`mont_inv_batch`](Self::mont_inv_batch)'s working copies).
///
/// # Example
///
/// ```
/// use bignum::fixed::{Montgomery256, Uint};
/// use bignum::BigUint;
///
/// // A 170-bit modulus runs on three words.
/// let p = &BigUint::one().shl_bits(169) + &BigUint::from(0x2du64);
/// let ctx = Montgomery256::new(&p).expect("odd modulus of at most 256 bits");
/// assert!(matches!(ctx, Montgomery256::W3(_)));
/// let a = ctx.to_mont(&Uint::from_u64(6));
/// let b = ctx.to_mont(&Uint::from_u64(7));
/// assert_eq!(ctx.from_mont(&ctx.mont_mul(&a, &b)), Uint::from_u64(42));
/// ```
#[derive(Clone, Debug)]
pub enum Montgomery256 {
    /// Moduli of up to 64 bits, such as the toy fields.
    W1(MontgomeryContext<1>),
    /// Moduli of 65 to 128 bits.
    W2(MontgomeryContext<2>),
    /// Moduli of 129 to 192 bits: the paper's ECC-160 and CEILIDH-170
    /// primes.
    W3(MontgomeryContext<3>),
    /// Moduli of 193 to 256 bits: the named 256-bit curves.
    W4(MontgomeryContext<4>),
}

/// Evaluates `$body` with `$ctx` bound to whichever context `$self` holds.
macro_rules! on_width {
    ($self:expr, $ctx:ident => $body:expr) => {
        match $self {
            Montgomery256::W1($ctx) => $body,
            Montgomery256::W2($ctx) => $body,
            Montgomery256::W3($ctx) => $body,
            Montgomery256::W4($ctx) => $body,
        }
    };
}

/// The low `L` words of a four-word residue.
#[inline]
fn narrow<const L: usize>(a: &Uint<4>) -> Uint<L> {
    Uint::from_limbs(core::array::from_fn(|i| a.limbs[i]))
}

/// An `L`-word residue, zero-padded to four words.
#[inline]
fn widen<const L: usize>(a: &Uint<L>) -> Uint<4> {
    Uint::from_limbs(core::array::from_fn(|i| if i < L { a.limbs[i] } else { 0 }))
}

impl Montgomery256 {
    /// The context for an odd modulus `> 1` of at most 256 bits; `None` for
    /// any other modulus.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        Some(match montgomery_words(modulus.bit_len()) {
            1 => Self::W1(MontgomeryContext::new(modulus)?),
            2 => Self::W2(MontgomeryContext::new(modulus)?),
            3 => Self::W3(MontgomeryContext::new(modulus)?),
            4 => Self::W4(MontgomeryContext::new(modulus)?),
            _ => return None,
        })
    }

    /// The number of words `L` the arithmetic runs on.
    pub fn words(&self) -> usize {
        on_width!(self, c => c.modulus().limbs().len())
    }

    /// The modulus.
    fn modulus(&self) -> Uint<4> {
        on_width!(self, c => widen(c.modulus()))
    }

    /// `R mod p`, the Montgomery form of 1.
    pub fn one_mont(&self) -> Uint<4> {
        on_width!(self, c => widen(&c.one_mont()))
    }

    /// The Montgomery form `a·R mod p` of a reduced residue `a < p`.
    pub fn to_mont(&self, a: &Uint<4>) -> Uint<4> {
        debug_assert!(*a < self.modulus(), "operand must be reduced");
        on_width!(self, c => widen(&c.to_mont(&narrow(a))))
    }

    /// The plain residue of a Montgomery form.
    pub fn from_mont(&self, a: &Uint<4>) -> Uint<4> {
        on_width!(self, c => widen(&c.from_mont(&narrow(a))))
    }

    /// The Montgomery product `a·b·R⁻¹ mod p` of reduced operands.
    #[inline]
    pub fn mont_mul(&self, a: &Uint<4>, b: &Uint<4>) -> Uint<4> {
        on_width!(self, c => widen(&c.mont_mul(&narrow(a), &narrow(b))))
    }

    /// `a + b mod p`.
    #[inline]
    pub fn add(&self, a: &Uint<4>, b: &Uint<4>) -> Uint<4> {
        on_width!(self, c => widen(&add_mod(&narrow(a), &narrow(b), c.modulus())))
    }

    /// `a − b mod p`.
    #[inline]
    pub fn sub(&self, a: &Uint<4>, b: &Uint<4>) -> Uint<4> {
        on_width!(self, c => widen(&sub_mod(&narrow(a), &narrow(b), c.modulus())))
    }

    /// `−a mod p`.
    #[inline]
    pub fn neg(&self, a: &Uint<4>) -> Uint<4> {
        on_width!(self, c => widen(&neg_mod(&narrow(a), c.modulus())))
    }

    /// Fermat inversion staying in Montgomery form; `None` for zero.
    pub fn mont_inv_prime(&self, a_mont: &Uint<4>) -> Option<Uint<4>> {
        on_width!(self, c => c.mont_inv_prime(&narrow(a_mont)).map(|r| widen(&r)))
    }

    /// [`MontgomeryContext::mont_inv_batch`] at this width, on working
    /// copies: inverts every element in place with one Fermat inversion.
    /// Returns `false`, leaving `values` untouched, if any element is zero.
    pub fn mont_inv_batch(&self, values: &mut [Uint<4>]) -> bool {
        on_width!(self, c => {
            let mut work: Vec<_> = values.iter().map(narrow).collect();
            let mut scratch = vec![Uint::ZERO; work.len()];
            let ok = c.mont_inv_batch(&mut work, &mut scratch);
            for (value, inverse) in values.iter_mut().zip(&work) {
                *value = widen(inverse);
            }
            ok
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An odd modulus of exactly `bits` bits (Montgomery products and
    /// powers need no primality).
    fn odd(bits: usize) -> BigUint {
        &BigUint::one().shl_bits(bits - 1) + &BigUint::from(0x9du64)
    }

    #[test]
    fn the_width_rule_picks_the_context_and_stops_at_256_bits() {
        for (bits, words) in [
            (10, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
            (192, 3),
            (193, 4),
        ] {
            let ctx = Montgomery256::new(&odd(bits)).expect("odd modulus");
            assert_eq!(ctx.words(), words, "{bits} bits");
            assert_eq!(montgomery_words(bits), words);
        }
        let p256 = &BigUint::one().shl_bits(256) - &BigUint::from(189u64);
        assert_eq!(Montgomery256::new(&p256).map(|c| c.words()), Some(4));
        assert!(Montgomery256::new(&(&BigUint::one().shl_bits(256) + &BigUint::one())).is_none());
        assert!(Montgomery256::new(&BigUint::from(1000u64)).is_none());
        assert!(Montgomery256::new(&BigUint::one()).is_none());
    }

    #[test]
    fn every_width_matches_plain_modular_arithmetic() {
        for bits in [10, 64, 100, 160, 170, 256] {
            let m = odd(bits);
            let ctx = Montgomery256::new(&m).unwrap();
            let a = &m - &BigUint::from(3u64);
            let b = &(&m >> 1) + &BigUint::from(7u64);
            let (aw, bw) = (
                Uint::from_biguint(&a).unwrap(),
                Uint::from_biguint(&b).unwrap(),
            );
            let (am, bm) = (ctx.to_mont(&aw), ctx.to_mont(&bw));
            let plain = |x: &Uint<4>| ctx.from_mont(x).to_biguint();
            assert_eq!(
                plain(&ctx.mont_mul(&am, &bm)),
                &(&a * &b) % &m,
                "{bits}: mul"
            );
            assert_eq!(plain(&ctx.add(&am, &bm)), &(&a + &b) % &m, "{bits}: add");
            assert_eq!(
                plain(&ctx.sub(&bm, &am)),
                &(&(&b + &m) - &a) % &m,
                "{bits}: sub"
            );
            assert_eq!(plain(&ctx.neg(&am)), &m - &a, "{bits}: neg");
        }
    }

    #[test]
    fn inversions_at_every_width() {
        // Primes of one to four words: 1009, 2^64 − 59, 2^127 − 1, the
        // P-192 prime and the secp256k1 prime.
        for p in [
            "3f1",
            "ffffffffffffffc5",
            "7fffffffffffffffffffffffffffffff",
            "fffffffffffffffffffffffffffffffeffffffffffffffff",
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        ] {
            let ctx = Montgomery256::new(&BigUint::from_hex(p).unwrap()).unwrap();
            let a = ctx.to_mont(&Uint::from_u64(3));
            let inv = ctx.mont_inv_prime(&a).unwrap();
            assert_eq!(ctx.mont_mul(&a, &inv), ctx.one_mont());
            assert!(ctx.mont_inv_prime(&Uint::ZERO).is_none());
            let b = ctx.to_mont(&Uint::from_u64(5));
            let mut values = [a, b];
            assert!(ctx.mont_inv_batch(&mut values));
            assert_eq!(values, [inv, ctx.mont_inv_prime(&b).unwrap()]);
            let mut with_zero = [a, Uint::ZERO];
            assert!(!ctx.mont_inv_batch(&mut with_zero));
            assert_eq!(with_zero, [a, Uint::ZERO]);
        }
    }
}
