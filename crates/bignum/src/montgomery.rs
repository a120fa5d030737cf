//! Montgomery modular multiplication (Algorithm 1 of the paper).
//!
//! The paper performs all modular multiplications with a radix-2^w
//! Montgomery algorithm; the coprocessor microcode implements the FIOS
//! (Finely Integrated Operand Scanning) schedule of Koç, Acar and Kaliski.
//! This module provides host-side reference implementations of FIOS, CIOS
//! and SOS so that the simulated coprocessor (crate `platform`) can be
//! verified operand-for-operand, and so the benchmark harness can ablate
//! over the scanning variants.

use crate::fixed::{montgomery_words, MontgomeryContext, Uint};
use crate::limb::{adc, inv_mod_limb, mac, Limb, LIMB_BITS};
use crate::uint::BigUint;

/// Evaluates `$body`, an `Option`, with `$ctx` bound to `$params`'
/// [`MontgomeryContext<L>`] for `L = s/2` words, at the widths the
/// workspace runs (up to 256 bits, 512 and 1024 bits); `None` elsewhere.
macro_rules! on_stack {
    ($params:expr, $ctx:ident => $body:expr) => {
        match $params.s / 2 {
            1 => {
                let $ctx = $params.context::<1>();
                $body
            }
            2 => {
                let $ctx = $params.context::<2>();
                $body
            }
            3 => {
                let $ctx = $params.context::<3>();
                $body
            }
            4 => {
                let $ctx = $params.context::<4>();
                $body
            }
            8 => {
                let $ctx = $params.context::<8>();
                $body
            }
            16 => {
                let $ctx = $params.context::<16>();
                $body
            }
            _ => None,
        }
    };
}

/// Operand-scanning variant of Montgomery multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionKind {
    /// Finely Integrated Operand Scanning (the paper's Algorithm 1).
    Fios,
    /// Coarsely Integrated Operand Scanning.
    Cios,
    /// Separated Operand Scanning (multiply fully, then reduce).
    Sos,
}

/// Precomputed per-modulus constants for Montgomery arithmetic.
///
/// The radix follows the width rule of [`crate::fixed::montgomery_words`]:
/// an `n`-bit modulus uses `s = 2·⌈n/64⌉` limbs of 32 bits, so
/// `R = 2^(64·⌈n/64⌉)` is also the radix of the fixed-width
/// [`MontgomeryContext`] at that width, and Montgomery forms from the two
/// backends are bit-identical. Single products ([`mont_mul`](Self::mont_mul))
/// run the heap FIOS reference; [`mont_pow`](Self::mont_pow), and with it
/// [`mod_exp`](Self::mod_exp) and [`mod_inv_prime`](Self::mod_inv_prime),
/// run on the stack context for widths of 1–4, 8 and 16 words (moduli of
/// up to 256 bits, 512 and 1024 bits).
///
/// # Example
///
/// ```
/// use bignum::{BigUint, MontgomeryParams};
///
/// let p = BigUint::from(1000000007u64);
/// let mont = MontgomeryParams::new(&p).expect("odd modulus");
/// let x = BigUint::from(123u64);
/// let y = BigUint::from(456u64);
/// let xm = mont.to_mont(&x);
/// let ym = mont.to_mont(&y);
/// assert_eq!(mont.from_mont(&mont.mont_mul(&xm, &ym)).to_u64(), Some(123 * 456));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontgomeryParams {
    modulus: BigUint,
    modulus_limbs: Vec<Limb>,
    s: usize,
    n0_inv: Limb,
    r_mod: BigUint,
    r2: BigUint,
}

impl MontgomeryParams {
    /// Creates Montgomery parameters for an odd modulus `> 1`.
    ///
    /// Returns `None` if the modulus is even or `<= 1`.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // ⌈n/32⌉ limbs rounded up to even: the fixed backend's radix.
        let s = 2 * montgomery_words(modulus.bit_len());
        let n0_inv = inv_mod_limb(modulus.limbs()[0]);
        let r = BigUint::one().shl_bits(s * LIMB_BITS);
        let r_mod = &r % modulus;
        let r2 = &(&r_mod * &r_mod) % modulus;
        Some(MontgomeryParams {
            modulus: modulus.clone(),
            modulus_limbs: modulus.to_limbs_padded(s),
            s,
            n0_inv,
            r_mod,
            r2,
        })
    }

    /// The modulus these parameters were derived for.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Number of radix-2^32 limbs `s = 2·⌈n/64⌉` of the modulus: `⌈n/32⌉`
    /// rounded up to even, so that `R = 2^(32·s)`.
    pub fn num_limbs(&self) -> usize {
        self.s
    }

    /// The constant `p' = -p^{-1} mod 2^w` of Algorithm 1.
    pub fn n0_inv(&self) -> Limb {
        self.n0_inv
    }

    /// `R mod p`, the Montgomery representation of 1.
    pub fn one_mont(&self) -> BigUint {
        self.r_mod.clone()
    }

    /// Converts a reduced residue into Montgomery form (`a * R mod p`).
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        self.mont_mul(&(a % &self.modulus), &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain residue.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.mont_mul(a, &BigUint::one())
    }

    /// Montgomery product `a * b * R^{-1} mod p` using the FIOS schedule.
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont_mul_with(a, b, ReductionKind::Fios)
    }

    /// Montgomery product using an explicit operand-scanning variant.
    pub fn mont_mul_with(&self, a: &BigUint, b: &BigUint, kind: ReductionKind) -> BigUint {
        let x = a.to_limbs_padded(self.s);
        let y = b.to_limbs_padded(self.s);
        let t = match kind {
            ReductionKind::Fios => self.fios(&x, &y),
            ReductionKind::Cios => self.cios(&x, &y),
            ReductionKind::Sos => self.sos(&x, &y),
        };
        self.final_subtract(t)
    }

    /// Modular exponentiation `base^exp mod p` via Montgomery
    /// square-and-multiply (left-to-right).
    ///
    /// Runs entirely on the stack context at this width (conversions
    /// included) when there is one and the exponent fits in it, so its
    /// allocations do not grow with the exponent.
    pub fn mod_exp(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = base % &self.modulus;
        on_stack!(self, ctx => Uint::from_biguint(exp).map(|exp| {
            let base = Uint::from_biguint(&base).expect("a reduced base fits");
            ctx.mod_exp(&base, &exp).to_biguint()
        }))
        .unwrap_or_else(|| self.from_mont(&self.mont_pow(&self.to_mont(&base), exp)))
    }

    /// Exponentiation of a Montgomery-form base, returning a Montgomery-form
    /// result.
    ///
    /// Runs on the [`MontgomeryContext`] at this width (repacked from these
    /// constants on each call) when there is one, the base is reduced and
    /// the exponent fits in it; otherwise on heap FIOS products. The result
    /// is the same residue either way.
    pub fn mont_pow(&self, base_mont: &BigUint, exp: &BigUint) -> BigUint {
        on_stack!(self, ctx => {
            let base = Uint::from_biguint(base_mont).filter(|b| b < ctx.modulus());
            let exp = Uint::from_biguint(exp);
            base.zip(exp).map(|(b, e)| ctx.mont_pow(&b, &e).to_biguint())
        })
        .unwrap_or_else(|| self.heap_pow(base_mont, exp))
    }

    /// This modulus's fixed-width context, repacked from the constants held
    /// here: the two backends share `R`, so no division is needed.
    fn context<const L: usize>(&self) -> MontgomeryContext<L> {
        let words = |v: &BigUint| Uint::from_biguint(v).expect("s/2 words hold every residue");
        MontgomeryContext::from_parts(words(&self.modulus), words(&self.r_mod), words(&self.r2))
    }

    /// [`mont_pow`](Self::mont_pow) on heap FIOS products.
    fn heap_pow(&self, base_mont: &BigUint, exp: &BigUint) -> BigUint {
        let mut acc = self.one_mont();
        for i in (0..exp.bit_len()).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, base_mont);
            }
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (`a^{p-2} mod p`);
    /// only valid when the modulus is prime. Returns `None` for zero input.
    pub fn mod_inv_prime(&self, a: &BigUint) -> Option<BigUint> {
        let a = a % &self.modulus;
        if a.is_zero() {
            return None;
        }
        let exp = &self.modulus - &BigUint::from(2u64);
        Some(self.mod_exp(&a, &exp))
    }

    fn final_subtract(&self, t: Vec<Limb>) -> BigUint {
        let z = BigUint::from_limbs(&t);
        if z >= self.modulus {
            &z - &self.modulus
        } else {
            z
        }
    }

    /// FIOS: one pass per word of `y`, multiplication and reduction finely
    /// interleaved (paper Algorithm 1).
    fn fios(&self, x: &[Limb], y: &[Limb]) -> Vec<Limb> {
        let s = self.s;
        let n = &self.modulus_limbs;
        let mut t = vec![0 as Limb; s + 2];
        for &y_i in y.iter().take(s) {
            // (C,S) = t[0] + x[0]*y[i]
            let (sum, mut carry_x) = mac(t[0], x[0], y_i, 0);
            // Propagate the multiplication carry into t[1..].
            add_carry_at(&mut t, 1, carry_x);
            let m = sum.wrapping_mul(self.n0_inv);
            // (C,S) = sum + m*n[0]; S is zero by construction.
            let (_, mut carry_m) = mac(sum, m, n[0], 0);
            carry_x = 0;
            for j in 1..s {
                let (sum, c1) = mac(t[j], x[j], y_i, carry_x);
                carry_x = c1;
                let (res, c2) = mac(sum, m, n[j], carry_m);
                carry_m = c2;
                t[j - 1] = res;
            }
            // Fold the final carries into the top words.
            let (sum, c) = adc(t[s], carry_x, carry_m);
            t[s - 1] = sum;
            let (sum, c2) = adc(t[s + 1], c, 0);
            t[s] = sum;
            debug_assert_eq!(c2, 0);
            t[s + 1] = 0;
        }
        t.truncate(s + 1);
        t
    }

    /// CIOS: alternate a full multiplication pass and a full reduction pass
    /// per word of `y`.
    fn cios(&self, x: &[Limb], y: &[Limb]) -> Vec<Limb> {
        let s = self.s;
        let n = &self.modulus_limbs;
        let mut t = vec![0 as Limb; s + 2];
        for &y_i in y.iter().take(s) {
            let mut carry = 0;
            for j in 0..s {
                let (lo, hi) = mac(t[j], x[j], y_i, carry);
                t[j] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t[s], carry, 0);
            t[s] = lo;
            t[s + 1] = hi;

            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, n[0], 0);
            for j in 1..s {
                let (lo, hi) = mac(t[j], m, n[j], carry);
                t[j - 1] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t[s], carry, 0);
            t[s - 1] = lo;
            t[s] = t[s + 1].wrapping_add(hi);
            t[s + 1] = 0;
        }
        t.truncate(s + 1);
        t
    }

    /// SOS: compute the full double-length product, then reduce it in a
    /// second phase.
    fn sos(&self, x: &[Limb], y: &[Limb]) -> Vec<Limb> {
        let s = self.s;
        let n = &self.modulus_limbs;
        let mut t = vec![0 as Limb; 2 * s + 1];
        for i in 0..s {
            let mut carry = 0;
            for j in 0..s {
                let (lo, hi) = mac(t[i + j], x[j], y[i], carry);
                t[i + j] = lo;
                carry = hi;
            }
            t[i + s] = carry;
        }
        for i in 0..s {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut carry = 0;
            for j in 0..s {
                let (lo, hi) = mac(t[i + j], m, n[j], carry);
                t[i + j] = lo;
                carry = hi;
            }
            add_carry_at(&mut t, i + s, carry);
        }
        t[s..].to_vec()
    }
}

/// Adds `carry` into `t[idx]`, rippling any further carries upward.
fn add_carry_at(t: &mut [Limb], mut idx: usize, mut carry: Limb) {
    while carry != 0 && idx < t.len() {
        let (sum, c) = adc(t[idx], carry, 0);
        t[idx] = sum;
        carry = c;
        idx += 1;
    }
    debug_assert_eq!(carry, 0, "carry overflowed the temporary buffer");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_mul;
    use rand::SeedableRng;

    fn primes() -> Vec<BigUint> {
        vec![
            BigUint::from(97u64),
            BigUint::from(1_000_000_007u64),
            BigUint::from_hex("ffffffffffffffffffffffffffffffff000000000000000000000001").unwrap(),
            // A 170-bit prime-ish odd modulus (correct Montgomery arithmetic
            // does not require primality).
            BigUint::from_hex("3fffffffffffffffffffffffffffffffffffffffffb").unwrap(),
        ]
    }

    #[test]
    fn rejects_even_or_trivial_modulus() {
        assert!(MontgomeryParams::new(&BigUint::from(16u64)).is_none());
        assert!(MontgomeryParams::new(&BigUint::zero()).is_none());
        assert!(MontgomeryParams::new(&BigUint::one()).is_none());
        assert!(MontgomeryParams::new(&BigUint::from(15u64)).is_some());
    }

    #[test]
    fn to_from_mont_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for p in primes() {
            let mont = MontgomeryParams::new(&p).unwrap();
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &p);
                assert_eq!(mont.from_mont(&mont.to_mont(&a)), a);
            }
        }
    }

    #[test]
    fn all_variants_agree_with_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for p in primes() {
            let mont = MontgomeryParams::new(&p).unwrap();
            for _ in 0..10 {
                let a = BigUint::random_below(&mut rng, &p);
                let b = BigUint::random_below(&mut rng, &p);
                let expected = mod_mul(&a, &b, &p);
                let am = mont.to_mont(&a);
                let bm = mont.to_mont(&b);
                for kind in [ReductionKind::Fios, ReductionKind::Cios, ReductionKind::Sos] {
                    let got = mont.from_mont(&mont.mont_mul_with(&am, &bm, kind));
                    assert_eq!(got, expected, "variant {kind:?} modulus {p:?}");
                }
            }
        }
    }

    #[test]
    fn one_mont_is_identity() {
        for p in primes() {
            let mont = MontgomeryParams::new(&p).unwrap();
            let a = BigUint::from(123_456u64);
            let am = mont.to_mont(&a);
            assert_eq!(mont.mont_mul(&am, &mont.one_mont()), am);
        }
    }

    #[test]
    fn mod_exp_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for p in primes() {
            let mont = MontgomeryParams::new(&p).unwrap();
            for _ in 0..5 {
                let base = BigUint::random_below(&mut rng, &p);
                let exp = BigUint::random_bits(&mut rng, 64);
                assert_eq!(
                    mont.mod_exp(&base, &exp),
                    crate::modular::mod_exp(&base, &exp, &p)
                );
            }
        }
    }

    #[test]
    fn mod_inv_prime_works() {
        let p = BigUint::from(1_000_000_007u64);
        let mont = MontgomeryParams::new(&p).unwrap();
        let a = BigUint::from(123_456_789u64);
        let inv = mont.mod_inv_prime(&a).unwrap();
        assert!(mod_mul(&a, &inv, &p).is_one());
        assert!(mont.mod_inv_prime(&BigUint::zero()).is_none());
    }

    #[test]
    fn exponent_edge_cases() {
        let p = BigUint::from(97u64);
        let mont = MontgomeryParams::new(&p).unwrap();
        assert!(mont
            .mod_exp(&BigUint::from(5u64), &BigUint::zero())
            .is_one());
        assert_eq!(
            mont.mod_exp(&BigUint::from(5u64), &BigUint::one()).to_u64(),
            Some(5)
        );
    }
}
