//! Fixed-width Montgomery arithmetic (CIOS, no allocation in the loop).

use super::modular::reduce_wide;
use super::uint::Uint;
use crate::limb::{carrying_add64, inv_mod_limb64, mac64, widening_mul64};
use crate::residue::pow;
use crate::BigUint;

/// Montgomery arithmetic over a fixed-width odd modulus, mirroring
/// [`MontgomeryParams`](crate::MontgomeryParams) at radix 2^64.
///
/// The Montgomery radix is `R = 2^(64·LIMBS)`. At the width the modulus
/// needs, `LIMBS = ⌈n/64⌉` for an `n`-bit modulus (see
/// [`montgomery_words`](super::montgomery_words)), the heap
/// [`MontgomeryParams`](crate::MontgomeryParams) uses the *same* `R`, so
/// Montgomery representations are interchangeable limb reinterpretations
/// of each other and products are bit-identical.
///
/// Construction may allocate (it reduces with `BigUint`); every operation
/// afterwards — [`mont_mul`](Self::mont_mul) (a word-level CIOS schedule),
/// [`mont_sqr`](Self::mont_sqr) (SOS, each cross product once),
/// [`mont_pow`](Self::mont_pow), [`mod_exp`](Self::mod_exp),
/// [`mont_inv_prime`](Self::mont_inv_prime) — runs entirely on stack
/// arrays.
///
/// # Example
///
/// ```
/// use bignum::fixed::{MontgomeryContext, Uint};
/// use bignum::BigUint;
///
/// let p = BigUint::from(1_000_000_007u64);
/// let ctx = MontgomeryContext::<4>::new(&p).expect("odd modulus");
/// let a = Uint::from_u64(123_456_789);
/// let b = Uint::from_u64(987_654_321);
/// let prod = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
/// assert_eq!(
///     prod.to_biguint(),
///     (&a.to_biguint() * &b.to_biguint()) % &p
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontgomeryContext<const LIMBS: usize> {
    modulus: Uint<LIMBS>,
    /// `p' = -p^{-1} mod 2^64`, the CIOS per-modulus constant.
    n0_inv: u64,
    /// `R mod p` — the Montgomery representation of 1.
    r_mod: Uint<LIMBS>,
    /// `R^2 mod p` — the to-Montgomery conversion factor.
    r2: Uint<LIMBS>,
}

impl<const LIMBS: usize> MontgomeryContext<LIMBS> {
    /// Creates a context for an odd modulus `> 1` that fits in `LIMBS`
    /// 64-bit limbs.
    ///
    /// Returns `None` if the modulus is even, `<= 1`, or too wide. Setup
    /// uses heap arithmetic for the `R mod p` / `R² mod p` constants; the
    /// per-operation paths never allocate.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let m = Uint::<LIMBS>::from_biguint(modulus)?;
        let r = BigUint::one().shl_bits(Uint::<LIMBS>::BITS);
        let r_mod = Uint::from_biguint(&(&r % modulus)).expect("R mod p < p fits");
        let r2 = Uint::from_biguint(&(&(&r * &r) % modulus)).expect("R^2 mod p < p fits");
        Some(Self::from_parts(m, r_mod, r2))
    }

    /// A context from a modulus and its `R mod p`, `R² mod p` constants
    /// computed elsewhere: no division, no allocation.
    pub(crate) fn from_parts(modulus: Uint<LIMBS>, r_mod: Uint<LIMBS>, r2: Uint<LIMBS>) -> Self {
        MontgomeryContext {
            modulus,
            n0_inv: inv_mod_limb64(modulus.limbs[0]),
            r_mod,
            r2,
        }
    }

    /// The modulus this context was derived for.
    pub fn modulus(&self) -> &Uint<LIMBS> {
        &self.modulus
    }

    /// The constant `p' = -p^{-1} mod 2^64`.
    pub fn n0_inv(&self) -> u64 {
        self.n0_inv
    }

    /// `R mod p`, the Montgomery representation of 1.
    pub fn one_mont(&self) -> Uint<LIMBS> {
        self.r_mod
    }

    /// `R² mod p`, the to-Montgomery conversion factor.
    pub fn r2(&self) -> Uint<LIMBS> {
        self.r2
    }

    /// Converts a residue into Montgomery form (`a * R mod p`), reducing
    /// the operand first when necessary.
    pub fn to_mont(&self, a: &Uint<LIMBS>) -> Uint<LIMBS> {
        let a = if a < &self.modulus {
            *a
        } else {
            reduce_wide(a, &Uint::ZERO, &self.modulus)
        };
        self.mont_mul(&a, &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain residue.
    pub fn from_mont(&self, a: &Uint<LIMBS>) -> Uint<LIMBS> {
        self.mont_mul(a, &Uint::from_u64(1))
    }

    /// Montgomery product `a * b * R^{-1} mod p` by coarsely integrated
    /// operand scanning (CIOS), entirely on stack arrays.
    ///
    /// Operands must be reduced (`< p`); the result is reduced.
    ///
    /// The accumulator is the standard `LIMBS + 2` words: the stack array
    /// `t` plus the two scalar words `t_hi`/`t_hi2` (stable Rust cannot
    /// spell `[u64; LIMBS + 2]`).
    pub fn mont_mul(&self, a: &Uint<LIMBS>, b: &Uint<LIMBS>) -> Uint<LIMBS> {
        debug_assert!(
            a < &self.modulus && b < &self.modulus,
            "operands must be reduced"
        );
        let mut t = Uint::<LIMBS>::ZERO;
        let mut t_hi = 0u64; // t[LIMBS]
        for i in 0..LIMBS {
            // t += a[i] * b
            let ai = a.limbs()[i];
            let mut carry = 0u64;
            for j in 0..LIMBS {
                let (lo, c) = mac64(t.limbs[j], ai, b.limbs()[j], carry);
                t.limbs[j] = lo;
                carry = c;
            }
            let (s, c) = carrying_add64(t_hi, carry, 0);
            t_hi = s;
            let t_hi2 = c; // t[LIMBS + 1], always 0 or 1
                           // m = t[0] * p' mod 2^64, then t += m * p — which zeroes t[0] —
                           // and shift the accumulator right one word.
            let m = t.limbs[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac64(t.limbs[0], m, self.modulus.limbs[0], 0);
            for j in 1..LIMBS {
                let (lo, c) = mac64(t.limbs[j], m, self.modulus.limbs[j], carry);
                t.limbs[j - 1] = lo;
                carry = c;
            }
            let (lo, c) = carrying_add64(t_hi, carry, 0);
            t.limbs[LIMBS - 1] = lo;
            // t_hi2 + c <= 2 never overflows; the invariant t < 2p keeps
            // the new t[LIMBS] in {0, 1} for the next round.
            t_hi = t_hi2 + c;
        }
        self.final_subtract(t, t_hi)
    }

    /// The Montgomery square `a² · R^{-1} mod p`, equal to
    /// [`mont_mul`](Self::mont_mul)`(a, a)`, by separated operand scanning
    /// (SOS): each cross product `a[i]·a[j]`, `i < j`, once, doubled, plus
    /// the diagonal `a[i]²`, then a word-by-word reduction of the
    /// `2·LIMBS`-word square. That is `LIMBS·(LIMBS − 1)/2 + LIMBS²`
    /// word products against CIOS's `2·LIMBS²`.
    ///
    /// The operand must be reduced (`< p`); the result is reduced.
    pub fn mont_sqr(&self, a: &Uint<LIMBS>) -> Uint<LIMBS> {
        debug_assert!(a < &self.modulus, "operand must be reduced");
        let a = a.limbs();
        // The square, word k of 2·LIMBS in lo[k] or hi[k − LIMBS].
        let (mut lo, mut hi) = ([0u64; LIMBS], [0u64; LIMBS]);
        // Row i adds a[i]·a[j] for j < i at words i..2i − 1; its carry
        // lands in word 2i, which no earlier row reached.
        for i in 1..LIMBS {
            let mut carry = 0u64;
            for j in 0..i {
                let k = i + j;
                let word = if k < LIMBS {
                    &mut lo[k]
                } else {
                    &mut hi[k - LIMBS]
                };
                (*word, carry) = mac64(*word, a[i], a[j], carry);
            }
            let k = 2 * i;
            if k < LIMBS {
                lo[k] = carry;
            } else {
                hi[k - LIMBS] = carry;
            }
        }
        // Double the cross products and add the diagonal. The cross
        // products sum to less than a²/2, so neither the bit shifted out of
        // the top word nor the final carry is ever set.
        let (mut shifted_out, mut carry) = (0u64, 0u64);
        for (i, &ai) in a.iter().enumerate() {
            let (sq_lo, sq_hi) = widening_mul64(ai, ai);
            for (k, sq) in [(2 * i, sq_lo), (2 * i + 1, sq_hi)] {
                let word = if k < LIMBS {
                    &mut lo[k]
                } else {
                    &mut hi[k - LIMBS]
                };
                let doubled = (*word << 1) | shifted_out;
                shifted_out = *word >> 63;
                (*word, carry) = carrying_add64(doubled, sq, carry);
            }
        }
        debug_assert_eq!((shifted_out, carry), (0, 0), "a² fits 2·LIMBS words");
        // Reduce word by word: add m·p to zero the low word, shift right
        // one word and bring in the next word of hi, whose sum with the
        // reduction's carry and the previous overflow bit overflows by at
        // most one bit.
        let mut t = Uint::from_limbs(lo);
        let mut t_hi = 0u64;
        for &next in &hi {
            let m = t.limbs[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac64(t.limbs[0], m, self.modulus.limbs[0], 0);
            for j in 1..LIMBS {
                (t.limbs[j - 1], carry) = mac64(t.limbs[j], m, self.modulus.limbs[j], carry);
            }
            (t.limbs[LIMBS - 1], t_hi) = carrying_add64(next, carry, t_hi);
        }
        self.final_subtract(t, t_hi)
    }

    /// Reduces `t_hi·2^BITS + t < 2p` below `p` with one conditional
    /// subtraction. When `t_hi` is set the true value is `2^BITS + t ≥ p`
    /// and the wrapping difference is exact.
    #[inline]
    fn final_subtract(&self, t: Uint<LIMBS>, t_hi: u64) -> Uint<LIMBS> {
        let (diff, borrow) = t.borrowing_sub(&self.modulus, 0);
        if t_hi != 0 || borrow == 0 {
            diff
        } else {
            t
        }
    }

    /// Exponentiation of a Montgomery-form base, returning a
    /// Montgomery-form result, by the sliding window every public
    /// exponentiation runs, squaring with [`mont_sqr`](Self::mont_sqr).
    /// Its schedule follows the exponent's bits: for a secret exponent use
    /// [`MontgomeryParams::mod_exp_secret`](crate::MontgomeryParams::mod_exp_secret).
    pub fn mont_pow(&self, base_mont: &Uint<LIMBS>, exp: &Uint<LIMBS>) -> Uint<LIMBS> {
        pow(self, base_mont, exp)
    }

    /// Modular exponentiation `base^exp mod p` by
    /// [`mont_pow`](Self::mont_pow), whose schedule follows the exponent's
    /// bits.
    pub fn mod_exp(&self, base: &Uint<LIMBS>, exp: &Uint<LIMBS>) -> Uint<LIMBS> {
        let base_m = self.to_mont(base);
        self.from_mont(&self.mont_pow(&base_m, exp))
    }

    /// Inverse of a Montgomery-form value, staying in Montgomery form, via
    /// Fermat's little theorem (`â^{p-2}` under Montgomery products maps
    /// `a·R` to `a^{-1}·R`); only valid when the modulus is prime. Returns
    /// `None` for zero input.
    pub fn mont_inv_prime(&self, a_mont: &Uint<LIMBS>) -> Option<Uint<LIMBS>> {
        if a_mont.is_zero() {
            return None;
        }
        let exp = self
            .modulus
            .checked_sub(&Uint::from_u64(2))
            .expect("modulus is odd and > 1, so >= 3");
        Some(self.mont_pow(a_mont, &exp))
    }

    /// `LANES` independent Montgomery products, lane `l` exactly
    /// [`mont_mul`](Self::mont_mul)`(&a[l], &b[l])`.
    ///
    /// A plain per-lane map with no kernel of its own. It stays because
    /// the host benchmark's traced leaf probe
    /// (`bignum.fixed_mont_mul_batch8_ns_per_lane.256`) times it.
    pub fn mont_mul_batch<const LANES: usize>(
        &self,
        a: &[Uint<LIMBS>; LANES],
        b: &[Uint<LIMBS>; LANES],
    ) -> [Uint<LIMBS>; LANES] {
        core::array::from_fn(|l| self.mont_mul(&a[l], &b[l]))
    }

    /// Modular inverse via Fermat's little theorem (`a^{p-2} mod p`); only
    /// valid when the modulus is prime. Returns `None` for zero input
    /// (including unreduced multiples of `p`).
    pub fn mod_inv_prime(&self, a: &Uint<LIMBS>) -> Option<Uint<LIMBS>> {
        let a = if a < &self.modulus {
            *a
        } else {
            reduce_wide(a, &Uint::ZERO, &self.modulus)
        };
        if a.is_zero() {
            return None;
        }
        Some(self.from_mont(&self.mont_inv_prime(&self.to_mont(&a))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mod_mul, MontgomeryParams};

    fn secp256k1_p() -> BigUint {
        BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap()
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontgomeryContext::<4>::new(&BigUint::from(8u64)).is_none());
        assert!(MontgomeryContext::<4>::new(&BigUint::zero()).is_none());
        assert!(MontgomeryContext::<4>::new(&BigUint::one()).is_none());
        // 2^256 + 1 does not fit in 4 limbs.
        let wide = &BigUint::one().shl_bits(256) + &BigUint::one();
        assert!(MontgomeryContext::<4>::new(&wide).is_none());
    }

    #[test]
    fn mont_mul_matches_plain_modular_product() {
        let p = secp256k1_p();
        let ctx = MontgomeryContext::<4>::new(&p).unwrap();
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let b = BigUint::from_hex("f0e1d2c3b4a5968778695a4b3c2d1e0f").unwrap();
        let af = Uint::from_biguint(&a).unwrap();
        let bf = Uint::from_biguint(&b).unwrap();
        let prod = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&af), &ctx.to_mont(&bf)));
        assert_eq!(prod.to_biguint(), mod_mul(&a, &b, &p));
    }

    #[test]
    fn representations_match_heap_backend_at_shared_radix() {
        // s = 8 u32 limbs and LIMBS = 4 u64 limbs share R = 2^256, so
        // Montgomery forms agree limb for limb.
        let p = secp256k1_p();
        let heap = MontgomeryParams::new(&p).unwrap();
        let fixed = MontgomeryContext::<4>::new(&p).unwrap();
        assert_eq!(heap.num_limbs(), 8);
        assert_eq!(fixed.one_mont().to_biguint(), heap.one_mont());
        assert_eq!(fixed.n0_inv() as u32, heap.n0_inv());
        let a = BigUint::from_hex("deadbeef0123456789abcdef").unwrap();
        let am = fixed.to_mont(&Uint::from_biguint(&a).unwrap());
        assert_eq!(am.to_biguint(), heap.to_mont(&a));
    }

    #[test]
    fn exponentiation_and_inverse() {
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryContext::<4>::new(&p).unwrap();
        let a = Uint::from_u64(123_456_789);
        // a^(p-1) = 1 by Fermat.
        let pm1 = Uint::from_u64(1_000_000_006);
        assert_eq!(ctx.mod_exp(&a, &pm1), Uint::from_u64(1));
        assert_eq!(ctx.mod_exp(&a, &Uint::ZERO), Uint::from_u64(1));
        let inv = ctx.mod_inv_prime(&a).unwrap();
        assert_eq!(
            mod_mul(&a.to_biguint(), &inv.to_biguint(), &p),
            BigUint::one()
        );
        assert!(ctx.mod_inv_prime(&Uint::ZERO).is_none());
        // mont_inv_prime inverts without leaving Montgomery form.
        let am = ctx.to_mont(&a);
        let inv_m = ctx.mont_inv_prime(&am).unwrap();
        assert_eq!(ctx.mont_mul(&am, &inv_m), ctx.one_mont());
    }

    /// Deterministic reduced operands for the batch tests.
    fn sample_residues<const N: usize>(ctx: &MontgomeryContext<4>, seed: u64) -> [Uint<4>; N] {
        let mut out = [Uint::ZERO; N];
        let mut state = seed;
        for slot in out.iter_mut() {
            let mut limbs = [0u64; 4];
            for limb in limbs.iter_mut() {
                // SplitMix64: cheap, deterministic, well-mixed test data.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *limb = z ^ (z >> 31);
            }
            *slot = ctx.to_mont(&Uint::from_limbs(limbs));
        }
        out
    }

    #[test]
    fn mont_mul_batch_matches_serial_lane_for_lane() {
        let ctx = MontgomeryContext::<4>::new(&secp256k1_p()).unwrap();
        let a = sample_residues::<8>(&ctx, 1);
        let b = sample_residues::<8>(&ctx, 2);
        let batched = ctx.mont_mul_batch(&a, &b);
        for l in 0..8 {
            assert_eq!(batched[l], ctx.mont_mul(&a[l], &b[l]), "lane {l}");
        }
        // Degenerate lane counts still work.
        let a1 = [a[0]];
        let b1 = [b[0]];
        assert_eq!(ctx.mont_mul_batch(&a1, &b1)[0], ctx.mont_mul(&a[0], &b[0]));
        // Extreme residues: zero and p - 1 in every mix.
        let pm1 = ctx.to_mont(
            &ctx.modulus()
                .checked_sub(&Uint::from_u64(1))
                .expect("p >= 3"),
        );
        let edge = [Uint::ZERO, pm1, ctx.one_mont(), pm1];
        let batched = ctx.mont_mul_batch(&edge, &edge);
        for l in 0..4 {
            assert_eq!(
                batched[l],
                ctx.mont_mul(&edge[l], &edge[l]),
                "edge lane {l}"
            );
        }
    }
}
