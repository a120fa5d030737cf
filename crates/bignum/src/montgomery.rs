//! Montgomery modular multiplication (Algorithm 1 of the paper).
//!
//! The paper performs all modular multiplications with a radix-2^w
//! Montgomery algorithm; the coprocessor microcode implements the FIOS
//! (Finely Integrated Operand Scanning) schedule of Koç, Acar and Kaliski.
//! This module provides the host-side FIOS reference, so that the
//! simulated coprocessor (crate `platform`) can be verified
//! operand-for-operand.

use crate::fixed::{montgomery_words, MontgomeryContext, Uint};
use crate::limb::{adc, inv_mod_limb, mac, Limb, LIMB_BITS};
use crate::residue::{pow, pow_secret, ResidueJob, ResidueOps};
use crate::uint::BigUint;

/// Precomputed per-modulus constants for Montgomery arithmetic.
///
/// The radix follows the width rule of [`crate::fixed::montgomery_words`]:
/// an `n`-bit modulus uses `s = 2·⌈n/64⌉` limbs of 32 bits, so
/// `R = 2^(64·⌈n/64⌉)` is also the radix of the fixed-width
/// [`MontgomeryContext`] at that width, and Montgomery forms from the two
/// backends are bit-identical. Single products ([`mont_mul`](Self::mont_mul))
/// run the heap FIOS reference. [`run`](Self::run) runs a [`ResidueJob`] on
/// the stack context of the modulus's width, built once with these
/// constants, for widths of 1–4, 8 and 16 words (moduli of up to 256 bits,
/// 512 and 1024 bits), and on the heap reference elsewhere;
/// [`mont_pow`](Self::mont_pow), [`mod_exp`](Self::mod_exp),
/// [`mod_exp_secret`](Self::mod_exp_secret) and
/// [`mod_inv_prime`](Self::mod_inv_prime) are such jobs.
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
    /// The stack context of this width, where there is one.
    stack: Option<Stack>,
}

/// A modulus's stack context, at the widths that have one.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stack {
    W1(MontgomeryContext<1>),
    W2(MontgomeryContext<2>),
    W3(MontgomeryContext<3>),
    W4(MontgomeryContext<4>),
    W8(MontgomeryContext<8>),
    W16(MontgomeryContext<16>),
}

impl Stack {
    /// The context at `words` words, repacked from the heap constants
    /// `R mod p` and `R² mod p`: the two backends share `R`, so no division
    /// is needed.
    fn new(words: usize, modulus: &BigUint, r_mod: &BigUint, r2: &BigUint) -> Option<Self> {
        fn context<const L: usize>(
            modulus: &BigUint,
            r_mod: &BigUint,
            r2: &BigUint,
        ) -> MontgomeryContext<L> {
            let words = |v: &BigUint| Uint::from_biguint(v).expect("L words hold every residue");
            MontgomeryContext::from_parts(words(modulus), words(r_mod), words(r2))
        }
        Some(match words {
            1 => Stack::W1(context(modulus, r_mod, r2)),
            2 => Stack::W2(context(modulus, r_mod, r2)),
            3 => Stack::W3(context(modulus, r_mod, r2)),
            4 => Stack::W4(context(modulus, r_mod, r2)),
            8 => Stack::W8(context(modulus, r_mod, r2)),
            16 => Stack::W16(context(modulus, r_mod, r2)),
            _ => return None,
        })
    }
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
            stack: Stack::new(s / 2, modulus, &r_mod, &r2),
            r_mod,
            r2,
        })
    }

    /// Runs `job` on this modulus's stack context, when its width of `s/2`
    /// words is 1, 2, 3, 4, 8 or 16, and on these parameters' heap FIOS
    /// reference at any other width. The residues are the same either way.
    ///
    /// # Example
    ///
    /// ```
    /// use bignum::{BigUint, MontgomeryParams, ResidueJob, ResidueOps};
    ///
    /// /// `x³` of a Montgomery-form residue, in Montgomery form.
    /// struct Cube<'a>(&'a BigUint);
    ///
    /// impl ResidueJob for Cube<'_> {
    ///     type Output = BigUint;
    ///     fn run<R: ResidueOps>(self, r: &R) -> BigUint {
    ///         let x = r.lower(self.0);
    ///         r.lift(&r.mont_mul(&r.mont_mul(&x, &x), &x))
    ///     }
    /// }
    ///
    /// let p = BigUint::from(1_000_000_007u64);
    /// let mont = MontgomeryParams::new(&p).expect("odd modulus");
    /// let x = BigUint::from(12_345u64);
    /// let cube = mont.from_mont(&mont.run(Cube(&mont.to_mont(&x))));
    /// assert_eq!(cube, &(&(&x * &x) * &x) % &p);
    /// ```
    #[inline(always)]
    pub fn run<J: ResidueJob>(&self, job: J) -> J::Output {
        match &self.stack {
            Some(Stack::W1(ctx)) => job.run(ctx),
            Some(Stack::W2(ctx)) => job.run(ctx),
            Some(Stack::W3(ctx)) => job.run(ctx),
            Some(Stack::W4(ctx)) => job.run(ctx),
            Some(Stack::W8(ctx)) => job.run(ctx),
            Some(Stack::W16(ctx)) => job.run(ctx),
            None => job.run(self),
        }
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
        let x = a.to_limbs_padded(self.s);
        let y = b.to_limbs_padded(self.s);
        self.final_subtract(self.fios(&x, &y))
    }

    /// Modular exponentiation `base^exp mod p` for a public exponent, by a
    /// left-to-right sliding window whose width follows the exponent's
    /// length (one bit up to 23 bits, so `e = 65537` costs 17 squarings
    /// and two products), conversions included, as one [`run`](Self::run):
    /// its allocations do not grow with the exponent. Its schedule follows
    /// the exponent's bits; use [`mod_exp_secret`](Self::mod_exp_secret)
    /// for a secret exponent.
    pub fn mod_exp(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = base % &self.modulus;
        self.run(ModExp {
            base: &base,
            r2: &self.r2,
            exp,
            secret_bits: None,
        })
    }

    /// Modular exponentiation `base^exp mod p` for a secret exponent, by a
    /// regular 5-bit window over the modulus's bit length: a 32-entry
    /// table of 30 products, then per 5-bit digit five squarings, one
    /// masked table read ([`ResidueOps::select`]) and one product, zero
    /// digits included. Which products run, and the table entries each
    /// read touches, depend on the modulus alone, not on the exponent; a
    /// 1,024-bit modulus costs about 1,255 products whatever the exponent,
    /// so a short public exponent belongs on [`mod_exp`](Self::mod_exp).
    ///
    /// Not yet hidden: the final subtraction of each product and square
    /// branches on its value, as do modular sums and differences.
    ///
    /// # Panics
    ///
    /// Panics if `exp` has more bits than the modulus.
    pub fn mod_exp_secret(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let base = base % &self.modulus;
        self.run(ModExp {
            base: &base,
            r2: &self.r2,
            exp,
            secret_bits: Some(self.modulus.bit_len()),
        })
    }

    /// Exponentiation of a reduced Montgomery-form base, returning a
    /// Montgomery-form result, as one [`run`](Self::run) of the sliding
    /// window [`mod_exp`](Self::mod_exp) runs.
    pub fn mont_pow(&self, base_mont: &BigUint, exp: &BigUint) -> BigUint {
        debug_assert!(base_mont < &self.modulus, "the base must be reduced");
        self.run(MontPow { base_mont, exp })
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
}

/// [`MontgomeryParams::mont_pow`] as a job.
struct MontPow<'a> {
    base_mont: &'a BigUint,
    exp: &'a BigUint,
}

impl ResidueJob for MontPow<'_> {
    type Output = BigUint;

    fn run<R: ResidueOps>(self, r: &R) -> BigUint {
        r.lift(&pow(r, &r.lower(self.base_mont), self.exp))
    }
}

/// [`MontgomeryParams::mod_exp`] and
/// [`mod_exp_secret`](MontgomeryParams::mod_exp_secret) of a reduced base
/// as a job: into Montgomery form through `R² mod p`, and out through a
/// product with 1.
struct ModExp<'a> {
    base: &'a BigUint,
    r2: &'a BigUint,
    exp: &'a BigUint,
    /// For a secret exponent, the bit length its regular window covers.
    secret_bits: Option<usize>,
}

impl ResidueJob for ModExp<'_> {
    type Output = BigUint;

    fn run<R: ResidueOps>(self, r: &R) -> BigUint {
        let base = r.mont_mul(&r.lower(self.base), &r.lower(self.r2));
        let acc = match self.secret_bits {
            None => pow(r, &base, self.exp),
            Some(bits) => pow_secret(r, &base, self.exp, bits),
        };
        r.lift(&r.mont_mul(&acc, &r.lower(&BigUint::one())))
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
            // Five words: no stack context, so `run` takes the heap path.
            &BigUint::one().shl_bits(299) + &BigUint::from(0x9du64),
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
                let got = mont.from_mont(&mont.mont_mul(&am, &bm));
                assert_eq!(got, expected, "modulus {p:?}");
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

    /// A call a [`Logged`] backend records: its kind, never a value or an
    /// index.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Mul,
        Sqr,
        Select,
    }

    /// A stack context that logs each product, square and table read.
    struct Logged<const L: usize> {
        ctx: MontgomeryContext<L>,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    impl<const L: usize> ResidueOps for Logged<L> {
        type Elem = Uint<L>;

        fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
            self.calls.borrow_mut().push(Call::Mul);
            self.ctx.mont_mul(a, b)
        }

        fn mont_sqr(&self, a: &Uint<L>) -> Uint<L> {
            self.calls.borrow_mut().push(Call::Sqr);
            self.ctx.mont_sqr(a)
        }

        fn select(&self, table: &[Uint<L>], index: usize) -> Uint<L> {
            self.calls.borrow_mut().push(Call::Select);
            ResidueOps::select(&self.ctx, table, index)
        }

        fn add(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
            self.ctx.add(a, b)
        }

        fn sub(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
            self.ctx.sub(a, b)
        }

        fn neg(&self, a: &Uint<L>) -> Uint<L> {
            self.ctx.neg(a)
        }

        fn is_zero(&self, a: &Uint<L>) -> bool {
            a.is_zero()
        }

        fn one_mont(&self) -> Uint<L> {
            self.ctx.one_mont()
        }

        fn mont_inv_prime(&self, a: &Uint<L>) -> Option<Uint<L>> {
            self.ctx.mont_inv_prime(a)
        }

        fn lower(&self, v: &BigUint) -> Uint<L> {
            self.ctx.lower(v)
        }

        fn lift(&self, e: &Uint<L>) -> BigUint {
            self.ctx.lift(e)
        }

        fn lower_words(&self, words: &[u64]) -> Uint<L> {
            self.ctx.lower_words(words)
        }

        fn lift_words(&self, e: &Uint<L>, words: &mut [u64]) {
            self.ctx.lift_words(e, words)
        }
    }

    /// Runs `mod_exp_secret`'s job through a [`Logged`] context on a
    /// random `bits`-bit modulus for six exponents, and checks that each
    /// computes the power and logs the one sequence the modulus sets.
    fn check_regular_schedule<const L: usize>(bits: usize, rng: &mut rand::rngs::StdRng) {
        let n = BigUint::random_bits(rng, bits);
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let mont = MontgomeryParams::new(&n).unwrap();
        let logged = Logged {
            ctx: MontgomeryContext::<L>::new(&n).unwrap(),
            calls: Default::default(),
        };
        let digits = bits.div_ceil(5);
        // Into Montgomery form, the table, the top digit's entry, one group
        // per further digit and out of Montgomery form.
        let mut expected = vec![Call::Mul; 31];
        expected.push(Call::Select);
        for _ in 1..digits {
            expected.extend([Call::Sqr; 5]);
            expected.extend([Call::Select, Call::Mul]);
        }
        expected.push(Call::Mul);
        let base = BigUint::random_below(rng, &n);
        let exponents = [
            BigUint::zero(),
            BigUint::one(),
            &BigUint::one().shl_bits(bits) - &BigUint::one(),
            BigUint::random_bits(rng, 5 * (digits - 1)),
            BigUint::random_bits(rng, bits),
            BigUint::random_below(rng, &n),
        ];
        for exp in &exponents {
            let job = ModExp {
                base: &base,
                r2: &mont.r2,
                exp,
                secret_bits: Some(bits),
            };
            let power = job.run(&logged);
            assert_eq!(
                power,
                crate::modular::mod_exp(&base, exp, &n),
                "{bits} bits"
            );
            assert_eq!(logged.calls.take(), expected, "{bits} bits");
        }
    }

    #[test]
    fn secret_exponents_run_one_schedule_set_by_the_modulus() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        check_regular_schedule::<8>(512, &mut rng);
        check_regular_schedule::<16>(1024, &mut rng);
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
