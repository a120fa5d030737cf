//! The width rule.

/// The width rule: a modulus of `bits` bits runs on
/// [`MontgomeryContext<L>`](super::MontgomeryContext) with `L = ⌈bits/64⌉`
/// words, whose Montgomery radix is `R = 2^(64·L)`.
///
/// [`MontgomeryParams`](crate::MontgomeryParams) rounds its 32-bit limb
/// count up to `2·L`, so the heap and fixed backends share `R`, and with it
/// every Montgomery residue, at every width.
pub const fn montgomery_words(bits: usize) -> usize {
    bits.div_ceil(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BigUint, MontgomeryParams, ResidueJob, ResidueOps};

    /// An odd modulus of exactly `bits` bits (Montgomery products need no
    /// primality).
    fn odd(bits: usize) -> BigUint {
        &BigUint::one().shl_bits(bits - 1) + &BigUint::from(0x9du64)
    }

    #[test]
    fn the_width_rule_rounds_up_to_whole_words() {
        for (bits, words) in [
            (10, 1),
            (64, 1),
            (65, 2),
            (128, 2),
            (129, 3),
            (192, 3),
            (193, 4),
            (256, 4),
            (257, 5),
            (512, 8),
            (1024, 16),
        ] {
            assert_eq!(montgomery_words(bits), words, "{bits} bits");
            let mont = MontgomeryParams::new(&odd(bits)).expect("odd modulus");
            assert_eq!(mont.num_limbs(), 2 * words, "{bits} bits");
        }
    }

    /// `a·b`, `a + b`, `b − a` and `−a` of two plain residues, computed in
    /// Montgomery form on the backend `run` picks.
    struct Ring<'a>(&'a MontgomeryParams, &'a BigUint, &'a BigUint);

    impl ResidueJob for Ring<'_> {
        type Output = [BigUint; 4];

        fn run<R: ResidueOps>(self, r: &R) -> [BigUint; 4] {
            let Ring(mont, a, b) = self;
            let (a, b) = (r.lower(&mont.to_mont(a)), r.lower(&mont.to_mont(b)));
            [r.mont_mul(&a, &b), r.add(&a, &b), r.sub(&b, &a), r.neg(&a)]
                .map(|x| mont.from_mont(&r.lift(&x)))
        }
    }

    #[test]
    fn every_width_matches_plain_modular_arithmetic() {
        for bits in [10, 64, 100, 160, 170, 256, 300, 512, 1024] {
            let m = odd(bits);
            let mont = MontgomeryParams::new(&m).unwrap();
            let a = &m - &BigUint::from(3u64);
            let b = &(&m >> 1) + &BigUint::from(7u64);
            let expected = [
                &(&a * &b) % &m,
                &(&a + &b) % &m,
                &(&(&b + &m) - &a) % &m,
                &m - &a,
            ];
            assert_eq!(mont.run(Ring(&mont, &a, &b)), expected, "{bits} bits");
        }
    }

    /// Inverts 3 and 5 alone and as a batch, and rejects zero, on the
    /// backend `run` picks.
    struct Inversions<'a>(&'a MontgomeryParams);

    impl ResidueJob for Inversions<'_> {
        type Output = bool;

        fn run<R: ResidueOps>(self, r: &R) -> bool {
            let [three, five] = [3u64, 5].map(|v| r.lower(&self.0.to_mont(&BigUint::from(v))));
            let zero = r.lower_words(&[]);
            let inverses = [three.clone(), five.clone()].map(|v| r.mont_inv_prime(&v).unwrap());
            let mut batch = [three.clone(), five];
            let mut with_zero = [three.clone(), zero.clone()];
            r.mont_mul(&three, &inverses[0]) == r.one_mont()
                && r.invert_batch(&mut batch)
                && batch == inverses
                && r.mont_inv_prime(&zero).is_none()
                && !r.invert_batch(&mut with_zero)
                && with_zero == [three, zero]
        }
    }

    #[test]
    fn inversions_at_every_width() {
        // Primes of one to five and eight words: 1009, 2^64 − 59,
        // 2^127 − 1, the P-192 prime, the secp256k1 prime, 2^299 + 645 and
        // 2^512 − 569.
        let shifted = |bits, offset: u64, up| {
            let power = BigUint::one().shl_bits(bits);
            let offset = BigUint::from(offset);
            if up {
                &power + &offset
            } else {
                &power - &offset
            }
        };
        for p in [
            BigUint::from(1009u64),
            shifted(64, 59, false),
            shifted(127, 1, false),
            BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap(),
            shifted(256, 0x1_0000_03d1, false),
            shifted(299, 645, true),
            shifted(512, 569, false),
        ] {
            let mont = MontgomeryParams::new(&p).unwrap();
            assert!(mont.run(Inversions(&mont)), "{} bits", p.bit_len());
        }
    }
}
