//! Primality testing and prime generation.
//!
//! CEILIDH parameter generation needs primes `p ≡ 2 or 5 (mod 9)` of about
//! 170 bits together with a large prime factor of `Φ6(p) = p² - p + 1`;
//! RSA key generation needs two ~512-bit primes. Both are served by the
//! Miller–Rabin based routines in this module.

use rand::Rng;

use crate::modular::mod_mul;
use crate::montgomery::MontgomeryParams;
use crate::uint::BigUint;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Runs `rounds` iterations of the Miller–Rabin probabilistic primality test.
///
/// Returns `false` if `n` is certainly composite and `true` if it is
/// probably prime (error probability at most 4^-rounds for random bases).
pub fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if *n < BigUint::from(2u64) {
        return false;
    }
    if n.is_even() {
        return *n == BigUint::from(2u64);
    }
    let one = BigUint::one();
    let two = BigUint::from(2u64);
    let n_minus_one = n - &one;
    let s = n_minus_one.trailing_zeros();
    let d = n_minus_one.shr_bits(s);
    // Montgomery exponentiation keeps the witness loop division-free; the
    // modulus is odd at this point so the parameters always exist.
    let mont = MontgomeryParams::new(n).expect("odd modulus > 1");

    'witness: for _ in 0..rounds {
        // Pick a random base in [2, n-2]. For tiny n fall back to base 2.
        let a = if *n <= BigUint::from(5u64) {
            two.clone()
        } else {
            let span = n - &BigUint::from(3u64);
            &BigUint::random_below(rng, &span) + &two
        };
        let mut x = mont.mod_exp(&a, &d);
        if x.is_one() || x == n_minus_one {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            x = mod_mul(&x, &x, n);
            if x == n_minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Combined trial-division + Miller–Rabin primality test (25 rounds).
///
/// ```
/// use bignum::{is_prime, BigUint};
/// let mut rng = rand::thread_rng();
/// assert!(is_prime(&BigUint::from(1000000007u64), &mut rng));
/// assert!(!is_prime(&BigUint::from(1000000008u64), &mut rng));
/// ```
pub fn is_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    for &sp in &SMALL_PRIMES {
        let spb = BigUint::from(sp);
        if *n == spb {
            return true;
        }
        if (n % &spb).is_zero() {
            return false;
        }
    }
    miller_rabin(n, 25, rng)
}

/// Generates a random prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate = &candidate + &BigUint::one();
            if candidate.bit_len() != bits {
                continue;
            }
        }
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates a random prime with exactly `bits` bits congruent to
/// `residue` modulo `modulus`.
///
/// This is used to find the CEILIDH field prime `p ≡ 2 or 5 (mod 9)`.
///
/// # Panics
///
/// Panics if `bits < 2`, if `modulus` is zero, or if `residue >= modulus`.
pub fn gen_prime_congruent<R: Rng + ?Sized>(
    bits: usize,
    residue: u32,
    modulus: u32,
    rng: &mut R,
) -> BigUint {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    assert!(modulus > 0, "modulus must be positive");
    assert!(residue < modulus, "residue must be reduced");
    let m = BigUint::from(modulus);
    let r = BigUint::from(residue);
    loop {
        let candidate = BigUint::random_bits(rng, bits);
        // Adjust to the requested residue class.
        let cur = &candidate % &m;
        let adjusted = if cur <= r {
            &candidate + &(&r - &cur)
        } else {
            &(&candidate - &cur) + &r
        };
        if adjusted.bit_len() != bits {
            continue;
        }
        if is_prime(&adjusted, rng) {
            return adjusted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn small_numbers_classified_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 251, 257, 65537, 1_000_000_007];
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 255, 65535, 1_000_000_005];
        for p in primes {
            assert!(is_prime(&BigUint::from(p), &mut rng), "{p} should be prime");
        }
        for c in composites {
            assert!(
                !is_prime(&BigUint::from(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(
                !is_prime(&BigUint::from(c), &mut rng),
                "{c} is a Carmichael number"
            );
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(is_prime(&p, &mut rng));
        }
    }

    #[test]
    fn congruent_prime_has_requested_residue() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for residue in [2u32, 5] {
            let p = gen_prime_congruent(48, residue, 9, &mut rng);
            assert_eq!((&p % &BigUint::from(9u64)).to_u64(), Some(residue as u64));
            assert_eq!(p.bit_len(), 48);
            assert!(is_prime(&p, &mut rng));
        }
    }

    #[test]
    fn miller_rabin_handles_even_and_tiny() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        assert!(!miller_rabin(&BigUint::zero(), 5, &mut rng));
        assert!(!miller_rabin(&BigUint::one(), 5, &mut rng));
        assert!(miller_rabin(&BigUint::from(2u64), 5, &mut rng));
        assert!(miller_rabin(&BigUint::from(3u64), 5, &mut rng));
        assert!(!miller_rabin(&BigUint::from(4u64), 5, &mut rng));
        assert!(miller_rabin(&BigUint::from(5u64), 5, &mut rng));
    }
}
