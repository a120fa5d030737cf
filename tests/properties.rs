//! Property-based tests (proptest) on the core data structures and
//! invariants: multi-precision arithmetic, Montgomery reduction, the field
//! tower, torus compression and the RSA entry points on raw bytes.

use std::sync::OnceLock;

use bignum::{mod_exp, BigUint, MontgomeryParams};
use ceilidh::{compress, decompress, CeilidhParams};
use field::{Fp6Context, FpContext};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use rsa_torus::{unpad_encrypt, RsaError, RsaKeyPair};

/// Strategy: arbitrary big integers up to `max_bytes` bytes.
fn biguint(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u8>(), 0..=max_bytes)
        .prop_map(|bytes| BigUint::from_be_bytes(&bytes))
}

/// One 512-bit RSA key pair (64-byte modulus), generated once for every
/// case rather than per case.
fn rsa_keys() -> &'static RsaKeyPair {
    static KEYS: OnceLock<RsaKeyPair> = OnceLock::new();
    KEYS.get_or_init(|| RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(41)).expect("keygen"))
}

/// What `decrypt` must return for `bytes`, from the raw non-CRT private
/// operation: only a canonical encoding (exactly the modulus's byte
/// length, value below the modulus) gets as far as the padding check.
fn reference_decrypt(keys: &RsaKeyPair, bytes: &[u8]) -> Result<Vec<u8>, RsaError> {
    let len = keys.public().byte_len();
    if bytes.len() != len {
        return Err(RsaError::ValueOutOfRange);
    }
    let m = keys
        .raw_decrypt(&BigUint::from_be_bytes(bytes))?
        .to_be_bytes();
    unpad_encrypt(&[vec![0; len - m.len()], m].concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------- BigUint ring axioms ----------------------- //

    #[test]
    fn addition_is_commutative_and_associative(a in biguint(40), b in biguint(40), c in biguint(40)) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn multiplication_distributes_over_addition(a in biguint(32), b in biguint(32), c in biguint(32)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn subtraction_inverts_addition(a in biguint(40), b in biguint(40)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn division_recomposes(a in biguint(48), b in biguint(24)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shifts_are_multiplication_by_powers_of_two(a in biguint(32), k in 0usize..200) {
        prop_assert_eq!(a.shl_bits(k).shr_bits(k), a.clone());
        prop_assert_eq!(a.shl_bits(k), &a * &BigUint::one().shl_bits(k));
    }

    #[test]
    fn hex_and_decimal_roundtrip(a in biguint(32)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(a.to_string().parse::<BigUint>().unwrap(), a.clone());
        prop_assert_eq!(BigUint::from_be_bytes(&a.to_be_bytes()), a);
    }

    // --------------------- Montgomery multiplication --------------------- //

    #[test]
    fn montgomery_matches_plain_modular_multiplication(
        a in biguint(24),
        b in biguint(24),
        mut m in biguint(24),
    ) {
        m = &m + &BigUint::from(3u64);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        let a = &a % &m;
        let b = &b % &m;
        let mont = MontgomeryParams::new(&m).unwrap();
        let got = mont.from_mont(&mont.mont_mul(&mont.to_mont(&a), &mont.to_mont(&b)));
        prop_assert_eq!(got, &(&a * &b) % &m);
    }

    #[test]
    fn montgomery_exponentiation_matches_reference(
        base in biguint(16),
        exp in biguint(6),
        mut m in biguint(16),
    ) {
        m = &m + &BigUint::from(3u64);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        let mont = MontgomeryParams::new(&m).unwrap();
        prop_assert_eq!(mont.mod_exp(&base, &exp), mod_exp(&base, &exp, &m));
    }

    // --------------------------- Field tower ----------------------------- //

    #[test]
    fn fp6_field_axioms_hold(coeffs_a in prop::array::uniform6(0u64..101), coeffs_b in prop::array::uniform6(0u64..101)) {
        let fp = FpContext::new(&BigUint::from(101u64)).unwrap();
        let fp6 = Fp6Context::new(fp).unwrap();
        let a = fp6.from_u64_coeffs(coeffs_a);
        let b = fp6.from_u64_coeffs(coeffs_b);
        prop_assert_eq!(fp6.mul(&a, &b), fp6.mul(&b, &a));
        prop_assert_eq!(fp6.add(&a, &b), fp6.add(&b, &a));
        // Frobenius is multiplicative.
        prop_assert_eq!(
            fp6.frobenius(&fp6.mul(&a, &b), 1),
            fp6.mul(&fp6.frobenius(&a, 1), &fp6.frobenius(&b, 1))
        );
        // Non-zero elements invert.
        if !a.is_zero() {
            let inv = fp6.inv(&a).unwrap();
            prop_assert_eq!(fp6.mul(&a, &inv), fp6.one());
        }
    }

    // ------------------------- Torus invariants -------------------------- //

    #[test]
    fn torus_exponentiation_stays_in_torus_and_compresses(exponent in 1u64..10_000) {
        let params = CeilidhParams::toy().unwrap();
        let g = params.generator();
        let element = params.pow(&g, &BigUint::from(exponent));
        prop_assert!(params.is_torus_member(element.as_fp6()));
        if element != params.identity() {
            let c = compress(&params, &element).unwrap();
            prop_assert!(c.hint < 4);
            prop_assert_eq!(decompress(&params, &c).unwrap(), element);
        }
    }

    #[test]
    fn torus_inverse_is_conjugate(exponent in 1u64..10_000) {
        let params = CeilidhParams::toy().unwrap();
        let g = params.generator();
        let element = params.pow(&g, &BigUint::from(exponent));
        prop_assert_eq!(params.mul(&element, &params.invert(&element)), params.identity());
    }

    // ------------------- RSA entry points on raw bytes ------------------- //

    /// `decrypt` and `verify` on any byte string of 0 to 2·`byte_len`
    /// bytes, and on that string cut or zero-filled to exactly `byte_len`
    /// bytes, return an error or the correct result, and never panic.
    #[test]
    fn rsa_decrypt_and_verify_answer_any_bytes_correctly(
        bytes in prop::collection::vec(any::<u8>(), 0..=128),
        digest in prop::collection::vec(any::<u8>(), 0..=32),
    ) {
        let keys = rsa_keys();
        let mut exact = bytes.clone();
        exact.resize(keys.public().byte_len(), 0);
        let signature = keys.sign(&digest).unwrap();
        for input in [&bytes, &exact] {
            prop_assert_eq!(keys.decrypt(input), reference_decrypt(keys, input));
            match keys.public().verify(&digest, input) {
                Ok(()) => prop_assert_eq!(input, &signature),
                Err(e) => {
                    prop_assert_eq!(e, RsaError::VerificationFailed);
                    prop_assert_ne!(input, &signature);
                }
            }
        }
    }

    /// A valid ciphertext or signature behind leading zero bytes encodes
    /// the same integer, and is rejected.
    #[test]
    fn rsa_leading_zero_bytes_are_rejected(
        message in prop::collection::vec(any::<u8>(), 0..=32),
        zeros in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let keys = rsa_keys();
        let padded = |bytes: &[u8]| [vec![0; zeros], bytes.to_vec()].concat();
        let ct = keys.public().encrypt(&message, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(keys.decrypt(&ct), Ok(message.clone()));
        prop_assert_eq!(keys.decrypt(&padded(&ct)), Err(RsaError::ValueOutOfRange));
        let signature = keys.sign(&message).unwrap();
        prop_assert_eq!(keys.public().verify(&message, &signature), Ok(()));
        prop_assert_eq!(
            keys.public().verify(&message, &padded(&signature)),
            Err(RsaError::VerificationFailed)
        );
    }
}
