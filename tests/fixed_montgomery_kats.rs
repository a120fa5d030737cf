//! Known-answer tests pinning `bignum::fixed::MontgomeryContext<L>` to the
//! heap `MontgomeryParams` backend at every width with callers — one word
//! (the toy field), two, three (the paper's 160- and 170-bit primes), four
//! (the standards 256-bit moduli), eight (an RSA-1024 CRT half) and sixteen
//! (an RSA-1024 modulus) — plus the published secp256k1/P-256 generator
//! multiples re-run through the public `Curve::scalar_mul`, which runs its
//! ladder on the field's four-word stack context, and through the heap
//! reference ladder.
//!
//! By the width rule both backends use the Montgomery radix
//! `R = 2^(64·L)` for an `n`-bit modulus, `L = ⌈n/64⌉` (`2L` × 32-bit heap
//! limbs, `L` × 64-bit fixed limbs), so everything — `n'`, `R`, `R²`,
//! Montgomery forms, products, powers — must agree *bit for bit*, not just
//! modulo `p`. `n'`, `R` and `R²` are additionally checked against
//! independently derived constants (extended-Euclid inverse, shifts), and
//! powers, public and secret, against plain square-and-multiply, so a
//! shared bug in the two backends, or a fast path checked against itself,
//! could not hide. The dedicated Montgomery square is pinned to the
//! product of an operand with itself at every width, on random residues
//! and on 0, 1, `R mod p` and `p − 1`.

use bignum::fixed::{montgomery_words, MontgomeryContext, Uint};
use bignum::{mod_exp, mod_inv, mod_mul, BigUint, MontgomeryParams};
use ceilidh::CeilidhParams;
use ecc::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The secp256k1 prime `2^256 - 2^32 - 977`.
const SECP256K1_P: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
/// The P-256 (secp256r1) prime `2^256 - 2^224 + 2^192 + 2^96 - 1`.
const P256_P: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";

fn hex(s: &str) -> BigUint {
    BigUint::from_hex(s).expect("valid hex test vector")
}

/// Both backends over the same modulus.
fn contexts(p_hex: &str) -> (MontgomeryContext<4>, MontgomeryParams) {
    let p = hex(p_hex);
    let fixed = MontgomeryContext::<4>::new(&p).expect("256-bit odd prime fits 4 limbs");
    let heap = MontgomeryParams::new(&p).expect("odd modulus");
    (fixed, heap)
}

#[test]
fn n_prime_matches_known_answers_and_heap_truncation() {
    // -p⁻¹ mod 2^64 for secp256k1, from an independent computation.
    let (fixed, heap) = contexts(SECP256K1_P);
    assert_eq!(fixed.n0_inv(), 0xd838_091d_d225_3531);
    // The heap backend computes n' mod 2^32; the fixed value must truncate
    // to it (same Hensel lift, twice the precision).
    assert_eq!(fixed.n0_inv() as u32, heap.n0_inv());

    // P-256's low limb is 2^64 - 1, i.e. p ≡ -1 (mod 2^64), so n' = 1.
    let (fixed, heap) = contexts(P256_P);
    assert_eq!(fixed.n0_inv(), 1);
    assert_eq!(fixed.n0_inv() as u32, heap.n0_inv());
}

#[test]
fn r_squared_matches_independent_computation() {
    for p_hex in [SECP256K1_P, P256_P] {
        let p = hex(p_hex);
        let (fixed, _) = contexts(p_hex);
        // R² = 2^512 mod p, derived here with nothing but shifts.
        let r2 = &BigUint::one().shl_bits(512) % &p;
        assert_eq!(fixed.r2().to_biguint(), r2, "R² mismatch on {p_hex}");
        // And R = 2^256 mod p is the Montgomery form of 1.
        let r = &BigUint::one().shl_bits(256) % &p;
        assert_eq!(fixed.one_mont().to_biguint(), r, "R mismatch on {p_hex}");
    }
}

#[test]
fn montgomery_forms_are_bit_identical_across_backends() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf17e_d256);
    for p_hex in [SECP256K1_P, P256_P] {
        let p = hex(p_hex);
        let (fixed, heap) = contexts(p_hex);
        assert_eq!(fixed.one_mont().to_biguint(), heap.to_mont(&BigUint::one()));
        for _ in 0..16 {
            let a = &BigUint::random_bits(&mut rng, 256) % &p;
            let b = &BigUint::random_bits(&mut rng, 256) % &p;
            let af = Uint::<4>::from_biguint(&a).unwrap();
            let bf = Uint::<4>::from_biguint(&b).unwrap();
            // Same residue representation after conversion...
            let am = fixed.to_mont(&af);
            let bm = fixed.to_mont(&bf);
            assert_eq!(am.to_biguint(), heap.to_mont(&a));
            // ...the same product residue (not merely the same value)...
            assert_eq!(
                fixed.mont_mul(&am, &bm).to_biguint(),
                heap.mont_mul(&heap.to_mont(&a), &heap.to_mont(&b))
            );
            // ...and the same way back out.
            assert_eq!(fixed.from_mont(&am).to_biguint(), a);
        }
    }
}

#[test]
fn known_products_match_on_the_secp256k1_modulus() {
    // A handful of fully pinned products: operand, operand, expected
    // (a · b mod p), recomputed through the Montgomery round-trip.
    let (fixed, _) = contexts(SECP256K1_P);
    let p = hex(SECP256K1_P);
    let cases = [
        (BigUint::from(2u64), BigUint::from(3u64)),
        (&p - &BigUint::one(), &p - &BigUint::one()), // (-1)² = 1
        (
            &p - &BigUint::from(977u64),
            BigUint::one().shl_bits(255) % &p,
        ),
    ];
    for (a, b) in cases {
        let expected = &(&a * &b) % &p;
        let am = fixed.to_mont(&Uint::from_biguint(&a).unwrap());
        let bm = fixed.to_mont(&Uint::from_biguint(&b).unwrap());
        let got = fixed.from_mont(&fixed.mont_mul(&am, &bm));
        assert_eq!(
            got.to_biguint(),
            expected,
            "{} * {}",
            a.to_hex(),
            b.to_hex()
        );
    }
    // (-1)² = 1 specifically must come back as the Montgomery form of 1.
    let minus_one = fixed.to_mont(&Uint::from_biguint(&(&p - &BigUint::one())).unwrap());
    assert_eq!(fixed.mont_mul(&minus_one, &minus_one), fixed.one_mont());
}

/// Checks `MontgomeryParams` against `MontgomeryContext<L>` bit for bit on
/// one odd modulus of `L` words.
fn check_width<const L: usize>(name: &str, p: &BigUint, rng: &mut StdRng) {
    let fixed = MontgomeryContext::<L>::new(p).expect("odd modulus of L words");
    let heap = MontgomeryParams::new(p).expect("odd modulus");
    assert_eq!(montgomery_words(p.bit_len()), L, "{name}: width rule");
    assert_eq!(heap.num_limbs(), 2 * L, "{name}: heap limbs rounded up");

    // n' = -p⁻¹ mod 2^64 from the extended-Euclid inverse; the heap value
    // is its truncation to 32 bits.
    let two64 = BigUint::one().shl_bits(64);
    let inv = mod_inv(&(p % &two64), &two64).expect("odd modulus");
    let n_prime = (&two64 - &inv).to_u64().expect("below 2^64");
    assert_eq!(fixed.n0_inv(), n_prime, "{name}: n'");
    assert_eq!(
        fixed.n0_inv() as u32,
        heap.n0_inv(),
        "{name}: n' truncation"
    );

    // R = 2^(64L) mod p and R² = 2^(128L) mod p, by shifts.
    let r = &BigUint::one().shl_bits(64 * L) % p;
    let r2 = &BigUint::one().shl_bits(128 * L) % p;
    assert_eq!(fixed.one_mont().to_biguint(), r, "{name}: fixed R");
    assert_eq!(heap.one_mont(), r, "{name}: heap R");
    assert_eq!(fixed.r2().to_biguint(), r2, "{name}: fixed R²");
    assert_eq!(heap.to_mont(&r), r2, "{name}: heap R² (the form of R)");

    for _ in 0..6 {
        let a = BigUint::random_below(rng, p);
        let b = BigUint::random_below(rng, p);
        let e = BigUint::random_below(rng, p);
        let am = fixed.to_mont(&Uint::from_biguint(&a).unwrap());
        let bm = fixed.to_mont(&Uint::from_biguint(&b).unwrap());
        // The same Montgomery form, a·R mod p...
        assert_eq!(am.to_biguint(), &(&a * &r) % p, "{name}: form");
        assert_eq!(am.to_biguint(), heap.to_mont(&a), "{name}: heap form");
        // ...the same product residue as the heap FIOS product...
        let product = fixed.mont_mul(&am, &bm);
        let heap_product = heap.mont_mul(&heap.to_mont(&a), &heap.to_mont(&b));
        assert_eq!(product.to_biguint(), heap_product, "{name}: product");
        assert_eq!(
            fixed.from_mont(&product).to_biguint(),
            mod_mul(&a, &b, p),
            "{name}: product value"
        );
        // ...and the same power as plain square-and-multiply.
        let power = mod_exp(&a, &e, p);
        let fixed_pow = fixed.mont_pow(&am, &Uint::from_biguint(&e).unwrap());
        assert_eq!(fixed_pow.to_biguint(), heap.to_mont(&power), "{name}: pow");
        assert_eq!(
            heap.mont_pow(&heap.to_mont(&a), &e),
            heap.to_mont(&power),
            "{name}: heap mont_pow"
        );
        assert_eq!(heap.mod_exp(&a, &e), power, "{name}: heap mod_exp");
        assert_eq!(heap.mod_exp_secret(&a, &e), power, "{name}: mod_exp_secret");
        assert_eq!(
            fixed.mont_sqr(&am),
            fixed.mont_mul(&am, &am),
            "{name}: square"
        );
    }

    // The dedicated square equals the product at the edges too: 0, 1,
    // R mod p (the form of 1) and p − 1. On a modulus whose top word is
    // all ones, the doubled cross products of p − 1 carry out of the top
    // word.
    let minus_one = Uint::from_biguint(&(p - &BigUint::one())).unwrap();
    for x in [Uint::ZERO, Uint::from_u64(1), fixed.one_mont(), minus_one] {
        assert_eq!(fixed.mont_sqr(&x), fixed.mont_mul(&x, &x), "{name}: {x:?}²");
    }
}

#[test]
fn one_and_two_words_match_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0001);
    check_width::<1>("toy 1009", &BigUint::from(1009u64), &mut rng);
    // The Mersenne prime 2^127 − 1.
    check_width::<2>(
        "2^127 - 1",
        &hex("7fffffffffffffffffffffffffffffff"),
        &mut rng,
    );
}

#[test]
fn the_paper_field_primes_match_bit_for_bit_on_three_words() {
    let mut rng = StdRng::seed_from_u64(0x0003);
    let p160 = Curve::p160_reproduction().unwrap();
    check_width::<3>("p160", p160.fp().modulus(), &mut rng);
    let torus = CeilidhParams::date2008().unwrap();
    check_width::<3>("ceilidh-170", torus.fp().modulus(), &mut rng);
}

#[test]
fn the_256_bit_primes_match_bit_for_bit_on_four_words() {
    let mut rng = StdRng::seed_from_u64(0x0004);
    check_width::<4>("secp256k1", &hex(SECP256K1_P), &mut rng);
    check_width::<4>("p256", &hex(P256_P), &mut rng);
}

#[test]
fn rsa_1024_widths_match_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0816);
    // 2^512 − 569, the largest prime below 2^512: a CRT half's width.
    let half = &BigUint::one().shl_bits(512) - &BigUint::from(569u64);
    check_width::<8>("2^512 - 569", &half, &mut rng);
    // 2^1024 − 105, odd: a modulus's width (no primality needed).
    let modulus = &BigUint::one().shl_bits(1024) - &BigUint::from(105u64);
    check_width::<16>("2^1024 - 105", &modulus, &mut rng);
}

#[test]
fn backend_presence_matches_field_width() {
    for name in ["secp256k1", "p256", "p160-reproduction", "toy-1009"] {
        let curve = Curve::by_name(name).unwrap();
        // Every one of these fields stores its residues as words, the heap
        // twin's too.
        assert!(curve.a().mont_repr().is_some(), "{name}: word residues");
        let twin = curve.heap_only();
        assert!(twin.fp().one().mont_repr().is_some(), "{name}: twin words");
    }
}

/// `k · G` through the public call, which runs double-and-add on the
/// field's stack context, checked against the heap reference ladder.
fn stack_mul_base(curve: &Curve, k: u64) -> AffinePoint {
    let k = BigUint::from(k);
    let algorithm = ScalarMulAlgorithm::DoubleAndAdd;
    let stack = curve.scalar_mul(curve.base_point(), &k, algorithm);
    let reference = curve.scalar_mul_reference(curve.base_point(), &k, algorithm);
    assert_eq!(stack, reference, "{}: {k:?}G", curve.name());
    stack
}

#[test]
fn fixed_ladder_reproduces_published_generator_multiples() {
    // The SEC 2 / FIPS 186-4 vectors `tests/named_curves.rs` pins under
    // every algorithm, here on the four-word stack context and on the heap
    // reference.
    let vectors = [
        (
            "secp256k1",
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
            "fff97bd5755eeea420453a14355235d382f6472f8568a18b2f057a1460297556",
        ),
        (
            "p256",
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
            "b01a172a76a4602c92d3242cb897dde3024c740debb215b4c6b0aae93c2291a9",
        ),
    ];
    for (name, x2, y2, x6) in vectors {
        let curve = Curve::by_name(name).unwrap();
        let g2 = stack_mul_base(&curve, 2);
        let (gx2, gy2) = g2.coordinates().expect("2G is finite");
        assert_eq!(*gx2, curve.fp().from_biguint(&hex(x2)), "{name}: x(2G)");
        assert_eq!(*gy2, curve.fp().from_biguint(&hex(y2)), "{name}: y(2G)");
        let g6 = stack_mul_base(&curve, 6);
        let (gx6, _) = g6.coordinates().expect("6G is finite");
        assert_eq!(*gx6, curve.fp().from_biguint(&hex(x6)), "{name}: x(6G)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The public ladder (which runs 256-bit double-and-add on the field's
    /// four-word stack context) agrees with the always-heap reference
    /// ladder on random full-width scalars, on both named 256-bit curves.
    #[test]
    fn dispatch_matches_reference_ladder(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for name in ["secp256k1", "p256"] {
            let curve = Curve::by_name(name).unwrap();
            let k = BigUint::random_bits(&mut rng, 256);
            let dispatched =
                curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            let reference =
                curve.scalar_mul_reference(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            prop_assert_eq!(dispatched, reference);
        }
    }
}
