//! Known-answer tests for the named standards curves and trait-level
//! invariants over the whole registry.
//!
//! The secp256k1 and P-256 vectors are published generator multiples
//! (SEC 2 / FIPS 186-4 reference implementations agree on them), so a pass
//! here means the host ladders — Jacobian doubling (general on secp256k1,
//! shortened `a = -3` on P-256), mixed-coordinate addition, and both
//! scalar-multiplication algorithms — compute the real curves correctly
//! end-to-end, not just our own toy constructions.

use bignum::BigUint;
use ecc::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

fn hex(s: &str) -> BigUint {
    BigUint::from_hex(s).expect("valid hex test vector")
}

/// `k · G` on `curve` through the given algorithm.
fn mul_base(curve: &Curve, k: u64, algorithm: ScalarMulAlgorithm) -> AffinePoint {
    curve.scalar_mul(curve.base_point(), &BigUint::from(k), algorithm)
}

/// Asserts `k · G = (x, y)` under both ladder algorithms.
fn assert_generator_multiple(curve: &Curve, k: u64, x: &str, y: &str) {
    let expected = curve
        .lift(
            &curve.fp().from_biguint(&hex(x)),
            &curve.fp().from_biguint(&hex(y)),
        )
        .expect("published vector lies on the curve");
    for algorithm in [ScalarMulAlgorithm::DoubleAndAdd, ScalarMulAlgorithm::Naf] {
        assert_eq!(
            mul_base(curve, k, algorithm),
            expected,
            "{}: {k}G mismatch under {algorithm:?}",
            curve.name()
        );
    }
}

#[test]
fn secp256k1_generator_multiples_match_published_vectors() {
    let curve = Curve::from_parameters::<Secp256k1>().unwrap();
    assert!(!curve.a_is_minus_three(), "secp256k1 has a = 0");
    assert_generator_multiple(
        &curve,
        2,
        "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
        "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
    );
    // 6G exercises both doubling and mixed addition in one ladder run.
    let six_g = mul_base(&curve, 6, ScalarMulAlgorithm::DoubleAndAdd);
    let (x, _) = curve.compress_point(&six_g).unwrap();
    assert_eq!(
        x,
        hex("fff97bd5755eeea420453a14355235d382f6472f8568a18b2f057a1460297556")
    );
}

#[test]
fn p256_generator_multiples_match_published_vectors() {
    let curve = Curve::from_parameters::<P256>().unwrap();
    assert!(curve.a_is_minus_three(), "P-256 has a = -3");
    assert_generator_multiple(
        &curve,
        2,
        "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
        "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
    );
    let six_g = mul_base(&curve, 6, ScalarMulAlgorithm::Naf);
    let (x, _) = curve.compress_point(&six_g).unwrap();
    assert_eq!(
        x,
        hex("b01a172a76a4602c92d3242cb897dde3024c740debb215b4c6b0aae93c2291a9")
    );
}

#[test]
fn group_order_annihilates_the_generator_on_named_curves() {
    for name in ["secp256k1", "p256"] {
        let curve = Curve::by_name(name).unwrap();
        let n = curve.order().expect("standards curves publish n").clone();
        assert!(
            curve.scalar_mul_base(&n).is_infinity(),
            "{name}: n·G must be the identity"
        );
        // (n-1)·G = -G: one short of the order lands on the inverse.
        let n_minus_one = &n - &BigUint::one();
        assert_eq!(
            curve.scalar_mul_base(&n_minus_one),
            curve.negate(curve.base_point()),
            "{name}: (n-1)·G must equal -G"
        );
    }
}

#[test]
fn ecdh_shared_secret_matches_the_generator_multiple() {
    // d_A = 2, d_B = 3: both sides must land on x(6·G), which doubles as a
    // published-vector check of the whole key-exchange path.
    for (name, expected_x) in [
        (
            "secp256k1",
            "fff97bd5755eeea420453a14355235d382f6472f8568a18b2f057a1460297556",
        ),
        (
            "p256",
            "b01a172a76a4602c92d3242cb897dde3024c740debb215b4c6b0aae93c2291a9",
        ),
    ] {
        let curve = Curve::by_name(name).unwrap();
        let alice = EccKeyPair::from_scalar(&curve, BigUint::from(2u64));
        let bob = EccKeyPair::from_scalar(&curve, BigUint::from(3u64));
        let k_a = curve.shared_secret(alice.secret(), bob.public()).unwrap();
        let k_b = curve.shared_secret(bob.secret(), alice.public()).unwrap();
        assert_eq!(k_a, k_b, "{name}: the two sides must agree");
        assert_eq!(k_a, hex(expected_x), "{name}: shared secret is x(6G)");
    }
}

#[test]
fn trait_invariants_hold_for_every_registered_curve() {
    for name in Curve::registered_names() {
        let curve = Curve::by_name(name).unwrap();
        assert_eq!(curve.name(), *name);
        // The generator is a valid finite point.
        assert!(curve.is_on_curve(curve.base_point()), "{name}");
        assert!(!curve.base_point().is_infinity(), "{name}");
        // The declared order (when known) annihilates the generator.
        if let Some(n) = curve.order() {
            assert!(
                curve.scalar_mul_base(n).is_infinity(),
                "{name}: declared order must annihilate the generator"
            );
        }
        // Random key agreement works on every curve in the catalogue.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let alice = EccKeyPair::generate(&curve, &mut rng);
        let bob = EccKeyPair::generate(&curve, &mut rng);
        assert_eq!(
            curve.shared_secret(alice.secret(), bob.public()).unwrap(),
            curve.shared_secret(bob.secret(), alice.public()).unwrap(),
            "{name}"
        );
    }
}

/// The constants the original constructors hardwired, typed in again and
/// built through [`CurveSpec`], so a drift in the registered parameters
/// cannot hide behind the trait path.
fn legacy_curve(name: &str) -> Curve {
    match name {
        "p160-reproduction" => {
            let p = hex("ffffffffffffffffffffffffffffffff7fffffff");
            let a = &p - &BigUint::from(3u64);
            CurveSpec::new(
                p,
                a,
                BigUint::from(7u64),
                BigUint::from(2u64),
                hex("ffffffffffffffffffffffffffffffff7ffffffc"),
            )
            .name("p160-reproduction")
            .build()
            .unwrap()
        }
        "toy-1009" => CurveSpec::new(
            BigUint::from(1009u64),
            BigUint::from(1u64),
            BigUint::from(6u64),
            BigUint::from(1u64),
            BigUint::from(878u64),
        )
        .order(BigUint::from(1020u64))
        .name("toy-1009")
        .build()
        .unwrap(),
        other => panic!("no legacy constants for {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `from_parameters::<P160Reproduction>()` is the same group as the
    /// legacy constants: same generator, and the same ladder
    /// output on random scalars.
    #[test]
    fn p160_trait_path_matches_legacy_constructor(seed in 0u64..1_000_000) {
        let trait_curve = Curve::from_parameters::<P160Reproduction>().unwrap();
        let legacy = legacy_curve("p160-reproduction");
        prop_assert_eq!(trait_curve.base_point(), legacy.base_point());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = BigUint::random_bits(&mut rng, 160);
        prop_assert_eq!(trait_curve.scalar_mul_base(&k), legacy.scalar_mul_base(&k));
    }

    /// Same equivalence for the toy curve, including the declared order.
    #[test]
    fn toy_trait_path_matches_legacy_constructor(seed in 0u64..1_000_000) {
        let trait_curve = Curve::from_parameters::<Toy>().unwrap();
        let legacy = legacy_curve("toy-1009");
        prop_assert_eq!(trait_curve.base_point(), legacy.base_point());
        prop_assert_eq!(trait_curve.order(), legacy.order());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = BigUint::random_bits(&mut rng, 16);
        prop_assert_eq!(trait_curve.scalar_mul_base(&k), legacy.scalar_mul_base(&k));
    }
}
