//! Property-based tests for the mixed-coordinate ECC point addition (the
//! fourth layer of the cost model, `CostModel::mixed_coordinate_pa`):
//!
//! * **functional equality** — the mixed formulas (`Z2 = 1`) and the
//!   general Jacobian addition produce the *same point* whenever the
//!   addend is affine, across random curves, points and scalars, both in
//!   the host `ecc` crate and through the simulated platform sequences;
//! * **never slower** — the 13-MM mixed sequence costs at most the 16-MM
//!   general sequence at every operand length, under both hierarchies and
//!   both schedules;
//! * **ladder invariant** — every addend a ladder feeds to the mixed
//!   addition is in normalized (`Z = 1`) form: the base point and its
//!   negation trivially, and the windowed ladder's precomputed table by
//!   its one-time normalization.

use bignum::BigUint;
use ecc::{AffinePoint, Curve, CurveSpec, ScalarMulAlgorithm};
use field::FpContext;
use platform::{CostModel, Hierarchy, OpKind, Platform};
use proptest::prelude::*;

/// Builds a random short-Weierstrass curve over the toy prime 1009 from a
/// seed: coefficients are derived from the seed and the base point is found
/// by scanning x-coordinates. Returns `None` when the derived curve is
/// singular or has no point in the scanned range (the caller `prop_assume`s
/// those seeds away).
fn random_toy_curve(seed: u64) -> Option<Curve> {
    let p = BigUint::from(1009u64);
    let fp = FpContext::new(&p).ok()?;
    let a = BigUint::from(seed % 1009);
    let b = BigUint::from((seed / 1009) % 1009);
    let (ax, bx) = (fp.from_biguint(&a), fp.from_biguint(&b));
    for xi in 0..64u64 {
        let x = fp.from_u64(xi);
        let rhs = fp.add(&fp.add(&fp.mul(&x, &fp.square(&x)), &fp.mul(&ax, &x)), &bx);
        let y = if rhs.is_zero() {
            fp.zero()
        } else {
            match fp.sqrt(&rhs) {
                Some(y) => y,
                None => continue,
            }
        };
        return CurveSpec::new(p, a, b, BigUint::from(xi), fp.to_biguint(&y))
            .name("prop-toy")
            .build()
            .ok();
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Mixed and general addition agree on every `Z2 = 1` input: for
    /// random curves and scalars, adding `k·P` (accumulated, arbitrary Z)
    /// and `m·P` (affine) through both paths lands on the same point.
    #[test]
    fn mixed_equals_general_on_affine_addends(seed in 0u64..1_000_000, k in 1u64..500, m in 1u64..500) {
        let curve = random_toy_curve(seed);
        prop_assume!(curve.is_some());
        let curve = curve.unwrap();
        let base = curve.base_point().clone();
        // An accumulator with a generic (non-one) Z coordinate.
        let acc = curve.jacobian_double(&curve.jacobian_add_mixed(
            &curve.to_jacobian(&curve.scalar_mul(&base, &BigUint::from(k), ScalarMulAlgorithm::DoubleAndAdd)),
            &base,
        ));
        let addend = curve.scalar_mul(&base, &BigUint::from(m), ScalarMulAlgorithm::DoubleAndAdd);
        let mixed = curve.jacobian_add_mixed(&acc, &addend);
        let general = curve.jacobian_add(&acc, &curve.to_jacobian(&addend));
        prop_assert_eq!(curve.to_affine(&mixed), curve.to_affine(&general));
    }

    /// (a, ladder level) All three ladder algorithms — every addition now
    /// mixed — still agree with each other and with first principles.
    #[test]
    fn mixed_ladders_agree_across_algorithms(seed in 0u64..1_000_000, k in 0u64..100_000) {
        let curve = random_toy_curve(seed);
        prop_assume!(curve.is_some());
        let curve = curve.unwrap();
        let p = curve.base_point().clone();
        let k = BigUint::from(k);
        let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
        prop_assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf), reference.clone());
        prop_assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Window4), reference.clone());
        prop_assert!(curve.is_on_curve(&reference));
    }

    /// (b) The mixed sequence never costs more than the general one: at
    /// every operand length, under both hierarchies, both schedules and
    /// with the dual-path layer on or off. (The saving is exactly the
    /// three eliminated Montgomery products minus the two extra
    /// modular additions' worth of schedule interaction, so strict
    /// inequality must hold everywhere.)
    #[test]
    fn mixed_pa_cycles_bounded_by_general(bits in 8usize..420) {
        for cost in [
            CostModel::paper(),
            CostModel::paper().with_dual_path(false),
            CostModel::paper_sequential(),
        ] {
            for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
                let plat = Platform::new(cost, 4, hierarchy);
                let mixed = plat.composite_report(OpKind::EccPaMixed, bits);
                let general = plat.composite_report(OpKind::EccPaGeneral, bits);
                prop_assert!(
                    mixed.cycles < general.cycles,
                    "mixed {} !< general {} at {} bits ({:?})",
                    mixed.cycles,
                    general.cycles,
                    bits,
                    hierarchy
                );
                prop_assert_eq!(mixed.modmuls, 13);
                prop_assert_eq!(general.modmuls, 16);
            }
        }
    }

    /// (c) The windowed ladder's one-time normalization holds: every table
    /// entry the main loop may feed to the mixed addition is in `Z = 1`
    /// form and is the correct multiple of the base point.
    #[test]
    fn window_table_addends_are_normalized_multiples(seed in 0u64..1_000_000, window in 2usize..5) {
        let curve = random_toy_curve(seed);
        prop_assume!(curve.is_some());
        let curve = curve.unwrap();
        let p = curve.base_point().clone();
        let table = curve.affine_window_table(&p, window);
        prop_assert_eq!(table.len(), 1 << window);
        for (i, entry) in table.iter().enumerate() {
            let expected = curve.scalar_mul(&p, &BigUint::from(i as u64), ScalarMulAlgorithm::DoubleAndAdd);
            prop_assert_eq!(entry.clone(), expected);
            // Affine entries lift to normalized Jacobian form — the mixed
            // sequence's precondition — except the identity, which the
            // main loop skips (digit 0 adds nothing).
            if !entry.is_infinity() {
                prop_assert!(curve.to_jacobian(entry).is_normalized(curve.fp()));
            }
        }
    }

    /// (a, platform level) The simulated ladder computes the same multiple
    /// through the mixed sequence as through the general one, on random
    /// 160-bit points and scalars (every addition but the first meets a
    /// generic-Z accumulator).
    #[test]
    fn platform_mixed_sequence_matches_general(seed in 0u64..1_000) {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let mixed = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let general = Platform::new(CostModel::paper().with_mixed_pa(false), 4, Hierarchy::TypeB);
        let p = curve.random_point(&mut rng);
        let k = BigUint::random_bits(&mut rng, 16);
        let (via_mixed, _) = mixed.ecc_scalar_multiplication(&curve, &p, &k);
        let (via_general, _) = general.ecc_scalar_multiplication(&curve, &p, &k);
        prop_assert_eq!(via_mixed, via_general);
    }
}

#[test]
fn mixed_pa_reproduces_table2_within_tolerance() {
    // The headline the tentpole exists for: both Table 2 ECC PA rows land
    // within ±5% of the paper when priced through the mixed sequence.
    let paper_type_a = 7185.0;
    let paper_type_b = 2888.0;
    let a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA)
        .composite_report(OpKind::EccPaMixed, 160)
        .cycles as f64;
    let b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB)
        .composite_report(OpKind::EccPaMixed, 160)
        .cycles as f64;
    let delta_a = 100.0 * (a - paper_type_a) / paper_type_a;
    let delta_b = 100.0 * (b - paper_type_b) / paper_type_b;
    assert!(delta_a.abs() <= 5.0, "Type-A mixed PA off by {delta_a:.1}%");
    assert!(delta_b.abs() <= 5.0, "Type-B mixed PA off by {delta_b:.1}%");
}

#[test]
fn degenerate_mixed_additions_are_handled() {
    // Infinity accumulator, doubling case and inverse case all route
    // through the host formulas' guards rather than the straight-line
    // sequence.
    let curve = Curve::toy().unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let p = curve.random_point(&mut rng);
    let inf = curve.to_jacobian(&AffinePoint::Infinity);
    assert_eq!(curve.to_affine(&curve.jacobian_add_mixed(&inf, &p)), p);
    assert!(curve
        .jacobian_add_mixed(&curve.to_jacobian(&p), &AffinePoint::Infinity)
        .is_normalized(curve.fp()));
    let doubled = curve.jacobian_add_mixed(&curve.to_jacobian(&p), &p);
    assert_eq!(curve.to_affine(&doubled), curve.double(&p));
    let cancelled = curve.jacobian_add_mixed(&curve.to_jacobian(&p), &curve.negate(&p));
    assert!(cancelled.is_infinity());
}
