//! Integration tests pinning the platform simulator against the host
//! implementations and against the qualitative claims of the evaluation.

use bignum::BigUint;
use ecc::Curve;
use field::Fp6Context;
use platform::{Coprocessor, CostModel, Hierarchy, OpKind, Platform, SequenceOp, SequencePricing};
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn table1_shape() {
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let mm170 = plat.montgomery_multiplication_report(170).cycles;
    let mm160 = plat.montgomery_multiplication_report(160).cycles;
    let mm1024 = plat.montgomery_multiplication_report(1024).cycles;
    let ma170 = plat.modular_addition_report(170).cycles;
    let ms170 = plat.modular_subtraction_report(170).cycles;

    assert!(mm160 < mm170);
    assert!(ma170 < mm170 && ms170 < mm170);
    let big_ratio = mm1024 as f64 / mm170 as f64;
    assert!(
        (10.0..40.0).contains(&big_ratio),
        "paper reports ≈23x, got {big_ratio:.1}x"
    );
    assert_eq!(plat.interrupt_cycles(), 184);
}

#[test]
fn table2_shape() {
    let a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
    let b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let pairs = [
        (
            a.composite_report(OpKind::Fp6Mul, 170),
            b.composite_report(OpKind::Fp6Mul, 170),
        ),
        (
            a.composite_report(OpKind::EccPaGeneral, 160),
            b.composite_report(OpKind::EccPaGeneral, 160),
        ),
        (
            a.composite_report(OpKind::EccPd, 160),
            b.composite_report(OpKind::EccPd, 160),
        ),
    ];
    for (ra, rb) in pairs {
        assert!(ra.cycles > rb.cycles, "Type-B must always win");
        assert_eq!(rb.interrupts, 1, "Type-B: one interrupt per composite op");
        assert_eq!(
            ra.interrupts,
            ra.modmuls + ra.modadds + ra.modsubs,
            "Type-A: one interrupt per modular op"
        );
    }
    // The T6 multiplication issues 18 MM + ~60 MA/MS, as in Section 2.2.2.
    let t6 = b.composite_report(OpKind::Fp6Mul, 170);
    assert_eq!(t6.modmuls, 18);
    assert!((55..=70).contains(&(t6.modadds + t6.modsubs)));
}

#[test]
fn table3_shape_full_drivers() {
    // Small exponents keep this fast while preserving the per-bit cost; the
    // full-size run lives in the bench harness.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    let params = ceilidh::CeilidhParams::toy().unwrap();
    let (_, base) = params.random_subgroup_element(&mut rng);
    let (_, torus) = plat.torus_exponentiation(&params, &base, &BigUint::from(0x2aaaau64));

    let curve = Curve::toy().unwrap();
    let point = curve.random_point(&mut rng);
    let (_, ecc) = plat.ecc_scalar_multiplication(&curve, &point, &BigUint::from(0x2aaaau64));

    // Per-bit cost comparison: the torus pays one Fp6 mult per bit plus one
    // per set bit; ECC pays one PD per bit plus one PA per set bit. With the
    // same exponent the torus is more expensive per bit, and RSA (1024-bit
    // operands) is more expensive still.
    assert!(torus.cycles > ecc.cycles);
    let (_, rsa) = plat.rsa_exponentiation(
        &(BigUint::one().shl_bits(1023) + BigUint::from(13u64)),
        &BigUint::from(3u64),
        &BigUint::from(0x2aaaau64),
    );
    assert!(rsa.cycles > torus.cycles);
}

/// The paper calibration, its conditional-correction MA/MS ablation and
/// the flat sequential baseline.
fn cost_models() -> [CostModel; 3] {
    [
        CostModel::paper(),
        CostModel::paper().with_dual_path(false),
        CostModel::paper_sequential(),
    ]
}

/// A random odd modulus with exactly `bits` bits.
fn odd_modulus(rng: &mut rand::rngs::StdRng, bits: usize) -> BigUint {
    let p = BigUint::random_bits(rng, bits);
    if p.is_odd() {
        p
    } else {
        &p + &BigUint::one()
    }
}

/// Operands for the shape properties: 0, 1, `p - 1` and two random
/// residues.
fn operands(rng: &mut rand::rngs::StdRng, p: &BigUint) -> [BigUint; 5] {
    [
        BigUint::zero(),
        BigUint::one(),
        p - &BigUint::one(),
        BigUint::random_below(rng, p),
        BigUint::random_below(rng, p),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A Montgomery product's cycles are its leaf-table entry, a function
    /// of the operand length alone: for every odd modulus, operand pair,
    /// core count and cost model, at the paper's widths and one random
    /// one. Its value is `x·y·R⁻¹ mod p` for the platform's
    /// `R = 2^{w·⌈n/w⌉}`.
    #[test]
    fn montgomery_cycles_depend_only_on_the_operand_length(seed in any::<u64>(), width in 8usize..420) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bits in [160, 170, 256, 1024, width] {
            let p = odd_modulus(&mut rng, bits);
            let xs = operands(&mut rng, &p);
            for cost in cost_models() {
                let r = BigUint::one().shl_bits(cost.word_bits * cost.limbs(bits)) % &p;
                let r_inv = bignum::mod_inv(&r, &p).unwrap();
                for cores in 1..=4 {
                    let cp = Coprocessor::new(cost, cores);
                    let cycles = cp.mont_mul_cycles(bits);
                    for x in &xs {
                        for y in &xs {
                            let got = cp.mont_mul(x, y, &p);
                            let want = bignum::mod_mul(&bignum::mod_mul(x, y, &p), &r_inv, &p);
                            prop_assert_eq!(got.cycles, cycles, "{} bits on {} cores under {:?}", bits, cores, cost);
                            prop_assert_eq!(got.value, want);
                        }
                    }
                }
            }
        }
    }
}

/// Every field of the Table 3 drivers' reports on seeded inputs, under
/// each cost model. Outside the dual-path adder an MA or MS pays its
/// correction block only when the data asks for it, so a wrong pick
/// between the corrected and the uncorrected price moves these counts.
#[test]
fn driver_reports_are_pinned_under_every_cost_model() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1919);
    let params = ceilidh::CeilidhParams::date2008().unwrap();
    let (_, base) = params.random_subgroup_element(&mut rng);
    let e = BigUint::random_bits(&mut rng, 32);
    let curve = Curve::p160_reproduction().unwrap();
    let point = curve.random_point(&mut rng);
    let k = BigUint::random_bits(&mut rng, 160);
    let n = odd_modulus(&mut rng, 1024);
    let m = BigUint::random_below(&mut rng, &n);
    let d = BigUint::random_bits(&mut rng, 64);
    let want_torus = params.pow(&base, &e);
    let want_point = curve.scalar_mul(&point, &k, ecc::ScalarMulAlgorithm::DoubleAndAdd);
    let want_rsa = bignum::mod_exp(&m, &d, &n);

    // Per driver: [cycles, MM, MA, MS, interrupts, overlapped cycles,
    // register accesses], taken from the register-level simulator.
    let pinned: [[[u64; 7]; 4]; 3] = [
        [
            [282384, 864, 960, 2112, 48, 27984, 48],
            [1508792, 2390, 1702, 1152, 5244, 0, 5244],
            [558976, 2390, 1702, 1152, 245, 32450, 245],
            [405768, 88, 0, 0, 88, 0, 88],
        ],
        [
            [393519, 864, 960, 2112, 48, 27984, 48],
            [1607040, 2390, 1702, 1152, 5244, 0, 5244],
            [657224, 2390, 1702, 1152, 245, 32450, 245],
            [405768, 88, 0, 0, 88, 0, 88],
        ],
        [
            [563982, 864, 960, 2112, 48, 0, 48],
            [2329888, 2966, 2020, 1483, 6469, 0, 6469],
            [1187122, 2966, 2020, 1483, 245, 0, 245],
            [462352, 88, 0, 0, 88, 0, 88],
        ],
    ];
    for (cost, want) in cost_models().into_iter().zip(pinned) {
        let a = Platform::new(cost, 4, Hierarchy::TypeA);
        let b = Platform::new(cost, 4, Hierarchy::TypeB);
        let (torus, torus_b) = b.torus_exponentiation(&params, &base, &e);
        let (point_a, ecc_a) = a.ecc_scalar_multiplication(&curve, &point, &k);
        let (point_b, ecc_b) = b.ecc_scalar_multiplication(&curve, &point, &k);
        let (rsa, rsa_report) = b.rsa_exponentiation(&n, &m, &d);
        assert_eq!(torus, want_torus);
        assert_eq!(point_a, want_point);
        assert_eq!(point_b, want_point);
        assert_eq!(rsa, want_rsa);
        let names = ["torus Type-B", "ECC Type-A", "ECC Type-B", "RSA"];
        let reports = [torus_b, ecc_a, ecc_b, rsa_report];
        for ((name, r), want) in names.into_iter().zip(reports).zip(want) {
            let got = [
                r.cycles,
                r.modmuls,
                r.modadds,
                r.modsubs,
                r.interrupts,
                r.overlapped_cycles,
                r.register_accesses,
            ];
            assert_eq!(got, want, "{name} under {cost:?}");
        }
    }
}

/// At every stack width, on both sides of it, and at the heap widths
/// between and beyond them, [`Platform::execute`] computes every step as
/// the reference arithmetic does and, under conditional correction, charges
/// each leaf what the register-level op pays on the same operands: an MA or
/// MS its corrected or add-back price exactly when the data asks for it. A
/// short [`Platform::rsa_exponentiation`] agrees with `bignum::mod_exp`.
#[test]
fn leaves_hold_on_both_sides_of_every_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51de);
    let cost = CostModel::paper().with_dual_path(false);
    let plat = Platform::new(cost, 4, Hierarchy::TypeA);
    let cp = plat.coprocessor();
    for bits in [
        64, 65, 128, 129, 192, 193, 256, 257, 320, 512, 513, 1024, 1025,
    ] {
        let p = odd_modulus(&mut rng, bits);
        let r = BigUint::one().shl_bits(cost.word_bits * cost.limbs(bits)) % &p;
        let r_inv = bignum::mod_inv(&r, &p).unwrap();
        let program = plat.compiled(OpKind::EccPaGeneral, bits);
        let copy_cycles = SequencePricing::new(cp, bits, Hierarchy::TypeA);
        let xs = operands(&mut rng, &p);
        let mut slots: Vec<BigUint> = (0..program.slot_budget())
            .map(|i| xs[i % xs.len()].clone())
            .collect();

        // Replay every step on the host, priced by its register-level op;
        // Type-A adds one interrupt per modular op and overlaps nothing.
        let mut want = slots.clone();
        let mut cycles = 0;
        for op in program.ops() {
            let [x, y] = op.sources().map(|s| &want[s]);
            let (value, step) = match op {
                SequenceOp::MontMul { .. } => (
                    bignum::mod_mul(&bignum::mod_mul(x, y, &p), &r_inv, &p),
                    cp.mont_mul(x, y, &p).cycles,
                ),
                SequenceOp::ModAdd { .. } => {
                    (bignum::mod_add(x, y, &p), cp.mod_add(x, y, &p).cycles)
                }
                SequenceOp::ModSub { .. } => {
                    (bignum::mod_sub(x, y, &p), cp.mod_sub(x, y, &p).cycles)
                }
                SequenceOp::Copy { .. } => (x.clone(), copy_cycles.op_cycles(op)),
            };
            cycles += step;
            if !op.is_copy() {
                cycles += plat.interrupt_cycles();
            }
            want[op.dest()] = value;
        }
        let report = plat.execute(&program, &p, &mut slots);
        assert_eq!(slots, want, "{bits} bits: values");
        assert_eq!(report.cycles, cycles, "{bits} bits: cycles");

        let m = BigUint::random_below(&mut rng, &p);
        let e = BigUint::random_bits(&mut rng, 20);
        let (got, _) = plat.rsa_exponentiation(&p, &m, &e);
        assert_eq!(got, bignum::mod_exp(&m, &e, &p), "{bits} bits: RSA");
    }
}

#[test]
fn fig5_multicore_scaling_shape() {
    let c1 = Coprocessor::new(CostModel::paper(), 1).mont_mul_cycles(256);
    let c2 = Coprocessor::new(CostModel::paper(), 2).mont_mul_cycles(256);
    let c4 = Coprocessor::new(CostModel::paper(), 4).mont_mul_cycles(256);
    assert!(c1 > c2 && c2 > c4);
    let speedup = c1 as f64 / c4 as f64;
    assert!(
        (1.8..4.0).contains(&speedup),
        "paper: 2.96x, got {speedup:.2}x"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulated coprocessor's Montgomery product satisfies the defining
    /// relation `result * R ≡ x * y (mod p)` for random reduced operands.
    #[test]
    fn simulated_montgomery_is_correct_for_random_operands(seed in any::<u64>(), cores in 1usize..6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = bignum::gen_prime(96, &mut rng);
        let x = BigUint::random_below(&mut rng, &p);
        let y = BigUint::random_below(&mut rng, &p);
        let cp = Coprocessor::new(CostModel::paper(), cores);
        let got = cp.mont_mul(&x, &y, &p);
        let s = cp.cost().limbs(p.bit_len());
        let r = BigUint::one().shl_bits(cp.cost().word_bits * s) % &p;
        prop_assert_eq!(&(&got.value * &r) % &p, &(&x * &y) % &p);
        prop_assert!(got.value < p);
    }

    /// The platform's Fp6 multiplication agrees with the host field tower
    /// for random operands over the toy field, loaded by name into the
    /// program's slots in the platform's Montgomery domain.
    #[test]
    fn simulated_fp6_multiplication_is_correct(coeffs_a in prop::array::uniform6(0u64..101), coeffs_b in prop::array::uniform6(0u64..101)) {
        let p = BigUint::from(101u64);
        let fp6 = Fp6Context::new(field::FpContext::new(&p).unwrap()).unwrap();
        let a = fp6.from_u64_coeffs(coeffs_a);
        let b = fp6.from_u64_coeffs(coeffs_b);
        let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let program = plat.compiled(OpKind::Fp6Mul, p.bit_len());
        let cost = plat.cost();
        let r = BigUint::one().shl_bits(cost.word_bits * cost.limbs(p.bit_len())) % &p;
        let r_inv = bignum::mod_inv(&r, &p).unwrap();
        let mut slots = vec![BigUint::zero(); program.slot_budget()];
        for (factor, x) in [("a", &a), ("b", &b)] {
            for (i, c) in x.coeffs().iter().enumerate() {
                let slot = program.operand(&format!("{factor}{i}")).unwrap();
                slots[slot] = bignum::mod_mul(&fp6.fp().to_biguint(c), &r, &p);
            }
        }
        plat.execute(&program, &p, &mut slots);
        let got: Vec<BigUint> = program
            .outputs()
            .iter()
            .map(|&o| bignum::mod_mul(&slots[o], &r_inv, &p))
            .collect();
        let want: Vec<BigUint> = fp6.mul(&a, &b).coeffs().iter().map(|c| fp6.fp().to_biguint(c)).collect();
        prop_assert_eq!(got, want);
    }
}
