//! Properties of the speculative dual-path MA/MS model (the third layer of
//! the cost model, `CostModel::dual_path_addsub`):
//!
//! * **never worse than the correction it replaces** — dual-path cycles
//!   are bounded by the conditional-correction model whenever the
//!   correction actually runs, at every operand length;
//! * **constant time** — the dual-path cycle count is independent of the
//!   operand values (the correction branch is gone), while the
//!   conditional-correction model visibly is not;
//! * **select-cycle accounting** — the 1-cycle select and the two compute
//!   pipes are priced exactly as the scoreboard promises;
//! * **layer isolation** — the knob changes MA/MS only: Montgomery
//!   multiplication and the sequential baseline are bit-identical with it
//!   on or off, and every layer computes the same numeric results;
//! * **one price per shape** — under every model an MA or MS costs its
//!   leaf-table entry for its operand length and correction path,
//!   whatever the modulus and operands.

use bignum::BigUint;
use platform::isa::{MicroOp, Program};
use platform::schedule::schedule_program;
use platform::{sample_modulus, Coprocessor, CostModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dual-path MA/MS never lose to the conditional-correction model when
    /// the correction runs, at every operand length: speculation hides the
    /// correction entirely instead of serialising it behind the primary
    /// pass.
    #[test]
    fn dual_path_bounded_by_conditional_correction(bits in 8usize..420) {
        let dual = Coprocessor::new(CostModel::paper(), 4);
        let cond = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
        prop_assert!(dual.mod_add_worst_cycles(bits) <= cond.mod_add_worst_cycles(bits));
        prop_assert!(dual.mod_sub_worst_cycles(bits) <= cond.mod_sub_worst_cycles(bits));
    }

    /// The dual-path cycle count is a function of the operand length only:
    /// whether the select commits the primary or the speculative path is
    /// invisible in time. The conditional-correction model leaks the
    /// branch through its cycle count — that contrast is the whole point.
    #[test]
    fn dual_path_is_constant_time(bits in 8usize..300, seed in 0u64..1_000) {
        let dual = Coprocessor::new(CostModel::paper(), 4);
        let cond = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
        let p = sample_modulus(bits);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = BigUint::random_below(&mut rng, &p);
        let y = BigUint::random_below(&mut rng, &p);
        let hi = &p - &BigUint::from(1u64);
        let lo = BigUint::from(1u64);

        // Random operands, corrected and uncorrected extremes: one cycle
        // count for all of them.
        let ma = dual.mod_add(&lo, &lo, &p).cycles;
        prop_assert_eq!(dual.mod_add(&x, &y, &p).cycles, ma);
        prop_assert_eq!(dual.mod_add(&hi, &hi, &p).cycles, ma);
        let ms = dual.mod_sub(&hi, &lo, &p).cycles;
        prop_assert_eq!(dual.mod_sub(&x, &y, &p).cycles, ms);
        prop_assert_eq!(dual.mod_sub(&lo, &hi, &p).cycles, ms);
        // The two dual-path programs are structurally symmetric; the only
        // divergence is a 1-cycle boundary effect of the trailing
        // writeback at two-word operands.
        prop_assert!(ma.abs_diff(ms) <= 1, "MA {ma} vs MS {ms}");

        // The conditional model charges the taken correction.
        prop_assert!(
            cond.mod_add(&hi, &hi, &p).cycles > cond.mod_add(&lo, &lo, &p).cycles,
            "conditional MA must leak the correction branch"
        );
        prop_assert!(
            cond.mod_sub(&lo, &hi, &p).cycles > cond.mod_sub(&hi, &lo, &p).cycles,
            "conditional MS must leak the add-back branch"
        );
    }

    /// Every layer computes the same numeric results — the knob moves
    /// cycles, never values.
    #[test]
    fn all_layers_agree_functionally(bits in 8usize..300, seed in 0u64..1_000) {
        let p = sample_modulus(bits);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let x = BigUint::random_below(&mut rng, &p);
        let y = BigUint::random_below(&mut rng, &p);
        let want_add = bignum::mod_add(&x, &y, &p);
        let want_sub = bignum::mod_sub(&x, &y, &p);
        for cost in [
            CostModel::paper(),
            CostModel::paper().with_dual_path(false),
            CostModel::paper_sequential(),
        ] {
            let cp = Coprocessor::new(cost, 4);
            prop_assert_eq!(&cp.mod_add(&x, &y, &p).value, &want_add);
            prop_assert_eq!(&cp.mod_sub(&x, &y, &p).value, &want_sub);
        }
    }

    /// The knob is scoped to MA/MS: Montgomery multiplication prices
    /// identically with the dual-path adder on or off, and the sequential
    /// baseline ignores the knob entirely.
    #[test]
    fn dual_path_knob_is_isolated(bits in 8usize..420) {
        let on = Coprocessor::new(CostModel::paper(), 4);
        let off = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
        prop_assert_eq!(on.mont_mul_cycles(bits), off.mont_mul_cycles(bits));
        let seq = Coprocessor::new(CostModel::paper_sequential(), 4);
        let seq_knob = Coprocessor::new(CostModel::paper_sequential().with_dual_path(true), 4);
        prop_assert_eq!(seq.mod_add_cycles(bits), seq_knob.mod_add_cycles(bits));
        prop_assert_eq!(seq.mod_sub_cycles(bits), seq_knob.mod_sub_cycles(bits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An MA or MS costs the leaf-table entry of its operand length and
    /// correction path — the `*_cycles` probe of that path — for every
    /// odd modulus, operand pair, core count and cost model, at the
    /// paper's widths and one random one; its value is the host's.
    #[test]
    fn add_sub_cycles_depend_only_on_length_and_path(seed in any::<u64>(), width in 8usize..420) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        for bits in [160, 170, 256, 1024, width] {
            let mut p = BigUint::random_bits(&mut rng, bits);
            if !p.is_odd() {
                p = &p + &BigUint::one();
            }
            let xs = [
                BigUint::zero(),
                BigUint::one(),
                &p - &BigUint::one(),
                BigUint::random_below(&mut rng, &p),
                BigUint::random_below(&mut rng, &p),
            ];
            for cost in [
                CostModel::paper(),
                CostModel::paper().with_dual_path(false),
                CostModel::paper_sequential(),
            ] {
                for cores in 1..=4 {
                    let cp = Coprocessor::new(cost, cores);
                    let ma = [cp.mod_add_cycles(bits), cp.mod_add_worst_cycles(bits)];
                    let ms = [cp.mod_sub_cycles(bits), cp.mod_sub_worst_cycles(bits)];
                    for x in &xs {
                        for y in &xs {
                            let corrected = x + y >= p;
                            let add = cp.mod_add(x, y, &p);
                            prop_assert_eq!(add.cycles, ma[corrected as usize], "MA at {} bits under {:?}", bits, cost);
                            prop_assert_eq!(add.value, bignum::mod_add(x, y, &p));
                            let sub = cp.mod_sub(x, y, &p);
                            prop_assert_eq!(sub.cycles, ms[(x < y) as usize], "MS at {} bits under {:?}", bits, cost);
                            prop_assert_eq!(sub.value, bignum::mod_sub(x, y, &p));
                        }
                    }
                }
            }
        }
    }
}

/// One speculative word-step per pipe: `AddC` (carry chain, primary pipe)
/// and `SubB` (borrow chain, speculative pipe) issue in the same cycle
/// once their operands are ready, which a single compute pipe cannot do.
#[test]
fn both_pipes_issue_in_parallel() {
    // Two independent chains with no shared registers.
    let mut p = Program::new();
    for i in 0..4u8 {
        p.push(MicroOp::AddC { dst: i, a: 8, b: 9 });
        p.push(MicroOp::SubB {
            dst: 4 + i,
            a: 10,
            b: 11,
        });
    }
    let dual = schedule_program(&p, &CostModel::paper());
    let single = schedule_program(&p, &CostModel::paper().with_dual_path(false));
    let c = CostModel::paper();
    // One pipe: 8 ALU issue slots. Two pipes: the chains interleave, 4
    // slots per pipe.
    assert_eq!(single.cycles, 8 * c.alu_cycles);
    assert_eq!(dual.cycles, 4 * c.alu_cycles);
}

/// The select costs exactly one cycle on top of the resolved paths.
#[test]
fn select_adds_exactly_one_cycle() {
    let c = CostModel::paper();
    let mut without = Program::new();
    without.push(MicroOp::LoadImm { dst: 0, imm: 1 });
    without.push(MicroOp::AddC { dst: 2, a: 0, b: 0 });
    without.push(MicroOp::SubB { dst: 3, a: 2, b: 0 });
    let mut with = without.clone();
    with.push(MicroOp::Select { dst: 4, a: 2, b: 3 });
    let base = schedule_program(&without, &c).cycles;
    let selected = schedule_program(&with, &c).cycles;
    assert_eq!(
        selected,
        base + c.alu_cycles,
        "the select mux is a 1-cycle commit"
    );
}

/// The serial chains themselves are respected on both pipes: a carry chain
/// cannot issue faster than one word per cycle even with the second pipe
/// open, and the same holds for the borrow chain.
#[test]
fn chains_stay_serial_on_their_pipes() {
    let c = CostModel::paper();
    for make in [
        (|i: u8| MicroOp::AddC {
            dst: i,
            a: 12,
            b: 13,
        }) as fn(u8) -> MicroOp,
        (|i: u8| MicroOp::SubB {
            dst: i,
            a: 12,
            b: 13,
        }) as fn(u8) -> MicroOp,
    ] {
        let mut p = Program::new();
        for i in 0..6u8 {
            p.push(make(i));
        }
        let s = schedule_program(&p, &c);
        assert_eq!(s.critical_path, 6 * c.alu_cycles, "chain is serial");
        assert!(s.cycles >= 6 * c.alu_cycles);
    }
}

/// The dual-path MA microcode is port-bound: three memory accesses per
/// word (two operand loads, one writeback), with a short prologue and the
/// select/dispatch tail — not compute-bound like the single-pipe schedule.
#[test]
fn dual_path_ma_is_port_bound() {
    let cp = Coprocessor::new(CostModel::paper(), 4);
    let c = CostModel::paper();
    for bits in [160usize, 170, 1024] {
        let s = c.limbs(bits) as u64;
        let cycles = cp.mod_add_cycles(bits);
        let port = 3 * s * c.mem_cycles;
        assert!(
            cycles >= port + c.dispatch_cycles,
            "{bits}-bit MA: {cycles} below port occupancy {port}"
        );
        assert!(
            cycles <= port + c.dispatch_cycles + 8,
            "{bits}-bit MA: {cycles} far above port occupancy {port} — not port-bound"
        );
    }
}

/// Golden anchors for the headline dual-path rows (the cycle gate pins
/// these via `crates/bench/golden/cycles.json` too; the duplication here
/// makes `cargo test` self-contained).
#[test]
fn dual_path_headline_cycles() {
    let dual = Coprocessor::new(CostModel::paper(), 4);
    assert_eq!(dual.mod_add_cycles(170), 42);
    assert_eq!(dual.mod_sub_cycles(170), 42);
    assert_eq!(dual.mod_add_cycles(160), 39);
    // The pre-dual-path models must not drift either: they are the
    // ablation baselines.
    let cond = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
    assert_eq!(cond.mod_add_cycles(170), 61);
    assert_eq!(cond.mod_sub_cycles(170), 50);
    let seq = Coprocessor::new(CostModel::paper_sequential(), 4);
    assert_eq!(seq.mod_add_cycles(170), 72);
    assert_eq!(seq.mod_sub_cycles(170), 61);
}
