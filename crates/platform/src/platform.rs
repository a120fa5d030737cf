//! The MicroBlaze-level view of the platform: full public-key operations.
//!
//! Every composite operation flows through one path: the
//! [`crate::program::ProgramCache`] compiles the level-2 sequence once per
//! `(OpKind, bits, cost-model)` key, and [`Platform::execute`] walks the
//! [`CompiledProgram`] over a slot bank, charging the sequencer rules of
//! the platform's hierarchy. [`Platform::composite_report`] prices one
//! program on probe operands. Each Table 3 driver call, and each
//! [`Platform::execute`], is one
//! [`MontgomeryParams::run`](bignum::MontgomeryParams::run) job: its slots
//! hold the stack words of the modulus's width, and it reads each leaf
//! shape's price once. The exponentiation and scalar ladders keep their
//! operands resident in the platform's Montgomery domain, as the
//! coprocessor's data memory does: each program gets one bank, the base
//! and the constants are converted and loaded once per call, and between
//! steps only the accumulator moves, from one program's outputs to the
//! next program's inputs.

use std::sync::Arc;

use bignum::recoding::{self, Step};
use bignum::{square_and_multiply, BigUint, ResidueJob, ResidueOps};
use ceilidh::{CeilidhParams, TorusElement};
use ecc::{AffinePoint, Curve, JacobianPoint};

use crate::coprocessor::Coprocessor;
use crate::cost::CostModel;
use crate::hierarchy::{self, Domain, Hierarchy, Leaves};
use crate::program::{CompiledProgram, OpKind, ProgramCache};
use crate::programs::{
    AFFINE_2, CURVE_A, FP6_A, FP6_B, POINT_1, POINT_2, RSA_ACC, RSA_BASE, RSA_MULTIPLY, RSA_SQUARE,
};
use crate::report::ExecutionReport;

/// The complete platform: MicroBlaze controller + multicore coprocessor.
///
/// All drivers execute *functionally* — every step of every sequence
/// computes its value, so results can be compared with the host
/// `ceilidh`, `ecc` and `rsa` crates — while cycles are accumulated
/// according to the cost model and the selected control hierarchy.
///
/// Cloning a `Platform` shares its program cache and its coprocessor's
/// leaf table, so a fleet of clones (e.g. per-shard workers over the same
/// cost model) compiles each level-2 program and executes each leaf shape
/// exactly once.
#[derive(Debug, Clone)]
pub struct Platform {
    coprocessor: Coprocessor,
    hierarchy: Hierarchy,
    programs: ProgramCache,
}

impl Platform {
    /// Creates a platform with `num_cores` coprocessor cores under the given
    /// control hierarchy.
    pub fn new(cost: CostModel, num_cores: usize, hierarchy: Hierarchy) -> Self {
        Platform {
            coprocessor: Coprocessor::new(cost, num_cores),
            hierarchy,
            programs: ProgramCache::new(),
        }
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        self.coprocessor.cost()
    }

    /// The underlying coprocessor.
    pub fn coprocessor(&self) -> &Coprocessor {
        &self.coprocessor
    }

    /// The control hierarchy in use.
    pub fn hierarchy(&self) -> Hierarchy {
        self.hierarchy
    }

    /// The compile-once program cache (shared between clones).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    /// The compiled program for `kind` at `bits` operand length, fetched
    /// from the cache (compiling on first use).
    pub fn compiled(&self, kind: OpKind, bits: usize) -> Arc<CompiledProgram> {
        self.programs.get_or_compile(kind, bits, self.cost())
    }

    /// Executes a compiled program against a slot bank — the single
    /// sequence → leaf table → sequencer-walk path every composite driver
    /// and report goes through. Each step's value is computed on the host
    /// and its cycles are read from the coprocessor's leaf table.
    ///
    /// Montgomery products operate on whatever representation the slots
    /// are in; callers needing plain-domain results are responsible for
    /// the domain conversions (as the ladders are). Each call builds the
    /// modulus's domain, lowers the slots onto the stack words of the
    /// modulus's width, runs the program as one job
    /// ([`MontgomeryParams::run`](bignum::MontgomeryParams::run)) and
    /// lifts the slots back; each Table 3 driver below is one such job.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is smaller than the program's slot budget, if a
    /// slot is wider than the modulus or an operand is not reduced, or
    /// unless the modulus is odd and greater than 1.
    pub fn execute(
        &self,
        program: &CompiledProgram,
        modulus: &BigUint,
        slots: &mut [BigUint],
    ) -> ExecutionReport {
        let domain = Domain::new(self.cost(), modulus);
        domain.host.run(Execute {
            platform: self,
            domain: &domain,
            program,
            slots,
        })
    }

    /// Executes `program` against `slots` with one driver call's `leaves`,
    /// under this platform's hierarchy.
    fn run_program<R: ResidueOps>(
        &self,
        program: &CompiledProgram,
        leaves: &mut Leaves<'_, R>,
        slots: &mut [R::Elem],
    ) -> ExecutionReport {
        assert!(
            slots.len() >= program.slot_budget(),
            "{}: {} slots provided, {} required",
            program.kind(),
            slots.len(),
            program.slot_budget()
        );
        hierarchy::execute(leaves, self.hierarchy, slots, program.ops())
    }

    /// Cycles of one MicroBlaze register access + interrupt (Table 1 row 1).
    pub fn interrupt_cycles(&self) -> u64 {
        self.cost().interrupt_cycles
    }

    // ----------------------------------------------------------------- //
    // Table 1: modular-operation latencies.                              //
    // ----------------------------------------------------------------- //

    /// Cycles of one Montgomery modular multiplication at `bits` operand
    /// length.
    pub fn montgomery_multiplication_report(&self, bits: usize) -> ExecutionReport {
        ExecutionReport {
            cycles: self.coprocessor.mont_mul_cycles(bits),
            modmuls: 1,
            ..Default::default()
        }
    }

    /// Cycles of one modular addition at `bits` operand length.
    pub fn modular_addition_report(&self, bits: usize) -> ExecutionReport {
        ExecutionReport {
            cycles: self.coprocessor.mod_add_cycles(bits),
            modadds: 1,
            ..Default::default()
        }
    }

    /// Cycles of one modular subtraction at `bits` operand length.
    pub fn modular_subtraction_report(&self, bits: usize) -> ExecutionReport {
        ExecutionReport {
            cycles: self.coprocessor.mod_sub_cycles(bits),
            modsubs: 1,
            ..Default::default()
        }
    }

    // ----------------------------------------------------------------- //
    // Table 2: composite (level-2) operations.                           //
    // ----------------------------------------------------------------- //

    /// Cycle accounting of one compiled composite operation at `bits`
    /// operand length, executed on dummy (but valid) operands — the Table 2
    /// rows (e.g. [`OpKind::Fp6Mul`] at 170 bits for "T6 Mult.",
    /// [`OpKind::EccPaMixed`] and [`OpKind::EccPdFast`] at 160 bits for
    /// the ECC rows).
    pub fn composite_report(&self, kind: OpKind, bits: usize) -> ExecutionReport {
        let program = self.compiled(kind, bits);
        let modulus = probe_modulus(bits);
        let mut slots: Vec<BigUint> = (0..program.slot_budget())
            .map(|i| BigUint::from((i % 251 + 1) as u64))
            .collect();
        self.execute(&program, &modulus, &mut slots)
    }

    /// The doubling and addition programs the scalar ladder runs on
    /// `curve` under this platform's cost model, as `(PD, PA)`.
    ///
    /// [`OpKind::best_for`] derives each from `(curve, cost model)`:
    /// the addition request asserts an affine addend, because the ladder
    /// always adds the base point, so `madd` ([`OpKind::EccPaMixed`]) runs
    /// while [`CostModel::mixed_coordinate_pa`] is on; the doubling request
    /// leaves the choice between `pd-general` and `dbl-2001-b` to the
    /// curve's `a = -3` structure and [`CostModel::fast_pd`].
    pub fn ladder_kinds(&self, curve: &Curve) -> (OpKind, OpKind) {
        (
            OpKind::EccPd.best_for(curve, self.cost()),
            OpKind::EccPaMixed.best_for(curve, self.cost()),
        )
    }

    // ----------------------------------------------------------------- //
    // Table 3: full public-key operations.                               //
    // ----------------------------------------------------------------- //

    /// Executes a full torus `T6` exponentiation (square-and-multiply over
    /// representation F1) on the platform.
    ///
    /// The `Fp6` multiplication program is compiled once and executed on
    /// every ladder step (squarings and multiplications alike), with the
    /// accumulator and the base resident in its slot bank.
    pub fn torus_exponentiation(
        &self,
        params: &CeilidhParams,
        base: &TorusElement,
        exponent: &BigUint,
    ) -> (TorusElement, ExecutionReport) {
        let fp6 = params.fp6();
        let fp = fp6.fp();
        let modulus = fp.modulus();
        let domain = Domain::new(self.cost(), modulus);
        let (coeffs, report) = domain.host.run(TorusExp {
            platform: self,
            domain: &domain,
            program: self.compiled(OpKind::Fp6Mul, modulus.bit_len()),
            base: base.as_fp6().coeffs().each_ref().map(|c| fp.to_biguint(c)),
            exponent,
        });
        let coeffs = coeffs.map(|c| fp.from_biguint(&c));
        (
            TorusElement::from_fp6_unchecked(fp6.from_coeffs(coeffs)),
            report,
        )
    }

    /// Executes a full ECC scalar multiplication (Jacobian double-and-add)
    /// on the platform.
    ///
    /// Both ladder programs ([`Platform::ladder_kinds`]) are compiled
    /// once, before the loop, each with its own resident slot bank: the
    /// doubling's holds `a`, the addition's the base point — affine and
    /// in plain form with the lift constant `R²` for the mixed sequence,
    /// Jacobian with `Z = 1` for the general one.
    ///
    /// # Panics
    ///
    /// Panics if `point` is the point at infinity (the paper's sequences
    /// assume a finite base point).
    pub fn ecc_scalar_multiplication(
        &self,
        curve: &Curve,
        point: &AffinePoint,
        k: &BigUint,
    ) -> (AffinePoint, ExecutionReport) {
        let (x, y) = point
            .coordinates()
            .expect("the platform PA/PD sequences need a finite base point");
        let fp = curve.fp();
        let modulus = fp.modulus();
        let domain = Domain::new(self.cost(), modulus);
        let (pd, pa) = self.ladder_kinds(curve);
        let (acc, report) = domain.host.run(EccLadder {
            platform: self,
            domain: &domain,
            pd: self.compiled(pd, modulus.bit_len()),
            pa: self.compiled(pa, modulus.bit_len()),
            xya: [x, y, curve.a()].map(|c| fp.to_biguint(c)),
            k,
        });
        let result = match acc {
            None => AffinePoint::Infinity,
            Some(p) => {
                let [x, y, z] = p.map(|c| fp.from_biguint(&c));
                curve.to_affine(&JacobianPoint { x, y, z })
            }
        };
        (result, report)
    }

    /// Executes a full RSA modular exponentiation (`base^exponent mod n`) on
    /// the platform. The exponentiation ladder is driven by the MicroBlaze,
    /// so every Montgomery multiplication runs as a one-step Type-A
    /// sequence and pays the register-access + interrupt overhead, as in
    /// the paper's RSA implementation.
    pub fn rsa_exponentiation(
        &self,
        modulus: &BigUint,
        base: &BigUint,
        exponent: &BigUint,
    ) -> (BigUint, ExecutionReport) {
        let domain = Domain::new(self.cost(), modulus);
        domain.host.run(RsaExp {
            platform: self,
            domain: &domain,
            base: &(base % modulus),
            exponent,
        })
    }
}

/// [`Platform::execute`] as a job: the slots are lowered on entry and
/// lifted back on exit.
struct Execute<'a> {
    platform: &'a Platform,
    domain: &'a Domain,
    program: &'a CompiledProgram,
    slots: &'a mut [BigUint],
}

impl ResidueJob for Execute<'_> {
    type Output = ExecutionReport;

    fn run<R: ResidueOps>(self, r: &R) -> ExecutionReport {
        let mut leaves = self.domain.leaves(r, &self.platform.coprocessor);
        let mut slots: Vec<R::Elem> = self.slots.iter().map(|v| r.lower(v)).collect();
        let report = self
            .platform
            .run_program(self.program, &mut leaves, &mut slots);
        for (slot, value) in self.slots.iter_mut().zip(&slots) {
            *slot = r.lift(value);
        }
        report
    }
}

/// [`Platform::torus_exponentiation`] as a job, on plain coefficients in
/// and out.
struct TorusExp<'a> {
    platform: &'a Platform,
    domain: &'a Domain,
    program: Arc<CompiledProgram>,
    base: [BigUint; 6],
    exponent: &'a BigUint,
}

impl ResidueJob for TorusExp<'_> {
    type Output = ([BigUint; 6], ExecutionReport);

    fn run<R: ResidueOps>(self, r: &R) -> Self::Output {
        let mut leaves = self.domain.leaves(r, &self.platform.coprocessor);
        let base = self.base.each_ref().map(|c| leaves.enter(&r.lower(c)));
        let one = std::array::from_fn(|i| if i == 0 { leaves.one() } else { leaves.zero() });
        let mut bank = Bank::new(self.program, leaves.zero());
        let mut report = ExecutionReport::default();
        let acc = square_and_multiply(one, &base, self.exponent, |a, b| {
            bank.load(FP6_B, b.clone());
            bank.load(FP6_A, a.clone());
            bank.run(self.platform, &mut leaves, &mut report)
        });
        (acc.map(|c| r.lift(&leaves.leave(&c))), report)
    }
}

/// [`Platform::ecc_scalar_multiplication`] as a job: the base point's
/// plain `x`, `y` and the curve's `a` in, the Jacobian result's plain
/// coordinates out (`None` for the point at infinity).
struct EccLadder<'a> {
    platform: &'a Platform,
    domain: &'a Domain,
    pd: Arc<CompiledProgram>,
    pa: Arc<CompiledProgram>,
    xya: [BigUint; 3],
    k: &'a BigUint,
}

impl ResidueJob for EccLadder<'_> {
    type Output = (Option<[BigUint; 3]>, ExecutionReport);

    fn run<R: ResidueOps>(self, r: &R) -> Self::Output {
        let mut leaves = self.domain.leaves(r, &self.platform.coprocessor);
        let [x, y, a] = self.xya.each_ref().map(|c| r.lower(c));
        let mixed = self.pa.kind() == OpKind::EccPaMixed;
        let mut pd = Bank::new(self.pd, leaves.zero());
        let mut pa = Bank::new(self.pa, leaves.zero());
        pd.load(CURVE_A, [leaves.enter(&a)]);
        let base = [leaves.enter(&x), leaves.enter(&y), leaves.one()];
        if mixed {
            pa.load(AFFINE_2, [x, y, leaves.enter(&leaves.one())]);
        } else {
            pa.load(POINT_2, base.clone());
            pa.load(CURVE_A, [leaves.enter(&a)]);
        }
        let mut report = ExecutionReport::default();
        let acc = recoding::binary(self.k).fold(None, |acc, step| match (step, acc) {
            (Step::Square, None) => None,
            (Step::Multiply { .. }, None) => Some(base.clone()),
            (step, Some(p)) => {
                let bank = match step {
                    Step::Square => &mut pd,
                    Step::Multiply { .. } => &mut pa,
                };
                bank.load(POINT_1, p);
                Some(bank.run(self.platform, &mut leaves, &mut report))
            }
        });
        let plain = acc.map(|p| p.map(|c| r.lift(&leaves.leave(&c))));
        (plain, report)
    }
}

/// [`Platform::rsa_exponentiation`] as a job, on a reduced base.
struct RsaExp<'a> {
    platform: &'a Platform,
    domain: &'a Domain,
    base: &'a BigUint,
    exponent: &'a BigUint,
}

impl ResidueJob for RsaExp<'_> {
    type Output = (BigUint, ExecutionReport);

    fn run<R: ResidueOps>(self, r: &R) -> Self::Output {
        let mut leaves = self.domain.leaves(r, &self.platform.coprocessor);
        let mut bank = [leaves.zero(), leaves.zero()];
        bank[RSA_ACC] = leaves.one(); // 1 in the platform domain
        bank[RSA_BASE] = leaves.enter(&r.lower(self.base));
        let mut report = ExecutionReport::default();
        for step in recoding::binary(self.exponent) {
            let ops = match step {
                Step::Square => RSA_SQUARE,
                Step::Multiply { .. } => RSA_MULTIPLY,
            };
            let executed = hierarchy::execute(&mut leaves, Hierarchy::TypeA, &mut bank, ops);
            report = report.merge(&executed);
        }
        (r.lift(&leaves.leave(&bank[RSA_ACC])), report)
    }
}

/// One compiled program and its data memory, resident across a ladder.
/// Operands are addressed by the names the program declares, so the slot
/// layout stays in [`crate::programs`].
struct Bank<E> {
    program: Arc<CompiledProgram>,
    slots: Vec<E>,
}

impl<E: Clone> Bank<E> {
    /// The program's bank, every slot holding `zero`.
    fn new(program: Arc<CompiledProgram>, zero: E) -> Self {
        let slots = vec![zero; program.slot_budget()];
        Bank { program, slots }
    }

    /// Writes `values` into the named operand slots.
    fn load<const N: usize>(&mut self, names: [&str; N], values: [E; N]) {
        for (name, value) in names.into_iter().zip(values) {
            let slot = self
                .program
                .operand(name)
                .unwrap_or_else(|| panic!("{} declares no operand {name}", self.program.kind()));
            self.slots[slot] = value;
        }
    }

    /// Executes the program, adds its accounting to `report` and returns
    /// its declared outputs.
    fn run<R: ResidueOps<Elem = E>, const N: usize>(
        &mut self,
        platform: &Platform,
        leaves: &mut Leaves<'_, R>,
        report: &mut ExecutionReport,
    ) -> [E; N] {
        *report = report.merge(&platform.run_program(&self.program, leaves, &mut self.slots));
        let outputs = self.program.outputs();
        std::array::from_fn(|i| self.slots[outputs[i]].clone())
    }
}

/// Deterministic odd modulus used for cycle-only probes.
fn probe_modulus(bits: usize) -> BigUint {
    let mut m = BigUint::one().shl_bits(bits - 1);
    m = &m + &BigUint::one().shl_bits(bits / 2);
    &m + &BigUint::from(13u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::MontgomeryParams;
    use ecc::ScalarMulAlgorithm;
    use field::Fp6Element;
    use rand::SeedableRng;

    fn platform(hierarchy: Hierarchy) -> Platform {
        Platform::new(CostModel::paper(), 4, hierarchy)
    }

    /// Executes one ECC program on the Jacobian point `p`, with its other
    /// operands loaded by name as the ladder loads them (`q` is the
    /// addend of the additions).
    fn point_op(
        plat: &Platform,
        curve: &Curve,
        kind: OpKind,
        p: &JacobianPoint,
        q: &AffinePoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let fp = curve.fp();
        let modulus = fp.modulus();
        let domain = Domain::new(plat.cost(), modulus);
        let mut leaves = domain.leaves(&domain.host, &plat.coprocessor);
        let enter = |c: &field::FpElement| leaves.enter(&fp.to_biguint(c));
        let mut bank = Bank::new(plat.compiled(kind, modulus.bit_len()), BigUint::zero());
        bank.load(POINT_1, [&p.x, &p.y, &p.z].map(enter));
        let (qx, qy) = q.coordinates().expect("finite addend");
        match kind {
            OpKind::EccPaMixed => bank.load(
                AFFINE_2,
                [
                    fp.to_biguint(qx),
                    fp.to_biguint(qy),
                    leaves.enter(&leaves.one()),
                ],
            ),
            OpKind::EccPaGeneral => bank.load(POINT_2, [enter(qx), enter(qy), leaves.one()]),
            _ => bank.load(CURVE_A, [enter(curve.a())]),
        }
        let mut report = ExecutionReport::default();
        let [x, y, z] = bank
            .run(plat, &mut leaves, &mut report)
            .map(|c| fp.from_biguint(&leaves.leave(&c)));
        (JacobianPoint { x, y, z }, report)
    }

    #[test]
    fn fp6_multiplication_matches_field_crate() {
        let params = CeilidhParams::toy().unwrap();
        let fp6 = params.fp6();
        let fp = fp6.fp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(201);
        let plat = platform(Hierarchy::TypeB);
        let domain = Domain::new(plat.cost(), fp.modulus());
        let mut leaves = domain.leaves(&domain.host, &plat.coprocessor);
        for _ in 0..5 {
            let a = fp6.random(&mut rng);
            let b = fp6.random(&mut rng);
            let enter = |x: &Fp6Element| {
                x.coeffs()
                    .each_ref()
                    .map(|c| leaves.enter(&fp.to_biguint(c)))
            };
            let (a_in, b_in) = (enter(&a), enter(&b));
            let program = plat.compiled(OpKind::Fp6Mul, fp.modulus().bit_len());
            let mut bank = Bank::new(program, BigUint::zero());
            bank.load(FP6_A, a_in);
            bank.load(FP6_B, b_in);
            let mut report = ExecutionReport::default();
            let got = bank
                .run(&plat, &mut leaves, &mut report)
                .map(|c| fp.from_biguint(&leaves.leave(&c)));
            assert_eq!(fp6.from_coeffs(got), fp6.mul(&a, &b));
            assert_eq!(report.modmuls, 18);
        }
        // Five runs of the same operation: one compile, four cache hits.
        assert_eq!(plat.program_cache().misses(), 1);
        assert_eq!(plat.program_cache().hits(), 4);
    }

    #[test]
    fn ecc_point_operations_match_ecc_crate() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(202);
        let plat = platform(Hierarchy::TypeB);
        for _ in 0..3 {
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            for kind in [OpKind::EccPaGeneral, OpKind::EccPaMixed] {
                let (sum, _) = point_op(&plat, &curve, kind, &jp, &q);
                assert_eq!(curve.to_affine(&sum), curve.add(&p, &q), "{kind}");
            }
            for kind in [OpKind::EccPd, OpKind::EccPdFast] {
                let (dbl, _) = point_op(&plat, &curve, kind, &jp, &q);
                assert_eq!(curve.to_affine(&dbl), curve.double(&p), "{kind}");
            }
        }
    }

    #[test]
    fn fast_doubling_agrees_with_general_and_is_cheaper() {
        // The shortened a = -3 sequence must compute the exact same double
        // while costing fewer cycles under both hierarchies.
        let curve = Curve::p160_reproduction().unwrap();
        assert!(curve.a_is_minus_three());
        let mut rng = rand::rngs::StdRng::seed_from_u64(208);
        for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
            let plat = platform(hierarchy);
            let p = curve.random_point(&mut rng);
            let jp = curve.jacobian_double(&curve.to_jacobian(&p)); // generic Z
            let (general, rg) = point_op(&plat, &curve, OpKind::EccPd, &jp, &p);
            let (fast, rf) = point_op(&plat, &curve, OpKind::EccPdFast, &jp, &p);
            assert_eq!(curve.to_affine(&general), curve.to_affine(&fast));
            assert!(rf.cycles < rg.cycles);
            assert_eq!(rf.modmuls, 8);
            assert_eq!(rg.modmuls, 10);
        }
    }

    #[test]
    fn mixed_pa_agrees_with_general_pa_and_is_cheaper() {
        // The mixed sequence must compute the exact same sum as the
        // general one whenever the addend is affine (`Z2 = 1`) — that is
        // the substitution the ladder makes — while costing fewer cycles
        // under both hierarchies.
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(206);
        for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
            let plat = platform(hierarchy);
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            let (general, rg) = point_op(&plat, &curve, OpKind::EccPaGeneral, &jp, &q);
            let (mixed, rm) = point_op(&plat, &curve, OpKind::EccPaMixed, &jp, &q);
            assert_eq!(curve.to_affine(&general), curve.to_affine(&mixed));
            assert!(rm.cycles < rg.cycles);
            assert_eq!(rm.modmuls, 13);
            assert_eq!(rg.modmuls, 16);
        }
    }

    #[test]
    fn ladder_obeys_the_mixed_pa_knob() {
        // Same scalar, same point: the mixed and general ladders must
        // agree functionally, with the mixed one strictly cheaper and its
        // PA cost matching the mixed composite report.
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(207);
        let p = curve.random_point(&mut rng);
        let k = BigUint::from(0b1011_0110_1101u64);
        let mixed = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let general = Platform::new(CostModel::paper().with_mixed_pa(false), 4, Hierarchy::TypeB);
        let (pm, rm) = mixed.ecc_scalar_multiplication(&curve, &p, &k);
        let (pg, rg) = general.ecc_scalar_multiplication(&curve, &p, &k);
        assert_eq!(pm, pg);
        assert!(rm.cycles < rg.cycles);
        // 8 set bits → 7 additions (the first set bit loads the base
        // point); 3 MM saved per addition.
        assert_eq!(rg.modmuls - rm.modmuls, 7 * 3);
    }

    #[test]
    fn ladder_obeys_the_fast_pd_knob() {
        // Same scalar, same point: the fast-PD and general-PD ladders
        // agree functionally; the fast one is strictly cheaper and saves
        // exactly 2 MM per doubling. On a curve without a = -3 the knob
        // is inert (the ladder falls back to the general doubling).
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(209);
        let p = curve.random_point(&mut rng);
        let k = BigUint::from(0b1011_0110_1101u64); // 12 bits → 11 doublings
        let fast = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let general = Platform::new(CostModel::paper().with_fast_pd(false), 4, Hierarchy::TypeB);
        let (pf, rf) = fast.ecc_scalar_multiplication(&curve, &p, &k);
        let (pg, rg) = general.ecc_scalar_multiplication(&curve, &p, &k);
        assert_eq!(pf, pg);
        assert!(rf.cycles < rg.cycles);
        assert_eq!(rg.modmuls - rf.modmuls, 11 * 2);

        let toy = Curve::toy().unwrap(); // a = 1: no fast doubling
        let tp = toy.random_point(&mut rng);
        let (ft, rt) = fast.ecc_scalar_multiplication(&toy, &tp, &k);
        let (gt, rgt) = general.ecc_scalar_multiplication(&toy, &tp, &k);
        assert_eq!(ft, gt);
        assert_eq!(rt.modmuls, rgt.modmuls);
    }

    #[test]
    fn ladder_compiles_each_program_once() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(210);
        let p = curve.random_point(&mut rng);
        let plat = platform(Hierarchy::TypeB);
        let k = BigUint::from(0xdead_beefu64);
        plat.ecc_scalar_multiplication(&curve, &p, &k);
        // One PD program + one PA program, compiled once each.
        assert_eq!(plat.program_cache().misses(), 2);
        assert_eq!(plat.program_cache().len(), 2);
        // A second ladder over the same curve reuses both.
        plat.ecc_scalar_multiplication(&curve, &p, &BigUint::from(12345u64));
        assert_eq!(plat.program_cache().misses(), 2);
        assert!(plat.program_cache().hits() >= 2);
        // Clones share the cache.
        let clone = plat.clone();
        clone.ecc_scalar_multiplication(&curve, &p, &k);
        assert_eq!(plat.program_cache().misses(), 2);
    }

    #[test]
    fn type_b_is_several_times_faster_for_composites() {
        let a = platform(Hierarchy::TypeA);
        let b = platform(Hierarchy::TypeB);
        let t6_a = a.composite_report(OpKind::Fp6Mul, 170).cycles;
        let t6_b = b.composite_report(OpKind::Fp6Mul, 170).cycles;
        let ratio = t6_a as f64 / t6_b as f64;
        assert!(
            (1.8..6.0).contains(&ratio),
            "paper: Type-A/Type-B ≈ 3.78 for the T6 mult, got {ratio}"
        );
        let pa_a = a.composite_report(OpKind::EccPaGeneral, 160).cycles;
        let pa_b = b.composite_report(OpKind::EccPaGeneral, 160).cycles;
        assert!(pa_a > pa_b);
        let pd_b = b.composite_report(OpKind::EccPd, 160).cycles;
        assert!(pd_b < pa_b, "PD must be cheaper than PA");
        let pd_fast_b = b.composite_report(OpKind::EccPdFast, 160).cycles;
        assert!(pd_fast_b < pd_b, "fast PD must beat the general PD");
    }

    #[test]
    fn torus_exponentiation_is_functionally_correct() {
        let params = CeilidhParams::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(203);
        let plat = platform(Hierarchy::TypeB);
        let (_, base) = params.random_subgroup_element(&mut rng);
        let exp = BigUint::from(29u64);
        let (got, report) = plat.torus_exponentiation(&params, &base, &exp);
        assert_eq!(got, params.pow(&base, &exp));
        assert!(report.modmuls >= 18);
        assert!(report.cycles > 0);
        // The whole exponentiation compiles the Fp6 program exactly once.
        assert_eq!(plat.program_cache().misses(), 1);
    }

    #[test]
    fn ecc_scalar_multiplication_is_functionally_correct() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(204);
        let plat = platform(Hierarchy::TypeB);
        let p = curve.random_point(&mut rng);
        let k = BigUint::from(1_234_567u64);
        let (got, report) = plat.ecc_scalar_multiplication(&curve, &p, &k);
        assert_eq!(
            got,
            curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd)
        );
        assert!(report.modmuls > 0);
    }

    #[test]
    fn named_256_bit_curves_exercise_both_pd_knob_sides() {
        // P-256 has a = -3 (fast-PD eligible); secp256k1 does not, so the
        // `fast_pd` cost knob must only pay off on P-256 while both curves
        // stay functionally correct through the simulated ladder.
        let fast = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let general = Platform::new(CostModel::paper().with_fast_pd(false), 4, Hierarchy::TypeB);
        let k = BigUint::from(1_234_567u64);
        for name in ["p256", "secp256k1"] {
            let curve = Curve::by_name(name).unwrap();
            let p = curve.base_point().clone();
            let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
            let (got_fast, report_fast) = fast.ecc_scalar_multiplication(&curve, &p, &k);
            let (got_general, report_general) = general.ecc_scalar_multiplication(&curve, &p, &k);
            assert_eq!(got_fast, reference, "{name}");
            assert_eq!(got_general, reference, "{name}");
            if curve.a_is_minus_three() {
                assert!(
                    report_fast.cycles < report_general.cycles,
                    "{name}: fast-PD knob must save cycles on a = -3"
                );
            } else {
                assert_eq!(
                    report_fast.modmuls, report_general.modmuls,
                    "{name}: without a = -3 the PD sequences are the same length"
                );
            }
        }
    }

    #[test]
    fn rsa_exponentiation_is_functionally_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(205);
        let plat = platform(Hierarchy::TypeB);
        let p = bignum::gen_prime(96, &mut rng);
        let base = BigUint::random_below(&mut rng, &p);
        let exp = BigUint::random_bits(&mut rng, 40);
        let (got, report) = plat.rsa_exponentiation(&p, &base, &exp);
        let reference = MontgomeryParams::new(&p).unwrap().mod_exp(&base, &exp);
        assert_eq!(got, reference);
        assert_eq!(report.interrupts, report.modmuls);
    }
}
