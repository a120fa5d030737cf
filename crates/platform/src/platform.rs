//! The MicroBlaze-level view of the platform: full public-key operations.
//!
//! Every composite operation flows through one path since the typed-IR
//! refactor: the [`crate::program::ProgramCache`] compiles the level-2
//! sequence once per `(OpKind, bits, cost-model)` key, and
//! [`Platform::execute`] runs the [`CompiledProgram`] against a slot
//! bank. [`Platform::composite_report`] prices one program on probe
//! operands, the public `run_*` methods marshal real field elements in
//! and out of the platform's Montgomery domain, and the
//! exponentiation/scalar ladders fetch their programs once before the
//! loop instead of rebuilding the same sequence on every iteration.

use std::sync::Arc;

use bignum::{mod_inv, mod_mul, BigUint};
use ceilidh::{CeilidhParams, TorusElement};
use ecc::{AffinePoint, Curve, JacobianPoint};
use field::{Fp6Context, Fp6Element};

use crate::coprocessor::Coprocessor;
use crate::cost::CostModel;
use crate::hierarchy::{Hierarchy, SequenceEngine};
use crate::program::{CompiledProgram, FormulaDb, OpKind, ProgramCache};
use crate::report::ExecutionReport;

/// The complete platform: MicroBlaze controller + multicore coprocessor.
///
/// All drivers execute *functionally* — results are computed through the
/// simulated coprocessor and can be compared with the host `ceilidh`, `ecc`
/// and `rsa` crates — while cycles are accumulated according to the cost
/// model and the selected control hierarchy.
///
/// Cloning a `Platform` shares its program cache, so a fleet of clones
/// (e.g. per-shard workers over the same cost model) compiles each
/// level-2 program exactly once.
#[derive(Debug, Clone)]
pub struct Platform {
    coprocessor: Coprocessor,
    engine: SequenceEngine,
    programs: ProgramCache,
}

impl Platform {
    /// Creates a platform with `num_cores` coprocessor cores under the given
    /// control hierarchy.
    pub fn new(cost: CostModel, num_cores: usize, hierarchy: Hierarchy) -> Self {
        Platform::with_program_cache(cost, num_cores, hierarchy, ProgramCache::new())
    }

    /// Creates a platform that draws compiled programs from a
    /// caller-supplied cache.
    ///
    /// [`Platform::clone`] already shares the cache between identical
    /// instances; this constructor is for *fleets* — pools of instances
    /// that may differ in hierarchy or core count but should still compile
    /// each `(OpKind, bits, cost-model)` program exactly once between
    /// them. The cache key includes the cost-model fingerprint, so
    /// instances with different knobs never alias each other's programs.
    ///
    /// ```
    /// use platform::{CostModel, Hierarchy, OpKind, Platform, ProgramCache};
    ///
    /// let shared = ProgramCache::new();
    /// let a = Platform::with_program_cache(CostModel::paper(), 4, Hierarchy::TypeB, shared.clone());
    /// let b = Platform::with_program_cache(CostModel::paper(), 2, Hierarchy::TypeA, shared.clone());
    /// a.composite_report(OpKind::Fp6Mul, 170);
    /// b.composite_report(OpKind::Fp6Mul, 170); // same program: a hit, not a recompile
    /// assert_eq!((shared.misses(), shared.hits()), (1, 1));
    /// ```
    pub fn with_program_cache(
        cost: CostModel,
        num_cores: usize,
        hierarchy: Hierarchy,
        programs: ProgramCache,
    ) -> Self {
        Platform {
            coprocessor: Coprocessor::new(cost, num_cores),
            engine: SequenceEngine::new(hierarchy),
            programs,
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
        self.engine.hierarchy()
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
    /// sequence → coprocessor → schedule path every composite driver and
    /// report goes through.
    ///
    /// Montgomery products operate on whatever representation the slots
    /// are in; callers needing plain-domain results are responsible for
    /// the domain conversions (as the `run_*` shims are).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is smaller than the program's slot budget.
    pub fn execute(
        &self,
        program: &CompiledProgram,
        modulus: &BigUint,
        slots: &mut [BigUint],
    ) -> ExecutionReport {
        assert!(
            slots.len() >= program.slot_budget(),
            "{}: {} slots provided, {} required",
            program.kind(),
            slots.len(),
            program.slot_budget()
        );
        self.engine
            .run(&self.coprocessor, modulus, slots, program.ops())
    }

    /// Executes a compiled program once per slot bank — the batched form
    /// of [`Platform::execute`] that the throughput engine's batch
    /// dispatch goes through.
    ///
    /// The program is compiled (and fetched from the cache) exactly once
    /// by the caller; every bank then pays only the execution cost, which
    /// is what makes same-`(OpKind, bits)` batch formation worthwhile.
    /// Each bank is executed independently and in order, so the returned
    /// reports — and the slot states left behind — are identical to `n`
    /// serial [`Platform::execute`] calls.
    ///
    /// # Panics
    ///
    /// Panics if any bank is smaller than the program's slot budget.
    pub fn execute_batch(
        &self,
        program: &CompiledProgram,
        modulus: &BigUint,
        banks: &mut [Vec<BigUint>],
    ) -> Vec<ExecutionReport> {
        banks
            .iter_mut()
            .map(|bank| self.execute(program, modulus, bank))
            .collect()
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
    // Domain conversions (operands are loaded into the coprocessor in    //
    // Montgomery representation, as on the real platform).               //
    // ----------------------------------------------------------------- //

    /// `R = 2^{w·s} mod p` for this platform's datapath.
    fn platform_r(&self, modulus: &BigUint) -> BigUint {
        let bits = self.cost().word_bits * self.cost().limbs(modulus.bit_len());
        BigUint::one().shl_bits(bits) % modulus
    }

    /// Converts a residue into the platform's Montgomery domain.
    fn to_domain(&self, v: &BigUint, modulus: &BigUint) -> BigUint {
        mod_mul(v, &self.platform_r(modulus), modulus)
    }

    /// Converts a platform-domain value back to a plain residue.
    fn leave_domain(&self, v: &BigUint, modulus: &BigUint) -> BigUint {
        let r_inv =
            mod_inv(&self.platform_r(modulus), modulus).expect("R is invertible for odd moduli");
        mod_mul(v, &r_inv, modulus)
    }

    /// Reads a Jacobian point out of three consecutive output slots,
    /// converting back to the plain domain.
    fn read_jacobian(
        &self,
        curve: &Curve,
        slots: &[BigUint],
        modulus: &BigUint,
        base: usize,
    ) -> JacobianPoint {
        JacobianPoint {
            x: curve
                .fp()
                .from_biguint(&self.leave_domain(&slots[base], modulus)),
            y: curve
                .fp()
                .from_biguint(&self.leave_domain(&slots[base + 1], modulus)),
            z: curve
                .fp()
                .from_biguint(&self.leave_domain(&slots[base + 2], modulus)),
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

    /// Executes one `Fp6` (torus `T6`) multiplication on the platform,
    /// returning the product and the cycle accounting.
    pub fn run_fp6_multiplication(
        &self,
        fp6: &Fp6Context,
        a: &Fp6Element,
        b: &Fp6Element,
    ) -> (Fp6Element, ExecutionReport) {
        let program = self.compiled(OpKind::Fp6Mul, fp6.fp().modulus().bit_len());
        self.execute_fp6_multiplication(&program, fp6, a, b)
    }

    /// [`Platform::run_fp6_multiplication`] against an already-compiled
    /// program (the exponentiation ladder's compile-once path).
    fn execute_fp6_multiplication(
        &self,
        program: &CompiledProgram,
        fp6: &Fp6Context,
        a: &Fp6Element,
        b: &Fp6Element,
    ) -> (Fp6Element, ExecutionReport) {
        let modulus = fp6.fp().modulus().clone();
        let mut slots = vec![BigUint::zero(); program.slot_budget()];
        for i in 0..6 {
            slots[i] = self.to_domain(&fp6.fp().to_biguint(&a.coeffs()[i]), &modulus);
            slots[6 + i] = self.to_domain(&fp6.fp().to_biguint(&b.coeffs()[i]), &modulus);
        }
        let report = self.execute(program, &modulus, &mut slots);
        let coeffs: [field::FpElement; 6] = std::array::from_fn(|i| {
            fp6.fp()
                .from_biguint(&self.leave_domain(&slots[12 + i], &modulus))
        });
        (fp6.from_coeffs(coeffs), report)
    }

    /// Executes a batch of `Fp6` multiplications against **one** compile
    /// of the `Fp6Mul` program.
    ///
    /// This is the driver the throughput engine's batch dispatch uses for
    /// torus traffic: the program is fetched from the cache once (a single
    /// miss-or-hit), then every pair pays only marshalling + execution.
    /// Results and per-pair reports are identical to calling
    /// [`Platform::run_fp6_multiplication`] once per pair.
    pub fn run_fp6_multiplication_batch(
        &self,
        fp6: &Fp6Context,
        pairs: &[(Fp6Element, Fp6Element)],
    ) -> Vec<(Fp6Element, ExecutionReport)> {
        let program = self.compiled(OpKind::Fp6Mul, fp6.fp().modulus().bit_len());
        pairs
            .iter()
            .map(|(a, b)| self.execute_fp6_multiplication(&program, fp6, a, b))
            .collect()
    }

    /// Executes one Jacobian point addition on the platform.
    pub fn run_ecc_point_addition(
        &self,
        curve: &Curve,
        p: &JacobianPoint,
        q: &JacobianPoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let program = self.compiled(OpKind::EccPaGeneral, curve.fp().modulus().bit_len());
        self.execute_ecc_point_addition(&program, curve, p, q)
    }

    fn execute_ecc_point_addition(
        &self,
        program: &CompiledProgram,
        curve: &Curve,
        p: &JacobianPoint,
        q: &JacobianPoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let modulus = curve.fp().modulus().clone();
        let mut slots = vec![BigUint::zero(); program.slot_budget()];
        for (i, c) in [&p.x, &p.y, &p.z, &q.x, &q.y, &q.z].iter().enumerate() {
            slots[i] = self.to_domain(&curve.fp().to_biguint(c), &modulus);
        }
        slots[9] = self.to_domain(&curve.fp().to_biguint(curve.a()), &modulus);
        let report = self.execute(program, &modulus, &mut slots);
        let out = self.read_jacobian(curve, &slots, &modulus, 6);
        (out, report)
    }

    /// Executes one mixed-coordinate point addition on the platform:
    /// Jacobian `p` plus the **affine** addend `q` (`Z2 = 1`), the
    /// 13-multiplication sequence the scalar ladder runs.
    ///
    /// As on the real platform the affine operand is stored in **plain**
    /// (canonical) form — it is the public base point, written once by the
    /// MicroBlaze — and the sequence itself lifts it into the Montgomery
    /// domain with the preloaded `R² mod p` constant (slot 5).
    ///
    /// # Panics
    ///
    /// Panics if `q` is the point at infinity: the mixed sequence, like
    /// every InsRom program, has no data-dependent control flow and cannot
    /// represent the identity; the ladder never presents it.
    pub fn run_ecc_point_addition_mixed(
        &self,
        curve: &Curve,
        p: &JacobianPoint,
        q: &AffinePoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let program = self.compiled(OpKind::EccPaMixed, curve.fp().modulus().bit_len());
        self.execute_ecc_point_addition_mixed(&program, curve, p, q)
    }

    fn execute_ecc_point_addition_mixed(
        &self,
        program: &CompiledProgram,
        curve: &Curve,
        p: &JacobianPoint,
        q: &AffinePoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let (qx, qy) = q
            .coordinates()
            .expect("the mixed PA sequence needs a finite affine addend");
        let modulus = curve.fp().modulus().clone();
        let mut slots = vec![BigUint::zero(); program.slot_budget()];
        for (i, c) in [&p.x, &p.y, &p.z].iter().enumerate() {
            slots[i] = self.to_domain(&curve.fp().to_biguint(c), &modulus);
        }
        // Affine operand in plain form plus the Montgomery lift constant.
        slots[3] = curve.fp().to_biguint(qx);
        slots[4] = curve.fp().to_biguint(qy);
        let r_mod = self.platform_r(&modulus);
        slots[5] = mod_mul(&r_mod, &r_mod, &modulus);
        let report = self.execute(program, &modulus, &mut slots);
        let out = self.read_jacobian(curve, &slots, &modulus, 6);
        (out, report)
    }

    /// Executes one Jacobian point doubling on the platform (the general
    /// 10-MM sequence, valid for every curve coefficient `a`).
    pub fn run_ecc_point_doubling(
        &self,
        curve: &Curve,
        p: &JacobianPoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let program = self.compiled(OpKind::EccPd, curve.fp().modulus().bit_len());
        self.execute_ecc_point_doubling(&program, curve, p)
    }

    /// Executes one **fast** Jacobian point doubling on the platform: the
    /// shortened 8-multiplication `a = -3` sequence the reproduction
    /// curve's ladder runs.
    ///
    /// # Panics
    ///
    /// Panics if the curve does not satisfy `a = -3` — the factored slope
    /// `3(X1 - Z1²)(X1 + Z1²)` is only the correct tangent numerator
    /// there; the ladder driver checks [`Curve::a_is_minus_three`] and
    /// falls back to the general doubling otherwise.
    pub fn run_ecc_point_doubling_fast(
        &self,
        curve: &Curve,
        p: &JacobianPoint,
    ) -> (JacobianPoint, ExecutionReport) {
        assert!(
            curve.a_is_minus_three(),
            "the fast PD sequence requires a = -3 (curve {:?})",
            curve
        );
        let program = self.compiled(OpKind::EccPdFast, curve.fp().modulus().bit_len());
        self.execute_ecc_point_doubling(&program, curve, p)
    }

    /// Shared marshalling for both doubling programs (identical slot
    /// layout; the fast program simply never reads the `a` slot).
    fn execute_ecc_point_doubling(
        &self,
        program: &CompiledProgram,
        curve: &Curve,
        p: &JacobianPoint,
    ) -> (JacobianPoint, ExecutionReport) {
        let modulus = curve.fp().modulus().clone();
        let mut slots = vec![BigUint::zero(); program.slot_budget()];
        for (i, c) in [&p.x, &p.y, &p.z].iter().enumerate() {
            slots[i] = self.to_domain(&curve.fp().to_biguint(c), &modulus);
        }
        slots[6] = self.to_domain(&curve.fp().to_biguint(curve.a()), &modulus);
        let report = self.execute(program, &modulus, &mut slots);
        let out = self.read_jacobian(curve, &slots, &modulus, 3);
        (out, report)
    }

    // ----------------------------------------------------------------- //
    // Table 3: full public-key operations.                               //
    // ----------------------------------------------------------------- //

    /// Executes a full torus `T6` exponentiation (square-and-multiply over
    /// representation F1) on the platform.
    ///
    /// The `Fp6` multiplication program is compiled once and executed on
    /// every ladder step (squarings and multiplications alike).
    pub fn torus_exponentiation(
        &self,
        params: &CeilidhParams,
        base: &TorusElement,
        exponent: &BigUint,
    ) -> (TorusElement, ExecutionReport) {
        let fp6 = params.fp6();
        let program = self.compiled(OpKind::Fp6Mul, fp6.fp().modulus().bit_len());
        let mut acc = fp6.one();
        let mut report = ExecutionReport::default();
        for i in (0..exponent.bit_len()).rev() {
            let (sq, r) = self.execute_fp6_multiplication(&program, fp6, &acc, &acc);
            acc = sq;
            report = report.merge(&r);
            if exponent.bit(i) {
                let (prod, r) = self.execute_fp6_multiplication(&program, fp6, &acc, base.as_fp6());
                acc = prod;
                report = report.merge(&r);
            }
        }
        (TorusElement::from_fp6_unchecked(acc), report)
    }

    /// Executes a full ECC scalar multiplication (Jacobian double-and-add)
    /// on the platform.
    ///
    /// Both ladder programs are compiled once, before the loop. The addend
    /// of every point addition is the base point itself, which arrives
    /// affine and stays affine — so when the cost model selects the
    /// mixed-coordinate layer ([`CostModel::uses_mixed_pa`], on in
    /// [`CostModel::paper`]) the ladder drives the 13-multiplication
    /// `pa_mixed` sequence; with the knob off it runs the general 16-MM
    /// Jacobian addition (the pre-mixed baseline, kept selectable for the
    /// `pa_mixed_sweep` ablation). Likewise, on curves with `a = -3` the
    /// fast-PD layer ([`CostModel::uses_fast_pd`]) drives the shortened
    /// 8-MM doubling; otherwise the general 10-MM doubling runs (the
    /// `pd_fast_sweep` ablation baseline).
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
        let (pd_program, pa_program, mixed) = self.ladder_programs(curve);
        self.scalar_multiplication_with_programs(curve, point, k, &pd_program, &pa_program, mixed)
    }

    /// Executes a batch of scalar multiplications over the same curve
    /// against **one** fetch of the ladder's PD and PA programs.
    ///
    /// This is the driver the throughput engine's batch dispatch uses for
    /// signing/ECDH traffic: both programs are fetched from the cache
    /// once, then every `(point, scalar)` request pays only the ladder.
    /// Results and per-request reports are identical to calling
    /// [`Platform::ecc_scalar_multiplication`] once per request.
    pub fn ecc_scalar_multiplication_batch(
        &self,
        curve: &Curve,
        requests: &[(AffinePoint, BigUint)],
    ) -> Vec<(AffinePoint, ExecutionReport)> {
        let (pd_program, pa_program, mixed) = self.ladder_programs(curve);
        requests
            .iter()
            .map(|(point, k)| {
                self.scalar_multiplication_with_programs(
                    curve,
                    point,
                    k,
                    &pd_program,
                    &pa_program,
                    mixed,
                )
            })
            .collect()
    }

    /// Fetches (compiling at most once) the doubling and addition
    /// programs the scalar ladder will run on `curve` under the current
    /// cost-model knobs, plus whether the addition is the mixed sequence.
    ///
    /// The variants are no longer hard-coded: [`FormulaDb::best_for`]
    /// derives the cheapest formula eligible under `(curve, cost model)`.
    /// The ladder asks for [`OpKind::EccPaMixed`] because its addend is
    /// always the affine base point (the capability the `madd` formula
    /// requires); the doubling request carries no extra capability and the
    /// database decides between `pd-general` and `dbl-2001-b` from the
    /// curve's `a = -3` structure.
    fn ladder_programs(&self, curve: &Curve) -> (Arc<CompiledProgram>, Arc<CompiledProgram>, bool) {
        let db = FormulaDb::builtin();
        let pd = db.best_for(OpKind::EccPd, curve, self.cost());
        let pa = db.best_for(OpKind::EccPaMixed, curve, self.cost());
        let bits = curve.fp().modulus().bit_len();
        let pd_program = self.compiled(pd.kind(), bits);
        let pa_program = self.compiled(pa.kind(), bits);
        let mixed = pa.kind() == OpKind::EccPaMixed;
        (pd_program, pa_program, mixed)
    }

    /// The double-and-add ladder body against already-fetched programs —
    /// shared by the single-call and batched scalar-multiplication
    /// drivers, bit-identical between them.
    fn scalar_multiplication_with_programs(
        &self,
        curve: &Curve,
        point: &AffinePoint,
        k: &BigUint,
        pd_program: &CompiledProgram,
        pa_program: &CompiledProgram,
        mixed: bool,
    ) -> (AffinePoint, ExecutionReport) {
        assert!(
            !point.is_infinity(),
            "the platform PA/PD sequences need a finite base point"
        );
        let mut report = ExecutionReport::default();
        let jp = curve.to_jacobian(point);
        let mut acc: Option<JacobianPoint> = None;
        for i in (0..k.bit_len()).rev() {
            if let Some(cur) = acc.take() {
                let (doubled, r) = self.execute_ecc_point_doubling(pd_program, curve, &cur);
                report = report.merge(&r);
                acc = Some(doubled);
            }
            if k.bit(i) {
                acc = Some(match acc.take() {
                    None => jp.clone(),
                    Some(cur) => {
                        let (sum, r) = if mixed {
                            self.execute_ecc_point_addition_mixed(pa_program, curve, &cur, point)
                        } else {
                            self.execute_ecc_point_addition(pa_program, curve, &cur, &jp)
                        };
                        report = report.merge(&r);
                        sum
                    }
                });
            }
        }
        let result = match acc {
            None => AffinePoint::Infinity,
            Some(j) => curve.to_affine(&j),
        };
        (result, report)
    }

    /// Executes a full RSA modular exponentiation (`base^exponent mod n`) on
    /// the platform. The exponentiation ladder is driven by the MicroBlaze,
    /// so every Montgomery multiplication pays the register-access +
    /// interrupt overhead, as in the paper's RSA implementation.
    pub fn rsa_exponentiation(
        &self,
        modulus: &BigUint,
        base: &BigUint,
        exponent: &BigUint,
    ) -> (BigUint, ExecutionReport) {
        let mut report = ExecutionReport::default();
        let r_mod = self.platform_r(modulus);
        let mut acc = r_mod.clone(); // 1 in the platform domain
        let base_dom = self.to_domain(&(base % modulus), modulus);
        let mm = |a: &BigUint, b: &BigUint, report: &mut ExecutionReport| {
            let r = self.coprocessor.mont_mul(a, b, modulus);
            report.cycles += r.cycles + self.cost().interrupt_cycles;
            report.modmuls += 1;
            report.interrupts += 1;
            report.register_accesses += 1;
            r.value
        };
        for i in (0..exponent.bit_len()).rev() {
            acc = mm(&acc.clone(), &acc, &mut report);
            if exponent.bit(i) {
                acc = mm(&acc.clone(), &base_dom, &mut report);
            }
        }
        (self.leave_domain(&acc, modulus), report)
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
    use rand::SeedableRng;

    fn platform(hierarchy: Hierarchy) -> Platform {
        Platform::new(CostModel::paper(), 4, hierarchy)
    }

    #[test]
    fn fp6_multiplication_matches_field_crate() {
        let params = CeilidhParams::toy().unwrap();
        let fp6 = params.fp6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(201);
        let plat = platform(Hierarchy::TypeB);
        for _ in 0..5 {
            let a = fp6.random(&mut rng);
            let b = fp6.random(&mut rng);
            let (got, report) = plat.run_fp6_multiplication(fp6, &a, &b);
            assert_eq!(got, fp6.mul(&a, &b));
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
            let jq = curve.to_jacobian(&q);
            let (sum, _) = plat.run_ecc_point_addition(&curve, &jp, &jq);
            assert_eq!(curve.to_affine(&sum), curve.add(&p, &q));
            let (mixed, _) = plat.run_ecc_point_addition_mixed(&curve, &jp, &q);
            assert_eq!(curve.to_affine(&mixed), curve.add(&p, &q));
            let (dbl, _) = plat.run_ecc_point_doubling(&curve, &jp);
            assert_eq!(curve.to_affine(&dbl), curve.double(&p));
            let (dbl_fast, _) = plat.run_ecc_point_doubling_fast(&curve, &jp);
            assert_eq!(curve.to_affine(&dbl_fast), curve.double(&p));
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
            let (general, rg) = plat.run_ecc_point_doubling(&curve, &jp);
            let (fast, rf) = plat.run_ecc_point_doubling_fast(&curve, &jp);
            assert_eq!(curve.to_affine(&general), curve.to_affine(&fast));
            assert!(rf.cycles < rg.cycles);
            assert_eq!(rf.modmuls, 8);
            assert_eq!(rg.modmuls, 10);
        }
    }

    #[test]
    #[should_panic(expected = "requires a = -3")]
    fn fast_doubling_rejects_other_curves() {
        let curve = Curve::toy().unwrap(); // a = 1
        let plat = platform(Hierarchy::TypeB);
        let p = curve.to_jacobian(curve.base_point());
        let _ = plat.run_ecc_point_doubling_fast(&curve, &p);
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
            let (general, rg) = plat.run_ecc_point_addition(&curve, &jp, &curve.to_jacobian(&q));
            let (mixed, rm) = plat.run_ecc_point_addition_mixed(&curve, &jp, &q);
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
    fn fp6_batch_matches_serial_and_compiles_once() {
        let params = CeilidhParams::toy().unwrap();
        let fp6 = params.fp6();
        let mut rng = rand::rngs::StdRng::seed_from_u64(211);
        let pairs: Vec<_> = (0..4)
            .map(|_| (fp6.random(&mut rng), fp6.random(&mut rng)))
            .collect();

        let serial_plat = platform(Hierarchy::TypeB);
        let serial: Vec<_> = pairs
            .iter()
            .map(|(a, b)| serial_plat.run_fp6_multiplication(fp6, a, b))
            .collect();

        let batch_plat = platform(Hierarchy::TypeB);
        let batched = batch_plat.run_fp6_multiplication_batch(fp6, &pairs);

        assert_eq!(batched, serial);
        // The batch fetches the program exactly once.
        assert_eq!(batch_plat.program_cache().misses(), 1);
        assert_eq!(batch_plat.program_cache().hits(), 0);
    }

    #[test]
    fn scalar_mult_batch_matches_serial_and_fetches_programs_once() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(212);
        let requests: Vec<_> = (0..3)
            .map(|i| {
                (
                    curve.random_point(&mut rng),
                    BigUint::from(0x1234_5678u64 + i),
                )
            })
            .collect();

        let serial_plat = platform(Hierarchy::TypeB);
        let serial: Vec<_> = requests
            .iter()
            .map(|(p, k)| serial_plat.ecc_scalar_multiplication(&curve, p, k))
            .collect();

        let batch_plat = platform(Hierarchy::TypeB);
        let batched = batch_plat.ecc_scalar_multiplication_batch(&curve, &requests);

        assert_eq!(batched, serial);
        // One PD + one PA fetch for the whole batch: two misses, no hits.
        assert_eq!(batch_plat.program_cache().misses(), 2);
        assert_eq!(batch_plat.program_cache().hits(), 0);
    }

    #[test]
    fn execute_batch_matches_serial_execute() {
        let plat = platform(Hierarchy::TypeB);
        let program = plat.compiled(OpKind::Fp6Mul, 170);
        let modulus = probe_modulus(170);
        let bank = |seed: u64| -> Vec<BigUint> {
            (0..program.slot_budget())
                .map(|i| BigUint::from((seed + i as u64) % 251 + 1))
                .collect()
        };
        let mut serial_banks = [bank(3), bank(17), bank(99)];
        let serial: Vec<_> = serial_banks
            .iter_mut()
            .map(|b| plat.execute(&program, &modulus, b))
            .collect();
        let mut batch_banks = [bank(3), bank(17), bank(99)];
        let batched = plat.execute_batch(&program, &modulus, &mut batch_banks);
        assert_eq!(batched, serial);
        assert_eq!(batch_banks, serial_banks);
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

    #[test]
    fn table3_shape_holds() {
        // Use short exponents so the test stays fast; the relative shape is
        // what matters (CEILIDH beats RSA, ECC beats CEILIDH).
        let plat = platform(Hierarchy::TypeB);
        let t6_mult = plat.composite_report(OpKind::Fp6Mul, 170).cycles;
        let pa = plat.composite_report(OpKind::EccPaMixed, 160).cycles;
        let pd = plat.composite_report(OpKind::EccPd, 160).cycles;
        let mm1024 = plat.montgomery_multiplication_report(1024).cycles + plat.interrupt_cycles();

        // Scale to full operations as in the paper: a 170-bit torus
        // exponentiation ≈ 170 squarings + 85 multiplications, a 160-bit
        // scalar multiplication ≈ 160 PD + 80 PA, a 1024-bit RSA
        // exponentiation ≈ 1536 MM.
        let torus = (170 + 85) * t6_mult;
        let ecc = 160 * pd + 80 * pa;
        let rsa = 1536 * mm1024;
        assert!(ecc < torus, "ECC ({ecc}) must beat the torus ({torus})");
        assert!(torus < rsa, "the torus ({torus}) must beat RSA ({rsa})");
        let rsa_over_torus = rsa as f64 / torus as f64;
        let torus_over_ecc = torus as f64 / ecc as f64;
        assert!(
            (2.0..10.0).contains(&rsa_over_torus),
            "paper: RSA/torus ≈ 4.8, got {rsa_over_torus}"
        );
        assert!(
            (1.2..4.0).contains(&torus_over_ecc),
            "paper: torus/ECC ≈ 2.1, got {torus_over_ecc}"
        );
    }
}
