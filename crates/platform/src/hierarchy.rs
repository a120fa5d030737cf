//! The Type-A / Type-B control hierarchies (Figs. 3 and 4).
//!
//! A composite operation (an `Fp6` multiplication, an ECC point addition —
//! general Jacobian or the ladder's mixed-coordinate variant — or a
//! doubling) is a *sequence* of modular multiplications, additions and
//! subtractions over operands held in the coprocessor data memory. The two
//! hierarchies differ only in who walks that sequence:
//!
//! * **Type-A** — the MicroBlaze issues every MM/MA/MS through register A
//!   and services one interrupt per modular operation (184 cycles each), so
//!   the communication overhead dominates;
//! * **Type-B** — the sequence is stored in the coprocessor's second
//!   instruction ROM (InsRom1); the MicroBlaze issues a single composite
//!   instruction and services a single interrupt.
//!
//! One walk applies these rules, together with the Type-B sequencer's
//! operand prefetch: execution feeds it the cycles the coprocessor's leaf
//! table holds for each step, [`SequencePricing`] feeds it the same table's
//! calibrated entries, and the search pass steps it once per candidate
//! schedule prefix.
//!
//! Execution is written once over [`ResidueOps`]: a driver call runs as
//! one [`MontgomeryParams::run`] job, so its slots hold the stack words of
//! the modulus's width (or heap residues at widths without a stack
//! context), and its `Leaves` hold the domain's constants in that form
//! and each leaf shape's price, read from the table once per call.

use bignum::{mod_inv, mod_mul, BigUint, MontgomeryParams, ResidueOps, LIMB_BITS};

use crate::coprocessor::{Coprocessor, Leaf};
use crate::cost::CostModel;
use crate::report::ExecutionReport;

/// Control-hierarchy variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hierarchy {
    /// MicroBlaze dispatches every modular operation (Fig. 3).
    TypeA,
    /// The coprocessor stores level-2 sequences in InsRom1 (Fig. 4).
    TypeB,
}

/// One step of a level-2 sequence, addressing operands by data-memory slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceOp {
    /// `slot[dst] ← slot[a] · slot[b] · R^{-1} mod p` (Montgomery product).
    MontMul {
        /// Destination slot.
        dst: usize,
        /// First operand slot.
        a: usize,
        /// Second operand slot.
        b: usize,
    },
    /// `slot[dst] ← (slot[a] + slot[b]) mod p`.
    ModAdd {
        /// Destination slot.
        dst: usize,
        /// First operand slot.
        a: usize,
        /// Second operand slot.
        b: usize,
    },
    /// `slot[dst] ← (slot[a] - slot[b]) mod p`.
    ModSub {
        /// Destination slot.
        dst: usize,
        /// Minuend slot.
        a: usize,
        /// Subtrahend slot.
        b: usize,
    },
    /// `slot[dst] ← slot[src]` (data-memory copy, handled by the decoder).
    Copy {
        /// Destination slot.
        dst: usize,
        /// Source slot.
        src: usize,
    },
}

impl SequenceOp {
    /// Destination slot this step writes.
    pub fn dest(&self) -> usize {
        match *self {
            SequenceOp::MontMul { dst, .. }
            | SequenceOp::ModAdd { dst, .. }
            | SequenceOp::ModSub { dst, .. }
            | SequenceOp::Copy { dst, .. } => dst,
        }
    }

    /// Operand slots this step reads.
    pub fn sources(&self) -> [usize; 2] {
        match *self {
            SequenceOp::MontMul { a, b, .. }
            | SequenceOp::ModAdd { a, b, .. }
            | SequenceOp::ModSub { a, b, .. } => [a, b],
            SequenceOp::Copy { src, .. } => [src, src],
        }
    }

    /// Read-after-write dependency: does this step consume `prev`'s result?
    /// Independent neighbours may overlap in the pipelined schedule (the
    /// sequencer prefetches the next step's operands under the current
    /// step's MAC tail); dependent ones may not.
    pub fn depends_on(&self, prev: &SequenceOp) -> bool {
        self.sources().contains(&prev.dest())
    }

    /// Returns `true` if this step is a decoder-driven copy (which has no
    /// execution tail to prefetch under and prefetches nothing itself).
    pub fn is_copy(&self) -> bool {
        matches!(self, SequenceOp::Copy { .. })
    }

    /// The sequence-level overlap rule, in one place: the Type-B sequencer
    /// may prefetch `next`'s operands under `prev`'s tail exactly when
    /// neither step is a decoder copy and `next` does not consume `prev`'s
    /// result. Both the executing sequence engine and the static
    /// [`crate::ProgramStats::independent_neighbour_pairs`] count (which
    /// the calibration-floor tests pin) consult this predicate, so they
    /// cannot drift apart.
    pub fn may_overlap(prev: &SequenceOp, next: &SequenceOp) -> bool {
        !prev.is_copy() && !next.is_copy() && !next.depends_on(prev)
    }

    /// The same operation on other slots (a copy reads `a` and ignores
    /// `b`).
    pub(crate) fn with_slots(self, dst: usize, a: usize, b: usize) -> SequenceOp {
        match self {
            SequenceOp::MontMul { .. } => SequenceOp::MontMul { dst, a, b },
            SequenceOp::ModAdd { .. } => SequenceOp::ModAdd { dst, a, b },
            SequenceOp::ModSub { .. } => SequenceOp::ModSub { dst, a, b },
            SequenceOp::Copy { .. } => SequenceOp::Copy { dst, src: a },
        }
    }
}

/// The sequencer's accounting over one level-2 sequence — the only code
/// that applies the hierarchy rules of Figs. 3 and 4:
///
/// * each step's own price;
/// * on Type-B under the pipelined schedule, the operand-prefetch credit
///   of a [`SequenceOp::may_overlap`] neighbour, capped by the
///   predecessor's own cycles and by the running total;
/// * on Type-A, one register access and interrupt per modular operation;
/// * on Type-B, one composite issue and interrupt per sequence;
/// * the operation counters.
///
/// Three callers feed it: [`Platform::execute`](crate::Platform::execute)
/// passes each executed step's cycles from the coprocessor's leaf table,
/// [`SequencePricing`] passes its static per-op table, and the search
/// pass advances one walk per candidate prefix, step by step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    hierarchy: Hierarchy,
    /// Prefetch credit one independent neighbour pair can earn.
    overlap_budget: u64,
    interrupt_cycles: u64,
    issue_cycles: u64,
    /// The previous step's own cycles (the cap on the next credit).
    prev_cycles: u64,
    report: ExecutionReport,
}

impl Walk {
    /// An empty walk over `bits`-bit operands under `cost` and `hierarchy`.
    pub(crate) fn new(cost: &CostModel, bits: usize, hierarchy: Hierarchy) -> Self {
        // Under the pipelined schedule the Type-B sequencer prefetches the
        // next step's operand words from the data memory while the current
        // step's MAC tail drains — one limb-stream worth of memory cycles
        // per independent neighbour pair. Type-A cannot overlap anything
        // because control returns to the MicroBlaze between steps.
        let overlap_budget = if hierarchy == Hierarchy::TypeB && cost.is_pipelined() {
            cost.limbs(bits) as u64 * cost.mem_cycles
        } else {
            0
        };
        Walk {
            hierarchy,
            overlap_budget,
            interrupt_cycles: cost.interrupt_cycles,
            issue_cycles: cost.issue_cycles,
            prev_cycles: 0,
            report: ExecutionReport::default(),
        }
    }

    /// Charges one step costing `cycles` on its own; `overlaps` says
    /// whether the sequencer may prefetch its operands under the previous
    /// step.
    pub(crate) fn step(&mut self, op: &SequenceOp, overlaps: bool, cycles: u64) {
        let report = &mut self.report;
        if overlaps {
            let credit = self.overlap_budget.min(self.prev_cycles).min(report.cycles);
            report.cycles -= credit;
            report.overlapped_cycles += credit;
        }
        report.cycles += cycles;
        self.prev_cycles = cycles;
        match op {
            SequenceOp::MontMul { .. } => report.modmuls += 1,
            SequenceOp::ModAdd { .. } => report.modadds += 1,
            SequenceOp::ModSub { .. } => report.modsubs += 1,
            // The decoder handles copies without the MicroBlaze.
            SequenceOp::Copy { .. } => return,
        }
        if self.hierarchy == Hierarchy::TypeA {
            report.cycles += self.interrupt_cycles;
            report.interrupts += 1;
            report.register_accesses += 1;
        }
    }

    /// Cycles charged so far, before the Type-B tail.
    pub(crate) fn cycles(&self) -> u64 {
        self.report.cycles
    }

    /// Walks `ops` in order, taking each step's own cycles from
    /// `step_cycles`, and closes the sequence.
    pub(crate) fn run(
        mut self,
        ops: &[SequenceOp],
        mut step_cycles: impl FnMut(&SequenceOp) -> u64,
    ) -> ExecutionReport {
        let mut prev: Option<&SequenceOp> = None;
        for op in ops {
            let overlaps = prev.is_some_and(|p| SequenceOp::may_overlap(p, op));
            self.step(op, overlaps, step_cycles(op));
            prev = Some(op);
        }
        if self.hierarchy == Hierarchy::TypeB {
            self.report.cycles += self.interrupt_cycles + self.issue_cycles;
            self.report.interrupts += 1;
            self.report.register_accesses += 1;
        }
        self.report
    }
}

/// The platform's Montgomery domain for one modulus, built once per driver
/// call: `R = 2^{w·s} mod p` for the datapath's word width `w` and limb
/// count `s`, the constants that move values into and out of it, and the
/// host Montgomery parameters whose [`MontgomeryParams::run`] computes every
/// leaf's value on the stack context of the modulus's width.
pub(crate) struct Domain {
    pub(crate) host: MontgomeryParams,
    /// `R mod p`: 1 in the platform domain.
    r: BigUint,
    /// `R·R_h mod p` for the host radix `R_h = 2^{64·⌈n/64⌉}`: one host
    /// product with it multiplies by `R`.
    enter: BigUint,
    /// `R_h·R⁻¹ mod p`: one host product with it divides by `R`.
    leave: BigUint,
    /// `R_h²·R⁻¹ mod p`, when the host radix differs from the platform's
    /// `R`.
    to_platform: Option<BigUint>,
}

impl Domain {
    /// The domain of `modulus` on `cost`'s datapath.
    ///
    /// # Panics
    ///
    /// Panics unless the modulus is odd and greater than 1.
    pub(crate) fn new(cost: &CostModel, modulus: &BigUint) -> Self {
        let host = MontgomeryParams::new(modulus)
            .expect("Montgomery multiplication needs an odd modulus > 1");
        let r_bits = cost.word_bits * cost.limbs(modulus.bit_len());
        let r = BigUint::one().shl_bits(r_bits) % modulus;
        let r_inv = mod_inv(&r, modulus).expect("R is invertible for odd moduli");
        let r_h = host.one_mont();
        let to_platform = (LIMB_BITS * host.num_limbs() != r_bits)
            .then(|| mod_mul(&mod_mul(&r_h, &r_h, modulus), &r_inv, modulus));
        Domain {
            enter: mod_mul(&r, &r_h, modulus),
            leave: mod_mul(&r_h, &r_inv, modulus),
            r,
            to_platform,
            host,
        }
    }

    pub(crate) fn modulus(&self) -> &BigUint {
        self.host.modulus()
    }

    /// This domain on the backend `r` for one driver call on
    /// `coprocessor`: its constants lowered once, and no leaf priced yet.
    pub(crate) fn leaves<'a, R: ResidueOps>(
        &'a self,
        r: &'a R,
        coprocessor: &'a Coprocessor,
    ) -> Leaves<'a, R> {
        let lower = |v: &BigUint| r.lower(v);
        Leaves {
            r,
            coprocessor,
            modulus: self.modulus(),
            bits: self.modulus().bit_len(),
            p: lower(self.modulus()),
            zero: lower(&BigUint::zero()),
            one: lower(&self.r),
            enter: lower(&self.enter),
            leave: lower(&self.leave),
            to_platform: self.to_platform.as_ref().map(lower),
            prices: [None; 5],
        }
    }
}

/// One driver call's leaves on the backend `R`: the domain's constants in
/// `R`'s elements, and the cycles of each leaf shape the call has met,
/// read from the coprocessor's table on first use.
pub(crate) struct Leaves<'a, R: ResidueOps> {
    r: &'a R,
    coprocessor: &'a Coprocessor,
    modulus: &'a BigUint,
    bits: usize,
    p: R::Elem,
    zero: R::Elem,
    one: R::Elem,
    enter: R::Elem,
    leave: R::Elem,
    to_platform: Option<R::Elem>,
    /// Cycles per shape: MM, MA without and with its correction, MS
    /// without and with its add-back.
    prices: [Option<u64>; 5],
}

impl<R: ResidueOps> Leaves<'_, R> {
    /// 0, the filler of unused slots.
    pub(crate) fn zero(&self) -> R::Elem {
        self.zero.clone()
    }

    /// `R mod p`: 1 in the platform domain.
    pub(crate) fn one(&self) -> R::Elem {
        self.one.clone()
    }

    /// `v·R mod p`: a residue in the platform's Montgomery domain.
    pub(crate) fn enter(&self, v: &R::Elem) -> R::Elem {
        self.r.mont_mul(v, &self.enter)
    }

    /// `v·R⁻¹ mod p`: a platform-domain value back as a plain residue.
    pub(crate) fn leave(&self, v: &R::Elem) -> R::Elem {
        self.r.mont_mul(v, &self.leave)
    }

    /// The cycles of `leaf` at this call's operand length.
    fn cycles(&mut self, leaf: Leaf) -> u64 {
        let index = match leaf {
            Leaf::MontMul => 0,
            Leaf::ModAdd { corrected } => 1 + usize::from(corrected),
            Leaf::ModSub { added_back } => 3 + usize::from(added_back),
        };
        let (coprocessor, bits) = (self.coprocessor, self.bits);
        *self.prices[index].get_or_insert_with(|| coprocessor.leaf_cycles(leaf, bits))
    }

    /// The value of one MM, MA or MS step on `x` and `y` and its cycles.
    /// MM is `x·y·R⁻¹ mod p`: one host product, or two through `R_h²·R⁻¹`
    /// where the radices differ. The leaf shape follows from the operands:
    /// an MA took its correction iff its result is below `x`, and an MS
    /// added `p` back iff `x < y`. Debug builds also run the step at
    /// register level and check both.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not reduced or `op` is a copy.
    fn step(&mut self, op: &SequenceOp, x: &R::Elem, y: &R::Elem) -> (R::Elem, u64) {
        assert!(x < &self.p && y < &self.p, "operands must be reduced");
        let r = self.r;
        let (value, leaf) = match op {
            SequenceOp::MontMul { .. } => {
                let xy = r.mont_mul(x, y);
                let value = match &self.to_platform {
                    Some(c) => r.mont_mul(&xy, c),
                    None => xy,
                };
                (value, Leaf::MontMul)
            }
            SequenceOp::ModAdd { .. } => {
                let sum = r.add(x, y);
                let corrected = sum < *x;
                (sum, Leaf::ModAdd { corrected })
            }
            SequenceOp::ModSub { .. } => (r.sub(x, y), Leaf::ModSub { added_back: x < y }),
            SequenceOp::Copy { .. } => unreachable!("a copy is no coprocessor leaf"),
        };
        let cycles = self.cycles(leaf);
        if cfg!(debug_assertions) {
            let (x, y) = (r.lift(x), r.lift(y));
            let reference = self.coprocessor.reference(leaf, &x, &y, self.modulus);
            debug_assert_eq!(
                (reference.value, reference.cycles),
                (r.lift(&value), cycles),
                "register-level {leaf:?} at {} bits diverged from the host value or the leaf table",
                self.bits
            );
        }
        (value, cycles)
    }
}

/// Executes `ops` against `slots` (values reduced modulo the domain's
/// modulus) on the leaves' backend, walking them under `hierarchy`. Each
/// step's value comes from host arithmetic and its cycles from the
/// coprocessor's leaf table; debug builds also run every step at register
/// level and check both.
///
/// Montgomery products operate on whatever representation the slots are
/// in; callers that need plain-domain results convert (see `Platform`).
///
/// # Panics
///
/// Panics if a slot index is out of range or an operand is not reduced.
pub(crate) fn execute<R: ResidueOps>(
    leaves: &mut Leaves<'_, R>,
    hierarchy: Hierarchy,
    slots: &mut [R::Elem],
    ops: &[SequenceOp],
) -> ExecutionReport {
    let coprocessor = leaves.coprocessor;
    let cost = coprocessor.cost();
    Walk::new(cost, leaves.bits, hierarchy).run(ops, |op| {
        let (dst, [a, b]) = match *op {
            SequenceOp::Copy { dst, src } => {
                slots[dst] = slots[src].clone();
                return cost.copy_cycles();
            }
            _ => (op.dest(), op.sources()),
        };
        let (value, cycles) = leaves.step(op, &slots[a], &slots[b]);
        slots[dst] = value;
        cycles
    })
}

/// Static cycle pricing of level-2 sequences — the scorer of the
/// superoptimizing search pass.
///
/// [`SequencePricing::sequence_cycles`] feeds the executing platform's
/// walk a static per-op table instead of computing any values, so a
/// candidate reordering can be priced in microseconds instead of
/// milliseconds. Its prices are read from the leaf table of the
/// coprocessor that will run the sequences — the table execution charges
/// from — so they follow its core count (Fig. 5); the
/// `pricing_matches_the_executing_engine` test pins it cycle-identical to
/// execution on every sequence kind.
///
/// Prices are taken at the *calibrated* case (no MA correction, no MS
/// add-back — the constant-time dual-path case, and Table 1's reported
/// one). Under the conditional-correction ablation individual runs can
/// pay a data-dependent correction block on top, but that surcharge is
/// order-invariant, so the ranking the search derives from this pricing
/// is unaffected.
#[derive(Debug, Clone, Copy)]
pub struct SequencePricing {
    mont_mul: u64,
    mod_add: u64,
    mod_sub: u64,
    copy: u64,
    walk: Walk,
}

impl SequencePricing {
    /// Prices sequences of `bits`-bit operands on `coprocessor` under
    /// `hierarchy`.
    pub fn new(coprocessor: &Coprocessor, bits: usize, hierarchy: Hierarchy) -> Self {
        let cost = coprocessor.cost();
        SequencePricing {
            mont_mul: coprocessor.mont_mul_cycles(bits),
            mod_add: coprocessor.mod_add_cycles(bits),
            mod_sub: coprocessor.mod_sub_cycles(bits),
            copy: cost.copy_cycles(),
            walk: Walk::new(cost, bits, hierarchy),
        }
    }

    /// The execution price of one step, before overlap credits and
    /// hierarchy overheads.
    pub fn op_cycles(&self, op: &SequenceOp) -> u64 {
        match op {
            SequenceOp::MontMul { .. } => self.mont_mul,
            SequenceOp::ModAdd { .. } => self.mod_add,
            SequenceOp::ModSub { .. } => self.mod_sub,
            SequenceOp::Copy { .. } => self.copy,
        }
    }

    /// An empty walk under this pricing's hierarchy and operand length.
    pub(crate) fn walk(&self) -> Walk {
        self.walk
    }

    /// Total cycles executing `ops` would charge.
    pub fn sequence_cycles(&self, ops: &[SequenceOp]) -> u64 {
        self.walk.run(ops, |op| self.op_cycles(op)).cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`execute`] on the heap reference backend.
    fn execute_heap(
        cp: &Coprocessor,
        hierarchy: Hierarchy,
        domain: &Domain,
        slots: &mut [BigUint],
        ops: &[SequenceOp],
    ) -> ExecutionReport {
        execute(&mut domain.leaves(&domain.host, cp), hierarchy, slots, ops)
    }

    fn setup() -> (Coprocessor, Domain, Vec<BigUint>) {
        let cp = Coprocessor::new(CostModel::paper(), 4);
        let domain = Domain::new(cp.cost(), &BigUint::from(1_000_000_007u64));
        let slots = vec![
            BigUint::from(5u64),
            BigUint::from(7u64),
            BigUint::zero(),
            BigUint::zero(),
        ];
        (cp, domain, slots)
    }

    #[test]
    fn sequence_ops_compute_modular_arithmetic() {
        let (cp, domain, mut slots) = setup();
        let ops = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModSub { dst: 3, a: 0, b: 1 },
            SequenceOp::Copy { dst: 0, src: 2 },
        ];
        let report = execute_heap(&cp, Hierarchy::TypeB, &domain, &mut slots, &ops);
        assert_eq!(slots[2].to_u64(), Some(12));
        assert_eq!(
            slots[3],
            bignum::mod_sub(&BigUint::from(5u64), &BigUint::from(7u64), domain.modulus())
        );
        assert_eq!(slots[0].to_u64(), Some(12));
        assert_eq!(report.modadds, 1);
        assert_eq!(report.modsubs, 1);
        assert_eq!(report.interrupts, 1, "Type-B raises a single interrupt");
    }

    #[test]
    fn type_a_pays_one_interrupt_per_op() {
        // Sequential baseline: without pipelining the two hierarchies run
        // the exact same events and differ only in synchronisation cost.
        let cp = Coprocessor::new(CostModel::paper_sequential(), 4);
        let domain = Domain::new(cp.cost(), &BigUint::from(1_000_000_007u64));
        let mut slots = vec![
            BigUint::from(5u64),
            BigUint::from(7u64),
            BigUint::zero(),
            BigUint::zero(),
        ];
        let ops = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
        ];
        let a = execute_heap(&cp, Hierarchy::TypeA, &domain, &mut slots.clone(), &ops);
        let b = execute_heap(&cp, Hierarchy::TypeB, &domain, &mut slots, &ops);
        assert_eq!(a.interrupts, 3);
        assert_eq!(b.interrupts, 1);
        assert!(a.cycles > b.cycles);
        assert_eq!(a.overlapped_cycles, 0);
        assert_eq!(b.overlapped_cycles, 0);
        let overhead_a = 3 * cp.cost().interrupt_cycles;
        let overhead_b = cp.cost().interrupt_cycles + cp.cost().issue_cycles;
        assert_eq!(a.cycles - overhead_a, b.cycles - overhead_b);
    }

    #[test]
    fn pipelined_type_b_overlaps_independent_neighbours() {
        let (cp, domain, mut slots) = setup();
        // Independent neighbours overlap; a dependent pair must not.
        let independent = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
        ];
        let dependent = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 2, b: 1 },
        ];
        let ri = execute_heap(
            &cp,
            Hierarchy::TypeB,
            &domain,
            &mut slots.clone(),
            &independent,
        );
        let rd = execute_heap(&cp, Hierarchy::TypeB, &domain, &mut slots, &dependent);
        assert!(ri.overlapped_cycles > 0, "independent pair must overlap");
        assert_eq!(rd.overlapped_cycles, 0, "RAW hazard forbids overlap");
        assert!(ri.cycles < rd.cycles);
        // Type-A never overlaps: control bounces back to the MicroBlaze.
        let (_, _, mut fresh_slots) = setup();
        let ra = execute_heap(
            &cp,
            Hierarchy::TypeA,
            &domain,
            &mut fresh_slots,
            &independent,
        );
        assert_eq!(ra.overlapped_cycles, 0);
    }

    #[test]
    fn pricing_matches_the_executing_engine() {
        // The scorer must charge exactly what execution charges — on
        // every sequence kind, at both hierarchies, for paper-shaped
        // operand lengths, on every core count (MM latency follows the
        // core count, Fig. 5). Pinned under the dual-path calibration,
        // whose MA/MS microcode is constant-time by construction;
        // conditional correction adds a data-dependent, order-invariant
        // surcharge the scorer deliberately prices at the calibrated case.
        use crate::program::{compile, OpKind};
        let cost = CostModel::paper();
        for cores in [1, 2, 4] {
            let cp = Coprocessor::new(cost, cores);
            for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
                for (kind, bits) in [
                    (OpKind::Fp6Mul, 170),
                    (OpKind::EccPaGeneral, 160),
                    (OpKind::EccPaMixed, 160),
                    (OpKind::EccPd, 160),
                    (OpKind::EccPdFast, 256),
                ] {
                    let program = compile(kind, bits, &cost);
                    let domain = Domain::new(&cost, &crate::coprocessor::sample_modulus(bits));
                    let mut slots: Vec<BigUint> = (0..program.slot_budget())
                        .map(|i| BigUint::from((i % 251 + 1) as u64))
                        .collect();
                    let report = execute_heap(&cp, hierarchy, &domain, &mut slots, program.ops());
                    let pricing = SequencePricing::new(&cp, bits, hierarchy);
                    assert_eq!(
                        pricing.sequence_cycles(program.ops()),
                        report.cycles,
                        "{kind:?} at {bits} bits under {hierarchy:?} on {cores} cores"
                    );
                }
            }
        }
    }

    #[test]
    fn montgomery_step_keeps_values_reduced() {
        let (cp, domain, mut slots) = setup();
        let ops = [SequenceOp::MontMul { dst: 2, a: 0, b: 1 }];
        let report = execute_heap(&cp, Hierarchy::TypeB, &domain, &mut slots, &ops);
        assert!(slots[2] < *domain.modulus());
        assert_eq!(report.modmuls, 1);
    }
}
