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

use bignum::BigUint;

use crate::coprocessor::Coprocessor;
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

/// Executes level-2 sequences on the coprocessor under a given hierarchy.
#[derive(Debug, Clone)]
pub struct SequenceEngine {
    hierarchy: Hierarchy,
}

impl SequenceEngine {
    /// Creates an engine for the given hierarchy.
    pub fn new(hierarchy: Hierarchy) -> Self {
        SequenceEngine { hierarchy }
    }

    /// The hierarchy this engine models.
    pub fn hierarchy(&self) -> Hierarchy {
        self.hierarchy
    }

    /// Executes `ops` against `slots` (values reduced modulo `modulus`),
    /// returning the cycle/operation accounting.
    ///
    /// Montgomery products operate on whatever representation the slots are
    /// in; callers that need plain-domain results are responsible for the
    /// domain conversions (see `Platform`).
    ///
    /// # Panics
    ///
    /// Panics if a slot index is out of range.
    pub fn run(
        &self,
        coprocessor: &Coprocessor,
        modulus: &BigUint,
        slots: &mut [BigUint],
        ops: &[SequenceOp],
    ) -> ExecutionReport {
        let mut report = ExecutionReport::default();
        // Under the pipelined schedule the Type-B sequencer prefetches the
        // next step's operand words from the data memory while the current
        // step's MAC tail drains — one limb-stream worth of memory cycles
        // per independent neighbour pair. Eligibility is decided by
        // `SequenceOp::may_overlap` (RAW hazards and decoder copies forbid
        // it); Type-A cannot overlap anything because control returns to
        // the MicroBlaze between steps.
        let cost = coprocessor.cost();
        let overlap_budget = if self.hierarchy == Hierarchy::TypeB && cost.is_pipelined() {
            cost.limbs(modulus.bit_len()) as u64 * cost.mem_cycles
        } else {
            0
        };
        let mut prev: Option<(&SequenceOp, u64)> = None;
        for op in ops {
            if let Some((prev_op, prev_cycles)) = prev {
                if SequenceOp::may_overlap(prev_op, op) {
                    // A prefetch can hide at most under the predecessor's
                    // own duration.
                    let credit = overlap_budget.min(prev_cycles).min(report.cycles);
                    report.cycles -= credit;
                    report.overlapped_cycles += credit;
                }
            }
            let cycles_before = report.cycles;
            match *op {
                SequenceOp::MontMul { dst, a, b } => {
                    let r = coprocessor.mont_mul(&slots[a], &slots[b], modulus);
                    slots[dst] = r.value;
                    report.cycles += r.cycles;
                    report.modmuls += 1;
                }
                SequenceOp::ModAdd { dst, a, b } => {
                    let r = coprocessor.mod_add(&slots[a], &slots[b], modulus);
                    slots[dst] = r.value;
                    report.cycles += r.cycles;
                    report.modadds += 1;
                }
                SequenceOp::ModSub { dst, a, b } => {
                    let r = coprocessor.mod_sub(&slots[a], &slots[b], modulus);
                    slots[dst] = r.value;
                    report.cycles += r.cycles;
                    report.modsubs += 1;
                }
                SequenceOp::Copy { dst, src } => {
                    slots[dst] = slots[src].clone();
                    // Two memory accesses through the decoder.
                    report.cycles += 2 * coprocessor.cost().mem_cycles;
                }
            }
            prev = Some((op, report.cycles - cycles_before));
            // Type-A: every modular operation is issued through register A
            // and completes with an interrupt back to the MicroBlaze.
            if self.hierarchy == Hierarchy::TypeA && !matches!(op, SequenceOp::Copy { .. }) {
                report.cycles += coprocessor.cost().interrupt_cycles;
                report.interrupts += 1;
                report.register_accesses += 1;
            }
        }
        // Type-B: a single composite instruction and a single interrupt per
        // sequence.
        if self.hierarchy == Hierarchy::TypeB {
            report.cycles += coprocessor.cost().interrupt_cycles + coprocessor.cost().issue_cycles;
            report.interrupts += 1;
            report.register_accesses += 1;
        }
        report
    }
}

/// Static cycle pricing of level-2 sequences — the scorer of the
/// superoptimizing search pass.
///
/// [`SequencePricing::sequence_cycles`] replays exactly the accounting
/// walk the executing sequence engine charges (per-op prices, the prefetch
/// credit of [`SequenceOp::may_overlap`] neighbours capped by the
/// predecessor's own duration, the hierarchy's interrupt overheads)
/// without executing any arithmetic, so a candidate reordering can be
/// priced in microseconds instead of milliseconds. It lives next to the
/// engine so the two walks cannot drift apart; the
/// `pricing_matches_the_executing_engine` test pins them cycle-identical
/// on every sequence kind.
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
    overlap_budget: u64,
    /// Type-A: one interrupt + register access after every non-copy op.
    per_op_overhead: u64,
    /// Type-B: one composite issue + interrupt for the whole sequence.
    tail: u64,
}

impl SequencePricing {
    /// Prices sequences of `bits`-bit operands under `cost` and
    /// `hierarchy`, probing a paper-shaped 4-core coprocessor (per-op
    /// latencies do not depend on the core count consulted here beyond
    /// what `cost` already fixes).
    pub fn new(cost: &crate::cost::CostModel, bits: usize, hierarchy: Hierarchy) -> Self {
        let probe = Coprocessor::new(*cost, 4);
        let overlap_budget = if hierarchy == Hierarchy::TypeB && cost.is_pipelined() {
            cost.limbs(bits) as u64 * cost.mem_cycles
        } else {
            0
        };
        SequencePricing {
            mont_mul: probe.mont_mul_cycles(bits),
            mod_add: probe.mod_add_cycles(bits),
            mod_sub: probe.mod_sub_cycles(bits),
            copy: 2 * cost.mem_cycles,
            overlap_budget,
            per_op_overhead: if hierarchy == Hierarchy::TypeA {
                cost.interrupt_cycles
            } else {
                0
            },
            tail: if hierarchy == Hierarchy::TypeB {
                cost.interrupt_cycles + cost.issue_cycles
            } else {
                0
            },
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

    /// The prefetch credit one independent neighbour pair can earn (the
    /// limb-stream memory cycles hidden under the predecessor's tail).
    pub fn overlap_budget(&self) -> u64 {
        self.overlap_budget
    }

    /// Total cycles the engine would charge for `ops` — the same walk
    /// the executing sequence engine performs, arithmetic elided.
    pub fn sequence_cycles(&self, ops: &[SequenceOp]) -> u64 {
        let mut cycles = 0u64;
        let mut prev: Option<(&SequenceOp, u64)> = None;
        for op in ops {
            if let Some((prev_op, prev_cycles)) = prev {
                if SequenceOp::may_overlap(prev_op, op) {
                    cycles -= self.overlap_budget.min(prev_cycles).min(cycles);
                }
            }
            let own = self.op_cycles(op);
            cycles += own;
            prev = Some((op, own));
            if !op.is_copy() {
                cycles += self.per_op_overhead;
            }
        }
        cycles + self.tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn setup() -> (Coprocessor, BigUint, Vec<BigUint>) {
        let cp = Coprocessor::new(CostModel::paper(), 4);
        let p = BigUint::from(1_000_000_007u64);
        let slots = vec![
            BigUint::from(5u64),
            BigUint::from(7u64),
            BigUint::zero(),
            BigUint::zero(),
        ];
        (cp, p, slots)
    }

    #[test]
    fn sequence_ops_compute_modular_arithmetic() {
        let (cp, p, mut slots) = setup();
        let engine = SequenceEngine::new(Hierarchy::TypeB);
        let ops = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModSub { dst: 3, a: 0, b: 1 },
            SequenceOp::Copy { dst: 0, src: 2 },
        ];
        let report = engine.run(&cp, &p, &mut slots, &ops);
        assert_eq!(slots[2].to_u64(), Some(12));
        assert_eq!(
            slots[3],
            bignum::mod_sub(&BigUint::from(5u64), &BigUint::from(7u64), &p)
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
        let p = BigUint::from(1_000_000_007u64);
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
        let a = SequenceEngine::new(Hierarchy::TypeA).run(&cp, &p, &mut slots.clone(), &ops);
        let b = SequenceEngine::new(Hierarchy::TypeB).run(&cp, &p, &mut slots, &ops);
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
        let (cp, p, mut slots) = setup();
        // Independent neighbours overlap; a dependent pair must not.
        let independent = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
        ];
        let dependent = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 2, b: 1 },
        ];
        let engine = SequenceEngine::new(Hierarchy::TypeB);
        let ri = engine.run(&cp, &p, &mut slots.clone(), &independent);
        let rd = engine.run(&cp, &p, &mut slots, &dependent);
        assert!(ri.overlapped_cycles > 0, "independent pair must overlap");
        assert_eq!(rd.overlapped_cycles, 0, "RAW hazard forbids overlap");
        assert!(ri.cycles < rd.cycles);
        // Type-A never overlaps: control bounces back to the MicroBlaze.
        let (_, _, mut fresh_slots) = setup();
        let ra = SequenceEngine::new(Hierarchy::TypeA).run(&cp, &p, &mut fresh_slots, &independent);
        assert_eq!(ra.overlapped_cycles, 0);
    }

    #[test]
    fn pricing_matches_the_executing_engine() {
        // The scorer must charge exactly what the engine charges — on
        // every sequence kind, at both hierarchies, for paper-shaped
        // operand lengths. (Pinned under the dual-path calibration, whose
        // MA/MS microcode is constant-time by construction; conditional
        // correction adds a data-dependent, order-invariant surcharge the
        // scorer deliberately prices at the calibrated case.)
        use crate::program::{compile, OpKind};
        let cost = CostModel::paper();
        let cp = Coprocessor::new(cost, 4);
        for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
            let engine = SequenceEngine::new(hierarchy);
            for (kind, bits) in [
                (OpKind::Fp6Mul, 170),
                (OpKind::EccPaGeneral, 160),
                (OpKind::EccPaMixed, 160),
                (OpKind::EccPd, 160),
                (OpKind::EccPdFast, 256),
            ] {
                let program = compile(kind, bits, &cost);
                let modulus = crate::coprocessor::sample_modulus(bits);
                let mut slots: Vec<BigUint> = (0..program.slot_budget())
                    .map(|i| BigUint::from((i % 251 + 1) as u64))
                    .collect();
                let report = engine.run(&cp, &modulus, &mut slots, program.ops());
                let pricing = SequencePricing::new(&cost, bits, hierarchy);
                assert_eq!(
                    pricing.sequence_cycles(program.ops()),
                    report.cycles,
                    "{kind:?} at {bits} bits under {hierarchy:?}"
                );
            }
        }
    }

    #[test]
    fn montgomery_step_keeps_values_reduced() {
        let (cp, p, mut slots) = setup();
        let engine = SequenceEngine::new(Hierarchy::TypeB);
        let ops = [SequenceOp::MontMul { dst: 2, a: 0, b: 1 }];
        let report = engine.run(&cp, &p, &mut slots, &ops);
        assert!(slots[2] < p);
        assert_eq!(report.modmuls, 1);
    }
}
