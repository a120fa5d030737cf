//! Level-2 sequence programs stored in InsRom1 (Type-B) or generated by the
//! MicroBlaze on the fly (Type-A).
//!
//! Five sequences matter for the evaluation:
//!
//! * the `Fp6` multiplication of Section 2.2.2 (18 MM + ~60 MA/MS),
//! * the general Jacobian ECC point addition (PA, 16 MM),
//! * the mixed-coordinate ECC point addition (`Z2 = 1`, 13 MM — the
//!   variant whose cycle count matches Table 2; the `madd` formula,
//!   [`OpKind::EccPaMixed`]),
//! * the Jacobian ECC point doubling (PD, 10 MM — the InsRom1 doubling
//!   whose **Type-B** cycle count matches Table 2) and
//! * the shortened `a = -3` doubling (8 MM + 12 MA/MS — the on-the-fly
//!   generated doubling whose **Type-A** cycle count matches Table 2; the
//!   `dbl-2001-b` formula, [`OpKind::EccPdFast`]).
//!
//! None of them is written here. Each is one formula body over
//! [`field::FieldOps`] — [`field::karatsuba_fp6`] and the four point
//! formulas of [`ecc::formulas`] — which the host field, the fixed-width
//! backend and this module's recorder all run. Recording turns every field
//! operation of a body into one program step, in body order, writes each
//! output's final value straight into its layout slot, and compacts the
//! temporaries with the lowest-first slot reassignment the search pass
//! also uses. [`crate::program::compile`] builds every program from its
//! recording, and [`OpKind::stats`] counts it.
//!
//! The *order* of a sequence matters beyond correctness: under the
//! pipelined schedule the Type-B sequencer prefetches the next step's
//! operands while the current step drains, but only across neighbours
//! with no read-after-write dependency ([`SequenceOp::may_overlap`]). The
//! bodies are written in the InsRom order that calibrates Table 2, and the
//! unit tests pin a prefetch floor per program so a future rewrite cannot
//! silently destroy the Type-B overlap.
//!
//! # Example
//!
//! Inspect the paper's `Fp6` multiplication sequence:
//!
//! ```
//! use platform::program::OpKind;
//!
//! let stats = OpKind::Fp6Mul.stats();
//! assert_eq!(stats.modmuls, 18);          // Section 2.2.2: 18M per Fp6 mult
//! assert!(stats.modaddsubs() >= 55);      // ≈ 60 A
//! // More than half of the adjacent step pairs are hazard-free, which is
//! // what the Type-B sequencer's operand prefetch feeds on.
//! assert!(stats.independent_neighbour_pairs * 2 > stats.steps);
//! ```

use std::cell::RefCell;

use ecc::formulas;
use field::FieldOps;

use crate::hierarchy::SequenceOp;
use crate::program::{reassign_slots, OpKind, ValueDag};

/// Slot layout of the `Fp6` multiplication sequence.
///
/// | slots | contents |
/// |---|---|
/// | 0..6   | operand A coefficients `a0..a5` |
/// | 6..12  | operand B coefficients `b0..b5` |
/// | 12..18 | result coefficients `r0..r5` |
/// | 18..   | temporaries |
pub const FP6_MUL_SLOTS: usize = 96;

/// Slot layout of the ECC sequences (Jacobian coordinates).
///
/// PA (general): `0..3` = (X1, Y1, Z1), `3..6` = (X2, Y2, Z2), `6..9` =
/// result, `9` = curve coefficient `a`, `10..` = temporaries.
/// PA (mixed): `0..3` = (X1, Y1, Z1), `3..5` = (X2, Y2) in **plain**
/// (canonical) form, `5` = the Montgomery lift constant `R² mod p`,
/// `6..9` = result, `9..` temporaries.
/// PD (general and fast): `0..3` = (X1, Y1, Z1), `3..6` = result, `6` =
/// `a` (unused by the fast `a = -3` doubling, kept for layout symmetry),
/// `7..` temporaries.
pub const ECC_SLOTS: usize = 40;

// Operand names of the `Fp6` multiplication's factors and product.
pub(crate) const FP6_A: [&str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];
pub(crate) const FP6_B: [&str; 6] = ["b0", "b1", "b2", "b3", "b4", "b5"];
const FP6_R: [&str; 6] = ["r0", "r1", "r2", "r3", "r4", "r5"];

// Operand names of the ECC sequences: the Jacobian input point, the
// general addition's Jacobian addend, the mixed addition's plain-form
// affine addend with its lift constant `R² mod p`, the curve coefficient
// `a`, and the result.
pub(crate) const POINT_1: [&str; 3] = ["X1", "Y1", "Z1"];
pub(crate) const POINT_2: [&str; 3] = ["X2", "Y2", "Z2"];
pub(crate) const AFFINE_2: [&str; 3] = ["X2", "Y2", "R2"];
pub(crate) const CURVE_A: [&str; 1] = ["a"];
const RESULT: [&str; 3] = ["X3", "Y3", "Z3"];

// The RSA ladder's products: one-step Type-A sequences the MicroBlaze
// issues itself, over a two-slot bank holding the accumulator and the
// base.
pub(crate) const RSA_ACC: usize = 0;
pub(crate) const RSA_BASE: usize = 1;
pub(crate) const RSA_SQUARE: &[SequenceOp] = &[SequenceOp::MontMul {
    dst: RSA_ACC,
    a: RSA_ACC,
    b: RSA_ACC,
}];
pub(crate) const RSA_MULTIPLY: &[SequenceOp] = &[SequenceOp::MontMul {
    dst: RSA_ACC,
    a: RSA_ACC,
    b: RSA_BASE,
}];

/// Records the formula body behind `kind` as its program: the steps in
/// executed order, the named operand slots (inputs and outputs) and the
/// output slots.
pub(crate) fn author(kind: OpKind) -> (Vec<SequenceOp>, Vec<(&'static str, usize)>, Vec<usize>) {
    let mut rec = Recorder::new(kind);
    match kind {
        OpKind::Fp6Mul => {
            let a = rec.inputs(FP6_A, 0);
            let b = rec.inputs(FP6_B, 6);
            let r = field::karatsuba_fp6(&rec, a.each_ref(), b.each_ref());
            rec.finish(FP6_R, 12, r)
        }
        OpKind::EccPaGeneral => {
            let p = rec.inputs(POINT_1, 0);
            let q = rec.inputs(POINT_2, 3);
            rec.inputs(CURVE_A, 9);
            let sum = formulas::pa_general(&rec, p.each_ref(), q.each_ref()).sum;
            rec.finish(RESULT, 6, sum)
        }
        OpKind::EccPaMixed => {
            let p = rec.inputs(POINT_1, 0);
            let [x2, y2, r2] = rec.inputs(AFFINE_2, 3);
            // The MicroBlaze stores the affine addend once, in plain form;
            // the program lifts it into the Montgomery domain with the
            // preloaded R² — two products the formula itself never sees.
            let q = [rec.mul(&x2, &r2), rec.mul(&y2, &r2)];
            let sum = formulas::madd(&rec, p.each_ref(), q.each_ref()).sum;
            rec.finish(RESULT, 6, sum)
        }
        OpKind::EccPd => {
            let p = rec.inputs(POINT_1, 0);
            let [a] = rec.inputs(CURVE_A, 6);
            let twice = formulas::pd_general(&rec, p.each_ref(), &a);
            rec.finish(RESULT, 3, twice)
        }
        OpKind::EccPdFast => {
            let p = rec.inputs(POINT_1, 0);
            // The shared doubling layout keeps `a` in slot 6; a = -3 is
            // folded into the formula, which never reads it.
            rec.inputs(CURVE_A, 6);
            let twice = formulas::dbl_2001_b(&rec, p.each_ref());
            rec.finish(RESULT, 3, twice)
        }
    }
}

/// The recording backend: every field operation a body performs appends
/// one step. Elements are slots — a layout slot for each input, and a
/// fresh *virtual* slot (numbered from the slot budget up) for each
/// step's result, so the recorded stream assigns every value once until
/// [`Recorder::finish`] maps it onto real slots.
struct Recorder {
    kind: OpKind,
    operands: Vec<(&'static str, usize)>,
    steps: RefCell<Vec<SequenceOp>>,
}

impl Recorder {
    fn new(kind: OpKind) -> Self {
        Recorder {
            kind,
            operands: Vec::new(),
            steps: RefCell::new(Vec::new()),
        }
    }

    /// Declares named input operands on consecutive layout slots.
    fn inputs<const N: usize>(&mut self, names: [&'static str; N], first: usize) -> [usize; N] {
        std::array::from_fn(|i| {
            self.operands.push((names[i], first + i));
            first + i
        })
    }

    fn emit(&self, op: impl FnOnce(usize) -> SequenceOp) -> usize {
        let mut steps = self.steps.borrow_mut();
        let dst = self.kind.slot_budget() + steps.len();
        steps.push(op(dst));
        dst
    }

    /// Declares the body's results as named outputs on consecutive layout
    /// slots and returns the recording [`author`] hands out: the step
    /// producing each output writes its slot directly, and every other
    /// value takes the lowest free temporary.
    ///
    /// # Panics
    ///
    /// Panics if the body needs more live temporaries than the kind's
    /// slot budget holds — a formula bug, not a user error.
    fn finish<const N: usize>(
        mut self,
        names: [&'static str; N],
        first: usize,
        results: [usize; N],
    ) -> (Vec<SequenceOp>, Vec<(&'static str, usize)>, Vec<usize>) {
        let budget = self.kind.slot_budget();
        assert!(
            results.iter().all(|&r| r >= budget),
            "{}: every output must be computed by the body",
            self.kind
        );
        let outputs: Vec<usize> = (first..first + N).collect();
        for (&name, &slot) in names.iter().zip(&outputs) {
            self.operands.push((name, slot));
        }
        let place = |s: usize| {
            results
                .iter()
                .position(|&r| r == s)
                .map_or(s, |i| outputs[i])
        };
        let ops: Vec<SequenceOp> = self
            .steps
            .into_inner()
            .into_iter()
            .map(|op| {
                let [a, b] = op.sources();
                op.with_slots(place(op.dest()), place(a), place(b))
            })
            .collect();
        let order: Vec<u32> = (0..ops.len() as u32).collect();
        let dag = ValueDag::of(&ops, &outputs);
        let ops = reassign_slots(&ops, &order, &dag, &self.operands, &outputs, budget)
            .unwrap_or_else(|| {
                panic!("{}: temporary slots exhausted (budget {budget})", self.kind)
            });
        (ops, self.operands, outputs)
    }
}

impl FieldOps for Recorder {
    type Elem = usize;

    fn mul(&self, &a: &usize, &b: &usize) -> usize {
        self.emit(|dst| SequenceOp::MontMul { dst, a, b })
    }

    fn add(&self, &a: &usize, &b: &usize) -> usize {
        self.emit(|dst| SequenceOp::ModAdd { dst, a, b })
    }

    fn sub(&self, &a: &usize, &b: &usize) -> usize {
        self.emit(|dst| SequenceOp::ModSub { dst, a, b })
    }

    fn copy(&self, src: usize) -> usize {
        self.emit(|dst| SequenceOp::Copy { dst, src })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramStats;

    fn pairs(ops: &[SequenceOp]) -> usize {
        ProgramStats::of(ops).independent_neighbour_pairs
    }

    #[test]
    fn fp6_sequence_matches_paper_operation_count() {
        let stats = OpKind::Fp6Mul.stats();
        assert_eq!(stats.modmuls, 18, "Section 2.2.2: 18M per Fp6 mult");
        let adds = stats.modaddsubs();
        assert!((55..=70).contains(&adds), "≈60A expected, found {adds}");
        assert_eq!(stats.copies, 10, "the decoder copies of the InsRom image");
        // Slot indices stay within the declared layout.
        assert!(stats.slot_high_water <= FP6_MUL_SLOTS);
    }

    #[test]
    fn sequences_keep_their_prefetch_overlap_floor() {
        // The Type-B calibration depends on the sequencer finding enough
        // hazard-free neighbour pairs to prefetch across; pin a floor per
        // sequence so reorderings cannot silently serialise Table 2.
        let density = |kind: OpKind| {
            let stats = kind.stats();
            (stats.independent_neighbour_pairs, stats.steps - 1)
        };
        let (fp6_pairs, fp6_total) = density(OpKind::Fp6Mul);
        assert!(
            fp6_pairs * 2 > fp6_total,
            "Fp6 mult: only {fp6_pairs}/{fp6_total} independent neighbour pairs"
        );
        let (pa_pairs, pa_total) = density(OpKind::EccPaGeneral);
        assert!(
            pa_pairs * 3 > pa_total,
            "ECC PA: only {pa_pairs}/{pa_total} independent neighbour pairs"
        );
        // The mixed sequence's Table 2 calibration leans on ten prefetch
        // pairs (2876 = 13 MM + 11 MA/MS + dispatch − 10 overlaps at 160
        // bits); pin the floor so a reorder cannot silently serialise it.
        let (mx_pairs, mx_total) = density(OpKind::EccPaMixed);
        assert!(
            mx_pairs >= 10,
            "ECC mixed PA: only {mx_pairs}/{mx_total} independent neighbour pairs"
        );
        // The doubling sequence is naturally chain-heavier (E and Y3 are
        // long dependent chains), so its floor sits lower.
        let (pd_pairs, pd_total) = density(OpKind::EccPd);
        assert!(
            pd_pairs * 4 > pd_total,
            "ECC PD: only {pd_pairs}/{pd_total} independent neighbour pairs"
        );
        // The fast doubling's interleaved order is its Table 2 Type-B
        // figure: 15 of its 19 neighbour pairs prefetch.
        assert_eq!(density(OpKind::EccPdFast), (15, 19));
    }

    #[test]
    fn independent_pairs_ignore_copies_and_raw_hazards() {
        let independent = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
        ];
        assert_eq!(pairs(&independent), 1);
        let raw = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::ModAdd { dst: 3, a: 2, b: 1 },
        ];
        assert_eq!(pairs(&raw), 0);
        let copy = [
            SequenceOp::ModAdd { dst: 2, a: 0, b: 1 },
            SequenceOp::Copy { dst: 4, src: 0 },
            SequenceOp::ModAdd { dst: 3, a: 0, b: 1 },
        ];
        assert_eq!(pairs(&copy), 0);
    }

    #[test]
    fn ecc_sequences_have_expected_shape() {
        let stats = |kind: OpKind| kind.stats();
        let pa = stats(OpKind::EccPaGeneral);
        let pa_mixed = stats(OpKind::EccPaMixed);
        let pd = stats(OpKind::EccPd);
        let pd_fast = stats(OpKind::EccPdFast);
        // Jacobian addition 16 MM, mixed addition 13 MM (11 madd
        // multiplications + 2 Montgomery lifts), doubling 10 MM, fast
        // a = -3 doubling 8 MM; PD must stay cheaper than both additions.
        assert_eq!(pa.modmuls, 16);
        assert_eq!(pa_mixed.modmuls, 13);
        assert_eq!(pa_mixed.modaddsubs(), 11);
        assert_eq!(pd.modmuls, 10);
        assert_eq!(pd_fast.modmuls, 8);
        assert_eq!(pd_fast.modaddsubs(), 12);
        assert!(pa.steps > pd.steps);
        assert!(
            pa_mixed.steps < pa.steps,
            "the mixed sequence must be strictly shorter than the general one"
        );
        assert!(
            pd_fast.steps < pd.steps,
            "the fast doubling must be strictly shorter than the general one"
        );
        for s in [pa, pa_mixed, pd, pd_fast] {
            assert!(s.slot_high_water <= ECC_SLOTS);
            assert_eq!(s.copies, 0);
        }
    }

    #[test]
    fn outputs_are_written_once_with_their_final_value() {
        // Recording writes each output slot exactly once, by the step that
        // produces its final value — no trailing copies, no scratch use.
        for kind in OpKind::ALL {
            let (ops, _, outputs) = author(kind);
            for out in outputs {
                let writes: Vec<_> = ops.iter().filter(|op| op.dest() == out).collect();
                assert_eq!(writes.len(), 1, "{kind}: slot {out} written {writes:?}");
                assert!(!writes[0].is_copy(), "{kind}: slot {out} ends in a copy");
            }
        }
    }

    #[test]
    fn mixed_pa_reads_only_the_mixed_operand_slots() {
        // The mixed program must never touch the general layout's Z2 slot
        // as a coordinate: its operand block is X2 (3), Y2 (4) and the R²
        // lift constant (5), and the two lifts are the only steps that may
        // read the plain-form slots 3 and 4.
        let (ops, _, _) = author(OpKind::EccPaMixed);
        for (idx, op) in ops.iter().enumerate() {
            for src in op.sources() {
                if src == 3 || src == 4 || src == 5 {
                    assert!(
                        idx < 2,
                        "step {idx} reads raw operand slot {src} after the Montgomery lifts"
                    );
                }
            }
            assert!(op.dest() >= 6, "step {idx} overwrites an input slot");
        }
    }

    #[test]
    fn fast_pd_never_reads_the_curve_coefficient() {
        // a = -3 is folded into the factored slope: the program must not
        // touch slot 6 (`a`), and must not overwrite its inputs.
        for op in author(OpKind::EccPdFast).0 {
            assert!(!op.sources().contains(&6), "fast PD reads `a`: {op:?}");
            assert_ne!(op.dest(), 6);
            assert!(op.dest() >= 3, "fast PD overwrites an input: {op:?}");
        }
    }
}
