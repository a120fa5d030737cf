//! The cycle-cost model of the platform.
//!
//! Table 1 of the paper fixes a handful of platform constants (interrupt
//! handling 184 cycles, 74 MHz clock); the per-instruction costs below are
//! the knobs of the simulator. [`CostModel::paper`] is calibrated so the
//! simulated modular-operation latencies land close to Table 1; the
//! benchmark harness also sweeps these knobs for the ablation studies.
//!
//! The model is layered — each layer is independently selectable so every
//! fidelity step can be ablated (see `cargo run -p bench --bin ablations`):
//!
//! 1. **Sequential** (via [`CostModel::paper_sequential`]) — every
//!    MAC/ALU/memory event is charged one after the other. This is the
//!    original flat model, kept bit-identical as the ablation baseline; it
//!    overestimates the 170-bit Montgomery multiplication at 311 cycles
//!    against Table 1's 193.
//! 2. **Pipelined** ([`ScheduleModel::Pipelined`]) — the datapath is
//!    modelled as explicit stages (operand fetch through the single-port
//!    memory, MAC issue into a depth-`k` pipeline, writeback) with
//!    per-stage occupancy, so independent events overlap exactly as the
//!    FPGA's RTL overlaps them. This puts the 170-bit MM at 198 cycles,
//!    within ~3% of Table 1.
//! 3. **Dual-path MA/MS** ([`CostModel::dual_path_addsub`]) — modular
//!    addition/subtraction run as a speculative constant-time adder: the
//!    plain result and the corrected result (`a+b` and `a+b-p`, or `a-b`
//!    and `a-b+p`) are computed in parallel on the two compute pipes and a
//!    1-cycle select commits the reduced one, instead of a data-dependent
//!    correction branch. This is what closes the Table 2 torus rows to
//!    within ±5% of the paper.
//! 4. **Mixed-coordinate ECC point addition**
//!    ([`CostModel::mixed_coordinate_pa`]) — the scalar-multiplication
//!    ladder's point addition uses the 13-multiplication mixed sequence
//!    (`Z2 = 1`, affine addend; the `madd` formula,
//!    [`crate::program::OpKind::EccPaMixed`]) instead of the general
//!    16-multiplication Jacobian addition. This is what closes Table 2's
//!    ECC PA rows. The general sequence stays available regardless of the
//!    knob (for non-normalized inputs and for the `pa_mixed_sweep`
//!    ablation); the knob selects which sequence the *ladder driver* runs.
//! 5. **Fast `a = -3` point doubling** ([`CostModel::fast_pd`], the last
//!    sequence-level layer) — the ladder's point doubling uses the
//!    shortened 8-multiplication `a = -3` sequence (the `dbl-2001-b`
//!    formula, [`crate::program::OpKind::EccPdFast`]) instead of the
//!    general 10-multiplication Jacobian doubling, on curves where
//!    `a = -3` holds. This is what closes Table 2's Type-A ECC PD row (the
//!    on-the-fly generated doubling); the general doubling stays
//!    available regardless of the knob (it is the InsRom1 image whose
//!    Type-B cycle count matches Table 2, and the fallback for curves
//!    with arbitrary `a`).
//! 6. **Superoptimizing sequence search**
//!    ([`CostModel::sequence_search`]) — [`crate::program::compile`]
//!    appends a beam-search pass over instruction reorderings and slot
//!    reallocations, scored by the same overlap accounting the engine
//!    charges, keeping the searched order only when strictly cheaper.
//!
//! [`CostModel::paper`] enables layers 2–5 together; layer 6 stays off in
//! the published calibration (the paper rows are gated bit-identical) and
//! is exercised by the `search_sweep` ablation.
//!
//! # Example
//!
//! The three calibrations are plain values — compare them directly:
//!
//! ```
//! use platform::{Coprocessor, CostModel};
//!
//! let dual = Coprocessor::new(CostModel::paper(), 4);
//! let corr = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
//! let flat = Coprocessor::new(CostModel::paper_sequential(), 4);
//!
//! // Speculative dual-path MA beats the conditional-correction model,
//! // which beats the flat sequential accounting.
//! assert!(dual.mod_add_cycles(170) <= corr.mod_add_cycles(170));
//! assert!(corr.mod_add_cycles(170) <= flat.mod_add_cycles(170));
//! ```

/// How per-event costs combine into operation latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScheduleModel {
    /// Every MAC/ALU/memory event is charged sequentially (the flat model
    /// used before the pipelined schedule existed; ablation baseline).
    Sequential,
    /// Event-driven schedule with per-stage occupancy: the MAC unit is a
    /// depth-`k` pipeline, the single-port memory serialises fetches, and
    /// independent events overlap (operand fetch of step `i+1` under the
    /// MAC tail of step `i`).
    #[default]
    Pipelined,
}

/// Per-instruction and per-event cycle costs of the simulated platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cycles for one multiply-accumulate (the FPGA's dedicated multiplier).
    pub mac_cycles: u64,
    /// Cycles for one ALU add/sub/move instruction.
    pub alu_cycles: u64,
    /// Cycles for one access to the single-port data memory.
    pub mem_cycles: u64,
    /// Cycles for transferring one word between cores (via the data memory).
    pub transfer_cycles: u64,
    /// Fixed per-modular-operation sequencing overhead inside the
    /// coprocessor (instruction fetch/dispatch by the decoder).
    pub dispatch_cycles: u64,
    /// Cycles for one MicroBlaze register-A access plus interrupt handling
    /// (paper: 184).
    pub interrupt_cycles: u64,
    /// Cycles for the MicroBlaze to issue one instruction to register A
    /// without waiting for an interrupt (Type-B composite dispatch).
    pub issue_cycles: u64,
    /// Clock frequency in MHz (paper: 74 MHz on the XC2VP30).
    pub clock_mhz: f64,
    /// Datapath word width in bits (the radix `2^w` of Algorithm 1).
    pub word_bits: usize,
    /// Depth of the MAC pipeline: a multiply-accumulate issued at cycle `t`
    /// retires at `t + mac_pipeline_depth`, and independent MACs issue
    /// back-to-back at one per cycle. Only consulted by the pipelined
    /// schedule; must be at least 1.
    pub mac_pipeline_depth: u64,
    /// Model modular addition/subtraction as a speculative dual-path
    /// constant-time adder: both candidate results (`a+b` / `a+b-p` for MA,
    /// `a-b` / `a-b+p` for MS) issue in parallel on the two compute pipes
    /// and a 1-cycle select commits the reduced one. With `false` the
    /// decoder dispatches the correction block sequentially after the
    /// primary pass (the pre-dual-path behaviour, kept for ablations).
    /// Only consulted by the pipelined schedule.
    pub dual_path_addsub: bool,
    /// Drive the scalar-multiplication ladder's point additions with the
    /// mixed-coordinate sequence (affine addend, 13 MM) instead of the
    /// general Jacobian addition (16 MM). The ladder always keeps its
    /// addend affine, so the substitution is exact; with `false` the
    /// ladder runs the general sequence (the pre-mixed behaviour, kept
    /// for ablations and as the fallback for non-normalized inputs).
    pub mixed_coordinate_pa: bool,
    /// Drive the scalar-multiplication ladder's point doublings with the
    /// shortened `a = -3` sequence (8 MM + 12 MA/MS) instead of the
    /// general Jacobian doubling (10 MM + 15 MA/MS) whenever the curve
    /// satisfies `a = -3`. With `false` — or on curves with arbitrary
    /// `a` — the ladder runs the general doubling (the InsRom1 image,
    /// kept for ablations and as the Table 2 Type-B PD calibration).
    pub fast_pd: bool,
    /// Run the superoptimizing search pass after validation: a beam
    /// search over instruction reorderings and slot reallocations, scored
    /// by the same pipelined overlap accounting the engine charges, with
    /// the searched order kept only when it is strictly cheaper than the
    /// recorded one. Off in [`CostModel::paper`] so the paper
    /// reproduction rows stay bit-identical; the `search_sweep` ablation
    /// turns it on to report discovered wins.
    pub sequence_search: bool,
    /// Beam width of the search pass: how many partial schedules survive
    /// each expansion step. Wider beams explore more reorderings at
    /// compile time; `SEARCH_BEAM_WIDTH` narrows it in CI smoke runs.
    pub search_beam_width: usize,
    /// Which schedule combines the per-event costs above.
    pub schedule: ScheduleModel,
}

impl CostModel {
    /// The calibration used to reproduce Tables 1–3 (pipelined schedule).
    pub fn paper() -> Self {
        CostModel {
            mac_cycles: 1,
            alu_cycles: 1,
            mem_cycles: 1,
            transfer_cycles: 2,
            dispatch_cycles: 6,
            interrupt_cycles: 184,
            issue_cycles: 10,
            clock_mhz: 74.0,
            word_bits: 16,
            mac_pipeline_depth: 2,
            dual_path_addsub: true,
            mixed_coordinate_pa: true,
            fast_pd: true,
            sequence_search: false,
            search_beam_width: 8,
            schedule: ScheduleModel::Pipelined,
        }
    }

    /// The flat sequential calibration (every event charged one after the
    /// other, no speculative adder). Kept as a selectable baseline for the
    /// ablation study; this was the only model before the pipelined
    /// schedule existed, and its cycle counts stay bit-identical.
    pub fn paper_sequential() -> Self {
        CostModel {
            schedule: ScheduleModel::Sequential,
            dual_path_addsub: false,
            mixed_coordinate_pa: false,
            fast_pd: false,
            ..CostModel::paper()
        }
    }

    /// Returns this model with the given schedule selected.
    pub fn with_schedule(self, schedule: ScheduleModel) -> Self {
        CostModel { schedule, ..self }
    }

    /// Returns this model with the speculative dual-path adder switched on
    /// or off (the conditional-correction model of the MA/MS blocks).
    pub fn with_dual_path(self, dual_path_addsub: bool) -> Self {
        CostModel {
            dual_path_addsub,
            ..self
        }
    }

    /// Returns `true` if modular addition/subtraction use the speculative
    /// dual-path adder (requires the pipelined schedule; the sequential
    /// baseline always charges the correction block).
    pub fn is_dual_path(&self) -> bool {
        self.dual_path_addsub && self.is_pipelined()
    }

    /// Returns this model with the ladder's point addition switched between
    /// the mixed-coordinate sequence (`true`) and the general Jacobian
    /// sequence (`false`, the ablation baseline).
    pub fn with_mixed_pa(self, mixed_coordinate_pa: bool) -> Self {
        CostModel {
            mixed_coordinate_pa,
            ..self
        }
    }

    /// Returns `true` if the scalar-multiplication ladder drives its point
    /// additions through the mixed-coordinate sequence. Unlike the
    /// dual-path knob this is a *sequence* choice, not a schedule choice,
    /// so it is honoured under both schedules.
    pub fn uses_mixed_pa(&self) -> bool {
        self.mixed_coordinate_pa
    }

    /// Returns this model with the ladder's point doubling switched
    /// between the shortened `a = -3` sequence (`true`) and the general
    /// Jacobian doubling (`false`, the ablation baseline).
    pub fn with_fast_pd(self, fast_pd: bool) -> Self {
        CostModel { fast_pd, ..self }
    }

    /// Returns `true` if the scalar-multiplication ladder drives its
    /// point doublings through the shortened `a = -3` sequence on
    /// eligible curves. Like the mixed-PA knob this is a *sequence*
    /// choice, honoured under both schedules.
    pub fn uses_fast_pd(&self) -> bool {
        self.fast_pd
    }

    /// Returns this model with the superoptimizing search pass switched
    /// on or off.
    pub fn with_search(self, sequence_search: bool) -> Self {
        CostModel {
            sequence_search,
            ..self
        }
    }

    /// Returns this model with the given search beam width.
    pub fn with_beam_width(self, search_beam_width: usize) -> Self {
        CostModel {
            search_beam_width,
            ..self
        }
    }

    /// Returns `true` if the compile pipeline runs the superoptimizing
    /// search pass. Like the dual-path adder this requires the pipelined
    /// schedule — the search is scored by the overlap credit, which the
    /// flat sequential model never grants, so under it there is nothing
    /// to search for.
    pub fn uses_search(&self) -> bool {
        self.sequence_search && self.is_pipelined()
    }

    /// Returns `true` if the pipelined schedule is selected.
    pub fn is_pipelined(&self) -> bool {
        self.schedule == ScheduleModel::Pipelined
    }

    /// A stable 64-bit fingerprint over every knob — the cost-model
    /// component of the program-cache key
    /// ([`crate::program::ProgramCache`]). Equal models always produce
    /// equal fingerprints; the hash is a hand-rolled FNV-1a fold over the
    /// raw knob values (no dependence on `std` hasher internals), so the
    /// value is stable across runs and toolchains.
    pub fn fingerprint(&self) -> u64 {
        fn eat(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = eat(h, self.mac_cycles);
        h = eat(h, self.alu_cycles);
        h = eat(h, self.mem_cycles);
        h = eat(h, self.transfer_cycles);
        h = eat(h, self.dispatch_cycles);
        h = eat(h, self.interrupt_cycles);
        h = eat(h, self.issue_cycles);
        h = eat(h, self.clock_mhz.to_bits());
        h = eat(h, self.word_bits as u64);
        h = eat(h, self.mac_pipeline_depth);
        h = eat(h, self.dual_path_addsub as u64);
        h = eat(h, self.mixed_coordinate_pa as u64);
        h = eat(h, self.fast_pd as u64);
        h = eat(
            h,
            match self.schedule {
                ScheduleModel::Sequential => 0,
                ScheduleModel::Pipelined => 1,
            },
        );
        h = eat(h, self.sequence_search as u64);
        h = eat(h, self.search_beam_width as u64);
        h
    }

    /// Number of limbs `s = ceil(bits / w)` an operand of `bits` bits
    /// occupies on this datapath.
    pub fn limbs(&self, bits: usize) -> usize {
        bits.div_ceil(self.word_bits)
    }

    /// Cycles of one decoder-driven data-memory copy: a read and a write.
    pub(crate) fn copy_cycles(&self) -> u64 {
        2 * self.mem_cycles
    }

    /// Converts a cycle count to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e3)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = CostModel::paper();
        assert_eq!(c.interrupt_cycles, 184);
        assert_eq!(c.clock_mhz, 74.0);
        assert_eq!(c, CostModel::default());
        assert!(c.is_pipelined());
        assert!(c.mac_pipeline_depth >= 1);
    }

    #[test]
    fn sequential_baseline_differs_only_in_schedule_layers() {
        let seq = CostModel::paper_sequential();
        assert_eq!(seq.schedule, ScheduleModel::Sequential);
        assert!(!seq.is_pipelined());
        assert!(!seq.is_dual_path());
        assert!(!seq.uses_mixed_pa());
        assert!(!seq.uses_fast_pd());
        assert_eq!(
            seq.with_schedule(ScheduleModel::Pipelined)
                .with_dual_path(true)
                .with_mixed_pa(true)
                .with_fast_pd(true),
            CostModel::paper()
        );
    }

    #[test]
    fn fast_pd_is_a_sequence_choice_not_a_schedule_choice() {
        assert!(CostModel::paper().uses_fast_pd());
        assert!(!CostModel::paper().with_fast_pd(false).uses_fast_pd());
        // Like mixed PA, the knob survives a schedule switch: the fast
        // doubling is valid microcode under the sequential model too.
        assert!(CostModel::paper_sequential()
            .with_fast_pd(true)
            .uses_fast_pd());
    }

    #[test]
    fn fingerprints_separate_every_knob() {
        let base = CostModel::paper();
        assert_eq!(base.fingerprint(), CostModel::paper().fingerprint());
        let variants = [
            base.with_dual_path(false),
            base.with_mixed_pa(false),
            base.with_fast_pd(false),
            base.with_search(true),
            base.with_search(true).with_beam_width(4),
            base.with_schedule(ScheduleModel::Sequential),
            CostModel {
                mac_pipeline_depth: 4,
                ..base
            },
            CostModel {
                interrupt_cycles: 92,
                ..base
            },
            CostModel {
                clock_mhz: 100.0,
                ..base
            },
            CostModel::paper_sequential(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.fingerprint(), base.fingerprint(), "variant {i}");
            // Stable across calls.
            assert_eq!(v.fingerprint(), v.fingerprint());
        }
        // All variants are pairwise distinct too.
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(
                    variants[i].fingerprint(),
                    variants[j].fingerprint(),
                    "{i} vs {j}"
                );
            }
        }
    }

    #[test]
    fn mixed_pa_is_a_sequence_choice_not_a_schedule_choice() {
        assert!(CostModel::paper().uses_mixed_pa());
        assert!(!CostModel::paper().with_mixed_pa(false).uses_mixed_pa());
        // Unlike dual-path, the knob survives a schedule switch: the mixed
        // sequence is valid microcode under the sequential model too.
        assert!(CostModel::paper_sequential()
            .with_mixed_pa(true)
            .uses_mixed_pa());
    }

    #[test]
    fn search_is_off_in_both_calibrations_and_requires_the_pipeline() {
        // The paper rows are gated bit-identical, so the published
        // calibration must never run the search pass.
        assert!(!CostModel::paper().uses_search());
        assert!(!CostModel::paper_sequential().uses_search());
        assert!(CostModel::paper().with_search(true).uses_search());
        // The search is scored by the pipelined overlap credit; under the
        // flat schedule the knob is inert, like dual-path.
        assert!(!CostModel::paper_sequential()
            .with_search(true)
            .uses_search());
        assert_eq!(CostModel::paper().search_beam_width, 8);
        assert_eq!(CostModel::paper().with_beam_width(3).search_beam_width, 3);
    }

    #[test]
    fn dual_path_requires_the_pipelined_schedule() {
        assert!(CostModel::paper().is_dual_path());
        assert!(!CostModel::paper().with_dual_path(false).is_dual_path());
        // The knob is inert under the sequential schedule: the flat model
        // has no pipes to speculate on.
        let seq_with_knob = CostModel::paper_sequential().with_dual_path(true);
        assert!(!seq_with_knob.is_dual_path());
    }

    #[test]
    fn limb_counts() {
        let c = CostModel::paper();
        assert_eq!(c.limbs(170), 11);
        assert_eq!(c.limbs(160), 10);
        assert_eq!(c.limbs(1024), 64);
        assert_eq!(c.limbs(1), 1);
    }

    #[test]
    fn time_conversion() {
        let c = CostModel::paper();
        // 74 000 cycles at 74 MHz = 1 ms.
        assert!((c.cycles_to_ms(74_000) - 1.0).abs() < 1e-9);
    }
}
