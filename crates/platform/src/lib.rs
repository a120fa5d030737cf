//! Simulator of the paper's MicroBlaze + multicore coprocessor platform.
//!
//! The DATE 2008 evaluation runs on a Xilinx Virtex-II Pro: a MicroBlaze
//! controller talks to a programmable multicore coprocessor through
//! memory-mapped registers and an interrupt line (Fig. 2), and the torus /
//! ECC / RSA operations are decomposed into modular multiplications (MM)
//! and modular additions/subtractions (MA/MS) executed by the cores. We
//! cannot synthesise the FPGA here, so this crate provides an
//! instruction-level, cycle-counting model of the same structure (see
//! DESIGN.md for the substitution argument):
//!
//! * [`isa`] — the load/store core ISA (7 paper instructions plus the
//!   dual-path adder's `AddC`/`Select` extension) with per-instruction
//!   hazard metadata;
//! * [`cost`] — the per-event cycle constants and the layered model
//!   selection: flat sequential baseline, pipelined stage schedule, and
//!   the speculative dual-path MA/MS adder
//!   ([`CostModel::dual_path_addsub`]);
//! * [`schedule`] — the event-driven pipelined datapath model: explicit
//!   stages (single-port operand fetch, depth-`k` MAC pipeline, dual
//!   compute pipes, writeback) with per-stage occupancy, selectable
//!   against the flat sequential baseline via [`ScheduleModel`];
//! * [`Coprocessor`] — the cores, the single-port data memory and the
//!   microcoded modular operations (multicore Montgomery multiplication
//!   with the carry-local schedule of Fig. 5, single-core modular
//!   addition/subtraction), executed at register level and checked
//!   against the host `bignum` implementation. A leaf's cycles depend
//!   only on its shape (operation, operand length, correction path), so
//!   each shape executes once into the coprocessor's leaf table, which
//!   every sequence, [`SequencePricing`] and the Table 1 probes read,
//!   while the values come from host arithmetic on the stack words of
//!   the modulus's width ([`bignum::MontgomeryParams::run`]);
//! * [`programs`] — the recorder that turns the level-2 formula bodies
//!   (`Fp6` multiplication, ECC point addition/doubling, the fast
//!   `a = -3` doubling — each written once over [`field::FieldOps`] and
//!   shared with the host) into coprocessor programs whose hazard-free
//!   neighbour density feeds the Type-B sequencer's operand prefetch;
//! * [`program`] — the typed program IR: [`program::compile`] records a
//!   formula body, validates it and, when the cost model asks, runs the
//!   superoptimizing search (each pass leaving a [`program::PassTrace`]),
//!   producing the [`program::CompiledProgram`]s that a
//!   [`program::ProgramCache`] hands out once per
//!   `(OpKind, bits, cost-model)` key; each [`program::OpKind`] carries
//!   its EFD formula's name, op counts and constraints, from which
//!   [`program::OpKind::best_for`] derives the cheapest applicable
//!   formula per `(curve, cost model)`;
//! * [`Platform`] — the MicroBlaze-level view: Type-A and Type-B control
//!   hierarchies (Figs. 3 and 4), the single [`Platform::execute`] path
//!   every composite operation flows through — one sequencer walk that
//!   charges per-op latency, Type-B prefetch overlap and the hierarchy's
//!   interrupt overheads, and that [`SequencePricing`] also drives from a
//!   static table — and the level-1 drivers for torus exponentiation, ECC
//!   scalar multiplication and RSA exponentiation that regenerate
//!   Tables 1–3, whose ladders keep their operands resident in the
//!   platform's Montgomery domain between steps.
//!
//! # Example
//!
//! ```
//! use platform::{CostModel, Hierarchy, Platform};
//!
//! let platform = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
//! let report = platform.montgomery_multiplication_report(170);
//! assert!(report.cycles > 0);
//! println!("170-bit MM: {} cycles", report.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coprocessor;
pub mod cost;
mod hierarchy;
pub mod isa;
mod platform;
pub mod program;
pub mod programs;
mod report;
pub mod schedule;

pub use coprocessor::{sample_modulus, Coprocessor, ModOpResult};
pub use cost::{CostModel, ScheduleModel};
pub use hierarchy::{Hierarchy, SequenceOp, SequencePricing};
pub use platform::Platform;
pub use program::{compile, CompiledProgram, OpKind, PassTrace, ProgramCache, ProgramStats};
pub use programs::{ECC_SLOTS, FP6_MUL_SLOTS};
pub use report::ExecutionReport;
