//! The multicore coprocessor: modular operations as microcoded sequences.
//!
//! The coprocessor executes three leaf operations on behalf of the
//! MicroBlaze — Montgomery modular multiplication (MM), modular addition
//! (MA) and modular subtraction (MS) — for arbitrary operand lengths
//! (Section 3.2: "modular multiplications and additions with arbitrary
//! operand length"). Additions and subtractions run on a single core
//! (Section 4 explains that carry propagation makes multicore addition
//! unattractive); multiplications use the carry-local multicore schedule of
//! Fig. 5.
//!
//! [`Coprocessor::mont_mul`], [`Coprocessor::mod_add`] and
//! [`Coprocessor::mod_sub`] are the register-level reference: each builds
//! its microcode, executes it word by word and accounts cycles per
//! microinstruction with single-port memory serialisation. A leaf's cycle
//! count depends only on its shape — the operation, the operand length
//! and, for MA/MS, the correction path — so the coprocessor keeps one leaf
//! table per cost model and core count: each shape executes once, on
//! [`sample_modulus`], and the sequences the platform runs take their
//! cycles from the table — each driver call reads a shape's entry at most
//! once — and their values from host arithmetic on the stack words of the
//! modulus's width (debug builds still execute every leaf and check
//! both).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bignum::{mod_inv, BigUint};

use crate::cost::CostModel;
use crate::isa::{Core, MicroOp, Program};
use crate::schedule::{self, MontPipeline};

/// Result of one modular operation on the coprocessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModOpResult {
    /// The numeric result (a reduced residue; for MM it is the Montgomery
    /// product `x·y·R^{-1} mod p`).
    pub value: BigUint,
    /// Total clock cycles consumed.
    pub cycles: u64,
    /// Microinstructions executed across all cores.
    pub instructions: u64,
    /// Accesses to the single-port data memory.
    pub memory_accesses: u64,
}

/// One leaf shape of the coprocessor: the operation and, for MA/MS, the
/// correction path the decoder takes. With the operand length it
/// determines the leaf's cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Leaf {
    /// Montgomery multiplication.
    MontMul,
    /// Modular addition; `corrected` when the sum reaches the modulus.
    ModAdd { corrected: bool },
    /// Modular subtraction; `added_back` when the minuend is the smaller.
    ModSub { added_back: bool },
}

/// The multicore coprocessor model.
///
/// Cloning a `Coprocessor` shares its leaf table, so clones execute each
/// leaf shape once between them.
#[derive(Debug, Clone)]
pub struct Coprocessor {
    cost: CostModel,
    num_cores: usize,
    /// Cycles per `(leaf, bits)`, each filled by one register-level run.
    leaves: Arc<Mutex<HashMap<(Leaf, usize), u64>>>,
}

impl Coprocessor {
    /// Creates a coprocessor with `num_cores` embedded cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(cost: CostModel, num_cores: usize) -> Self {
        assert!(num_cores >= 1, "the coprocessor needs at least one core");
        assert!(
            cost.word_bits >= 4 && cost.word_bits <= 16,
            "the simulator models datapath widths of 4..=16 bits"
        );
        Coprocessor {
            cost,
            num_cores,
            leaves: Arc::default(),
        }
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Number of embedded cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Splits a residue into `s` datapath words (little endian).
    fn to_words(&self, v: &BigUint, s: usize) -> Vec<u64> {
        let w = self.cost.word_bits;
        let mut words = Vec::with_capacity(s);
        let mut cur = v.clone();
        for _ in 0..s {
            let (q, r) = cur.div_rem_limb(1 << w);
            words.push(r as u64);
            cur = q;
        }
        debug_assert!(cur.is_zero(), "operand does not fit in {s} words");
        words
    }

    /// Reassembles a residue from datapath words.
    fn words_to_value(&self, words: &[u64]) -> BigUint {
        let w = self.cost.word_bits;
        let mut acc = BigUint::zero();
        for &word in words.iter().rev() {
            acc = &acc.shl_bits(w) + &BigUint::from(word);
        }
        acc
    }

    /// Montgomery modular multiplication `x·y·R^{-1} mod p` with
    /// `R = 2^{w·s}`, executed with the carry-local multicore schedule.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even (Montgomery requires `gcd(p, r) = 1`,
    /// Algorithm 1) or if an operand is not reduced.
    pub fn mont_mul(&self, x: &BigUint, y: &BigUint, modulus: &BigUint) -> ModOpResult {
        assert!(
            modulus.is_odd(),
            "Montgomery multiplication needs an odd modulus"
        );
        assert!(x < modulus && y < modulus, "operands must be reduced");
        let w = self.cost.word_bits;
        let s = self.cost.limbs(modulus.bit_len());
        let radix = 1u64 << w;
        let mask = radix - 1;

        // p' = -p^{-1} mod 2^w  (the per-modulus constant of Algorithm 1).
        let p_low = &BigUint::from(modulus.limbs()[0] as u64) % &BigUint::from(radix);
        let p_inv = mod_inv(&p_low, &BigUint::from(radix)).expect("odd modulus");
        let n_prime = (radix - p_inv.to_u64().expect("fits in a word")) & mask;

        let xw = self.to_words(x, s);
        let yw = self.to_words(y, s);
        let pw = self.to_words(modulus, s);

        // Limb ownership: contiguous, as even as possible, core 0 first.
        // Every active core owns at least two limbs so that the carry-local
        // schedule never defers a carry into the limb that determines T.
        let cores = self.num_cores.min((s / 2).max(1));
        let ranges = limb_ranges(s, cores);

        // Per-core architectural state of the schedule.
        let mut z = vec![0u64; s];
        let mut pending_carry = vec![0u128; cores];

        // Sequential accounting sums every event; the pipelined schedule
        // tracks per-stage occupancy in parallel and wins wherever hazards
        // permit overlap. Instruction and memory-access counts are schedule
        // independent (the same work retires either way).
        let mut seq_cycles: u64 = 0;
        let mut instructions: u64 = 0;
        let mut memory_accesses: u64 = 0;
        let core_limb_counts: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let mut pipe = MontPipeline::new(cores);

        // Operand words (X, P and the running Z) live in the per-core
        // register files for the duration of the multiplication, as in the
        // paper; only Y is streamed from the data memory, one word per
        // iteration, and T is broadcast by the decoder on the instruction
        // bus.

        for &y_i in yw.iter().take(s) {
            // ---- Phase A (core 0, serial): compute T. -------------------
            // u = z0 + x0*yi ; T = u * p' mod r
            let u = (z[0] as u128 + xw[0] as u128 * y_i as u128) & mask as u128;
            let t = ((u * n_prime as u128) & mask as u128) as u64;
            // 1 load (yi), 2 MAC, 2 AccOut-style ALU ops; T leaves on the bus.
            let phase_a_instr = 5u64;
            let phase_a_mem = 1u64;
            seq_cycles += 2 * self.cost.mac_cycles
                + 2 * self.cost.alu_cycles
                + phase_a_mem * self.cost.mem_cycles;
            instructions += phase_a_instr;
            memory_accesses += phase_a_mem;

            // The pipelined schedule advances all three stages (yi fetch,
            // T computation, limb accumulation + transfers) at once.
            pipe.iteration(&self.cost, &core_limb_counts);

            // ---- Phase B (all cores in parallel): accumulate limbs. ------
            // Each core j computes W[m] = z[m] + x[m]*yi + p[m]*T (+ pending
            // carry at its top limb), shifting results down by one word.
            // yi and T reach the cores on the instruction bus (no extra
            // data-memory traffic).
            let mut boundary_words = vec![0u64; cores];
            let mut phase_b_core_cycles = vec![0u64; cores];
            for (j, range) in ranges.iter().enumerate() {
                let mut carry: u128 = 0;
                let mut ops = 0u64;
                for m in range.start..range.end {
                    let mut acc = z[m] as u128
                        + xw[m] as u128 * y_i as u128
                        + pw[m] as u128 * t as u128
                        + carry;
                    // The pending carry from the previous iteration re-enters
                    // at this core's top limb (the carry-local trick).
                    if m == range.end - 1 {
                        acc += pending_carry[j];
                        ops += 1; // one extra AccAdd
                    }
                    let low = (acc & mask as u128) as u64;
                    carry = acc >> w;
                    if m == range.start {
                        // Lowest limb of the core: either dropped (core 0,
                        // global limb 0 — divisible by r by construction) or
                        // transferred to the previous core.
                        boundary_words[j] = low;
                        if j == 0 {
                            debug_assert_eq!(low, 0, "low word must vanish");
                        }
                    } else {
                        z[m - 1] = low;
                    }
                    // 2 MAC + 1 AccAdd (z) + 1 AccOut per limb.
                    ops += 4;
                }
                pending_carry[j] = carry;
                instructions += ops;
                phase_b_core_cycles[j] = ops * self.cost.mac_cycles;
            }
            // Parallel phase: the longest core determines the latency.
            seq_cycles += phase_b_core_cycles.iter().copied().max().unwrap_or(0);

            // ---- Phase C: word transfers between neighbouring cores. -----
            // Core j's lowest result word becomes core j-1's new top limb.
            for j in 1..cores {
                let dest_top = ranges[j - 1].end - 1;
                z[dest_top] = boundary_words[j];
            }
            // The global top limb holds no shifted word: its value is the
            // last core's pending carry, which re-enters next iteration and
            // is folded in after the loop.
            z[s - 1] = 0;
            let transfers = (cores - 1) as u64;
            seq_cycles += transfers * self.cost.transfer_cycles;
            instructions += 2 * transfers;
            memory_accesses += 2 * transfers;
        }

        // ---- Final fix-up: fold the remaining per-core carries. ----------
        // Core j's pending carry has the weight of the limb just above its
        // range in the final frame.
        let mut extra_top: u128 = 0;
        for (j, range) in ranges.iter().enumerate() {
            let mut carry = pending_carry[j];
            let mut m = range.end - 1;
            // The carry belongs one position above range.end - 1 after the
            // final shift, i.e. at index range.end - 1 + 1 - 1 = range.end - 1
            // of the *shifted* frame... which is exactly where the schedule
            // left a hole (the zeroed top limb). Add with propagation.
            loop {
                let sum = z[m] as u128 + carry;
                z[m] = (sum & ((1u128 << w) - 1)) as u64;
                carry = sum >> w;
                if carry == 0 {
                    break;
                }
                m += 1;
                if m >= s {
                    extra_top += carry;
                    break;
                }
            }
            instructions += 2;
            seq_cycles += 2 * self.cost.alu_cycles;
        }

        // ---- Conditional subtraction (Algorithm 1, lines 6-8). -----------
        let mut value = self.words_to_value(&z);
        if extra_top > 0 {
            value = &value + &BigUint::from(extra_top as u64).shl_bits(w * s);
        }
        // The decoder always schedules the subtraction sequence (constant
        // time): s SubB instructions plus s loads/stores on one core.
        let sub_instr = 3 * s as u64;
        let sub_mem = 2 * s as u64;
        let seq_sub = s as u64 * self.cost.alu_cycles + sub_mem * self.cost.mem_cycles;
        seq_cycles += seq_sub + self.cost.dispatch_cycles;
        instructions += sub_instr;
        memory_accesses += sub_mem;
        if value >= *modulus {
            value = &value - modulus;
        }

        let cycles = if self.cost.is_pipelined() {
            // Tail of the pipelined schedule: the per-core carry folds run
            // in parallel (distinct limb positions); the final subtraction's
            // P-loads prefetch under the MAC tail, the SubB borrow chain is
            // serial and the Z-stores stream one port-slot behind it.
            let fixup = 2 * self.cost.alu_cycles;
            let sub =
                (s as u64 * self.cost.alu_cycles + self.cost.alu_cycles + self.cost.mem_cycles)
                    .min(seq_sub);
            pipe.finish() + fixup + sub + self.cost.dispatch_cycles
        } else {
            seq_cycles
        };

        debug_assert!(value < *modulus);
        ModOpResult {
            value,
            cycles,
            instructions,
            memory_accesses,
        }
    }

    /// Pure data-dependency lower bound on the cycle count of one
    /// Montgomery multiplication at `bits` operand length: the `z0 → T`
    /// recurrence plus the serial borrow chain of the final subtraction.
    /// No schedule — pipelined or otherwise — can beat this.
    pub fn mont_mul_critical_path(&self, bits: usize) -> u64 {
        schedule::mont_critical_path_cycles(&self.cost, self.cost.limbs(bits))
    }

    /// Modular addition `(x + y) mod p` on a single core, executed at the
    /// register level through the core ISA.
    ///
    /// Under [`CostModel::is_dual_path`] the decoder dispatches the
    /// speculative constant-time adder: `x + y` (carry chain, primary
    /// compute pipe) and `x + y - p` (borrow chain, speculative pipe) run
    /// in parallel and a 1-cycle select per word commits the reduced
    /// result, so the cycle count is independent of whether the correction
    /// triggers. Otherwise the subtraction-of-p block is dispatched
    /// sequentially only when the carry flag reports an overflow past the
    /// modulus (the data-dependent pre-dual-path behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the operands are not reduced modulo `p`.
    pub fn mod_add(&self, x: &BigUint, y: &BigUint, modulus: &BigUint) -> ModOpResult {
        assert!(x < modulus && y < modulus, "operands must be reduced");
        let s = self.cost.limbs(modulus.bit_len());
        let sum = x + y;
        let needs_correction = sum >= *modulus;
        let value = if needs_correction {
            &sum - modulus
        } else {
            sum
        };
        let (program, select_path) = if self.cost.is_dual_path() {
            let pw = self.to_words(modulus, s);
            (
                self.dual_path_program(s, &pw, DualPathKind::Add),
                needs_correction,
            )
        } else {
            (self.add_like_program(s, needs_correction), false)
        };
        let report = self.run_single_core(&program, x, y, modulus, select_path);
        debug_assert_eq!(report.value, value, "register-level MA diverged from host");
        ModOpResult { value, ..report }
    }

    /// Modular subtraction `(x - y) mod p` on a single core.
    ///
    /// Under [`CostModel::is_dual_path`] both candidates (`x - y` on the
    /// borrow chain and `x - y + p` on the carry chain) run speculatively
    /// in parallel; otherwise the add-p-back block is dispatched only when
    /// the final borrow is set.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not reduced modulo `p`.
    pub fn mod_sub(&self, x: &BigUint, y: &BigUint, modulus: &BigUint) -> ModOpResult {
        assert!(x < modulus && y < modulus, "operands must be reduced");
        let needs_addback = x < y;
        let value = if needs_addback {
            &(x + modulus) - y
        } else {
            x - y
        };
        let s = self.cost.limbs(modulus.bit_len());
        let (program, select_path) = if self.cost.is_dual_path() {
            let pw = self.to_words(modulus, s);
            (
                self.dual_path_program(s, &pw, DualPathKind::Sub),
                needs_addback,
            )
        } else {
            (self.sub_like_program(s, needs_addback), false)
        };
        let report = self.run_single_core(&program, x, y, modulus, select_path);
        debug_assert_eq!(report.value, value, "register-level MS diverged from host");
        ModOpResult { value, ..report }
    }

    /// Builds the speculative dual-path MA/MS microcode: per word, both
    /// candidate paths issue (the primary chain and the speculative
    /// correction chain, which the scoreboard places on separate compute
    /// pipes) and a 1-cycle select commits the reduced word. The modulus
    /// words arrive as immediates on the instruction bus — the sequence is
    /// generated per modulus, exactly like the paper's InsRom microcode —
    /// so the single data-memory port only carries the two operand streams
    /// and the result writeback (`3s` accesses). The program shape is
    /// independent of the operand values: constant time by construction.
    ///
    /// Two register banks alternate across words, and each word's writeback
    /// is deferred past the next word's operand fetch (software
    /// pipelining), so the in-order single memory port never idles waiting
    /// for a select to resolve: the steady state is three port slots per
    /// word (two operand loads + one result store).
    fn dual_path_program(&self, s: usize, pw: &[u64], kind: DualPathKind) -> Program {
        let mut p = Program::new();
        let out_reg = |m: usize| ((m % 2) * 8) as u8 + 5;
        // Memory layout: [0..s) = X, [s..2s) = Y, [2s..3s) = P, [3s..4s) = Z.
        for (m, &p_word) in pw.iter().enumerate().take(s) {
            let bank = ((m % 2) * 8) as u8;
            let [rx, ry, r_primary, r_spec, rp, r_out] =
                [bank, bank + 1, bank + 2, bank + 3, bank + 4, bank + 5];
            p.push(MicroOp::Load {
                dst: rx,
                addr: m as u16,
            });
            p.push(MicroOp::Load {
                dst: ry,
                addr: (s + m) as u16,
            });
            if m > 0 {
                // Writeback of the previous word, deferred so the port
                // stays busy while this word's paths compute.
                p.push(MicroOp::Store {
                    src: out_reg(m - 1),
                    addr: (3 * s + m - 1) as u16,
                });
            }
            p.push(MicroOp::LoadImm {
                dst: rp,
                imm: p_word,
            });
            match kind {
                DualPathKind::Add => {
                    // Path A: x + y (carry chain); path B: (x+y) - p
                    // (borrow chain, speculative pipe).
                    p.push(MicroOp::AddC {
                        dst: r_primary,
                        a: rx,
                        b: ry,
                    });
                    p.push(MicroOp::SubB {
                        dst: r_spec,
                        a: r_primary,
                        b: rp,
                    });
                }
                DualPathKind::Sub => {
                    // Path A: x - y (borrow chain); path B: (x-y) + p
                    // (carry chain).
                    p.push(MicroOp::SubB {
                        dst: r_primary,
                        a: rx,
                        b: ry,
                    });
                    p.push(MicroOp::AddC {
                        dst: r_spec,
                        a: r_primary,
                        b: rp,
                    });
                }
            }
            p.push(MicroOp::Select {
                dst: r_out,
                a: r_primary,
                b: r_spec,
            });
        }
        p.push(MicroOp::Store {
            src: out_reg(s - 1),
            addr: (4 * s - 1) as u16,
        });
        p
    }

    /// Builds the word-serial addition microcode, optionally followed by the
    /// subtraction-of-p correction block.
    fn add_like_program(&self, s: usize, with_correction: bool) -> Program {
        let mut p = Program::new();
        // Memory layout: [0..s) = X, [s..2s) = Y, [2s..3s) = P, [3s..4s) = Z.
        for m in 0..s {
            p.push(MicroOp::Load {
                dst: 0,
                addr: m as u16,
            });
            p.push(MicroOp::Load {
                dst: 1,
                addr: (s + m) as u16,
            });
            p.push(MicroOp::AccAdd { a: 0 });
            p.push(MicroOp::AccAdd { a: 1 });
            p.push(MicroOp::AccOut { dst: 2 });
            p.push(MicroOp::Store {
                src: 2,
                addr: (3 * s + m) as u16,
            });
        }
        if with_correction {
            for m in 0..s {
                p.push(MicroOp::Load {
                    dst: 0,
                    addr: (3 * s + m) as u16,
                });
                p.push(MicroOp::Load {
                    dst: 1,
                    addr: (2 * s + m) as u16,
                });
                p.push(MicroOp::SubB { dst: 2, a: 0, b: 1 });
                p.push(MicroOp::Store {
                    src: 2,
                    addr: (3 * s + m) as u16,
                });
            }
        }
        p
    }

    /// Builds the word-serial subtraction microcode, optionally followed by
    /// the add-p-back correction block.
    fn sub_like_program(&self, s: usize, with_addback: bool) -> Program {
        let mut p = Program::new();
        for m in 0..s {
            p.push(MicroOp::Load {
                dst: 0,
                addr: m as u16,
            });
            p.push(MicroOp::Load {
                dst: 1,
                addr: (s + m) as u16,
            });
            p.push(MicroOp::SubB { dst: 2, a: 0, b: 1 });
            p.push(MicroOp::Store {
                src: 2,
                addr: (3 * s + m) as u16,
            });
            // The per-word borrow is made visible to the decoder, which
            // decides whether the add-back block runs.
            p.push(MicroOp::AccOut { dst: 3 });
        }
        if with_addback {
            for m in 0..s {
                p.push(MicroOp::Load {
                    dst: 0,
                    addr: (3 * s + m) as u16,
                });
                p.push(MicroOp::Load {
                    dst: 1,
                    addr: (2 * s + m) as u16,
                });
                p.push(MicroOp::AccAdd { a: 0 });
                p.push(MicroOp::AccAdd { a: 1 });
                p.push(MicroOp::AccOut { dst: 2 });
                p.push(MicroOp::Store {
                    src: 2,
                    addr: (3 * s + m) as u16,
                });
            }
        }
        p
    }

    /// Executes a single-core program with the standard X/Y/P memory layout
    /// and returns the cycle accounting (the caller supplies the numeric
    /// result, which the register-level program also produces in memory for
    /// the word-width it models). `select_path` is the decoder-latched flag
    /// consumed by `Select` instructions (ignored by programs without any).
    fn run_single_core(
        &self,
        program: &Program,
        x: &BigUint,
        y: &BigUint,
        modulus: &BigUint,
        select_path: bool,
    ) -> ModOpResult {
        // Every MA/MS program builder targets the same fixed layout:
        // [0..s) = X, [s..2s) = Y, [2s..3s) = P, [3s..4s) = Z.
        let s = self.cost.limbs(modulus.bit_len());
        let mut memory = vec![0u64; 4 * s];
        memory[..s].copy_from_slice(&self.to_words(x, s));
        memory[s..2 * s].copy_from_slice(&self.to_words(y, s));
        memory[2 * s..3 * s].copy_from_slice(&self.to_words(modulus, s));
        let mut core = Core::new(self.cost.word_bits);
        core.clear_acc();
        core.set_select_path(select_path);
        let instructions = core.execute(program, &mut memory);
        let schedule_cycles = if self.cost.is_pipelined() {
            schedule::schedule_program(program, &self.cost).cycles
        } else {
            program.cycles(&self.cost)
        };
        let cycles = schedule_cycles + self.cost.dispatch_cycles;
        // The register-level execution leaves the result in the Z region of
        // the data memory; return it so callers can cross-check it against
        // the host arithmetic.
        let value = self.words_to_value(&memory[3 * s..4 * s]);
        ModOpResult {
            value,
            cycles,
            instructions,
            memory_accesses: program.memory_accesses(),
        }
    }

    /// The register-level reference run of `leaf` on `x`, `y` modulo `p`
    /// (the leaf's path follows from the operands).
    pub(crate) fn reference(
        &self,
        leaf: Leaf,
        x: &BigUint,
        y: &BigUint,
        p: &BigUint,
    ) -> ModOpResult {
        match leaf {
            Leaf::MontMul => self.mont_mul(x, y, p),
            Leaf::ModAdd { .. } => self.mod_add(x, y, p),
            Leaf::ModSub { .. } => self.mod_sub(x, y, p),
        }
    }

    /// Cycles of one `leaf` at `bits` operand length, read from the leaf
    /// table. A miss executes the shape once at register level on
    /// [`sample_modulus`]`(bits)`, outside the lock.
    pub(crate) fn leaf_cycles(&self, leaf: Leaf, bits: usize) -> u64 {
        let key = (leaf, bits);
        if let Some(&cycles) = self.leaves.lock().expect("leaf table poisoned").get(&key) {
            return cycles;
        }
        let p = sample_modulus(bits);
        let small = |v: u64| BigUint::from(v);
        let hi = &p - &small(1);
        let (x, y) = match leaf {
            Leaf::MontMul => (&p - &small(2), &p - &small(3)),
            Leaf::ModAdd { corrected: false } => (small(2), small(3)),
            Leaf::ModAdd { corrected: true } => (hi.clone(), hi),
            Leaf::ModSub { added_back: false } => (small(3), small(2)),
            Leaf::ModSub { added_back: true } => (small(1), hi),
        };
        let cycles = self.reference(leaf, &x, &y, &p).cycles;
        *self
            .leaves
            .lock()
            .expect("leaf table poisoned")
            .entry(key)
            .or_insert(cycles)
    }

    /// Cycle count of one Montgomery multiplication at the given operand
    /// length (operand values do not influence the cycle count).
    pub fn mont_mul_cycles(&self, bits: usize) -> u64 {
        self.leaf_cycles(Leaf::MontMul, bits)
    }

    /// Cycle count of one modular addition at the given operand length
    /// (the common case where no correction block is needed, which is what
    /// Table 1 reports).
    pub fn mod_add_cycles(&self, bits: usize) -> u64 {
        self.leaf_cycles(Leaf::ModAdd { corrected: false }, bits)
    }

    /// Cycle count of one modular subtraction at the given operand length
    /// (no add-back case).
    pub fn mod_sub_cycles(&self, bits: usize) -> u64 {
        self.leaf_cycles(Leaf::ModSub { added_back: false }, bits)
    }

    /// Cycle count of one modular addition whose correction block runs
    /// (`x = y = p - 1` forces the sum past the modulus): the worst case
    /// of the conditional-correction model and — by constant-time
    /// construction — the only case of the dual-path model. The bench
    /// ablations and the property tests probe through this helper so they
    /// cannot drift onto different operand choices.
    pub fn mod_add_worst_cycles(&self, bits: usize) -> u64 {
        self.leaf_cycles(Leaf::ModAdd { corrected: true }, bits)
    }

    /// Cycle count of one modular subtraction whose add-back block runs
    /// (`x = 1, y = p - 1` forces the difference negative); see
    /// [`Coprocessor::mod_add_worst_cycles`].
    pub fn mod_sub_worst_cycles(&self, bits: usize) -> u64 {
        self.leaf_cycles(Leaf::ModSub { added_back: true }, bits)
    }
}

/// Which modular operation a dual-path program implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualPathKind {
    /// `x + y` primary, `x + y - p` speculative.
    Add,
    /// `x - y` primary, `x - y + p` speculative.
    Sub,
}

/// Contiguous limb ranges assigned to each core (Fig. 5's distribution).
fn limb_ranges(s: usize, cores: usize) -> Vec<std::ops::Range<usize>> {
    let base = s / cores;
    let extra = s % cores;
    let mut ranges = Vec::with_capacity(cores);
    let mut start = 0;
    for j in 0..cores {
        let len = base + usize::from(j < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// A deterministic odd modulus with exactly `bits` bits
/// (`2^(bits-1) + 2^(bits/2) + 1`), used for cycle-count probes: the
/// `*_cycles` helpers on [`Coprocessor`] measure against it, and the bench
/// ablations and property tests reuse it so every layer probes the same
/// worst cases (`p - 1` operands force the MA correction, `1 - (p - 1)`
/// the MS add-back).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn sample_modulus(bits: usize) -> BigUint {
    assert!(bits > 0, "a modulus needs at least one bit");
    // 2^(bits-1) + 2^(bits/2) + 1: odd, full bit length.
    let mut m = BigUint::one().shl_bits(bits - 1);
    m = &m + &BigUint::one().shl_bits(bits / 2);
    &m + &BigUint::one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn coproc(cores: usize) -> Coprocessor {
        Coprocessor::new(CostModel::paper(), cores)
    }

    #[test]
    fn limb_ranges_cover_everything() {
        for s in [1usize, 4, 7, 11, 64] {
            for cores in [1usize, 2, 3, 4, 8] {
                let cores = cores.min(s);
                let ranges = limb_ranges(s, cores);
                assert_eq!(ranges.len(), cores);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, s);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn montgomery_product_matches_host_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        for bits in [32usize, 96, 160, 170, 256] {
            let p = bignum::gen_prime(bits, &mut rng);
            for cores in [1usize, 2, 4] {
                let cp = coproc(cores);
                // The platform's radix R = 2^(w·s): the product is the one
                // the host leaf path computes, x·y·R⁻¹ mod p.
                let w = cp.cost().word_bits;
                let s = cp.cost().limbs(p.bit_len());
                let r_inv = mod_inv(&(BigUint::one().shl_bits(w * s) % &p), &p).unwrap();
                for _ in 0..3 {
                    let x = BigUint::random_below(&mut rng, &p);
                    let y = BigUint::random_below(&mut rng, &p);
                    let got = cp.mont_mul(&x, &y, &p);
                    assert_eq!(
                        got.value,
                        (&(&x * &y) * &r_inv) % &p,
                        "bits={bits} cores={cores}"
                    );
                    assert!(got.value < p);
                }
            }
        }
    }

    #[test]
    fn modular_add_sub_match_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(102);
        let cp = coproc(4);
        for bits in [160usize, 170, 1024] {
            let p = bignum::gen_prime(bits, &mut rng);
            for _ in 0..3 {
                let x = BigUint::random_below(&mut rng, &p);
                let y = BigUint::random_below(&mut rng, &p);
                assert_eq!(cp.mod_add(&x, &y, &p).value, bignum::mod_add(&x, &y, &p));
                assert_eq!(cp.mod_sub(&x, &y, &p).value, bignum::mod_sub(&x, &y, &p));
            }
        }
    }

    #[test]
    fn cycle_counts_follow_table1_shape() {
        let cp = coproc(4);
        let mm170 = cp.mont_mul_cycles(170);
        let mm160 = cp.mont_mul_cycles(160);
        let mm1024 = cp.mont_mul_cycles(1024);
        let ma170 = cp.mod_add_cycles(170);
        let ms170 = cp.mod_sub_cycles(170);
        // 160-bit is a little faster than 170-bit (Table 1).
        assert!(mm160 < mm170, "mm160={mm160} mm170={mm170}");
        // 1024-bit MM is roughly 20-30x slower than 170-bit (paper: 23x).
        let ratio = mm1024 as f64 / mm170 as f64;
        assert!((15.0..40.0).contains(&ratio), "ratio = {ratio}");
        // Additions and subtractions are much cheaper than multiplications
        // but not free (Table 1: 47 and 61 cycles versus 193).
        assert!(ma170 < mm170 / 2, "ma170={ma170} mm170={mm170}");
        assert!(ms170 < mm170 / 2, "ms170={ms170} mm170={mm170}");
        assert!(ma170 > 10 && ms170 > 10);
        // MA and MS are of the same order (the paper reports 47 vs 61).
        let hi = ma170.max(ms170) as f64;
        let lo = ma170.min(ms170) as f64;
        assert!(hi / lo < 2.0, "ms={ms170} ma={ma170}");
    }

    #[test]
    fn more_cores_speed_up_multiplication() {
        let c1 = coproc(1).mont_mul_cycles(256);
        let c2 = coproc(2).mont_mul_cycles(256);
        let c4 = coproc(4).mont_mul_cycles(256);
        assert!(c2 < c1, "2 cores ({c2}) should beat 1 core ({c1})");
        assert!(c4 < c2, "4 cores ({c4}) should beat 2 cores ({c2})");
        // The paper reports 2.96x for 4 cores on 256-bit operands; accept a
        // broad band around that.
        let speedup = c1 as f64 / c4 as f64;
        assert!((1.8..4.0).contains(&speedup), "speedup = {speedup}");
    }

    #[test]
    fn single_core_handles_all_sizes() {
        let cp = coproc(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let p = bignum::gen_prime(64, &mut rng);
        let x = BigUint::random_below(&mut rng, &p);
        let y = BigUint::random_below(&mut rng, &p);
        let got = cp.mont_mul(&x, &y, &p);
        let w = cp.cost().word_bits;
        let s = cp.cost().limbs(p.bit_len());
        let r = BigUint::one().shl_bits(w * s) % &p;
        assert_eq!((&got.value * &r) % &p, (&x * &y) % &p);
    }

    #[test]
    fn leaf_table_holds_each_executed_shape_and_is_shared_by_clones() {
        let curve = ecc::Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(104);
        let point = curve.random_point(&mut rng);
        let k = BigUint::random_bits(&mut rng, 160);
        let plat = crate::Platform::new(CostModel::paper(), 4, crate::Hierarchy::TypeB);
        plat.ecc_scalar_multiplication(&curve, &point, &k);
        let cp = plat.coprocessor();
        let entries = || cp.leaves.lock().unwrap().clone();

        // A random 160-bit scalar takes every MA and MS path.
        let shapes = [
            Leaf::MontMul,
            Leaf::ModAdd { corrected: false },
            Leaf::ModAdd { corrected: true },
            Leaf::ModSub { added_back: false },
            Leaf::ModSub { added_back: true },
        ];
        let table = entries();
        let mut keys: Vec<_> = table.keys().copied().collect();
        keys.sort_by_key(|&(leaf, bits)| (shapes.iter().position(|&s| s == leaf), bits));
        assert_eq!(keys, shapes.map(|leaf| (leaf, 160)));

        // The probes read the same entries.
        assert_eq!(cp.mont_mul_cycles(160), table[&(Leaf::MontMul, 160)]);
        assert_eq!(
            cp.mod_add_worst_cycles(160),
            table[&(Leaf::ModAdd { corrected: true }, 160)]
        );
        assert_eq!(
            cp.mod_sub_cycles(160),
            table[&(Leaf::ModSub { added_back: false }, 160)]
        );

        // A second ladder adds nothing, and a clone fills the same table.
        plat.ecc_scalar_multiplication(&curve, &point, &k);
        assert_eq!(entries(), table);
        let clone = cp.clone();
        let mm170 = clone.mont_mul_cycles(170);
        assert_eq!(entries()[&(Leaf::MontMul, 170)], mm170);
        assert_eq!(entries().len(), shapes.len() + 1);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_is_rejected() {
        let cp = coproc(2);
        let _ = cp.mont_mul(
            &BigUint::from(3u64),
            &BigUint::from(5u64),
            &BigUint::from(16u64),
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_is_rejected() {
        let _ = Coprocessor::new(CostModel::paper(), 0);
    }
}
