//! A guided tour of the platform simulator: the 7-instruction core ISA, the
//! level-2 sequences stored in InsRom1 and the Type-A/Type-B control
//! hierarchies of the paper.
//!
//! Run with `cargo run -p suite --release --example platform_trace`.

use bignum::BigUint;
use ceilidh::CeilidhParams;
use platform::isa::{Core, MicroOp, Program};
use platform::{compile, Coprocessor, CostModel, Hierarchy, OpKind, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Level 3: a microinstruction program on a single core. ------------
    println!("== level 3: core microcode (7-instruction ISA) ==");
    let mut program = Program::new();
    program.push(MicroOp::LoadImm {
        dst: 0,
        imm: 0x1234,
    });
    program.push(MicroOp::LoadImm {
        dst: 1,
        imm: 0x5678,
    });
    program.push(MicroOp::MulAcc { a: 0, b: 1 });
    program.push(MicroOp::AccOut { dst: 2 });
    program.push(MicroOp::AccOut { dst: 3 });
    program.push(MicroOp::Store { src: 2, addr: 0 });
    program.push(MicroOp::Store { src: 3, addr: 1 });
    println!("{}", program.listing());
    let mut memory = vec![0u64; 4];
    let mut core = Core::new(16);
    core.execute(&program, &mut memory);
    println!(
        "0x1234 * 0x5678 = 0x{:04x}{:04x} (computed by the simulated core)\n",
        memory[1], memory[0]
    );

    // --- Level 3: a full Montgomery multiplication on the coprocessor. ----
    println!("== level 3: multicore Montgomery multiplication ==");
    let coproc = Coprocessor::new(CostModel::paper(), 4);
    let p = BigUint::from_hex("2e14985ba5778232ba167ef32f9741a9a30db4650f7")?;
    let x = BigUint::from(123_456_789u64);
    let y = BigUint::from(987_654_321u64);
    let result = coproc.mont_mul(&x, &y, &p);
    println!(
        "170-bit MM: {} cycles, {} instructions, {} memory accesses",
        result.cycles, result.instructions, result.memory_accesses
    );

    // --- Level 2: the formula database behind the InsRom1 sequences. -------
    println!("\n== level 2: formula database (InsRom1 sequences) ==");
    for kind in OpKind::ALL {
        let stats = kind.stats();
        println!(
            "{:<14} ({}): {} steps = {} MM + {} MA/MS + {} copies",
            kind.formula(),
            kind,
            stats.steps,
            stats.modmuls,
            stats.modaddsubs(),
            stats.copies
        );
    }
    let curve = ecc::Curve::p160_reproduction()?;
    let paper = CostModel::paper();
    println!(
        "derived for {} under the paper calibration: PA -> {}, PD -> {}",
        curve.name(),
        OpKind::EccPaMixed.best_for(&curve, &paper).formula(),
        OpKind::EccPd.best_for(&curve, &paper).formula()
    );

    // --- Level 2: compile's passes + program cache. ------------------------
    println!("\n== level 2: pass pipeline (Program -> passes -> CompiledProgram) ==");
    // The paper calibration only validates the recorded program; turning
    // the search pass on shows a pass that rewrites it.
    let searched = CostModel::paper().with_search(true);
    let compiled = compile(OpKind::EccPdFast, 160, &searched);
    for pass in compiled.passes() {
        println!(
            "pass {:<14} steps {:>2} -> {:<2} prefetch pairs {:>2} -> {:<2} scored cycles {:>5} -> {:<5}",
            pass.pass,
            pass.steps_before,
            pass.steps_after,
            pass.pairs_before,
            pass.pairs_after,
            pass.cycles_before,
            pass.cycles_after
        );
    }
    let plat_cache = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let _ = plat_cache.composite_report(OpKind::EccPdFast, 160);
    let _ = plat_cache.composite_report(OpKind::EccPdFast, 160);
    let _ = plat_cache.composite_report(OpKind::EccPd, 160);
    println!(
        "program cache after three reports: {} programs, {} hits / {} misses",
        plat_cache.program_cache().len(),
        plat_cache.program_cache().hits(),
        plat_cache.program_cache().misses()
    );

    // --- Level 1: the MicroBlaze view (Type-A vs Type-B). ------------------
    println!("\n== level 1: control hierarchies ==");
    let params = CeilidhParams::toy()?;
    let mut rng = rand::thread_rng();
    let (_, base) = params.random_subgroup_element(&mut rng);
    let exponent = BigUint::from(0b1_0110_1101_u64);
    for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
        let plat = Platform::new(CostModel::paper(), 4, hierarchy);
        let (value, report) = plat.torus_exponentiation(&params, &base, &exponent);
        assert_eq!(value, params.pow(&base, &exponent));
        println!(
            "{hierarchy:?}: exponentiation by {exponent} took {report} ({:.3} ms at 74 MHz)",
            report.time_ms(plat.cost())
        );
    }
    Ok(())
}
