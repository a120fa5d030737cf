//! Ablation studies called out in DESIGN.md:
//!
//! * schedule-model ablation — the pipelined stage schedule against the
//!   flat sequential baseline, across operand lengths and MAC depths;
//! * dual-path sweep — the speculative constant-time MA/MS adder against
//!   the conditional-correction model, per Table 1/2 row;
//! * mixed-PA sweep — the 13-MM mixed-coordinate point addition against
//!   the general 16-MM Jacobian addition, per ECC row of Tables 2 and 3;
//! * fast-PD sweep — the 8-MM shortened `a = -3` doubling against the
//!   general 10-MM Jacobian doubling, per ECC row of Tables 2 and 3,
//!   plus the compiler's scheduling win on the sequence itself;
//! * interrupt-cost sweep — where the Type-A bottleneck comes from and when
//!   the two hierarchies cross over;
//! * exponentiation window size for the torus;
//! * core-count sweep for the 1024-bit RSA multiplication;
//! * the paper's future-work items (faster modular adders, overlap between
//!   modular operations), modelled as cost-model what-ifs;
//! * search sweep — the superoptimizing beam-search pass against the
//!   hand-authored sequences, per formula in the database (ROADMAP item
//!   4's "search the sequence space"); honours `SEARCH_BEAM_WIDTH` and
//!   merges the per-formula cycle counts into `BENCH_REPORT_JSON`.

use bench::{paper, print_table, Row};
use bignum::BigUint;
use ceilidh::CeilidhParams;
use platform::{Coprocessor, CostModel, Hierarchy, OpKind, Platform};
use rand::SeedableRng;

fn main() {
    schedule_sweep();
    dual_path_sweep();
    pa_mixed_sweep();
    pd_fast_sweep();
    search_sweep();
    interrupt_sweep();
    window_sweep();
    core_sweep_rsa();
    future_work();
}

fn search_sweep() {
    // ROADMAP item 4: the superoptimizing search pass versus the
    // hand-authored InsRom orders, one row per formula in the database,
    // priced by the executing Type-B engine at each formula's calibration
    // point. The search is gated never-worse (the assert below is the
    // same property the proptests pin); discovered wins land in the
    // table and, when `BENCH_REPORT_JSON` is set, in the flat report.
    // `SEARCH_BEAM_WIDTH` bounds the beam so CI smoke runs stay cheap.
    let beam: usize = std::env::var("SEARCH_BEAM_WIDTH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CostModel::paper().search_beam_width);
    let searched_cost = CostModel::paper().with_search(true).with_beam_width(beam);
    let authored_cost = CostModel::paper();
    let mut rows = Vec::new();
    let mut pairs: Vec<(String, u64)> = Vec::new();
    let mut wins = 0usize;
    for formula in platform::FormulaDb::builtin().formulas() {
        let kind = formula.kind();
        let bits = if kind == OpKind::Fp6Mul { 170 } else { 160 };
        let authored = Platform::new(authored_cost, 4, Hierarchy::TypeB)
            .composite_report(kind, bits)
            .cycles;
        let searched = Platform::new(searched_cost, 4, Hierarchy::TypeB)
            .composite_report(kind, bits)
            .cycles;
        assert!(
            searched <= authored,
            "{}: searched {searched} > authored {authored}",
            formula.name()
        );
        if searched < authored {
            wins += 1;
        }
        rows.push(Row {
            label: format!(
                "{} ({bits} bits): authored {authored}, searched {searched}",
                formula.name()
            ),
            paper: "-".into(),
            measured: format!("{:+.1}%", delta_pct(authored, searched)),
        });
        let key = formula.name().replace('-', "_");
        pairs.push((format!("search_{key}_authored_cycles"), authored));
        pairs.push((format!("search_{key}_searched_cycles"), searched));
    }
    rows.push(Row {
        label: format!("formulas with a discovered win (beam width {beam})"),
        paper: "-".into(),
        measured: format!("{wins}/{}", platform::FormulaDb::builtin().formulas().len()),
    });
    print_table(
        "Ablation: superoptimizing search vs hand-authored sequences",
        &rows,
    );
    if let Ok(path) = std::env::var("BENCH_REPORT_JSON") {
        let mut merged = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| bench::json::parse_object(&text).ok())
            .unwrap_or_default();
        merged.retain(|(k, _)| !k.starts_with("search_"));
        merged.extend(pairs);
        std::fs::write(&path, bench::json::write_object(&merged)).expect("write BENCH_REPORT_JSON");
    }
}

fn pd_fast_sweep() {
    // The Table 2 ECC PD ablation: the same doubling priced through the
    // general 10-MM Jacobian sequence versus the shortened 8-MM a = -3
    // sequence. The Type-A delta is the fidelity story (the paper's 5793
    // row matches the fast sequence); the last row propagates the delta
    // into the Table 3 scalar-multiplication latency via the ladder knob.
    let mut rows = Vec::new();
    let pd = |hierarchy: Hierarchy, fast: bool| -> u64 {
        let plat = Platform::new(CostModel::paper(), 4, hierarchy);
        if fast {
            plat.composite_report(OpKind::EccPdFast, 160).cycles
        } else {
            plat.composite_report(OpKind::EccPd, 160).cycles
        }
    };
    for (label, paper_cycles, hierarchy) in [
        ("Type-A ECC PD", paper::ECC_PD_TYPE_A, Hierarchy::TypeA),
        ("Type-B ECC PD", paper::ECC_PD_TYPE_B, Hierarchy::TypeB),
    ] {
        let general = pd(hierarchy, false);
        let fast = pd(hierarchy, true);
        rows.push(Row {
            label: format!("{label}: general {general}, fast {fast}"),
            paper: format!("{paper_cycles}"),
            measured: format!("{:+.1}%", delta_pct(general, fast)),
        });
    }
    // Full 160-bit ladder (Table 3): the knob swaps the PD sequence under
    // the double-and-add driver; everything else is identical.
    let curve = ecc::Curve::p160_reproduction().expect("built-in curve");
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let point = curve.random_point(&mut rng);
    let scalar = BigUint::random_bits(&mut rng, 160);
    let ladder = |fast: bool| -> u64 {
        let cost = CostModel::paper().with_fast_pd(fast);
        let plat = Platform::new(cost, 4, Hierarchy::TypeB);
        plat.ecc_scalar_multiplication(&curve, &point, &scalar)
            .1
            .cycles
    };
    let (general, fast) = (ladder(false), ladder(true));
    rows.push(Row {
        label: format!("160-bit scalar mult.: general {general}, fast {fast}"),
        paper: format!("{:.1} ms", paper::ECC_MS),
        measured: format!("{:+.1}%", delta_pct(general, fast)),
    });
    print_table(
        "Ablation: general Jacobian vs fast a=-3 ECC point doubling",
        &rows,
    );
}

fn pa_mixed_sweep() {
    // The Table 2 ECC fidelity ablation: the same point addition priced
    // through the general 16-MM Jacobian sequence versus the 13-MM
    // mixed-coordinate sequence the scalar ladder actually runs (affine
    // addend, Z2 = 1). The last row propagates the delta into the Table 3
    // scalar-multiplication latency via the ladder knob.
    let mut rows = Vec::new();
    let pa = |hierarchy: Hierarchy, mixed: bool| -> u64 {
        let plat = Platform::new(CostModel::paper(), 4, hierarchy);
        if mixed {
            plat.composite_report(OpKind::EccPaMixed, 160).cycles
        } else {
            plat.composite_report(OpKind::EccPaGeneral, 160).cycles
        }
    };
    for (label, paper_cycles, hierarchy) in [
        ("Type-A ECC PA", paper::ECC_PA_TYPE_A, Hierarchy::TypeA),
        ("Type-B ECC PA", paper::ECC_PA_TYPE_B, Hierarchy::TypeB),
    ] {
        let general = pa(hierarchy, false);
        let mixed = pa(hierarchy, true);
        rows.push(Row {
            label: format!("{label}: general {general}, mixed {mixed}"),
            paper: format!("{paper_cycles}"),
            measured: format!("{:+.1}%", delta_pct(general, mixed)),
        });
    }
    // Full 160-bit ladder (Table 3): the knob swaps the PA sequence under
    // the double-and-add driver; everything else is identical.
    let curve = ecc::Curve::p160_reproduction().expect("built-in curve");
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let point = curve.random_point(&mut rng);
    let scalar = BigUint::random_bits(&mut rng, 160);
    let ladder = |mixed: bool| -> u64 {
        let cost = CostModel::paper().with_mixed_pa(mixed);
        let plat = Platform::new(cost, 4, Hierarchy::TypeB);
        plat.ecc_scalar_multiplication(&curve, &point, &scalar)
            .1
            .cycles
    };
    let (general, mixed) = (ladder(false), ladder(true));
    rows.push(Row {
        label: format!("160-bit scalar mult.: general {general}, mixed {mixed}"),
        paper: format!("{:.1} ms", paper::ECC_MS),
        measured: format!("{:+.1}%", delta_pct(general, mixed)),
    });
    print_table(
        "Ablation: general Jacobian vs mixed-coordinate ECC point addition",
        &rows,
    );
}

fn dual_path_sweep() {
    // The Table 2 fidelity ablation: the same sequences priced with the
    // data-dependent conditional-correction MA/MS (dual-path off) versus
    // the speculative constant-time adder (paper calibration). The leaf
    // rows show the worst case (correction taken), which the dual path
    // turns into the only case.
    let speculative = CostModel::paper();
    let conditional = CostModel::paper().with_dual_path(false);
    let mut rows = Vec::new();

    let worst_ma_ms = |cost: CostModel, bits: usize| -> (u64, u64) {
        let cp = Coprocessor::new(cost, 4);
        (cp.mod_add_worst_cycles(bits), cp.mod_sub_worst_cycles(bits))
    };
    for bits in [160usize, 170] {
        let (ma_cond, ms_cond) = worst_ma_ms(conditional, bits);
        let (ma_dual, ms_dual) = worst_ma_ms(speculative, bits);
        rows.push(Row {
            label: format!("{bits}-bit MA worst case: conditional {ma_cond}, dual-path {ma_dual}"),
            paper: "-".into(),
            measured: format!("{:+.1}%", delta_pct(ma_cond, ma_dual)),
        });
        rows.push(Row {
            label: format!("{bits}-bit MS worst case: conditional {ms_cond}, dual-path {ms_dual}"),
            paper: "-".into(),
            measured: format!("{:+.1}%", delta_pct(ms_cond, ms_dual)),
        });
    }

    let composite =
        |label: &str, paper_cycles: u64, probe: &dyn Fn(&Platform) -> u64, hierarchy: Hierarchy| {
            let cond = probe(&Platform::new(conditional, 4, hierarchy));
            let dual = probe(&Platform::new(speculative, 4, hierarchy));
            Row {
                label: format!("{label}: conditional {cond}, dual-path {dual}"),
                paper: format!("{paper_cycles}"),
                measured: format!("{:+.1}%", delta_pct(cond, dual)),
            }
        };
    rows.push(composite(
        "Type-A T6 mult.",
        paper::T6_MULT_TYPE_A,
        &|p| p.composite_report(OpKind::Fp6Mul, 170).cycles,
        Hierarchy::TypeA,
    ));
    rows.push(composite(
        "Type-B T6 mult.",
        paper::T6_MULT_TYPE_B,
        &|p| p.composite_report(OpKind::Fp6Mul, 170).cycles,
        Hierarchy::TypeB,
    ));
    rows.push(composite(
        "Type-B ECC PA",
        paper::ECC_PA_TYPE_B,
        &|p| p.composite_report(OpKind::EccPaGeneral, 160).cycles,
        Hierarchy::TypeB,
    ));
    rows.push(composite(
        "Type-B ECC PD",
        paper::ECC_PD_TYPE_B,
        &|p| p.composite_report(OpKind::EccPd, 160).cycles,
        Hierarchy::TypeB,
    ));
    print_table(
        "Ablation: conditional-correction vs speculative dual-path MA/MS",
        &rows,
    );
}

/// Relative change going from `from` to `to`, in percent.
fn delta_pct(from: u64, to: u64) -> f64 {
    100.0 * (to as f64 - from as f64) / from as f64
}

fn schedule_sweep() {
    // The headline fidelity ablation: the same microcode, accounted flat
    // (every event sequential) versus through the pipelined stage model.
    let mut rows = Vec::new();
    for (bits, paper_cycles) in [
        (160usize, paper::MM_160),
        (170, paper::MM_170),
        (256, 0),
        (1024, paper::MM_1024),
    ] {
        let seq = Coprocessor::new(CostModel::paper_sequential(), 4).mont_mul_cycles(bits);
        let pip = Coprocessor::new(CostModel::paper(), 4).mont_mul_cycles(bits);
        rows.push(Row {
            label: format!("{bits}-bit MM: sequential {seq}, pipelined {pip}"),
            paper: if paper_cycles > 0 {
                format!("{paper_cycles}")
            } else {
                "-".into()
            },
            measured: format!("{:.2}x overlap win", seq as f64 / pip as f64),
        });
    }
    // MAC pipeline depth: deeper pipelines stretch the dependent
    // T-computation chain without helping throughput-bound phases.
    for depth in [1u64, 2, 4, 8] {
        let cost = CostModel {
            mac_pipeline_depth: depth,
            ..CostModel::paper()
        };
        let pip = Coprocessor::new(cost, 4).mont_mul_cycles(170);
        rows.push(Row {
            label: format!("170-bit MM, MAC pipeline depth {depth}"),
            paper: if depth == CostModel::paper().mac_pipeline_depth {
                format!("{}", paper::MM_170)
            } else {
                "-".into()
            },
            measured: format!("{pip} cycles"),
        });
    }
    print_table(
        "Ablation: schedule model (sequential baseline vs pipelined stages)",
        &rows,
    );
}

fn interrupt_sweep() {
    let mut rows = Vec::new();
    for interrupt in [0u64, 46, 92, 184, 368] {
        let cost = CostModel {
            interrupt_cycles: interrupt,
            ..CostModel::paper()
        };
        let a = Platform::new(cost, 4, Hierarchy::TypeA)
            .composite_report(OpKind::Fp6Mul, 170)
            .cycles;
        let b = Platform::new(cost, 4, Hierarchy::TypeB)
            .composite_report(OpKind::Fp6Mul, 170)
            .cycles;
        rows.push(Row {
            label: format!("interrupt = {interrupt} cycles: Type-A {a}, Type-B {b}"),
            paper: if interrupt == 184 {
                "3.78x".into()
            } else {
                "-".into()
            },
            measured: format!("{:.2}x", a as f64 / b as f64),
        });
    }
    print_table(
        "Ablation: communication overhead (Type-A / Type-B ratio)",
        &rows,
    );
}

fn window_sweep() {
    let params = CeilidhParams::toy().expect("toy parameters");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let (_, g) = params.random_subgroup_element(&mut rng);
    let exponent = BigUint::random_bits(&mut rng, 160);
    let mut rows = Vec::new();
    for window in [1usize, 2, 4, 6] {
        params.fp().reset_op_count();
        let _ = params.pow_window(&g, &exponent, window);
        let ops = params.fp().op_count();
        rows.push(Row {
            label: format!("torus exponentiation, {window}-bit window"),
            paper: "-".into(),
            measured: format!("{}M", ops.mul),
        });
    }
    print_table(
        "Ablation: windowed torus exponentiation (Fp multiplications)",
        &rows,
    );
}

fn core_sweep_rsa() {
    let mut rows = Vec::new();
    let single = Coprocessor::new(CostModel::paper(), 1).mont_mul_cycles(1024);
    for cores in [1usize, 2, 4, 8] {
        let cycles = Coprocessor::new(CostModel::paper(), cores).mont_mul_cycles(1024);
        rows.push(Row {
            label: format!("1024-bit MM on {cores} core(s)"),
            paper: "-".into(),
            measured: format!("{cycles} cycles ({:.2}x)", single as f64 / cycles as f64),
        });
    }
    print_table("Ablation: core count for the RSA multiplication", &rows);
}

fn future_work() {
    // Paper, Section 5: "by deploying fast modular adders, the performance
    // can be improved" — model a 2x faster memory/ALU path for MA/MS.
    let baseline = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let fast_adder_cost = CostModel {
        alu_cycles: 1,
        mem_cycles: 1,
        dispatch_cycles: 2,
        ..CostModel::paper()
    };
    let fast = Platform::new(fast_adder_cost, 4, Hierarchy::TypeB);
    let t6_base = baseline.composite_report(OpKind::Fp6Mul, 170).cycles;
    let t6_fast = fast.composite_report(OpKind::Fp6Mul, 170).cycles;
    let rows = vec![
        Row::cycles("T6 mult., baseline cost model", 5908, t6_base),
        Row::cycles("T6 mult., fast-adder cost model", 5908, t6_fast),
        Row::ratio("improvement", 1.0, t6_base as f64 / t6_fast as f64),
    ];
    print_table(
        "Ablation: the paper's future-work item (faster adders)",
        &rows,
    );
}
