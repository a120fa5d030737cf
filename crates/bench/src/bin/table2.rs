//! Regenerates Table 2: composite operations under Type-A and Type-B.
//!
//! The ECC point-addition rows are reproduced by the **mixed-coordinate**
//! sequence (affine addend, 13 MM) — the paper's cycle counts are only
//! consistent with that variant, and the scalar ladder always satisfies
//! its `Z2 = 1` precondition. The point-doubling rows split by hierarchy:
//! the **Type-A** row is reproduced by the fast `a = -3` doubling (8 MM —
//! the MicroBlaze generates Type-A sequences on the fly, and 5793 cycles
//! are only consistent with the shortened formulas), while the **Type-B**
//! row is reproduced by the general 10-MM doubling (the InsRom1 image).
//! The two remaining combinations are printed alongside as ablations
//! (no paper row).

use bench::{paper, print_table, Row};
use platform::{CostModel, Hierarchy, OpKind, Platform};

fn main() {
    let type_a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
    let type_b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    let t6_a = type_a.composite_report(OpKind::Fp6Mul, 170).cycles;
    let t6_b = type_b.composite_report(OpKind::Fp6Mul, 170).cycles;
    let pa_a = type_a.composite_report(OpKind::EccPaMixed, 160).cycles;
    let pa_b = type_b.composite_report(OpKind::EccPaMixed, 160).cycles;
    let pa_gen_a = type_a.composite_report(OpKind::EccPaGeneral, 160).cycles;
    let pa_gen_b = type_b.composite_report(OpKind::EccPaGeneral, 160).cycles;
    let pd_fast_a = type_a.composite_report(OpKind::EccPdFast, 160).cycles;
    let pd_fast_b = type_b.composite_report(OpKind::EccPdFast, 160).cycles;
    let pd_a = type_a.composite_report(OpKind::EccPd, 160).cycles;
    let pd_b = type_b.composite_report(OpKind::EccPd, 160).cycles;

    let rows = vec![
        Row::cycles("Type-A  torus T6 mult.", paper::T6_MULT_TYPE_A, t6_a),
        Row::cycles("Type-A  ECC PA (mixed)", paper::ECC_PA_TYPE_A, pa_a),
        Row::cycles(
            "Type-A  ECC PD (fast, a=-3)",
            paper::ECC_PD_TYPE_A,
            pd_fast_a,
        ),
        Row::cycles("Type-B  torus T6 mult.", paper::T6_MULT_TYPE_B, t6_b),
        Row::cycles("Type-B  ECC PA (mixed)", paper::ECC_PA_TYPE_B, pa_b),
        Row::cycles("Type-B  ECC PD (general)", paper::ECC_PD_TYPE_B, pd_b),
        Row {
            label: "Type-A  ECC PA (general, ablation)".into(),
            paper: "-".into(),
            measured: format!("{pa_gen_a}"),
        },
        Row {
            label: "Type-B  ECC PA (general, ablation)".into(),
            paper: "-".into(),
            measured: format!("{pa_gen_b}"),
        },
        Row {
            label: "Type-A  ECC PD (general, ablation)".into(),
            paper: "-".into(),
            measured: format!("{pd_a}"),
        },
        Row {
            label: "Type-B  ECC PD (fast, ablation)".into(),
            paper: "-".into(),
            measured: format!("{pd_fast_b}"),
        },
        Row::ratio(
            "T6 mult. speed-up (Type-B vs Type-A)",
            paper::T6_MULT_TYPE_A as f64 / paper::T6_MULT_TYPE_B as f64,
            t6_a as f64 / t6_b as f64,
        ),
        Row::ratio(
            "ECC PA speed-up (Type-B vs Type-A)",
            paper::ECC_PA_TYPE_A as f64 / paper::ECC_PA_TYPE_B as f64,
            pa_a as f64 / pa_b as f64,
        ),
        Row::ratio(
            "ECC PD speed-up (Type-B vs Type-A)",
            paper::ECC_PD_TYPE_A as f64 / paper::ECC_PD_TYPE_B as f64,
            pd_fast_a as f64 / pd_b as f64,
        ),
    ];
    print_table(
        "Table 2: cycles per composite operation (Type-A vs Type-B)",
        &rows,
    );
}
