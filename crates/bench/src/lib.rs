//! Shared plumbing for the benchmark harness: the paper's reported numbers
//! and small helpers for rendering paper-vs-measured tables.
//!
//! Each table/figure of the evaluation has a report binary
//! (`cargo run -p bench --bin table1|table2|table3|fig1_hierarchy|fig5_multicore|ablations|report`);
//! `cycle_gate` diffs the report against the golden cycle file. Host
//! wall-clock figures come from `hostbench/`, not from this crate.
//! [`table3`] holds Table 3's inputs, from which every binary that prints
//! a Table 3 figure runs the drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table3;

/// Paper-reported values (DATE 2008, Tables 1–3 and Section 3.3/Fig. 5).
pub mod paper {
    /// Table 1: interrupt handling cycles.
    pub const INTERRUPT_CYCLES: u64 = 184;
    /// Table 1: 170-bit Montgomery modular multiplication cycles.
    pub const MM_170: u64 = 193;
    /// Table 1: 170-bit modular addition cycles.
    pub const MA_170: u64 = 47;
    /// Table 1: 170-bit modular subtraction cycles.
    pub const MS_170: u64 = 61;
    /// Table 1: 160-bit Montgomery modular multiplication cycles.
    pub const MM_160: u64 = 163;
    /// Table 1: 160-bit modular addition cycles.
    pub const MA_160: u64 = 40;
    /// Table 1: 160-bit modular subtraction cycles.
    pub const MS_160: u64 = 53;
    /// Table 1: 1024-bit Montgomery modular multiplication cycles.
    pub const MM_1024: u64 = 4447;

    /// Table 2: Type-A T6 multiplication cycles.
    pub const T6_MULT_TYPE_A: u64 = 22348;
    /// Table 2: Type-A ECC point addition cycles.
    pub const ECC_PA_TYPE_A: u64 = 7185;
    /// Table 2: Type-A ECC point doubling cycles.
    pub const ECC_PD_TYPE_A: u64 = 5793;
    /// Table 2: Type-B T6 multiplication cycles.
    pub const T6_MULT_TYPE_B: u64 = 5908;
    /// Table 2: Type-B ECC point addition cycles.
    pub const ECC_PA_TYPE_B: u64 = 2888;
    /// Table 2: Type-B ECC point doubling cycles.
    pub const ECC_PD_TYPE_B: u64 = 2665;

    /// Table 3: 170-bit torus exponentiation latency (ms at 74 MHz).
    pub const TORUS_MS: f64 = 20.0;
    /// Table 3: 1024-bit RSA exponentiation latency (ms).
    pub const RSA_MS: f64 = 96.0;
    /// Table 3: 160-bit ECC scalar multiplication latency (ms).
    pub const ECC_MS: f64 = 9.4;
    /// Table 3: total area in slices (not reproducible without synthesis).
    pub const AREA_SLICES: u64 = 5419;
    /// Table 3: clock frequency in MHz.
    pub const FREQ_MHZ: f64 = 74.0;

    /// Section 3.3 / Fig. 5: speed-up of a 256-bit MM on 4 cores vs 1 core.
    pub const MULTICORE_SPEEDUP_4: f64 = 2.96;

    /// The paper value a gated cycle metric reproduces, when the paper
    /// reports one. Model-internal baselines (the sequential, conditional
    /// and general-PA rows, the Fig. 5 core-count probes, the cache
    /// hit-rate) return `None`: they are gated for bit-identity as
    /// ablation anchors, not as reproductions of a published number. The
    /// ECC PA rows of Table 2 map to the **mixed** metrics — the paper's
    /// cycle counts are only consistent with the 13-MM mixed-coordinate
    /// sequence. The ECC PD rows split by hierarchy: the **Type-A** row
    /// maps to the fast `a = -3` doubling (the MicroBlaze generates
    /// Type-A sequences on the fly and the paper's 5793 cycles are only
    /// consistent with the 8-MM shortened formulas) while the **Type-B**
    /// row maps to the general 10-MM doubling (the InsRom1 image its
    /// 2665 cycles are consistent with). See DESIGN.md.
    pub fn reference_cycles(metric: &str) -> Option<u64> {
        match metric {
            "interrupt_cycles" => Some(INTERRUPT_CYCLES),
            "mm_170_pipelined" => Some(MM_170),
            "mm_160_pipelined" => Some(MM_160),
            "mm_1024_pipelined" => Some(MM_1024),
            "ma_170_pipelined" => Some(MA_170),
            "ms_170_pipelined" => Some(MS_170),
            "t6_mult_type_a" => Some(T6_MULT_TYPE_A),
            "t6_mult_type_b" => Some(T6_MULT_TYPE_B),
            "ecc_pa_mixed_type_a" => Some(ECC_PA_TYPE_A),
            "ecc_pa_mixed_type_b" => Some(ECC_PA_TYPE_B),
            "ecc_pd_fast_type_a" => Some(ECC_PD_TYPE_A),
            "ecc_pd_type_b" => Some(ECC_PD_TYPE_B),
            _ => None,
        }
    }
}

/// Minimal flat-JSON plumbing for the cycle-accuracy gate (the build
/// environment has no serde). Two shapes are supported:
///
/// * the *report* emitted by the `report` binary — a flat
///   `{"name": count}` object of unsigned integers;
/// * the *golden* file `crates/bench/golden/cycles.json` — each value is
///   either a bare count (gated at the default tolerance) or an object
///   `{"cycles": count, "tol_pct": percent}` carrying the per-row drift
///   tolerance the `cycle_gate` binary enforces.
pub mod json {
    /// One row of the golden file: a gated cycle count plus its allowed
    /// relative drift (`None` means the gate's default applies).
    #[derive(Debug, Clone, PartialEq)]
    pub struct GoldenRow {
        /// Metric name.
        pub name: String,
        /// Golden cycle count.
        pub cycles: u64,
        /// Allowed drift before the gate fails, in percent.
        pub tol_pct: Option<f64>,
    }

    /// Renders `pairs` as a pretty-printed flat JSON object.
    pub fn write_object(pairs: &[(String, u64)]) -> String {
        let body = pairs
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n}}\n")
    }

    /// Parses a flat `{"name": count}` JSON object (string keys, unsigned
    /// integer values). Nested object values — even golden-style
    /// `{"cycles": N}` rows — are rejected: a report is flat by contract.
    pub fn parse_object(text: &str) -> Result<Vec<(String, u64)>, String> {
        if text
            .trim()
            .strip_prefix('{')
            .is_some_and(|inner| inner.contains('{'))
        {
            return Err("nested object in flat report".to_string());
        }
        parse_golden(text).map(|rows| rows.into_iter().map(|row| (row.name, row.cycles)).collect())
    }

    /// Renders golden rows, attaching the per-row tolerance objects.
    pub fn write_golden(rows: &[GoldenRow]) -> String {
        let body = rows
            .iter()
            .map(|row| match row.tol_pct {
                Some(tol) => format!(
                    "  \"{}\": {{ \"cycles\": {}, \"tol_pct\": {} }}",
                    row.name, row.cycles, tol
                ),
                None => format!("  \"{}\": {}", row.name, row.cycles),
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\n{body}\n}}\n")
    }

    /// Parses a golden object whose values are bare counts or
    /// `{"cycles": N, "tol_pct": T}` rows.
    pub fn parse_golden(text: &str) -> Result<Vec<GoldenRow>, String> {
        let inner = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or_else(|| "expected a top-level JSON object".to_string())?;
        // Split on commas at nesting depth zero only, so the per-row
        // tolerance objects survive.
        let mut entries = Vec::new();
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, c) in inner.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| "unbalanced braces".to_string())?
                }
                ',' if depth == 0 => {
                    entries.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err("unbalanced braces".to_string());
        }
        entries.push(&inner[start..]);

        let mut rows = Vec::new();
        for entry in entries {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed entry: {entry:?}"))?;
            let name = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key in entry: {entry:?}"))?
                .to_string();
            let value = value.trim();
            let row = if let Some(obj) = value.strip_prefix('{').and_then(|v| v.strip_suffix('}')) {
                let mut cycles = None;
                let mut tol_pct = None;
                for field in obj.split(',') {
                    let (fk, fv) = field
                        .split_once(':')
                        .ok_or_else(|| format!("malformed field in {name:?}: {field:?}"))?;
                    let fk = fk.trim().trim_matches('"');
                    match fk {
                        "cycles" => {
                            cycles = Some(
                                fv.trim()
                                    .parse::<u64>()
                                    .map_err(|e| format!("bad cycles for {name:?}: {e}"))?,
                            )
                        }
                        "tol_pct" => {
                            tol_pct = Some(
                                fv.trim()
                                    .parse::<f64>()
                                    .map_err(|e| format!("bad tol_pct for {name:?}: {e}"))?,
                            )
                        }
                        other => return Err(format!("unknown field {other:?} in {name:?}")),
                    }
                }
                GoldenRow {
                    cycles: cycles.ok_or_else(|| format!("{name:?} is missing \"cycles\""))?,
                    tol_pct,
                    name,
                }
            } else {
                GoldenRow {
                    cycles: value
                        .parse()
                        .map_err(|e| format!("bad value for {name:?}: {e}"))?,
                    tol_pct: None,
                    name,
                }
            };
            rows.push(row);
        }
        Ok(rows)
    }
}

/// The simulated cycle counts gated by CI: every metric is a deterministic
/// function of the cost model (no RNG), so any drift is a calibration
/// change that must be acknowledged by regenerating the golden file.
pub mod metrics {
    use platform::{Coprocessor, CostModel, Hierarchy, OpKind, Platform};

    /// Deterministic 256-bit scalar driving the beyond-paper ladder rows
    /// (an arbitrary fixed value with a balanced bit pattern; any drift in
    /// the rows it produces is a cost-model change, never RNG noise).
    pub const PREDICTION_SCALAR_HEX: &str =
        "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721";

    /// Whether a metric row is a **beyond-paper prediction**: a cycle
    /// count at an operand size the paper never reports (the 256-bit
    /// standards curves secp256k1 and P-256), quoted from the same
    /// calibrated model as the reproduction rows but with no published
    /// number to check against. The cycle gate still pins these rows —
    /// at the looser prediction tolerance — and the scorecard renders
    /// them in their own section.
    pub fn is_beyond_paper(name: &str) -> bool {
        name.contains("secp256k1") || name.contains("p256")
    }

    /// The beyond-paper 256-bit rows: one PA, one PD and one full scalar
    /// multiplication per standards curve and hierarchy. PA and PD price
    /// the programs the ladder derives for the real curve
    /// ([`Platform::ladder_kinds`]), so the `a = -3` dispatch is part of
    /// what is gated — P-256 rows price the shortened 8-MM doubling,
    /// secp256k1 rows the general 10-MM one.
    fn beyond_paper_rows() -> Vec<(String, u64)> {
        let k = bignum::BigUint::from_hex(PREDICTION_SCALAR_HEX).expect("valid scalar constant");
        let mut out = Vec::new();
        for (curve_name, key) in [("secp256k1", "secp256k1"), ("p256", "p256")] {
            let curve = ecc::Curve::by_name(curve_name).expect("registered curve");
            let bits = curve.fp().modulus().bit_len();
            let g = curve.base_point().clone();
            for (hierarchy, suffix) in [(Hierarchy::TypeA, "type_a"), (Hierarchy::TypeB, "type_b")]
            {
                let plat = Platform::new(CostModel::paper(), 4, hierarchy);
                let (pd, pa) = plat.ladder_kinds(&curve);
                for kind in [pa, pd] {
                    let cycles = plat.composite_report(kind, bits).cycles;
                    out.push((format!("{kind}_{key}_{suffix}"), cycles));
                }
                let (_, ladder) = plat.ecc_scalar_multiplication(&curve, &g, &k);
                out.push((format!("ecc_scalar_mult_{key}_{suffix}"), ladder.cycles));
            }
        }
        out
    }

    /// Program-cache hit rate over a fixed batch workload (four scalar
    /// multiplications with deterministic 64-bit scalars on the
    /// reproduction curve), rounded to whole percent. The first ladder
    /// compiles its doubling and addition programs; the remaining three
    /// reuse them, so the expected rate is 6 hits / 8 lookups = 75%. The
    /// value is a pure function of the compile-once plumbing — any drift
    /// means the drivers started re-compiling (or stopped caching) and
    /// the gate catches it.
    pub fn program_cache_hit_rate_pct() -> u64 {
        let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let curve = ecc::Curve::p160_reproduction().expect("built-in curve");
        let point = curve.base_point().clone();
        for scalar in [
            0xdead_beef_0bad_cafeu64,
            0x1234_5678_9abc_def0,
            0x0fed_cba9_8765_4321,
            0xa5a5_a5a5_5a5a_5a5a,
        ] {
            let k = bignum::BigUint::from(scalar);
            plat.ecc_scalar_multiplication(&curve, &point, &k);
        }
        plat.program_cache().hit_rate_pct().round() as u64
    }

    /// Seed of the fixed serving trace behind the gated engine rows.
    pub const ENGINE_TRACE_SEED: u64 = 2008;
    /// Length of the fixed serving trace behind the gated engine rows.
    pub const ENGINE_TRACE_REQUESTS: usize = 200;

    /// The gated throughput-engine rows: the fixed mixed RSA/ECC/torus
    /// trace (seed [`ENGINE_TRACE_SEED`], [`ENGINE_TRACE_REQUESTS`]
    /// requests) served on fleets of 1 and 4 paper-platform instances.
    /// Ops/sec at both instance counts pin the Fig. 5-style scaling
    /// story; the 4-instance p99 latency pins the batching tail; the
    /// batch cache hit rate pins the compile-once amortisation. The
    /// engine is pure integer virtual-time arithmetic over the seeded
    /// shim RNG, so — like every other row — any drift is a model
    /// change, never noise.
    pub fn engine_rows() -> Vec<(String, u64)> {
        use engine::{Fleet, FleetConfig, TrafficProfile};
        let trace =
            TrafficProfile::mixed_date2008().generate(ENGINE_TRACE_SEED, ENGINE_TRACE_REQUESTS);
        let mut out = Vec::new();
        for instances in [1usize, 4] {
            let mut fleet = Fleet::new(FleetConfig::date2008(instances));
            let summary = fleet.run(trace.clone());
            out.push((
                format!("engine_ops_per_sec_x{instances}"),
                summary.ops_per_sec,
            ));
            if instances == 4 {
                out.push((
                    "engine_batch_cache_hit_rate_pct".to_string(),
                    summary.cache_hit_rate_pct(),
                ));
                out.push((
                    "engine_p99_latency_cycles_x4".to_string(),
                    summary.p99_latency_cycles,
                ));
            }
        }
        out
    }

    /// Collects the gated cycle metrics, sorted by name.
    pub fn collect() -> Vec<(String, u64)> {
        let type_a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
        let type_b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
        let seq = Coprocessor::new(CostModel::paper_sequential(), 4);
        // The conditional-correction middle layer (pipelined, speculative
        // adder off) stays gated in both of its faces — correction not
        // taken and correction taken (worst case, the dual_path_sweep
        // ablation baseline) — so neither can drift silently.
        let cond = Coprocessor::new(CostModel::paper().with_dual_path(false), 4);
        let m = |name: &str, cycles: u64| (name.to_string(), cycles);
        let mut out = vec![
            m("interrupt_cycles", type_b.interrupt_cycles()),
            m(
                "mm_170_pipelined",
                type_b.montgomery_multiplication_report(170).cycles,
            ),
            m(
                "mm_160_pipelined",
                type_b.montgomery_multiplication_report(160).cycles,
            ),
            m(
                "mm_1024_pipelined",
                type_b.montgomery_multiplication_report(1024).cycles,
            ),
            m("mm_170_sequential", seq.mont_mul_cycles(170)),
            m("mm_1024_sequential", seq.mont_mul_cycles(1024)),
            m(
                "ma_170_pipelined",
                type_b.modular_addition_report(170).cycles,
            ),
            m(
                "ms_170_pipelined",
                type_b.modular_subtraction_report(170).cycles,
            ),
            m("ma_170_conditional", cond.mod_add_cycles(170)),
            m("ms_170_conditional", cond.mod_sub_cycles(170)),
            m("ma_170_conditional_worst", cond.mod_add_worst_cycles(170)),
            m("ms_170_conditional_worst", cond.mod_sub_worst_cycles(170)),
            m("ma_170_sequential", seq.mod_add_cycles(170)),
            m("ms_170_sequential", seq.mod_sub_cycles(170)),
            m(
                "mm_256_1core_pipelined",
                Coprocessor::new(CostModel::paper(), 1).mont_mul_cycles(256),
            ),
            m(
                "mm_256_4core_pipelined",
                Coprocessor::new(CostModel::paper(), 4).mont_mul_cycles(256),
            ),
            m(
                "t6_mult_type_a",
                type_a.composite_report(OpKind::Fp6Mul, 170).cycles,
            ),
            m(
                "t6_mult_type_b",
                type_b.composite_report(OpKind::Fp6Mul, 170).cycles,
            ),
            m(
                "ecc_pa_type_a",
                type_a.composite_report(OpKind::EccPaGeneral, 160).cycles,
            ),
            m(
                "ecc_pd_type_a",
                type_a.composite_report(OpKind::EccPd, 160).cycles,
            ),
            m(
                "ecc_pa_type_b",
                type_b.composite_report(OpKind::EccPaGeneral, 160).cycles,
            ),
            m(
                "ecc_pd_type_b",
                type_b.composite_report(OpKind::EccPd, 160).cycles,
            ),
            // The mixed-coordinate PA rows are the Table 2 reproduction;
            // the general rows above stay gated bit-identical as the
            // coordinate-form ablation baseline.
            m(
                "ecc_pa_mixed_type_a",
                type_a.composite_report(OpKind::EccPaMixed, 160).cycles,
            ),
            m(
                "ecc_pa_mixed_type_b",
                type_b.composite_report(OpKind::EccPaMixed, 160).cycles,
            ),
            // The fast a = -3 doubling is the Table 2 Type-A PD
            // reproduction (the on-the-fly generated sequence); the
            // general rows above stay gated bit-identical — the Type-B
            // one doubling as the InsRom reproduction of the paper's
            // 2665-cycle row.
            m(
                "ecc_pd_fast_type_a",
                type_a.composite_report(OpKind::EccPdFast, 160).cycles,
            ),
            m(
                "ecc_pd_fast_type_b",
                type_b.composite_report(OpKind::EccPdFast, 160).cycles,
            ),
            // Compile-once plumbing: any drift here means the drivers
            // started re-compiling per call.
            m("program_cache_hit_rate_pct", program_cache_hit_rate_pct()),
        ];
        // The 256-bit standards-curve predictions ride along in the same
        // gated set, flagged by `is_beyond_paper` for their own scorecard
        // section and the looser prediction tolerance.
        out.extend(beyond_paper_rows());
        // The throughput-engine serving rows (ops/sec, tail latency,
        // batch cache hit rate) are gated alongside the cycle rows.
        out.extend(engine_rows());
        out.sort();
        out
    }

    /// The drift tolerance CI grants a metric, in percent: Table 1 leaf
    /// operations are pinned tight (±2%), Table 2/3 composite rows — whose
    /// cycle counts stack many leaf operations and sequencer overlap — get
    /// ±5%, the throughput-engine serving rows get ±5% (deterministic,
    /// but downstream of every composite calibration at once), and the
    /// beyond-paper 256-bit predictions get ±10% (they have no published
    /// anchor, so the gate only guards against silent model drift, not
    /// reproduction accuracy). Written into the golden file by
    /// `cycle_gate --write-golden` so the gate reads per-row tolerances
    /// instead of one hardcoded constant.
    pub fn tolerance_pct(name: &str) -> f64 {
        if name.starts_with("engine_") {
            5.0
        } else if is_beyond_paper(name) {
            10.0
        } else if name.starts_with("t6_") || name.starts_with("ecc_") {
            5.0
        } else {
            2.0
        }
    }

    /// One formula of the searched-vs-authored sweep, priced through the
    /// executing 4-core Type-B engine at its calibration point.
    pub struct SearchRow {
        /// The formula's program kind ([`OpKind::formula`] names it).
        pub kind: OpKind,
        /// Operand length: 170 bits for the `Fp6` product, 160 for the
        /// point formulas.
        pub bits: usize,
        /// Cycles in the recorded (hand-authored InsRom) order.
        pub authored: u64,
        /// Cycles with the superoptimizing search pass on.
        pub searched: u64,
    }

    impl SearchRow {
        /// Relative change from the authored to the searched order, in
        /// percent.
        pub fn delta_pct(&self) -> f64 {
            100.0 * (self.searched as f64 - self.authored as f64) / self.authored as f64
        }
    }

    /// The searched-vs-authored sweep shared by `cycle_gate` and
    /// `ablations`: the beam width (`SEARCH_BEAM_WIDTH` when set, so CI
    /// smoke runs stay cheap, else the paper model's default) and one row
    /// per [`OpKind::ALL`] entry, in that order. Not gated: the golden
    /// rows pin the search-off calibration bit-identical.
    pub fn search_sweep() -> (usize, Vec<SearchRow>) {
        let beam: usize = std::env::var("SEARCH_BEAM_WIDTH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(CostModel::paper().search_beam_width);
        let searched = CostModel::paper().with_search(true).with_beam_width(beam);
        let rows = OpKind::ALL
            .into_iter()
            .map(|kind| {
                let bits = if kind == OpKind::Fp6Mul { 170 } else { 160 };
                let cycles = |cost| {
                    Platform::new(cost, 4, Hierarchy::TypeB)
                        .composite_report(kind, bits)
                        .cycles
                };
                SearchRow {
                    kind,
                    bits,
                    authored: cycles(CostModel::paper()),
                    searched: cycles(searched),
                }
            })
            .collect();
        (beam, rows)
    }
}

/// A row comparing a paper value against the reproduction's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// Value reported in the paper (formatted).
    pub paper: String,
    /// Value measured by the reproduction (formatted).
    pub measured: String,
}

impl Row {
    /// Builds a row from cycle counts.
    pub fn cycles(label: &str, paper: u64, measured: u64) -> Row {
        Row {
            label: label.to_string(),
            paper: format!("{paper}"),
            measured: format!("{measured}"),
        }
    }

    /// Builds a row from millisecond latencies.
    pub fn millis(label: &str, paper: f64, measured: f64) -> Row {
        Row {
            label: label.to_string(),
            paper: format!("{paper:.1}"),
            measured: format!("{measured:.1}"),
        }
    }

    /// Builds a row from dimensionless ratios.
    pub fn ratio(label: &str, paper: f64, measured: f64) -> Row {
        Row {
            label: label.to_string(),
            paper: format!("{paper:.2}x"),
            measured: format!("{measured:.2}x"),
        }
    }
}

/// Renders a paper-vs-measured table to stdout.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    println!("{:<44} {:>12} {:>12}", "metric", "paper", "measured");
    println!("{}", "-".repeat(70));
    for row in rows {
        println!("{:<44} {:>12} {:>12}", row.label, row.paper, row.measured);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        let pairs = vec![("mm_170".to_string(), 198u64), ("ma_170".to_string(), 61)];
        let text = json::write_object(&pairs);
        assert_eq!(json::parse_object(&text).unwrap(), pairs);
        assert!(json::parse_object("[1, 2]").is_err());
        assert!(json::parse_object("{\"k\": -3}").is_err());
        assert!(json::parse_object("{k: 3}").is_err());
    }

    #[test]
    fn golden_rows_roundtrip_with_tolerances() {
        let rows = vec![
            json::GoldenRow {
                name: "mm_170_pipelined".to_string(),
                cycles: 198,
                tol_pct: Some(2.0),
            },
            json::GoldenRow {
                name: "t6_mult_type_b".to_string(),
                cycles: 5883,
                tol_pct: Some(5.0),
            },
            json::GoldenRow {
                name: "legacy_row".to_string(),
                cycles: 7,
                tol_pct: None,
            },
        ];
        let text = json::write_golden(&rows);
        assert_eq!(json::parse_golden(&text).unwrap(), rows);
        // The old flat format still parses as golden rows without
        // tolerances, so pre-existing golden files keep working.
        let flat = json::write_object(&[("a".to_string(), 1)]);
        let parsed = json::parse_golden(&flat).unwrap();
        assert_eq!(parsed[0].tol_pct, None);
        // A flat report must not smuggle object rows — with or without a
        // tolerance field.
        assert!(json::parse_object(&text).is_err());
        assert!(json::parse_object("{\"x\": {\"cycles\": 1}}").is_err());
        assert!(json::parse_golden("{\"x\": {\"tol_pct\": 5}}").is_err());
        assert!(json::parse_golden("{\"x\": {\"cycles\": 1, \"bogus\": 2}}").is_err());
        assert!(json::parse_golden("{\"x\": {\"cycles\": 1}").is_err());
    }

    #[test]
    fn tolerances_split_leaf_and_composite_rows() {
        assert_eq!(metrics::tolerance_pct("mm_170_pipelined"), 2.0);
        assert_eq!(metrics::tolerance_pct("interrupt_cycles"), 2.0);
        assert_eq!(metrics::tolerance_pct("t6_mult_type_b"), 5.0);
        assert_eq!(metrics::tolerance_pct("ecc_pa_type_a"), 5.0);
        // Beyond-paper predictions get the loosest tier.
        assert_eq!(metrics::tolerance_pct("ecc_scalar_mult_p256_type_b"), 10.0);
        assert_eq!(
            metrics::tolerance_pct("ecc_pa_mixed_secp256k1_type_a"),
            10.0
        );
        // The 256-bit MM rows are paper-era model baselines, not curve
        // predictions — they stay in the tight tier.
        assert!(!metrics::is_beyond_paper("mm_256_1core_pipelined"));
        assert_eq!(metrics::tolerance_pct("mm_256_1core_pipelined"), 2.0);
        // Every collected metric gets some positive tolerance.
        for (name, _) in metrics::collect() {
            assert!(metrics::tolerance_pct(&name) > 0.0, "{name}");
        }
    }

    #[test]
    fn beyond_paper_rows_cover_both_curves_hierarchies_and_knobs() {
        let collected = metrics::collect();
        let has = |name: &str| collected.iter().any(|(k, _)| k == name);
        // P-256 (a = -3) prices the fast 8-MM doubling; secp256k1 the
        // general 10-MM one — the knob dispatch is visible in the names.
        for name in [
            "ecc_pa_mixed_secp256k1_type_a",
            "ecc_pa_mixed_secp256k1_type_b",
            "ecc_pa_mixed_p256_type_a",
            "ecc_pa_mixed_p256_type_b",
            "ecc_pd_secp256k1_type_a",
            "ecc_pd_secp256k1_type_b",
            "ecc_pd_fast_p256_type_a",
            "ecc_pd_fast_p256_type_b",
            "ecc_scalar_mult_secp256k1_type_a",
            "ecc_scalar_mult_secp256k1_type_b",
            "ecc_scalar_mult_p256_type_a",
            "ecc_scalar_mult_p256_type_b",
        ] {
            assert!(has(name), "{name} missing from collect()");
            assert!(metrics::is_beyond_paper(name), "{name}");
            // Predictions have no published anchor.
            assert_eq!(paper::reference_cycles(name), None, "{name}");
        }
        // Exactly the twelve rows above are beyond-paper.
        assert_eq!(
            collected
                .iter()
                .filter(|(k, _)| metrics::is_beyond_paper(k))
                .count(),
            12
        );
        // Same sequence, wider operands: every 256-bit row must cost more
        // than its 160-bit counterpart on the same hierarchy.
        let get = |name: &str| {
            collected
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("ecc_pa_mixed_p256_type_b") > get("ecc_pa_mixed_type_b"));
        assert!(get("ecc_pd_fast_p256_type_b") > get("ecc_pd_fast_type_b"));
        assert!(get("ecc_pd_secp256k1_type_b") > get("ecc_pd_type_b"));
        // The a = -3 shortcut is visible at 256 bits: P-256's doubling is
        // cheaper than secp256k1's on the same hierarchy.
        assert!(get("ecc_pd_fast_p256_type_b") < get("ecc_pd_secp256k1_type_b"));
        assert!(get("ecc_pd_fast_p256_type_a") < get("ecc_pd_secp256k1_type_a"));
    }

    #[test]
    fn paper_references_attach_to_real_metrics() {
        // The Table 2 ECC PA reproduction is the mixed sequence; the
        // general rows are gated baselines with no paper counterpart.
        assert_eq!(paper::reference_cycles("ecc_pa_mixed_type_b"), Some(2888));
        assert_eq!(paper::reference_cycles("ecc_pa_mixed_type_a"), Some(7185));
        assert_eq!(paper::reference_cycles("ecc_pa_type_b"), None);
        assert_eq!(paper::reference_cycles("mm_170_sequential"), None);
        assert_eq!(paper::reference_cycles("ma_170_conditional_worst"), None);
        // The Table 2 ECC PD rows split by hierarchy: the fast a = -3
        // doubling reproduces the Type-A row, the general (InsRom)
        // doubling keeps the Type-B row; the other two combinations are
        // gated baselines with no paper counterpart.
        assert_eq!(paper::reference_cycles("ecc_pd_fast_type_a"), Some(5793));
        assert_eq!(paper::reference_cycles("ecc_pd_type_b"), Some(2665));
        assert_eq!(paper::reference_cycles("ecc_pd_type_a"), None);
        assert_eq!(paper::reference_cycles("ecc_pd_fast_type_b"), None);
        assert_eq!(paper::reference_cycles("program_cache_hit_rate_pct"), None);
        // Every metric with a paper reference is actually collected, so
        // the scorecard can never carry a dangling paper column.
        let collected = metrics::collect();
        for name in [
            "interrupt_cycles",
            "mm_170_pipelined",
            "mm_160_pipelined",
            "mm_1024_pipelined",
            "ma_170_pipelined",
            "ms_170_pipelined",
            "t6_mult_type_a",
            "t6_mult_type_b",
            "ecc_pa_mixed_type_a",
            "ecc_pa_mixed_type_b",
            "ecc_pd_fast_type_a",
            "ecc_pd_type_b",
        ] {
            assert!(paper::reference_cycles(name).is_some(), "{name}");
            assert!(collected.iter().any(|(k, _)| k == name), "{name}");
        }
    }

    #[test]
    fn engine_rows_are_gated_deterministic_and_meaningful() {
        let rows = metrics::engine_rows();
        assert_eq!(
            rows,
            metrics::engine_rows(),
            "serving model must be deterministic"
        );
        let collected = metrics::collect();
        let get = |name: &str| {
            collected
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing from collect()"))
        };
        for (name, value) in &rows {
            assert_eq!(get(name), *value, "{name}");
            // Engine rows are serving-model telemetry, not paper numbers
            // and not curve predictions.
            assert_eq!(paper::reference_cycles(name), None, "{name}");
            assert!(!metrics::is_beyond_paper(name), "{name}");
            assert_eq!(metrics::tolerance_pct(name), 5.0, "{name}");
        }
        // Four instances serve the fixed trace strictly faster than one,
        // and batching amortises most program fetches into cache hits.
        assert!(get("engine_ops_per_sec_x4") > get("engine_ops_per_sec_x1"));
        assert!(get("engine_batch_cache_hit_rate_pct") >= 75);
        assert!(get("engine_p99_latency_cycles_x4") > 0);
    }

    #[test]
    fn cache_hit_rate_metric_reflects_compile_once_drivers() {
        // Four ladders, two compilations: 6 hits / 8 lookups. A different
        // value means a driver regressed to per-call compilation (or the
        // cache stopped being consulted).
        assert_eq!(metrics::program_cache_hit_rate_pct(), 75);
    }

    #[test]
    fn metrics_are_deterministic_and_sorted() {
        let a = metrics::collect();
        let b = metrics::collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.iter().any(|(k, _)| k == "mm_170_pipelined"));
    }

    #[test]
    fn rows_format_cleanly() {
        let r = Row::cycles("MM 170-bit", 193, 200);
        assert_eq!(r.paper, "193");
        let r = Row::millis("torus", 20.0, 33.25);
        assert_eq!(r.measured, "33.2");
        let r = Row::ratio("speedup", 2.96, 3.015);
        assert_eq!(r.measured, "3.02x");
        print_table("smoke", &[r]);
    }
}
