//! Prints the derived claims of the paper's running text in one place
//! (the per-table binaries print the full tables). Its Table 3 rows run
//! the drivers on [`bench::table3`]'s inputs, as `table3` does.
//!
//! With `BENCH_REPORT_JSON=<path>` set, additionally emits the gated cycle
//! metrics as flat JSON — CI diffs that file against
//! `crates/bench/golden/cycles.json` via the `cycle_gate` binary.

use bench::{metrics, paper, print_table, table3, Row};
use engine::{Fleet, FleetConfig, TrafficProfile};
use platform::{Coprocessor, CostModel, Hierarchy, OpKind, Platform};

fn main() {
    let type_a = Platform::new(CostModel::paper(), 4, Hierarchy::TypeA);
    let type_b = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    let mm170 = type_b.montgomery_multiplication_report(170).cycles;
    let mm1024 = type_b.montgomery_multiplication_report(1024).cycles;
    let t6_a = type_a.composite_report(OpKind::Fp6Mul, 170).cycles;
    let t6_b = type_b.composite_report(OpKind::Fp6Mul, 170).cycles;
    // Table 2's ECC PA rows are reproduced by the mixed-coordinate
    // sequence (the ladder's case); the general 16-MM addition stays a
    // gated ablation baseline. The PD rows split by hierarchy: Type-A is
    // the fast a = -3 doubling, Type-B the general InsRom doubling.
    let pa_a = type_a.composite_report(OpKind::EccPaMixed, 160).cycles;
    let pa_b = type_b.composite_report(OpKind::EccPaMixed, 160).cycles;
    let pd_fast_a = type_a.composite_report(OpKind::EccPdFast, 160).cycles;
    let pd_b = type_b.composite_report(OpKind::EccPd, 160).cycles;

    // Table 3 on its inputs. The default ladder (CostModel::paper) runs
    // the fast doubling; the InsRom ladder runs the general doubling the
    // paper's own Table 2 rows are consistent with.
    let inputs = table3::Inputs::draw();
    let run = inputs.run(&type_b);
    let insrom = Platform::new(CostModel::paper().with_fast_pd(false), 4, Hierarchy::TypeB);
    let ecc_insrom = inputs.ecc(&insrom).cycles;
    let to_ms = |c: u64| type_b.cost().cycles_to_ms(c);

    let mc1 = Coprocessor::new(CostModel::paper(), 1).mont_mul_cycles(256);
    let mc4 = Coprocessor::new(CostModel::paper(), 4).mont_mul_cycles(256);
    let mm170_seq = Coprocessor::new(CostModel::paper_sequential(), 4).mont_mul_cycles(170);

    let rows = vec![
        Row::cycles(
            "170-bit MM, pipelined schedule (Table 1)",
            paper::MM_170,
            mm170,
        ),
        Row::cycles(
            "170-bit MM, sequential baseline (ablation)",
            paper::MM_170,
            mm170_seq,
        ),
        Row::ratio(
            "1024-bit MM vs 170-bit MM (Table 1)",
            paper::MM_1024 as f64 / paper::MM_170 as f64,
            mm1024 as f64 / mm170 as f64,
        ),
        Row::ratio(
            "Type-B speed-up, T6 mult (Table 2)",
            paper::T6_MULT_TYPE_A as f64 / paper::T6_MULT_TYPE_B as f64,
            t6_a as f64 / t6_b as f64,
        ),
        Row::ratio(
            "Type-B speed-up, ECC PA (Table 2)",
            paper::ECC_PA_TYPE_A as f64 / paper::ECC_PA_TYPE_B as f64,
            pa_a as f64 / pa_b as f64,
        ),
        Row::ratio(
            "Type-B speed-up, ECC PD (Table 2)",
            paper::ECC_PD_TYPE_A as f64 / paper::ECC_PD_TYPE_B as f64,
            pd_fast_a as f64 / pd_b as f64,
        ),
        Row::millis(
            "torus exponentiation [ms] (Table 3)",
            paper::TORUS_MS,
            to_ms(run.torus.cycles),
        ),
        Row::millis(
            "RSA exponentiation [ms] (Table 3)",
            paper::RSA_MS,
            to_ms(run.rsa.cycles),
        ),
        Row::millis(
            "ECC scalar mult [ms] (Table 3, fast-PD ladder)",
            paper::ECC_MS,
            to_ms(run.ecc.cycles),
        ),
        Row::millis(
            "ECC scalar mult [ms] (InsRom-general PD)",
            paper::ECC_MS,
            to_ms(ecc_insrom),
        ),
        Row::ratio(
            "CEILIDH faster than RSA (headline)",
            paper::RSA_MS / paper::TORUS_MS,
            run.rsa_over_torus(),
        ),
        Row::ratio(
            "ECC faster than CEILIDH",
            paper::TORUS_MS / paper::ECC_MS,
            run.torus_over_ecc(),
        ),
        Row::ratio(
            "4-core MM speed-up, 256-bit (Fig. 5)",
            paper::MULTICORE_SPEEDUP_4,
            mc1 as f64 / mc4 as f64,
        ),
    ];
    print_table("Derived claims: paper vs reproduction", &rows);

    // Throughput-engine serving numbers (beyond the paper): the gated
    // mixed trace served on growing fleets of the 4-core Type-B platform
    // — the Fig. 5 scaling story extended from cores to instances.
    let trace = TrafficProfile::mixed_date2008()
        .generate(metrics::ENGINE_TRACE_SEED, metrics::ENGINE_TRACE_REQUESTS);
    println!(
        "\nThroughput engine: {} requests, mixed sign/ECDH/RSA/torus trace (seed {})",
        metrics::ENGINE_TRACE_REQUESTS,
        metrics::ENGINE_TRACE_SEED
    );
    println!(
        "{:<11} {:>8} {:>10} {:>10} {:>6} {:>6}",
        "instances", "ops/sec", "p50 [ms]", "p99 [ms]", "util", "hit%"
    );
    for instances in [1usize, 2, 4, 8] {
        let summary = Fleet::new(FleetConfig::date2008(instances)).run(trace.clone());
        println!(
            "{instances:<11} {:>8} {:>10.2} {:>10.2} {:>5}% {:>5}%",
            summary.ops_per_sec,
            to_ms(summary.p50_latency_cycles),
            to_ms(summary.p99_latency_cycles),
            summary.utilization_pct(),
            summary.cache_hit_rate_pct(),
        );
    }

    // Saturation knee per fleet size: the offered load rises (mean
    // inter-arrival gap halves, starting from 2× the profile default)
    // until throughput stops improving by ≥ 5% — past that point extra
    // arrivals only grow the queue, so the gap where growth stalls is
    // where the fleet saturates. Informational (`info_` keys are exempt
    // from the cycle gate): it extends the scaling table above along the
    // load axis.
    println!("\nSaturation knee (gap halved until ops/sec growth stalls below 5%):");
    println!(
        "{:<11} {:>16} {:>8} {:>6}",
        "instances", "knee gap [cyc]", "ops/sec", "util"
    );
    let mut knee_rows: Vec<(String, u64)> = Vec::new();
    for instances in [1usize, 2, 4, 8] {
        let mut profile = TrafficProfile::mixed_date2008();
        profile.mean_interarrival *= 2;
        let run = |gap: u64| {
            let mut p = profile.clone();
            p.mean_interarrival = gap;
            let trace = p.generate(metrics::ENGINE_TRACE_SEED, metrics::ENGINE_TRACE_REQUESTS);
            Fleet::new(FleetConfig::date2008(instances)).run(trace)
        };
        let mut gap = profile.mean_interarrival;
        let mut summary = run(gap);
        let knee = loop {
            if gap == 0 {
                break summary; // saturated only at a pure burst
            }
            let next_gap = gap / 2;
            let next = run(next_gap);
            if next.ops_per_sec * 100 < summary.ops_per_sec * 105 {
                break summary; // < 5% growth: knee reached at `gap`
            }
            gap = next_gap;
            summary = next;
        };
        println!(
            "{instances:<11} {gap:>16} {:>8} {:>5}%",
            knee.ops_per_sec,
            knee.utilization_pct(),
        );
        knee_rows.push((format!("info_engine_knee_interarrival_x{instances}"), gap));
        knee_rows.push((
            format!("info_engine_knee_ops_per_sec_x{instances}"),
            knee.ops_per_sec,
        ));
    }

    if let Ok(path) = std::env::var("BENCH_REPORT_JSON") {
        let mut collected = metrics::collect();
        let hit_rate = collected
            .iter()
            .find(|(k, _)| k == "program_cache_hit_rate_pct")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        collected.extend(knee_rows);
        let text = bench::json::write_object(&collected);
        std::fs::write(&path, text).expect("write BENCH_REPORT_JSON");
        println!(
            "\nwrote gated cycle metrics to {path} \
             (program-cache hit rate over the batch workload: {hit_rate}%)"
        );
    }
}
