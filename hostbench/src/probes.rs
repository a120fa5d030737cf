//! The traced run's per-layer ledger: leaf unit costs timed by calling
//! each layer directly, a few protocol-level probes, and the assembly of
//! every per-layer metric from those and the recorded spans.
//!
//! Residuals are the composition argument in host nanoseconds: measured
//! time minus Σ exact count × unit cost, as a percentage of measured time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use ceilidh::CeilidhParams;
use ecc::{Curve, ScalarMulAlgorithm};
use field::FpContext;
use platform::{sample_modulus, Coprocessor, CostModel, Hierarchy, OpKind, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::model::Model;
use crate::stats::percentile;
use crate::trace::{Recorder, Span};

/// Fastest of eleven batches of the per-call time of `f`, in ns; each
/// batch runs for about two milliseconds. The minimum is the uncontended
/// unit cost: other tenants' load on a shared host comes and goes over
/// seconds, and a leaf probe is too short to average it out.
fn unit_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < Duration::from_millis(2) {
        f();
        iters += 1;
    }
    (0..11)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Leaf unit costs in nanoseconds, keyed by per-layer metric name.
pub struct Units(Vec<(String, f64)>);

impl Units {
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("unit cost {name} was not measured"))
    }
}

fn heap_mont_mul(m: &BigUint, rng: &mut StdRng) -> f64 {
    let mont = MontgomeryParams::new(m).expect("odd modulus");
    let a = mont.to_mont(&BigUint::random_below(rng, m));
    let b = mont.to_mont(&BigUint::random_below(rng, m));
    unit_ns(|| {
        black_box(mont.mont_mul(black_box(&a), black_box(&b)));
    })
}

fn fp_ops(fp: &FpContext, bits: usize, rng: &mut StdRng, out: &mut Vec<(String, f64)>) {
    let a = fp.random(rng);
    let b = fp.random(rng);
    out.push((
        format!("field.fp_mul_ns.{bits}"),
        unit_ns(|| {
            let (x, y) = (black_box(&a), black_box(&b));
            black_box(fp.mul(x, y));
        }),
    ));
    if bits == 256 {
        return;
    }
    out.push((
        format!("field.fp_add_ns.{bits}"),
        unit_ns(|| {
            let (x, y) = (black_box(&a), black_box(&b));
            black_box(fp.add(x, y));
        }),
    ));
    out.push((
        format!("field.fp_sub_ns.{bits}"),
        unit_ns(|| {
            let (x, y) = (black_box(&a), black_box(&b));
            black_box(fp.sub(x, y));
        }),
    ));
    out.push((
        format!("field.fp_inv_ns.{bits}"),
        unit_ns(|| {
            black_box(fp.inv(black_box(&a)));
        }),
    ));
}

fn coproc(out: &mut Vec<(String, f64)>, m: &BigUint, with_add_sub: bool, rng: &mut StdRng) {
    let cop = Coprocessor::new(CostModel::paper(), 4);
    let x = BigUint::random_below(rng, m);
    let y = BigUint::random_below(rng, m);
    let us = |ns: f64| ns / 1e3;
    let bits = m.bit_len();
    out.push((
        format!("platform.coproc_mont_mul_us.{bits}"),
        us(unit_ns(|| {
            black_box(cop.mont_mul(black_box(&x), black_box(&y), m));
        })),
    ));
    if with_add_sub {
        out.push((
            format!("platform.coproc_mod_add_us.{bits}"),
            us(unit_ns(|| {
                black_box(cop.mod_add(black_box(&x), black_box(&y), m));
            })),
        ));
        out.push((
            format!("platform.coproc_mod_sub_us.{bits}"),
            us(unit_ns(|| {
                black_box(cop.mod_sub(black_box(&x), black_box(&y), m));
            })),
        ));
    }
}

/// Times every leaf the ledger composes from.
pub fn unit_costs(seed: u64) -> Units {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1eaf);
    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    let p160 = Curve::p160_reproduction().expect("built-in 160-bit curve");
    let p256 = Curve::by_name("p256").expect("registered curve");
    let (m160, m170) = (p160.fp().modulus().clone(), params.p().clone());
    let mut out = Vec::new();

    for (bits, m) in [
        (160, m160.clone()),
        (170, m170.clone()),
        (512, sample_modulus(512)),
        (1024, sample_modulus(1024)),
    ] {
        out.push((
            format!("bignum.mont_mul_ns.{bits}"),
            heap_mont_mul(&m, &mut rng),
        ));
    }

    let m256 = p256.fp().modulus();
    let ctx = MontgomeryContext::<4>::new(m256).expect("256-bit odd modulus");
    let lane = |rng: &mut StdRng| {
        let v = Uint::<4>::from_biguint(&BigUint::random_below(rng, m256)).expect("fits");
        ctx.to_mont(&v)
    };
    let (a, b) = (lane(&mut rng), lane(&mut rng));
    out.push((
        "bignum.fixed_mont_mul_ns.256".into(),
        unit_ns(|| {
            black_box(ctx.mont_mul(black_box(&a), black_box(&b)));
        }),
    ));
    let a8: [Uint<4>; 8] = std::array::from_fn(|_| lane(&mut rng));
    let b8: [Uint<4>; 8] = std::array::from_fn(|_| lane(&mut rng));
    out.push((
        "bignum.fixed_mont_mul_batch8_ns_per_lane.256".into(),
        unit_ns(|| {
            black_box(ctx.mont_mul_batch::<8>(black_box(&a8), black_box(&b8)));
        }) / 8.0,
    ));

    fp_ops(p160.fp(), 160, &mut rng, &mut out);
    fp_ops(params.fp(), 170, &mut rng, &mut out);
    fp_ops(p256.fp(), 256, &mut rng, &mut out);
    let fp6 = params.fp6();
    let (x, y) = (fp6.random(&mut rng), fp6.random(&mut rng));
    out.push((
        "field.fp6_mul_ns.170".into(),
        unit_ns(|| {
            black_box(fp6.mul(black_box(&x), black_box(&y)));
        }),
    ));

    coproc(&mut out, &m160, true, &mut rng);
    coproc(&mut out, &m170, true, &mut rng);
    coproc(&mut out, &sample_modulus(1024), false, &mut rng);
    out.push((
        "platform.compile_cold_us".into(),
        unit_ns(|| {
            let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
            black_box(plat.compiled(OpKind::Fp6Mul, 170));
        }) / 1e3,
    ));
    Units(out)
}

/// Protocol-level calls that no workload issues directly, recorded as
/// spans: the torus exponentiation and (de)compression inside every
/// CEILIDH operation, and the 160-bit double-and-add ladder.
pub fn protocol_probes(rec: &mut Recorder, seed: u64) {
    const CALLS: usize = 11;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0b);
    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
    let fp = params.fp();
    for _ in 0..CALLS {
        let (e, base) = params.random_subgroup_element(&mut rng);
        rec.begin("hostbench.probe.torus");
        let x = rec.timed("ceilidh.pow", 1, Some(fp), || params.pow(&base, &e));
        let c = rec.timed("ceilidh.compress", 1, Some(fp), || {
            ceilidh::compress(&params, &x)
        });
        let back = c.as_ref().ok().map(|c| {
            rec.timed("ceilidh.decompress", 1, Some(fp), || {
                ceilidh::decompress(&params, c)
            })
        });
        let ok = back.is_some_and(|d| d.ok() == Some(x));
        rec.settle(3, ok, "decompress(compress(x)) must return x");
        rec.end();

        let point = curve.random_point(&mut rng);
        let k = BigUint::random_bits(&mut rng, 160);
        rec.begin("hostbench.probe.scalar_mul");
        let got = rec.timed("ecc.scalar_mul.p160", 1, Some(curve.fp()), || {
            curve.scalar_mul(&point, &k, ScalarMulAlgorithm::DoubleAndAdd)
        });
        let twin = curve.scalar_mul(&point, &k, ScalarMulAlgorithm::Naf);
        rec.settle(1, got == twin, "double-and-add and NAF ladders must agree");
        rec.end();
    }
}

fn spans<'a>(rec: &'a Recorder, name: &'a str) -> impl Iterator<Item = &'a Span> {
    rec.spans
        .iter()
        .filter(move |s| s.name == name && s.parent.is_some())
}

fn p50(rec: &Recorder, name: &str) -> Option<u64> {
    let d: Vec<u64> = spans(rec, name).map(Span::ns).collect();
    (!d.is_empty()).then(|| percentile(&d, 50))
}

/// `100 · (measured − predicted) / measured` for the fastest span named
/// `name` (the uncontended call, like the minimum-of-batches unit costs),
/// where `predict` prices a span from its exact counts.
fn residual_pct(rec: &Recorder, name: &str, predict: impl Fn(&Span) -> f64) -> Option<f64> {
    let fastest = spans(rec, name).min_by_key(|s| s.ns())?;
    let measured = fastest.ns() as f64;
    Some(100.0 * (measured - predict(fastest)) / measured)
}

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Assembles every per-layer metric from the spans, the unit costs and
/// the model; a metric whose spans are missing is reported as missing.
pub fn per_layer(
    rec: &Recorder,
    units: &Units,
    model: &Model,
    overhead_pct: f64,
) -> (Vec<Metric>, Vec<String>) {
    let mut out: Vec<Metric> = Vec::new();
    let mut missing = Vec::new();
    for (name, ns) in &units.0 {
        let unit = if name.contains("_us") { "us" } else { "ns" };
        out.push((name.clone(), *ns, unit));
    }

    // p50 host time per call, from the spans.
    let mut timed =
        |metric: String, span: &str, scale: f64, unit: &'static str| match p50(rec, span) {
            Some(ns) => out.push((metric, ns as f64 / scale, unit)),
            None => missing.push(metric),
        };
    for op in [
        "encrypt_hybrid",
        "decrypt_hybrid",
        "sign",
        "verify",
        "pow",
        "compress",
        "decompress",
    ] {
        timed(
            format!("ceilidh.{op}_us"),
            &format!("ceilidh.{op}"),
            1e3,
            "us",
        );
    }
    for curve in ["p160", "p256", "secp256k1"] {
        for op in ["keygen", "shared_secret"] {
            timed(
                format!("ecc.{op}_us.{curve}"),
                &format!("ecc.{op}.{curve}"),
                1e3,
                "us",
            );
        }
    }
    for curve in ["p256", "secp256k1"] {
        timed(
            format!("ecc.scalar_mul_batch8_us.{curve}"),
            &format!("ecc.scalar_mul_batch8.{curve}"),
            1e3,
            "us",
        );
    }
    for op in ["encrypt", "decrypt", "sign", "verify"] {
        timed(
            format!("rsa_torus.{op}_us"),
            &format!("rsa_torus.{op}"),
            1e3,
            "us",
        );
    }
    for op in ["ecc_ladder_a", "ecc_ladder_b", "torus_exp", "rsa_exp"] {
        timed(
            format!("platform.{op}_host_ms"),
            &format!("platform.{op}"),
            1e6,
            "ms",
        );
    }
    for x in ["x1", "x4"] {
        timed(
            format!("engine.fleet_run_ms.{x}"),
            &format!("engine.fleet_run.{x}"),
            1e6,
            "ms",
        );
    }

    // Exact field-operation counts and heap allocations per protocol op.
    let median_of = |span: &str, f: &dyn Fn(&Span) -> Option<u64>| {
        let v: Vec<u64> = spans(rec, span).filter_map(f).collect();
        (!v.is_empty()).then(|| percentile(&v, 50) as f64)
    };
    for (op, span) in FIELD_OPS {
        for (i, kind) in ["mul", "add", "sub", "inv"].into_iter().enumerate() {
            let metric = format!("field.{kind}_per_op.{op}");
            let get = |c: field::OpCount| [c.mul, c.add, c.sub, c.inv][i];
            match median_of(span, &|s| s.fp.map(get)) {
                Some(v) => out.push((metric, v, "count")),
                None => missing.push(metric),
            }
        }
    }
    for (op, span) in ALLOC_OPS {
        let metric = format!("field.alloc_per_op.{op}");
        match median_of(span, &|s| Some(s.allocs)) {
            Some(v) => out.push((metric, v, "count")),
            None => missing.push(metric),
        }
    }

    // Residuals: measured minus Σ exact count × unit cost.
    let fp_price = |bits: usize| {
        let (mul, add, sub, inv) = (
            units.get(&format!("field.fp_mul_ns.{bits}")),
            units.get(&format!("field.fp_add_ns.{bits}")),
            units.get(&format!("field.fp_sub_ns.{bits}")),
            units.get(&format!("field.fp_inv_ns.{bits}")),
        );
        move |s: &Span| {
            s.fp.map_or(0.0, |c| {
                c.mul as f64 * mul + c.add as f64 * add + c.sub as f64 * sub + c.inv as f64 * inv
            })
        }
    };
    let mut residual = |metric: &str, r: Option<f64>| match r {
        Some(v) => out.push((metric.to_string(), v, "%")),
        None => missing.push(metric.to_string()),
    };
    residual(
        "ceilidh.pow_residual_pct",
        residual_pct(rec, "ceilidh.pow", fp_price(170)),
    );
    residual(
        "ecc.scalar_mul_residual_pct.p160",
        residual_pct(rec, "ecc.scalar_mul.p160", fp_price(160)),
    );
    for (op, bits) in [
        ("ecc_ladder_a", 160),
        ("ecc_ladder_b", 160),
        ("torus_exp", 170),
        ("rsa_exp", 1024),
    ] {
        let mm = units.get(&format!("platform.coproc_mont_mul_us.{bits}")) * 1e3;
        let (ma, ms) = if bits == 1024 {
            (0.0, 0.0)
        } else {
            (
                units.get(&format!("platform.coproc_mod_add_us.{bits}")) * 1e3,
                units.get(&format!("platform.coproc_mod_sub_us.{bits}")) * 1e3,
            )
        };
        let price = |s: &Span| {
            s.sim.map_or(0.0, |r| {
                r.modmuls as f64 * mm + r.modadds as f64 * ma + r.modsubs as f64 * ms
            })
        };
        residual(
            &format!("platform.walk_residual_pct.{op}"),
            residual_pct(rec, &format!("platform.{op}"), price),
        );
    }

    // Exact simulator counts on the fixed Table 3 inputs.
    for (op, r) in model.reports() {
        for (kind, v) in [
            ("modmuls", r.modmuls),
            ("modadds", r.modadds),
            ("modsubs", r.modsubs),
            ("interrupts", r.interrupts),
            ("overlapped_cycles", r.overlapped_cycles),
        ] {
            // Zero by construction, so not declared: RSA issues only
            // products, and Type-A never overlaps.
            let always_zero = (op == "rsa_exp" && !matches!(kind, "modmuls" | "interrupts"))
                || (op == "ecc_ladder_a" && kind == "overlapped_cycles");
            if !always_zero {
                out.push((format!("platform.{kind}.{op}"), v as f64, "count"));
            }
        }
    }

    let fleet = &model.fleet_x4;
    for (name, value, unit) in [
        (
            "engine.cache_hit_rate_pct",
            fleet.cache_hit_rate_pct() as f64,
            "%",
        ),
        (
            "engine.utilization_pct",
            fleet.utilization_pct() as f64,
            "%",
        ),
        (
            "engine.mean_batch_size",
            fleet.mean_batch_size_x100() as f64 / 100.0,
            "count",
        ),
        (
            "engine.peak_queue_depth",
            fleet.peak_queue_depth as f64,
            "count",
        ),
    ] {
        out.push((name.into(), value, unit));
    }
    out.push(("hostbench.trace_overhead_pct".into(), overhead_pct, "%"));
    (out, missing)
}

/// Protocol ops whose exact field-operation counts are reported, with the
/// span each is read from.
const FIELD_OPS: [(&str, &str); 6] = [
    ("encrypt_hybrid", "ceilidh.encrypt_hybrid"),
    ("decrypt_hybrid", "ceilidh.decrypt_hybrid"),
    ("sign", "ceilidh.sign"),
    ("verify", "ceilidh.verify"),
    ("ecc_keygen.p160", "ecc.keygen.p160"),
    ("ecc_shared_secret.p160", "ecc.shared_secret.p160"),
];

/// Protocol ops whose heap allocations are reported.
const ALLOC_OPS: [(&str, &str); 10] = [
    ("encrypt_hybrid", "ceilidh.encrypt_hybrid"),
    ("decrypt_hybrid", "ceilidh.decrypt_hybrid"),
    ("sign", "ceilidh.sign"),
    ("verify", "ceilidh.verify"),
    ("ecc_keygen.p160", "ecc.keygen.p160"),
    ("ecc_shared_secret.p160", "ecc.shared_secret.p160"),
    ("rsa_decrypt", "rsa_torus.decrypt"),
    ("rsa_sign", "rsa_torus.sign"),
    ("ecc_shared_secret.p256", "ecc.shared_secret.p256"),
    ("ecc_batch8.p256", "ecc.scalar_mul_batch8.p256"),
];
