//! Fixed-backend ladder-variant bench: plain double-and-add against the
//! signed-digit NAF ladder and the `Window4` path (the cached fixed-base
//! comb for the curve's base point) on secp256k1, all running on the
//! fixed-width instantiation of `ecc::ladder` (the curve's field has a
//! `fixed256` backend).
//!
//! Under `cargo bench` with `BENCH_REPORT_JSON=<path>` set, the harness
//! re-times the variants with a plain `Instant` loop and merges the
//! speedup-over-double-and-add ratios (×100, flat integer keys prefixed
//! `ladder_`) into that report file, next to the `fixed_vs_heap` rows.

use bignum::BigUint;
use criterion::{black_box, criterion_group, Criterion};
use ecc::prelude::*;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Fixture {
    curve: Curve,
    k: BigUint,
}

impl Fixture {
    fn new() -> Fixture {
        let curve = Curve::from_parameters::<Secp256k1>().expect("registered curve");
        assert!(curve.fp().fixed256().is_some(), "secp256k1 runs fixed");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1024);
        let k = BigUint::random_bits(&mut rng, 256);
        // Build (and cache) the comb table outside the timed region: the
        // bench measures the steady repeated-base state the engine sees.
        let _ = curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::Window4);
        Fixture { curve, k }
    }

    fn run(&self, algorithm: ScalarMulAlgorithm) -> AffinePoint {
        self.curve.scalar_mul(
            black_box(self.curve.base_point()),
            black_box(&self.k),
            algorithm,
        )
    }
}

fn bench_ladder_variants(c: &mut Criterion) {
    let f = Fixture::new();
    let mut group = c.benchmark_group("ladder_variants/secp256k1_base");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("double_and_add", |b| {
        b.iter(|| f.run(ScalarMulAlgorithm::DoubleAndAdd))
    });
    group.bench_function("naf", |b| b.iter(|| f.run(ScalarMulAlgorithm::Naf)));
    group.bench_function("window4_comb", |b| {
        b.iter(|| f.run(ScalarMulAlgorithm::Window4))
    });
    group.finish();
}

/// Mean seconds per call of `f`, from a single `Instant` window sized off
/// a one-shot estimate (~100 ms of measurement).
fn secs_per_iter<T, F: FnMut() -> T>(mut f: F) -> f64 {
    let start = Instant::now();
    black_box(f());
    let est = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.1 / est) as u64).clamp(1, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Measures the ladder speedups over double-and-add and merges them
/// (×100, rounded) into the flat JSON report at `path`, preserving any
/// keys already there.
fn emit_speedup_report(path: &str) {
    let path = bench::json::report_path(path);
    let f = Fixture::new();
    let baseline = secs_per_iter(|| f.run(ScalarMulAlgorithm::DoubleAndAdd));
    let naf = baseline / secs_per_iter(|| f.run(ScalarMulAlgorithm::Naf));
    let window = baseline / secs_per_iter(|| f.run(ScalarMulAlgorithm::Window4));
    println!("fixed ladder speedup over double-and-add: naf {naf:.2}x, window4(comb) {window:.2}x");

    let mut pairs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| bench::json::parse_object(&text).ok())
        .unwrap_or_default();
    pairs.retain(|(k, _)| !k.starts_with("ladder_"));
    pairs.push((
        "ladder_naf_speedup_x100".to_string(),
        (naf * 100.0).round() as u64,
    ));
    pairs.push((
        "ladder_window_speedup_x100".to_string(),
        (window * 100.0).round() as u64,
    ));
    std::fs::write(path, bench::json::write_object(&pairs)).expect("write BENCH_REPORT_JSON");
}

criterion_group!(benches, bench_ladder_variants);

fn main() {
    benches();
    let bench_mode = std::env::args().skip(1).any(|arg| arg == "--bench");
    if bench_mode {
        if let Ok(path) = std::env::var("BENCH_REPORT_JSON") {
            emit_speedup_report(&path);
        }
    }
}
