//! Criterion bench behind Table 2: composite operations (Fp6 multiplication,
//! ECC point addition/doubling) under Type-A and Type-B on the simulator,
//! plus the host field implementation as a baseline.

use ceilidh::CeilidhParams;
use criterion::{criterion_group, criterion_main, Criterion};
use platform::{CostModel, Hierarchy, OpKind, Platform};
use rand::SeedableRng;
use std::time::Duration;

fn bench_simulated_composites(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/simulated");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for (name, hierarchy) in [("type_a", Hierarchy::TypeA), ("type_b", Hierarchy::TypeB)] {
        let plat = Platform::new(CostModel::paper(), 4, hierarchy);
        group.bench_function(format!("{name}/t6_mult_170"), |b| {
            b.iter(|| plat.composite_report(OpKind::Fp6Mul, 170))
        });
        group.bench_function(format!("{name}/ecc_pa_160"), |b| {
            b.iter(|| plat.composite_report(OpKind::EccPaGeneral, 160))
        });
        group.bench_function(format!("{name}/ecc_pd_160"), |b| {
            b.iter(|| plat.composite_report(OpKind::EccPd, 160))
        });
    }
    group.finish();
}

fn bench_host_fp6_mult(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let params = CeilidhParams::date2008().unwrap();
    let fp6 = params.fp6();
    let a = fp6.random(&mut rng);
    let b = fp6.random(&mut rng);
    let mut group = c.benchmark_group("table2/host");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("fp6_mult_170", |bch| bch.iter(|| fp6.mul(&a, &b)));
    group.finish();
}

criterion_group!(benches, bench_simulated_composites, bench_host_fp6_mult);
criterion_main!(benches);
