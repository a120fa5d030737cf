//! Property-based tests for the throughput engine:
//!
//! * **prices are executions** — the engine's compositional service price
//!   of each work class equals the cycles the platform's driver executes
//!   on a balanced input (for ECC, up to the ladder's first set bit);
//! * **scaling never hurts** — on closed (burst) workloads, fleet
//!   throughput is monotone non-decreasing in the instance count;
//! * **percentiles are ordered** — p50 ≤ p99 ≤ max on every run, and the
//!   nearest-rank estimator is monotone and bounded by the sample.

use bignum::BigUint;
use ceilidh::CeilidhParams;
use ecc::Curve;
use engine::prelude::*;
use platform::Platform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A balanced `bits`-bit exponent or scalar: the top bit and the
/// `⌊bits/2⌋ - 1` lowest bits set, `⌊bits/2⌋` set bits in all.
fn balanced(bits: usize) -> BigUint {
    let low = &BigUint::one().shl_bits(bits / 2 - 1) - &BigUint::one();
    &BigUint::one().shl_bits(bits - 1) + &low
}

/// `Fleet::service_cycles` prices a `b`-bit ladder as `b` squarings or
/// doublings plus `⌊b/2⌋` multiplications or additions. On balanced
/// inputs the torus and RSA drivers execute exactly that; the ECC ladder
/// executes one doubling and one addition fewer, because its first set
/// bit loads the point instead of doubling and adding.
#[test]
fn service_prices_match_the_executed_drivers() {
    let config = FleetConfig::date2008(1);
    let plat = Platform::new(config.cost, config.cores_per_instance, config.hierarchy);
    let mut fleet = Fleet::new(config);

    let params = CeilidhParams::date2008().unwrap();
    let bits = params.fp6().fp().modulus().bit_len();
    let (_, torus) = plat.torus_exponentiation(&params, &params.generator(), &balanced(bits));
    assert_eq!(
        fleet.service_cycles(&WorkClass::Torus { bits }),
        torus.cycles
    );

    let bits = 1024;
    let modulus = platform::sample_modulus(bits);
    let (_, rsa) = plat.rsa_exponentiation(&modulus, &BigUint::from(3u64), &balanced(bits));
    assert_eq!(fleet.service_cycles(&WorkClass::Rsa { bits }), rsa.cycles);

    for name in ["p256", "secp256k1"] {
        let curve = Curve::by_name(name).unwrap();
        let bits = curve.fp().modulus().bit_len();
        let (_, ecc) = plat.ecc_scalar_multiplication(&curve, curve.base_point(), &balanced(bits));
        let (pd, pa) = plat.ladder_kinds(&curve);
        let first_bit =
            plat.composite_report(pd, bits).cycles + plat.composite_report(pa, bits).cycles;
        let class = WorkClass::Ecc { curve: name.into() };
        assert_eq!(
            fleet.service_cycles(&class),
            ecc.cycles + first_bit,
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a closed (burst) workload, adding instances never lowers
    /// throughput: batch formation is instance-count-invariant when every
    /// request is already queued, so the dispatch sequence list-schedules
    /// onto more machines without anomalies.
    #[test]
    fn burst_throughput_is_monotone_in_instance_count(seed in 0u64..200, n in 8usize..48) {
        let trace = TrafficProfile::mixed_date2008().burst(seed, n);
        let mut last = 0u64;
        for instances in 1usize..=4 {
            let summary = Fleet::new(FleetConfig::date2008(instances)).run(trace.clone());
            prop_assert_eq!(summary.completed, n as u64);
            prop_assert!(
                summary.ops_per_sec >= last,
                "seed {}, n {}: {} instances dropped to {} ops/s (from {})",
                seed, n, instances, summary.ops_per_sec, last
            );
            last = summary.ops_per_sec;
        }
    }

    /// Every run's latency percentiles are ordered p50 ≤ p99 ≤ max, on
    /// open (arrival-process) traffic across fleet sizes.
    #[test]
    fn percentiles_are_ordered_on_open_traffic(seed in 0u64..200, instances in 1usize..5) {
        let trace = TrafficProfile::mixed_date2008().generate(seed, 30);
        let summary = Fleet::new(FleetConfig::date2008(instances)).run(trace);
        prop_assert_eq!(summary.completed, 30);
        prop_assert!(summary.p50_latency_cycles <= summary.p99_latency_cycles);
        prop_assert!(summary.p99_latency_cycles <= summary.max_latency_cycles);
        prop_assert!(summary.p50_latency_cycles > 0);
    }

    /// The nearest-rank estimator is monotone in rank and always returns
    /// an observed sample between min and max.
    #[test]
    fn percentile_estimator_is_monotone_and_bounded(seed in 0u64..500, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sample: Vec<u64> = (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, 0u64..10_000))
            .collect();
        sample.sort_unstable();
        let mut prev = 0u64;
        for pct in 1..=100 {
            let v = percentile(&sample, pct);
            prop_assert!(v >= prev);
            prop_assert!(sample.contains(&v));
            prev = v;
        }
        prop_assert_eq!(percentile(&sample, 100), *sample.last().unwrap());
    }
}
