//! The Table 3 model on fixed inputs: the `table3` binary's exact inputs
//! for the three public-key latencies, the gated 200-request serving trace
//! and the paper's Table 1–2 reference rows. Every value here is a
//! deterministic function of the simulator, so each result line carries
//! the state of the model it was taken with, next to the host descriptor.

use bignum::BigUint;
use ceilidh::CeilidhParams;
use ecc::{Curve, ScalarMulAlgorithm};
use engine::{Fleet, FleetConfig, RunSummary, TrafficProfile};
use platform::{CostModel, ExecutionReport, Hierarchy, Platform};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;

/// The `table3` binary's seed: the same draws give the same reports.
const TABLE3_SEED: u64 = 2008;

pub struct Model {
    pub cost: CostModel,
    pub torus: ExecutionReport,
    pub ecc_b: ExecutionReport,
    pub ecc_a: ExecutionReport,
    pub rsa: ExecutionReport,
    pub fleet_x4: RunSummary,
    /// Mean absolute error (percent) of the rows with a paper reference.
    pub paper_err_pct: f64,
}

impl Model {
    /// Runs every driver once on the fixed inputs, timing each as a span
    /// and checking each result against host arithmetic.
    pub fn run(rec: &mut Recorder) -> Model {
        let cost = CostModel::paper();
        let type_b = Platform::new(cost, 4, Hierarchy::TypeB);
        let type_a = Platform::new(cost, 4, Hierarchy::TypeA);

        // Same draws, in the same order, as the `table3` binary.
        let mut rng = StdRng::seed_from_u64(TABLE3_SEED);
        let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
        let (_, base) = params.random_subgroup_element(&mut rng);
        let exponent = BigUint::random_bits(&mut rng, 170);
        let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
        let point = curve.random_point(&mut rng);
        let scalar = BigUint::random_bits(&mut rng, 160);
        let keys = rsa_torus::RsaKeyPair::generate(1024, &mut rng).expect("RSA-1024 keys");
        let message = BigUint::random_below(&mut rng, keys.public().modulus());

        rec.begin("hostbench.model.torus_exp");
        let (got, torus) = rec.timed("platform.torus_exp", 1, None, || {
            type_b.torus_exponentiation(&params, &base, &exponent)
        });
        rec.annotate(torus);
        rec.settle(
            1,
            got == params.pow(&base, &exponent),
            "model torus vs host pow",
        );
        rec.end();

        let host_point = curve.scalar_mul(&point, &scalar, ScalarMulAlgorithm::DoubleAndAdd);
        let mut ladder = |plat: &Platform, span: &'static str, root: &'static str| {
            rec.begin(root);
            let (got, report) = rec.timed(span, 1, None, || {
                plat.ecc_scalar_multiplication(&curve, &point, &scalar)
            });
            rec.annotate(report);
            rec.settle(1, got == host_point, "model ECC ladder vs host scalar_mul");
            rec.end();
            report
        };
        let ecc_b = ladder(
            &type_b,
            "platform.ecc_ladder_b",
            "hostbench.model.ecc_ladder_b",
        );
        let ecc_a = ladder(
            &type_a,
            "platform.ecc_ladder_a",
            "hostbench.model.ecc_ladder_a",
        );

        let n = keys.public().modulus();
        let d = keys.private_exponent();
        rec.begin("hostbench.model.rsa_exp");
        let (got, rsa) = rec.timed("platform.rsa_exp", 1, None, || {
            type_b.rsa_exponentiation(n, &message, d)
        });
        rec.annotate(rsa);
        let host = keys.raw_decrypt(&message).ok();
        rec.settle(1, Some(got) == host, "model RSA vs host exponentiation");
        rec.end();

        // The gated serving rows: fresh fleets on the gated trace.
        let trace = TrafficProfile::mixed_date2008().generate(
            bench::metrics::ENGINE_TRACE_SEED,
            bench::metrics::ENGINE_TRACE_REQUESTS,
        );
        let mut fleet_x4 = None;
        for (instances, span) in [(1, "engine.fleet_run.x1"), (4, "engine.fleet_run.x4")] {
            rec.begin("hostbench.model.fleet_run");
            let mut fleet = Fleet::new(FleetConfig::date2008(instances));
            let summary = rec.timed(span, 1, None, || fleet.run(trace.clone()));
            rec.settle(
                1,
                summary.completed == trace.len() as u64,
                "fleet must complete every request",
            );
            rec.end();
            fleet_x4 = Some(summary);
        }

        let rows = bench::metrics::collect();
        let errors: Vec<f64> = rows
            .iter()
            .filter_map(|(name, cycles)| {
                let paper = bench::paper::reference_cycles(name)? as f64;
                Some(100.0 * (*cycles as f64 - paper).abs() / paper)
            })
            .collect();
        rec.settle(1, errors.len() == 12, "twelve paper reference rows");
        let paper_err_pct = errors.iter().sum::<f64>() / errors.len().max(1) as f64;

        Model {
            cost,
            torus,
            ecc_b,
            ecc_a,
            rsa,
            fleet_x4: fleet_x4.expect("the x4 fleet ran"),
            paper_err_pct,
        }
    }

    /// The end-to-end `sim_*` metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms = |r: &ExecutionReport| r.time_ms(&self.cost);
        vec![
            ("sim_torus_ms", ms(&self.torus), "sim_ms"),
            ("sim_ecc_ms", ms(&self.ecc_b), "sim_ms"),
            ("sim_rsa_ms", ms(&self.rsa), "sim_ms"),
            (
                "sim_fleet_ops_per_s",
                self.fleet_x4.ops_per_sec as f64,
                "1/sim_s",
            ),
            (
                "sim_fleet_p99_ms",
                self.cost.cycles_to_ms(self.fleet_x4.p99_latency_cycles),
                "sim_ms",
            ),
            ("sim_paper_err_pct", self.paper_err_pct, "%"),
        ]
    }

    /// The exact `ExecutionReport` counts of each driver: `(op, report)`.
    pub fn reports(&self) -> [(&'static str, &ExecutionReport); 4] {
        [
            ("ecc_ladder_a", &self.ecc_a),
            ("ecc_ladder_b", &self.ecc_b),
            ("torus_exp", &self.torus),
            ("rsa_exp", &self.rsa),
        ]
    }
}
