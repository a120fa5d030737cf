//! The fleet: a farm of coprocessor instances behind one scheduler.
//!
//! A [`Fleet`] models `n` identical coprocessor instances (cores +
//! control hierarchy + cost model). Identical instances run identical
//! programs, so the fleet holds **one** [`platform::Platform`] and, beside
//! it, each instance's occupancy: a level-2 program compiles at most once
//! fleet-wide, in that platform's [`platform::ProgramCache`], and every
//! later batch of that class hits the cache no matter which instance
//! serves it.
//!
//! [`Fleet::run`] is a deterministic **virtual-time event loop** — the
//! "async scheduler" of the crate title is a model, not an OS runtime.
//! Time is an integer cycle counter; nothing reads a wall clock:
//!
//! 1. Advance to the earliest instant an instance is idle (or, when the
//!    queue is drained, to the next arrival).
//! 2. Admit every request that has arrived by then into the queue.
//! 3. Form one batch ([`crate::batch::BatchPolicy::take_batch`]) and
//!    dispatch it to the longest-idle instance.
//! 4. The batch pays each compiled-program **miss** once (MicroBlaze
//!    writes the generated sequence into the instruction ROM:
//!    `steps × issue_cycles + interrupt_cycles`), then serves its
//!    requests back-to-back at the class's service cost; each request
//!    completes as its slice finishes, which is what staggers latencies
//!    inside a batch.
//!
//! Service costs are priced once per class through the same pipelined
//! `schedule` model the golden cycle rows are gated on (see
//! [`Fleet::service_cycles`]), so fleet throughput numbers inherit the
//! calibration of Tables 1–3.
//!
//! ```
//! use engine::fleet::{Fleet, FleetConfig};
//! use engine::queue::TrafficProfile;
//!
//! let trace = TrafficProfile::mixed_date2008().burst(11, 24);
//! let single = Fleet::new(FleetConfig::date2008(1)).run(trace.clone());
//! let quad = Fleet::new(FleetConfig::date2008(4)).run(trace);
//!
//! assert_eq!(single.completed, 24);
//! // More instances never serve a closed workload slower...
//! assert!(quad.ops_per_sec >= single.ops_per_sec);
//! // ...and nearest-rank percentiles are ordered by construction.
//! assert!(quad.p50_latency_cycles <= quad.p99_latency_cycles);
//! ```

use std::collections::{BTreeMap, VecDeque};

use ecc::Curve;
use platform::{CostModel, Hierarchy, OpKind, Platform, ProgramCache};

use crate::batch::BatchPolicy;
use crate::metrics::{percentile, RunSummary};
use crate::queue::{Request, WorkClass};

/// Shape of a fleet: how many instances, and what each one is.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of coprocessor instances (must be at least 1).
    pub instances: usize,
    /// Montgomery-multiplier cores per instance (Fig. 5's multicore
    /// dimension).
    pub cores_per_instance: usize,
    /// Control hierarchy of every instance.
    pub hierarchy: Hierarchy,
    /// Cycle-cost calibration of every instance.
    pub cost: CostModel,
    /// Batch-formation rule.
    pub policy: BatchPolicy,
}

impl FleetConfig {
    /// The paper's platform replicated `instances` times: 4-core Type-B
    /// instances under the Table 1–3 calibration, default batching.
    pub fn date2008(instances: usize) -> Self {
        FleetConfig {
            instances,
            cores_per_instance: 4,
            hierarchy: Hierarchy::TypeB,
            cost: CostModel::paper(),
            policy: BatchPolicy::default(),
        }
    }
}

/// Occupancy state of one instance inside the event loop.
#[derive(Debug, Clone, Copy, Default)]
struct InstanceState {
    /// Virtual cycle at which the instance next goes idle.
    free_at: u64,
    /// Total cycles spent serving batches.
    busy_cycles: u64,
}

/// A farm of identical coprocessor instances sharing one program cache.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    /// The platform every instance runs: its program cache is the fleet's.
    platform: Platform,
    /// Pricing platform with a private cache, so cost probes never touch
    /// the fleet cache's hit/miss telemetry.
    pricer: Platform,
    curves: BTreeMap<String, Curve>,
    prices: BTreeMap<WorkClass, u64>,
}

impl Fleet {
    /// Builds the fleet: one platform whose [`ProgramCache`] serves all
    /// `instances`.
    ///
    /// # Panics
    ///
    /// Panics if `config.instances` is zero.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.instances > 0, "a fleet needs at least one instance");
        let platform = Platform::new(config.cost, config.cores_per_instance, config.hierarchy);
        let pricer = Platform::new(config.cost, config.cores_per_instance, config.hierarchy);
        Fleet {
            config,
            platform,
            pricer,
            curves: BTreeMap::new(),
            prices: BTreeMap::new(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shared program cache (hit/miss counters accumulate across
    /// runs; [`Fleet::run`] reports per-run deltas).
    pub fn cache(&self) -> &ProgramCache {
        self.platform.program_cache()
    }

    /// The curve registry entry for `name`, resolved once per fleet.
    ///
    /// # Panics
    ///
    /// Panics if the name is not registered (see [`Curve::by_name`]).
    fn curve<'a>(curves: &'a mut BTreeMap<String, Curve>, name: &str) -> &'a Curve {
        curves.entry(name.to_string()).or_insert_with(|| {
            Curve::by_name(name).unwrap_or_else(|e| panic!("unknown curve in request: {e:?}"))
        })
    }

    /// The level-2 programs a batch of `class` fetches before serving:
    /// the ladder's PD + PA pair for ECC ([`Platform::ladder_kinds`]),
    /// the `Fp6` multiplication for the torus, and none for RSA (whose
    /// ladder is raw MicroBlaze-driven Montgomery multiplications).
    fn class_programs(&mut self, class: &WorkClass) -> Vec<(OpKind, usize)> {
        match class {
            WorkClass::Ecc { curve } => {
                let curve = Self::curve(&mut self.curves, curve);
                let bits = curve.fp().modulus().bit_len();
                let (pd, pa) = self.pricer.ladder_kinds(curve);
                vec![(pd, bits), (pa, bits)]
            }
            WorkClass::Rsa { .. } => vec![],
            WorkClass::Torus { bits } => vec![(OpKind::Fp6Mul, *bits)],
        }
    }

    /// Service cost of one request of `class` in cycles, priced once per
    /// class through the schedule model and memoized.
    ///
    /// Each family composes exactly as the paper's Table 3 composes its
    /// Table 1/2 entries over a `b`-bit double-and-add ladder (`b`
    /// doubling-steps plus `b/2` addition-steps on average):
    ///
    /// * **ECC** — `b·PD + (b/2)·PA` with the PD/PA sequences the ladder
    ///   would run under the current knobs;
    /// * **torus** — `(b + b/2)` `Fp6` multiplications (squarings and
    ///   multiplications run the same program);
    /// * **RSA** — `(b + b/2)` Montgomery multiplications, each paying
    ///   the MicroBlaze register-access + interrupt overhead.
    pub fn service_cycles(&mut self, class: &WorkClass) -> u64 {
        if let Some(&cycles) = self.prices.get(class) {
            return cycles;
        }
        let cycles = match class {
            WorkClass::Ecc { .. } => {
                let programs = self.class_programs(class);
                let (pd, pa) = (programs[0], programs[1]);
                let bits = pd.1 as u64;
                let pd_cycles = self.pricer.composite_report(pd.0, pd.1).cycles;
                let pa_cycles = self.pricer.composite_report(pa.0, pa.1).cycles;
                bits * pd_cycles + (bits / 2) * pa_cycles
            }
            WorkClass::Rsa { bits } => {
                let mm = self.pricer.montgomery_multiplication_report(*bits).cycles
                    + self.pricer.interrupt_cycles();
                (*bits as u64 + *bits as u64 / 2) * mm
            }
            WorkClass::Torus { bits } => {
                let fp6 = self.pricer.composite_report(OpKind::Fp6Mul, *bits).cycles;
                (*bits as u64 + *bits as u64 / 2) * fp6
            }
        };
        self.prices.insert(class.clone(), cycles);
        cycles
    }

    /// One-time cost of a program-cache **miss** at dispatch: the
    /// MicroBlaze issues every step of the generated sequence into the
    /// instruction ROM and takes one interrupt round-trip.
    fn compile_cycles(&self, steps: u64) -> u64 {
        steps * self.config.cost.issue_cycles + self.config.cost.interrupt_cycles
    }

    /// Serves a request trace to completion and returns the run's
    /// telemetry. Deterministic: the same trace on the same config
    /// produces bit-identical summaries.
    ///
    /// Requests are admitted in arrival order (ties keep trace order);
    /// every dispatch picks the longest-idle instance (ties pick the
    /// lowest index).
    pub fn run(&mut self, mut trace: Vec<Request>) -> RunSummary {
        trace.sort_by_key(|r| r.arrival);
        let (hits_before, misses_before) = (self.cache().hits(), self.cache().misses());
        let mut states = vec![InstanceState::default(); self.config.instances];
        let mut queue: VecDeque<Request> = VecDeque::new();
        let mut next = 0; // index of the first not-yet-admitted arrival
        let mut latencies: Vec<u64> = Vec::with_capacity(trace.len());
        let mut batch_size_histogram: BTreeMap<usize, u64> = BTreeMap::new();
        let mut peak_queue_depth = 0;
        let mut makespan = 0;

        loop {
            let idle_at = states
                .iter()
                .map(|s| s.free_at)
                .min()
                .expect("fleet is non-empty");
            let now = if !queue.is_empty() {
                idle_at
            } else if next < trace.len() {
                idle_at.max(trace[next].arrival)
            } else {
                break;
            };
            while next < trace.len() && trace[next].arrival <= now {
                queue.push_back(trace[next].clone());
                next += 1;
            }
            peak_queue_depth = peak_queue_depth.max(queue.len());
            let batch = self
                .config
                .policy
                .take_batch(&mut queue)
                .expect("queue is non-empty at dispatch");
            let instance = states
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.free_at, *i))
                .map(|(i, _)| i)
                .expect("fleet is non-empty");

            let mut cursor = now;
            for (kind, bits) in self.class_programs(&batch.class) {
                let misses = self.cache().misses();
                let program = self.platform.compiled(kind, bits);
                if self.cache().misses() > misses {
                    cursor += self.compile_cycles(program.stats().steps as u64);
                }
            }
            let service = self.service_cycles(&batch.class);
            for request in &batch.requests {
                cursor += service;
                latencies.push(cursor - request.arrival);
            }
            *batch_size_histogram.entry(batch.len()).or_insert(0) += 1;
            states[instance].busy_cycles += cursor - now;
            states[instance].free_at = cursor;
            makespan = makespan.max(cursor);
        }

        latencies.sort_unstable();
        let completed = latencies.len() as u64;
        let clock_hz = (self.config.cost.clock_mhz * 1e6).round() as u64;
        let ops_per_sec = if makespan == 0 {
            0
        } else {
            (completed as u128 * clock_hz as u128 / makespan as u128) as u64
        };
        RunSummary {
            instances: self.config.instances,
            completed,
            makespan_cycles: makespan,
            p50_latency_cycles: if completed == 0 {
                0
            } else {
                percentile(&latencies, 50)
            },
            p99_latency_cycles: if completed == 0 {
                0
            } else {
                percentile(&latencies, 99)
            },
            max_latency_cycles: latencies.last().copied().unwrap_or(0),
            ops_per_sec,
            peak_queue_depth,
            batch_size_histogram,
            cache_hits: self.cache().hits() - hits_before,
            cache_misses: self.cache().misses() - misses_before,
            instance_busy_cycles: states.iter().map(|s| s.busy_cycles).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Operation, TrafficProfile};

    fn sign_burst(n: usize) -> Vec<Request> {
        (0..n as u64)
            .map(|id| {
                Request::new(
                    id,
                    Operation::Sign {
                        curve: "p160-reproduction".into(),
                    },
                    0,
                )
            })
            .collect()
    }

    #[test]
    fn empty_trace_yields_empty_summary() {
        let summary = Fleet::new(FleetConfig::date2008(2)).run(vec![]);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.makespan_cycles, 0);
        assert_eq!(summary.ops_per_sec, 0);
        assert_eq!(summary.batches(), 0);
    }

    #[test]
    fn single_class_burst_compiles_each_program_once_fleet_wide() {
        let mut fleet = Fleet::new(FleetConfig::date2008(3));
        let summary = fleet.run(sign_burst(12));
        assert_eq!(summary.completed, 12);
        // PD + PA compile once; every later batch hits both lookups.
        assert_eq!(summary.cache_misses, 2);
        let batches = summary.batches();
        assert_eq!(summary.cache_hits, 2 * (batches - 1));
        assert!(summary.cache_hit_rate_pct() > 0);
    }

    #[test]
    fn runs_report_cache_deltas_not_totals() {
        let mut fleet = Fleet::new(FleetConfig::date2008(2));
        let first = fleet.run(sign_burst(8));
        assert_eq!(first.cache_misses, 2);
        let second = fleet.run(sign_burst(8));
        // The second run re-fetches warm programs: all hits, no misses.
        assert_eq!(second.cache_misses, 0);
        assert!(second.cache_hits > 0);
        // Warm-cache throughput is at least the cold-cache throughput.
        assert!(second.ops_per_sec >= first.ops_per_sec);
    }

    #[test]
    fn percentiles_are_ordered_and_latency_positive() {
        let trace = TrafficProfile::mixed_date2008().generate(5, 40);
        let summary = Fleet::new(FleetConfig::date2008(2)).run(trace);
        assert_eq!(summary.completed, 40);
        assert!(summary.p50_latency_cycles > 0);
        assert!(summary.p50_latency_cycles <= summary.p99_latency_cycles);
        assert!(summary.p99_latency_cycles <= summary.max_latency_cycles);
        assert!(summary.peak_queue_depth >= 1);
    }

    #[test]
    fn more_instances_never_slow_a_burst_down() {
        let trace = TrafficProfile::mixed_date2008().burst(3, 32);
        let mut last = 0;
        for instances in [1, 2, 4, 8] {
            let summary = Fleet::new(FleetConfig::date2008(instances)).run(trace.clone());
            assert!(
                summary.ops_per_sec >= last,
                "{instances} instances: {} < {last} ops/s",
                summary.ops_per_sec
            );
            last = summary.ops_per_sec;
        }
    }

    #[test]
    fn occupancy_accounts_every_service_cycle() {
        let mut fleet = Fleet::new(FleetConfig::date2008(1));
        let summary = fleet.run(sign_burst(4));
        // One instance: busy time is the whole makespan (a burst has no
        // idle gaps), and utilization is exactly 100%.
        assert_eq!(summary.instance_busy_cycles.len(), 1);
        assert_eq!(summary.instance_busy_cycles[0], summary.makespan_cycles);
        assert_eq!(summary.utilization_pct(), 100);
    }

    #[test]
    fn rsa_class_has_no_program_lookups() {
        let trace: Vec<Request> = (0..6)
            .map(|id| Request::new(id, Operation::RsaDecrypt { bits: 512 }, 0))
            .collect();
        let summary = Fleet::new(FleetConfig::date2008(2)).run(trace);
        assert_eq!(summary.completed, 6);
        assert_eq!(summary.cache_hits + summary.cache_misses, 0);
        assert_eq!(summary.cache_hit_rate_pct(), 0);
    }

    #[test]
    fn service_pricing_is_memoized_and_knob_sensitive() {
        let class = WorkClass::Ecc {
            curve: "p256".into(),
        };
        let mut fast = Fleet::new(FleetConfig::date2008(1));
        let price = fast.service_cycles(&class);
        assert_eq!(price, fast.service_cycles(&class));
        // P-256 has a = -3: disabling fast-PD must price the ladder higher.
        let mut general = Fleet::new(FleetConfig {
            cost: CostModel::paper().with_fast_pd(false),
            ..FleetConfig::date2008(1)
        });
        assert!(general.service_cycles(&class) > price);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instance_fleets_are_rejected() {
        Fleet::new(FleetConfig::date2008(0));
    }

    #[test]
    #[should_panic(expected = "unknown curve")]
    fn unknown_curves_are_rejected_at_dispatch() {
        let trace = vec![Request::new(
            0,
            Operation::Sign {
                curve: "curve25519".into(),
            },
            0,
        )];
        Fleet::new(FleetConfig::date2008(1)).run(trace);
    }
}
