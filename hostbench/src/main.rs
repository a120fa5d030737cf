//! One host benchmark for the whole stack, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload <paper_protocols|std256_sessions|platform_sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single client thread drives each workload as a closed loop. The
//! plain run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) records spans around every call into a layer and reports
//! the per-layer ledger. The last line of standard output is one JSON
//! object; the process exits non-zero if any output check failed.

mod host;
mod hostspeed;
mod model;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hostspeed::HostSpeed;
use model::Model;
use stats::Summary;
use trace::{CountingAlloc, Recorder};
use workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `setup_s` times the set-up of one fixed reference seed, not the run's
/// own: RSA key generation's prime search makes set-up cost depend on the
/// seed, and the metric should move only when the set-up code does. The
/// reference set-up runs `SETUP_SAMPLES` times before the run's workload
/// is built and as many times after it is dropped, so the samples come
/// from both ends of the run and never share the heap with the workload;
/// the median of their contention-corrected times counts.
const SETUP_SEED: u64 = 1;
const SETUP_SAMPLES: usize = 4;

/// Sets the reference seed up `SETUP_SAMPLES` times, measuring the host's
/// pace on either side of each, and returns each set-up's duration (ns)
/// and the mean probe time around it (ns).
fn time_setups(workload: &str, speed: &mut HostSpeed) -> Vec<(u64, f64)> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let before = speed.pace();
            let start = Instant::now();
            let w = workloads::build(workload, SETUP_SEED);
            let ns = start.elapsed().as_nanos() as u64;
            drop(w);
            (ns, (before + speed.pace()) / 2.0)
        })
        .collect()
}

/// Builds the run's own workload from its seed (untimed).
fn build(args: &Args) -> Box<dyn Workload> {
    let start = Instant::now();
    let w = workloads::build(&args.workload, args.seed).expect("validated workload name");
    println!(
        "set-up for seed {}: {:.3} s",
        args.seed,
        start.elapsed().as_secs_f64()
    );
    w
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs whole rounds of the workload's mix until `seconds` have passed,
/// probing the host's pace between calls.
fn run_loop(w: &mut dyn Workload, rec: &mut Recorder, speed: &mut HostSpeed, seconds: f64) -> u64 {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        for i in 0..w.deck_len() {
            w.step(i, rec);
            speed.tick();
        }
        w.reshuffle();
        rounds += 1;
    }
    rounds
}

/// Time share of each layer among the timed calls.
fn layer_shares(rec: &Recorder) -> String {
    rec.busy_by_layer
        .iter()
        .map(|(l, ns)| format!("{l} {:.1}%", 100.0 * *ns as f64 / rec.busy_ns as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[probes::Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    println!("host: {}", host::describe());
    println!(
        "workload={} seed={} seconds={} trace={} (closed loop, 1 client thread)",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (rec, mut metrics, extra) = if args.trace {
        traced(&args, epoch)
    } else {
        plain(&args, epoch)
    };
    let (attempted, mut failed) = (rec.0, rec.1);
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            eprintln!("check failed: metric {name} is {value}");
            failed += 1;
        }
    }
    println!(
        "checks: attempted={attempted} failed={failed} failed_ratio={}",
        failed as f64 / attempted.max(1) as f64
    );
    for line in extra {
        println!("{line}");
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let correct = failed == 0;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Outcome = ((u64, u64), Vec<probes::Metric>, Vec<String>);

/// The plain run: the end-to-end metrics.
fn plain(args: &Args, epoch: Instant) -> Outcome {
    let mut speed = HostSpeed::new(epoch);
    let mut setups = time_setups(&args.workload, &mut speed);
    let mut w = build(args);
    let mut rec = Recorder::new(false, epoch);
    let rounds = run_loop(w.as_mut(), &mut rec, &mut speed, args.seconds);
    w.tamper(&mut rec);
    // The peak of set-up and the timed loop, before the model step.
    let peak_rss_mb = host::peak_rss_mb();
    drop(w);
    setups.extend(time_setups(&args.workload, &mut speed));
    // Every plain run reports the model's figures, whatever its workload.
    let mut model_rec = Recorder::new(false, epoch);
    let model = Model::run(&mut model_rec);

    let run = Summary::of(&rec.samples, rec.ops, |s| speed.corrected(s));
    let raw = Summary::of(&rec.samples, rec.ops, |s| u64::from(s.ns));
    let seconds = |ns: u64| ns as f64 / 1e9;
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(ns, pace)| seconds(speed.at_fastest(ns, pace)))
        .collect();
    let raw_setup_s: Vec<f64> = setups.iter().map(|&(ns, _)| seconds(ns)).collect();
    let us = |ns: u64| ns as f64 / 1e3;
    let mut metrics: Vec<probes::Metric> = vec![
        ("setup_s".into(), stats::median(&setup_s), "s"),
        ("ops_per_s".into(), run.ops_per_s, "1/s"),
        ("latency_p50_us".into(), us(run.p50_ns), "us"),
        ("latency_p99_us".into(), us(run.tail_ns), "us"),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ];
    metrics.extend(
        model
            .metrics()
            .into_iter()
            .map(|(k, v, u)| (k.to_string(), v, u)),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let extra = vec![
        format!(
            "timed calls: {} in {rounds} rounds, {} ops; percentiles over every call: \
             latency_p99_us is p{}",
            run.calls, rec.ops, run.tail_pct
        ),
        format!(
            "contention correction: {} reference probes, fastest {:.2} us; the loop ran \
             {:.2}x slower than the run's fastest pace on average",
            speed.probes(),
            speed.fastest_us(),
            run.ops_per_s / raw.ops_per_s
        ),
        format!(
            "uncorrected: ops_per_s={:.1} latency_p50_us={:.1} latency_p{}_us={:.1} \
             setup_s={:.4}",
            raw.ops_per_s,
            us(raw.p50_ns),
            raw.tail_pct,
            us(raw.tail_ns),
            stats::median(&raw_setup_s)
        ),
        format!("busy-time share by layer: {}", layer_shares(&rec)),
        format!(
            "setup_s: median of {} set-ups of reference seed {SETUP_SEED}, half before the \
             loop and half after it: corrected [{}] s, uncorrected [{}] s",
            setups.len(),
            list(&setup_s),
            list(&raw_setup_s)
        ),
    ];
    let attempted = rec.attempted + model_rec.attempted;
    let failed = rec.failed + model_rec.failed;
    ((attempted, failed), metrics, extra)
}

/// Rounds of another workload's mix the traced run adds so that every
/// layer's spans exist whatever the workload.
fn companion_rounds(name: &str) -> u64 {
    match name {
        "paper_protocols" => 3,
        "std256_sessions" => 20,
        _ => 1,
    }
}

/// The traced run: the per-layer ledger.
fn traced(args: &Args, epoch: Instant) -> Outcome {
    let mut w = build(args);
    // Tracing overhead: the same loop, half the time untraced, half traced.
    let mut speed = HostSpeed::new(epoch);
    let mut plain_rec = Recorder::new(false, epoch);
    run_loop(w.as_mut(), &mut plain_rec, &mut speed, args.seconds / 2.0);
    let mut rec = Recorder::new(true, epoch);
    run_loop(w.as_mut(), &mut rec, &mut speed, args.seconds / 2.0);
    w.tamper(&mut rec);
    let ops_per_s = |r: &Recorder| Summary::of(&r.samples, r.ops, |s| speed.corrected(s)).ops_per_s;
    let plain_ops = ops_per_s(&plain_rec);
    let traced_ops = ops_per_s(&rec);
    let overhead_pct = 100.0 * (1.0 - traced_ops / plain_ops);

    for other in workloads::NAMES.iter().filter(|n| **n != args.workload) {
        let mut o = workloads::build(other, args.seed).expect("known workload");
        for _ in 0..companion_rounds(other) {
            for i in 0..o.deck_len() {
                o.step(i, &mut rec);
            }
            o.reshuffle();
        }
    }
    let model = Model::run(&mut rec);
    probes::protocol_probes(&mut rec, args.seed);
    let units = probes::unit_costs(args.seed);
    let (metrics, missing) = probes::per_layer(&rec, &units, &model, overhead_pct);
    if !missing.is_empty() {
        rec.settle(
            1,
            false,
            &format!("per-layer metrics without spans: {missing:?}"),
        );
    }

    let mut extra = vec![format!(
        "tracing overhead: {overhead_pct:.2}% of ops_per_s ({plain_ops:.1} plain vs \
         {traced_ops:.1} traced)"
    )];
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };
    extra.push(format!(
        "cross-check against the ROADMAP probe table (2-core AVX-512 IFMA host): \
         256-bit FpContext::mul {:.1} ns vs 52; fixed mont_mul {:.1} ns vs 24.5; \
         160-bit Fp::mul {:.1} ns vs 155; 160-bit Fp::add {:.1} ns vs 80",
        get("field.fp_mul_ns.256"),
        get("bignum.fixed_mont_mul_ns.256"),
        get("field.fp_mul_ns.160"),
        get("field.fp_add_ns.160"),
    ));
    extra.push("self time by span (ms):".into());
    for (name, ns) in rec.self_times().into_iter().take(24) {
        extra.push(format!("  {name:<40} {:>10.3}", ns as f64 / 1e6));
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.chrome_json())) {
        Ok(()) => extra.push(format!(
            "trace: {} spans -> {}",
            rec.spans.len(),
            path.display()
        )),
        Err(e) => extra.push(format!("trace not written: {e}")),
    }
    ((rec.attempted, rec.failed), metrics, extra)
}
