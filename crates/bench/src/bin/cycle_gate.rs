//! Cycle-accuracy regression gate for CI.
//!
//! Diffs the simulated cycle counts (either recomputed, or read from a
//! `BENCH_report.json` emitted by the `report` binary) against the
//! checked-in golden file `crates/bench/golden/cycles.json`, failing the
//! build when any metric drifts by more than its **per-row tolerance**:
//! Table 1 leaf operations carry ±2%, Table 2/3 composite rows ±5% (see
//! `bench::metrics::tolerance_pct`). The tolerances live in the golden
//! file itself (`{"cycles": N, "tol_pct": T}` rows), so review sees them
//! next to the numbers they guard; a bare `"name": N` row falls back to
//! the default ±2%. Setting `CYCLE_TOLERANCE_PCT` overrides every row's
//! tolerance — an escape hatch for local debugging, never for CI.
//!
//! Calibration changes are legitimate — but they must be acknowledged by
//! regenerating the golden file with `--write-golden`, which shows up in
//! review.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (as it is inside every GitHub
//! Actions job), the gate additionally appends a markdown **reproduction
//! scorecard** to it — one row per gated metric with the model cycles,
//! the paper's value and delta where the paper reports one, the golden
//! drift against its tolerance, and a pass/fail verdict — so every PR
//! shows the per-row accuracy without digging through logs.
//!
//! Usage:
//!
//! ```text
//! cycle_gate                      # recompute metrics, diff against golden
//! cycle_gate --report FILE.json   # diff an emitted report against golden
//! cycle_gate --write-golden       # regenerate the golden file
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::metrics::SearchRow;
use bench::{json, metrics, paper};

/// One fully-evaluated scorecard row: a golden metric joined with its
/// measurement and, where the paper reports the number, the paper value.
struct ScoreRow {
    name: String,
    measured: u64,
    golden: u64,
    drift_pct: f64,
    tolerance_pct: f64,
    passed: bool,
}

impl ScoreRow {
    /// Delta of the measured value against the paper's, when the metric
    /// reproduces a published number.
    fn paper_delta(&self) -> Option<(u64, f64)> {
        let reference = paper::reference_cycles(&self.name)?;
        let delta = 100.0 * (self.measured as f64 - reference as f64) / reference as f64;
        Some((reference, delta))
    }
}

/// Renders one markdown table body for the given rows.
fn markdown_rows(out: &mut String, rows: &[&ScoreRow]) {
    out.push_str("| metric | model | paper | Δ paper | golden | drift | tol | status |\n");
    out.push_str("|---|---:|---:|---:|---:|---:|---:|:---:|\n");
    for row in rows {
        let (paper_col, delta_col) = match row.paper_delta() {
            Some((reference, delta)) => (reference.to_string(), format!("{delta:+.1}%")),
            None => ("—".to_string(), "—".to_string()),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {:+.2}% | ±{}% | {} |\n",
            row.name,
            row.measured,
            paper_col,
            delta_col,
            row.golden,
            row.drift_pct,
            row.tolerance_pct,
            if row.passed { "✅" } else { "❌" },
        ));
    }
}

/// Renders the markdown reproduction scorecard appended to
/// `$GITHUB_STEP_SUMMARY`: the paper-reproduction rows first, then the
/// beyond-paper 256-bit predictions and the throughput-engine serving
/// rows in their own sections so reviewers never mistake a prediction or
/// a serving number for a reproduced one.
fn markdown_scorecard(rows: &[ScoreRow], search: &[SearchRow], failures: &[String]) -> String {
    let (engine, model): (Vec<&ScoreRow>, Vec<&ScoreRow>) =
        rows.iter().partition(|row| row.name.starts_with("engine_"));
    let (predictions, reproductions): (Vec<&ScoreRow>, Vec<&ScoreRow>) = model
        .into_iter()
        .partition(|row| metrics::is_beyond_paper(&row.name));
    let mut out = String::from("## Cycle-accuracy scorecard\n\n");
    markdown_rows(&mut out, &reproductions);
    if !predictions.is_empty() {
        out.push_str(
            "\n### Beyond-paper predictions (256-bit standards curves)\n\n\
             Cycle counts from the same calibrated model at an operand size \
             the paper never reports — gated against drift at the prediction \
             tolerance, with no paper column by construction.\n\n",
        );
        markdown_rows(&mut out, &predictions);
    }
    if !engine.is_empty() {
        out.push_str(
            "\n### Throughput-engine serving rows\n\n\
             Deterministic virtual-time serving metrics (ops/sec, tail \
             latency, batch cache hit rate) from the fixed mixed traffic \
             trace — the Fig. 5 scaling story extended from cores to \
             coprocessor instances. Model columns are not cycles for the \
             ops/sec and hit-rate rows; the gate pins them for drift like \
             every other row.\n\n",
        );
        markdown_rows(&mut out, &engine);
    }
    if !search.is_empty() {
        out.push_str(
            "\n### Searched vs authored sequences\n\n\
             The superoptimizing search pass against the hand-authored \
             InsRom orders, per formula in the database (informational — \
             the gated rows above run with search off, and the never-worse \
             property is pinned by the `search_properties` proptests).\n\n\
             | formula | bits | authored | searched | Δ |\n\
             |---|---:|---:|---:|---:|\n",
        );
        for row in search {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {:+.1}% |\n",
                row.kind.formula(),
                row.bits,
                row.authored,
                row.searched,
                row.delta_pct()
            ));
        }
    }
    let verdict = if failures.is_empty() {
        format!(
            "\nAll {} metrics within tolerance. Paper deltas are relative to \
             Tables 1–3 of the paper; golden drift is relative to the \
             checked-in calibration (`crates/bench/golden/cycles.json`).\n",
            rows.len()
        )
    } else {
        let mut v = String::from("\n**Gate failed:**\n\n");
        for f in failures {
            v.push_str(&format!("- {f}\n"));
        }
        v
    };
    out.push_str(&verdict);
    out
}

/// Appends the scorecard to `$GITHUB_STEP_SUMMARY` when the variable is
/// set (i.e. when running inside a GitHub Actions step).
fn publish_step_summary(rows: &[ScoreRow], search: &[SearchRow], failures: &[String]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let card = markdown_scorecard(rows, search, failures);
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut f) => {
            if let Err(e) = f.write_all(card.as_bytes()) {
                eprintln!("warning: cannot write step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: cannot open step summary {path}: {e}"),
    }
}

/// Relative drift allowed for golden rows without an explicit tolerance,
/// in percent.
const DEFAULT_TOLERANCE_PCT: f64 = 2.0;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("cycles.json")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let golden = golden_path();

    if args.iter().any(|a| a == "--write-golden") {
        let rows: Vec<json::GoldenRow> = metrics::collect()
            .into_iter()
            .map(|(name, cycles)| json::GoldenRow {
                tol_pct: Some(metrics::tolerance_pct(&name)),
                name,
                cycles,
            })
            .collect();
        let text = json::write_golden(&rows);
        std::fs::create_dir_all(golden.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&golden, text).expect("write golden file");
        println!("wrote {}", golden.display());
        return ExitCode::SUCCESS;
    }

    let measured = match args.iter().position(|a| a == "--report") {
        Some(i) => {
            let path = args.get(i + 1).expect("--report needs a file argument");
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read report {path}: {e}"));
            json::parse_object(&text).expect("malformed report JSON")
        }
        None => metrics::collect(),
    };

    let golden_text = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run `cargo run -p bench --bin cycle_gate -- \
             --write-golden` to create it",
            golden.display()
        )
    });
    let expected = json::parse_golden(&golden_text).expect("malformed golden JSON");

    // The env override beats the per-row tolerances (a local-debugging
    // escape hatch to loosen or tighten the whole gate at once).
    let tolerance_override = std::env::var("CYCLE_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());

    let mut failures = Vec::new();
    let mut score_rows = Vec::new();
    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>7}",
        "metric", "golden", "measured", "drift", "tol"
    );
    for row in &expected {
        let tolerance_pct =
            tolerance_override.unwrap_or_else(|| row.tol_pct.unwrap_or(DEFAULT_TOLERANCE_PCT));
        match measured.iter().find(|(k, _)| *k == row.name) {
            None => failures.push(format!("metric {} missing from measurement", row.name)),
            Some((_, got)) => {
                let drift_pct = if row.cycles == 0 {
                    if *got == 0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    100.0 * (*got as f64 - row.cycles as f64) / row.cycles as f64
                };
                let ok = drift_pct.abs() <= tolerance_pct;
                println!(
                    "{:<26} {:>10} {got:>10} {drift_pct:>+8.2}% {:>6.1}% {}",
                    row.name,
                    row.cycles,
                    tolerance_pct,
                    if ok { "" } else { " <-- FAIL" }
                );
                if !ok {
                    failures.push(format!(
                        "{}: golden {}, measured {got} ({drift_pct:+.2}%, tolerance ±{tolerance_pct}%)",
                        row.name, row.cycles
                    ));
                }
                score_rows.push(ScoreRow {
                    name: row.name.clone(),
                    measured: *got,
                    golden: row.cycles,
                    drift_pct,
                    tolerance_pct,
                    passed: ok,
                });
            }
        }
    }
    // Informational rows ride along in the same report file but are
    // never gated: the report binary's `info_` keys. Every other key
    // must have a golden row.
    for (name, _) in &measured {
        if name.starts_with("info_") {
            continue;
        }
        if !expected.iter().any(|row| &row.name == name) {
            failures.push(format!(
                "metric {name} not in golden file — regenerate with --write-golden"
            ));
        }
    }

    // The informational searched-vs-authored comparison: printed for every
    // run and appended to the step summary, never part of the gate (the
    // never-worse property is pinned by the `search_properties` proptests
    // and asserted by the `search_sweep` ablation).
    let (_, search) = metrics::search_sweep();
    println!("\nsearched vs authored (informational, search off in the gated rows):");
    for row in &search {
        println!(
            "  {:<16} {:>4} bits: authored {:>6}, searched {:>6} ({:+.1}%)",
            row.kind.formula(),
            row.bits,
            row.authored,
            row.searched,
            row.delta_pct()
        );
    }

    publish_step_summary(&score_rows, &search, &failures);

    if failures.is_empty() {
        println!(
            "\ncycle-accuracy gate: all {} metrics within tolerance",
            expected.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\ncycle-accuracy gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "If the calibration change is intentional, regenerate the golden file:\n  \
             cargo run -p bench --bin cycle_gate -- --write-golden"
        );
        ExitCode::FAILURE
    }
}
