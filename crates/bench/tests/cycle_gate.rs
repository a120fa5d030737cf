//! The cycle gate fails on every report key it has no golden row for,
//! except the report binary's informational `info_` keys.

use std::path::PathBuf;
use std::process::Command;

/// Writes `metrics` plus the `extra` key as a flat report and runs
/// `cycle_gate --report` on it, returning whether the gate passed.
fn gate_passes(metrics: &[(String, u64)], extra: Option<&str>) -> bool {
    let mut rows = metrics.to_vec();
    rows.extend(extra.map(|key| (key.to_string(), 100)));
    let file = format!("cycle_gate_{}.json", extra.unwrap_or("report"));
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, bench::json::write_object(&rows)).expect("write report");
    Command::new(env!("CARGO_BIN_EXE_cycle_gate"))
        .arg("--report")
        .arg(&path)
        .env_remove("GITHUB_STEP_SUMMARY")
        .env_remove("CYCLE_TOLERANCE_PCT")
        .output()
        .expect("run cycle_gate")
        .status
        .success()
}

#[test]
fn gate_rejects_unknown_keys_other_than_info() {
    let metrics = bench::metrics::collect();
    assert!(gate_passes(&metrics, None));
    for key in ["fixed_vs_heap_x", "ladder_x", "mont_batch_x"] {
        assert!(
            !gate_passes(&metrics, Some(key)),
            "{key} must fail the gate"
        );
    }
    assert!(gate_passes(&metrics, Some("info_x")));
}
