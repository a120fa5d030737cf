//! `table3` and `report` print the same Table 3: both run the drivers on
//! `bench::table3`'s inputs.

use std::process::Command;

/// The stdout of the bench binary at `path`.
fn stdout(path: &str) -> String {
    let output = Command::new(path)
        .env_remove("BENCH_REPORT_JSON")
        .output()
        .expect("run bench binary");
    assert!(output.status.success(), "{path} failed");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// The measured column of the table row whose label starts with `label`.
fn measured<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find(|line| line.starts_with(label))
        .and_then(|line| line.split_whitespace().last())
        .unwrap_or_else(|| panic!("no row {label:?}"))
}

#[test]
fn table3_and_report_print_one_table3() {
    let table3 = stdout(env!("CARGO_BIN_EXE_table3"));
    let report = stdout(env!("CARGO_BIN_EXE_report"));
    for (table3_row, report_row) in [
        (
            "170-bit torus exponentiation [ms]",
            "torus exponentiation [ms] (Table 3)",
        ),
        (
            "1024-bit RSA exponentiation [ms]",
            "RSA exponentiation [ms] (Table 3)",
        ),
        (
            "160-bit ECC scalar mult. [ms]",
            "ECC scalar mult [ms] (Table 3, fast-PD ladder)",
        ),
        ("RSA / torus", "CEILIDH faster than RSA (headline)"),
        ("torus / ECC", "ECC faster than CEILIDH"),
    ] {
        assert_eq!(
            measured(&table3, table3_row),
            measured(&report, report_row),
            "{table3_row:?} vs {report_row:?}"
        );
    }
}
