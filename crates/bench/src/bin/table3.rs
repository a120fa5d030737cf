//! Regenerates Table 3: full public-key operations on the same platform.
//!
//! The latencies are obtained by running the full operations on the
//! simulated platform (Type-B hierarchy, 4 cores) on the inputs of
//! [`bench::table3`]: a 170-bit exponent for the torus (as in the paper's
//! 20 ms figure), a 160-bit scalar for ECC and a full-length exponent for
//! RSA.

use bench::{paper, print_table, table3, Row};
use platform::{CostModel, Hierarchy, Platform};

fn main() {
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let cost = *plat.cost();
    let run = table3::Inputs::draw().run(&plat);
    let torus_ms = run.torus.time_ms(&cost);
    let ecc_ms = run.ecc.time_ms(&cost);
    let rsa_ms = run.rsa.time_ms(&cost);

    let rows = vec![
        Row {
            label: "Area [slices] (paper-reported only)".into(),
            paper: paper::AREA_SLICES.to_string(),
            measured: "n/a (no synthesis)".into(),
        },
        Row::millis("Frequency [MHz]", paper::FREQ_MHZ, cost.clock_mhz),
        Row::millis(
            "170-bit torus exponentiation [ms]",
            paper::TORUS_MS,
            torus_ms,
        ),
        Row::millis("1024-bit RSA exponentiation [ms]", paper::RSA_MS, rsa_ms),
        Row::millis("160-bit ECC scalar mult. [ms]", paper::ECC_MS, ecc_ms),
        Row::ratio(
            "RSA / torus",
            paper::RSA_MS / paper::TORUS_MS,
            run.rsa_over_torus(),
        ),
        Row::ratio(
            "torus / ECC",
            paper::TORUS_MS / paper::ECC_MS,
            run.torus_over_ecc(),
        ),
    ];
    print_table("Table 3: full public-key operations at 74 MHz", &rows);
    println!(
        "\n(torus: {} MM / {} MA+MS; ECC: {} MM; RSA: {} MM)",
        run.torus.modmuls,
        run.torus.modadds + run.torus.modsubs,
        run.ecc.modmuls,
        run.rsa.modmuls
    );
}
