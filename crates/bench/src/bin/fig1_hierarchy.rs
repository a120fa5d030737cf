//! Renders Figure 1: the hierarchy of torus operations and representations,
//! and exercises what runs of it on the built-in toy parameters. Like the
//! paper, the library computes in representation F1 alone: F2 is present
//! only as the maps τ/τ⁻¹ on `Fp3`, so F2's `Fp3` arithmetic is drawn but
//! not computed.

use bignum::BigUint;
use ceilidh::{compress, decompress, CeilidhParams};
use rand::SeedableRng;

fn main() {
    let params = CeilidhParams::toy().expect("toy parameters");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    println!("Figure 1: T6(Fp) operation hierarchy (representation F1 and F2)\n");
    println!("            T6(Fp)  --ρ-->  A^2(Fp)   (compress / decompress)");
    println!("              |");
    println!("   F1 = Fp[z]/(z^6+z^3+1)   --τ-->   F2 = Fp3[y]/(y^2 - x·y + 1)");
    println!("              |                               |");
    println!("        Fp6: add, mul (18M), inv        Fp3: add, mul (6M), inv *");
    println!("              |                               |");
    println!("             Fp: add, mul (Montgomery), inv  Fp");
    println!("   * drawn by the paper, not computed: the torus is computed in F1 alone");
    println!();

    // Exercise every arrow of the figure that runs.
    let fp6 = params.fp6();
    let a = fp6.random(&mut rng);
    let b = fp6.random(&mut rng);

    // τ / τ⁻¹ on Fp3: a round trip on the relative norm a·ā, and x = z + z⁻¹.
    let n = fp6.norm_to_fp3(&a);
    assert_eq!(fp6.from_fp3(fp6.to_fp3(&n)), n);
    let fp = params.fp();
    let z = fp6.gen_z();
    let z_plus_inverse = fp6.add(&z, &fp6.inv(&z).expect("non-zero"));
    assert_eq!(
        fp6.from_fp3([fp.zero(), fp.one(), fp.zero()]),
        z_plus_inverse
    );
    println!("τ/τ⁻¹ : Fp3 coordinates round-trip, x ↦ z + z⁻¹    ... ok");

    // ρ / ψ: compression round-trip on a torus element.
    let (_, g) = params.random_subgroup_element(&mut rng);
    let c = compress(&params, &g).expect("compressible");
    assert_eq!(decompress(&params, &c).expect("decompressible"), g);
    println!("ρ/ψ   : factor-3 compression round-trips            ... ok");

    // The factor 3 on the wire, at the paper's 170-bit size.
    let paper = CeilidhParams::date2008().expect("170-bit parameters");
    let bits = paper.p().bit_len();
    let c = compress(&paper, &paper.generator()).expect("compressible");
    println!(
        "ρ/ψ   : a {bits}-bit torus element travels as {} bytes, its Fp6 form is {} bytes",
        c.byte_len(bits),
        6 * bits.div_ceil(8)
    );

    // Fp6 inversion against the norm tower.
    let inv = fp6.inv(&a).expect("non-zero");
    assert_eq!(fp6.mul(&a, &inv), fp6.one());
    println!("inv   : Fp6 inversion via the Frobenius/norm tower  ... ok");

    // Level-3 operation counts for one Fp6 multiplication.
    params.fp().reset_op_count();
    let _ = fp6.mul(&a, &b);
    let ops = params.fp().op_count();
    println!(
        "cost  : one Fp6 multiplication = {}M + {}A (paper: 18M + 60A)",
        ops.mul,
        ops.additions_total()
    );

    let exp = BigUint::from(29u64);
    params.fp().reset_op_count();
    let _ = params.pow(&g, &exp);
    let ops = params.fp().op_count();
    println!(
        "cost  : one 5-bit torus exponentiation (split at p, 6M squarings) = {}M + {}A",
        ops.mul,
        ops.additions_total()
    );
}
