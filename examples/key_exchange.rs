//! Key exchange with all three systems of the paper — CEILIDH (torus), ECC
//! and RSA — comparing the number of transmitted bytes, the work performed
//! and the simulated latency on the FPGA platform model.
//!
//! Run with `cargo run -p suite --release --example key_exchange`.

use bignum::BigUint;
use ceilidh::{CeilidhParams, KeyPair};
use ecc::prelude::*;
use platform::{CostModel, Hierarchy, Platform};
use rand::SeedableRng;
use rsa_torus::RsaKeyPair;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fixed seed: the output repeats, so two builds can be diffed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4e1);
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    let cost = *plat.cost();

    println!("=== CEILIDH (170-bit torus) ===");
    let params = CeilidhParams::date2008()?;
    let alice = KeyPair::generate(&params, &mut rng);
    let bob = KeyPair::generate(&params, &mut rng);
    let shared = ceilidh::shared_secret(&params, alice.secret(), bob.public());
    let compressed = bob.public().compress(&params)?;
    println!(
        "  transmitted public key: {} bytes (factor-3 compression)",
        compressed.byte_len(params.p().bit_len())
    );
    let (check, report) =
        plat.torus_exponentiation(&params, bob.public().element(), alice.secret().scalar());
    assert_eq!(check, shared);
    println!(
        "  simulated exponentiation: {} cycles = {:.1} ms at 74 MHz",
        report.cycles,
        report.time_ms(&cost)
    );

    println!("=== ECC (160-bit prime field) ===");
    let curve = Curve::p160_reproduction()?;
    let e_alice = EccKeyPair::generate(&curve, &mut rng);
    let e_bob = EccKeyPair::generate(&curve, &mut rng);
    let k1 = curve.shared_secret(e_alice.secret(), e_bob.public())?;
    let k2 = curve.shared_secret(e_bob.secret(), e_alice.public())?;
    assert_eq!(k1, k2);
    let (x, _) = curve.compress_point(e_bob.public())?;
    println!(
        "  transmitted public key: {} bytes (compressed point)",
        x.to_be_bytes().len() + 1
    );
    let (_, report) = plat.ecc_scalar_multiplication(&curve, e_bob.public(), e_alice.secret());
    println!(
        "  simulated scalar multiplication: {} cycles = {:.1} ms",
        report.cycles,
        report.time_ms(&cost)
    );

    println!("=== ECC (P-256, beyond-paper prediction) ===");
    let p256 = Curve::by_name("p256")?;
    let n_alice = EccKeyPair::generate(&p256, &mut rng);
    let n_bob = EccKeyPair::generate(&p256, &mut rng);
    assert_eq!(
        p256.shared_secret(n_alice.secret(), n_bob.public())?,
        p256.shared_secret(n_bob.secret(), n_alice.public())?
    );
    let (_, report) = plat.ecc_scalar_multiplication(&p256, n_bob.public(), n_alice.secret());
    println!(
        "  simulated scalar multiplication ({}-bit, a = -3 fast PD): {} cycles = {:.1} ms",
        p256.fp().bit_len(),
        report.cycles,
        report.time_ms(&cost)
    );

    println!("=== RSA (1024-bit, key transport) ===");
    let keys = RsaKeyPair::generate(1024, &mut rng)?;
    let session_key = BigUint::random_bits(&mut rng, 128);
    let ct = keys.public().raw_encrypt(&session_key)?;
    assert_eq!(keys.raw_decrypt(&ct)?, session_key);
    println!(
        "  transmitted ciphertext: {} bytes",
        keys.public().byte_len()
    );
    let (_, report) =
        plat.rsa_exponentiation(keys.public().modulus(), &ct, keys.private_exponent());
    println!(
        "  simulated private-key exponentiation: {} cycles = {:.1} ms",
        report.cycles,
        report.time_ms(&cost)
    );

    Ok(())
}
