//! Quickstart: CEILIDH key agreement with compressed public keys.
//!
//! Run with `cargo run -p suite --release --example quickstart`.

use ceilidh::{compress, decompress, shared_secret_bytes, CeilidhParams, KeyPair};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fixed seed: the output repeats, so two builds can be diffed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51a7);

    // The 170-bit parameter set evaluated in the paper (Table 3).
    let params = CeilidhParams::date2008()?;
    println!(
        "CEILIDH parameters: p has {} bits, subgroup order q has {} bits",
        params.p().bit_len(),
        params.q().bit_len()
    );

    // Alice and Bob generate key pairs (one torus exponentiation each).
    let alice = KeyPair::generate(&params, &mut rng);
    let bob = KeyPair::generate(&params, &mut rng);

    // Public keys travel compressed: two Fp elements + 2 bits instead of six
    // Fp elements — the factor-3 bandwidth saving of torus cryptography.
    let alice_compressed = alice.public().compress(&params)?;
    let wire_bytes = alice_compressed.byte_len(params.p().bit_len());
    let uncompressed_bytes = 6 * params.p().bit_len().div_ceil(8);
    println!(
        "public key on the wire: {wire_bytes} bytes (uncompressed Fp6: {uncompressed_bytes} bytes)"
    );

    // Bob decompresses Alice's key and both derive the shared secret.
    let alice_restored = decompress(&params, &alice_compressed)?;
    assert_eq!(&alice_restored, alice.public().element());

    let k_ab = shared_secret_bytes(&params, alice.secret(), bob.public(), 32);
    let k_ba = shared_secret_bytes(&params, bob.secret(), alice.public(), 32);
    assert_eq!(k_ab, k_ba);
    println!(
        "shared secret established: {} bytes, first byte {:#04x}",
        k_ab.len(),
        k_ab[0]
    );

    // Round-trip the compression explicitly as well.
    let c = compress(&params, bob.public().element())?;
    assert_eq!(&decompress(&params, &c)?, bob.public().element());
    println!("compression round-trip: ok");
    Ok(())
}
