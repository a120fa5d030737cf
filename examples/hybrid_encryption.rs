//! Hybrid encryption and signatures on the torus: the complete protocol
//! stack built on CEILIDH — compressed ephemeral keys, KDF-derived key
//! streams and Schnorr signatures with compressed commitments.
//!
//! Run with `cargo run -p suite --release --example hybrid_encryption`.

use ceilidh::{decrypt_hybrid, encrypt_hybrid, sign, verify, CeilidhParams, KeyPair};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fixed seed: the output repeats, so two builds can be diffed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4b1d);
    let params = CeilidhParams::date2008()?;

    // Long-term keys.
    let alice = KeyPair::generate(&params, &mut rng); // signer / sender
    let bob = KeyPair::generate(&params, &mut rng); // recipient

    let message = b"Algebraic tori give you the security of Fp6 while transmitting \
                    only two elements of Fp.";

    // Alice signs the message and encrypts it (plus the signature) to Bob.
    let signature = sign(&params, alice.secret(), message, &mut rng)?;
    println!(
        "signature scalars: e = {} bits, s = {} bits",
        signature.e.bit_len(),
        signature.s.bit_len()
    );

    let ciphertext = encrypt_hybrid(&params, bob.public(), message, &mut rng)?;
    println!(
        "ciphertext: {} payload bytes + {} bytes of compressed ephemeral key",
        ciphertext.payload.len(),
        ciphertext.ephemeral.byte_len(params.p().bit_len())
    );

    // Bob decrypts and verifies.
    let recovered = decrypt_hybrid(&params, bob.secret(), &ciphertext)?;
    assert_eq!(recovered, message);
    verify(&params, alice.public(), &recovered, &signature)?;
    println!(
        "decrypted and verified: \"{}...\"",
        String::from_utf8_lossy(&recovered[..40])
    );

    // Tampering is detected.
    let mut forged = recovered.clone();
    forged[0] ^= 1;
    assert!(verify(&params, alice.public(), &forged, &signature).is_err());
    println!("tampered message rejected: ok");
    Ok(())
}
