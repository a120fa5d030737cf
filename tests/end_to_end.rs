//! Cross-crate integration tests: the complete CEILIDH stack, the two
//! comparators and the platform simulator working together.

use bignum::BigUint;
use ceilidh::{
    compress, decompress, decrypt_hybrid, encrypt_hybrid, shared_secret, shared_secret_bytes, sign,
    verify, CeilidhParams, KeyPair,
};
use ecc::prelude::*;
use field::{FpContext, OpCount};
use platform::{CostModel, Hierarchy, Platform};
use rand::SeedableRng;
use rsa_torus::RsaKeyPair;

#[test]
fn ceilidh_full_protocol_on_paper_parameters() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
    let params = CeilidhParams::date2008().expect("built-in 170-bit parameters");

    // Key agreement.
    let alice = KeyPair::generate(&params, &mut rng);
    let bob = KeyPair::generate(&params, &mut rng);
    assert_eq!(
        shared_secret(&params, alice.secret(), bob.public()),
        shared_secret(&params, bob.secret(), alice.public())
    );
    let k = shared_secret_bytes(&params, alice.secret(), bob.public(), 16);
    assert_eq!(k.len(), 16);

    // Compressed public keys round-trip at the 170-bit size.
    let c = alice.public().compress(&params).expect("compressible");
    assert_eq!(
        &decompress(&params, &c).expect("valid"),
        alice.public().element()
    );

    // Hybrid encryption + signature.
    let msg = b"reproduction of the DATE 2008 torus cryptosystem";
    let ct = encrypt_hybrid(&params, bob.public(), msg, &mut rng).expect("encrypt");
    assert_eq!(
        decrypt_hybrid(&params, bob.secret(), &ct).expect("decrypt"),
        msg
    );
    let sig = sign(&params, alice.secret(), msg, &mut rng).expect("sign");
    assert!(verify(&params, alice.public(), msg, &sig).is_ok());
    assert!(verify(&params, bob.public(), msg, &sig).is_err());
}

#[test]
fn torus_exponentiation_agrees_between_host_and_platform() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1002);
    let params = CeilidhParams::toy().expect("toy parameters");
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);
    for _ in 0..3 {
        let (_, base) = params.random_subgroup_element(&mut rng);
        let exponent = BigUint::random_bits(&mut rng, 24);
        let host = params.pow(&base, &exponent);
        let (simulated, report) = plat.torus_exponentiation(&params, &base, &exponent);
        assert_eq!(simulated, host);
        assert!(report.cycles > 0);
        assert_eq!(report.modmuls, 18 * (report.interrupts));
    }
}

#[test]
fn compressed_torus_elements_stay_in_the_subgroup_after_transport() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1003);
    let params = CeilidhParams::date2008().expect("built-in parameters");
    for _ in 0..5 {
        let (_, g) = params.random_subgroup_element(&mut rng);
        if g == params.identity() {
            continue;
        }
        let c = compress(&params, &g).expect("compressible");
        let restored = decompress(&params, &c).expect("valid");
        assert!(params.is_torus_member(restored.as_fp6()));
        assert!(params.is_subgroup_member(restored.as_fp6()));
        assert_eq!(restored, g);
    }
}

#[test]
fn paper_size_torus_calls_record_the_pinned_counts() {
    // The operation counts the paper's cost model is built from, pinned at
    // the protocol level: one CEILIDH-170 exponentiation, compression and
    // decompression of one seeded element, however the field runs them.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1034);
    let params = CeilidhParams::date2008().expect("built-in 170-bit parameters");
    let fp = params.fp();
    let (_, g) = params.random_subgroup_element(&mut rng);
    let e = BigUint::random_below(&mut rng, params.q());
    fn counted<T>(fp: &FpContext, op: impl FnOnce() -> T) -> (T, OpCount) {
        let before = fp.op_count();
        let out = op();
        (out, fp.op_count().since(&before))
    }

    let (h, pow) = counted(fp, || params.pow(&g, &e));
    let (c, compressed) = counted(fp, || compress(&params, &h).expect("compressible"));
    let (back, decompressed) = counted(fp, || decompress(&params, &c).expect("valid"));
    assert_eq!(back, h);

    let count = |mul, add, sub, inv| OpCount { mul, add, sub, inv };
    assert_eq!(pow, count(8_964, 9_960, 21_912, 0), "pow");
    assert_eq!(compressed, count(1_461, 1_189, 2_255, 5), "compress");
    // Under debug assertions `decompress` also re-checks torus membership:
    // two relative norms, three more products and their Frobenius maps.
    let decompress = if cfg!(debug_assertions) {
        count(1_419, 1_140, 2_201, 5)
    } else {
        count(1_365, 1_069, 2_055, 5)
    };
    assert_eq!(decompressed, decompress, "decompress");
    // The exponentiation is 498 products of 18 M + 20 A + 44 S each: one
    // per squaring and one per set exponent bit.
    let set_bits = (0..e.bit_len()).filter(|&i| e.bit(i)).count();
    assert_eq!(e.bit_len() + set_bits, 498);
    assert_eq!(pow, count(18 * 498, 20 * 498, 44 * 498, 0));
}

#[test]
fn ecc_and_rsa_comparators_interoperate_with_the_platform() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1004);
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    // ECC: host and platform scalar multiplication agree.
    let curve = Curve::p160_reproduction().expect("built-in curve");
    let kp = EccKeyPair::generate(&curve, &mut rng);
    let k = BigUint::random_bits(&mut rng, 48);
    let host = curve.scalar_mul(kp.public(), &k, ScalarMulAlgorithm::Naf);
    let (simulated, _) = plat.ecc_scalar_multiplication(&curve, kp.public(), &k);
    assert_eq!(simulated, host);

    // RSA: host and platform exponentiation agree.
    let keys = RsaKeyPair::generate(256, &mut rng).expect("keygen");
    let m = BigUint::random_below(&mut rng, keys.public().modulus());
    let c = keys.public().raw_encrypt(&m).expect("encrypt");
    let (recovered, _) =
        plat.rsa_exponentiation(keys.public().modulus(), &c, keys.private_exponent());
    assert_eq!(recovered, m);
}

#[test]
fn security_levels_line_up_as_in_the_paper_introduction() {
    // The paper's pitch: a 170-bit torus field gives the security of Fp6
    // (~1020 bits) while transmitting two Fp elements; ECC at 160 bits and
    // RSA at 1024 bits are the comparators.
    let params = CeilidhParams::date2008().expect("params");
    assert_eq!(params.p().bit_len(), 170);
    assert_eq!(params.p().bit_len() * 6, 1020);
    // Transmitted data: 2 Fp elements ≈ 1/3 of an Fp6 element.
    let compressed_bits = 2 * params.p().bit_len();
    assert!(compressed_bits * 3 == params.p().bit_len() * 6);
    // Subgroup order is large (no small-subgroup weakening from the cofactor).
    assert!(params.q().bit_len() >= 2 * params.p().bit_len() - 16);
}
