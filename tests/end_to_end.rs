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
    // Both maps, derived from their formulas. An `Fp6` product is
    // 18 M + 20 A + 44 S. A Frobenius map records one A for each non-zero
    // coefficient that lands on z⁰..z⁵ and two S for each one that lands on
    // z⁶..z⁸. An `Fp6` inversion is 4 products, the conjugation of its
    // argument (3 A + 6 S on six non-zero coefficients), the Frobenius maps
    // k = 1, 2 of the relative norm a·ā, an `Fp3` element whose z³
    // coefficient is zero (7 A + 6 S), a 6 M scalar product and one `Fp`
    // inversion.
    //
    // ρ, 9 products:
    // - membership: the norms to Fp3 and Fp2, 3 products and the Frobenius
    //   maps k = 3, 2, 4 (11 A + 14 S);
    // - g + 1 (6 A), γ(g + 1) (1 product), g - 1 (6 S), its inversion, and
    //   a = γ(g + 1)/(g - 1) (1 product);
    // - τ(a) = (c₀ + 2c₄, -c₅, -c₄): 2 A + 2 S;
    // - 3u₀ + 4 (4 A) and its inversion; s and t, 3 A + 1 S + 1 M each.
    let rho = count(
        18 * 9 + 6 + 2,
        20 * 9 + (3 + 7) + 11 + 6 + 2 + 4 + 2 * 3,
        44 * 9 + (6 + 6) + 14 + 6 + 2 + 2,
        2,
    );
    assert_eq!(compressed, rho, "compress");
    // ψ, 5 products:
    // - q = 3(s² - t - 3t²): 2 M + 6 A + 2 S; l = 2(1 - s + 4t): 6 A + 1 S;
    // - u = (3l - 4q, q + 3l·s, 2q + 3l·t): 2 M + 10 A + 1 S;
    // - τ⁻¹(u) = (u₀ + 2u₂, u₁ - u₂, u₂ - u₁, 0, -u₂, -u₁): 2 A + 4 S;
    //   3q·γ: 3 A; A + 3q·γ: 6 A; A - 3q·γ: 6 S;
    // - the inversion of A - 3q·γ, whose z³ coefficient is zero, so its
    //   conjugation skips it: 3 A + 4 S;
    // - the product of A + 3q·γ with that inverse.
    let psi = count(
        18 * 5 + 6 + 2 + 2,
        20 * 5 + (3 + 7) + 6 + 6 + 10 + 2 + 3 + 6,
        44 * 5 + (4 + 6) + 2 + 1 + 1 + 4 + 6,
        1,
    );
    assert_eq!(decompressed, psi, "decompress");
    // The exponentiation is 498 products of 18 M + 20 A + 44 S each: one
    // per squaring and one per set exponent bit.
    let set_bits = (0..e.bit_len()).filter(|&i| e.bit(i)).count();
    assert_eq!(e.bit_len() + set_bits, 498);
    assert_eq!(pow, count(18 * 498, 20 * 498, 44 * 498, 0));
}

#[test]
fn paper_size_parameters_build_with_the_pinned_counts() {
    // Building CEILIDH-170 searches z + c, c = 1, 2, …, for a generator
    // (z + c)^((p⁶ - 1)/q): the projection onto the torus y^p·y with
    // y = x̄·x⁻¹ (6 products, 6 M and 1 I, with the `Fp6` inversion of the
    // test above), raised to the cofactor 327 = 0b101000111 (9 + 5 = 14
    // products). z + 1 projects to z⁻³, of order 3, which divides 327, so
    // two candidates are tried.
    //
    // Per candidate, besides the products: z + c (6 A); the conjugation of
    // z + c (1 A + 2 S), in the projection and in the inversion; the
    // Frobenius maps k = 1, 2 of n = (c² + 1, c, -c, 0, 0, -c) (4 A and
    // 3 A + 2 S, at p ≡ 2 mod 9); and the Frobenius map k = 1 of y, which is
    // z⁻¹ = -z² - z⁵ for c = 1 (2 A) and has six non-zero coefficients for
    // c = 2 (4 A + 4 S).
    let params = CeilidhParams::date2008().expect("built-in 170-bit parameters");
    let products = 2 * (6 + 14);
    let expected = OpCount {
        mul: 18 * products + 2 * 6,
        add: 20 * products + 2 * (6 + 2 + 4 + 3) + 2 + 4,
        sub: 44 * products + 2 * (2 * 2 + 2) + 4,
        inv: 2,
    };
    assert_eq!(params.fp().op_count(), expected);
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
    // Transmitted data: a compressed public key is two Fp elements of 22
    // bytes each, 44 bytes, a third of the 132-byte Fp6 element.
    let key = KeyPair::generate(&params, &mut rand::rngs::StdRng::seed_from_u64(1005));
    let compressed = key.public().compress(&params).expect("compressible");
    assert!(compressed.u0 < *params.p() && compressed.u1 < *params.p());
    let element_bytes = params.p().bit_len().div_ceil(8);
    assert_eq!(compressed.byte_len(params.p().bit_len()), 44);
    assert_eq!(6 * element_bytes, 132);
    assert_eq!(3 * 44, 6 * element_bytes);
    // Subgroup order is large (no small-subgroup weakening from the cofactor).
    assert!(params.q().bit_len() >= 2 * params.p().bit_len() - 16);
}
