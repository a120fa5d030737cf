//! Cross-crate integration tests: the complete CEILIDH stack, the two
//! comparators and the platform simulator working together.

mod common;

use bignum::BigUint;
use ceilidh::{
    compress, decompress, decrypt_hybrid, encrypt_hybrid, shared_secret, shared_secret_bytes, sign,
    verify, CeilidhParams, KeyPair,
};
use common::windows;
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
    // The simulated driver runs the paper's binary method: its values must
    // match the host's torus exponentiation, and its operation counts the
    // host's binary method, `Fp6Context::exp`, under either hierarchy.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1002);
    for params in [
        CeilidhParams::toy().expect("toy parameters"),
        CeilidhParams::date2008().expect("built-in 170-bit parameters"),
    ] {
        let fp = params.fp();
        for hierarchy in [Hierarchy::TypeA, Hierarchy::TypeB] {
            let plat = Platform::new(CostModel::paper(), 4, hierarchy);
            let (_, base) = params.random_subgroup_element(&mut rng);
            let exponent = BigUint::random_bits(&mut rng, 40);
            let before = fp.op_count();
            params.fp6().exp(base.as_fp6(), &exponent);
            let host = fp.op_count().since(&before);
            let (simulated, report) = plat.torus_exponentiation(&params, &base, &exponent);
            assert_eq!(simulated, params.pow(&base, &exponent));
            assert!(report.cycles > 0);
            assert_eq!(
                (report.modmuls, report.modadds, report.modsubs),
                (host.mul, host.add, host.sub),
                "{hierarchy:?}: M, A and S"
            );
            if hierarchy == Hierarchy::TypeB {
                assert_eq!(report.modmuls, 18 * report.interrupts);
            }
        }
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
    assert_eq!(pow, count(2_328, 4_966, 4_450, 0), "pow");
    // Both maps, derived from their formulas. An `Fp6` product is
    // 18 M + 20 A + 44 S. A Frobenius map records 2 S for each coefficient
    // that lands on z⁶..z⁸, a difference with the coefficient that moved
    // to z^j or z^(j+3) and a negation where none did; the negation of zero
    // is not counted. An `Fp6` adjugate ā·m (`Fp6Context::adjugate`) is 4
    // products, the conjugation of its argument (6 S on six non-zero
    // coefficients) and the Frobenius maps k = 1, 2 of the relative norm
    // n = a·ā, an `Fp3` element whose z³ coefficient is zero (3 S and 4 S).
    // An inversion adds a 6 M scalar product and one `Fp` inversion.
    //
    // ρ, 7 products:
    // - membership: g·σ²(g) = σ(g), 1 product and the maps k = 2, 1 (8 S);
    // - g + 1 (6 A), γ(g + 1) (1 product), g - 1 (6 S), its adjugate and
    //   n·a = γ(g + 1)·(g - 1)* (1 product);
    // - τ(n·a) = (c₀ + 2c₄, -c₅, -c₄): 2 A + 2 S;
    // - 2n and 4n (2 A), 3u₀′ + 4n (3 A) and its inversion; s and t,
    //   2 A + 1 S + 1 M each.
    //
    // A small multiple k·x takes k - 1 additions.
    let rho = count(
        18 * 7 + 2,
        20 * 7 + 6 + 2 + 2 + 3 + 2 * 2,
        44 * 7 + 8 + 6 + (6 + 3 + 4) + 2 + 2,
        1,
    );
    assert_eq!(compressed, rho, "compress");
    // ψ, 5 products:
    // - q = 3(s² - t - 3t²): 2 M + 4 A + 2 S; l = 2(1 - s + 4t): 5 A + 1 S;
    // - u = (3l - 4q, q + 3l·s, 2q + 3l·t): 2 M + 8 A + 1 S;
    // - τ⁻¹(u) = (u₀ + 2u₂, u₁ - u₂, u₂ - u₁, 0, -u₂, -u₁): 2 A + 4 S;
    //   3q·γ: 2 A; A + 3q·γ: 6 A; A - 3q·γ: 6 S;
    // - the inversion of A - 3q·γ, whose z³ coefficient is zero: its
    //   conjugation subtracts that zero from c₀ and skips its negation
    //   (5 S);
    // - the product of A + 3q·γ with that inverse.
    let psi = count(
        18 * 5 + 6 + 2 + 2,
        20 * 5 + 4 + 5 + 8 + 2 + 2 + 6,
        44 * 5 + (5 + 3 + 4) + 2 + 1 + 1 + 4 + 6,
        1,
    );
    assert_eq!(decompressed, psi, "decompress");
    // The exponentiation splits e < q < Φ6(p) at p, e = e₀ + e₁·p, and
    // reads 4-bit sliding windows of both digits: a table of g, g³, …, g¹⁵
    // (one squaring, 7 products) and their images under σ (8 maps of 4 S),
    // then one squaring per bit below the lowest bit of the first window
    // and one product for every other window. A squaring in T6 is
    // 6 M + 21 A + 7 S.
    let (e1, e0) = e.div_rem(params.p()).expect("p is not zero");
    let [(w0, low0), (w1, low1)] = [&e0, &e1].map(windows);
    let squarings = 1 + low0.max(low1).expect("e is not zero") as u64;
    let products = 7 + w0 + w1 - 1;
    assert_eq!(
        pow,
        count(
            6 * squarings + 18 * products,
            21 * squarings + 20 * products,
            7 * squarings + 44 * products + 8 * 4,
            0,
        )
    );
}

#[test]
fn paper_size_parameters_build_with_the_pinned_counts() {
    // Building CEILIDH-170 searches z + c, c = 1, 2, …, for a generator
    // (z + c)^((p⁶ - 1)/q): the projection onto the torus y^p·y with
    // y = x̄·x⁻¹ (6 products, 6 M and 1 I, with the `Fp6` inversion of the
    // test above), raised to the cofactor 327 = 0b101000111 < p by the torus
    // exponentiation: its table (one squaring, 7 products; e₁ = 0, so no
    // σ table) and the windows 101 and 111, the first ending at bit 6
    // (6 squarings, 1 product). z + 1 projects to z⁻³, of order 3, which
    // divides 327, so two candidates are tried.
    //
    // Per candidate, besides the products and squarings: z + c (6 A); the
    // conjugation of z + c = (c, 1, 0, 0, 0, 0), in the projection and in
    // the inversion (4 S each: one negation of zero is not counted); the
    // Frobenius maps k = 1, 2 of n = (c² + 1, c, -c, 0, 0, -c) (2 S and
    // 3 S, at p ≡ 2 mod 9); and the Frobenius map k = 1 of y, which is
    // z⁻¹ = -z² - z⁵ for c = 1 (2 S) and has six non-zero coefficients for
    // c = 2 (4 S).
    let params = CeilidhParams::date2008().expect("built-in 170-bit parameters");
    let (products, squarings) = (2 * (6 + 8), 2 * 7);
    let expected = OpCount {
        mul: 18 * products + 6 * squarings + 2 * 6,
        add: 20 * products + 21 * squarings + 2 * 6,
        sub: 44 * products + 7 * squarings + 2 * (4 + 4 + 2 + 3) + 2 + 4,
        inv: 2,
    };
    assert_eq!(
        expected,
        OpCount {
            mul: 600,
            add: 866,
            sub: 1_362,
            inv: 2
        }
    );
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
