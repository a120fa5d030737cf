//! Differential proptests pinning the fixed-backend ladder suite, the
//! batch entry points and the field's stack context at every width to the
//! serial heap reference.
//!
//! At every field width (10, 64, 127, 160, 170 and 256 bits) random sequences
//! of field operations must give the same residues and the same op counts
//! on `FpContext::new(p)` and on its `heap_only()` twin, whose products run
//! the heap FIOS reference; their elements compare and hash equal exactly
//! when their values are equal. Every `Curve::scalar_mul` algorithm must
//! match `scalar_mul_reference` on the 160-bit and toy curves too.
//!
//! Every fixed ladder variant (double-and-add, NAF, windowed/comb) and
//! every batch entry point (`Curve::scalar_mul_batch`,
//! `FpContext::inv_batch`, `MontgomeryContext::mont_mul_batch`) must agree
//! with its one-at-a-time heap reference — `Curve::scalar_mul_reference`
//! runs the whole ladder on `BigUint`, so a fixed-backend bug cannot mask
//! itself. Edge coverage: empty batches, batches of one, ragged lengths,
//! and the scalars {0, 1, order − 1, order} that straddle the group
//! boundary.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::BigUint;
use ceilidh::CeilidhParams;
use ecc::prelude::*;
use field::{FpContext, FpElement};
use proptest::prelude::*;
use rand::SeedableRng;

fn curve() -> Curve {
    Curve::from_parameters::<Secp256k1>().expect("registered curve")
}

/// Packs four limbs into a 256-bit scalar without the fixed conversions.
fn scalar(limbs: [u64; 4]) -> BigUint {
    let mut acc = BigUint::zero();
    for &l in limbs.iter().rev() {
        acc = &acc.shl_bits(64) + &BigUint::from(l);
    }
    acc
}

/// The four boundary scalars of the satellite checklist.
fn edge_scalars(curve: &Curve) -> Vec<BigUint> {
    let order = curve.order().expect("secp256k1 has an order").clone();
    vec![
        BigUint::zero(),
        BigUint::one(),
        &order - &BigUint::one(),
        order,
    ]
}

/// Primes at every stack width the field uses: the toy curve's 1009
/// (≡ 1 mod 4, so square roots take Tonelli–Shanks) and 2^64 − 59 (also
/// ≡ 1 mod 4) on one word, 2^127 − 1 on two, the paper's 160- and 170-bit
/// primes on three, and secp256k1's on four.
fn primes_at_every_width() -> Vec<BigUint> {
    vec![
        BigUint::from(1009u64),
        BigUint::from(0xffff_ffff_ffff_ffc5u64),
        &BigUint::one().shl_bits(127) - &BigUint::one(),
        Curve::p160_reproduction().unwrap().fp().modulus().clone(),
        CeilidhParams::date2008().unwrap().fp().modulus().clone(),
        curve().fp().modulus().clone(),
    ]
}

fn hash_of(e: &FpElement) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Applies operation `code` to registers of `fp`, returning the result.
fn apply(fp: &FpContext, code: u8, regs: &[FpElement; 4], exp: &BigUint) -> Option<FpElement> {
    let (a, b) = (&regs[code as usize % 4], &regs[(code as usize / 4) % 4]);
    Some(match (code / 16) % 7 {
        0 => fp.mul(a, b),
        1 => fp.add(a, b),
        2 => fp.sub(a, b),
        3 => fp.neg(a),
        4 => fp.inv(a)?,
        5 => fp.exp(a, exp),
        _ => fp.sqrt(a)?,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random sequence of mul/add/sub/neg/inv/exp/sqrt runs identically
    /// on each field's stack context and on its heap-product twin: same
    /// residues, same op-count deltas, and elements equal (and hashing
    /// equal) across the two contexts exactly when their values are.
    #[test]
    fn fast_context_matches_heap_twin_at_every_width(
        seed in any::<u64>(),
        codes in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for p in primes_at_every_width() {
            let fast = FpContext::new(&p).unwrap();
            let heap = fast.heap_only();
            let mut regs: [FpElement; 4] = std::array::from_fn(|_| fast.random(&mut rng));
            let mut twin_regs = regs.clone();
            for &code in &codes {
                // Exponents up to twice the field width: some fit its
                // words, some take the counted loop.
                let exp = BigUint::random_bits(&mut rng, 2 * p.bit_len());
                let exp = exp.shr_bits((code as usize) % (2 * p.bit_len()));
                let before = fast.op_count();
                let got = apply(&fast, code, &regs, &exp);
                let mid = fast.op_count();
                let want = apply(&heap, code, &twin_regs, &exp);
                let after = fast.op_count();
                prop_assert_eq!(mid.since(&before), after.since(&mid), "{} bits, op {}", p.bit_len(), code);
                prop_assert_eq!(&got, &want, "{} bits, op {}", p.bit_len(), code);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert_eq!(got.mont_repr(), want.mont_repr());
                    prop_assert_eq!(fast.to_biguint(&got), heap.to_biguint(&want));
                    // The ring operations, which the twin shares, against
                    // plain modular arithmetic.
                    let plain = |i: usize| fast.to_biguint(&regs[i]);
                    let (a, b) = (plain(code as usize % 4), plain((code as usize / 4) % 4));
                    let expected = match (code / 16) % 7 {
                        0 => Some(bignum::mod_mul(&a, &b, &p)),
                        1 => Some(bignum::mod_add(&a, &b, &p)),
                        2 => Some(bignum::mod_sub(&a, &b, &p)),
                        3 => Some(bignum::mod_neg(&a, &p)),
                        _ => None,
                    };
                    if let Some(expected) = expected {
                        prop_assert_eq!(fast.to_biguint(&got), expected, "op {}", code);
                    }
                    let slot = (code as usize / 64) % 4;
                    regs[slot] = got;
                    twin_regs[slot] = want;
                }
            }
            for x in &regs {
                for y in &twin_regs {
                    let same_value = fast.to_biguint(x) == heap.to_biguint(y);
                    prop_assert_eq!(x == y, same_value);
                    prop_assert_eq!(hash_of(x) == hash_of(y), same_value);
                }
            }
        }
    }

    /// Every scalar-multiplication algorithm matches the heap-product
    /// reference on the paper's 160-bit curve and on the toy curve, whose
    /// fields run on three words and one word.
    #[test]
    fn scalar_mul_matches_reference_below_256_bits(limbs in prop::array::uniform4(any::<u64>())) {
        for curve in [Curve::p160_reproduction().unwrap(), Curve::toy().unwrap()] {
            let k = &scalar(limbs) % &BigUint::one().shl_bits(curve.fp().bit_len() + 8);
            let g = curve.base_point().clone();
            let h = curve.scalar_mul_reference(&g, &BigUint::from(5u64), ScalarMulAlgorithm::Naf);
            for point in [&g, &h] {
                for algorithm in [
                    ScalarMulAlgorithm::DoubleAndAdd,
                    ScalarMulAlgorithm::Naf,
                    ScalarMulAlgorithm::Window4,
                ] {
                    prop_assert_eq!(
                        curve.scalar_mul(point, &k, algorithm),
                        curve.scalar_mul_reference(point, &k, algorithm),
                        "{}: algorithm {:?}",
                        curve.name(),
                        algorithm
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three fixed ladder algorithms match the heap reference ladder
    /// on random 256-bit scalars, on the base point (comb path) and on a
    /// non-base point (window path).
    #[test]
    fn fixed_ladders_match_heap_reference(limbs in prop::array::uniform4(any::<u64>())) {
        let curve = curve();
        let k = scalar(limbs);
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(2u64), ScalarMulAlgorithm::DoubleAndAdd);
        for point in [&g, &h] {
            let reference = curve.scalar_mul_reference(point, &k, ScalarMulAlgorithm::DoubleAndAdd);
            for algorithm in [
                ScalarMulAlgorithm::DoubleAndAdd,
                ScalarMulAlgorithm::Naf,
                ScalarMulAlgorithm::Window4,
            ] {
                prop_assert_eq!(
                    curve.scalar_mul(point, &k, algorithm),
                    reference.clone(),
                    "algorithm {:?}",
                    algorithm
                );
                prop_assert_eq!(
                    curve.scalar_mul_reference(point, &k, algorithm),
                    reference.clone(),
                    "heap algorithm {:?}",
                    algorithm
                );
            }
        }
    }

    /// `Curve::scalar_mul_batch` is element-wise identical to serial
    /// `scalar_mul` for ragged batch lengths (1, 3, 5, 7, 9), with edge
    /// scalars and the point at infinity mixed into the requests.
    #[test]
    fn scalar_mul_batch_matches_serial(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(3u64), ScalarMulAlgorithm::DoubleAndAdd);
        let mut requests: Vec<(AffinePoint, BigUint)> = Vec::new();
        for (i, k) in edge_scalars(&curve).into_iter().enumerate() {
            requests.push((if i % 2 == 0 { g.clone() } else { h.clone() }, k));
        }
        requests.push((AffinePoint::Infinity, scalar([limbs[0], limbs[1], limbs[2], limbs[3]])));
        for chunk in limbs.chunks(2) {
            requests.push((h.clone(), scalar([chunk[0], chunk[1], 0, 0])));
        }
        for len in [0usize, 1, 3, 5, 7, 9] {
            let slice = &requests[..len];
            let batch = curve.scalar_mul_batch(slice);
            prop_assert_eq!(batch.len(), len);
            for (i, (point, k)) in slice.iter().enumerate() {
                prop_assert_eq!(
                    &batch[i],
                    &curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd),
                    "len {} request {}",
                    len,
                    i
                );
            }
        }
    }

    /// `FpContext::inv_batch` matches serial `inv` for ragged lengths,
    /// including length one, with a zero element mixed in (whose inverse
    /// must come back `None`).
    #[test]
    fn field_batches_match_serial(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let fp = curve.fp();
        let bases: Vec<_> = (0..5)
            .map(|i| fp.from_biguint(&scalar([limbs[i], limbs[(i + 1) % 8], limbs[(i + 2) % 8], 0])))
            .collect();
        for len in [0usize, 1, 3, 5] {
            let mut elems = bases[..len].to_vec();
            elems.push(fp.zero());
            let inv = fp.inv_batch(&elems);
            prop_assert_eq!(inv.len(), elems.len());
            for (i, e) in elems.iter().enumerate() {
                prop_assert_eq!(&inv[i], &fp.inv(e), "inv lane {}", i);
            }
        }
    }

    /// `mont_mul_batch` is lane-for-lane identical to serial `mont_mul`
    /// at ragged lane counts, including the {0, 1, p − 1} residues in
    /// every lane position.
    #[test]
    fn mont_mul_batch_matches_serial_ragged(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let p = curve.fp().modulus().clone();
        let ctx = MontgomeryContext::<4>::new(&p).expect("odd prime modulus");
        let residue = |seed: [u64; 4]| {
            let v = &scalar(seed) % &p;
            ctx.to_mont(&Uint::from_biguint(&v).expect("reduced"))
        };
        let pm1 = Uint::from_biguint(&(&p - &BigUint::one())).expect("fits");
        let specials = [Uint::ZERO, ctx.one_mont(), ctx.to_mont(&pm1)];
        macro_rules! check {
            ($lanes:literal) => {{
                let a: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[l % 8], limbs[(l + 1) % 8], l as u64, 7])
                });
                let mut b: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[(l + 2) % 8], limbs[(l + 3) % 8], l as u64, 11])
                });
                // Rotate the boundary residues through the lanes.
                for (i, s) in specials.iter().enumerate() {
                    b[(limbs[i] as usize) % $lanes] = *s;
                }
                let batched = ctx.mont_mul_batch(&a, &b);
                for l in 0..$lanes {
                    prop_assert_eq!(batched[l], ctx.mont_mul(&a[l], &b[l]), "lane {}", l);
                }
            }};
        }
        check!(3);
        check!(5);
        check!(8);
        check!(13);
    }
}
