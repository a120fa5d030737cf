//! Torus compression: the bandwidth advantage of CEILIDH.
//!
//! Rubin–Silverberg show that `T6(Fp)` is rational, so its elements can be
//! transmitted as two `Fp` values instead of six — the factor
//! `6/ϕ(6) = 3` the paper highlights. The DATE paper performs all
//! arithmetic in representation F1 and leaves the maps ρ/ψ unimplemented;
//! here we provide an equivalent-bandwidth scheme built from two exact
//! steps (see DESIGN.md for the substitution rationale):
//!
//! 1. **Factor-2 (exact, [`compress_t2`] / [`decompress_t2`]).**
//!    `T6(Fp) ⊂ T2(Fp3)`, and every `g ∈ T2(Fp3) \ {1}` can be written as
//!    `g = (a + γ)/(a - γ)` for a unique `a ∈ Fp3`, where
//!    `γ = ζ9 - ζ9^{-1}` is "purely imaginary" (`γ^{p³} = -γ`). The three
//!    `Fp` coordinates of `a` are the compressed form.
//!
//! 2. **Factor-3 ([`compress`] / [`decompress`]).** Membership of `g` in
//!    `T3` (norm to `Fp2` equal to 1) imposes one further algebraic
//!    condition on `a` that is *quadratic* in each coordinate, because
//!    `N(a+γ) - N(a-γ)` only keeps the terms odd in `γ`. We therefore
//!    transmit the first two coordinates plus a 2-bit hint selecting the
//!    right root of that quadratic; decompression interpolates the
//!    constraint polynomial, solves it with a modular square root, filters
//!    the candidates by torus membership and picks the hinted one. The
//!    transmitted payload is two `Fp` elements + 2 bits — the same
//!    bandwidth as the original CEILIDH maps.

use bignum::BigUint;
use field::{Fp6Element, FpElement};

use crate::error::CeilidhError;
use crate::params::CeilidhParams;
use crate::torus::TorusElement;

/// Factor-2 compressed torus element: the three `Fp` coordinates of the
/// `T2(Fp3)` parameter `a`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompressedT2 {
    /// Coordinates of `a ∈ Fp3` in the basis `{1, x, x²}`.
    pub coords: [BigUint; 3],
}

/// Factor-3 compressed torus element: two `Fp` coordinates plus a root-
/// selection hint (always < 4, i.e. 2 bits on the wire).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompressedTorus {
    /// Coordinate of `1` in the `Fp3` parameter `a`.
    pub u0: BigUint,
    /// Coordinate of `x` in the `Fp3` parameter `a`.
    pub u1: BigUint,
    /// Index of the correct candidate among the (canonically ordered) roots
    /// of the membership constraint.
    pub hint: u8,
}

impl CompressedTorus {
    /// Size of the compressed representation in bytes (two field elements
    /// plus one hint byte), versus `6 · ⌈log2 p / 8⌉` for an uncompressed
    /// `Fp6` element.
    pub fn byte_len(&self, p_bits: usize) -> usize {
        2 * p_bits.div_ceil(8) + 1
    }
}

/// Compresses a torus element to three `Fp` values (factor 2, exact).
///
/// # Errors
///
/// Returns [`CeilidhError::CompressionFailed`] for the identity element
/// (not covered by the rational parameterisation) and
/// [`CeilidhError::NotInTorus`] if the element is not in `T2(Fp3)`.
pub fn compress_t2(params: &CeilidhParams, g: &TorusElement) -> Result<CompressedT2, CeilidhError> {
    let fp6 = params.fp6();
    let value = g.as_fp6();
    if *value == fp6.one() {
        return Err(CeilidhError::CompressionFailed(
            "the identity has no affine parameter",
        ));
    }
    if fp6.norm_to_fp3(value) != fp6.one() {
        return Err(CeilidhError::NotInTorus);
    }
    // a = γ (g + 1) / (g - 1)
    let gamma = fp6.zeta_minus_inverse();
    let numer = fp6.mul(&gamma, &fp6.add(value, &fp6.one()));
    let denom = fp6.sub(value, &fp6.one());
    let a = fp6.mul(&numer, &fp6.inv(&denom)?);
    fp3_coords(params, &a)
}

/// Decompresses three `Fp` values back to a torus (`T2(Fp3)`) element.
///
/// The result always satisfies `N_{Fp6/Fp3}(g) = 1`; it lies on the full
/// torus `T6` only if the coordinates came from [`compress_t2`] applied to a
/// `T6` element.
///
/// # Errors
///
/// Returns [`CeilidhError::DecompressionFailed`] if a coordinate is not a
/// canonical residue (`≥ p`), so each element has exactly one encoding.
pub fn decompress_t2(
    params: &CeilidhParams,
    compressed: &CompressedT2,
) -> Result<TorusElement, CeilidhError> {
    let [u0, u1, u2] = compressed
        .coords
        .each_ref()
        .map(|c| canonical_coordinate(params, c));
    let a = embed_fp3(params, &u0?, &u1?, &u2?);
    let g = t2_point(params, &a)?;
    Ok(TorusElement::from_fp6_unchecked(g))
}

/// A transmitted coordinate as a field element; only canonical residues
/// (`< p`) are accepted.
fn canonical_coordinate(params: &CeilidhParams, c: &BigUint) -> Result<FpElement, CeilidhError> {
    let fp = params.fp();
    if c >= fp.modulus() {
        return Err(CeilidhError::DecompressionFailed(
            "coordinate is not reduced modulo p",
        ));
    }
    Ok(fp.from_biguint(c))
}

/// Compresses a `T6` element to two `Fp` values plus a 2-bit hint
/// (factor 3 — the bandwidth the paper advertises for CEILIDH).
///
/// # Errors
///
/// Returns [`CeilidhError::CompressionFailed`] for the identity and
/// [`CeilidhError::NotInTorus`] for elements outside `T6`.
pub fn compress(params: &CeilidhParams, g: &TorusElement) -> Result<CompressedTorus, CeilidhError> {
    if !params.is_torus_member(g.as_fp6()) {
        return Err(CeilidhError::NotInTorus);
    }
    let stage1 = compress_t2(params, g)?;
    let fp = params.fp();
    let u0 = fp.from_biguint(&stage1.coords[0]);
    let u1 = fp.from_biguint(&stage1.coords[1]);
    let candidates = constraint_roots(params, &u0, &u1)?;
    let hint = candidates
        .iter()
        .position(|t| *t == stage1.coords[2])
        .ok_or(CeilidhError::CompressionFailed(
            "true coordinate is not a constraint root",
        ))?;
    Ok(CompressedTorus {
        u0: stage1.coords[0].clone(),
        u1: stage1.coords[1].clone(),
        hint: hint as u8,
    })
}

/// Decompresses two `Fp` values plus a hint back to the `T6` element.
///
/// # Errors
///
/// Returns [`CeilidhError::DecompressionFailed`] if a coordinate is not a
/// canonical residue (`≥ p`), the coordinates do not correspond to any
/// torus element or the hint is out of range.
pub fn decompress(
    params: &CeilidhParams,
    compressed: &CompressedTorus,
) -> Result<TorusElement, CeilidhError> {
    let u0 = canonical_coordinate(params, &compressed.u0)?;
    let u1 = canonical_coordinate(params, &compressed.u1)?;
    let candidates = constraint_roots(params, &u0, &u1)?;
    let t = candidates
        .get(compressed.hint as usize)
        .ok_or(CeilidhError::DecompressionFailed("hint out of range"))?;
    let reconstructed = CompressedT2 {
        coords: [compressed.u0.clone(), compressed.u1.clone(), t.clone()],
    };
    let g = decompress_t2(params, &reconstructed)?;
    debug_assert!(params.is_torus_member(g.as_fp6()));
    Ok(g)
}

/// Evaluates `g = (a + γ)/(a - γ)` for `a ∈ Fp3 ⊂ Fp6`.
fn t2_point(params: &CeilidhParams, a: &Fp6Element) -> Result<Fp6Element, CeilidhError> {
    let fp6 = params.fp6();
    let gamma = fp6.zeta_minus_inverse();
    let numer = fp6.add(a, &gamma);
    let denom = fp6.sub(a, &gamma);
    Ok(fp6.mul(&numer, &fp6.inv(&denom)?))
}

/// Embeds `(u0, u1, u2)` as `u0 + u1·x + u2·x² ∈ Fp3 ⊂ Fp6`.
fn embed_fp3(params: &CeilidhParams, u0: &FpElement, u1: &FpElement, u2: &FpElement) -> Fp6Element {
    let fp6 = params.fp6();
    let x = fp6.zeta_plus_inverse();
    let x2 = fp6.mul(&x, &x);
    let mut acc = fp6.from_fp(u0.clone());
    acc = fp6.add(&acc, &fp6.scalar_mul(&x, u1));
    fp6.add(&acc, &fp6.scalar_mul(&x2, u2))
}

/// Extracts the `Fp3` coordinates of an element known to lie in the `Fp3`
/// subfield, using the representation-F2 basis change.
fn fp3_coords(params: &CeilidhParams, a: &Fp6Element) -> Result<CompressedT2, CeilidhError> {
    let repr = params.repr();
    let f2 = repr.from_f1(a);
    if !f2.v().is_zero() {
        return Err(CeilidhError::CompressionFailed(
            "parameter does not lie in the Fp3 subfield",
        ));
    }
    let fp = params.fp();
    let coeffs = f2.u().coeffs();
    Ok(CompressedT2 {
        coords: [
            fp.to_biguint(&coeffs[0]),
            fp.to_biguint(&coeffs[1]),
            fp.to_biguint(&coeffs[2]),
        ],
    })
}

/// Computes the canonically ordered list of third coordinates `t` such that
/// `a = u0 + u1·x + t·x²` parameterises a `T6` element.
///
/// The membership constraint `N_{Fp6/Fp2}(a+γ) = N_{Fp6/Fp2}(a-γ)` is
/// quadratic in `t` (only the odd-in-γ terms survive the difference), so
/// there are at most two candidates; they are found by interpolating the
/// constraint polynomial at `t ∈ {0, 1, 2}` and solving with a modular
/// square root.
fn constraint_roots(
    params: &CeilidhParams,
    u0: &FpElement,
    u1: &FpElement,
) -> Result<Vec<BigUint>, CeilidhError> {
    let fp = params.fp();
    let fp6 = params.fp6();
    let gamma = fp6.zeta_minus_inverse();

    // D(t) = N(a(t)+γ) - N(a(t)-γ): an Fp2 element, quadratic in t.
    let eval = |t: &FpElement| -> [FpElement; 6] {
        let a = embed_fp3(params, u0, u1, t);
        let plus = fp6.norm_to_fp2(&fp6.add(&a, &gamma));
        let minus = fp6.norm_to_fp2(&fp6.sub(&a, &gamma));
        let d = fp6.sub(&plus, &minus);
        d.coeffs().clone()
    };

    // Interpolate each of the six coordinates of D as a quadratic in t from
    // the samples at t = 0, 1, 2:
    //   c2 = (d(0) - 2 d(1) + d(2)) / 2,  c1 = d(1) - d(0) - c2,  c0 = d(0).
    let d0 = eval(&fp.zero());
    let d1 = eval(&fp.one());
    let d2 = eval(&fp.from_u64(2));
    let half = fp
        .inv(&fp.from_u64(2))
        .expect("2 is invertible in odd characteristic");

    let mut polys: Vec<[FpElement; 3]> = Vec::with_capacity(6);
    for i in 0..6 {
        let c0 = d0[i].clone();
        let c2 = fp.mul(&fp.add(&fp.sub(&d0[i], &fp.double(&d1[i])), &d2[i]), &half);
        let c1 = fp.sub(&fp.sub(&d1[i], &d0[i]), &c2);
        polys.push([c0, c1, c2]);
    }

    // Pick the first coordinate whose constraint polynomial is not
    // identically zero (an element of Fp2 only has non-zero coordinates at
    // z^0 and z^3, but we scan all six for robustness).
    let poly = polys
        .into_iter()
        .find(|p| !(p[0].is_zero() && p[1].is_zero() && p[2].is_zero()));
    let Some([c0, c1, c2]) = poly else {
        return Err(CeilidhError::DecompressionFailed(
            "degenerate membership constraint",
        ));
    };

    // Solve c2 t² + c1 t + c0 = 0 over Fp.
    let mut roots: Vec<FpElement> = Vec::new();
    if c2.is_zero() {
        if c1.is_zero() {
            return Err(CeilidhError::DecompressionFailed(
                "constraint polynomial is constant and non-zero",
            ));
        }
        let t = fp.neg(&fp.mul(&c0, &fp.inv(&c1).expect("non-zero")));
        roots.push(t);
    } else {
        // discriminant = c1² - 4 c0 c2
        let disc = fp.sub(&fp.square(&c1), &fp.mul(&fp.from_u64(4), &fp.mul(&c0, &c2)));
        if let Some(sqrt_disc) = fp.sqrt(&disc) {
            let inv_2a = fp
                .inv(&fp.double(&c2))
                .expect("2·c2 non-zero in odd characteristic");
            let minus_c1 = fp.neg(&c1);
            roots.push(fp.mul(&fp.add(&minus_c1, &sqrt_disc), &inv_2a));
            roots.push(fp.mul(&fp.sub(&minus_c1, &sqrt_disc), &inv_2a));
        }
    }

    // Keep only roots that really produce T6 members, in canonical order.
    let mut candidates: Vec<BigUint> = Vec::new();
    for t in roots {
        let a = embed_fp3(params, u0, u1, &t);
        if let Ok(g) = t2_point(params, &a) {
            if params.is_torus_member(&g) {
                candidates.push(fp.to_biguint(&t));
            }
        }
    }
    candidates.sort();
    candidates.dedup();
    if candidates.is_empty() {
        return Err(CeilidhError::DecompressionFailed(
            "no torus point matches the transmitted coordinates",
        ));
    }
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> CeilidhParams {
        CeilidhParams::toy().unwrap()
    }

    #[test]
    fn factor_two_roundtrip() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut tested = 0;
        for _ in 0..25 {
            let (_, g) = params.random_subgroup_element(&mut rng);
            if g == params.identity() {
                continue;
            }
            let compressed = compress_t2(&params, &g).unwrap();
            let back = decompress_t2(&params, &compressed).unwrap();
            assert_eq!(back, g);
            tested += 1;
        }
        assert!(tested > 5);
    }

    #[test]
    fn factor_three_roundtrip() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let mut tested = 0;
        for _ in 0..25 {
            let (_, g) = params.random_subgroup_element(&mut rng);
            if g == params.identity() {
                continue;
            }
            let compressed = compress(&params, &g).unwrap();
            assert!(compressed.hint < 4);
            let back = decompress(&params, &compressed).unwrap();
            assert_eq!(back, g);
            tested += 1;
        }
        assert!(tested > 5);
    }

    #[test]
    fn every_subgroup_element_roundtrips() {
        // The toy subgroup has only 37 elements: test them exhaustively.
        let params = params();
        let g = params.generator();
        let mut acc = params.identity();
        for _ in 1..37u64 {
            acc = params.mul(&acc, &g);
            let compressed = compress(&params, &acc).unwrap();
            assert_eq!(decompress(&params, &compressed).unwrap(), acc);
        }
    }

    #[test]
    fn identity_cannot_be_compressed() {
        let params = params();
        assert!(matches!(
            compress_t2(&params, &params.identity()),
            Err(CeilidhError::CompressionFailed(_))
        ));
        assert!(matches!(
            compress(&params, &params.identity()),
            Err(CeilidhError::CompressionFailed(_))
        ));
    }

    #[test]
    fn non_torus_elements_are_rejected() {
        let params = params();
        let bogus =
            TorusElement::from_fp6_unchecked(params.fp6().from_u64_coeffs([2, 3, 0, 0, 0, 0]));
        assert_eq!(
            compress(&params, &bogus).unwrap_err(),
            CeilidhError::NotInTorus
        );
    }

    #[test]
    fn tampered_compression_fails_or_differs() {
        let params = params();
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let (_, g) = params.random_subgroup_element(&mut rng);
        if g == params.identity() {
            return;
        }
        let mut compressed = compress(&params, &g).unwrap();
        compressed.hint = 3;
        match decompress(&params, &compressed) {
            // Either the hint is out of range...
            Err(CeilidhError::DecompressionFailed(_)) => {}
            // ...or it selects a different (but valid) torus element.
            Ok(other) => assert!(params.is_torus_member(other.as_fp6())),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn non_canonical_coordinates_are_rejected() {
        // Adding a multiple of p to a coordinate leaves its residue alone,
        // so without the range check one element would have many
        // encodings.
        for params in [params(), CeilidhParams::date2008().unwrap()] {
            let p = params.fp().modulus().clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(64);
            let g = loop {
                let (_, g) = params.random_subgroup_element(&mut rng);
                if g != params.identity() {
                    break g;
                }
            };
            let compressed = compress(&params, &g).unwrap();
            assert_eq!(decompress(&params, &compressed).unwrap(), g);
            for shifted in [
                CompressedTorus {
                    u0: &compressed.u0 + &p,
                    ..compressed.clone()
                },
                CompressedTorus {
                    u1: &compressed.u1 + &p,
                    ..compressed.clone()
                },
            ] {
                assert!(matches!(
                    decompress(&params, &shifted),
                    Err(CeilidhError::DecompressionFailed(_))
                ));
            }
            let t2 = compress_t2(&params, &g).unwrap();
            assert_eq!(decompress_t2(&params, &t2).unwrap(), g);
            for i in 0..3 {
                let mut shifted = t2.clone();
                shifted.coords[i] = &shifted.coords[i] + &(&p * &BigUint::from(3u64));
                assert!(matches!(
                    decompress_t2(&params, &shifted),
                    Err(CeilidhError::DecompressionFailed(_))
                ));
            }
        }
    }

    #[test]
    fn compressed_size_is_one_third() {
        let compressed = CompressedTorus {
            u0: BigUint::zero(),
            u1: BigUint::zero(),
            hint: 0,
        };
        // 170-bit p: 2 * 22 bytes + 1 = 45 bytes versus 6 * 22 = 132 bytes.
        assert_eq!(compressed.byte_len(170), 45);
    }
}
