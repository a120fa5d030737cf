//! Torus compression: CEILIDH's maps ρ: `T6 → A²` and ψ: `A² → T6`.
//!
//! Rubin–Silverberg ("Torus-based cryptography", CRYPTO 2003) show that
//! `T6(Fp)` is rational, so its elements can be transmitted as two `Fp`
//! values instead of six — the factor `6/ϕ(6) = 3` the paper highlights.
//! The DATE paper performs all arithmetic in representation F1 and leaves
//! the maps ρ/ψ unimplemented; here they are, in closed form.
//!
//! * **The parameter.** `T6(Fp) ⊂ T2(Fp3)`, and every `g ∈ T2(Fp3) \ {1}`
//!   is `g = (a + γ)/(a - γ)` for exactly one `a = γ(g + 1)/(g - 1)` in
//!   `Fp3`, where `γ = z - z⁻¹` satisfies `γ^{p³} = -γ`. Its coordinates
//!   `u = (u₀, u₁, u₂)` in the basis `{1, x, x²}`, `x = z + z⁻¹`, are τ(a)
//!   ([`field::Fp6Context::to_fp3`]), and τ⁻¹
//!   ([`field::Fp6Context::from_fp3`]) embeds them back: the maps of
//!   Fig. 1 restricted to `Fp3`, a few fixed additions.
//! * **The quadric.** `g` lies in `T6` when its norm to `Fp2` is 1 as well,
//!   that is when `N₂(a + γ) = N₂(a - γ)`. The difference keeps only the
//!   terms odd in `γ`: `N₂(a + γ) - N₂(a - γ) = 2Q(u)·(1 + 2z³)` with
//!   `Q(u) = 1 + 3u₁² - 3u₀u₂ - 9u₂²`, the same integer polynomial for every
//!   `p` (`1 + 2z³` squares to −3, so it is not zero). So `T6 \ {1}` is the
//!   quadric `Q = 0`.
//! * **The maps.** `ω = z³` lies in `T6` with parameter
//!   `a0 = (-4/3, 1/3, 2/3)`. Projecting the quadric from `a0` gives
//!   - ρ(g) = `(s, t) = ((3u₁ - 1)/(3u₀ + 4), (3u₂ - 2)/(3u₀ + 4))`, the
//!     direction `(1, s, t)` of the line from `a0` through `a`. These are
//!     ratios, so ρ takes `n·u` for `n = N(g - 1)`, from the adjugate of
//!     `g - 1` instead of its inverse, and inverts only `3u₀′ + 4n`;
//!   - ψ(s, t): that line `a0 + λ(1, s, t)` meets `Q = 0` again at
//!     `λ = l/q`, with `q = 3s² - 3t - 9t²` (the quadratic part of `Q` at
//!     `(1, s, t)`) and `l = 2 - 2s + 8t` (`-∇Q(a0)·(1, s, t)`). Scaled by
//!     `3q`, that parameter is `A = τ⁻¹(3l - 4q, q + 3ls, 2q + 3lt)`, and
//!     `g = (A + 3q·γ)/(A - 3q·γ)`: one `Fp6` inversion, no square root, and
//!     `g` lies in `T6` by construction.
//! * **The exceptional set.** ρ fails on the identity and on the plane
//!   `3u₀ + 4 = 0`, which meets the quadric in a conic through ω: at most
//!   `p + 2` of the `p² - p + 1` elements of `T6`. ψ rejects exactly the
//!   pairs with `q = 0` or `l = 0`, which ρ never produces. Everywhere else
//!   ψ∘ρ and ρ∘ψ are the identity. At 170 bits the exceptional set is a
//!   2⁻¹⁷⁰ fraction, and [`crate::encrypt_hybrid`] and [`crate::sign`]
//!   resample on a failed compression.

use bignum::BigUint;
use field::{Fp6Element, FpElement};

use crate::error::CeilidhError;
use crate::params::CeilidhParams;
use crate::torus::TorusElement;

/// A torus element compressed by ρ: two `Fp` coordinates, a third of an
/// `Fp6` element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompressedTorus {
    /// The first coordinate `s = (3u₁ - 1)/(3u₀ + 4)`.
    pub u0: BigUint,
    /// The second coordinate `t = (3u₂ - 2)/(3u₀ + 4)`.
    pub u1: BigUint,
}

impl CompressedTorus {
    /// Size of the compressed representation in bytes (two field elements),
    /// versus `6 · ⌈log2 p / 8⌉` for an uncompressed `Fp6` element.
    pub fn byte_len(&self, p_bits: usize) -> usize {
        2 * p_bits.div_ceil(8)
    }
}

/// Compresses a `T6` element to two `Fp` values with ρ (factor 3 — the
/// bandwidth the paper advertises for CEILIDH).
///
/// # Errors
///
/// Returns [`CeilidhError::NotInTorus`] for elements outside `T6`, and
/// [`CeilidhError::CompressionFailed`] for the identity and the elements on
/// the plane `3u₀ + 4 = 0` (ω = z³ among them).
pub fn compress(params: &CeilidhParams, g: &TorusElement) -> Result<CompressedTorus, CeilidhError> {
    let fp = params.fp();
    let value = g.as_fp6();
    if *value == params.fp6().one() {
        return Err(CeilidhError::CompressionFailed(
            "the identity has no affine parameter",
        ));
    }
    if !params.is_torus_member(value) {
        return Err(CeilidhError::NotInTorus);
    }
    // s = (3u₁′ - n)/(3u₀′ + 4n) and t = (3u₂′ - 2n)/(3u₀′ + 4n) on u′ = n·u.
    let ([u0, u1, u2], n) = scaled_parameter(params, value);
    let n2 = fp.double(&n);
    let scale = fp
        .inv(&fp.add(&fp.mul_small(&u0, 3), &fp.double(&n2)))
        .ok_or(CeilidhError::CompressionFailed(
            "the parameter lies on the plane 3u0 + 4 = 0",
        ))?;
    let coordinate = |u: &FpElement, c: &FpElement| {
        fp.to_biguint(&fp.mul(&fp.sub(&fp.mul_small(u, 3), c), &scale))
    };
    Ok(CompressedTorus {
        u0: coordinate(&u1, &n),
        u1: coordinate(&u2, &n2),
    })
}

/// Decompresses two `Fp` values back to the `T6` element with ψ.
///
/// # Errors
///
/// Returns [`CeilidhError::DecompressionFailed`] if a coordinate is not a
/// canonical residue (`≥ p`), or if the pair is not in ρ's image
/// (`q = 0` or `l = 0`).
pub fn decompress(
    params: &CeilidhParams,
    compressed: &CompressedTorus,
) -> Result<TorusElement, CeilidhError> {
    let (fp, fp6) = (params.fp(), params.fp6());
    let s = canonical_coordinate(params, &compressed.u0)?;
    let t = canonical_coordinate(params, &compressed.u1)?;
    // q = 3(s² - t - 3t²) and l = 2(1 - s + 4t).
    let q = fp.mul_small(
        &fp.sub(
            &fp.sub(&fp.square(&s), &t),
            &fp.mul_small(&fp.square(&t), 3),
        ),
        3,
    );
    let l = fp.double(&fp.add(&fp.sub(&fp.one(), &s), &fp.mul_small(&t, 4)));
    if q.is_zero() || l.is_zero() {
        return Err(CeilidhError::DecompressionFailed(
            "the coordinates are not in the image of compression",
        ));
    }
    // A = 3q·(a0 + (l/q)(1, s, t)), embedded with τ⁻¹.
    let l3 = fp.mul_small(&l, 3);
    let a = fp6.from_fp3([
        fp.sub(&l3, &fp.mul_small(&q, 4)),
        fp.add(&q, &fp.mul(&l3, &s)),
        fp.add(&fp.double(&q), &fp.mul(&l3, &t)),
    ]);
    // 3q·γ, with γ = z + z² + z⁵.
    let (q3, zero) = (fp.mul_small(&q, 3), fp.zero());
    let q3_gamma = fp6.from_coeffs([zero.clone(), q3.clone(), q3.clone(), zero.clone(), zero, q3]);
    let g = fp6.mul(&fp6.add(&a, &q3_gamma), &fp6.inv(&fp6.sub(&a, &q3_gamma))?);
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

/// The coordinates `u′ = n·u` of `n·a` and the norm `n = N(g - 1)`, where
/// `a = γ(g + 1)/(g - 1)` is the parameter of `g ∈ T2(Fp3) \ {1}`:
/// `n·a = γ(g + 1)·(g - 1)*` with the adjugate `(g - 1)*` of
/// [`field::Fp6Context::adjugate`], so no inversion. `n` is not zero
/// because `g ≠ 1`.
fn scaled_parameter(params: &CeilidhParams, g: &Fp6Element) -> ([FpElement; 3], FpElement) {
    let fp6 = params.fp6();
    let numer = fp6.mul(&fp6.zeta_minus_inverse(), &fp6.add(g, &fp6.one()));
    let (adjugate, n) = fp6.adjugate(&fp6.sub(g, &fp6.one()));
    (fp6.to_fp3(&fp6.mul(&numer, &adjugate)), n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params() -> CeilidhParams {
        CeilidhParams::toy().unwrap()
    }

    /// The coordinates `u` of the parameter `a = γ(g + 1)/(g - 1)`.
    fn parameter(params: &CeilidhParams, g: &Fp6Element) -> [FpElement; 3] {
        let fp = params.fp();
        let (u, n) = scaled_parameter(params, g);
        let n_inv = fp.inv(&n).unwrap();
        u.map(|c| fp.mul(&c, &n_inv))
    }

    #[test]
    fn factor_two_roundtrip() {
        // The `T2(Fp3)` parameter both maps go through: a = γ(g + 1)/(g - 1)
        // lies in Fp3, and (a + γ)/(a - γ) gives g back.
        let params = params();
        let fp6 = params.fp6();
        let gamma = fp6.zeta_minus_inverse();
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut tested = 0;
        for _ in 0..25 {
            let (_, g) = params.random_subgroup_element(&mut rng);
            if g == params.identity() {
                continue;
            }
            let a = fp6.from_fp3(parameter(&params, g.as_fp6()));
            let back = fp6.mul(
                &fp6.add(&a, &gamma),
                &fp6.inv(&fp6.sub(&a, &gamma)).unwrap(),
            );
            assert_eq!(&back, g.as_fp6());
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
    fn the_torus_is_the_quadric_through_omega() {
        // N₂(a + γ) - N₂(a - γ) = 2Q(u)·(1 + 2z³) for every a ∈ Fp3, and
        // a0 = (-4/3, 1/3, 2/3) is the parameter of ω = z³.
        for params in [params(), CeilidhParams::date2008().unwrap()] {
            let (fp, fp6) = (params.fp(), params.fp6());
            let gamma = fp6.zeta_minus_inverse();
            let mut rng = rand::rngs::StdRng::seed_from_u64(65);
            for _ in 0..20 {
                let u: [FpElement; 3] = std::array::from_fn(|_| fp.random(&mut rng));
                let [u0, u1, u2] = &u;
                let a = fp6.from_fp3(u.clone());
                let difference = fp6.sub(
                    &fp6.norm_to_fp2(&fp6.add(&a, &gamma)),
                    &fp6.norm_to_fp2(&fp6.sub(&a, &gamma)),
                );
                let q = fp.sub(
                    &fp.sub(
                        &fp.add(&fp.one(), &fp.mul_small(&fp.square(u1), 3)),
                        &fp.mul_small(&fp.mul(u0, u2), 3),
                    ),
                    &fp.mul_small(&fp.square(u2), 9),
                );
                let zero = fp.zero();
                let expected = fp6.from_coeffs([
                    fp.double(&q),
                    zero.clone(),
                    zero.clone(),
                    fp.mul_small(&q, 4),
                    zero.clone(),
                    zero,
                ]);
                assert_eq!(difference, expected);
            }

            let omega = fp6.from_u64_coeffs([0, 0, 0, 1, 0, 0]);
            assert!(params.is_torus_member(&omega));
            let a0 = parameter(&params, &omega).map(|c| fp.mul_small(&c, 3));
            assert_eq!(a0, [fp.from_i64(-4), fp.one(), fp.from_u64(2)]);
            assert!(matches!(
                compress(&params, &TorusElement::from_fp6_unchecked(omega)),
                Err(CeilidhError::CompressionFailed(_))
            ));
        }
    }

    #[test]
    fn rho_and_psi_are_inverse_off_the_exceptional_set() {
        // p = 101 ≡ 2 (mod 9) and p = 23 ≡ 5 (mod 9), exhaustively.
        for (p, q) in [(101u64, 37u64), (23, 13)] {
            let params =
                CeilidhParams::from_components(&BigUint::from(p), &BigUint::from(q)).unwrap();
            let order = params.torus_order().to_u64().unwrap();
            let generator = torus_generator(&params);

            let mut acc = params.identity();
            let mut failures = 0;
            for _ in 0..order {
                match compress(&params, &acc) {
                    Ok(c) => assert_eq!(decompress(&params, &c).unwrap(), acc),
                    Err(CeilidhError::CompressionFailed(_)) => failures += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
                acc = params.mul(&acc, &generator);
            }
            assert_eq!(acc, params.identity());
            assert!(
                failures <= p + 2,
                "{failures} exceptional elements at p = {p}"
            );

            let mut accepted = 0;
            for s in 0..p {
                for t in 0..p {
                    let pair = CompressedTorus {
                        u0: BigUint::from(s),
                        u1: BigUint::from(t),
                    };
                    let Ok(g) = decompress(&params, &pair) else {
                        continue;
                    };
                    assert!(params.is_torus_member(g.as_fp6()));
                    assert_eq!(compress(&params, &g).unwrap(), pair);
                    accepted += 1;
                }
            }
            assert_eq!(accepted, order - failures);
        }
    }

    /// An element of order `Φ6(p)`: it generates all of `T6`.
    fn torus_generator(params: &CeilidhParams) -> TorusElement {
        let order = params.torus_order().to_u64().unwrap();
        let primes: Vec<u64> = (2..=order)
            .filter(|&r| order.is_multiple_of(r) && (2..r).all(|d| !r.is_multiple_of(d)))
            .collect();
        let (fp, fp6) = (params.fp(), params.fp6());
        (1..)
            .filter_map(|c| {
                params.project_to_torus(&fp6.add(&fp6.gen_z(), &fp6.from_fp(fp.from_u64(c))))
            })
            .find(|g| {
                primes
                    .iter()
                    .all(|r| params.pow(g, &BigUint::from(order / r)) != params.identity())
            })
            .unwrap()
    }

    #[test]
    fn identity_cannot_be_compressed() {
        let params = params();
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
        compressed.u1 = &(&compressed.u1 + &BigUint::one()) % params.p();
        match decompress(&params, &compressed) {
            // Either the pair is not in ρ's image...
            Err(CeilidhError::DecompressionFailed(_)) => {}
            // ...or it decodes to a different (but valid) torus element.
            Ok(other) => {
                assert_ne!(other, g);
                assert!(params.is_torus_member(other.as_fp6()));
            }
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
        }
    }

    #[test]
    fn compressed_size_is_one_third() {
        let compressed = CompressedTorus {
            u0: BigUint::zero(),
            u1: BigUint::zero(),
        };
        // 170-bit p: 2 * 22 = 44 bytes versus 6 * 22 = 132 bytes.
        assert_eq!(compressed.byte_len(170), 44);
        assert_eq!(3 * compressed.byte_len(170), 6 * 170usize.div_ceil(8));
    }
}
