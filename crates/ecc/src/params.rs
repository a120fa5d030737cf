//! Curve parameters as associated data on zero-sized marker types.
//!
//! The paper's coprocessor is *operand-size-parametric* — Tables 2/3 quote
//! cycle counts per bit-length, not per curve — so the curve catalogue is
//! open-ended: any short-Weierstrass curve `y² = x³ + ax + b` over a prime
//! field can flow through the host ladders and the platform cycle model.
//! This module declares the catalogue: the [`WeierstrassParameters`] trait
//! carries a curve's constants as associated data, and each named curve is
//! a zero-sized marker type ([`Secp256k1`], [`P256`], [`P160Reproduction`],
//! [`Toy`]) that [`Curve::from_parameters`] turns into a runtime
//! [`Curve`].
//!
//! A marker declares only what a curve is: its name, `p`, `a`, `b`, the
//! generator, the order and the cofactor. What follows from those is
//! derived when the curve is built: the operand size is the prime's bit
//! length, and [`Curve::a_is_minus_three`] reads `a ≡ -3 (mod p)` off the
//! coefficient. That flag decides, per curve, the dispatch between the
//! general 10-MM point doubling and the shortened 8-MM `dbl-2001-b`
//! formulas (and between the platform's `ecc_pd` and `ecc_pd_fast`
//! sequences). P-256 has `a = -3`; secp256k1 does not — the pair
//! exercises both sides of the dispatch on curves where the distinction
//! matters.

use bignum::BigUint;

use crate::curve::{Curve, CurveSpec};
use crate::error::EccError;

/// Constants of a short-Weierstrass curve `y² = x³ + ax + b` over a prime
/// field, declared as associated data on a marker type.
///
/// Implementations return fresh [`BigUint`]s (the workspace bignum is
/// heap-allocated, so the constants cannot be `const` items); the values
/// must be canonical residues, i.e. already reduced modulo [`prime`].
///
/// [`prime`]: WeierstrassParameters::prime
pub trait WeierstrassParameters {
    /// Canonical curve name — the key under which the curve is registered
    /// in [`Curve::by_name`].
    const NAME: &'static str;

    /// The field prime `p`.
    fn prime() -> BigUint;

    /// The coefficient `a`, as a canonical residue mod `p`.
    fn a() -> BigUint;

    /// The coefficient `b`, as a canonical residue mod `p`.
    fn b() -> BigUint;

    /// Affine coordinates `(x, y)` of the generator (base point).
    fn generator() -> (BigUint, BigUint);

    /// The group order annihilating the generator, when known.
    ///
    /// For the standards curves this is the published prime order `n`;
    /// for [`Toy`] it is the exhaustively counted group order; the
    /// reproduction curve's order is not certified (point counting is out
    /// of scope — see DESIGN.md) and returns `None`.
    fn order() -> Option<BigUint>;

    /// The cofactor `h` (`#E(Fp) = h · n`); `1` for every registered
    /// curve.
    fn cofactor() -> BigUint {
        BigUint::one()
    }

    /// The parameters bundled as a [`CurveSpec`], ready for
    /// [`Curve::from_spec`].
    fn spec() -> CurveSpec {
        let (gx, gy) = Self::generator();
        CurveSpec::new(Self::prime(), Self::a(), Self::b(), gx, gy)
            .name(Self::NAME)
            .cofactor(Self::cofactor())
            .maybe_order(Self::order())
    }
}

/// secp256k1 (SEC 2): `y² = x³ + 7` over `p = 2²⁵⁶ - 2³² - 977`.
///
/// The curve behind Bitcoin/Ethereum ECDSA. `a = 0`, so its ladder runs
/// the **general** doubling sequence — the curve that keeps the
/// `ecc_pd`/`ecc_pd_fast` dispatch honest from the other side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Secp256k1;

impl WeierstrassParameters for Secp256k1 {
    const NAME: &'static str = "secp256k1";

    fn prime() -> BigUint {
        BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .expect("valid hex constant")
    }

    fn a() -> BigUint {
        BigUint::zero()
    }

    fn b() -> BigUint {
        BigUint::from(7u64)
    }

    fn generator() -> (BigUint, BigUint) {
        (
            BigUint::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
                .expect("valid hex constant"),
            BigUint::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
                .expect("valid hex constant"),
        )
    }

    fn order() -> Option<BigUint> {
        Some(
            BigUint::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
                .expect("valid hex constant"),
        )
    }
}

/// NIST P-256 / secp256r1 (FIPS 186-4): the TLS/ECDSA workhorse curve.
///
/// `a = -3`, so its ladder runs the shortened fast doubling — the
/// standards curve the paper's `a = -3` optimisation actually applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P256;

impl WeierstrassParameters for P256 {
    const NAME: &'static str = "p256";

    fn prime() -> BigUint {
        BigUint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .expect("valid hex constant")
    }

    fn a() -> BigUint {
        &Self::prime() - &BigUint::from(3u64)
    }

    fn b() -> BigUint {
        BigUint::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
            .expect("valid hex constant")
    }

    fn generator() -> (BigUint, BigUint) {
        (
            BigUint::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
                .expect("valid hex constant"),
            BigUint::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
                .expect("valid hex constant"),
        )
    }

    fn order() -> Option<BigUint> {
        Some(
            BigUint::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")
                .expect("valid hex constant"),
        )
    }
}

/// The paper's 160-bit reproduction curve: `y² = x³ - 3x + 7` over
/// `p = 2¹⁶⁰ - 2³¹ - 1`.
///
/// A locally generated curve at the operand size of the paper's "160-bit
/// ECC" rows; its group order is *not* certified (the reproduction only
/// needs field and curve arithmetic at this bit-length — see DESIGN.md),
/// so [`order`](WeierstrassParameters::order) returns `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct P160Reproduction;

impl WeierstrassParameters for P160Reproduction {
    const NAME: &'static str = "p160-reproduction";

    fn prime() -> BigUint {
        BigUint::from_hex("ffffffffffffffffffffffffffffffff7fffffff").expect("valid hex constant")
    }

    fn a() -> BigUint {
        &Self::prime() - &BigUint::from(3u64)
    }

    fn b() -> BigUint {
        BigUint::from(7u64)
    }

    fn generator() -> (BigUint, BigUint) {
        // The first point found by the original constructor's scan over
        // x = 1, 2, ...: x = 2 is the smallest x whose `x³ - 3x + 7` is a
        // quadratic residue, and the even root happens to be `p - 3`.
        // (A unit test pins this against a fresh scan.)
        (
            BigUint::from(2u64),
            BigUint::from_hex("ffffffffffffffffffffffffffffffff7ffffffc")
                .expect("valid hex constant"),
        )
    }

    fn order() -> Option<BigUint> {
        None
    }
}

/// The tiny validation curve: `y² = x³ + x + 6` over `p = 1009`, with its
/// group order (1020) certified by exhaustive point counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Toy;

impl WeierstrassParameters for Toy {
    const NAME: &'static str = "toy-1009";

    fn prime() -> BigUint {
        BigUint::from(1009u64)
    }

    fn a() -> BigUint {
        BigUint::one()
    }

    fn b() -> BigUint {
        BigUint::from(6u64)
    }

    fn generator() -> (BigUint, BigUint) {
        // First point of the original constructor's scan (x = 1, even y).
        (BigUint::from(1u64), BigUint::from(878u64))
    }

    fn order() -> Option<BigUint> {
        // Exhaustive count over F_1009; pinned against a fresh count by a
        // unit test in `curve.rs`.
        Some(BigUint::from(1020u64))
    }
}

impl Curve {
    /// Builds the [`Curve`] described by the marker type `E`.
    ///
    /// This is the single construction path for named curves: the
    /// constants come from the trait and the validation from
    /// [`Curve::from_spec`].
    ///
    /// ```
    /// use ecc::prelude::*;
    ///
    /// let p256 = Curve::from_parameters::<P256>()?;
    /// assert!(p256.a_is_minus_three());
    /// let secp = Curve::from_parameters::<Secp256k1>()?;
    /// assert!(!secp.a_is_minus_three());
    /// # Ok::<(), EccError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] if the marker's constants
    /// fail validation (see [`Curve::from_spec`]).
    pub fn from_parameters<E: WeierstrassParameters>() -> Result<Curve, EccError> {
        Curve::from_spec(E::spec())
    }

    /// Looks a registered curve up by name (the registry behind the
    /// marker types), accepting the common aliases for each curve
    /// (`"secp256r1"`/`"prime256v1"` for P-256, `"toy"` for the toy
    /// curve); matching is case-insensitive.
    ///
    /// ```
    /// use ecc::prelude::*;
    ///
    /// let curve = Curve::by_name("secp256k1")?;
    /// assert_eq!(curve.name(), "secp256k1");
    /// assert!(matches!(
    ///     Curve::by_name("curve25519"),
    ///     Err(EccError::UnknownCurve(_))
    /// ));
    /// # Ok::<(), EccError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`EccError::UnknownCurve`] for a name that is not
    /// registered, and propagates [`Curve::from_parameters`] errors
    /// (impossible for the built-in markers).
    pub fn by_name(name: &str) -> Result<Curve, EccError> {
        match name.to_ascii_lowercase().as_str() {
            "secp256k1" => Curve::from_parameters::<Secp256k1>(),
            "p256" | "p-256" | "secp256r1" | "prime256v1" => Curve::from_parameters::<P256>(),
            "p160-reproduction" | "p160" => Curve::from_parameters::<P160Reproduction>(),
            "toy-1009" | "toy" => Curve::from_parameters::<Toy>(),
            _ => Err(EccError::UnknownCurve(name.to_string())),
        }
    }

    /// Canonical names of every registered curve, in registry order —
    /// the valid inputs to [`Curve::by_name`] (aliases excluded). Tests
    /// iterate this list to run trait-level invariants over the whole
    /// catalogue.
    pub fn registered_names() -> &'static [&'static str] {
        &["secp256k1", "p256", "p160-reproduction", "toy-1009"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn registry_resolves_every_canonical_name_and_alias() {
        for name in Curve::registered_names() {
            let curve = Curve::by_name(name).expect("registered curve builds");
            assert_eq!(curve.name(), *name);
        }
        for (alias, canonical) in [
            ("SECP256K1", "secp256k1"),
            ("P-256", "p256"),
            ("secp256r1", "p256"),
            ("prime256v1", "p256"),
            ("p160", "p160-reproduction"),
            ("toy", "toy-1009"),
        ] {
            assert_eq!(Curve::by_name(alias).expect("alias").name(), canonical);
        }
        match Curve::by_name("brainpoolP256r1") {
            Err(EccError::UnknownCurve(n)) => assert_eq!(n, "brainpoolP256r1"),
            other => panic!("expected UnknownCurve, got {other:?}"),
        }
    }

    #[test]
    fn named_primes_are_prime() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for p in [Secp256k1::prime(), P256::prime(), Toy::prime()] {
            assert!(
                bignum::is_prime(&p, &mut rng),
                "{} must be prime",
                p.to_hex()
            );
        }
    }

    #[test]
    fn cofactors_are_one() {
        for name in Curve::registered_names() {
            let curve = Curve::by_name(name).unwrap();
            assert!(curve.cofactor().is_one(), "{name}");
        }
    }
}
