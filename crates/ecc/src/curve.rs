//! Short-Weierstrass curves `y² = x³ + ax + b` over `Fp` and their group law.

use bignum::BigUint;
use field::{FpContext, FpElement};
use rand::Rng;

use crate::error::EccError;
use crate::ladder::Ladder;
use crate::params::{P160Reproduction, Toy};
use crate::point::{AffinePoint, JacobianPoint};
use crate::scalar::lift_point;

/// A short-Weierstrass curve over a prime field, together with a base point.
///
/// See the crate-level docs for a key-exchange example. Curves come from
/// three places, all funnelling through the same validation:
///
/// * [`Curve::from_parameters::<E>()`](Curve::from_parameters) — a
///   registered marker type ([`crate::WeierstrassParameters`]): the
///   standards curves [`crate::Secp256k1`] and [`crate::P256`], the
///   paper's [`crate::P160Reproduction`] and the tiny [`crate::Toy`]
///   validation curve (or [`Curve::by_name`] for the string-keyed lookup);
/// * [`CurveSpec`] — explicit parameters with named fields, for curves
///   outside the registry;
/// * [`Curve::p160_reproduction`] / [`Curve::toy`] — shorthands for the
///   two reproduction markers.
#[derive(Clone)]
pub struct Curve {
    fp: FpContext,
    a: FpElement,
    b: FpElement,
    base: AffinePoint,
    order: Option<BigUint>,
    cofactor: BigUint,
    bits: usize,
    name: &'static str,
    // Whether a ≡ -3 (mod p), precomputed so the per-doubling dispatch
    // to the shortened formulas costs a bool instead of a conversion.
    a_minus_three: bool,
}

/// Explicit curve parameters with named fields — the builder behind every
/// [`Curve`] constructor.
///
/// [`CurveSpec::new`] takes the five parameters every curve needs (field
/// prime, coefficients, generator coordinates); the optional ones chain:
///
/// ```
/// use bignum::BigUint;
/// use ecc::{Curve, CurveSpec};
///
/// let curve = CurveSpec::new(
///     BigUint::from(1009u64), // p
///     BigUint::from(1u64),    // a
///     BigUint::from(6u64),    // b
///     BigUint::from(1u64),    // generator x
///     BigUint::from(878u64),  // generator y
/// )
/// .order(BigUint::from(1020u64))
/// .name("toy-1009")
/// .build()?;
/// assert_eq!(curve.name(), "toy-1009");
/// # Ok::<(), ecc::EccError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CurveSpec {
    /// The field prime `p`.
    pub p: BigUint,
    /// The coefficient `a`.
    pub a: BigUint,
    /// The coefficient `b`.
    pub b: BigUint,
    /// Affine x-coordinate of the generator.
    pub generator_x: BigUint,
    /// Affine y-coordinate of the generator.
    pub generator_y: BigUint,
    /// The group order, when known (`None` for uncertified curves).
    pub order: Option<BigUint>,
    /// The cofactor `h` (defaults to 1).
    pub cofactor: BigUint,
    /// Canonical operand size in bits (defaults to the prime's bit
    /// length) — the size the platform cycle model quotes rows at.
    pub bits: Option<usize>,
    /// Curve name, carried into [`Curve::name`] (defaults to
    /// `"custom"`).
    pub name: &'static str,
}

impl CurveSpec {
    /// Starts a spec from the required parameters: field prime,
    /// coefficients and generator coordinates.
    pub fn new(
        p: BigUint,
        a: BigUint,
        b: BigUint,
        generator_x: BigUint,
        generator_y: BigUint,
    ) -> Self {
        CurveSpec {
            p,
            a,
            b,
            generator_x,
            generator_y,
            order: None,
            cofactor: BigUint::one(),
            bits: None,
            name: "custom",
        }
    }

    /// Declares the group order.
    pub fn order(mut self, order: BigUint) -> Self {
        self.order = Some(order);
        self
    }

    /// Declares the group order from an `Option` (chaining convenience
    /// for trait-driven construction).
    pub fn maybe_order(mut self, order: Option<BigUint>) -> Self {
        self.order = order;
        self
    }

    /// Declares the cofactor.
    pub fn cofactor(mut self, cofactor: BigUint) -> Self {
        self.cofactor = cofactor;
        self
    }

    /// Declares the canonical operand size in bits.
    pub fn bits(mut self, bits: usize) -> Self {
        self.bits = Some(bits);
        self
    }

    /// Names the curve.
    pub fn name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Validates the spec and builds the [`Curve`] — shorthand for
    /// [`Curve::from_spec`].
    ///
    /// # Errors
    ///
    /// See [`Curve::from_spec`].
    pub fn build(self) -> Result<Curve, EccError> {
        Curve::from_spec(self)
    }
}

/// Computes the [`Curve::a_is_minus_three`] invariant once, at
/// construction time.
fn a_is_minus_three(fp: &FpContext, a: &FpElement) -> bool {
    let p = fp.modulus();
    *p > BigUint::from(3u64) && fp.to_biguint(a) == p - &BigUint::from(3u64)
}

impl std::fmt::Debug for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Curve({}, {} bits)", self.name, self.fp.bit_len())
    }
}

impl Curve {
    /// Validates a [`CurveSpec`] and builds the curve.
    ///
    /// This is the single construction path: the trait-driven
    /// [`Curve::from_parameters`] and [`CurveSpec::build`] both funnel
    /// through it, so every curve gets the same checks — `p` must make a
    /// usable field, the discriminant `4a³ + 27b²` must be non-zero, and
    /// the generator must satisfy the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidParameters`] naming the offending spec
    /// field (`"p"`, `"a/b"` or `"generator"`).
    pub fn from_spec(spec: CurveSpec) -> Result<Self, EccError> {
        let CurveSpec {
            p,
            a,
            b,
            generator_x,
            generator_y,
            order,
            cofactor,
            bits,
            name,
        } = spec;
        let fp = FpContext::new(&p).map_err(|_| EccError::InvalidParameters {
            field: "p",
            reason: "not a usable field modulus",
        })?;
        let a = fp.from_biguint(&a);
        let b = fp.from_biguint(&b);
        // Discriminant 4a³ + 27b² must be non-zero.
        let disc = fp.add(
            &fp.mul(&fp.from_u64(4), &fp.mul(&a, &fp.square(&a))),
            &fp.mul(&fp.from_u64(27), &fp.square(&b)),
        );
        if disc.is_zero() {
            return Err(EccError::InvalidParameters {
                field: "a/b",
                reason: "discriminant 4a³ + 27b² vanishes (singular curve)",
            });
        }
        let a_minus_three = a_is_minus_three(&fp, &a);
        let bits = bits.unwrap_or_else(|| fp.bit_len());
        let curve = Curve {
            fp: fp.clone(),
            a,
            b,
            base: AffinePoint::Infinity,
            order,
            cofactor,
            bits,
            name,
            a_minus_three,
        };
        let base = curve
            .lift(
                &fp.from_biguint(&generator_x),
                &fp.from_biguint(&generator_y),
            )
            .map_err(|_| EccError::InvalidParameters {
                field: "generator",
                reason: "not on the curve",
            })?;
        Ok(Curve { base, ..curve })
    }

    /// The 160-bit curve used to reproduce the paper's "160-bit ECC" rows —
    /// shorthand for
    /// [`Curve::from_parameters::<P160Reproduction>()`](crate::P160Reproduction):
    /// `p = 2^160 - 2^31 - 1`, `a = -3`, and a small `b` chosen so the curve
    /// is non-singular.
    ///
    /// The group order of this locally generated curve is *not* certified
    /// (point counting is out of scope); the reproduction only needs field
    /// and curve arithmetic at the 160-bit operand size (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`Curve::from_spec`].
    pub fn p160_reproduction() -> Result<Self, EccError> {
        Curve::from_parameters::<P160Reproduction>()
    }

    /// A tiny curve over `p = 1009` whose group order was computed by
    /// exhaustive point counting — shorthand for
    /// [`Curve::from_parameters::<Toy>()`](crate::Toy); used to validate
    /// the group law and scalar multiplication against first principles.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants.
    pub fn toy() -> Result<Self, EccError> {
        Curve::from_parameters::<Toy>()
    }

    /// The base prime-field context.
    pub fn fp(&self) -> &FpContext {
        &self.fp
    }

    /// The coefficient `a`.
    pub fn a(&self) -> &FpElement {
        &self.a
    }

    /// Returns `true` when the curve coefficient satisfies `a = -3`
    /// (i.e. `a ≡ p - 3 mod p`), the precondition of the shortened
    /// doubling formulas ([`crate::formulas::dbl_2001_b`]). Holds for
    /// [`Curve::p160_reproduction`], as for most standardized curves.
    pub fn a_is_minus_three(&self) -> bool {
        self.a_minus_three
    }

    /// The coefficient `b`.
    pub fn b(&self) -> &FpElement {
        &self.b
    }

    /// The ladder layer on the counted field, behind the `jacobian_*`
    /// entry points.
    pub(crate) fn ladder(&self) -> Ladder<'_, FpContext> {
        Ladder::new(&self.fp, &self.a, self.a_minus_three)
    }

    /// A twin of this curve with every fixed-width fast path disabled:
    /// the field context is [`field::FpContext::heap_only`], whose jobs run
    /// on the heap `BigUint` FIOS reference and record on the original
    /// operation counter, so each ladder is one tallied job on the heap.
    ///
    /// This is the honest baseline for differential comparisons: with
    /// [`field::FpContext::run`] putting every ladder on the stack context
    /// of the field's width, a reference ladder must run on a heap-only
    /// twin or it would check the stack context against itself.
    /// [`Curve::scalar_mul_reference`] uses it internally.
    pub fn heap_only(&self) -> Curve {
        Curve {
            fp: self.fp.heap_only(),
            ..self.clone()
        }
    }

    /// The curve name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The base point.
    pub fn base_point(&self) -> &AffinePoint {
        &self.base
    }

    /// The group order, when known (the published `n` for the standards
    /// curves, the exhaustively counted order for [`Curve::toy`]; `None`
    /// for curves whose order was never declared).
    pub fn order(&self) -> Option<&BigUint> {
        self.order.as_ref()
    }

    /// The cofactor `h` (`#E(Fp) = h · n`); 1 for every registered curve.
    pub fn cofactor(&self) -> &BigUint {
        &self.cofactor
    }

    /// Canonical operand size in bits — the bit-length the platform cycle
    /// model quotes this curve's rows at (the prime's bit length unless
    /// the spec declared otherwise).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The right-hand side of the curve equation, `x³ + a·x + b`.
    fn rhs(&self, x: &FpElement) -> FpElement {
        let fp = &self.fp;
        fp.add(
            &fp.add(&fp.mul(x, &fp.square(x)), &fp.mul(&self.a, x)),
            &self.b,
        )
    }

    /// Checks the curve equation for a point.
    pub fn is_on_curve(&self, point: &AffinePoint) -> bool {
        match point {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => self.fp.square(y) == self.rhs(x),
        }
    }

    /// Validates coordinates and returns the corresponding point.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::PointNotOnCurve`] if the equation is not satisfied.
    pub fn lift(&self, x: &FpElement, y: &FpElement) -> Result<AffinePoint, EccError> {
        let p = AffinePoint::new(x.clone(), y.clone());
        if self.is_on_curve(&p) {
            Ok(p)
        } else {
            Err(EccError::PointNotOnCurve)
        }
    }

    /// Negates a point.
    pub fn negate(&self, point: &AffinePoint) -> AffinePoint {
        match point {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => AffinePoint::Point {
                x: x.clone(),
                y: self.fp.neg(y),
            },
        }
    }

    /// Affine point addition (one inversion per addition).
    pub fn add(&self, p: &AffinePoint, q: &AffinePoint) -> AffinePoint {
        let fp = &self.fp;
        match (p, q) {
            (AffinePoint::Infinity, _) => q.clone(),
            (_, AffinePoint::Infinity) => p.clone(),
            (AffinePoint::Point { x: x1, y: y1 }, AffinePoint::Point { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 && !y1.is_zero() {
                        return self.double(p);
                    }
                    return AffinePoint::Infinity;
                }
                let lambda = fp.mul(&fp.sub(y2, y1), &fp.inv(&fp.sub(x2, x1)).expect("x2 != x1"));
                let x3 = fp.sub(&fp.sub(&fp.square(&lambda), x1), x2);
                let y3 = fp.sub(&fp.mul(&lambda, &fp.sub(x1, &x3)), y1);
                AffinePoint::Point { x: x3, y: y3 }
            }
        }
    }

    /// Affine point doubling.
    pub fn double(&self, p: &AffinePoint) -> AffinePoint {
        let fp = &self.fp;
        match p {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => {
                if y.is_zero() {
                    return AffinePoint::Infinity;
                }
                let numer = fp.add(&fp.mul(&fp.from_u64(3), &fp.square(x)), &self.a);
                let lambda = fp.mul(&numer, &fp.inv(&fp.double(y)).expect("y != 0"));
                let x3 = fp.sub(&fp.sub(&fp.square(&lambda), x), x);
                let y3 = fp.sub(&fp.mul(&lambda, &fp.sub(x, &x3)), y);
                AffinePoint::Point { x: x3, y: y3 }
            }
        }
    }

    /// Converts an affine point to Jacobian coordinates.
    pub fn to_jacobian(&self, p: &AffinePoint) -> JacobianPoint {
        self.ladder().to_jacobian(p.coordinates())
    }

    /// Converts a Jacobian point back to affine coordinates (one inversion).
    pub fn to_affine(&self, p: &JacobianPoint) -> AffinePoint {
        lift_point(&self.fp, self.ladder().to_affine(p))
    }

    /// Jacobian point doubling (the paper's PD sequence; inversion-free).
    ///
    /// Runs [`crate::formulas::dbl_2001_b`] on curves with `a = -3` (two
    /// fewer field multiplications) and [`crate::formulas::pd_general`]
    /// otherwise — the same choice the platform's `OpKind::best_for`
    /// makes. The point at infinity and points with `Y1 = 0` double to
    /// infinity ([`Ladder::double`]).
    pub fn jacobian_double(&self, p: &JacobianPoint) -> JacobianPoint {
        self.ladder().double(p)
    }

    /// Jacobian point addition (the paper's PA sequence; inversion-free):
    /// [`crate::formulas::pa_general`] plus the degenerate cases — either
    /// operand at infinity, and `p = ±q` ([`Ladder::add`]).
    pub fn jacobian_add(&self, p: &JacobianPoint, q: &JacobianPoint) -> JacobianPoint {
        self.ladder().add(p, q)
    }

    /// Mixed-coordinate point addition: Jacobian `p` plus **affine** `q`
    /// (the `Z2 = 1` special case of [`Curve::jacobian_add`]).
    ///
    /// This is the addition the scalar-multiplication ladder performs on
    /// every set bit — the addend is the one-time-normalized base point —
    /// and the [`crate::formulas::madd`] body the platform's
    /// 13-multiplication `madd` program records (11 products here, plus the
    /// platform's two Montgomery lifts of its plain-form addend).
    /// Functionally it agrees with `jacobian_add(p, to_jacobian(q))` on all
    /// inputs, including the degenerate ones (either operand at infinity,
    /// `q = ±p`; [`Ladder::add_mixed`]).
    pub fn jacobian_add_mixed(&self, p: &JacobianPoint, q: &AffinePoint) -> JacobianPoint {
        self.ladder().add_mixed(p, q.coordinates())
    }

    /// Compresses a finite point to `(x, parity-of-y)`.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::PointAtInfinity`] for the identity.
    pub fn compress_point(&self, p: &AffinePoint) -> Result<(BigUint, bool), EccError> {
        match p {
            AffinePoint::Infinity => Err(EccError::PointAtInfinity),
            AffinePoint::Point { x, y } => {
                Ok((self.fp.to_biguint(x), self.fp.to_biguint(y).bit(0)))
            }
        }
    }

    /// Decompresses `(x, parity)` back to a point.
    ///
    /// # Errors
    ///
    /// Returns [`EccError::InvalidCompressedPoint`] if `x` is not a
    /// canonical field element (`x ≥ p`, which would otherwise alias
    /// `x mod p`) or `x³ + ax + b` is not a square.
    pub fn decompress_point(&self, x: &BigUint, y_is_odd: bool) -> Result<AffinePoint, EccError> {
        if x >= self.fp.modulus() {
            return Err(EccError::InvalidCompressedPoint);
        }
        self.lift_x(&self.fp.from_biguint(x), y_is_odd)
            .ok_or(EccError::InvalidCompressedPoint)
    }

    /// A uniformly random point obtained by sampling x-coordinates until the
    /// curve equation has a solution.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> AffinePoint {
        loop {
            let x = self.fp.random(rng);
            if let Some(p) = self.lift_x(&x, rng.gen()) {
                return p;
            }
        }
    }

    /// Lifts an x-coordinate to a point if possible, choosing the root by
    /// `odd_y`.
    pub fn lift_x(&self, x: &FpElement, odd_y: bool) -> Option<AffinePoint> {
        let fp = &self.fp;
        let rhs = self.rhs(x);
        if rhs.is_zero() {
            return Some(AffinePoint::Point {
                x: x.clone(),
                y: fp.zero(),
            });
        }
        let y = fp.sqrt(&rhs)?;
        let y = if fp.to_biguint(&y).bit(0) == odd_y {
            y
        } else {
            fp.neg(&y)
        };
        Some(AffinePoint::Point { x: x.clone(), y })
    }

    /// Finds the first point with `x >= start` by scanning x-coordinates
    /// (test-side pin for the hardcoded generators in `params.rs`).
    #[cfg(test)]
    fn find_point_from(&self, start: u64) -> Option<AffinePoint> {
        for xi in start..start + 1000 {
            let x = self.fp.from_u64(xi);
            if let Some(p) = self.lift_x(&x, false) {
                return Some(p);
            }
        }
        None
    }

    /// Exhaustively counts the points on the curve (tiny fields only;
    /// test-side pin for the hardcoded toy order in `params.rs`).
    #[cfg(test)]
    fn count_points_exhaustively(&self) -> BigUint {
        let p = self.fp.modulus().to_u64().expect("toy field fits in u64");
        let mut count = 1u64; // point at infinity
        for xi in 0..p {
            let rhs = self.rhs(&self.fp.from_u64(xi));
            if rhs.is_zero() {
                count += 1;
            } else if self.fp.is_square(&rhs) {
                count += 2;
            }
        }
        BigUint::from(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulas;
    use crate::params::WeierstrassParameters;
    use rand::SeedableRng;

    #[test]
    fn p160_prime_and_curve_are_sane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = P160Reproduction::prime();
        assert_eq!(p.bit_len(), 160);
        assert!(
            bignum::is_prime(&p, &mut rng),
            "2^160 - 2^31 - 1 must be prime"
        );
        let curve = Curve::p160_reproduction().unwrap();
        assert!(curve.is_on_curve(curve.base_point()));
        assert!(!curve.base_point().is_infinity());
    }

    #[test]
    fn unusable_moduli_are_rejected_naming_p() {
        // Even p cannot back a Montgomery field context.
        let err = CurveSpec::new(
            BigUint::from(4u64),
            BigUint::one(),
            BigUint::from(6u64),
            BigUint::one(),
            BigUint::one(),
        )
        .build()
        .unwrap_err();
        assert!(matches!(
            err,
            EccError::InvalidParameters { field: "p", .. }
        ));
    }

    #[test]
    fn singular_curves_are_rejected() {
        // y² = x³ (a = b = 0) is singular.
        let err = CurveSpec::new(
            BigUint::from(1009u64),
            BigUint::zero(),
            BigUint::zero(),
            BigUint::one(),
            BigUint::one(),
        )
        .name("singular")
        .build()
        .unwrap_err();
        assert!(matches!(
            err,
            EccError::InvalidParameters { field: "a/b", .. }
        ));
    }

    #[test]
    fn base_point_must_be_on_curve() {
        let err = CurveSpec::new(
            BigUint::from(1009u64),
            BigUint::one(),
            BigUint::from(6u64),
            BigUint::from(123u64),
            BigUint::from(456u64),
        )
        .name("bad-base")
        .build();
        assert!(matches!(
            err,
            Err(EccError::InvalidParameters {
                field: "generator",
                ..
            })
        ));
    }

    #[test]
    fn hardcoded_generators_match_a_fresh_scan() {
        // params.rs pins the generators the original constructors found by
        // scanning x = 1, 2, ... — re-run the scan and compare.
        for curve in [Curve::toy().unwrap(), Curve::p160_reproduction().unwrap()] {
            let scanned = curve.find_point_from(1).expect("scan finds a point");
            assert_eq!(
                &scanned,
                curve.base_point(),
                "{}: hardcoded generator drifted from the scan",
                curve.name()
            );
        }
    }

    #[test]
    fn hardcoded_toy_order_matches_a_fresh_count() {
        let curve = Curve::toy().unwrap();
        assert_eq!(
            curve.count_points_exhaustively(),
            curve.order().unwrap().clone(),
            "hardcoded toy order drifted from the exhaustive count"
        );
    }

    #[test]
    fn toy_group_order_annihilates_points() {
        let curve = Curve::toy().unwrap();
        let order = curve.order().unwrap().clone();
        // Hasse bound: |N - (p+1)| <= 2*sqrt(p)  (sqrt(1009) ≈ 31.8)
        let n = order.to_u64().unwrap() as i64;
        assert!((n - 1010).abs() <= 64, "order {n} violates the Hasse bound");
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let p = curve.random_point(&mut rng);
            let result = curve.scalar_mul(&p, &order, crate::ScalarMulAlgorithm::DoubleAndAdd);
            assert!(result.is_infinity(), "N·P must be the identity");
        }
    }

    #[test]
    fn affine_group_laws() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let r = curve.random_point(&mut rng);
            // Commutativity and associativity.
            assert_eq!(curve.add(&p, &q), curve.add(&q, &p));
            assert_eq!(
                curve.add(&curve.add(&p, &q), &r),
                curve.add(&p, &curve.add(&q, &r))
            );
            // Identity and inverse.
            assert_eq!(curve.add(&p, &AffinePoint::Infinity), p);
            assert!(curve.add(&p, &curve.negate(&p)).is_infinity());
            // Closure.
            assert!(curve.is_on_curve(&curve.add(&p, &q)));
            assert!(curve.is_on_curve(&curve.double(&p)));
            // Doubling consistency.
            assert_eq!(curve.double(&p), curve.add(&p, &p));
        }
    }

    #[test]
    fn jacobian_matches_affine() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let q = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            let jq = curve.to_jacobian(&q);
            assert_eq!(
                curve.to_affine(&curve.jacobian_add(&jp, &jq)),
                curve.add(&p, &q)
            );
            assert_eq!(
                curve.to_affine(&curve.jacobian_double(&jp)),
                curve.double(&p)
            );
            // Adding a point to itself through the Jacobian path degrades to
            // doubling correctly.
            assert_eq!(
                curve.to_affine(&curve.jacobian_add(&jp, &jp)),
                curve.double(&p)
            );
        }
        // Infinity handling.
        let inf = curve.to_jacobian(&AffinePoint::Infinity);
        let p = curve.random_point(&mut rng);
        let jp = curve.to_jacobian(&p);
        assert_eq!(curve.to_affine(&curve.jacobian_add(&inf, &jp)), p);
        assert_eq!(curve.to_affine(&curve.jacobian_add(&jp, &inf)), p);
    }

    #[test]
    fn fast_doubling_matches_general_on_minus_three_curves() {
        let curve = Curve::p160_reproduction().unwrap();
        assert!(curve.a_is_minus_three());
        let fp = curve.fp();
        let affine = |[x, y, z]: [FpElement; 3]| curve.to_affine(&JacobianPoint { x, y, z });
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..5 {
            let p = curve.random_point(&mut rng);
            let jp = curve.to_jacobian(&p);
            // Both bodies, against first principles (affine doubling), on
            // a Z = 1 and a generic-Z input.
            for q in [jp.clone(), curve.jacobian_double(&jp)] {
                let coords = [&q.x, &q.y, &q.z];
                let fast = affine(formulas::dbl_2001_b(fp, coords));
                assert_eq!(fast, affine(formulas::pd_general(fp, coords, curve.a())));
                assert_eq!(fast, curve.double(&curve.to_affine(&q)));
            }
        }
        // Degenerate inputs collapse to infinity in the wrapper.
        let inf = curve.to_jacobian(&AffinePoint::Infinity);
        assert!(curve.jacobian_double(&inf).is_infinity());
        // The toy curve (a = 1) must not qualify.
        assert!(!Curve::toy().unwrap().a_is_minus_three());
    }

    #[test]
    fn point_compression_roundtrip() {
        for curve in [Curve::toy().unwrap(), Curve::p160_reproduction().unwrap()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            for _ in 0..5 {
                let p = curve.random_point(&mut rng);
                let (x, odd) = curve.compress_point(&p).unwrap();
                assert_eq!(curve.decompress_point(&x, odd).unwrap(), p);
            }
            assert!(matches!(
                curve.compress_point(&AffinePoint::Infinity),
                Err(EccError::PointAtInfinity)
            ));
        }
        // Below p, decompression is `lift_x`, in value and in op count: on
        // every x of the toy field (order 1020, so some points have
        // y = 0) and for both parities.
        let toy = Curve::toy().unwrap();
        let fp = toy.fp();
        let mut y_zero = 0;
        for xi in 0..fp.modulus().to_u64().unwrap() {
            for odd in [false, true] {
                fp.reset_op_count();
                let lifted = toy.lift_x(&fp.from_u64(xi), odd);
                let lift_ops = fp.op_count();
                fp.reset_op_count();
                let decompressed = toy.decompress_point(&BigUint::from(xi), odd);
                assert_eq!(fp.op_count(), lift_ops, "x = {xi}, odd = {odd}");
                if let Some(AffinePoint::Point { y, .. }) = &lifted {
                    y_zero += usize::from(y.is_zero());
                }
                assert_eq!(
                    decompressed,
                    lifted.ok_or(EccError::InvalidCompressedPoint),
                    "x = {xi}, odd = {odd}"
                );
            }
        }
        assert!(y_zero > 0, "the toy curve has points with y = 0");
    }

    #[test]
    fn decompress_rejects_non_canonical_x() {
        // x + k·p names the same field element as x; only the canonical
        // representative may decode.
        for curve in [
            Curve::p160_reproduction().unwrap(),
            Curve::by_name("secp256k1").unwrap(),
        ] {
            let (x, odd) = curve.compress_point(curve.base_point()).unwrap();
            assert_eq!(
                curve.decompress_point(&x, odd).unwrap(),
                *curve.base_point()
            );
            let p = curve.fp().modulus();
            for alias in [&x + p, &x + &(p * &BigUint::from(1000u64)), p.clone()] {
                assert_eq!(
                    curve.decompress_point(&alias, odd),
                    Err(EccError::InvalidCompressedPoint),
                    "{}: x = {alias:?}",
                    curve.name()
                );
            }
        }
    }

    #[test]
    fn lift_rejects_points_off_curve() {
        let curve = Curve::toy().unwrap();
        let bad = curve.lift(&curve.fp().from_u64(5), &curve.fp().from_u64(5));
        // Either (5,5) happens to be on the curve (unlikely) or it is rejected.
        if let Err(e) = bad {
            assert_eq!(e, EccError::PointNotOnCurve);
        }
    }
}
