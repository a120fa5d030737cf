//! Point representations: affine and Jacobian projective coordinates.

use field::{FpContext, FpElement};

/// A point on a short-Weierstrass curve in affine coordinates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AffinePoint {
    /// The point at infinity (group identity).
    Infinity,
    /// A finite point `(x, y)`.
    Point {
        /// Affine x-coordinate.
        x: FpElement,
        /// Affine y-coordinate.
        y: FpElement,
    },
}

impl AffinePoint {
    /// Constructs a finite point from its coordinates (no curve check; see
    /// [`Curve::lift`](crate::Curve::lift) for a validated constructor).
    pub fn new(x: FpElement, y: FpElement) -> Self {
        AffinePoint::Point { x, y }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, AffinePoint::Infinity)
    }

    /// The affine coordinates, or `None` for the point at infinity.
    pub fn coordinates(&self) -> Option<(&FpElement, &FpElement)> {
        match self {
            AffinePoint::Infinity => None,
            AffinePoint::Point { x, y } => Some((x, y)),
        }
    }
}

/// A point in Jacobian projective coordinates `(X : Y : Z)` representing the
/// affine point `(X/Z², Y/Z³)`; `Z = 0` encodes the point at infinity.
///
/// Jacobian coordinates avoid the per-operation modular inversion, which is
/// what the paper's coprocessor point-addition/doubling sequences assume.
/// The coordinates are [`FpElement`]s by default; the ladders in
/// [`crate::ladder`] also run on the residues of the field's stack
/// backend.
#[derive(Clone, Debug)]
pub struct JacobianPoint<E = FpElement> {
    /// Projective X coordinate.
    pub x: E,
    /// Projective Y coordinate.
    pub y: E,
    /// Projective Z coordinate (`0` for the point at infinity).
    pub z: E,
}

impl JacobianPoint {
    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Returns `true` when this point is in normalized (affine) form,
    /// `Z = 1` — the representation the mixed-coordinate addition
    /// (`Curve::jacobian_add_mixed` and the platform's `pa_mixed`
    /// sequence) requires of its second operand. The scalar ladder
    /// maintains this invariant for its addend by construction.
    pub fn is_normalized(&self, fp: &FpContext) -> bool {
        self.z == fp.one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bignum::BigUint;
    use field::FpContext;

    #[test]
    fn affine_accessors() {
        let fp = FpContext::new(&BigUint::from(97u64)).unwrap();
        let p = AffinePoint::new(fp.from_u64(3), fp.from_u64(6));
        assert!(!p.is_infinity());
        let (x, y) = p.coordinates().unwrap();
        assert_eq!(x, &fp.from_u64(3));
        assert_eq!(y, &fp.from_u64(6));
        assert!(AffinePoint::Infinity.is_infinity());
        assert!(AffinePoint::Infinity.coordinates().is_none());
    }

    #[test]
    fn jacobian_infinity_flag() {
        let fp = FpContext::new(&BigUint::from(97u64)).unwrap();
        let inf = JacobianPoint {
            x: fp.one(),
            y: fp.one(),
            z: fp.zero(),
        };
        assert!(inf.is_infinity());
        let finite = JacobianPoint {
            x: fp.one(),
            y: fp.one(),
            z: fp.one(),
        };
        assert!(!finite.is_infinity());
    }
}
