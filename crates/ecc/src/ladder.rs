//! The scalar-multiplication ladders, each written once over
//! [`field::ValueOps`].
//!
//! [`crate::formulas`] holds the branch-free point formulas. This module
//! holds everything a ladder adds around them, generic over the element
//! type:
//!
//! * the degenerate-case wrappers [`Ladder::double`] (the point at infinity
//!   and `Y1 = 0`), [`Ladder::add`] and [`Ladder::add_mixed`] (infinity, and
//!   `P = ±Q` decided from the `H` and `r` an addition returns);
//! * [`Ladder::to_affine`] and the one-inversion [`Ladder::batch_to_affine`];
//! * the double-and-add and NAF ladders, each one pass over a
//!   [`bignum::recoding`] stream, and the batch driver [`Ladder::batch`].
//!
//! [`crate::Curve::scalar_mul`] and [`crate::Curve::scalar_mul_batch`] run
//! their ladders as [`field::FieldJob`]s through [`field::FpContext::run`]:
//! the whole ladder runs on the stack context of the field's width and
//! adds one tally to the field's counter, and on a
//! [`field::FpContext::heap_only`] twin the same tallied job runs on the
//! heap FIOS reference. The single `Curve::jacobian_*` and
//! `Curve::to_affine` operations run on the field, one job per operation.
//! Every backend shares the Montgomery radix of the field's width, so every
//! intermediate is the same residue on each, and the counts are the same.
//!
//! Affine points are [`Affine`] pairs, with `None` the point at infinity.
//! One rule covers both an infinite request and an accumulator that
//! reaches infinity mid-ladder: adding an infinite addend returns the
//! accumulator, and the batch normalization leaves infinite points out of
//! its one inversion.
//!
//! ```
//! use bignum::BigUint;
//! use ecc::ladder::Ladder;
//! use ecc::prelude::*;
//!
//! // 6·G on the counted field, against the typed API: same point, same
//! // operation counts.
//! let curve = Curve::by_name("p256")?;
//! let fp = curve.fp();
//! let ladder = Ladder::new(fp, curve.a(), curve.a_is_minus_three());
//! let (gx, gy) = curve.base_point().coordinates().unwrap();
//! let k = BigUint::from(6u64);
//! let before = fp.op_count();
//! let acc = ladder.double_and_add(gx, gy, &k);
//! let (x, y) = ladder.to_affine(&acc).unwrap();
//! let mid = fp.op_count();
//! let expected = curve.scalar_mul_base(&k);
//! assert_eq!(AffinePoint::new(x, y), expected);
//! assert_eq!(mid.since(&before), fp.op_count().since(&mid));
//! # Ok::<(), EccError>(())
//! ```

use bignum::recoding::{self, Step};
use bignum::BigUint;
use field::ValueOps;

use crate::formulas::{self, Addition};
use crate::point::JacobianPoint;

/// An affine point `(x, y)` on a value backend; `None` is the point at
/// infinity.
pub type Affine<E> = Option<(E, E)>;

/// A curve's Jacobian arithmetic on one value backend: the field, the
/// coefficient `a` in the backend's Montgomery form, and whether `a = −3`,
/// which selects the shortened doubling.
pub struct Ladder<'a, F: ValueOps> {
    f: &'a F,
    a: &'a F::Elem,
    a_is_minus_three: bool,
}

impl<'a, F: ValueOps> Ladder<'a, F> {
    /// The ladder layer of the curve with coefficient `a` over `f`.
    /// `a_is_minus_three` must be true exactly when `a ≡ −3`.
    pub fn new(f: &'a F, a: &'a F::Elem, a_is_minus_three: bool) -> Self {
        Ladder {
            f,
            a,
            a_is_minus_three,
        }
    }

    /// The point at infinity, `(1 : 1 : 0)`.
    pub(crate) fn infinity(&self) -> JacobianPoint<F::Elem> {
        JacobianPoint {
            x: self.f.one(),
            y: self.f.one(),
            z: self.f.zero(),
        }
    }

    /// An affine point in Jacobian form (`Z = 1`); `None` is infinity.
    pub(crate) fn to_jacobian(&self, q: Option<(&F::Elem, &F::Elem)>) -> JacobianPoint<F::Elem> {
        match q {
            None => self.infinity(),
            Some((x, y)) => JacobianPoint {
                x: x.clone(),
                y: y.clone(),
                z: self.f.one(),
            },
        }
    }

    /// Jacobian doubling: [`formulas::dbl_2001_b`] when `a = −3`,
    /// [`formulas::pd_general`] otherwise. The point at infinity and points
    /// with `Y1 = 0` double to infinity.
    pub fn double(&self, p: &JacobianPoint<F::Elem>) -> JacobianPoint<F::Elem> {
        if self.f.is_zero(&p.z) || self.f.is_zero(&p.y) {
            return self.infinity();
        }
        let coords = [&p.x, &p.y, &p.z];
        let [x, y, z] = if self.a_is_minus_three {
            formulas::dbl_2001_b(self.f, coords)
        } else {
            formulas::pd_general(self.f, coords, self.a)
        };
        JacobianPoint { x, y, z }
    }

    /// Jacobian addition: [`formulas::pa_general`] plus the degenerate
    /// cases, either operand at infinity and `p = ±q`.
    pub fn add(
        &self,
        p: &JacobianPoint<F::Elem>,
        q: &JacobianPoint<F::Elem>,
    ) -> JacobianPoint<F::Elem> {
        if self.f.is_zero(&p.z) {
            return q.clone();
        }
        if self.f.is_zero(&q.z) {
            return p.clone();
        }
        let sum = formulas::pa_general(self.f, [&p.x, &p.y, &p.z], [&q.x, &q.y, &q.z]);
        self.finish_addition(p, sum)
    }

    /// Mixed addition of an affine addend (`Z2 = 1`): [`formulas::madd`]
    /// plus the same degenerate cases as [`Ladder::add`]. `None` is the
    /// point at infinity.
    pub fn add_mixed(
        &self,
        p: &JacobianPoint<F::Elem>,
        q: Option<(&F::Elem, &F::Elem)>,
    ) -> JacobianPoint<F::Elem> {
        let Some((x2, y2)) = q else {
            return p.clone();
        };
        if self.f.is_zero(&p.z) {
            return self.to_jacobian(q);
        }
        let sum = formulas::madd(self.f, [&p.x, &p.y, &p.z], [x2, y2]);
        self.finish_addition(p, sum)
    }

    /// Resolves an addition body's degenerate cases: `H = 0` means the
    /// operands share an x-coordinate, so the result is `2p` when `r = 0`
    /// too and infinity otherwise.
    fn finish_addition(
        &self,
        p: &JacobianPoint<F::Elem>,
        Addition {
            sum: [x, y, z],
            h,
            r,
        }: Addition<F::Elem>,
    ) -> JacobianPoint<F::Elem> {
        match (self.f.is_zero(&h), self.f.is_zero(&r)) {
            (false, _) => JacobianPoint { x, y, z },
            (true, true) => self.double(p),
            (true, false) => self.infinity(),
        }
    }

    /// `(X·Z⁻², Y·Z⁻³)` from `Z⁻¹`.
    fn scale(&self, p: &JacobianPoint<F::Elem>, z_inv: &F::Elem) -> (F::Elem, F::Elem) {
        let z_inv2 = self.f.mul(z_inv, z_inv);
        let z_inv3 = self.f.mul(&z_inv2, z_inv);
        (self.f.mul(&p.x, &z_inv2), self.f.mul(&p.y, &z_inv3))
    }

    /// Affine form with one inversion; `None` is the point at infinity.
    /// Allocation-free on the stack backend [`field::FpContext::run`]
    /// picks.
    pub fn to_affine(&self, p: &JacobianPoint<F::Elem>) -> Affine<F::Elem> {
        if self.f.is_zero(&p.z) {
            return None;
        }
        let mut z_inv = [p.z.clone()];
        self.f.invert_batch(&mut z_inv);
        Some(self.scale(p, &z_inv[0]))
    }

    /// Affine forms of a slice of points with **one** shared inversion
    /// (Montgomery's trick) over the finite ones; infinite points map to
    /// `None`.
    pub fn batch_to_affine(&self, points: &[JacobianPoint<F::Elem>]) -> Vec<Affine<F::Elem>> {
        let finite = |p: &&JacobianPoint<F::Elem>| !self.f.is_zero(&p.z);
        let mut z_invs: Vec<F::Elem> = points.iter().filter(finite).map(|p| p.z.clone()).collect();
        self.f.invert_batch(&mut z_invs);
        let mut z_invs = z_invs.iter();
        points
            .iter()
            .map(|p| {
                finite(&p).then(|| self.scale(p, z_invs.next().expect("one per finite point")))
            })
            .collect()
    }

    /// Left-to-right double-and-add ([`recoding::binary`]): one mixed
    /// addition of `(x, y)` per set bit of `k`. Allocation-free on a field
    /// of at most 256 bits.
    pub fn double_and_add(&self, x: &F::Elem, y: &F::Elem, k: &BigUint) -> JacobianPoint<F::Elem> {
        recoding::binary(k).fold(self.infinity(), |acc, step| match step {
            Step::Square => self.double(&acc),
            Step::Multiply { .. } => self.add_mixed(&acc, Some((x, y))),
        })
    }

    /// The signed-digit NAF ladder ([`recoding::naf`]): a mixed addition of
    /// `±(x, y)` on roughly one third of the digits.
    pub fn naf(&self, x: &F::Elem, y: &F::Elem, k: &BigUint) -> JacobianPoint<F::Elem> {
        let neg_y = self.f.neg(y);
        recoding::naf(k).fold(self.infinity(), |acc, step| match step {
            Step::Square => self.double(&acc),
            Step::Multiply { negate, .. } => {
                self.add_mixed(&acc, Some((x, if negate { &neg_y } else { y })))
            }
        })
    }

    /// `k · P` for a batch of `(P, k)` requests: each runs the NAF ladder,
    /// and the whole batch shares one [`Ladder::batch_to_affine`]. `None`
    /// is the point at infinity, in requests and results alike.
    pub fn batch(&self, requests: &[(Affine<F::Elem>, &BigUint)]) -> Vec<Affine<F::Elem>> {
        let accs: Vec<_> = requests
            .iter()
            .map(|(point, k)| match point {
                None => self.infinity(),
                Some((x, y)) => self.naf(x, y, k),
            })
            .collect();
        self.batch_to_affine(&accs)
    }
}
