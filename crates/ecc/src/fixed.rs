//! The fixed-width instantiation of [`crate::ladder`].
//!
//! The 256-bit curves ([`crate::Secp256k1`], [`crate::P256`]) run their
//! ladders uncounted on the [`MontgomeryContext`] their field returns from
//! [`field::FpContext::fixed256`]: [`bignum::fixed::Uint<4>`] stack words,
//! with zero heap allocation from the first doubling through the final
//! Fermat inversion. Narrower curves, the paper's 160-bit one included,
//! run the counted [`field::FpContext`] instantiation, which is on the
//! stack too.
//!
//! A field element's Montgomery residue is already these four words
//! ([`FpElement::mont_repr`]), so lowering and lifting are word copies, and
//! every intermediate is the *bit-identical* residue the
//! [`field::FpContext::heap_only`] instantiation produces; the
//! differential suites in `tests/` pin this.

use std::sync::OnceLock;

use bignum::fixed::{MontgomeryContext, Uint};
use field::FpElement;

use crate::curve::Curve;
use crate::ladder::CombTable;
use crate::scalar::Backend;

impl Backend for MontgomeryContext<4> {
    fn lower(&self, e: &FpElement) -> Uint<4> {
        e.mont_repr().expect("a 256-bit field stores words")
    }

    fn lift(&self, e: Uint<4>) -> FpElement {
        FpElement::from_mont_repr(e)
    }

    fn comb_cache(curve: &Curve) -> Option<&OnceLock<CombTable<Uint<4>>>> {
        Some(&curve.comb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Ladder;
    use crate::point::{AffinePoint, JacobianPoint};
    use rand::SeedableRng;

    #[test]
    fn degenerate_wrappers_match_the_heap_wrappers() {
        for name in ["p256", "secp256k1"] {
            let curve = Curve::by_name(name).unwrap();
            let ctx = curve.fp().fixed256().expect("256-bit curve");
            let a = ctx.lower(curve.a());
            let fixed = Ladder::new(ctx, &a, curve.a_is_minus_three());
            let lower = |p: &JacobianPoint| JacobianPoint {
                x: ctx.lower(&p.x),
                y: ctx.lower(&p.y),
                z: ctx.lower(&p.z),
            };
            let lift = |p: JacobianPoint<Uint<4>>| [p.x, p.y, p.z].map(|c| ctx.lift(c));
            let fp = curve.fp();
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let q = curve.random_point(&mut rng);
            let (qx, qy) = q.coordinates().unwrap();
            // q itself with a generic Z = λ: (λ²x, λ³y, λ).
            let l = fp.from_u64(7);
            let l2 = fp.square(&l);
            let p_eq_q = JacobianPoint {
                x: fp.mul(qx, &l2),
                y: fp.mul(qy, &fp.mul(&l2, &l)),
                z: l,
            };
            let neg_q = curve.negate(&q);
            let infinity = curve.to_jacobian(&AffinePoint::Infinity);
            let other = curve.to_jacobian(&curve.random_point(&mut rng));
            for (label, acc, addend) in [
                ("infinity + q", &infinity, &q),
                ("q + q", &p_eq_q, &q),
                ("q + (-q)", &p_eq_q, &neg_q),
                ("p + q", &other, &q),
            ] {
                let heap = curve.jacobian_add_mixed(acc, addend);
                let (x2, y2) = ctx.lower_point(addend).unwrap();
                let got = fixed.add_mixed(&lower(acc), Some((&x2, &y2)));
                assert_eq!(lift(got), [heap.x, heap.y, heap.z], "{name}: mixed {label}");
                let addend = curve.to_jacobian(addend);
                let heap = curve.jacobian_add(acc, &addend);
                let got = fixed.add(&lower(acc), &lower(&addend));
                assert_eq!(lift(got), [heap.x, heap.y, heap.z], "{name}: {label}");
            }
            assert!(curve.jacobian_add_mixed(&p_eq_q, &neg_q).is_infinity());
            for (label, p) in [("2·infinity", &infinity), ("2·q", &p_eq_q)] {
                let heap = curve.jacobian_double(p);
                let got = fixed.double(&lower(p));
                assert_eq!(lift(got), [heap.x, heap.y, heap.z], "{name}: {label}");
            }
        }
    }
}
