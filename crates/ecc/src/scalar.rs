//! Scalar multiplication.
//!
//! The full 160-bit scalar multiplication is the operation behind Table 3's
//! "160-bit ECC: 9.4 ms" row. Two classic algorithms are provided so the
//! benchmark harness can ablate over them; both accumulate in Jacobian
//! coordinates and convert back to affine once at the end.
//!
//! The ladders themselves are written once in [`crate::ladder`]; this
//! module wraps each call in a [`FieldJob`] and hands it to
//! [`field::FpContext::run`], which runs it as one
//! [`bignum::MontgomeryParams::run`]: the whole ladder runs on the stack
//! context of the field's width, and its operation counts reach the
//! field's counter in one update when it returns. A [`Curve::heap_only`]
//! twin runs the same job, as one tallied job, on the heap FIOS reference.
//!
//! Every ladder keeps its **addend affine** and adds through the
//! mixed-coordinate formula ([`crate::formulas::madd`], `Z2 = 1`): the
//! double-and-add and NAF ladders add the (already affine) point or its
//! negation. This is the access pattern the platform's 13-multiplication
//! `pa_mixed` sequence prices. Doublings on `a = -3` curves (the
//! reproduction curve included) run the shortened
//! [`crate::formulas::dbl_2001_b`] body — the one the platform's
//! 8-multiplication `dbl-2001-b` program records.

use bignum::BigUint;
use field::{FieldJob, ValueOps};

use crate::curve::Curve;
use crate::ladder::{Affine, Ladder};
use crate::point::AffinePoint;

/// Scalar-multiplication algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarMulAlgorithm {
    /// Left-to-right double-and-add (one PA per set bit).
    DoubleAndAdd,
    /// Signed-digit non-adjacent form (PA on roughly one third of the digits).
    Naf,
}

/// The backend form of an affine point (`None` is infinity).
pub(crate) fn lower_point<F: ValueOps>(f: &F, p: &AffinePoint) -> Affine<F::Elem> {
    p.coordinates().map(|(x, y)| (f.lower(x), f.lower(y)))
}

/// The typed form of a ladder result.
pub(crate) fn lift_point<F: ValueOps>(f: &F, p: Affine<F::Elem>) -> AffinePoint {
    p.map_or(AffinePoint::Infinity, |(x, y)| AffinePoint::Point {
        x: f.lift(x),
        y: f.lift(y),
    })
}

/// [`Curve::scalar_mul`]'s ladder, on the backend [`field::FpContext::run`]
/// picks.
struct ScalarMul<'a> {
    curve: &'a Curve,
    point: &'a AffinePoint,
    k: &'a BigUint,
    algorithm: ScalarMulAlgorithm,
}

impl FieldJob for ScalarMul<'_> {
    type Output = AffinePoint;

    fn run<F: ValueOps>(self, f: &F) -> AffinePoint {
        let Some((x, y)) = lower_point(f, self.point) else {
            return AffinePoint::Infinity;
        };
        let k = self.k;
        if k.is_zero() {
            return AffinePoint::Infinity;
        }
        let a = f.lower(self.curve.a());
        let ladder = Ladder::new(f, &a, self.curve.a_is_minus_three());
        let acc = match self.algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => ladder.double_and_add(&x, &y, k),
            ScalarMulAlgorithm::Naf => ladder.naf(&x, &y, k),
        };
        lift_point(f, ladder.to_affine(&acc))
    }
}

/// [`Curve::scalar_mul_batch`]'s ladders and their shared inversion, on
/// the backend [`field::FpContext::run`] picks.
struct ScalarMulBatch<'a> {
    curve: &'a Curve,
    requests: &'a [(AffinePoint, BigUint)],
}

impl FieldJob for ScalarMulBatch<'_> {
    type Output = Vec<AffinePoint>;

    fn run<F: ValueOps>(self, f: &F) -> Vec<AffinePoint> {
        let a = f.lower(self.curve.a());
        let ladder = Ladder::new(f, &a, self.curve.a_is_minus_three());
        let lowered: Vec<_> = self
            .requests
            .iter()
            .map(|(point, k)| (lower_point(f, point), k))
            .collect();
        ladder
            .batch(&lowered)
            .into_iter()
            .map(|p| lift_point(f, p))
            .collect()
    }
}

impl Curve {
    /// Computes `k · point` with the selected algorithm.
    ///
    /// The ladder runs as one job through [`field::FpContext::run`], on
    /// the stack context of the field's width, with its operation counts
    /// added to the field's counter once it returns. Results and counts
    /// are identical to the heap ladder's ([`Curve::scalar_mul_reference`]
    /// pins this)
    /// on every curve, because the backends share the Montgomery radix at
    /// every width and the affine coordinates of `k · point` are unique
    /// whatever ladder computed them.
    pub fn scalar_mul(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        self.fp().run(ScalarMul {
            curve: self,
            point,
            k,
            algorithm,
        })
    }

    /// Computes `k · point` on a [`Curve::heap_only`] twin: the same
    /// ladder, as one tallied job, with every operation on the heap
    /// (`BigUint`) FIOS reference — the differential baseline for tests and
    /// for hostbench's set-up checks. [`Curve::scalar_mul`] is the fast
    /// path; results and counts are identical.
    pub fn scalar_mul_reference(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        self.heap_only().scalar_mul(point, k, algorithm)
    }

    /// Computes `k_i · P_i` for a whole batch of requests, amortizing host
    /// wall-clock the way [`Curve::scalar_mul`] cannot: every request runs
    /// the NAF ladder, and the whole batch shares one final batched
    /// inversion ([`Ladder::batch`]), all in one
    /// [`field::FpContext::run`]. Every element is identical to a serial
    /// `scalar_mul` call on the same request.
    pub fn scalar_mul_batch(&self, requests: &[(AffinePoint, BigUint)]) -> Vec<AffinePoint> {
        self.fp().run(ScalarMulBatch {
            curve: self,
            requests,
        })
    }

    /// Computes `k · base_point` with the default algorithm (double-and-add,
    /// matching the sequence counted by the paper's cycle analysis).
    pub fn scalar_mul_base(&self, k: &BigUint) -> AffinePoint {
        self.scalar_mul(self.base_point(), k, ScalarMulAlgorithm::DoubleAndAdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn algorithms_agree_on_toy_curve() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let p = curve.random_point(&mut rng);
            let k = BigUint::random_bits(&mut rng, 40);
            let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf), reference);
            assert!(curve.is_on_curve(&reference));
        }
    }

    #[test]
    fn algorithms_agree_on_p160() {
        let curve = Curve::p160_reproduction().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let p = curve.random_point(&mut rng);
        let k = BigUint::random_bits(&mut rng, 160);
        let reference = curve.scalar_mul(&p, &k, ScalarMulAlgorithm::DoubleAndAdd);
        assert_eq!(curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Naf), reference);
        assert!(curve.is_on_curve(&reference));
    }

    #[test]
    fn small_multiples_match_repeated_addition() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let p = curve.random_point(&mut rng);
        let mut acc = AffinePoint::Infinity;
        for k in 0u64..20 {
            let expected = acc.clone();
            let got = curve.scalar_mul(&p, &BigUint::from(k), ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(got, expected, "k = {k}");
            acc = curve.add(&acc, &p);
        }
    }

    #[test]
    fn small_order_point_matches_repeated_addition_in_every_ladder() {
        // The toy group has order 1020 = 2²·3·5·17, so (1020 / 3)·Q is a
        // point of order 3 whenever it is finite. Its multiples reach
        // infinity mid-ladder.
        let curve = Curve::toy().unwrap();
        let third = BigUint::from(curve.order().unwrap().to_u64().unwrap() / 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let p = loop {
            let q = curve.random_point(&mut rng);
            let p = curve.scalar_mul(&q, &third, ScalarMulAlgorithm::DoubleAndAdd);
            if !p.is_infinity() {
                break p;
            }
        };
        assert!(curve.add(&curve.double(&p), &p).is_infinity(), "order 3");
        let requests: Vec<_> = (0u64..=20).map(|k| (p.clone(), BigUint::from(k))).collect();
        let batch = curve.scalar_mul_batch(&requests);
        let mut expected = AffinePoint::Infinity;
        for ((_, k), batched) in requests.iter().zip(&batch) {
            for alg in [ScalarMulAlgorithm::DoubleAndAdd, ScalarMulAlgorithm::Naf] {
                assert_eq!(curve.scalar_mul(&p, k, alg), expected, "{alg:?}, k = {k:?}");
            }
            assert_eq!(*batched, expected, "batch, k = {k:?}");
            expected = curve.add(&expected, &p);
        }
    }

    #[test]
    fn scalar_mul_distributes_over_addition_of_scalars() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let p = curve.random_point(&mut rng);
        let a = BigUint::from(123u64);
        let b = BigUint::from(456u64);
        let lhs = curve.scalar_mul(&p, &(&a + &b), ScalarMulAlgorithm::DoubleAndAdd);
        let rhs = curve.add(
            &curve.scalar_mul(&p, &a, ScalarMulAlgorithm::DoubleAndAdd),
            &curve.scalar_mul(&p, &b, ScalarMulAlgorithm::DoubleAndAdd),
        );
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn reference_ladder_runs_heap_only_and_matches_the_fast_path() {
        let curve = Curve::by_name("secp256k1").unwrap();
        let heap = curve.heap_only();
        assert!(
            std::sync::Arc::ptr_eq(curve.fp().counter(), heap.fp().counter()),
            "the twin records on the same counter"
        );
        let fp = curve.fp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for _ in 0..3 {
            let k = BigUint::random_bits(&mut rng, 256);
            let before = fp.op_count();
            let fast = curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            let mid = fp.op_count();
            let reference = curve.scalar_mul_reference(
                curve.base_point(),
                &k,
                ScalarMulAlgorithm::DoubleAndAdd,
            );
            assert_eq!(fast, reference);
            assert_eq!(mid.since(&before), fp.op_count().since(&mid), "op counts");
            assert!(mid.since(&before).mul > 0, "the fast path is counted");
            assert!(curve.is_on_curve(&reference));
        }
    }

    #[test]
    fn fixed_ladders_and_batch_match_heap_reference_on_secp256k1() {
        let curve = Curve::by_name("secp256k1").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let base = curve.base_point().clone();
        let other = curve.random_point(&mut rng);
        let order = curve.order().expect("secp256k1 has a known order").clone();
        let scalars = [
            BigUint::one(),
            &order - &BigUint::one(),
            BigUint::random_bits(&mut rng, 256),
        ];
        // Every ladder (D&A, NAF), at the base point and elsewhere,
        // must be bit-identical to the heap reference ladder.
        for point in [&base, &other] {
            for k in &scalars {
                let reference =
                    curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd);
                for alg in [ScalarMulAlgorithm::DoubleAndAdd, ScalarMulAlgorithm::Naf] {
                    assert_eq!(curve.scalar_mul(point, k, alg), reference, "{alg:?}");
                }
            }
        }
        // Batch entry point: mixed bases, edge scalars, an infinity request
        // and a zero scalar — each element identical to the serial path.
        let mut requests: Vec<(AffinePoint, BigUint)> = vec![
            (AffinePoint::Infinity, BigUint::from(5u64)),
            (base.clone(), BigUint::zero()),
        ];
        for k in &scalars {
            requests.push((base.clone(), k.clone()));
            requests.push((other.clone(), k.clone()));
        }
        let batch = curve.scalar_mul_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for ((point, k), got) in requests.iter().zip(&batch) {
            let serial = curve.scalar_mul(point, k, ScalarMulAlgorithm::DoubleAndAdd);
            assert_eq!(*got, serial);
        }
        assert!(curve.scalar_mul_batch(&[]).is_empty());
    }

    #[test]
    fn zero_scalar_and_infinity_input() {
        let curve = Curve::toy().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let p = curve.random_point(&mut rng);
        assert!(curve
            .scalar_mul(&p, &BigUint::zero(), ScalarMulAlgorithm::Naf)
            .is_infinity());
        assert!(curve
            .scalar_mul(
                &AffinePoint::Infinity,
                &BigUint::from(5u64),
                ScalarMulAlgorithm::Naf
            )
            .is_infinity());
        assert_eq!(curve.scalar_mul_base(&BigUint::one()), *curve.base_point());
    }
}
