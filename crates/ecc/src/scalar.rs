//! Scalar multiplication.
//!
//! The full 160-bit scalar multiplication is the operation behind Table 3's
//! "160-bit ECC: 9.4 ms" row. Three classic algorithms are provided so the
//! benchmark harness can ablate over them; all accumulate in Jacobian
//! coordinates and convert back to affine once at the end.
//!
//! The ladders themselves are written once in [`crate::ladder`]; this
//! module picks the instantiation. A curve whose field has a four-word
//! context ([`field::FpContext::fixed256`], the 256-bit primes) runs them
//! uncounted on [`bignum::fixed::MontgomeryContext`] stack residues, and
//! every other curve on the field itself, which counts each operation and
//! runs it on the stack context of the field's width.
//!
//! Every ladder keeps its **addend affine** and adds through the
//! mixed-coordinate formula ([`crate::formulas::madd`], `Z2 = 1`): the
//! double-and-add and NAF ladders add the (already affine) point or its
//! negation, and the window and comb ladders normalize their tables with
//! one inversion before the main loop. This is the access pattern the
//! platform's 13-multiplication `pa_mixed` sequence prices. Doublings on
//! `a = -3` curves (the reproduction curve included) run the shortened
//! [`crate::formulas::dbl_2001_b`] body — the one the platform's
//! 8-multiplication `dbl-2001-b` program records.

use std::sync::OnceLock;

use bignum::BigUint;
use field::{FpContext, FpElement, ValueOps};

use crate::curve::Curve;
use crate::ladder::{Affine, CombTable, Ladder};
use crate::point::AffinePoint;

/// Scalar-multiplication algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarMulAlgorithm {
    /// Left-to-right double-and-add (one PA per set bit).
    DoubleAndAdd,
    /// Signed-digit non-adjacent form (PA on roughly one third of the digits).
    Naf,
    /// Fixed 4-bit windows with a precomputed table (on a 256-bit curve's
    /// base point, the cached Lim–Lee comb instead).
    Window4,
}

/// A backend [`Curve`] instantiates [`Ladder`] on, with the conversions
/// from and to the heap [`FpElement`] at the ladder's edges.
pub(crate) trait Backend: ValueOps {
    /// The backend form of a field element.
    fn lower(&self, e: &FpElement) -> Self::Elem;

    /// The heap form of a backend element.
    fn lift(&self, e: Self::Elem) -> FpElement;

    /// The curve's cache for this backend's comb table at the base point,
    /// when the backend runs the comb at all.
    fn comb_cache(curve: &Curve) -> Option<&OnceLock<CombTable<Self::Elem>>>;

    /// The backend form of an affine point (`None` is infinity).
    fn lower_point(&self, p: &AffinePoint) -> Affine<Self::Elem> {
        p.coordinates().map(|(x, y)| (self.lower(x), self.lower(y)))
    }

    /// The typed form of a ladder result.
    fn lift_point(&self, p: Affine<Self::Elem>) -> AffinePoint {
        p.map_or(AffinePoint::Infinity, |(x, y)| AffinePoint::Point {
            x: self.lift(x),
            y: self.lift(y),
        })
    }
}

impl Backend for FpContext {
    fn lower(&self, e: &FpElement) -> FpElement {
        e.clone()
    }

    fn lift(&self, e: FpElement) -> FpElement {
        e
    }

    fn comb_cache(_: &Curve) -> Option<&OnceLock<CombTable<FpElement>>> {
        None
    }
}

impl Curve {
    /// Computes `k · point` with the selected algorithm.
    ///
    /// Double-and-add and NAF run as named. `Window4` runs the Lim–Lee
    /// comb on a 256-bit curve's base point (its table built once and
    /// cached) for scalars of at most 256 bits, and the 4-bit window ladder
    /// everywhere else. On 256-bit curves every ladder runs uncounted on the
    /// four-word context; results are identical to the heap ladders
    /// ([`Curve::scalar_mul_reference`] pins this) on every curve, because
    /// the backends share the Montgomery radix at every width and the
    /// affine coordinates of `k · point` are unique whatever ladder
    /// computed them.
    pub fn scalar_mul(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        match self.fp().fixed256() {
            Some(ctx) => self.scalar_mul_on(ctx, point, k, algorithm),
            None => self.scalar_mul_on(self.fp(), point, k, algorithm),
        }
    }

    fn scalar_mul_on<F: Backend>(
        &self,
        f: &F,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        let Some((x, y)) = f.lower_point(point) else {
            return AffinePoint::Infinity;
        };
        if k.is_zero() {
            return AffinePoint::Infinity;
        }
        let a = f.lower(self.a());
        let ladder = Ladder::new(f, &a, self.a_is_minus_three());
        let acc = match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => ladder.double_and_add(&x, &y, k),
            ScalarMulAlgorithm::Naf => ladder.naf(&x, &y, k),
            ScalarMulAlgorithm::Window4 => F::comb_cache(self)
                .filter(|_| point == self.base_point())
                .and_then(|cache| {
                    ladder.comb(cache.get_or_init(|| ladder.comb_table(&x, &y)), &x, &y, k)
                })
                .unwrap_or_else(|| ladder.window(&x, &y, k, 4)),
        };
        f.lift_point(ladder.to_affine(&acc))
    }

    /// Computes `k · point` with every product on the heap (`BigUint`)
    /// FIOS reference, on a [`Curve::heap_only`] twin — the differential
    /// baseline for tests and the `fixed_vs_heap` benchmark.
    /// [`Curve::scalar_mul`] is the fast path; results are identical.
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
    /// the NAF ladder (or the comb, when the request is at the base point
    /// and a `Window4` call has cached its table), and the whole batch
    /// shares one final batched inversion ([`Ladder::batch`]). Every
    /// element is identical to a serial `scalar_mul` call on the same
    /// request.
    pub fn scalar_mul_batch(&self, requests: &[(AffinePoint, BigUint)]) -> Vec<AffinePoint> {
        match self.fp().fixed256() {
            Some(ctx) => self.scalar_mul_batch_on(ctx, requests),
            None => self.scalar_mul_batch_on(self.fp(), requests),
        }
    }

    fn scalar_mul_batch_on<F: Backend>(
        &self,
        f: &F,
        requests: &[(AffinePoint, BigUint)],
    ) -> Vec<AffinePoint> {
        let a = f.lower(self.a());
        let ladder = Ladder::new(f, &a, self.a_is_minus_three());
        let lowered: Vec<_> = requests
            .iter()
            .map(|(point, k)| (f.lower_point(point), k))
            .collect();
        let comb = F::comb_cache(self).and_then(OnceLock::get);
        ladder
            .batch(&lowered, comb)
            .into_iter()
            .map(|p| f.lift_point(p))
            .collect()
    }

    /// Computes `k · base_point` with the default algorithm (double-and-add,
    /// matching the sequence counted by the paper's cycle analysis).
    pub fn scalar_mul_base(&self, k: &BigUint) -> AffinePoint {
        self.scalar_mul(self.base_point(), k, ScalarMulAlgorithm::DoubleAndAdd)
    }

    /// The windowed ladder's table `[O, P, 2P, .., (2^w - 1)·P]` with every
    /// entry **normalized to affine form** ([`Ladder::window`]'s table) — the
    /// one-time normalization that lets the main loop use mixed additions
    /// only. Exposed so tests can pin the ladder invariant (every addend is
    /// affine and the correct multiple) without re-deriving the table.
    pub fn affine_window_table(&self, point: &AffinePoint, window: usize) -> Vec<AffinePoint> {
        let table = self.ladder().window_table(point.coordinates(), window);
        std::iter::once(AffinePoint::Infinity)
            .chain(table.into_iter().map(|p| self.fp().lift_point(p)))
            .collect()
    }
}

/// Computes the non-adjacent form of `k` (least-significant digit first).
///
/// Runs a single O(bits) pass over the bits of `k` with a one-bit carry,
/// never materializing intermediate big integers: at position `i` the
/// remaining value is odd iff `bit(i) + carry` is odd, and the NAF rule
/// `d = 2 - (n mod 4)` (1 → 1, 3 → −1) reads `n mod 4` straight from
/// `bit(i + 1)` and the carry. The `+1` after emitting −1 is exactly a
/// carry into the next position.
pub fn naf_digits(k: &BigUint) -> Vec<i8> {
    let bits = k.bit_len();
    let mut digits = Vec::with_capacity(bits + 1);
    let mut carry = 0u8;
    let mut i = 0;
    while i < bits || carry != 0 {
        let b0 = u8::from(k.bit(i)) + carry;
        if b0 & 1 == 0 {
            // Even: emit 0; a settled carry (b0 == 2) moves up one bit.
            digits.push(0);
            carry = b0 >> 1;
        } else {
            // Odd: n mod 4 = (2·bit(i+1) + b0) mod 4 selects ±1; the −1
            // branch borrows, i.e. carries +1 into bit i + 1.
            let b1 = u8::from(k.bit(i + 1));
            if (2 * b1 + b0) & 3 == 1 {
                digits.push(1);
                carry = 0;
            } else {
                digits.push(-1);
                carry = 1;
            }
        }
        i += 1;
    }
    digits
}

/// Splits `k` into unsigned `window`-bit digits, least-significant digit
/// first — the recoding of [`Ladder::window`].
pub fn window_digits(k: &BigUint, window: usize) -> Vec<usize> {
    assert!(window > 0, "window width must be positive");
    let chunks = k.bit_len().div_ceil(window);
    let mut digits = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let mut digit = 0usize;
        for b in (0..window).rev() {
            digit = (digit << 1) | k.bit(chunk * window + b) as usize;
        }
        digits.push(digit);
    }
    digits
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
            assert_eq!(
                curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Window4),
                reference
            );
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
        assert_eq!(
            curve.scalar_mul(&p, &k, ScalarMulAlgorithm::Window4),
            reference
        );
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
        // infinity mid-ladder, and its window table holds infinity entries.
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
        let table = curve.affine_window_table(&p, 4);
        assert!(table[1..].iter().any(AffinePoint::is_infinity));
        let requests: Vec<_> = (0u64..=20).map(|k| (p.clone(), BigUint::from(k))).collect();
        let batch = curve.scalar_mul_batch(&requests);
        let mut expected = AffinePoint::Infinity;
        for ((_, k), batched) in requests.iter().zip(&batch) {
            for alg in [
                ScalarMulAlgorithm::DoubleAndAdd,
                ScalarMulAlgorithm::Naf,
                ScalarMulAlgorithm::Window4,
            ] {
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
    fn naf_digits_reconstruct_the_scalar() {
        for k in [0u64, 1, 2, 3, 7, 255, 1_000_003, u64::MAX] {
            let digits = naf_digits(&BigUint::from(k));
            let mut value: i128 = 0;
            for (i, &d) in digits.iter().enumerate() {
                value += (d as i128) << i;
            }
            assert_eq!(value, k as i128);
            // Non-adjacency: no two consecutive non-zero digits.
            for w in digits.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "NAF property violated for {k}");
            }
        }
    }

    #[test]
    fn reference_ladder_runs_heap_only_and_matches_the_fast_path() {
        let curve = Curve::by_name("secp256k1").unwrap();
        assert!(curve.fp().fixed256().is_some());
        let heap = curve.heap_only();
        assert!(heap.fp().fixed256().is_none());
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for _ in 0..3 {
            let k = BigUint::random_bits(&mut rng, 256);
            let fast = curve.scalar_mul(curve.base_point(), &k, ScalarMulAlgorithm::DoubleAndAdd);
            let reference = curve.scalar_mul_reference(
                curve.base_point(),
                &k,
                ScalarMulAlgorithm::DoubleAndAdd,
            );
            assert_eq!(fast, reference);
            assert!(curve.is_on_curve(&reference));
        }
    }

    #[test]
    fn window_digits_reconstruct_the_scalar() {
        for k in [0u64, 1, 2, 15, 16, 255, 1_000_003, u64::MAX] {
            for window in [1usize, 3, 4, 5] {
                let digits = window_digits(&BigUint::from(k), window);
                let mut value: u128 = 0;
                for (i, &d) in digits.iter().enumerate() {
                    assert!(d < (1 << window));
                    value += (d as u128) << (i * window);
                }
                assert_eq!(value, k as u128, "k = {k}, w = {window}");
            }
        }
    }

    #[test]
    fn fixed_ladders_and_batch_match_heap_reference_on_secp256k1() {
        let curve = Curve::by_name("secp256k1").unwrap();
        assert!(curve.fp().fixed256().is_some());
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let base = curve.base_point().clone();
        let other = curve.random_point(&mut rng);
        let order = curve.order().expect("secp256k1 has a known order").clone();
        let scalars = [
            BigUint::one(),
            &order - &BigUint::one(),
            BigUint::random_bits(&mut rng, 256),
        ];
        // Every fixed ladder (D&A, NAF, comb-on-base, window-on-arbitrary)
        // must be bit-identical to the heap reference ladder.
        for point in [&base, &other] {
            for k in &scalars {
                let reference =
                    curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd);
                for alg in [
                    ScalarMulAlgorithm::DoubleAndAdd,
                    ScalarMulAlgorithm::Naf,
                    ScalarMulAlgorithm::Window4,
                ] {
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
                ScalarMulAlgorithm::Window4
            )
            .is_infinity());
        assert_eq!(curve.scalar_mul_base(&BigUint::one()), *curve.base_point());
    }
}
