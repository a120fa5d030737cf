//! Scalar multiplication.
//!
//! The full 160-bit scalar multiplication is the operation behind Table 3's
//! "160-bit ECC: 9.4 ms" row. Three classic algorithms are provided so the
//! benchmark harness can ablate over them; all accumulate in Jacobian
//! coordinates and convert back to affine once at the end.
//!
//! Every ladder keeps its **addend affine** and adds through the
//! mixed-coordinate formulas ([`Curve::jacobian_add_mixed`], `Z2 = 1`):
//! the double-and-add and NAF ladders add the (already affine) base point
//! or its negation, and the windowed ladder normalizes its precomputed
//! table once ([`Curve::affine_window_table`]) before the main loop. This is the
//! access pattern the platform's 13-multiplication `pa_mixed` sequence
//! prices; the general Jacobian addition ([`Curve::jacobian_add`]) remains
//! the fallback for operands that are not in normalized form.
//!
//! Doublings go through [`Curve::jacobian_double`], which on `a = -3`
//! curves (the reproduction curve included) runs the shortened
//! [`crate::formulas::dbl_2001_b`] body — the one the platform's
//! 8-multiplication `dbl-2001-b` program records.

use bignum::BigUint;

use crate::curve::Curve;
use crate::point::{AffinePoint, JacobianPoint};

/// Scalar-multiplication algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarMulAlgorithm {
    /// Left-to-right double-and-add (one PA per set bit).
    DoubleAndAdd,
    /// Signed-digit non-adjacent form (PA on roughly one third of the digits).
    Naf,
    /// Fixed 4-bit windows with a precomputed table.
    Window4,
}

impl Curve {
    /// Computes `k · point` with the selected algorithm.
    ///
    /// On 256-bit curves every algorithm runs on the stack-allocated fixed
    /// backend ([`Curve::fixed_backend`]): double-and-add and NAF map to
    /// their fixed ladders, and `Window4` maps to the cached fixed-base
    /// comb for the curve's base point (or a per-call batch-normalized
    /// window table for arbitrary points). All results are bit-identical
    /// to the heap ladders ([`Curve::scalar_mul_reference`] pins this):
    /// the fixed backend shares the Montgomery radix, and the affine
    /// coordinates of `k · point` are unique whatever ladder computed
    /// them.
    pub fn scalar_mul(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        if k.is_zero() || point.is_infinity() {
            return AffinePoint::Infinity;
        }
        if let Some(result) = self.fixed_scalar_mul_with(point, k, algorithm) {
            return result;
        }
        self.scalar_mul_reference(point, k, algorithm)
    }

    /// Computes `k · point` on the heap (`BigUint`) ladder unconditionally
    /// — the pre-fixed-backend behaviour, kept as the differential baseline
    /// for tests and the `fixed_vs_heap` benchmark. The whole ladder
    /// (formulas *and* single field products) runs on a
    /// [`Curve::heap_only`] twin, so the baseline stays honest now that
    /// [`field::FpContext::mul`] itself routes 256-bit products through
    /// the fixed backend. [`Curve::scalar_mul`] is the fast path; results
    /// are identical.
    pub fn scalar_mul_reference(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> AffinePoint {
        if k.is_zero() || point.is_infinity() {
            return AffinePoint::Infinity;
        }
        let heap = self.heap_only();
        let result = match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => double_and_add(&heap, point, k),
            ScalarMulAlgorithm::Naf => naf_mul(&heap, point, k),
            ScalarMulAlgorithm::Window4 => window_mul(&heap, point, k, 4),
        };
        heap.to_affine(&result)
    }

    /// Computes `k · base_point` with the default algorithm (double-and-add,
    /// matching the sequence counted by the paper's cycle analysis).
    pub fn scalar_mul_base(&self, k: &BigUint) -> AffinePoint {
        self.scalar_mul(self.base_point(), k, ScalarMulAlgorithm::DoubleAndAdd)
    }

    /// Precomputes the windowed ladder's table `[O, P, 2P, .., (2^w - 1)·P]`
    /// with every entry **normalized to affine form** — the one-time
    /// normalization that lets the main loop use mixed additions only.
    /// Exposed so tests can pin the ladder invariant (every addend is
    /// affine and the correct multiple) without re-deriving the table.
    pub fn affine_window_table(&self, point: &AffinePoint, window: usize) -> Vec<AffinePoint> {
        let table_len = 1usize << window;
        // Build the multiples chain in Jacobian form (the addend stays the
        // affine base point, so every step is a mixed addition), then
        // normalize the whole chain with ONE batched inversion —
        // Montgomery's trick via [`field::FpContext::inv_batch`] — instead
        // of one Fermat inversion per entry. The recorded operation counts
        // are unchanged (one inversion + four multiplications per finite
        // entry, infinity entries free, exactly what the per-entry
        // normalization recorded); only the host-side inversion loops
        // collapse.
        let mut chain = Vec::with_capacity(table_len.saturating_sub(2));
        let mut acc = self.to_jacobian(point);
        for _ in 2..table_len {
            acc = self.jacobian_add_mixed(&acc, point);
            chain.push(acc.clone());
        }
        let fp = self.fp();
        let zs: Vec<_> = chain.iter().map(|p| p.z.clone()).collect();
        let z_invs = fp.inv_batch(&zs);
        let mut table = Vec::with_capacity(table_len);
        table.push(AffinePoint::Infinity);
        table.push(point.clone());
        for (p, z_inv) in chain.iter().zip(z_invs) {
            table.push(match z_inv {
                None => AffinePoint::Infinity,
                Some(z_inv) => {
                    let z_inv2 = fp.square(&z_inv);
                    let z_inv3 = fp.mul(&z_inv2, &z_inv);
                    AffinePoint::Point {
                        x: fp.mul(&p.x, &z_inv2),
                        y: fp.mul(&p.y, &z_inv3),
                    }
                }
            });
        }
        table
    }
}

fn double_and_add(curve: &Curve, point: &AffinePoint, k: &BigUint) -> JacobianPoint {
    // The addend is the base point itself: already affine, so every
    // addition is a mixed addition.
    let mut acc = curve.to_jacobian(&AffinePoint::Infinity);
    for i in (0..k.bit_len()).rev() {
        acc = curve.jacobian_double(&acc);
        if k.bit(i) {
            acc = curve.jacobian_add_mixed(&acc, point);
        }
    }
    acc
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

fn naf_mul(curve: &Curve, point: &AffinePoint, k: &BigUint) -> JacobianPoint {
    // Both addends (±P) are affine: negation does not disturb `Z = 1`.
    let digits = naf_digits(k);
    let neg_p = curve.negate(point);
    let mut acc = curve.to_jacobian(&AffinePoint::Infinity);
    for &d in digits.iter().rev() {
        acc = curve.jacobian_double(&acc);
        match d {
            1 => acc = curve.jacobian_add_mixed(&acc, point),
            -1 => acc = curve.jacobian_add_mixed(&acc, &neg_p),
            _ => {}
        }
    }
    acc
}

/// Splits `k` into unsigned `window`-bit digits, least-significant digit
/// first — the **shared** recoding used by both the heap and fixed windowed
/// ladders (and the batch window tables), so the two backends can never
/// diverge on digit sequences.
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

fn window_mul(curve: &Curve, point: &AffinePoint, k: &BigUint, window: usize) -> JacobianPoint {
    let table = curve.affine_window_table(point, window);
    // Process the scalar in w-bit chunks, most significant first.
    let digits = window_digits(k, window);
    let mut acc = curve.to_jacobian(&AffinePoint::Infinity);
    for &digit in digits.iter().rev() {
        for _ in 0..window {
            acc = curve.jacobian_double(&acc);
        }
        if digit != 0 {
            acc = curve.jacobian_add_mixed(&acc, &table[digit]);
        }
    }
    acc
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
        assert!(curve.fixed_backend().is_some());
        let heap = curve.heap_only();
        assert!(heap.fixed_backend().is_none());
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
        assert!(curve.fixed_backend().is_some());
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
