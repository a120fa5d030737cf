//! Stack-allocated scalar-multiplication backend for 256-bit curves.
//!
//! The named 256-bit curves ([`crate::Secp256k1`], [`crate::P256`]) spend
//! their host time in Jacobian ladder steps whose field arithmetic all
//! funnels through heap-allocated [`bignum::BigUint`] residues. This module
//! runs the *same* formula bodies ([`crate::formulas`]) — the general and
//! `a = -3` "dbl-2001-b" doublings and the mixed-coordinate addition
//! behind [`crate::Curve::jacobian_double`] /
//! [`Curve::jacobian_add_mixed`] — on [`bignum::fixed::Uint<4>`] stack
//! words, with zero heap allocation from the first doubling through the
//! final Fermat inversion.
//!
//! Because the fixed backend shares the Montgomery radix `R = 2^256` with
//! the field's heap parameters (see [`field::FpContext::fixed256`]), every
//! intermediate here is the *bit-identical* Montgomery residue the heap
//! ladder would have produced; the differential suites in `tests/` pin
//! this.
//!
//! [`FixedCurve`] is constructed by [`Curve`] itself during
//! [`Curve::from_spec`] — there is no public constructor — and
//! [`Curve::scalar_mul`] dispatches to it automatically, so callers keep
//! the typed [`Curve`] API. [`Curve::fixed_backend`] exposes the backend
//! for benchmarks and differential tests.

use std::sync::{Arc, OnceLock};

use bignum::fixed::{neg_mod, MontgomeryContext, Uint};
use bignum::BigUint;
use field::FpElement;

use crate::curve::Curve;
use crate::formulas;
use crate::point::AffinePoint;
use crate::scalar::{naf_digits, window_digits, ScalarMulAlgorithm};

/// A 256-bit residue in Montgomery form on the fixed backend.
type Residue = Uint<4>;

/// Comb tooth count: each ladder step assembles one bit from each of four
/// equally spaced scalar positions.
const COMB_TEETH: usize = 4;
/// Distance between comb teeth — also the number of doublings in the comb
/// ladder (vs 256 in double-and-add).
const COMB_SPACING: usize = 64;

/// A Lim–Lee fixed-base comb table: the 15 non-trivial sums of
/// `{P, 2^64·P, 2^128·P, 2^192·P}`, batch-normalized to affine form so the
/// comb ladder adds through the mixed-coordinate formulas only.
#[derive(Clone, Debug)]
struct CombTable {
    /// The base point this table was built for (Montgomery form).
    x: Residue,
    y: Residue,
    /// `entries[d - 1]` holds `sum_t (d >> t & 1) · 2^(64t) · P`.
    entries: [(Residue, Residue); (1 << COMB_TEETH) - 1],
}

/// A Jacobian point on the fixed backend; `z = 0` encodes infinity (with
/// `x = y = 1` in Montgomery form, mirroring the heap convention).
#[derive(Clone, Copy)]
struct JPoint {
    x: Residue,
    y: Residue,
    z: Residue,
}

/// The fixed-width ladder backend of a 256-bit [`Curve`].
///
/// Holds the field's shared-radix [`MontgomeryContext`] plus the curve
/// constants the doubling formulas need, all as stack values. Built by
/// [`Curve::from_spec`] exactly when the field has a
/// [`field::FpContext::fixed256`] backend; retrieved via
/// [`Curve::fixed_backend`].
#[derive(Clone, Debug)]
pub struct FixedCurve {
    ctx: MontgomeryContext<4>,
    /// The coefficient `a` in Montgomery form.
    a_mont: Residue,
    a_is_minus_three: bool,
    /// Lazily built fixed-base comb table, shared across clones. Populated
    /// by the first [`FixedCurve::scalar_mul_comb`] call (the curve's base
    /// point, via [`Curve::scalar_mul`]'s `Window4` dispatch); `None`
    /// inside means construction degenerated (an entry hit infinity) and
    /// the comb path is permanently disabled for this curve.
    comb: Arc<OnceLock<Option<CombTable>>>,
}

impl FixedCurve {
    /// Builds the backend from the field context and curve coefficient.
    /// Crate-internal: curves construct this in [`Curve::from_spec`].
    pub(crate) fn new(ctx: MontgomeryContext<4>, a: &FpElement, a_is_minus_three: bool) -> Self {
        let a_mont = Residue::from_biguint(a.mont_repr())
            .expect("Montgomery residue of a 256-bit field fits in 4 limbs");
        FixedCurve {
            ctx,
            a_mont,
            a_is_minus_three,
            comb: Arc::new(OnceLock::new()),
        }
    }

    /// The fixed-width Montgomery context this backend computes in (shared
    /// radix with the curve's [`field::FpContext`]).
    pub fn context(&self) -> &MontgomeryContext<4> {
        &self.ctx
    }

    /// Whether the ladder uses the shortened `a = -3` doubling.
    pub fn a_is_minus_three(&self) -> bool {
        self.a_is_minus_three
    }

    #[inline]
    fn mul(&self, a: &Residue, b: &Residue) -> Residue {
        self.ctx.mont_mul(a, b)
    }

    #[inline]
    fn sqr(&self, a: &Residue) -> Residue {
        self.ctx.mont_mul(a, a)
    }

    fn infinity(&self) -> JPoint {
        JPoint {
            x: self.ctx.one_mont(),
            y: self.ctx.one_mont(),
            z: Residue::ZERO,
        }
    }

    /// Jacobian doubling: the wrapper of [`Curve::jacobian_double`] over
    /// the same [`formulas`] bodies.
    fn jacobian_double(&self, p: &JPoint) -> JPoint {
        if p.z.is_zero() || p.y.is_zero() {
            return self.infinity();
        }
        let coords = [&p.x, &p.y, &p.z];
        let [x, y, z] = if self.a_is_minus_three {
            formulas::dbl_2001_b(&self.ctx, coords)
        } else {
            formulas::pd_general(&self.ctx, coords, &self.a_mont)
        };
        JPoint { x, y, z }
    }

    /// Mixed-coordinate addition of an affine addend (`Z2 = 1`): the
    /// wrapper of [`Curve::jacobian_add_mixed`] over [`formulas::madd`],
    /// degenerate cases included.
    fn jacobian_add_mixed(&self, p: &JPoint, x2: &Residue, y2: &Residue) -> JPoint {
        if p.z.is_zero() {
            return JPoint {
                x: *x2,
                y: *y2,
                z: self.ctx.one_mont(),
            };
        }
        let formulas::Addition {
            sum: [x, y, z],
            h,
            r,
        } = formulas::madd(&self.ctx, [&p.x, &p.y, &p.z], [x2, y2]);
        match (h.is_zero(), r.is_zero()) {
            (false, _) => JPoint { x, y, z },
            (true, true) => self.jacobian_double(p),
            (true, false) => self.infinity(),
        }
    }

    /// Normalizes back to affine form (one Fermat inversion, still on the
    /// stack); `None` is the point at infinity.
    fn to_affine(&self, p: &JPoint) -> Option<(Residue, Residue)> {
        if p.z.is_zero() {
            return None;
        }
        let z_inv = self
            .ctx
            .mont_inv_prime(&p.z)
            .expect("finite point has z != 0");
        let z_inv2 = self.sqr(&z_inv);
        let z_inv3 = self.mul(&z_inv2, &z_inv);
        Some((self.mul(&p.x, &z_inv2), self.mul(&p.y, &z_inv3)))
    }

    /// Left-to-right double-and-add ladder on Montgomery-form affine
    /// coordinates, mirroring the heap `double_and_add` step for step.
    /// `None` is the point at infinity. Performs no heap allocation.
    pub fn scalar_mul(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        let mut acc = self.infinity();
        for i in (0..k.bit_len()).rev() {
            acc = self.jacobian_double(&acc);
            if k.bit(i) {
                acc = self.jacobian_add_mixed(&acc, x_mont, y_mont);
            }
        }
        self.to_affine(&acc)
    }

    /// The signed-digit NAF ladder accumulated in Jacobian form; both
    /// addends (`±P`) are affine, so every addition is a mixed addition.
    /// Uses the **shared** recoding ([`crate::scalar::naf_digits`]) so the
    /// fixed and heap ladders can never diverge on digit sequences.
    fn naf_ladder(&self, x_mont: &Residue, y_mont: &Residue, k: &Residue) -> JPoint {
        let digits = naf_digits(&k.to_biguint());
        let neg_y = neg_mod(y_mont, self.ctx.modulus());
        let mut acc = self.infinity();
        for &d in digits.iter().rev() {
            acc = self.jacobian_double(&acc);
            match d {
                1 => acc = self.jacobian_add_mixed(&acc, x_mont, y_mont),
                -1 => acc = self.jacobian_add_mixed(&acc, x_mont, &neg_y),
                _ => {}
            }
        }
        acc
    }

    /// Signed-digit NAF ladder: point additions on roughly one third of
    /// the digits instead of one half. Result bit-identical to
    /// [`FixedCurve::scalar_mul`] (affine coordinates of `k·P` are unique).
    pub fn scalar_mul_naf(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        self.to_affine(&self.naf_ladder(x_mont, y_mont, k))
    }

    /// Normalizes a slice of *finite* Jacobian points to affine form with
    /// **one** batched inversion (Montgomery's trick: one Fermat inversion
    /// plus `3(n-1)` multiplications) instead of one inversion per point.
    /// Returns `None` if any point is at infinity — callers fall back to a
    /// table-free ladder in that (degenerate, large-prime-order-impossible)
    /// case rather than guessing.
    fn batch_to_affine(&self, points: &[JPoint]) -> Option<Vec<(Residue, Residue)>> {
        if points.iter().any(|p| p.z.is_zero()) {
            return None;
        }
        let mut zs: Vec<Residue> = points.iter().map(|p| p.z).collect();
        let mut scratch = vec![Residue::ZERO; zs.len()];
        if !self.ctx.mont_inv_batch(&mut zs, &mut scratch) {
            return None;
        }
        Some(
            points
                .iter()
                .zip(&zs)
                .map(|(p, z_inv)| {
                    let z_inv2 = self.sqr(z_inv);
                    (
                        self.mul(&p.x, &z_inv2),
                        self.mul(&p.y, &self.mul(&z_inv2, z_inv)),
                    )
                })
                .collect(),
        )
    }

    /// The windowed ladder's odd-and-even multiples table
    /// `[P, 2P, .., (2^w - 1)·P]` as affine pairs (index `d` at `d - 1`),
    /// batch-normalized. `None` on a degenerate (infinity-entry) chain.
    fn affine_table(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        window: usize,
    ) -> Option<Vec<(Residue, Residue)>> {
        let len = (1usize << window) - 1;
        let mut chain = Vec::with_capacity(len);
        chain.push(JPoint {
            x: *x_mont,
            y: *y_mont,
            z: self.ctx.one_mont(),
        });
        for i in 1..len {
            chain.push(self.jacobian_add_mixed(&chain[i - 1], x_mont, y_mont));
        }
        self.batch_to_affine(&chain)
    }

    /// Fixed 4-bit-window ladder with a per-call batch-normalized table:
    /// one table inversion total (vs 14 per-entry inversions) and one
    /// mixed addition per non-zero window. Result bit-identical to
    /// [`FixedCurve::scalar_mul`]. Uses the shared window recoding
    /// ([`crate::scalar::window_digits`]).
    pub fn scalar_mul_window(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
        window: usize,
    ) -> Option<(Residue, Residue)> {
        let Some(table) = self.affine_table(x_mont, y_mont, window) else {
            // Degenerate table (small-order point): the plain ladder needs
            // no precomputed multiples and still computes k·P exactly.
            return self.scalar_mul(x_mont, y_mont, k);
        };
        let digits = window_digits(&k.to_biguint(), window);
        let mut acc = self.infinity();
        for &digit in digits.iter().rev() {
            for _ in 0..window {
                acc = self.jacobian_double(&acc);
            }
            if digit != 0 {
                let (ex, ey) = table[digit - 1];
                acc = self.jacobian_add_mixed(&acc, &ex, &ey);
            }
        }
        self.to_affine(&acc)
    }

    /// Builds the Lim–Lee comb table for `P = (x, y)`: affine strides
    /// `2^(64t)·P` (192 doublings, batch-normalized), then the 15 subset
    /// sums, batch-normalized again — two inversions total for the whole
    /// table. `None` if any entry degenerates to infinity.
    fn build_comb(&self, x_mont: &Residue, y_mont: &Residue) -> Option<CombTable> {
        let mut strides = [(*x_mont, *y_mont); COMB_TEETH];
        let mut cur = JPoint {
            x: *x_mont,
            y: *y_mont,
            z: self.ctx.one_mont(),
        };
        let mut stride_chain = Vec::with_capacity(COMB_TEETH - 1);
        for _ in 1..COMB_TEETH {
            for _ in 0..COMB_SPACING {
                cur = self.jacobian_double(&cur);
            }
            stride_chain.push(cur);
        }
        for (slot, affine) in strides
            .iter_mut()
            .skip(1)
            .zip(self.batch_to_affine(&stride_chain)?)
        {
            *slot = affine;
        }
        let mut entry_chain = Vec::with_capacity((1 << COMB_TEETH) - 1);
        for d in 1usize..(1 << COMB_TEETH) {
            let mut acc = self.infinity();
            for (t, (sx, sy)) in strides.iter().enumerate() {
                if d & (1 << t) != 0 {
                    acc = self.jacobian_add_mixed(&acc, sx, sy);
                }
            }
            entry_chain.push(acc);
        }
        let normalized = self.batch_to_affine(&entry_chain)?;
        let mut entries = [(Residue::ZERO, Residue::ZERO); (1 << COMB_TEETH) - 1];
        for (slot, affine) in entries.iter_mut().zip(normalized) {
            *slot = affine;
        }
        Some(CombTable {
            x: *x_mont,
            y: *y_mont,
            entries,
        })
    }

    /// The comb ladder over a built table: 63 doublings plus at most 64
    /// mixed additions for a 256-bit scalar (vs ~256 + ~128 for
    /// double-and-add).
    fn comb_ladder(&self, table: &CombTable, k: &Residue) -> JPoint {
        let mut acc = self.infinity();
        for i in (0..COMB_SPACING).rev() {
            acc = self.jacobian_double(&acc);
            let mut digit = 0usize;
            for t in 0..COMB_TEETH {
                digit |= (k.bit(t * COMB_SPACING + i) as usize) << t;
            }
            if digit != 0 {
                let (ex, ey) = table.entries[digit - 1];
                acc = self.jacobian_add_mixed(&acc, &ex, &ey);
            }
        }
        acc
    }

    /// Fixed-base comb (Lim–Lee) ladder: the fastest repeated-base path,
    /// caching its two-inversion table on first use. [`Curve::scalar_mul`]
    /// routes `Window4` requests on the curve's base point here. A call
    /// with a *different* point than the cached one builds a throwaway
    /// table (correct, but pays construction every call). Result
    /// bit-identical to [`FixedCurve::scalar_mul`].
    pub fn scalar_mul_comb(
        &self,
        x_mont: &Residue,
        y_mont: &Residue,
        k: &Residue,
    ) -> Option<(Residue, Residue)> {
        let cached = self.comb.get_or_init(|| self.build_comb(x_mont, y_mont));
        match cached {
            Some(table) if table.x == *x_mont && table.y == *y_mont => {
                self.to_affine(&self.comb_ladder(table, k))
            }
            _ => match self.build_comb(x_mont, y_mont) {
                Some(table) => self.to_affine(&self.comb_ladder(&table, k)),
                None => self.scalar_mul(x_mont, y_mont, k),
            },
        }
    }

    /// Batched scalar multiplication: every request runs the NAF ladder
    /// (affine addends — no per-request table inversions), or the cached
    /// comb ladder when the request's point is the comb's base, and the
    /// whole batch shares **one** final batched normalization
    /// ([`MontgomeryContext::mont_inv_batch`]). Each element of the result
    /// is bit-identical to the corresponding serial
    /// [`FixedCurve::scalar_mul`] call; `None` encodes infinity.
    pub fn scalar_mul_batch(
        &self,
        requests: &[(Residue, Residue, Residue)],
    ) -> Vec<Option<(Residue, Residue)>> {
        let comb = self.comb.get().and_then(|c| c.as_ref());
        let accs: Vec<JPoint> = requests
            .iter()
            .map(|(x, y, k)| match comb {
                Some(table) if table.x == *x && table.y == *y => self.comb_ladder(table, k),
                _ => self.naf_ladder(x, y, k),
            })
            .collect();
        let mut out = vec![None; requests.len()];
        let finite: Vec<usize> = (0..accs.len()).filter(|&i| !accs[i].z.is_zero()).collect();
        if finite.is_empty() {
            return out;
        }
        let mut zs: Vec<Residue> = finite.iter().map(|&i| accs[i].z).collect();
        let mut scratch = vec![Residue::ZERO; zs.len()];
        let ok = self.ctx.mont_inv_batch(&mut zs, &mut scratch);
        debug_assert!(ok, "finite points have non-zero z");
        for (&i, z_inv) in finite.iter().zip(&zs) {
            let z_inv2 = self.sqr(z_inv);
            out[i] = Some((
                self.mul(&accs[i].x, &z_inv2),
                self.mul(&accs[i].y, &self.mul(&z_inv2, z_inv)),
            ));
        }
        out
    }
}

/// Lowers a finite affine point and a ≤256-bit scalar to fixed residues.
fn to_fixed_request(point: &AffinePoint, k: &BigUint) -> Option<(Residue, Residue, Residue)> {
    let (x, y) = point.coordinates()?;
    let k = Residue::from_biguint(k)?;
    let x = Residue::from_biguint(x.mont_repr()).expect("256-bit field residue fits in 4 limbs");
    let y = Residue::from_biguint(y.mont_repr()).expect("256-bit field residue fits in 4 limbs");
    Some((x, y, k))
}

/// Lifts a fixed ladder result back into the typed point representation.
fn from_fixed_result(result: Option<(Residue, Residue)>) -> AffinePoint {
    match result {
        None => AffinePoint::Infinity,
        Some((x, y)) => AffinePoint::Point {
            x: FpElement::from_mont_repr(x.to_biguint()),
            y: FpElement::from_mont_repr(y.to_biguint()),
        },
    }
}

impl Curve {
    /// Algorithm-dispatching fixed-backend entry, used when possible: the
    /// curve has a fixed backend, the point is finite, and the scalar fits
    /// in 256 bits — `None` when any precondition fails so the caller
    /// falls back to the heap ladder. Double-and-add and NAF map to their
    /// fixed ladders, and `Window4` maps to the cached fixed-base comb
    /// when `point` is the curve's base point (the repeated-base case the
    /// comb's one-time table pays for) and to the per-call
    /// batch-normalized window ladder otherwise. All paths are
    /// result-identical to the heap ladders because affine coordinates of
    /// `k · point` are unique.
    pub(crate) fn fixed_scalar_mul_with(
        &self,
        point: &AffinePoint,
        k: &BigUint,
        algorithm: ScalarMulAlgorithm,
    ) -> Option<AffinePoint> {
        let backend = self.fixed_backend()?;
        let (x, y, k) = to_fixed_request(point, k)?;
        Some(from_fixed_result(match algorithm {
            ScalarMulAlgorithm::DoubleAndAdd => backend.scalar_mul(&x, &y, &k),
            ScalarMulAlgorithm::Naf => backend.scalar_mul_naf(&x, &y, &k),
            ScalarMulAlgorithm::Window4 => {
                if point == self.base_point() {
                    backend.scalar_mul_comb(&x, &y, &k)
                } else {
                    backend.scalar_mul_window(&x, &y, &k, 4)
                }
            }
        }))
    }

    /// Computes `k_i · P_i` for a whole batch of requests, amortizing host
    /// wall-clock the way [`Curve::scalar_mul`] cannot: fixed-eligible
    /// requests (256-bit curve, finite point, ≤256-bit scalar) run through
    /// [`FixedCurve::scalar_mul_batch`] — NAF/comb ladders with one shared
    /// final batch inversion — and anything else falls back to the serial
    /// path, mirroring `scalar_mul`'s own dispatch. Every element is
    /// identical to a serial `scalar_mul` call on the same request.
    pub fn scalar_mul_batch(&self, requests: &[(AffinePoint, BigUint)]) -> Vec<AffinePoint> {
        let mut out: Vec<Option<AffinePoint>> = vec![None; requests.len()];
        if let Some(backend) = self.fixed_backend() {
            let mut slots = Vec::new();
            let mut fixed_requests = Vec::new();
            for (i, (point, k)) in requests.iter().enumerate() {
                if k.is_zero() || point.is_infinity() {
                    out[i] = Some(AffinePoint::Infinity);
                } else if let Some(request) = to_fixed_request(point, k) {
                    slots.push(i);
                    fixed_requests.push(request);
                }
            }
            for (i, result) in slots
                .into_iter()
                .zip(backend.scalar_mul_batch(&fixed_requests))
            {
                out[i] = Some(from_fixed_result(result));
            }
        }
        for (i, (point, k)) in requests.iter().enumerate() {
            if out[i].is_none() {
                out[i] = Some(self.scalar_mul(point, k, ScalarMulAlgorithm::DoubleAndAdd));
            }
        }
        out.into_iter()
            .map(|p| p.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::JacobianPoint;
    use rand::SeedableRng;

    fn residue(e: &FpElement) -> Residue {
        Residue::from_biguint(e.mont_repr()).expect("256-bit residue")
    }

    fn lower(p: &JacobianPoint) -> JPoint {
        JPoint {
            x: residue(&p.x),
            y: residue(&p.y),
            z: residue(&p.z),
        }
    }

    fn lift(p: &JPoint) -> [FpElement; 3] {
        [p.x, p.y, p.z].map(|c| FpElement::from_mont_repr(c.to_biguint()))
    }

    #[test]
    fn degenerate_wrappers_match_the_heap_wrappers() {
        for name in ["p256", "secp256k1"] {
            let curve = Curve::by_name(name).unwrap();
            let fixed = curve.fixed_backend().expect("256-bit curve");
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
                let (x2, y2) = addend.coordinates().unwrap();
                let got = fixed.jacobian_add_mixed(&lower(acc), &residue(x2), &residue(y2));
                assert_eq!(lift(&got), [heap.x, heap.y, heap.z], "{name}: {label}");
            }
            assert!(curve.jacobian_add_mixed(&p_eq_q, &neg_q).is_infinity());
            for (label, p) in [("2·infinity", &infinity), ("2·q", &p_eq_q)] {
                let heap = curve.jacobian_double(p);
                let got = fixed.jacobian_double(&lower(p));
                assert_eq!(lift(&got), [heap.x, heap.y, heap.z], "{name}: {label}");
            }
        }
    }
}
