//! The Jacobian point formulas, each written once over
//! [`field::FieldOps`].
//!
//! Four EFD formulas price the paper's ECC rows: the general addition
//! (`pa-general`), the mixed addition with an affine addend (`madd`), the
//! general doubling (`pd-general`) and the `a = -3` doubling
//! (`dbl-2001-b`). Each is one branch-free body, in the exact step order
//! the platform executes. The same body runs in the host ladders
//! ([`crate::ladder`], on the counted field or its stack backend) and
//! under the platform crate's recorder, which turns it into the
//! coprocessor program — so host results, host op counts and simulated
//! cycles all come from one source.
//!
//! Bodies never branch. Degenerate inputs (the point at infinity, `Y1 = 0`,
//! `P = ±Q`) are the business of the wrappers in [`crate::ladder`]: the
//! additions return `H` and `r` alongside the sum, and a caller seeing
//! `H = 0` knows the sum is meaningless — it doubles when `r = 0` too, and
//! returns infinity otherwise.
//!
//! ```
//! use ecc::formulas::{self, Addition};
//! use ecc::prelude::*;
//!
//! let curve = Curve::by_name("p256")?;
//! let p = curve.to_jacobian(curve.base_point());
//! let [x, y, z] = formulas::dbl_2001_b(curve.fp(), [&p.x, &p.y, &p.z]);
//! let twice = curve.to_affine(&JacobianPoint { x, y, z });
//! assert_eq!(twice, curve.double(curve.base_point()));
//! // P + P is degenerate (H = r = 0): a caller must double instead.
//! let Addition { h, r, .. } = formulas::pa_general(curve.fp(), [&p.x, &p.y, &p.z], [&p.x, &p.y, &p.z]);
//! assert!(h.is_zero() && r.is_zero());
//! # Ok::<(), EccError>(())
//! ```

use field::FieldOps;

/// What an addition body returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Addition<E> {
    /// `(X3, Y3, Z3)`, the sum — valid only when `h` is non-zero.
    pub sum: [E; 3],
    /// `H = U2 − U1`: zero exactly when the operands share an
    /// x-coordinate.
    pub h: E,
    /// `r = 2·(S2 − S1)`: zero (with `h`) exactly when the operands are
    /// equal, so the caller must double instead.
    pub r: E,
}

/// `pa-general`: Jacobian `P + Q` in 16 M + 13 A/S.
pub fn pa_general<F: FieldOps>(
    f: &F,
    [x1, y1, z1]: [&F::Elem; 3],
    [x2, y2, z2]: [&F::Elem; 3],
) -> Addition<F::Elem> {
    let z1z1 = f.mul(z1, z1);
    let z2z2 = f.mul(z2, z2);
    let u1 = f.mul(x1, &z2z2);
    let u2 = f.mul(x2, &z1z1);
    // S1 = Y1·Z2·Z2Z2, S2 = Y2·Z1·Z1Z1
    let s1 = f.mul(y1, &f.mul(z2, &z2z2));
    let s2 = f.mul(y2, &f.mul(z1, &z1z1));
    // H = U2 − U1, I = (2H)², J = H·I
    let h = f.sub(&u2, &u1);
    let h2 = f.add(&h, &h);
    let i = f.mul(&h2, &h2);
    let j = f.mul(&h, &i);
    // r = 2(S2 − S1), V = U1·I
    let ds = f.sub(&s2, &s1);
    let r = f.add(&ds, &ds);
    let v = f.mul(&u1, &i);
    // X3 = r² − J − 2V
    let x3 = f.sub(&f.sub(&f.mul(&r, &r), &j), &f.add(&v, &v));
    // Y3 = r(V − X3) − 2·S1·J
    let t = f.mul(&r, &f.sub(&v, &x3));
    let s1j = f.mul(&s1, &j);
    let y3 = f.sub(&t, &f.add(&s1j, &s1j));
    // Z3 = ((Z1 + Z2)² − Z1Z1 − Z2Z2)·H
    let zs = f.add(z1, z2);
    let z3 = f.mul(&f.sub(&f.sub(&f.mul(&zs, &zs), &z1z1), &z2z2), &h);
    Addition {
        sum: [x3, y3, z3],
        h,
        r,
    }
}

/// `madd`: Jacobian `P` plus an affine `Q` (`Z2 = 1`) in 11 M + 11 A/S.
///
/// `Z2 = 1` makes `U1 = X1` and `S1 = Y1`, drops the three products that
/// involve `Z2`, and shrinks the `Z3` tail to `2·Z1·H`. `Q` must already
/// be in the backend's Montgomery domain (the platform recorder emits the
/// two lifts of its plain-form addend before this body).
pub fn madd<F: FieldOps>(
    f: &F,
    [x1, y1, z1]: [&F::Elem; 3],
    [x2, y2]: [&F::Elem; 2],
) -> Addition<F::Elem> {
    // Z1Z1 = Z1², U2 = X2·Z1Z1, S2 = Y2·Z1·Z1Z1
    let z1z1 = f.mul(z1, z1);
    let u2 = f.mul(x2, &z1z1);
    let s2 = f.mul(y2, &f.mul(z1, &z1z1));
    // H = U2 − X1, I = (2H)², J = H·I
    let h = f.sub(&u2, x1);
    let h2 = f.add(&h, &h);
    let i = f.mul(&h2, &h2);
    let j = f.mul(&h, &i);
    // r = 2(S2 − Y1), V = X1·I
    let ds = f.sub(&s2, y1);
    let r = f.add(&ds, &ds);
    let v = f.mul(x1, &i);
    // X3 = r² − J − 2V
    let x3 = f.sub(&f.sub(&f.mul(&r, &r), &j), &f.add(&v, &v));
    // Y3 = r(V − X3) − 2·Y1·J
    let t = f.mul(&r, &f.sub(&v, &x3));
    let y1j = f.mul(y1, &j);
    let y3 = f.sub(&t, &f.add(&y1j, &y1j));
    // Z3 = 2·Z1·H
    let z1h = f.mul(z1, &h);
    let z3 = f.add(&z1h, &z1h);
    Addition {
        sum: [x3, y3, z3],
        h,
        r,
    }
}

/// `pd-general`: Jacobian `2P` for any curve coefficient `a` in
/// 10 M + 15 A/S (the InsRom1 doubling).
pub fn pd_general<F: FieldOps>(f: &F, [x1, y1, z1]: [&F::Elem; 3], a: &F::Elem) -> [F::Elem; 3] {
    // A = X1², B = Y1², C = B²
    let aa = f.mul(x1, x1);
    let bb = f.mul(y1, y1);
    let cc = f.mul(&bb, &bb);
    // D = 2((X1 + B)² − A − C)
    let xb = f.add(x1, &bb);
    let t = f.sub(&f.sub(&f.mul(&xb, &xb), &aa), &cc);
    let dd = f.add(&t, &t);
    // E = 3A + a·Z1⁴
    let zz = f.mul(z1, z1);
    let az4 = f.mul(a, &f.mul(&zz, &zz));
    let ee = f.add(&f.add(&f.add(&aa, &aa), &aa), &az4);
    // X3 = E² − 2D
    let x3 = f.sub(&f.mul(&ee, &ee), &f.add(&dd, &dd));
    // Y3 = E(D − X3) − 8C
    let t = f.mul(&ee, &f.sub(&dd, &x3));
    let c2 = f.add(&cc, &cc);
    let c4 = f.add(&c2, &c2);
    let y3 = f.sub(&t, &f.add(&c4, &c4));
    // Z3 = 2·Y1·Z1
    let yz = f.mul(y1, z1);
    let z3 = f.add(&yz, &yz);
    [x3, y3, z3]
}

/// `dbl-2001-b`: Jacobian `2P` on curves with `a = -3` in 8 M + 12 A/S.
///
/// With `a = -3` the tangent numerator factors,
/// `α = 3·X1² + a·Z1⁴ = 3·(X1 − δ)·(X1 + δ)` with `δ = Z1²`, trading the
/// general doubling's three `Z1` products for one. Squaring `2γ`
/// (`γ = Y1²`) gives `4γ²` and `X1·2γ` gives `2β` (`β = X1·γ`), which
/// halves the doubling chains of the `8β` and `8γ²` terms; `3·α` costs
/// two additions. The steps are interleaved so the Type-B sequencer can
/// prefetch across 15 of the 19 neighbour pairs.
///
/// Only correct when `a = -3`; callers check
/// [`crate::Curve::a_is_minus_three`].
pub fn dbl_2001_b<F: FieldOps>(f: &F, [x1, y1, z1]: [&F::Elem; 3]) -> [F::Elem; 3] {
    let delta = f.mul(z1, z1);
    let gamma = f.mul(y1, y1);
    let x_minus = f.sub(x1, &delta);
    let x_plus = f.add(x1, &delta);
    let gamma2 = f.add(&gamma, &gamma);
    // α = 3(X1 − δ)(X1 + δ), 4γ² = (2γ)², 2β = X1·2γ
    let m = f.mul(&x_minus, &x_plus);
    let gamma_sq4 = f.mul(&gamma2, &gamma2);
    let m2 = f.add(&m, &m);
    let beta2 = f.mul(x1, &gamma2);
    let alpha = f.add(&m2, &m);
    // X3 = α² − 8β
    let beta4 = f.add(&beta2, &beta2);
    let alpha_sq = f.mul(&alpha, &alpha);
    let beta8 = f.add(&beta4, &beta4);
    let x3 = f.sub(&alpha_sq, &beta8);
    // Y3 = α(4β − X3) − 8γ²
    let gamma_sq8 = f.add(&gamma_sq4, &gamma_sq4);
    let t = f.mul(&alpha, &f.sub(&beta4, &x3));
    let y3 = f.sub(&t, &gamma_sq8);
    // Z3 = 2·Y1·Z1
    let yz = f.mul(y1, z1);
    let z3 = f.add(&yz, &yz);
    [x3, y3, z3]
}
