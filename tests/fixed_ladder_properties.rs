//! Differential proptests pinning the stack-context ladders, the batch
//! entry points and the field's stack context at every width to the
//! serial heap reference.
//!
//! At every field width (10, 64, 127, 160, 170 and 256 bits, both sides of
//! every word boundary up to 257 bits, and 512 and 1024 bits) random
//! sequences of field operations must give the same residues and the same
//! op counts on `FpContext::new(p)` and on its `heap_only()` twin, whose
//! jobs run on the heap FIOS reference; their elements compare and hash
//! equal exactly when their values are equal. Every `Curve::scalar_mul` algorithm, and
//! `Curve::scalar_mul_batch`, must match the heap twin's results and op
//! counts on the toy, 160-bit and secp256k1 curves (one, three and four
//! words).
//!
//! Every ladder variant (double-and-add, NAF, window) and
//! every batch entry point (`Curve::scalar_mul_batch`,
//! `FpContext::inv_batch`, `MontgomeryContext::mont_mul_batch`) must agree
//! with its one-at-a-time heap reference — `Curve::scalar_mul_reference`
//! runs the whole ladder on `BigUint`, so a fixed-backend bug cannot mask
//! itself. Edge coverage: empty batches, batches of one, ragged lengths,
//! and the scalars {0, 1, order − 1, order} that straddle the group
//! boundary. The ladder's degenerate-case wrappers, run through
//! `FpContext::run` at one, three and four words, must match the counted
//! field's wrappers in result and op count.
//!
//! The tower's jobs get the same treatment: `Fp6Context` products,
//! squarings, exponentiations (plain and windowed), inversions and norms
//! over fields of one, two, three and eight words and of 300 bits must
//! match the `heap_only` twin's values and op counts, with every product
//! recording exactly 18 M + 20 A + 44 S.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::BigUint;
use ceilidh::CeilidhParams;
use ecc::ladder::Ladder;
use ecc::prelude::*;
use field::{FieldJob, Fp6Context, Fp6Element, FpContext, FpElement, OpCount, ValueOps};
use proptest::prelude::*;
use rand::SeedableRng;

fn curve() -> Curve {
    Curve::from_parameters::<Secp256k1>().expect("registered curve")
}

/// Packs four limbs into a 256-bit scalar without the fixed conversions.
fn scalar(limbs: [u64; 4]) -> BigUint {
    let mut acc = BigUint::zero();
    for &l in limbs.iter().rev() {
        acc = &acc.shl_bits(64) + &BigUint::from(l);
    }
    acc
}

/// The four boundary scalars of the satellite checklist.
fn edge_scalars(curve: &Curve) -> Vec<BigUint> {
    let order = curve.order().expect("secp256k1 has an order").clone();
    vec![
        BigUint::zero(),
        BigUint::one(),
        &order - &BigUint::one(),
        order,
    ]
}

/// Primes at every width the field uses, checked with Miller–Rabin: the
/// toy curve's 1009 (≡ 1 mod 4, so square roots take Tonelli–Shanks) and
/// 2^64 − 59 (also ≡ 1 mod 4) on one word, 2^127 − 1 on two, the paper's
/// 160- and 170-bit primes on three, and secp256k1's on four; the least
/// prime above each word boundary, 2^64 + 13, 2^128 + 51, 2^192 + 133 and
/// 2^256 + 297 (on five words, the heap reference); and 2^512 − 569 and
/// 2^1024 − 105 on eight and sixteen.
fn primes_at_every_width() -> Vec<BigUint> {
    static PRIMES: OnceLock<Vec<BigUint>> = OnceLock::new();
    PRIMES.get_or_init(checked_primes).clone()
}

/// [`primes_at_every_width`], checked once per run.
fn checked_primes() -> Vec<BigUint> {
    let power = |bits| BigUint::one().shl_bits(bits);
    let primes = vec![
        BigUint::from(1009u64),
        BigUint::from(0xffff_ffff_ffff_ffc5u64),
        &power(127) - &BigUint::one(),
        Curve::p160_reproduction().unwrap().fp().modulus().clone(),
        CeilidhParams::date2008().unwrap().fp().modulus().clone(),
        curve().fp().modulus().clone(),
        &power(64) + &BigUint::from(13u64),
        &power(128) + &BigUint::from(51u64),
        &power(192) + &BigUint::from(133u64),
        &power(256) + &BigUint::from(297u64),
        &power(512) - &BigUint::from(569u64),
        &power(1024) - &BigUint::from(105u64),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(64);
    for p in &primes {
        assert!(bignum::is_prime(p, &mut rng), "{p:?} is prime");
    }
    primes
}

fn hash_of(e: &FpElement) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Applies operation `code` to registers of `fp`, returning the result.
fn apply(fp: &FpContext, code: u8, regs: &[FpElement; 4], exp: &BigUint) -> Option<FpElement> {
    let (a, b) = (&regs[code as usize % 4], &regs[(code as usize / 4) % 4]);
    Some(match (code / 16) % 7 {
        0 => fp.mul(a, b),
        1 => fp.add(a, b),
        2 => fp.sub(a, b),
        3 => fp.neg(a),
        4 => fp.inv(a)?,
        5 => fp.exp(a, exp),
        _ => fp.sqrt(a)?,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random sequence of mul/add/sub/neg/inv/exp/sqrt runs identically
    /// on each field's stack context and on its heap-product twin: same
    /// residues, same op-count deltas, and elements equal (and hashing
    /// equal) across the two contexts exactly when their values are.
    #[test]
    fn fast_context_matches_heap_twin_at_every_width(
        seed in any::<u64>(),
        codes in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for p in primes_at_every_width() {
            let fast = FpContext::new(&p).unwrap();
            let heap = fast.heap_only();
            let mut regs: [FpElement; 4] = std::array::from_fn(|_| fast.random(&mut rng));
            let mut twin_regs = regs.clone();
            // Exponents up to twice the field width; the eight- and
            // sixteen-word fields take four operations and 64-bit
            // exponents, which keeps their heap twin's run short.
            let wide = p.bit_len() >= 512;
            let exp_bits = if wide { 64 } else { 2 * p.bit_len() };
            for &code in codes.iter().take(if wide { 4 } else { codes.len() }) {
                let exp = BigUint::random_bits(&mut rng, exp_bits);
                let exp = exp.shr_bits((code as usize) % exp_bits);
                let before = fast.op_count();
                let got = apply(&fast, code, &regs, &exp);
                let mid = fast.op_count();
                let want = apply(&heap, code, &twin_regs, &exp);
                let after = fast.op_count();
                prop_assert_eq!(mid.since(&before), after.since(&mid), "{} bits, op {}", p.bit_len(), code);
                prop_assert_eq!(&got, &want, "{} bits, op {}", p.bit_len(), code);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert_eq!(got.mont_repr(), want.mont_repr());
                    prop_assert_eq!(fast.to_biguint(&got), heap.to_biguint(&want));
                    // The ring operations, which the twin shares, against
                    // plain modular arithmetic.
                    let plain = |i: usize| fast.to_biguint(&regs[i]);
                    let (a, b) = (plain(code as usize % 4), plain((code as usize / 4) % 4));
                    let expected = match (code / 16) % 7 {
                        0 => Some(bignum::mod_mul(&a, &b, &p)),
                        1 => Some(bignum::mod_add(&a, &b, &p)),
                        2 => Some(bignum::mod_sub(&a, &b, &p)),
                        3 => Some(bignum::mod_neg(&a, &p)),
                        _ => None,
                    };
                    if let Some(expected) = expected {
                        prop_assert_eq!(fast.to_biguint(&got), expected, "op {}", code);
                    }
                    let slot = (code as usize / 64) % 4;
                    regs[slot] = got;
                    twin_regs[slot] = want;
                }
            }
            for x in &regs {
                for y in &twin_regs {
                    let same_value = fast.to_biguint(x) == heap.to_biguint(y);
                    prop_assert_eq!(x == y, same_value);
                    prop_assert_eq!(hash_of(x) == hash_of(y), same_value);
                }
            }
        }
    }

    /// Every scalar-multiplication algorithm, at the base point and at
    /// another point, and the batch entry point match the heap-product
    /// twin's results and op counts on the toy, the paper's 160-bit and the
    /// secp256k1 curve, whose fields run on one, three and four words.
    #[test]
    fn scalar_mul_matches_reference_at_every_width(limbs in prop::array::uniform4(any::<u64>())) {
        let curves = [
            Curve::toy().unwrap(),
            Curve::p160_reproduction().unwrap(),
            Curve::from_parameters::<Secp256k1>().unwrap(),
        ];
        for curve in curves {
            let fp = curve.fp();
            let k = &scalar(limbs) % &BigUint::one().shl_bits(fp.bit_len() + 8);
            let g = curve.base_point().clone();
            let h = curve.scalar_mul_reference(&g, &BigUint::from(5u64), ScalarMulAlgorithm::Naf);
            for point in [&g, &h] {
                for algorithm in [
                    ScalarMulAlgorithm::DoubleAndAdd,
                    ScalarMulAlgorithm::Naf,
                    ScalarMulAlgorithm::Window4,
                ] {
                    let before = fp.op_count();
                    let got = curve.scalar_mul(point, &k, algorithm);
                    let mid = fp.op_count();
                    let want = curve.scalar_mul_reference(point, &k, algorithm);
                    let label = format!("{}: algorithm {:?}", curve.name(), algorithm);
                    prop_assert_eq!(got, want, "{}", label);
                    prop_assert_eq!(mid.since(&before), fp.op_count().since(&mid), "{} counts", label);
                }
            }
            let requests = vec![
                (g.clone(), k.clone()),
                (h.clone(), k.clone()),
                (AffinePoint::Infinity, k.clone()),
                (h.clone(), BigUint::zero()),
            ];
            let before = fp.op_count();
            let got = curve.scalar_mul_batch(&requests);
            let mid = fp.op_count();
            let want = curve.heap_only().scalar_mul_batch(&requests);
            prop_assert_eq!(got, want, "{}: batch", curve.name());
            prop_assert_eq!(mid.since(&before), fp.op_count().since(&mid), "{}: batch counts", curve.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three ladder algorithms match the heap reference ladder on
    /// random 256-bit scalars, on the base point and on a non-base point.
    #[test]
    fn fixed_ladders_match_heap_reference(limbs in prop::array::uniform4(any::<u64>())) {
        let curve = curve();
        let k = scalar(limbs);
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(2u64), ScalarMulAlgorithm::DoubleAndAdd);
        for point in [&g, &h] {
            let reference = curve.scalar_mul_reference(point, &k, ScalarMulAlgorithm::DoubleAndAdd);
            for algorithm in [
                ScalarMulAlgorithm::DoubleAndAdd,
                ScalarMulAlgorithm::Naf,
                ScalarMulAlgorithm::Window4,
            ] {
                prop_assert_eq!(
                    curve.scalar_mul(point, &k, algorithm),
                    reference.clone(),
                    "algorithm {:?}",
                    algorithm
                );
                prop_assert_eq!(
                    curve.scalar_mul_reference(point, &k, algorithm),
                    reference.clone(),
                    "heap algorithm {:?}",
                    algorithm
                );
            }
        }
    }

    /// `Curve::scalar_mul_batch` is element-wise identical to serial
    /// `scalar_mul` for ragged batch lengths (1, 3, 5, 7, 9), with edge
    /// scalars and the point at infinity mixed into the requests.
    #[test]
    fn scalar_mul_batch_matches_serial(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let g = curve.base_point().clone();
        let h = curve.scalar_mul_reference(&g, &BigUint::from(3u64), ScalarMulAlgorithm::DoubleAndAdd);
        let mut requests: Vec<(AffinePoint, BigUint)> = Vec::new();
        for (i, k) in edge_scalars(&curve).into_iter().enumerate() {
            requests.push((if i % 2 == 0 { g.clone() } else { h.clone() }, k));
        }
        requests.push((AffinePoint::Infinity, scalar([limbs[0], limbs[1], limbs[2], limbs[3]])));
        for chunk in limbs.chunks(2) {
            requests.push((h.clone(), scalar([chunk[0], chunk[1], 0, 0])));
        }
        for len in [0usize, 1, 3, 5, 7, 9] {
            let slice = &requests[..len];
            let batch = curve.scalar_mul_batch(slice);
            prop_assert_eq!(batch.len(), len);
            for (i, (point, k)) in slice.iter().enumerate() {
                prop_assert_eq!(
                    &batch[i],
                    &curve.scalar_mul_reference(point, k, ScalarMulAlgorithm::DoubleAndAdd),
                    "len {} request {}",
                    len,
                    i
                );
            }
        }
    }

    /// `FpContext::inv_batch` matches serial `inv` for ragged lengths,
    /// including length one, with a zero element mixed in (whose inverse
    /// must come back `None`).
    #[test]
    fn field_batches_match_serial(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let fp = curve.fp();
        let bases: Vec<_> = (0..5)
            .map(|i| fp.from_biguint(&scalar([limbs[i], limbs[(i + 1) % 8], limbs[(i + 2) % 8], 0])))
            .collect();
        for len in [0usize, 1, 3, 5] {
            let mut elems = bases[..len].to_vec();
            elems.push(fp.zero());
            let inv = fp.inv_batch(&elems);
            prop_assert_eq!(inv.len(), elems.len());
            for (i, e) in elems.iter().enumerate() {
                prop_assert_eq!(&inv[i], &fp.inv(e), "inv lane {}", i);
            }
        }
    }

    /// `mont_mul_batch` is lane-for-lane identical to serial `mont_mul`
    /// at ragged lane counts, including the {0, 1, p − 1} residues in
    /// every lane position.
    #[test]
    fn mont_mul_batch_matches_serial_ragged(limbs in prop::array::uniform8(any::<u64>())) {
        let curve = curve();
        let p = curve.fp().modulus().clone();
        let ctx = MontgomeryContext::<4>::new(&p).expect("odd prime modulus");
        let residue = |seed: [u64; 4]| {
            let v = &scalar(seed) % &p;
            ctx.to_mont(&Uint::from_biguint(&v).expect("reduced"))
        };
        let pm1 = Uint::from_biguint(&(&p - &BigUint::one())).expect("fits");
        let specials = [Uint::ZERO, ctx.one_mont(), ctx.to_mont(&pm1)];
        macro_rules! check {
            ($lanes:literal) => {{
                let a: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[l % 8], limbs[(l + 1) % 8], l as u64, 7])
                });
                let mut b: [Uint<4>; $lanes] = core::array::from_fn(|l| {
                    residue([limbs[(l + 2) % 8], limbs[(l + 3) % 8], l as u64, 11])
                });
                // Rotate the boundary residues through the lanes.
                for (i, s) in specials.iter().enumerate() {
                    b[(limbs[i] as usize) % $lanes] = *s;
                }
                let batched = ctx.mont_mul_batch(&a, &b);
                for l in 0..$lanes {
                    prop_assert_eq!(batched[l], ctx.mont_mul(&a[l], &b[l]), "lane {}", l);
                }
            }};
        }
        check!(3);
        check!(5);
        check!(8);
        check!(13);
    }
}

/// The ladder's degenerate-case wrappers on the backend `FpContext::run`
/// picks: each addition both mixed (affine addend) and Jacobian, then each
/// doubling, every result lifted back to field elements.
struct Wrappers<'a> {
    curve: &'a Curve,
    additions: &'a [(&'a JacobianPoint, &'a AffinePoint)],
    doublings: &'a [&'a JacobianPoint],
}

impl FieldJob for Wrappers<'_> {
    type Output = Vec<[FpElement; 3]>;

    fn run<F: ValueOps>(self, f: &F) -> Vec<[FpElement; 3]> {
        let a = f.lower(self.curve.a());
        let ladder = Ladder::new(f, &a, self.curve.a_is_minus_three());
        let lower = |p: &JacobianPoint| JacobianPoint {
            x: f.lower(&p.x),
            y: f.lower(&p.y),
            z: f.lower(&p.z),
        };
        let lift = |p: JacobianPoint<F::Elem>| [p.x, p.y, p.z].map(|c| f.lift(c));
        let mut out = Vec::new();
        for &(acc, q) in self.additions {
            let affine = q.coordinates().map(|(x, y)| (f.lower(x), f.lower(y)));
            let addend = affine.as_ref().map(|(x, y)| (x, y));
            out.push(lift(ladder.add_mixed(&lower(acc), addend)));
            let q = lower(&self.curve.to_jacobian(q));
            out.push(lift(ladder.add(&lower(acc), &q)));
        }
        out.extend(
            self.doublings
                .iter()
                .map(|p| lift(ladder.double(&lower(p)))),
        );
        out
    }
}

#[test]
fn degenerate_wrappers_match_the_heap_wrappers() {
    for name in ["toy-1009", "p160-reproduction", "p256", "secp256k1"] {
        let curve = Curve::by_name(name).unwrap();
        let fp = curve.fp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let q = curve.random_point(&mut rng);
        let (qx, qy) = q.coordinates().unwrap();
        // q itself with a generic Z = λ: (λ²x, λ³y, λ).
        let l = fp.from_u64(7);
        let l2 = fp.square(&l);
        let q_at_z = JacobianPoint {
            x: fp.mul(qx, &l2),
            y: fp.mul(qy, &fp.mul(&l2, &l)),
            z: l,
        };
        let neg_q = curve.negate(&q);
        let at_infinity = AffinePoint::Infinity;
        let infinity = curve.to_jacobian(&at_infinity);
        let p = curve.to_jacobian(&curve.random_point(&mut rng));
        // ∞ + q, q + q, q + (−q), p + q and p + ∞; then 2·∞ and 2·q.
        let additions = [
            (&infinity, &q),
            (&q_at_z, &q),
            (&q_at_z, &neg_q),
            (&p, &q),
            (&p, &at_infinity),
        ];
        let doublings = [&infinity, &q_at_z];
        let before = fp.op_count();
        let got = fp.run(Wrappers {
            curve: &curve,
            additions: &additions,
            doublings: &doublings,
        });
        let mid = fp.op_count();
        let mut want = Vec::new();
        for (acc, q) in additions {
            want.push(curve.jacobian_add_mixed(acc, q));
            want.push(curve.jacobian_add(acc, &curve.to_jacobian(q)));
        }
        want.extend(doublings.map(|p| curve.jacobian_double(p)));
        let want: Vec<_> = want.into_iter().map(|p| [p.x, p.y, p.z]).collect();
        assert_eq!(got, want, "{name}");
        assert_eq!(
            mid.since(&before),
            fp.op_count().since(&mid),
            "{name}: counts"
        );
        assert!(want[4][2].is_zero(), "{name}: q + (−q) is infinity");
    }
}

/// Primes ≡ 2 (mod 9), so that `Fp6 = Fp[z]/(z⁶ + z³ + 1)` exists over
/// them, at one, two and three words, on the heap reference at five, and
/// at eight: 101, 2^127 + 45, the paper's CEILIDH-170 prime, 2^299 + 645
/// and 2^512 − 569.
fn tower_primes() -> Vec<BigUint> {
    static PRIMES: OnceLock<Vec<BigUint>> = OnceLock::new();
    PRIMES.get_or_init(checked_tower_primes).clone()
}

/// [`tower_primes`], checked once per run.
fn checked_tower_primes() -> Vec<BigUint> {
    let primes = vec![
        BigUint::from(101u64),
        &BigUint::one().shl_bits(127) + &BigUint::from(45u64),
        CeilidhParams::date2008().unwrap().p().clone(),
        &BigUint::one().shl_bits(299) + &BigUint::from(645u64),
        &BigUint::one().shl_bits(512) - &BigUint::from(569u64),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for p in &primes {
        assert!(bignum::is_prime(p, &mut rng), "{p:?} is prime");
        assert_eq!(p % &BigUint::from(9u64), BigUint::from(2u64), "{p:?}");
    }
    primes
}

/// What `n` `Fp6` products record: 18 M + 20 A + 44 S each.
fn products(n: u64) -> OpCount {
    OpCount {
        mul: 18 * n,
        add: 20 * n,
        sub: 44 * n,
        inv: 0,
    }
}

/// The products square-and-multiply makes for exponent `e`.
fn exp_products(e: &BigUint) -> u64 {
    (e.bit_len() + (0..e.bit_len()).filter(|&i| e.bit(i)).count()) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Fp6Context` over each field and over its `heap_only` twin, whose
    /// products and exponentiations run as jobs on the heap FIOS
    /// reference: `mul`, `square`, `exp`, `exp_cyclotomic` on a projection
    /// onto `T6`, `inv` and `norm` give the same values and the same
    /// op-count deltas, at the exponents 0, 1, a random exponent the size
    /// of CEILIDH-170's `q` and one wider than the field. One product
    /// records exactly 18 M + 20 A + 44 S, `exp(a, e)` exactly
    /// `bit_len(e) + popcount(e)` products, and `exp_cyclotomic` equals
    /// `exp` on the torus.
    #[test]
    fn fp6_jobs_match_the_heap_twin(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q_bits = CeilidhParams::date2008().unwrap().q().bit_len();
        for p in tower_primes() {
            let fast = Fp6Context::new(FpContext::new(&p).unwrap()).unwrap();
            let heap = Fp6Context::new(fast.fp().heap_only()).unwrap();
            let (a, b) = (fast.random(&mut rng), fast.random(&mut rng));
            // The projection of a onto T6: y^p·y with y = ā·a⁻¹.
            let y = fast.mul(&fast.conjugate(&a), &fast.inv(&a).unwrap());
            let torus = fast.mul(&fast.frobenius(&y, 1), &y);
            let bits = p.bit_len();
            let counted = |label: &str, op: &dyn Fn(&Fp6Context) -> Fp6Element| {
                let before = fast.fp().op_count();
                let got = op(&fast);
                let mid = fast.fp().op_count();
                let want = op(&heap);
                let count = mid.since(&before);
                assert_eq!(got, want, "{bits} bits: {label}");
                assert_eq!(count, fast.fp().op_count().since(&mid), "{bits} bits: {label} counts");
                (got, count)
            };
            prop_assert_eq!(counted("mul", &|f| f.mul(&a, &b)).1, products(1));
            prop_assert_eq!(counted("square", &|f| f.square(&a)).1, products(1));
            // The eight-word field takes short exponents, which keeps its
            // heap twin's run short.
            let [mid, wide] = if bits >= 512 {
                [32, 64]
            } else {
                [q_bits, 64 * bits.div_ceil(64) + 64]
            };
            for e in [
                BigUint::zero(),
                BigUint::one(),
                BigUint::random_bits(&mut rng, mid),
                BigUint::random_bits(&mut rng, wide),
            ] {
                let label = format!("exp by {} bits", e.bit_len());
                let (_, count) = counted(&label, &|f| f.exp(&a, &e));
                prop_assert_eq!(count, products(exp_products(&e)), "{} bits: {}", bits, label);
                // The T6 path on a torus element, against the binary method.
                let label = format!("exp_cyclotomic by {} bits", e.bit_len());
                let (power, _) = counted(&label, &|f| f.exp_cyclotomic(&torus, &e));
                prop_assert_eq!(power, fast.exp(&torus, &e), "{} bits: {}", bits, label);
            }
            counted("inv", &|f| f.inv(&a).unwrap());
            counted("norm", &|f| f.from_fp(f.norm(&a)));
        }
    }
}
