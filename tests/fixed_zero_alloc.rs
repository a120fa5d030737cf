//! Zero-allocation regression tests for the stack backend.
//!
//! The point of `bignum::fixed` is that the hot loops — Montgomery
//! multiplication, exponentiation, and the full scalar-multiplication
//! ladder — run entirely on stack arrays, at every width the paper uses.
//! These tests install a counting global allocator and assert that, after
//! setup, those loops perform **zero** heap allocations: on the raw 256-bit
//! context, through the counted `FpContext` at the paper's 160- and
//! 170-bit widths (field operations, the `Fp6` product and exponentiation,
//! the p160 ladder), through the whole public `CeilidhParams::pow` call at
//! 170 bits (the exponent's split at p included), and through the whole public `Curve::scalar_mul` call at 160
//! and 256 bits. A `Vec` sneaking back into the CIOS kernel, the field
//! element or the ladder would fail here immediately. RSA-size
//! exponentiations through `MontgomeryParams` may allocate only for their
//! conversions, a count that must not grow with the exponent, and so may
//! the platform simulator's Table 3 drivers (release builds only: debug
//! builds re-run every leaf at register level). The counter itself is
//! sanity-checked against the heap backend, which must allocate, and so
//! must the `heap_only` twins every differential suite compares against.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bignum::fixed::{MontgomeryContext, Uint};
use bignum::{BigUint, MontgomeryParams};
use ceilidh::CeilidhParams;
use common::windows;
use ecc::ladder::Ladder;
use ecc::prelude::*;
use field::{Fp6Context, FpContext};
use platform::{CostModel, Hierarchy, Platform};
use rand::SeedableRng;

thread_local! {
    /// Allocations observed on this thread (the test harness runs each
    /// test on its own thread, so other tests cannot interfere).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, with every allocation path counted per thread.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping is a thread-local
// `Cell` update, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn fixed_backend_loops_do_not_touch_the_heap() {
    // Setup may allocate freely: context setup and the BigUint conversions
    // all happen before the measured window.
    let p = BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .unwrap();
    let ctx = MontgomeryContext::<4>::new(&p).expect("the secp256k1 prime fits four words");
    let scalar =
        BigUint::from_hex("4727b5cc3a1b2eff9db127aa7412a7641eb87a766e6c46cfe0f5ab7ad8b33bb2")
            .unwrap();
    let k = Uint::<4>::from_biguint(&scalar).unwrap();
    let a = ctx.to_mont(&Uint::from_u64(0x79be_667e));
    let b = ctx.to_mont(&Uint::from_u64(0x483a_da77));

    // The measured window: the CIOS kernel under sustained iteration, one
    // full exponentiation and one Fermat inversion.
    let before = allocations();
    let mut acc = a;
    for _ in 0..1000 {
        acc = ctx.mont_mul(black_box(&acc), black_box(&b));
    }
    let powed = ctx.mont_pow(black_box(&acc), black_box(&k));
    let inverted = ctx.mont_inv_prime(black_box(&powed)).unwrap();
    let after = allocations();

    black_box((acc, powed, inverted));
    assert_eq!(
        after - before,
        0,
        "fixed Montgomery loops must not allocate"
    );
}

#[test]
fn public_scalar_mul_does_not_touch_the_heap() {
    // The whole call: lowering the operands, the ladder, its inversion,
    // lifting the result and the one counter update.
    let k = BigUint::from_hex("9f3c0a55e4d2b8a17c66f0e1d2c3b4a5968778aa").unwrap();
    for curve in [
        Curve::from_parameters::<Secp256k1>().unwrap(),
        Curve::from_parameters::<P256>().unwrap(),
        Curve::p160_reproduction().unwrap(),
    ] {
        let g = curve.base_point();
        let before = curve.fp().op_count();
        let call = allocations_in(|| {
            curve.scalar_mul(
                black_box(g),
                black_box(&k),
                ScalarMulAlgorithm::DoubleAndAdd,
            )
        });
        assert_eq!(call, 0, "{}: scalar_mul", curve.name());
        let counted = curve.fp().op_count().since(&before);
        assert!(
            counted.mul > 1000,
            "{}: the call records counts",
            curve.name()
        );
        assert_eq!(counted.inv, 1, "{}: one inversion", curve.name());
    }
}

/// Allocations made by `f`, with its result kept alive until after the
/// count.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocations();
    let out = f();
    let after = allocations();
    black_box(out);
    after - before
}

/// The paper's two field widths: the 160-bit ECC prime and the 170-bit
/// CEILIDH prime, each with its field context.
fn paper_fields() -> [(&'static str, FpContext); 2] {
    let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    [
        ("p160", curve.fp().clone()),
        ("ceilidh-170", params.fp().clone()),
    ]
}

#[test]
fn field_operations_at_the_paper_widths_do_not_touch_the_heap() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0a11);
    for (name, fp) in paper_fields() {
        let a = fp.random(&mut rng);
        let b = fp.random(&mut rng);
        let e = BigUint::random_below(&mut rng, fp.modulus());
        let loops = allocations_in(|| {
            let mut acc = a.clone();
            for _ in 0..1000 {
                acc = fp.mul(black_box(&acc), black_box(&b));
                acc = fp.add(black_box(&acc), black_box(&a));
                acc = fp.sub(black_box(&acc), black_box(&b));
                acc = fp.neg(black_box(&acc));
            }
            acc
        });
        assert_eq!(loops, 0, "{name}: products, sums, differences, negations");
        let inverse = allocations_in(|| fp.inv(black_box(&a)));
        assert_eq!(inverse, 0, "{name}: inversion");
        let power = allocations_in(|| fp.exp(black_box(&a), black_box(&e)));
        assert_eq!(power, 0, "{name}: exponentiation");
    }
}

#[test]
fn the_fp6_product_and_torus_exponentiation_at_170_bits_do_not_touch_the_heap() {
    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xf6);
    let fp6 = params.fp6();
    let a = fp6.random(&mut rng);
    let b = fp6.random(&mut rng);
    let product = allocations_in(|| fp6.mul(black_box(&a), black_box(&b)));
    assert_eq!(product, 0, "one karatsuba-fp6 product");

    // Whole exponentiations by a q-sized exponent, through the field and
    // through the public torus API: one job each. The binary method costs
    // 18 multiplications per squaring and per set exponent bit. The torus
    // path splits e = e₀ + e₁·p and reads 4-bit windows of both digits: a
    // table of one 6 M squaring and 7 products, then one squaring per bit
    // below the first window and one product per further window.
    let (_, g) = params.random_subgroup_element(&mut rng);
    let e = BigUint::random_below(&mut rng, params.q());
    let products = (e.bit_len() + (0..e.bit_len()).filter(|&i| e.bit(i)).count()) as u64;
    let (e1, e0) = e.div_rem(params.p()).unwrap();
    let [(w0, low0), (w1, low1)] = [&e0, &e1].map(windows);
    let torus_squarings = 1 + low0.max(low1).unwrap() as u64;
    let torus_products = 7 + w0 + w1 - 1;
    let before = params.fp().op_count();
    let power = allocations_in(|| fp6.exp(black_box(&a), black_box(&e)));
    assert_eq!(power, 0, "Fp6Context::exp");
    let mid = params.fp().op_count();
    let torus = allocations_in(|| params.pow(black_box(&g), black_box(&e)));
    assert_eq!(torus, 0, "CeilidhParams::pow");
    assert_eq!(mid.since(&before).mul, 18 * products, "Fp6Context::exp");
    assert_eq!(
        params.fp().op_count().since(&mid).mul,
        6 * torus_squarings + 18 * torus_products,
        "CeilidhParams::pow"
    );
}

#[test]
fn the_counted_p160_ladder_loop_does_not_touch_the_heap() {
    let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
    let ladder = Ladder::new(curve.fp(), curve.a(), curve.a_is_minus_three());
    let (x, y) = curve.base_point().coordinates().expect("G is finite");
    let k = BigUint::from_hex("9f3c0a55e4d2b8a17c66f0e1d2c3b4a5968778aa").unwrap();
    curve.fp().reset_op_count();
    let ladder_loop = allocations_in(|| ladder.double_and_add(black_box(x), black_box(y), &k));
    assert_eq!(ladder_loop, 0, "p160 double-and-add on FpContext");
    assert!(curve.fp().op_count().mul > 1000, "the ladder ran, counted");
}

#[test]
fn rsa_size_exponentiations_allocate_a_fixed_number_of_times() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2fa);
    for bits in [512, 1024] {
        let n = &BigUint::random_bits(&mut rng, bits - 1) + &BigUint::one().shl_bits(bits - 1);
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        assert_eq!(n.bit_len(), bits);
        let mont = MontgomeryParams::new(&n).unwrap();
        let base = BigUint::random_below(&mut rng, &n);
        let short = BigUint::from(65_537u64);
        let long = BigUint::random_below(&mut rng, &n);
        let few = allocations_in(|| mont.mod_exp(black_box(&base), black_box(&short)));
        let many = allocations_in(|| mont.mod_exp(black_box(&base), black_box(&long)));
        assert_eq!(few, many, "{bits} bits: allocations grow with the exponent");
        assert!(few <= 4, "{bits} bits: {few} allocations for one mod_exp");
    }
}

/// The Table 3 drivers compute every step on the stack words of the
/// modulus's width and read each leaf price once per call: past a warm-up
/// call, a driver's allocations (its domain, banks and conversions) do not
/// grow with the exponent or the scalar.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds cross-check every leaf at register level, which allocates on every step"
)]
fn platform_drivers_allocate_a_fixed_number_of_times() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd21);
    let plat = Platform::new(CostModel::paper(), 4, Hierarchy::TypeB);

    let n = &BigUint::random_bits(&mut rng, 1023) + &BigUint::one().shl_bits(1023);
    let n = if n.is_even() { &n + &BigUint::one() } else { n };
    let m = BigUint::random_below(&mut rng, &n);
    let [d_short, d_long] = [17, 1024]
        .map(|bits| &BigUint::random_bits(&mut rng, bits - 1) + &BigUint::one().shl_bits(bits - 1));
    plat.rsa_exponentiation(&n, &m, &d_long);
    let few = allocations_in(|| plat.rsa_exponentiation(black_box(&n), &m, black_box(&d_short)));
    let many = allocations_in(|| plat.rsa_exponentiation(black_box(&n), &m, black_box(&d_long)));
    assert_eq!(few, many, "RSA-1024: 17-bit vs 1024-bit exponent");

    let curve = Curve::p160_reproduction().expect("built-in 160-bit curve");
    let point = curve.random_point(&mut rng);
    let [k_short, k_long] = [16, 160]
        .map(|bits| &BigUint::random_bits(&mut rng, bits - 1) + &BigUint::one().shl_bits(bits - 1));
    plat.ecc_scalar_multiplication(&curve, &point, &k_long);
    let few =
        allocations_in(|| plat.ecc_scalar_multiplication(&curve, &point, black_box(&k_short)));
    let many =
        allocations_in(|| plat.ecc_scalar_multiplication(&curve, &point, black_box(&k_long)));
    assert_eq!(few, many, "ECC-160 Type-B ladder: 16-bit vs 160-bit scalar");

    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    let (_, g) = params.random_subgroup_element(&mut rng);
    let [e_short, e_long] = [8, 170]
        .map(|bits| &BigUint::random_bits(&mut rng, bits - 1) + &BigUint::one().shl_bits(bits - 1));
    plat.torus_exponentiation(&params, &g, &e_long);
    let few = allocations_in(|| plat.torus_exponentiation(&params, &g, black_box(&e_short)));
    let many = allocations_in(|| plat.torus_exponentiation(&params, &g, black_box(&e_long)));
    assert_eq!(few, many, "torus-170: 8-bit vs 170-bit exponent");
}

#[test]
fn the_counter_itself_observes_heap_traffic() {
    // If the counting allocator were wired up wrong, the test above would
    // pass vacuously; the heap backend doing the same multiplication must
    // be seen allocating.
    let p = BigUint::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .unwrap();
    let heap = MontgomeryParams::new(&p).unwrap();
    let a = heap.to_mont(&BigUint::from(123_456_789u64));
    let before = allocations();
    let product = heap.mont_mul(black_box(&a), black_box(&a));
    let after = allocations();
    black_box(product);
    assert!(
        after > before,
        "heap Montgomery multiplication should allocate (counter sanity check)"
    );
}

/// The `heap_only` twin runs every job on the heap FIOS reference, so the
/// differential suites that compare against it do not compare the stack
/// context with itself: at 160, 170 and 256 bits a twin product, a twin
/// `Fp6` product and the twin ladder behind `Curve::scalar_mul_reference`
/// allocate, and the same calls on the fast context do not. The 160- and
/// 256-bit towers run over the primes 2^159 + 795 and 2^255 + 1155
/// (≡ 2 mod 9); no registered curve has a 170-bit field.
#[test]
fn the_heap_twin_allocates_where_the_fast_context_does_not() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7a1);
    let tower = |bits: usize, offset: u64| {
        let p = &BigUint::one().shl_bits(bits - 1) + &BigUint::from(offset);
        Fp6Context::new(FpContext::new(&p).unwrap()).unwrap()
    };
    let params = CeilidhParams::date2008().expect("built-in CEILIDH-170 parameters");
    let k = BigUint::from_hex("9f3c0a55e4d2b8a17c66f0e1d2c3b4a5968778aa").unwrap();
    for (fp6, curve) in [
        (tower(160, 795), Some(Curve::p160_reproduction().unwrap())),
        (params.fp6().clone(), None),
        (
            tower(256, 1155),
            Some(Curve::from_parameters::<P256>().unwrap()),
        ),
    ] {
        let bits = fp6.fp().bit_len();
        let twin6 = Fp6Context::new(fp6.fp().heap_only()).unwrap();
        let (a, b) = (fp6.random(&mut rng), fp6.random(&mut rng));
        let (x, y) = (&a.coeffs()[0], &b.coeffs()[0]);
        let mut fast = vec![
            allocations_in(|| fp6.fp().mul(black_box(x), black_box(y))),
            allocations_in(|| fp6.mul(black_box(&a), black_box(&b))),
        ];
        let mut twin = vec![
            allocations_in(|| twin6.fp().mul(black_box(x), black_box(y))),
            allocations_in(|| twin6.mul(black_box(&a), black_box(&b))),
        ];
        if let Some(curve) = curve {
            // `scalar_mul_reference` is this call on a fresh twin, whose
            // construction allocates whatever its ladder runs on.
            let heap = curve.heap_only();
            let (g, algorithm) = (curve.base_point(), ScalarMulAlgorithm::DoubleAndAdd);
            fast.push(allocations_in(|| {
                curve.scalar_mul(g, black_box(&k), algorithm)
            }));
            twin.push(allocations_in(|| {
                heap.scalar_mul(g, black_box(&k), algorithm)
            }));
        }
        assert!(fast.iter().all(|&n| n == 0), "{bits} bits: fast {fast:?}");
        assert!(twin.iter().all(|&n| n > 0), "{bits} bits: twin {twin:?}");
    }
}
