//! Zero-allocation regression test for the fixed-width backend.
//!
//! The point of `bignum::fixed` is that the hot loops — Montgomery
//! multiplication, exponentiation, and the full scalar-multiplication
//! ladder — run entirely on stack arrays. This test installs a counting
//! global allocator and asserts that, after setup, those loops perform
//! **zero** heap allocations; a `Vec` sneaking back into the CIOS kernel or
//! the ladder would fail here immediately. The counter itself is
//! sanity-checked against the heap backend, which must allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use bignum::fixed::Uint;
use bignum::{BigUint, MontgomeryParams};
use ecc::ladder::Ladder;
use ecc::prelude::*;

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
    // Setup may allocate freely: curve construction, context setup, and the
    // BigUint conversions all happen before the measured window.
    let curve = Curve::from_parameters::<Secp256k1>().unwrap();
    let ctx = curve
        .fp()
        .fixed256()
        .expect("secp256k1 has a fixed backend");
    let residue = |e: &field::FpElement| Uint::<4>::from_biguint(e.mont_repr()).unwrap();
    let coefficient = residue(curve.a());
    let ladder = Ladder::new(ctx, &coefficient, curve.a_is_minus_three());
    let (gx, gy) = curve.base_point().coordinates().expect("G is finite");
    let (x, y) = (residue(gx), residue(gy));
    let scalar =
        BigUint::from_hex("4727b5cc3a1b2eff9db127aa7412a7641eb87a766e6c46cfe0f5ab7ad8b33bb2")
            .unwrap();
    let k = Uint::<4>::from_biguint(&scalar).unwrap();
    let a = ctx.to_mont(&x);
    let b = ctx.to_mont(&y);

    // The measured window: the CIOS kernel under sustained iteration, one
    // full exponentiation, one Fermat inversion, and one complete 256-bit
    // scalar-multiplication ladder with its return to affine form.
    let before = allocations();
    let mut acc = a;
    for _ in 0..1000 {
        acc = ctx.mont_mul(black_box(&acc), black_box(&b));
    }
    let powed = ctx.mont_pow(black_box(&acc), black_box(&k));
    let inverted = ctx.mont_inv_prime(black_box(&powed)).unwrap();
    let acc = ladder.double_and_add(black_box(&x), black_box(&y), black_box(&scalar));
    let point = ladder.to_affine(&acc);
    let after = allocations();

    black_box((acc, powed, inverted, point));
    assert_eq!(
        after - before,
        0,
        "fixed Montgomery/ladder loops must not allocate"
    );
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
