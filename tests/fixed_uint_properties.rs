//! Differential proptests pinning the fixed-width backend to `BigUint`.
//!
//! For random operands at 4, 5 and 8 limbs, every `Uint<LIMBS>` operation —
//! add/sub with carries, widening multiplication, modular reduction,
//! Montgomery multiplication, squaring and exponentiation, public and
//! secret — round-trips through `BigUint` and matches the heap result
//! exactly, including the carry-chain boundary cases (`MAX` limbs, operands
//! equal to the modulus, zero). At 5 limbs `MontgomeryParams` has no stack
//! context, so its exponentiations run on the heap reference.
//!
//! The reference values are rebuilt with independent heap arithmetic
//! (`shl_bits` + add for packing, `bignum::modular` and `MontgomeryParams`
//! for the modular ops), so a packing bug in the conversions cannot mask
//! itself.

use bignum::fixed::{self, MontgomeryContext, Uint};
use bignum::{mod_add, mod_exp, mod_mul, mod_neg, mod_sub, BigUint, MontgomeryParams};
use proptest::prelude::*;

/// Packs limbs into a `BigUint` without using the conversions under test.
fn big_from_limbs(limbs: &[u64]) -> BigUint {
    let mut acc = BigUint::zero();
    for &l in limbs.iter().rev() {
        acc = &acc.shl_bits(64) + &BigUint::from(l);
    }
    acc
}

/// Differentially checks every `Uint` operation at one width.
fn check_ops<const L: usize>(a_limbs: [u64; L], b_limbs: [u64; L], e: u64) {
    let a = Uint::from_limbs(a_limbs);
    let b = Uint::from_limbs(b_limbs);
    let big_a = big_from_limbs(&a_limbs);
    let big_b = big_from_limbs(&b_limbs);
    let width = BigUint::one().shl_bits(Uint::<L>::BITS);

    // Conversion round-trips, in both directions.
    assert_eq!(a.to_biguint(), big_a);
    assert_eq!(Uint::<L>::from_biguint(&big_a), Some(a));

    // Structural queries agree with the heap representation.
    assert_eq!(a.bit_len(), big_a.bit_len());
    assert_eq!(a.is_zero(), big_a.is_zero());
    assert_eq!(a.is_odd(), big_a.is_odd());
    assert_eq!(a.cmp(&b), big_a.cmp(&big_b));
    for i in [0usize, 1, 63, 64, Uint::<L>::BITS - 1, Uint::<L>::BITS + 7] {
        assert_eq!(a.bit(i), big_a.bit(i), "bit {i}");
    }

    // Addition with carry out.
    let (sum, carry) = a.carrying_add(&b, 0);
    let big_sum = &big_a + &big_b;
    assert_eq!(
        &sum.to_biguint() + &BigUint::from(carry).shl_bits(Uint::<L>::BITS),
        big_sum
    );
    let (sum1, carry1) = a.carrying_add(&b, 1);
    assert_eq!(
        &sum1.to_biguint() + &BigUint::from(carry1).shl_bits(Uint::<L>::BITS),
        &big_sum + &BigUint::one()
    );

    // Subtraction with borrow out.
    let (diff, borrow) = a.borrowing_sub(&b, 0);
    if big_a >= big_b {
        assert_eq!(borrow, 0);
        assert_eq!(diff.to_biguint(), &big_a - &big_b);
        assert_eq!(a.checked_sub(&b), Some(diff));
    } else {
        assert_eq!(borrow, 1);
        assert_eq!(diff.to_biguint(), &(&width + &big_a) - &big_b);
        assert_eq!(a.checked_sub(&b), None);
    }

    // Widening multiplication: lo + hi·2^BITS is the exact product.
    let (lo, hi) = a.mul_wide(&b);
    assert_eq!(
        &lo.to_biguint() + &hi.to_biguint().shl_bits(Uint::<L>::BITS),
        &big_a * &big_b
    );

    // Modular ops against `bignum::modular`, with the modulus forced odd
    // (for the Montgomery contexts) and the operands reduced.
    let mut m_limbs = b_limbs;
    if L > 0 {
        m_limbs[0] |= 1;
    }
    let big_m = big_from_limbs(&m_limbs);
    if big_m <= BigUint::one() {
        return;
    }
    let m = Uint::from_limbs(m_limbs);
    let big_ar = &big_a % &big_m;
    let big_br = &(&big_a + &big_b) % &big_m; // a second reduced operand
    let ar = Uint::<L>::from_biguint(&big_ar).expect("reduced residue fits");
    let br = Uint::<L>::from_biguint(&big_br).expect("reduced residue fits");

    assert_eq!(
        fixed::add_mod(&ar, &br, &m).to_biguint(),
        mod_add(&big_ar, &big_br, &big_m)
    );
    assert_eq!(
        fixed::sub_mod(&ar, &br, &m).to_biguint(),
        mod_sub(&big_ar, &big_br, &big_m)
    );
    assert_eq!(
        fixed::neg_mod(&ar, &m).to_biguint(),
        mod_neg(&big_ar, &big_m)
    );

    // Reduction of the full double-width product, and of unreduced operands.
    let (plo, phi) = a.mul_wide(&b);
    assert_eq!(
        fixed::reduce_wide(&plo, &phi, &m).to_biguint(),
        &(&big_a * &big_b) % &big_m
    );
    assert_eq!(
        fixed::mul_mod(&a, &b, &m).to_biguint(),
        mod_mul(&big_a, &big_b, &big_m)
    );

    // Montgomery multiplication and exponentiation against both the plain
    // modular reference and the heap Montgomery backend.
    let ctx = MontgomeryContext::<L>::new(&big_m).expect("odd modulus > 1 fits");
    let heap = MontgomeryParams::new(&big_m).expect("odd modulus > 1");
    let am = ctx.to_mont(&ar);
    let bm = ctx.to_mont(&br);
    assert_eq!(ctx.from_mont(&am), ar, "to/from Montgomery round-trip");
    assert_eq!(
        ctx.from_mont(&ctx.mont_mul(&am, &bm)).to_biguint(),
        mod_mul(&big_ar, &big_br, &big_m)
    );
    assert_eq!(
        ctx.from_mont(&ctx.mont_mul(&am, &bm)).to_biguint(),
        heap.from_mont(&heap.mont_mul(&heap.to_mont(&big_ar), &heap.to_mont(&big_br)))
    );
    assert_eq!(ctx.mont_sqr(&am), ctx.mont_mul(&am, &am), "square");
    let exp = Uint::<L>::from_u64(e);
    let power = mod_exp(&big_ar, &BigUint::from(e), &big_m);
    assert_eq!(ctx.mod_exp(&ar, &exp).to_biguint(), power);
    assert_eq!(heap.mod_exp(&big_ar, &BigUint::from(e)), power);
    // The regular window covers the modulus's length, which the exponent
    // must not exceed.
    if BigUint::from(e).bit_len() <= big_m.bit_len() {
        assert_eq!(heap.mod_exp_secret(&big_ar, &BigUint::from(e)), power);
    }
}

/// The boundary values the proptest generators rarely hit by chance.
const EDGE_LIMBS: [u64; 3] = [0, 1, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn limb_primitives_match_u128(a in any::<u64>(), b in any::<u64>(), c in 0u64..2) {
        let (s, carry) = fixed::carrying_add64(a, b, c);
        prop_assert_eq!(s as u128 + ((carry as u128) << 64), a as u128 + b as u128 + c as u128);
        let (d, borrow) = fixed::borrowing_sub64(a, b, c);
        prop_assert_eq!(
            (a as u128).wrapping_sub(b as u128).wrapping_sub(c as u128) & u128::from(u64::MAX),
            d as u128
        );
        prop_assert_eq!(borrow == 1, (a as u128) < b as u128 + c as u128);
        let (lo, hi) = fixed::widening_mul64(a, b);
        prop_assert_eq!(lo as u128 | ((hi as u128) << 64), a as u128 * b as u128);
        let (lo, hi) = fixed::mac64(a, b, c, u64::MAX);
        prop_assert_eq!(
            lo as u128 | ((hi as u128) << 64),
            a as u128 + (b as u128) * (c as u128) + u64::MAX as u128
        );
    }

    #[test]
    fn differential_at_4_limbs(
        a in prop::array::uniform4(any::<u64>()),
        b in prop::array::uniform4(any::<u64>()),
        e in any::<u64>(),
    ) {
        check_ops::<4>(a, b, e);
    }

    #[test]
    fn differential_at_5_limbs(
        a in prop::array::uniform5(any::<u64>()),
        b in prop::array::uniform5(any::<u64>()),
        e in any::<u64>(),
    ) {
        check_ops::<5>(a, b, e);
    }

    #[test]
    fn differential_at_8_limbs(
        a in prop::array::uniform8(any::<u64>()),
        b in prop::array::uniform8(any::<u64>()),
        e in any::<u64>(),
    ) {
        check_ops::<8>(a, b, e);
    }

    #[test]
    fn differential_at_carry_boundaries(
        sa in prop::array::uniform4(0usize..3),
        sb in prop::array::uniform4(0usize..3),
        e in any::<u64>(),
    ) {
        // Limbs drawn from {0, 1, MAX} exercise full-width carry chains
        // (e.g. MAX+MAX+1 rippling across every limb) far more often than
        // uniform sampling would.
        check_ops::<4>(sa.map(|s| EDGE_LIMBS[s]), sb.map(|s| EDGE_LIMBS[s]), e);
    }
}

#[test]
fn all_max_limbs_round_trip_exactly() {
    check_ops::<4>([u64::MAX; 4], [u64::MAX; 4], u64::MAX);
    check_ops::<5>([u64::MAX; 5], [u64::MAX; 5], u64::MAX);
    check_ops::<8>([u64::MAX; 8], [u64::MAX; 8], u64::MAX);
}

#[test]
fn zero_operands_round_trip_exactly() {
    check_ops::<4>([0; 4], [0; 4], 0);
    check_ops::<5>([0; 5], [1, 0, 0, 0, 0], 1);
    check_ops::<8>([0; 8], [u64::MAX; 8], 0);
}

#[test]
fn operands_equal_to_the_modulus_reduce_to_zero() {
    // m = 2^255 - 19-ish odd modulus; the operand *equal* to the modulus
    // must behave as zero through reduction, Montgomery conversion and
    // exponentiation.
    let m_limbs = [
        0xffff_ffff_ffff_ffedu64,
        u64::MAX,
        u64::MAX,
        0x7fff_ffff_ffff_ffff,
    ];
    let m = Uint::<4>::from_limbs(m_limbs);
    let big_m = big_from_limbs(&m_limbs);
    let ctx = MontgomeryContext::<4>::new(&big_m).unwrap();
    assert_eq!(fixed::reduce_wide(&m, &Uint::ZERO, &m), Uint::ZERO);
    assert_eq!(fixed::mul_mod(&m, &m, &m), Uint::ZERO);
    assert_eq!(ctx.to_mont(&m), Uint::ZERO);
    assert_eq!(ctx.mod_exp(&m, &Uint::from_u64(7)), Uint::ZERO);
    assert_eq!(
        ctx.mod_exp(&m, &Uint::from_u64(7)).to_biguint(),
        mod_exp(&big_m, &BigUint::from(7u64), &big_m)
    );
    assert!(
        ctx.mod_inv_prime(&m).is_none(),
        "multiple of p has no inverse"
    );
    // One below and one above the modulus straddle the reduction boundary.
    let below = m.wrapping_sub(&Uint::from_u64(1));
    let above = m.wrapping_add(&Uint::from_u64(1));
    assert_eq!(
        ctx.from_mont(&ctx.to_mont(&below)),
        below,
        "p - 1 is already reduced"
    );
    assert_eq!(
        ctx.from_mont(&ctx.to_mont(&above)),
        Uint::from_u64(1),
        "p + 1 reduces to 1"
    );
}
