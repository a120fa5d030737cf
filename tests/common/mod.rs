//! Helpers shared by the integration suites.

use bignum::BigUint;

/// The 4-bit left-to-right sliding windows of `e`: how many there are, and
/// the lowest bit of the first one. Counted from the bits of `e` alone, as
/// an independent recount of the torus exponentiation's pinned counts.
pub fn windows(e: &BigUint) -> (u64, Option<usize>) {
    let (mut count, mut first, mut end) = (0, None, e.bit_len());
    while let Some(high) = (0..end).rev().find(|&i| e.bit(i)) {
        let low = (high.saturating_sub(3)..=high).find(|&i| e.bit(i)).unwrap();
        first.get_or_insert(low);
        count += 1;
        end = low;
    }
    (count, first)
}
