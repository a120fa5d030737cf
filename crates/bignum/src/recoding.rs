//! Exponent and scalar recodings, each written once: a recoding turns
//! exponents into a top-down stream of [`Step`]s, which every
//! exponentiation and ladder, host and simulator, folds with its own
//! element and product.
//!
//! A stream opens with the squarings of its first digit, so it serves two
//! starts: [`crate::square_and_multiply`] squares from one and counts
//! them; the torus exponentiation, the ladders and the window
//! exponentiations start from an empty accumulator (the point at
//! infinity), skip them and take the first entry as it is. Each recoding
//! says what its table holds. [`binary`], [`sliding_window`] and
//! [`fixed_window`] keep O(1) state and allocate nothing; [`naf`] carries
//! from the least significant bit, so it collects its digits once.

use crate::fixed::Uint;
use crate::uint::BigUint;

/// The bits of an exponent, as a recoding reads them.
pub trait ExponentBits {
    /// The number of significant bits.
    fn bit_len(&self) -> usize;

    /// Bit `i`, where bit 0 is the least significant.
    fn bit(&self, i: usize) -> bool;
}

impl ExponentBits for BigUint {
    fn bit_len(&self) -> usize {
        BigUint::bit_len(self)
    }

    fn bit(&self, i: usize) -> bool {
        BigUint::bit(self, i)
    }
}

impl<const L: usize> ExponentBits for Uint<L> {
    fn bit_len(&self) -> usize {
        Uint::bit_len(self)
    }

    fn bit(&self, i: usize) -> bool {
        Uint::bit(self, i)
    }
}

/// One step of a recoding: square (or double) the accumulator, or
/// multiply it by (add to it) an entry of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Square the accumulator.
    Square,
    /// Multiply the accumulator by an entry of a table.
    Multiply {
        /// The table, one per exponent of the stream.
        table: usize,
        /// The entry; the recoding says which power of the table's base
        /// it holds.
        index: usize,
        /// Whether the digit, and so the entry, is negated.
        negate: bool,
    },
}

/// The binary method: the one-bit [`sliding_window`], a squaring per bit
/// of `exp` from its top and a product by entry 0 of table 0, the base
/// itself, per set bit.
pub fn binary<E: ExponentBits>(exp: &E) -> impl Iterator<Item = Step> + '_ {
    sliding_window(std::array::from_ref(exp), 1)
}

/// Left-to-right sliding windows of at most `width` bits over `N`
/// exponents that share one squaring per bit. Each table holds the odd
/// powers: entry `i` is the power `2·i + 1` of its exponent's base. An odd
/// window of `value` ends at its lowest bit with a product by entry
/// `value / 2` of its exponent's table, after that bit's squaring and in
/// exponent order. Panics unless `0 < width < usize::BITS`.
pub fn sliding_window<E: ExponentBits, const N: usize>(
    exps: &[E; N],
    width: usize,
) -> impl Iterator<Item = Step> + '_ {
    assert!((1..usize::BITS as usize).contains(&width), "window width");
    let mut windows = exps.each_ref().map(|e| next_window(e, e.bit_len(), width));
    let (mut at, mut squared) = (windows.iter().flatten().map(|&(low, _)| low).max(), false);
    std::iter::from_fn(move || loop {
        let bit = at?;
        if !squared {
            squared = true;
            return Some(Step::Square);
        }
        let ending = windows
            .iter()
            .position(|w| w.is_some_and(|(low, _)| low == bit));
        if let Some(table) = ending {
            let (_, value) = windows[table].expect("a window ends at this bit");
            windows[table] = next_window(&exps[table], bit, width);
            return Some(Step::Multiply {
                table,
                index: value / 2,
                negate: false,
            });
        }
        (at, squared) = (bit.checked_sub(1), false);
    })
}

/// The highest window of `exp` below bit `end`: its lowest bit and its
/// value, odd and at most `width` bits wide. `None` when no bit below
/// `end` is set.
fn next_window(exp: &impl ExponentBits, end: usize, width: usize) -> Option<(usize, usize)> {
    let high = (0..end).rev().find(|&i| exp.bit(i))?;
    let low = (high.saturating_sub(width - 1)..high)
        .find(|&i| exp.bit(i))
        .unwrap_or(high);
    let value = (low..=high)
        .rev()
        .fold(0, |v, i| 2 * v + usize::from(exp.bit(i)));
    Some((low, value))
}

/// A regular window over `bits` bits: `⌈bits/width⌉` digits of `width`
/// bits, top down, each `width` squarings and then a product by table 0's
/// entry of the digit itself, zero included. The table holds every power:
/// entry `i` is the power `i` of the base. Which steps run depends on
/// `bits` and `width` alone, never on the exponent's bits, so a secret
/// exponent can run on it.
///
/// # Panics
///
/// Panics unless `0 < width < usize::BITS` and `exp` has at most `bits`
/// bits.
pub fn fixed_window<E: ExponentBits>(
    exp: &E,
    bits: usize,
    width: usize,
) -> impl Iterator<Item = Step> + '_ {
    assert!((1..usize::BITS as usize).contains(&width), "window width");
    assert!(exp.bit_len() <= bits, "the exponent fits in `bits` bits");
    // The digits not yet ended, and the squarings out of the next one.
    let (mut digits, mut squared) = (bits.div_ceil(width), 0);
    std::iter::from_fn(move || {
        let digit = digits.checked_sub(1)?;
        if squared < width {
            squared += 1;
            return Some(Step::Square);
        }
        (digits, squared) = (digit, 0);
        let index = (digit * width..(digit + 1) * width)
            .rev()
            .fold(0, |v, i| 2 * v + usize::from(exp.bit(i)));
        Some(Step::Multiply {
            table: 0,
            index,
            negate: false,
        })
    })
}

/// The non-adjacent form of `k`, left to right: a squaring per digit and a
/// product by entry 0 of table 0, the base itself, per non-zero digit,
/// negated for −1.
pub fn naf(k: &impl ExponentBits) -> impl Iterator<Item = Step> {
    // Digits pop most significant first; a non-zero one's product waits.
    let (mut digits, mut pending) = (naf_digits(k), None);
    std::iter::from_fn(move || {
        pending.take().or_else(|| {
            let d = digits.pop()?;
            pending = (d != 0).then_some(Step::Multiply {
                table: 0,
                index: 0,
                negate: d < 0,
            });
            Some(Step::Square)
        })
    })
}

/// The NAF digits of `k`, least significant first: digit `i` is bit `i + 1`
/// of `3k` less bit `i + 1` of `k`. The sum `3k = k + 2k` carries from the
/// least significant bit, so the digits are collected before the stream
/// reads them top down.
fn naf_digits(k: &impl ExponentBits) -> Vec<i8> {
    let mut carry = 0;
    let mut digits: Vec<i8> = (1..=k.bit_len() + 1)
        .map(|j| {
            let sum = u8::from(k.bit(j)) + u8::from(k.bit(j - 1)) + carry;
            carry = sum >> 1;
            (sum & 1) as i8 - i8::from(k.bit(j))
        })
        .collect();
    // 3k has one or two bits more than k; with one, the top digit is 0.
    if digits.last() == Some(&0) {
        digits.pop();
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 8] = [0, 1, 2, 3, 7, 255, 1_000_003, u64::MAX];

    /// The power `2·index + 1` an odd-power table holds at `index`.
    fn odd(index: usize) -> i128 {
        2 * index as i128 + 1
    }

    /// The exponents a stream encodes over `N` tables whose entry `index`
    /// holds the power `power(index)`: each squaring doubles every one,
    /// and each product adds its signed digit to its table's.
    fn reconstruct<const N: usize>(steps: &[Step], power: fn(usize) -> i128) -> [i128; N] {
        steps.iter().fold([0; N], |mut acc, step| {
            if let Step::Multiply {
                table,
                index,
                negate,
            } = *step
            {
                let digit = power(index);
                acc[table] += if negate { -digit } else { digit };
            } else {
                acc = acc.map(|v| 2 * v);
            }
            acc
        })
    }

    #[test]
    fn binary_reconstructs_the_exponent() {
        for k in SAMPLES {
            let e = BigUint::from(k);
            let steps: Vec<_> = binary(&e).collect();
            assert_eq!(reconstruct(&steps, odd), [i128::from(k)]);
            let squarings = steps.iter().filter(|&&s| s == Step::Square).count();
            let muls = steps.len() - squarings;
            assert_eq!([squarings, muls], [e.bit_len(), k.count_ones() as usize]);
        }
    }

    #[test]
    fn naf_digits_reconstruct_the_scalar() {
        for k in SAMPLES {
            let steps: Vec<_> = naf(&BigUint::from(k)).collect();
            assert_eq!(reconstruct(&steps, odd), [i128::from(k)]);
            // Non-adjacency: no product follows another one squaring later.
            let adjacent = |w: &[Step]| w[0] != Step::Square && w[2] != Step::Square;
            assert!(!steps.windows(3).any(adjacent), "adjacent digits in {k}");
        }
    }

    #[test]
    fn fixed_windows_reconstruct_every_exponent_in_a_length_set_by_bits_and_width() {
        for width in 1..=6 {
            for bits in [64, 67] {
                for k in SAMPLES {
                    let steps: Vec<_> = fixed_window(&BigUint::from(k), bits, width).collect();
                    let power = |index: usize| index as i128;
                    assert_eq!(reconstruct(&steps, power), [i128::from(k)], "w = {width}");
                    let digits = bits.div_ceil(width);
                    assert_eq!(steps.len(), digits * (width + 1), "w = {width}");
                    // Every digit is `width` squarings and one product.
                    for (i, step) in steps.iter().enumerate() {
                        match *step {
                            Step::Square => assert_ne!(i % (width + 1), width),
                            Step::Multiply {
                                table,
                                index,
                                negate,
                            } => {
                                assert_eq!(i % (width + 1), width, "w = {width}");
                                assert!(table == 0 && !negate && index < 1 << width);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sliding_windows_reconstruct_every_exponent() {
        for width in 1..=6 {
            for (a, b) in SAMPLES.into_iter().zip(SAMPLES.into_iter().rev()) {
                let steps: Vec<_> =
                    sliding_window(&[BigUint::from(a), BigUint::from(b)], width).collect();
                let expected = [i128::from(a), i128::from(b)];
                assert_eq!(reconstruct(&steps, odd), expected, "w = {width}");
                for step in &steps {
                    if let Step::Multiply { index, negate, .. } = *step {
                        assert!(!negate && 2 * index < 1 << width, "w = {width}");
                    }
                }
                // The stream opens at the first window's entry.
                if let [first, second, ..] = steps[..] {
                    assert_eq!(first, Step::Square);
                    assert!(matches!(second, Step::Multiply { .. }), "w = {width}");
                }
            }
        }
    }
}
