//! Arbitrary-precision unsigned integers in radix 2^32.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Rem, Shl, Shr, Sub};
use std::str::FromStr;

use rand::Rng;

use crate::error::{DivideByZeroError, ParseBigUintError};
use crate::limb::{adc, mac, sbb, Limb, LIMB_BITS};

/// Threshold (in limbs) above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision unsigned integer.
///
/// Limbs are stored little-endian (least significant limb first) and the
/// representation is always normalised: the most significant limb is
/// non-zero, and zero is represented by an empty limb vector.
///
/// # Example
///
/// ```
/// use bignum::BigUint;
///
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(32u64);
/// assert_eq!((&a * &b).to_string(), "320");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<Limb>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: &[Limb]) -> Self {
        let mut v = BigUint {
            limbs: limbs.to_vec(),
        };
        v.normalize();
        v
    }

    /// Returns the little-endian limbs of this value (no trailing zeros).
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// Returns the little-endian limbs padded with zeros to `len` limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` limbs.
    pub fn to_limbs_padded(&self, len: usize) -> Vec<Limb> {
        assert!(
            self.limbs.len() <= len,
            "value with {} limbs does not fit in {len} limbs",
            self.limbs.len()
        );
        let mut v = self.limbs.clone();
        v.resize(len, 0);
        v
    }

    /// Parses a hexadecimal string (upper or lower case, no prefix).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] if the string is empty or contains a
    /// non-hexadecimal character.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut out = BigUint::zero();
        for ch in s.chars() {
            let d = ch.to_digit(16).ok_or(ParseBigUintError::InvalidDigit(ch))?;
            out = out.shl_bits(4);
            out = &out + &BigUint::from(d as u64);
        }
        Ok(out)
    }

    /// Formats the value as a lowercase hexadecimal string without prefix.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Parses a big-endian byte string.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let limbs: Vec<Limb> = bytes
            .rchunks(LIMB_BITS / 8)
            .map(|chunk| chunk.iter().fold(0, |acc, &b| (acc << 8) | b as Limb))
            .collect();
        BigUint::from_limbs(&limbs)
    }

    /// Returns the minimal big-endian byte representation (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.limbs.len() * 4);
        for limb in &self.limbs {
            bytes.extend_from_slice(&limb.to_le_bytes());
        }
        while bytes.last() == Some(&0) {
            bytes.pop();
        }
        bytes.reverse();
        bytes
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize)
            }
        }
    }

    /// Returns the number of trailing zero bits (0 for zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * LIMB_BITS + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Generates a uniformly random value with exactly `bits` bits
    /// (most significant bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0, "cannot generate a 0-bit integer");
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * LIMB_BITS;
        let mask = if top_bits == LIMB_BITS {
            Limb::MAX
        } else {
            (1 << top_bits) - 1
        };
        v[limbs - 1] &= mask;
        v[limbs - 1] |= 1 << (top_bits - 1);
        BigUint::from_limbs(&v)
    }

    /// Generates a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> Self {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let limbs = bits.div_ceil(LIMB_BITS);
            let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs - 1) * LIMB_BITS;
            let mask = if top_bits == LIMB_BITS {
                Limb::MAX
            } else {
                (1 << top_bits) - 1
            };
            v[limbs - 1] &= mask;
            let candidate = BigUint::from_limbs(&v);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Computes `self^exp` for a small exponent (schoolbook, no modulus).
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Checked subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            None
        } else {
            Some(self.sub_unchecked(other))
        }
    }

    /// Divides by `divisor`, returning `(quotient, remainder)`.
    ///
    /// # Errors
    ///
    /// Returns [`DivideByZeroError`] when `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), DivideByZeroError> {
        if divisor.is_zero() {
            return Err(DivideByZeroError);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return Ok((q, BigUint::from(r as u64)));
        }
        Ok(self.div_rem_knuth(divisor))
    }

    /// Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) for a divisor of at least
    /// two limbs and a dividend at least as large: one quotient limb per
    /// step, estimated from the top limbs and corrected at most twice, in
    /// three working buffers.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let n = divisor.limbs.len();
        let m = self.limbs.len();
        debug_assert!(n >= 2 && m >= n);
        // D1: shift both operands so the divisor's top limb has its top bit
        // set, which bounds each estimate's error to two.
        let shift = divisor.limbs[n - 1].leading_zeros();
        let shifted = |limbs: &[Limb], len: usize| -> Vec<Limb> {
            let mut out = vec![0 as Limb; len];
            for (i, &l) in limbs.iter().enumerate() {
                out[i] |= l << shift;
                if shift > 0 && i + 1 < len {
                    out[i + 1] |= l >> (LIMB_BITS as u32 - shift);
                }
            }
            out
        };
        let v = shifted(&divisor.limbs, n);
        let mut u = shifted(&self.limbs, m + 1);
        let mut q = vec![0 as Limb; m - n + 1];
        let base = 1u64 << LIMB_BITS;
        let (v_top, v_next) = (v[n - 1] as u64, v[n - 2] as u64);
        for j in (0..=m - n).rev() {
            // D3: estimate the quotient limb from the top two remainder limbs.
            let top = ((u[j + n] as u64) << LIMB_BITS) | u[j + n - 1] as u64;
            let mut q_hat = top / v_top;
            let mut r_hat = top % v_top;
            while q_hat >= base || q_hat * v_next > ((r_hat << LIMB_BITS) | u[j + n - 2] as u64) {
                q_hat -= 1;
                r_hat += v_top;
                if r_hat >= base {
                    break;
                }
            }
            // D4: subtract q̂ · v from the remainder window.
            let mut borrow: i64 = 0;
            for i in 0..n {
                let p = q_hat * v[i] as u64;
                let t = u[i + j] as i64 - borrow - (p & 0xffff_ffff) as i64;
                u[i + j] = t as Limb;
                borrow = (p >> LIMB_BITS) as i64 - (t >> LIMB_BITS);
            }
            let t = u[j + n] as i64 - borrow;
            u[j + n] = t as Limb;
            q[j] = q_hat as Limb;
            // D6: the estimate was one too large; add v back.
            if t < 0 {
                q[j] -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let t = u[i + j] as u64 + v[i] as u64 + carry;
                    u[i + j] = t as Limb;
                    carry = t >> LIMB_BITS;
                }
                u[j + n] = u[j + n].wrapping_add(carry as Limb);
            }
        }
        // D8: the remainder is the low window, shifted back.
        let mut r = vec![0 as Limb; n];
        for (i, slot) in r.iter_mut().enumerate() {
            *slot = u[i] >> shift;
            if shift > 0 {
                *slot |= u[i + 1] << (LIMB_BITS as u32 - shift);
            }
        }
        (BigUint::from_limbs(&q), BigUint::from_limbs(&r))
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem_limb(&self, divisor: Limb) -> (BigUint, Limb) {
        assert!(divisor != 0, "division by zero");
        let d = divisor as u64;
        let mut rem: u64 = 0;
        let mut q = vec![0 as Limb; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << LIMB_BITS) | self.limbs[i] as u64;
            q[i] = (cur / d) as Limb;
            rem = cur % d;
        }
        (BigUint::from_limbs(&q), rem as Limb)
    }

    /// Left shift by `bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut out = vec![0 as Limb; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            if bit_shift == 0 {
                out[i + limb_shift] |= l;
            } else {
                out[i + limb_shift] |= l << bit_shift;
                out[i + limb_shift + 1] |= l >> (LIMB_BITS - bit_shift);
            }
        }
        BigUint::from_limbs(&out)
    }

    /// Right shift by `bits`.
    pub fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = vec![0 as Limb; self.limbs.len() - limb_shift];
        for (i, slot) in out.iter_mut().enumerate() {
            let lo = self.limbs[i + limb_shift];
            let hi = if i + limb_shift + 1 < self.limbs.len() {
                self.limbs[i + limb_shift + 1]
            } else {
                0
            };
            *slot = if bit_shift == 0 {
                lo
            } else {
                (lo >> bit_shift) | (hi << (LIMB_BITS - bit_shift))
            };
        }
        BigUint::from_limbs(&out)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    fn add_impl(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0;
        for i in 0..n {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s, c) = adc(a, b, carry);
            out.push(s);
            carry = c;
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(&out)
    }

    fn sub_unchecked(&self, other: &BigUint) -> BigUint {
        debug_assert!(self >= other);
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d, br) = sbb(a, b, borrow);
            out.push(d);
            borrow = br;
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(&out)
    }

    fn mul_impl(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            return self.karatsuba(other);
        }
        self.schoolbook_mul(other)
    }

    fn schoolbook_mul(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0 as Limb; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let (lo, hi) = mac(out[i + j], a, b, carry);
                out[i + j] = lo;
                carry = hi;
            }
            out[i + other.limbs.len()] = carry;
        }
        BigUint::from_limbs(&out)
    }

    fn karatsuba(&self, other: &BigUint) -> BigUint {
        let half = self.limbs.len().max(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at_limb(half);
        let (b0, b1) = other.split_at_limb(half);
        let z0 = a0.mul_impl(&b0);
        let z2 = a1.mul_impl(&b1);
        let z1 = (&a0 + &a1).mul_impl(&(&b0 + &b1));
        // z1 - z0 - z2 is always non-negative.
        let mid = z1.sub_unchecked(&z0).sub_unchecked(&z2);
        &(&z0 + &mid.shl_bits(half * LIMB_BITS)) + &z2.shl_bits(2 * half * LIMB_BITS)
    }

    fn split_at_limb(&self, at: usize) -> (BigUint, BigUint) {
        if at >= self.limbs.len() {
            (self.clone(), BigUint::zero())
        } else {
            (
                BigUint::from_limbs(&self.limbs[..at]),
                BigUint::from_limbs(&self.limbs[at..]),
            )
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(&[v as Limb, (v >> 32) as Limb])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_limbs(&[v])
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_impl(rhs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        self.add_impl(&rhs)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics if `rhs > self` (the result would be negative).
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_impl(rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_impl(&rhs)
    }
}

impl Div for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).expect("division by zero").0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).expect("division by zero").1
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        &self % &rhs
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        &self % rhs
    }
}

impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        &self + rhs
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        &self - rhs
    }
}

impl Mul<&BigUint> for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        &self * rhs
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, rhs: usize) -> BigUint {
        self.shl_bits(rhs)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, rhs: usize) -> BigUint {
        self.shr_bits(rhs)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^9 (the largest power of ten in a limb).
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_limb(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        for (i, chunk) in chunks.iter().enumerate().rev() {
            if i == chunks.len() - 1 {
                s.push_str(&chunk.to_string());
            } else {
                s.push_str(&format!("{chunk:09}"));
            }
        }
        write!(f, "{s}")
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl fmt::UpperHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex().to_uppercase())
    }
}

impl fmt::Binary for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for i in (0..self.bit_len()).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    /// Parses a decimal string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut out = BigUint::zero();
        let ten = BigUint::from(10u64);
        for ch in s.chars() {
            let d = ch.to_digit(10).ok_or(ParseBigUintError::InvalidDigit(ch))?;
            out = &(&out * &ten) + &BigUint::from(d as u64);
        }
        Ok(out)
    }
}

impl std::iter::Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> Self {
        iter.fold(BigUint::zero(), |acc, x| &acc + &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_str(s).unwrap()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn from_and_to_u64() {
        let v = BigUint::from(0xDEAD_BEEF_1234_5678u64);
        assert_eq!(v.to_u64(), Some(0xDEAD_BEEF_1234_5678));
        assert_eq!(v.bit_len(), 64);
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from_hex("deadbeef0123456789abcdef").unwrap();
        assert_eq!(v.to_hex(), "deadbeef0123456789abcdef");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("").is_err());
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn decimal_roundtrip() {
        let v = big("123456789012345678901234567890");
        assert_eq!(v.to_string(), "123456789012345678901234567890");
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = BigUint::from_hex("0102030405060708090a").unwrap();
        assert_eq!(v.to_be_bytes(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(BigUint::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(BigUint::from_be_bytes(&[]), BigUint::zero());
        assert_eq!(BigUint::from_be_bytes(&[0, 0, 0, 0, 0, 1]), BigUint::one());
    }

    #[test]
    fn addition_and_subtraction() {
        let a = big("340282366920938463463374607431768211455");
        let b = big("18446744073709551615");
        let sum = &a + &b;
        assert_eq!(&sum - &b, a);
        assert_eq!(&sum - &a, b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from(2u64);
    }

    #[test]
    fn multiplication_matches_u128() {
        let a = 0xFFFF_FFFF_FFFFu64;
        let b = 0x1234_5678_9ABCu64;
        let prod = (a as u128) * (b as u128);
        let got = &BigUint::from(a) * &BigUint::from(b);
        assert_eq!(got.to_hex(), format!("{prod:x}"));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let a = BigUint::random_bits(&mut rng, 2000);
            let b = BigUint::random_bits(&mut rng, 1800);
            assert_eq!(a.schoolbook_mul(&b), a.karatsuba(&b));
        }
    }

    #[test]
    fn division_basics() {
        let a = big("123456789012345678901234567890");
        let b = big("987654321");
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
        assert!(a.div_rem(&BigUint::zero()).is_err());
        // Dividend smaller than divisor.
        let (q, r) = b.div_rem(&a).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, b);
    }

    #[test]
    fn long_division_satisfies_the_defining_identity() {
        // Limbs drawn from the values that stress quotient estimation
        // (including the rare add-back step) as well as random ones.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd1d);
        let special = [0, 1, 2, 0x7fff_ffff, 0x8000_0000, 0xffff_fffe, 0xffff_ffff];
        let limbs = |len: usize, rng: &mut rand::rngs::StdRng| -> BigUint {
            let v: Vec<Limb> = (0..len)
                .map(|_| match rng.gen_range(0..3usize) {
                    0 => rng.gen(),
                    _ => special[rng.gen_range(0..special.len())],
                })
                .collect();
            BigUint::from_limbs(&v)
        };
        for _ in 0..4000 {
            let n = rng.gen_range(2..12usize);
            let a = limbs(n + rng.gen_range(0..12usize), &mut rng);
            let b = limbs(n, &mut rng);
            if b.limbs().len() < 2 {
                continue;
            }
            let (q, r) = a.div_rem(&b).unwrap();
            assert!(r < b, "remainder below the divisor");
            assert_eq!(&(&q * &b) + &r, a, "a = q·b + r");
        }
    }

    #[test]
    fn division_by_limb() {
        let a = big("1000000000000000000000000000007");
        let (q, r) = a.div_rem_limb(7);
        assert_eq!(&(&q * &BigUint::from(7u64)) + &BigUint::from(r as u64), a);
    }

    #[test]
    fn shifts() {
        let v = BigUint::from(0b1011u64);
        assert_eq!(v.shl_bits(100).shr_bits(100), v);
        assert_eq!(v.shl_bits(3).to_u64(), Some(0b1011000));
        assert_eq!(v.shr_bits(2).to_u64(), Some(0b10));
        assert_eq!(v.shr_bits(64), BigUint::zero());
    }

    #[test]
    fn bit_accessors() {
        let v = BigUint::from_hex("8000000000000001").unwrap();
        assert!(v.bit(0));
        assert!(v.bit(63));
        assert!(!v.bit(32));
        assert!(!v.bit(1000));
        assert_eq!(v.bit_len(), 64);
        assert_eq!(v.trailing_zeros(), 0);
        assert_eq!(BigUint::from(8u64).trailing_zeros(), 3);
    }

    #[test]
    fn ordering() {
        let a = big("100000000000000000000");
        let b = big("99999999999999999999");
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn pow_small() {
        assert_eq!(BigUint::from(3u64).pow(5).to_u64(), Some(243));
        assert_eq!(BigUint::from(2u64).pow(100).bit_len(), 101);
        assert_eq!(BigUint::from(7u64).pow(0), BigUint::one());
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = rand::thread_rng();
        let bound = big("1000000007");
        for _ in 0..50 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = rand::thread_rng();
        for bits in [1usize, 7, 32, 33, 170, 1024] {
            assert_eq!(BigUint::random_bits(&mut rng, bits).bit_len(), bits);
        }
    }

    #[test]
    fn binary_and_hex_formatting() {
        let v = BigUint::from(10u64);
        assert_eq!(format!("{v:b}"), "1010");
        assert_eq!(format!("{v:x}"), "a");
        assert_eq!(format!("{v:X}"), "A");
        assert_eq!(format!("{:b}", BigUint::zero()), "0");
    }

    #[test]
    fn limb_padding() {
        let v = BigUint::from(1u64);
        assert_eq!(v.to_limbs_padded(4), vec![1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn limb_padding_too_small_panics() {
        let v = BigUint::from_hex("ffffffffffffffffff").unwrap();
        let _ = v.to_limbs_padded(1);
    }

    #[test]
    fn sum_iterator() {
        let total: BigUint = (1..=10u64).map(BigUint::from).sum();
        assert_eq!(total.to_u64(), Some(55));
    }
}
