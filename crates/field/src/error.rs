//! Error type for field construction and arithmetic.

use std::error::Error;
use std::fmt;

/// Errors raised when constructing field contexts or performing operations
/// whose preconditions are not met.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The modulus is not usable as a field characteristic (even, zero or one).
    InvalidModulus,
    /// The prime does not satisfy the congruence required by the extension
    /// (`p ≡ 2, 5 mod 9` for `Fp6`, which keeps `z^6 + z^3 + 1`
    /// irreducible).
    UnsupportedCongruence {
        /// Modulus of the congruence condition.
        modulus: u32,
        /// Residues that would have been accepted.
        expected: &'static [u32],
        /// Residue that was actually found.
        found: u32,
    },
    /// Attempted to invert the zero element.
    DivisionByZero,
    /// An element was not a member of the expected subgroup or subfield.
    NotInSubgroup,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::InvalidModulus => write!(f, "modulus is not an odd prime greater than 3"),
            FieldError::UnsupportedCongruence {
                modulus,
                expected,
                found,
            } => write!(
                f,
                "prime residue {found} mod {modulus} unsupported (expected one of {expected:?})"
            ),
            FieldError::DivisionByZero => write!(f, "attempted to invert zero"),
            FieldError::NotInSubgroup => write!(f, "element is not in the expected subgroup"),
        }
    }
}

impl Error for FieldError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(FieldError::InvalidModulus.to_string().contains("modulus"));
        let e = FieldError::UnsupportedCongruence {
            modulus: 9,
            expected: &[2, 5],
            found: 1,
        };
        assert!(e.to_string().contains("mod 9"));
        assert!(FieldError::DivisionByZero.to_string().contains("zero"));
        assert!(FieldError::NotInSubgroup.to_string().contains("subgroup"));
    }
}
