//! Error type for the RSA crate.

use std::error::Error;
use std::fmt;

/// Errors raised by RSA key generation and the public/private operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Requested key size is too small to hold the padding overhead.
    KeyTooSmall(usize),
    /// The message does not fit under the modulus with the required padding.
    MessageTooLong {
        /// Bytes available for the message under this key.
        capacity: usize,
        /// Bytes that were supplied.
        got: usize,
    },
    /// A value is not a canonical residue: it is `>= n`, or a ciphertext
    /// is not exactly the modulus's byte length.
    ValueOutOfRange,
    /// The padding of a decrypted block is malformed.
    InvalidPadding,
    /// A signature failed verification.
    VerificationFailed,
    /// A private operation's result failed its check `sᵉ ≡ m (mod n)` and
    /// was withheld: a fault struck the computation, or the key's CRT
    /// components are corrupt. Released, such a result `s` would let
    /// `gcd(sᵉ − m, n)` factor `n`.
    FaultDetected,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::KeyTooSmall(bits) => write!(f, "key size {bits} bits is too small"),
            RsaError::MessageTooLong { capacity, got } => {
                write!(
                    f,
                    "message of {got} bytes exceeds capacity of {capacity} bytes"
                )
            }
            RsaError::ValueOutOfRange => write!(f, "value is not a canonical residue"),
            RsaError::InvalidPadding => write!(f, "invalid padding"),
            RsaError::VerificationFailed => write!(f, "signature verification failed"),
            RsaError::FaultDetected => {
                write!(f, "fault detected: the private result failed its check")
            }
        }
    }
}

impl Error for RsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RsaError::KeyTooSmall(64).to_string().contains("64"));
        assert!(RsaError::MessageTooLong {
            capacity: 100,
            got: 200
        }
        .to_string()
        .contains("200"));
        assert!(RsaError::InvalidPadding.to_string().contains("padding"));
        assert!(RsaError::VerificationFailed
            .to_string()
            .contains("verification"));
        assert!(RsaError::FaultDetected.to_string().contains("fault"));
    }
}
