//! Error type for the ECC crate.

use std::error::Error;
use std::fmt;

use field::FieldError;

/// Errors raised by curve construction and point operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EccError {
    /// The curve parameters are invalid (singular curve or bad field).
    InvalidCurve(&'static str),
    /// The point does not satisfy the curve equation.
    PointNotOnCurve,
    /// A compressed point could not be decompressed (x has no matching y).
    InvalidCompressedPoint,
    /// The operation produced or required the point at infinity where a
    /// finite point was expected.
    PointAtInfinity,
    /// The name passed to [`Curve::by_name`](crate::Curve::by_name) is not
    /// in the registry (the offending name is carried verbatim).
    UnknownCurve(String),
    /// A [`CurveSpec`](crate::CurveSpec) or
    /// [`WeierstrassParameters`](crate::WeierstrassParameters) field failed
    /// validation; `field` names the offending parameter.
    InvalidParameters {
        /// The spec/trait field that failed validation (`"p"`, `"a/b"`
        /// or `"generator"`).
        field: &'static str,
        /// Why the field was rejected.
        reason: &'static str,
    },
    /// An underlying field operation failed.
    Field(FieldError),
}

impl fmt::Display for EccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EccError::InvalidCurve(msg) => write!(f, "invalid curve: {msg}"),
            EccError::PointNotOnCurve => write!(f, "point is not on the curve"),
            EccError::InvalidCompressedPoint => write!(f, "compressed point has no square root"),
            EccError::PointAtInfinity => write!(f, "unexpected point at infinity"),
            EccError::UnknownCurve(name) => write!(f, "unknown curve: {name:?}"),
            EccError::InvalidParameters { field, reason } => {
                write!(f, "invalid curve parameter {field:?}: {reason}")
            }
            EccError::Field(e) => write!(f, "field error: {e}"),
        }
    }
}

impl Error for EccError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EccError::Field(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FieldError> for EccError {
    fn from(e: FieldError) -> Self {
        EccError::Field(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EccError::InvalidCurve("singular")
            .to_string()
            .contains("singular"));
        assert!(EccError::PointNotOnCurve.to_string().contains("curve"));
        assert!(EccError::InvalidCompressedPoint
            .to_string()
            .contains("square root"));
        assert!(EccError::PointAtInfinity.to_string().contains("infinity"));
        assert!(EccError::UnknownCurve("curve448".to_string())
            .to_string()
            .contains("curve448"));
        let e = EccError::InvalidParameters {
            field: "generator",
            reason: "not on the curve",
        };
        assert!(e.to_string().contains("generator"));
        assert!(e.to_string().contains("not on the curve"));
        assert!(EccError::from(FieldError::DivisionByZero)
            .source()
            .is_some());
    }
}
