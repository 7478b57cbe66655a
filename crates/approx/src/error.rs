//! Errors of the approximate algorithms.

use std::fmt;
use std::time::Duration;

use presky_core::error::CoreError;
use presky_exact::error::ExactError;

/// Failure modes of the approximation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ApproxError {
    /// A parameter outside its valid range: an `(ε, δ)` or SPRT error
    /// level outside the open interval `(0, 1)`, or an SPRT `tau`/`margin`
    /// outside `[0, 1]`.
    InvalidParameter {
        /// Parameter name (`"epsilon"`, `"delta"`, `"tau"`, `"margin"`,
        /// `"alpha"` or `"beta"`).
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A zero sample budget was requested.
    ZeroSamples,
    /// The absolute wall-clock deadline passed mid-run.
    DeadlineExceeded {
        /// Time spent before giving up.
        elapsed: Duration,
        /// Worlds fully evaluated before giving up.
        samples_drawn: u64,
    },
    /// An error from the data-model layer.
    Core(CoreError),
    /// An error from the exact engines (A1/A2 delegate to them).
    Exact(ExactError),
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::InvalidParameter { name, value } => {
                write!(f, "{name} = {value} must lie strictly between 0 and 1")
            }
            ApproxError::ZeroSamples => write!(f, "sample budget must be positive"),
            ApproxError::DeadlineExceeded { elapsed, samples_drawn } => {
                write!(f, "deadline exceeded after {elapsed:?} ({samples_drawn} worlds sampled)")
            }
            ApproxError::Core(e) => write!(f, "{e}"),
            ApproxError::Exact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApproxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApproxError::Core(e) => Some(e),
            ApproxError::Exact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ApproxError {
    fn from(e: CoreError) -> Self {
        ApproxError::Core(e)
    }
}

impl From<ExactError> for ApproxError {
    fn from(e: ExactError) -> Self {
        ApproxError::Exact(e)
    }
}

/// Result alias for this crate.
pub type Result<T, E = ApproxError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ApproxError = CoreError::EmptySchema.into();
        assert!(matches!(e, ApproxError::Core(_)));
        let e: ApproxError = ExactError::MaskWidthExceeded { n: 70 }.into();
        assert!(e.to_string().contains("70"));
        let e = ApproxError::InvalidParameter { name: "epsilon", value: 2.0 };
        assert!(e.to_string().contains("epsilon"));
    }
}
