//! Error type for spline construction and fitting.

use std::error::Error;
use std::fmt;

/// Errors returned by spline constructors and the fitting algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SplineError {
    /// Fewer control points than the spline kind requires.
    TooFewPoints {
        /// Points provided by the caller.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The tension parameter is not finite.
    InvalidTension,
    /// A control point coordinate is not finite.
    NonFinitePoint,
    /// A fitting ratio is outside `(0, 1]`.
    InvalidRatio,
    /// The fit's normal matrix has a pivot that is not positive.
    SingularFit,
}

impl fmt::Display for SplineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplineError::TooFewPoints { got, need } => {
                write!(f, "spline needs at least {need} control points, got {got}")
            }
            SplineError::InvalidTension => write!(f, "tension parameter must be finite"),
            SplineError::NonFinitePoint => write!(f, "control point coordinates must be finite"),
            SplineError::InvalidRatio => write!(f, "sampling ratio must be in (0, 1]"),
            SplineError::SingularFit => write!(f, "fit normal matrix is not positive definite"),
        }
    }
}

impl Error for SplineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SplineError::TooFewPoints { got: 1, need: 3 };
        assert_eq!(
            e.to_string(),
            "spline needs at least 3 control points, got 1"
        );
        assert!(!SplineError::InvalidTension.to_string().is_empty());
        assert!(!SplineError::NonFinitePoint.to_string().is_empty());
        assert!(!SplineError::InvalidRatio.to_string().is_empty());
        assert!(!SplineError::SingularFit.to_string().is_empty());
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SplineError>();
    }
}
