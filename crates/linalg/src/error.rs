//! Error type for the linear-algebra kernels.

use std::error::Error;
use std::fmt;

/// Errors raised by matrix construction and the iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions do not agree (`expected`, `actual`).
    DimensionMismatch {
        /// Dimension the operation required.
        expected: usize,
        /// Dimension that was supplied.
        actual: usize,
    },
    /// A non-finite entry was supplied.
    NonFiniteEntry(f64),
    /// An iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm (or off-diagonal norm) at the last iteration.
        residual: f64,
    },
    /// The requested eigenpair count exceeds what the operator admits.
    TooManyEigenpairs {
        /// Pairs requested.
        requested: usize,
        /// Operator dimension.
        dim: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::NonFiniteEntry(v) => write!(f, "non-finite entry {v}"),
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::TooManyEigenpairs { requested, dim } => write!(
                f,
                "requested {requested} eigenpairs from operator of dimension {dim}"
            ),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        let e = LinalgError::DimensionMismatch {
            expected: 3,
            actual: 2,
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, got 2");
        assert!(LinalgError::NonFiniteEntry(f64::NAN)
            .to_string()
            .contains("non-finite"));
        assert!(LinalgError::NoConvergence {
            iterations: 10,
            residual: 0.5
        }
        .to_string()
        .contains("10 iterations"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
