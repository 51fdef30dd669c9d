//! Minimal dense linear algebra for the ROBOTune reproduction.
//!
//! Gaussian-process regression needs exactly one non-trivial factorisation —
//! the Cholesky decomposition of a symmetric positive-definite kernel matrix
//! — plus triangular solves and a log-determinant. Rather than pulling in a
//! full BLAS/LAPACK stack, this crate implements those pieces directly over
//! a simple row-major [`Matrix`]. Sizes in this workspace top out around a
//! few hundred rows (BO budgets are ~100 evaluations), where a straight
//! O(n³/3) Cholesky is more than fast enough.
//!
//! [`bfgs`] is the one bounded optimiser both the GP hyperfit and the BO
//! acquisition search use: projected BFGS on a box, over a dense Hessian
//! estimate that it factors with the same [`Cholesky`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bfgs;
pub mod cholesky;
pub mod matrix;

pub use cholesky::Cholesky;
pub use matrix::Matrix;

/// Errors reported by factorisations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) positive definite; holds the pivot
    /// index where the factorisation broke down.
    NotPositiveDefinite(usize),
    /// The operation received matrices of incompatible dimensions.
    DimensionMismatch {
        /// What the caller tried to do.
        op: &'static str,
        /// Dimension that was expected.
        expected: usize,
        /// Dimension that was supplied.
        got: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
            LinalgError::DimensionMismatch { op, expected, got } => {
                write!(f, "dimension mismatch in {op}: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Dot product of two equally-sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equally-sized slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
