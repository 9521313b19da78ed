//! Dense symmetric matrices and the Jacobi rotation eigensolver.
//!
//! The Jacobi solver is the crate's *reference* eigensolver: slow but
//! unconditionally robust, used to cross-validate Lanczos in tests and
//! to handle tiny compressed sub-graphs where iteration overhead is not
//! worth it.

use crate::{LinalgError, SymOp};

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    dim: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// The `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            dim: n,
            data: vec![0.0; n * n],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `data.len() != n * n`,
    /// [`LinalgError::NonFiniteEntry`] for NaN/infinite entries.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != n * n {
            return Err(LinalgError::DimensionMismatch {
                expected: n * n,
                actual: data.len(),
            });
        }
        if let Some(&bad) = data.iter().find(|v| !v.is_finite()) {
            return Err(LinalgError::NonFiniteEntry(bad));
        }
        Ok(DenseMatrix { dim: n, data })
    }

    /// Densifies any symmetric operator (used by tests and the Jacobi
    /// path for small systems).
    pub fn from_op(op: &dyn SymOp) -> Self {
        let n = op.dim();
        let mut m = DenseMatrix::zeros(n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            op.apply(&e, &mut col);
            e[j] = 0.0;
            for i in 0..n {
                m.set(i, j, col[i]);
            }
        }
        m
    }

    /// Matrix dimension `n` (the matrix is `n × n`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.dim && c < self.dim, "index out of bounds");
        self.data[r * self.dim + c]
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.dim && c < self.dim, "index out of bounds");
        self.data[r * self.dim + c] = v;
    }

    /// The row-major entries.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The row-major entries, mutably.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute off-diagonal entry.
    pub fn off_diagonal_norm(&self) -> f64 {
        let mut m = 0.0f64;
        for r in 0..self.dim {
            for c in 0..self.dim {
                if r != c {
                    m = m.max(self.get(r, c).abs());
                }
            }
        }
        m
    }

    /// `true` when `|a_ij - a_ji| ≤ tol` everywhere.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.dim {
            for c in (r + 1)..self.dim {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl SymOp for DenseMatrix {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "x length mismatch");
        assert_eq!(y.len(), self.dim, "y length mismatch");
        for r in 0..self.dim {
            let row = &self.data[r * self.dim..(r + 1) * self.dim];
            y[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

/// Off-diagonal magnitude below which [`jacobi_eigen`] skips a
/// rotation, and (scaled by the largest entry and the dimension) below
/// which it stops.
const JACOBI_TOLERANCE: f64 = 1e-12;

/// Hard cap on [`jacobi_eigen`]'s full sweeps.
const MAX_SWEEPS: usize = 100;

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi
/// rotations.
///
/// Returns `(values, vectors)` with eigenvalues ascending and
/// `vectors[k]` the unit eigenvector of `values[k]`.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] if `m` is not symmetric within
///   `1e-9`;
/// - [`LinalgError::NoConvergence`] after 100 sweeps.
///
/// # Example
///
/// ```
/// # use mec_linalg::{DenseMatrix, jacobi_eigen};
/// let m = DenseMatrix::from_rows(2, vec![2.0, -1.0, -1.0, 2.0])?;
/// let (vals, _) = jacobi_eigen(&m)?;
/// assert!((vals[0] - 1.0).abs() < 1e-10);
/// assert!((vals[1] - 3.0).abs() < 1e-10);
/// # Ok::<(), mec_linalg::LinalgError>(())
/// ```
pub fn jacobi_eigen(m: &DenseMatrix) -> Result<(Vec<f64>, Vec<Vec<f64>>), LinalgError> {
    let n = m.dim();
    if !m.is_symmetric(1e-9) {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            actual: n,
        });
    }
    let mut a = m.clone();
    let mut v = DenseMatrix::identity(n);
    let mut sweeps = 0;
    // scale-relative stopping: absolute 1e-12 is unreachable once
    // rounding noise accumulates in matrices with large entries.
    let scale = (0..n)
        .flat_map(|r| (0..n).map(move |c| (r, c)))
        .fold(1.0f64, |s, (r, c)| s.max(m.get(r, c).abs()));
    let threshold = JACOBI_TOLERANCE * scale * (n as f64).max(1.0);
    while a.off_diagonal_norm() > threshold {
        sweeps += 1;
        if sweeps > MAX_SWEEPS {
            return Err(LinalgError::NoConvergence {
                iterations: sweeps,
                residual: a.off_diagonal_norm(),
            });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() <= JACOBI_TOLERANCE {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // rotate rows/cols p and q
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| {
        a.get(x, x)
            .partial_cmp(&a.get(y, y))
            .expect("eigenvalues are finite")
    });
    let values: Vec<f64> = order.iter().map(|&j| a.get(j, j)).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&j| (0..n).map(|i| v.get(i, j)).collect())
        .collect();
    Ok((values, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{dot, norm};

    #[test]
    fn construction_and_access() {
        let m = DenseMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert!(!m.is_symmetric(1e-12));
        assert!(DenseMatrix::identity(3).is_symmetric(0.0));
    }

    #[test]
    fn from_rows_validates() {
        assert!(matches!(
            DenseMatrix::from_rows(2, vec![1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            DenseMatrix::from_rows(1, vec![f64::INFINITY]),
            Err(LinalgError::NonFiniteEntry(_))
        ));
    }

    #[test]
    fn matvec() {
        let m = DenseMatrix::from_rows(2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        let mut y = vec![0.0; 2];
        m.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0]);
    }

    #[test]
    fn from_op_recovers_matrix() {
        let m =
            DenseMatrix::from_rows(3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 4.0]).unwrap();
        let back = DenseMatrix::from_op(&m);
        assert_eq!(m, back);
    }

    #[test]
    fn jacobi_on_known_spectrum() {
        let m = DenseMatrix::from_rows(2, vec![2.0, -1.0, -1.0, 2.0]).unwrap();
        let (vals, vecs) = jacobi_eigen(&m).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-10);
        assert!((vals[1] - 3.0).abs() < 1e-10);
        // residual check
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut y = vec![0.0; 2];
            m.apply(v, &mut y);
            let r: Vec<f64> = y.iter().zip(v).map(|(a, b)| a - lam * b).collect();
            assert!(norm(&r) < 1e-9);
            assert!((norm(v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn jacobi_eigenvectors_orthonormal() {
        // symmetric 4x4
        let m = DenseMatrix::from_rows(
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, 1.0, 3.0, 1.0, 0.2, 0.5, 1.0, 2.0, 1.0, 0.0, 0.2, 1.0, 1.0,
            ],
        )
        .unwrap();
        let (vals, vecs) = jacobi_eigen(&m).unwrap();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        for a in 0..4 {
            for b in 0..4 {
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((dot(&vecs[a], &vecs[b]) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn jacobi_rejects_asymmetric_input() {
        let m = DenseMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(jacobi_eigen(&m).is_err());
    }

    #[test]
    fn jacobi_trace_is_preserved() {
        let m =
            DenseMatrix::from_rows(3, vec![5.0, 2.0, 1.0, 2.0, 4.0, 0.5, 1.0, 0.5, 3.0]).unwrap();
        let (vals, _) = jacobi_eigen(&m).unwrap();
        let trace = 5.0 + 4.0 + 3.0;
        assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-9);
    }

    #[test]
    fn jacobi_empty_and_single() {
        let (v0, _) = jacobi_eigen(&DenseMatrix::zeros(0)).unwrap();
        assert!(v0.is_empty());
        let m = DenseMatrix::from_rows(1, vec![7.0]).unwrap();
        let (v1, e1) = jacobi_eigen(&m).unwrap();
        assert_eq!(v1, vec![7.0]);
        assert_eq!(e1, vec![vec![1.0]]);
    }
}
