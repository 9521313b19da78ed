//! Householder tridiagonalisation of dense symmetric matrices.
//!
//! The classic two-stage dense symmetric eigensolver: reduce `A` to
//! tridiagonal form `T = Qᵀ A Q` with Householder reflections, then
//! diagonalise `T` with the implicit-QL algorithm
//! ([`tridiagonal_eigen`](crate::tridiagonal_eigen)). `O(n³)` like
//! Jacobi, but with a ~3–6× smaller constant — this is the solver the
//! dense path of the spectral pipeline uses when the sub-graph is too
//! big for Jacobi to be pleasant but sparsity is not worth exploiting.

use crate::tridiag::{ql_sweeps, QlSweeps};
use crate::{DenseMatrix, LinalgError};

/// Result of a Householder reduction: the tridiagonal entries and the
/// accumulated orthogonal transform.
#[derive(Debug, Clone)]
pub struct HouseholderReduction {
    /// Diagonal of `T`.
    pub diagonal: Vec<f64>,
    /// Sub-diagonal of `T` (length `n − 1`).
    pub off_diagonal: Vec<f64>,
    /// Orthogonal `Q` with `A = Q T Qᵀ`, row-major.
    pub q: DenseMatrix,
}

/// Reduces the symmetric matrix `a` to tridiagonal form.
///
/// Step `k` reflects with a vector `v` whose entries up to `k` are
/// zero, so each step reads and writes only from `k + 1` on: the
/// product `m v` and the accumulation into `Q` run over columns
/// `k + 1..`, and the rank-2 update over the trailing block plus the
/// sub-diagonal entry `m[k+1][k]` it finishes (on the leading
/// `(k+1)²` block its deltas are all ±0, and the rest of rows and
/// columns `..=k` is never read again). Every entry the result reads
/// gets the same operations in the same order as a sweep over the
/// whole matrix.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] if `a` is not symmetric within
/// `1e-9`.
pub fn householder_tridiagonalize(a: &DenseMatrix) -> Result<HouseholderReduction, LinalgError> {
    let n = a.dim();
    if !a.is_symmetric(1e-9) {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            actual: n,
        });
    }
    // row-major working copy: entry (i, j) is m[i * n + j]
    let mut work = a.clone();
    let m = work.as_mut_slice();
    let mut q = DenseMatrix::identity(n);
    let qs = q.as_mut_slice();
    // the reflector v, and w: first p = beta · m v, then
    // w = p − (beta/2)(pᵀv) v, both reused across steps
    let mut v = vec![0.0; n];
    let mut w = vec![0.0; n];

    for k in 0..n.saturating_sub(2) {
        // build the Householder vector annihilating column k below k+1
        let mut x_norm2 = 0.0;
        for i in (k + 1)..n {
            let x = m[i * n + k];
            x_norm2 += x * x;
        }
        let x0 = m[(k + 1) * n + k];
        let alpha = -x_norm2.sqrt() * if x0 >= 0.0 { 1.0 } else { -1.0 };
        let v0 = x0 - alpha;
        // v[..k] is still zero from earlier steps; v[k] held the last
        // step's leading entry
        v[k] = 0.0;
        v[k + 1] = v0;
        for i in (k + 2)..n {
            v[i] = m[i * n + k];
        }
        let v_norm2 = v0 * v0 + x_norm2 - x0 * x0;
        if v_norm2 <= f64::EPSILON * (1.0 + x_norm2) {
            continue; // column already tridiagonal
        }
        let beta = 2.0 / v_norm2;
        let vt = &v[k + 1..];

        // m ← H m H with H = I − beta v vᵀ, exploiting symmetry:
        // p = beta · m v;  w = p − (beta/2)(pᵀv) v;
        // m ← m − v wᵀ − w vᵀ
        for i in k..n {
            let mut acc = 0.0;
            for (mij, vj) in m[i * n + k + 1..(i + 1) * n].iter().zip(vt) {
                if *vj != 0.0 {
                    acc += mij * vj;
                }
            }
            w[i] = beta * acc;
        }
        let pv: f64 = w[k + 1..].iter().zip(vt).map(|(a, b)| a * b).sum();
        for i in k..n {
            w[i] -= 0.5 * beta * pv * v[i];
        }
        for i in (k + 1)..n {
            let (vi, wi) = (v[i], w[i]);
            let row = &mut m[i * n + k + 1..(i + 1) * n];
            for ((mij, vj), wj) in row.iter_mut().zip(vt).zip(&w[k + 1..]) {
                let delta = vi * wj + wi * vj;
                if delta != 0.0 {
                    *mij -= delta;
                }
            }
        }
        let delta = v[k + 1] * w[k] + w[k + 1] * v[k];
        if delta != 0.0 {
            m[(k + 1) * n + k] -= delta;
        }
        // accumulate Q ← Q H
        for row in qs.chunks_exact_mut(n) {
            let tail = &mut row[k + 1..];
            let mut acc = 0.0;
            for (qij, vj) in tail.iter().zip(vt) {
                if *vj != 0.0 {
                    acc += qij * vj;
                }
            }
            let s = beta * acc;
            for (qij, vj) in tail.iter_mut().zip(vt) {
                if *vj != 0.0 {
                    *qij -= s * vj;
                }
            }
        }
    }

    let diagonal = (0..n).map(|i| m[i * n + i]).collect();
    let off_diagonal = (1..n).map(|i| m[i * n + i - 1]).collect();
    Ok(HouseholderReduction {
        diagonal,
        off_diagonal,
        q,
    })
}

/// Householder reduction of `a`, then the implicit-QL sweeps of its
/// tridiagonal form: every eigenvalue, with the eigenvectors still in
/// `T`'s basis.
fn reduce_and_sweep(a: &DenseMatrix) -> Result<(HouseholderReduction, QlSweeps), LinalgError> {
    let red = householder_tridiagonalize(a)?;
    let sweeps = ql_sweeps(&red.diagonal, &red.off_diagonal)?;
    Ok((red, sweeps))
}

/// An eigenvector of `A` from its coordinates `t` in `T`'s basis:
/// `Q · t`, one row sum at a time.
fn back_transform(q: &DenseMatrix, t: &[f64]) -> Vec<f64> {
    q.as_slice()
        .chunks_exact(t.len())
        .map(|row| row.iter().zip(t).map(|(a, b)| a * b).sum())
        .collect()
}

/// Full eigendecomposition of a dense symmetric matrix via Householder
/// reduction + implicit QL. Same output contract as
/// [`jacobi_eigen`](crate::jacobi_eigen): `(values ascending,
/// unit eigenvectors)`.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] if `a` is not symmetric;
/// - [`LinalgError::NoConvergence`] from the QL stage (essentially
///   impossible for well-formed input).
///
/// # Example
///
/// ```
/// # use mec_linalg::{DenseMatrix, householder_eigen};
/// let m = DenseMatrix::from_rows(2, vec![2.0, -1.0, -1.0, 2.0])?;
/// let (vals, _) = householder_eigen(&m)?;
/// assert!((vals[0] - 1.0).abs() < 1e-10);
/// assert!((vals[1] - 3.0).abs() < 1e-10);
/// # Ok::<(), mec_linalg::LinalgError>(())
/// ```
pub fn householder_eigen(a: &DenseMatrix) -> Result<(Vec<f64>, Vec<Vec<f64>>), LinalgError> {
    let n = a.dim();
    if n == 0 {
        return Ok((vec![], vec![]));
    }
    let (red, sweeps) = reduce_and_sweep(a)?;
    let vectors = (0..n)
        .map(|k| back_transform(&red.q, sweeps.vector(k)))
        .collect();
    Ok((sweeps.values, vectors))
}

/// The `k`-th smallest eigenpair of `a` (counted from 0), by the same
/// reduction and sweeps as [`householder_eigen`] but back-transforming
/// only the wanted vector: bit-identical to `householder_eigen`'s
/// `k`-th value and vector.
///
/// # Panics
///
/// Panics if `k >= a.dim()`.
pub(crate) fn householder_pair(a: &DenseMatrix, k: usize) -> Result<(f64, Vec<f64>), LinalgError> {
    let (red, sweeps) = reduce_and_sweep(a)?;
    Ok((sweeps.values[k], back_transform(&red.q, sweeps.vector(k))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi_eigen;
    use crate::kernels::{dot, norm};

    fn arrow_matrix(n: usize) -> DenseMatrix {
        // arrowhead: heavy diagonal + first row/col couplings
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            m.set(i, i, (i + 2) as f64);
            if i > 0 {
                m.set(0, i, 1.0 / (i as f64));
                m.set(i, 0, 1.0 / (i as f64));
            }
        }
        m
    }

    #[test]
    fn reduction_produces_orthogonal_q_and_similar_t() {
        let a = arrow_matrix(8);
        let red = householder_tridiagonalize(&a).unwrap();
        let n = 8;
        // Q orthogonal
        for i in 0..n {
            for j in 0..n {
                let qi: Vec<f64> = (0..n).map(|k| red.q.get(k, i)).collect();
                let qj: Vec<f64> = (0..n).map(|k| red.q.get(k, j)).collect();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot(&qi, &qj) - expected).abs() < 1e-10, "Q not orthogonal");
            }
        }
        // Q T Qᵀ == A: check by applying both to basis vectors
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            // t_e = T (Qᵀ e)
            let qte: Vec<f64> = (0..n).map(|i| red.q.get(j, i)).collect();
            let mut t_qte = vec![0.0; n];
            for i in 0..n {
                let mut acc = red.diagonal[i] * qte[i];
                if i > 0 {
                    acc += red.off_diagonal[i - 1] * qte[i - 1];
                }
                if i + 1 < n {
                    acc += red.off_diagonal[i] * qte[i + 1];
                }
                t_qte[i] = acc;
            }
            let recon: Vec<f64> = (0..n)
                .map(|i| (0..n).map(|k| red.q.get(i, k) * t_qte[k]).sum())
                .collect();
            for i in 0..n {
                assert!(
                    (recon[i] - a.get(i, j)).abs() < 1e-9,
                    "similarity broken at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matches_jacobi_spectrum() {
        let a = arrow_matrix(12);
        let (hv, hvec) = householder_eigen(&a).unwrap();
        let (jv, _) = jacobi_eigen(&a).unwrap();
        for (x, y) in hv.iter().zip(&jv) {
            assert!((x - y).abs() < 1e-8, "householder {x} vs jacobi {y}");
        }
        // residuals
        for (lam, v) in hv.iter().zip(&hvec) {
            let mut y = vec![0.0; 12];
            crate::SymOp::apply(&a, v, &mut y);
            let res: f64 = y
                .iter()
                .zip(v)
                .map(|(a, b)| (a - lam * b).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-8, "residual {res}");
            assert!((norm(v) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn already_tridiagonal_input_passes_through() {
        let mut m = DenseMatrix::zeros(5);
        for i in 0..5 {
            m.set(i, i, 2.0);
            if i + 1 < 5 {
                m.set(i, i + 1, -1.0);
                m.set(i + 1, i, -1.0);
            }
        }
        let red = householder_tridiagonalize(&m).unwrap();
        for (i, d) in red.diagonal.iter().enumerate() {
            assert!((d - 2.0).abs() < 1e-12, "diag {i}");
        }
        for e in &red.off_diagonal {
            assert!((e.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn small_and_empty_cases() {
        let (v, _) = householder_eigen(&DenseMatrix::zeros(0)).unwrap();
        assert!(v.is_empty());
        let one = DenseMatrix::from_rows(1, vec![4.0]).unwrap();
        let (v1, e1) = householder_eigen(&one).unwrap();
        assert_eq!(v1, vec![4.0]);
        assert_eq!(e1, vec![vec![1.0]]);
        let two = DenseMatrix::from_rows(2, vec![0.0, 3.0, 3.0, 0.0]).unwrap();
        let (v2, _) = householder_eigen(&two).unwrap();
        assert!((v2[0] + 3.0).abs() < 1e-12);
        assert!((v2[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_asymmetric_input() {
        let m = DenseMatrix::from_rows(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(householder_tridiagonalize(&m).is_err());
    }

    #[test]
    fn graph_laplacian_spectrum_matches_closed_form() {
        // path P_6 Laplacian: eigenvalues 2 - 2 cos(k pi / 6)
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            let deg = if i == 0 || i == n - 1 { 1.0 } else { 2.0 };
            m.set(i, i, deg);
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
                m.set(i + 1, i, -1.0);
            }
        }
        let (vals, _) = householder_eigen(&m).unwrap();
        for (k, lam) in vals.iter().enumerate() {
            let expected = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / n as f64).cos();
            assert!((lam - expected).abs() < 1e-10, "k={k}");
        }
    }
}
