//! Symmetric tridiagonal eigensolver (implicit QL with shifts).
//!
//! This is the classic `tql2` algorithm: given the diagonal `d` and
//! sub-diagonal `e` of a symmetric tridiagonal matrix `T`, it returns
//! all eigenvalues in ascending order together with the eigenvectors of
//! `T`. Lanczos reduces the Laplacian to this form; the Fiedler pair is
//! then read out of `T`'s spectrum.

use crate::LinalgError;

/// Eigen-decomposition of a symmetric tridiagonal matrix.
///
/// `values[k]` is the `k`-th smallest eigenvalue; `vectors[k]` is its
/// (unit-norm) eigenvector expressed in the basis `T` was given in.
#[derive(Debug, Clone)]
pub struct TridiagonalEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// `vectors[k][i]` is component `i` of eigenvector `k`.
    pub vectors: Vec<Vec<f64>>,
}

/// Computes all eigenpairs of the symmetric tridiagonal matrix with
/// diagonal `diag` and sub-diagonal `off` (`off[i]` couples rows `i`
/// and `i+1`).
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] when
///   `off.len() + 1 != diag.len()` (except both empty);
/// - [`LinalgError::NoConvergence`] if any eigenvalue needs more than
///   50 QL sweeps (essentially impossible for well-formed input).
///
/// # Example
///
/// ```
/// # use mec_linalg::tridiagonal_eigen;
/// // T = [[2,-1],[-1,2]] has eigenvalues 1 and 3.
/// let eig = tridiagonal_eigen(&[2.0, 2.0], &[-1.0])?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 3.0).abs() < 1e-12);
/// # Ok::<(), mec_linalg::LinalgError>(())
/// ```
pub fn tridiagonal_eigen(diag: &[f64], off: &[f64]) -> Result<TridiagonalEigen, LinalgError> {
    let n = diag.len();
    // z[i][j]: component i of eigenvector j; start with identity.
    let mut z = vec![vec![0.0; n]; n];
    for (i, row) in z.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let d = implicit_ql(diag, off, |i, s, c| {
        // accumulate eigenvectors
        for row in z.iter_mut() {
            let f = row[i + 1];
            row[i + 1] = s * row[i] + c * f;
            row[i] = c * row[i] - s * f;
        }
    })?;

    // sort ascending, permute vectors accordingly
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("eigenvalues are finite"));
    let values: Vec<f64> = order.iter().map(|&j| d[j]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&j| (0..n).map(|i| z[i][j]).collect())
        .collect();
    Ok(TridiagonalEigen { values, vectors })
}

/// Computes only the eigenvalues (ascending) of the symmetric
/// tridiagonal matrix — the same implicit-QL sweeps as
/// [`tridiagonal_eigen`] without eigenvector accumulation, so the cost
/// drops from cubic to quadratic in the dimension. This is what makes
/// frequent convergence checks affordable in the Lanczos solver.
///
/// # Errors
///
/// Same as [`tridiagonal_eigen`].
pub fn tridiagonal_eigenvalues(diag: &[f64], off: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut d = implicit_ql(diag, off, |_, _, _| {})?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
    Ok(d)
}

/// The implicit-QL sweeps of `tql2`: returns the eigenvalues of the
/// tridiagonal matrix in the order the sweeps leave them, and hands
/// each plane rotation of rows `i` and `i + 1` (sine `s`, cosine `c`)
/// to `rotate(i, s, c)`. A no-op `rotate` compiles the vector work
/// away, so the values-only solve pays nothing for it.
fn implicit_ql(
    diag: &[f64],
    off: &[f64],
    mut rotate: impl FnMut(usize, f64, f64),
) -> Result<Vec<f64>, LinalgError> {
    let n = diag.len();
    if n == 0 {
        return Ok(vec![]);
    }
    if off.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            actual: off.len(),
        });
    }
    let mut d = diag.to_vec();
    // e is shifted: e[i] couples i-1 and i in the classic formulation.
    let mut e = Vec::with_capacity(n);
    e.extend_from_slice(off);
    e.push(0.0);

    const MAX_SWEEPS: usize = 50;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // find small sub-diagonal element
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    iterations: iter,
                    residual: e[l].abs(),
                });
            }
            // form shift
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(d)
}

/// Computes the unit eigenvector of the symmetric tridiagonal matrix
/// for the (approximate) eigenvalue `lambda` by inverse iteration,
/// re-orthogonalising against `ortho` each pass so clustered
/// eigenvalues yield independent vectors (pass the vectors already
/// extracted for earlier eigenvalues of the cluster). Deterministic:
/// the start vector is the constant vector, and the returned vector's
/// first non-negligible component is positive.
///
/// Cost is `O(n)` per call — the factorisation is a tridiagonal
/// Gaussian elimination with partial pivoting.
///
/// # Errors
///
/// [`LinalgError::DimensionMismatch`] when `off.len() + 1 != diag.len()`.
pub fn tridiagonal_eigenvector(
    diag: &[f64],
    off: &[f64],
    lambda: f64,
    ortho: &[Vec<f64>],
) -> Result<Vec<f64>, LinalgError> {
    let n = diag.len();
    if n == 0 {
        return Ok(vec![]);
    }
    if off.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            actual: off.len(),
        });
    }
    let scale = diag
        .iter()
        .chain(off)
        .fold(1.0f64, |acc, &x| acc.max(x.abs()));
    let tiny = f64::EPSILON * scale;
    let accept = f64::EPSILON * scale * 64.0;

    // U factors of P(T - lambda I): diagonal, first and second
    // superdiagonals (the second fills in under row swaps)
    let mut u = vec![0.0; n];
    let mut s1 = vec![0.0; n];
    let mut s2 = vec![0.0; n];
    let mut best: Option<(f64, Vec<f64>)> = None;
    // attempt 0 starts from the constant vector; later attempts use
    // deterministic pseudo-random starts so that clustered eigenvalues
    // always expose a component along the remaining null direction
    'attempts: for attempt in 0u64..4 {
        let mut x = vec![0.0; n];
        if attempt == 0 {
            x.fill(1.0 / (n as f64).sqrt());
        } else {
            let mut state = 0x7421_d1a6u64 ^ (attempt.wrapping_mul(0x9e37_79b9));
            for xi in x.iter_mut() {
                *xi = (crate::lanczos::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
                    - 0.5;
            }
        }
        for o in ortho {
            let proj = crate::kernels::dot(&x, o);
            crate::kernels::axpy(-proj, o, &mut x);
        }
        if crate::kernels::normalize(&mut x) <= f64::MIN_POSITIVE {
            continue 'attempts;
        }
        for _ in 0..3 {
            // refactor per pass: O(n), cheaper than caching swap state
            let mut p = diag[0] - lambda;
            let mut q = if n > 1 { off[0] } else { 0.0 };
            let mut r = 0.0;
            for i in 0..n - 1 {
                let a = off[i];
                let b = diag[i + 1] - lambda;
                let c = if i + 1 < n - 1 { off[i + 1] } else { 0.0 };
                let (pp, qq, rr, aa, bb, cc) = if a.abs() > p.abs() {
                    x.swap(i, i + 1);
                    (a, b, c, p, q, r)
                } else {
                    (p, q, r, a, b, c)
                };
                let pivot = if pp.abs() <= tiny {
                    tiny.copysign(pp + f64::MIN_POSITIVE)
                } else {
                    pp
                };
                let mult = aa / pivot;
                x[i + 1] -= mult * x[i];
                u[i] = pivot;
                s1[i] = qq;
                s2[i] = rr;
                p = bb - mult * qq;
                q = cc - mult * rr;
                r = 0.0;
            }
            u[n - 1] = if p.abs() <= tiny {
                tiny.copysign(p + f64::MIN_POSITIVE)
            } else {
                p
            };
            s1[n - 1] = 0.0;
            s2[n - 1] = 0.0;
            // back substitution
            for i in (0..n).rev() {
                let mut acc = x[i];
                if i + 1 < n {
                    acc -= s1[i] * x[i + 1];
                }
                if i + 2 < n {
                    acc -= s2[i] * x[i + 2];
                }
                x[i] = acc / u[i];
            }
            for o in ortho {
                let proj = crate::kernels::dot(&x, o);
                crate::kernels::axpy(-proj, o, &mut x);
            }
            if crate::kernels::normalize(&mut x) <= f64::MIN_POSITIVE {
                continue 'attempts;
            }
        }
        // score the attempt by its true residual ||T x - lambda x||
        let mut res = 0.0f64;
        for i in 0..n {
            let mut acc = (diag[i] - lambda) * x[i];
            if i > 0 {
                acc += off[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                acc += off[i] * x[i + 1];
            }
            res += acc * acc;
        }
        let res = res.sqrt();
        if best.as_ref().is_none_or(|(b, _)| res < *b) {
            best = Some((res, x));
        }
        if res <= accept {
            break;
        }
    }
    let mut x = match best {
        Some((_, x)) => x,
        // every start was annihilated: `ortho` spans the space
        None => vec![0.0; n],
    };
    if let Some(first) = x.iter().find(|v| v.abs() > tiny) {
        if *first < 0.0 {
            for v in &mut x {
                *v = -*v;
            }
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{dot, norm};

    fn residual(diag: &[f64], off: &[f64], lambda: f64, v: &[f64]) -> f64 {
        let n = diag.len();
        let mut r = vec![0.0; n];
        for i in 0..n {
            let mut acc = diag[i] * v[i];
            if i > 0 {
                acc += off[i - 1] * v[i - 1];
            }
            if i + 1 < n {
                acc += off[i] * v[i + 1];
            }
            r[i] = acc - lambda * v[i];
        }
        norm(&r)
    }

    #[test]
    fn two_by_two() {
        let eig = tridiagonal_eigen(&[2.0, 2.0], &[-1.0]).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        for (l, v) in eig.values.iter().zip(&eig.vectors) {
            assert!(residual(&[2.0, 2.0], &[-1.0], *l, v) < 1e-10);
            assert!((norm(v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn single_element() {
        let eig = tridiagonal_eigen(&[5.0], &[]).unwrap();
        assert_eq!(eig.values, vec![5.0]);
        assert_eq!(eig.vectors, vec![vec![1.0]]);
    }

    #[test]
    fn empty_matrix() {
        let eig = tridiagonal_eigen(&[], &[]).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn dimension_mismatch_detected() {
        assert!(matches!(
            tridiagonal_eigen(&[1.0, 2.0], &[0.1, 0.2]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn discrete_laplacian_eigenvalues_match_closed_form() {
        // T_n = tridiag(-1, 2, -1) has eigenvalues 2 - 2 cos(k*pi/(n+1)).
        let n = 12;
        let diag = vec![2.0; n];
        let off = vec![-1.0; n - 1];
        let eig = tridiagonal_eigen(&diag, &off).unwrap();
        for (k, lam) in eig.values.iter().enumerate() {
            let expected =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
            assert!(
                (lam - expected).abs() < 1e-10,
                "eigenvalue {k}: got {lam}, expected {expected}"
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 9;
        let diag: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 1.0).collect();
        let off: Vec<f64> = (0..n - 1).map(|i| 0.5 + 0.1 * i as f64).collect();
        let eig = tridiagonal_eigen(&diag, &off).unwrap();
        for a in 0..n {
            for b in 0..n {
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!(
                    (dot(&eig.vectors[a], &eig.vectors[b]) - expected).abs() < 1e-9,
                    "vectors {a}, {b} not orthonormal"
                );
            }
        }
        for (l, v) in eig.values.iter().zip(&eig.vectors) {
            assert!(residual(&diag, &off, *l, v) < 1e-9);
        }
    }

    #[test]
    fn diagonal_matrix_passes_through() {
        let eig = tridiagonal_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-14);
        assert!((eig.values[1] - 2.0).abs() < 1e-14);
        assert!((eig.values[2] - 3.0).abs() < 1e-14);
    }

    /// Seeded tridiagonal inputs of every shape the sweeps branch on:
    /// random entries, a constant matrix, a zero diagonal, and blocks
    /// split by zero couplings.
    fn seeded_matrices() -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut state = 0x5eed_u64;
        let mut unit =
            || (crate::lanczos::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        (0..400)
            .map(|k| {
                let n = 1 + k % 40;
                let mut diag: Vec<f64> = (0..n).map(|_| 4.0 * unit()).collect();
                let mut off: Vec<f64> = (1..n).map(|_| 2.0 * unit()).collect();
                match k % 4 {
                    1 => {
                        diag.fill(2.0);
                        off.fill(-1.0);
                    }
                    2 => diag.fill(0.0),
                    3 => off.iter_mut().step_by(3).for_each(|e| *e = 0.0),
                    _ => {}
                }
                (diag, off)
            })
            .collect()
    }

    #[test]
    fn eigenvalues_only_matches_full_decomposition() {
        for (diag, off) in seeded_matrices() {
            let full = tridiagonal_eigen(&diag, &off).unwrap();
            let vals = tridiagonal_eigenvalues(&diag, &off).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&vals), bits(&full.values), "n = {}", diag.len());
        }
    }

    #[test]
    fn inverse_iteration_recovers_eigenvectors() {
        let n = 30;
        let diag = vec![2.0; n];
        let off = vec![-1.0; n - 1];
        let vals = tridiagonal_eigenvalues(&diag, &off).unwrap();
        let mut found: Vec<Vec<f64>> = vec![];
        for &lam in vals.iter().take(3) {
            let v = tridiagonal_eigenvector(&diag, &off, lam, &found).unwrap();
            assert!(residual(&diag, &off, lam, &v) < 1e-8, "lambda {lam}");
            assert!((norm(&v) - 1.0).abs() < 1e-12);
            for prev in &found {
                assert!(dot(&v, prev).abs() < 1e-8, "not orthogonal");
            }
            found.push(v);
        }
    }

    #[test]
    fn inverse_iteration_separates_a_degenerate_cluster() {
        // block-diagonal: two uncoupled copies of [[2,-1],[-1,2]] give
        // each eigenvalue multiplicity 2
        let diag = vec![2.0, 2.0, 2.0, 2.0];
        let off = vec![-1.0, 0.0, -1.0];
        let vals = tridiagonal_eigenvalues(&diag, &off).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12 && (vals[1] - 1.0).abs() < 1e-12);
        let v0 = tridiagonal_eigenvector(&diag, &off, vals[0], &[]).unwrap();
        let v1 = tridiagonal_eigenvector(&diag, &off, vals[1], std::slice::from_ref(&v0)).unwrap();
        assert!(residual(&diag, &off, 1.0, &v0) < 1e-8);
        assert!(residual(&diag, &off, 1.0, &v1) < 1e-8);
        assert!(dot(&v0, &v1).abs() < 1e-8);
    }

    #[test]
    fn inverse_iteration_is_deterministic_and_sign_canonical() {
        let diag = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let off = vec![0.9, -0.2, 0.6, -0.3];
        let vals = tridiagonal_eigenvalues(&diag, &off).unwrap();
        let a = tridiagonal_eigenvector(&diag, &off, vals[0], &[]).unwrap();
        let b = tridiagonal_eigenvector(&diag, &off, vals[0], &[]).unwrap();
        assert_eq!(a, b);
        assert!(*a.iter().find(|v| v.abs() > 1e-9).unwrap() > 0.0);
    }

    #[test]
    fn values_are_sorted_ascending() {
        let diag: Vec<f64> = (0..20).map(|i| ((i * 7919) % 13) as f64).collect();
        let off: Vec<f64> = (0..19).map(|i| ((i * 104729) % 7) as f64 / 7.0).collect();
        let eig = tridiagonal_eigen(&diag, &off).unwrap();
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
