//! Symmetric tridiagonal eigensolvers.
//!
//! Lanczos reduces the Laplacian to a symmetric tridiagonal matrix `T`
//! and reads the Fiedler pair off `T`'s spectrum. Three routines serve
//! that, each at the cost its caller can afford:
//!
//! - [`tridiagonal_eigen`] — the classic `tql2` implicit QL with
//!   shifts: every eigenvalue and eigenvector, `O(m³)`. The dense
//!   Householder solver runs its sweeps on the full reduction and
//!   copies out only the eigenvectors it returns.
//! - [`nth_eigenvalue`] — Sturm-sequence bisection for one eigenvalue
//!   by its rank, `O(m)` per halving of its bracket: what a Lanczos
//!   convergence checkpoint needs.
//! - [`inverse_iteration`] — one eigenvector at a known eigenvalue,
//!   `O(m)`.

use crate::kernels::normalize;
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
    let sweeps = ql_sweeps(diag, off)?;
    let vectors = (0..diag.len()).map(|k| sweeps.vector(k).to_vec()).collect();
    Ok(TridiagonalEigen {
        values: sweeps.values,
        vectors,
    })
}

/// What the implicit-QL sweeps leave: every eigenvalue, and every
/// eigenvector in one flat buffer from which callers copy only the
/// ones they want.
pub(crate) struct QlSweeps {
    /// Eigenvalues in ascending order.
    pub(crate) values: Vec<f64>,
    /// `order[k]` is the column of `z` holding the `k`-th eigenvector.
    order: Vec<usize>,
    /// The accumulated rotations, one contiguous run of `n` entries
    /// per column: `z[j * n + i]` is component `i` of column `j`.
    z: Vec<f64>,
}

impl QlSweeps {
    /// The unit eigenvector of `values[k]`, in the basis `T` was given
    /// in.
    pub(crate) fn vector(&self, k: usize) -> &[f64] {
        let n = self.order.len();
        let j = self.order[k];
        &self.z[j * n..(j + 1) * n]
    }
}

/// The `tql2` implicit QL with shifts behind [`tridiagonal_eigen`]:
/// the same sweeps and rotations, with the eigenvectors left in one
/// flat buffer, column by column, so a rotation of columns `i` and
/// `i + 1` runs over two contiguous slices.
pub(crate) fn ql_sweeps(diag: &[f64], off: &[f64]) -> Result<QlSweeps, LinalgError> {
    let n = diag.len();
    if n > 0 && off.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            actual: off.len(),
        });
    }
    // column j of z is eigenvector j; start with the identity
    let mut z = vec![0.0; n * n];
    for j in 0..n {
        z[j * n + j] = 1.0;
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
                // accumulate eigenvectors: rotate columns i and i + 1
                let (left, right) = z.split_at_mut((i + 1) * n);
                let zi = &mut left[i * n..];
                let zi1 = &mut right[..n];
                for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                    let f = *b;
                    *b = s * *a + c * f;
                    *a = c * *a - s * f;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // free the sweeps' work vector before the results are allocated:
    // held longer, it shifts the heap's layout over the many small
    // dense solves of a crowd and raises its peak resident memory
    drop(e);

    // sort ascending; the vectors follow through `order`
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("eigenvalues are finite"));
    let values: Vec<f64> = order.iter().map(|&j| d[j]).collect();
    Ok(QlSweeps { values, order, z })
}

/// Reusable workspaces of [`nth_eigenvalue`] and
/// [`inverse_iteration`]: once they have grown to a dimension, neither
/// routine allocates at that dimension or below.
#[derive(Debug, Default)]
pub(crate) struct TridiagScratch {
    /// Squared couplings behind a leading zero: `off2[i]` couples rows
    /// `i - 1` and `i`, the Sturm recurrence's input.
    off2: Vec<f64>,
    /// U factor of `P(T − λI)`: diagonal, first and second
    /// superdiagonals (the second fills in under row swaps).
    u: Vec<f64>,
    s1: Vec<f64>,
    s2: Vec<f64>,
    /// The inverse iteration's current trial vector.
    trial: Vec<f64>,
}

/// The `j`-th smallest eigenvalue, counted from 0 as
/// [`Iterator::nth`] counts, of the symmetric tridiagonal matrix with
/// diagonal `diag` and sub-diagonal `off`, by Sturm-sequence bisection.
///
/// Each probe counts the eigenvalues below a shift in one `O(m)` pass
/// over the `LDLᵀ` pivots. The bracket starts at the Gershgorin
/// interval and stops at width `ε·‖T‖`, about 53 halvings.
pub(crate) fn nth_eigenvalue(
    diag: &[f64],
    off: &[f64],
    j: usize,
    scratch: &mut TridiagScratch,
) -> f64 {
    let m = diag.len();
    debug_assert!(j < m && off.len() + 1 == m);
    let off2 = &mut scratch.off2;
    off2.clear();
    off2.push(0.0);
    off2.extend(off.iter().map(|b| b * b));
    // Gershgorin bounds of the spectrum
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..m {
        let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
        let radius = left + off.get(i).map_or(0.0, |b| b.abs());
        lo = lo.min(diag[i] - radius);
        hi = hi.max(diag[i] + radius);
    }
    let norm = lo.abs().max(hi.abs());
    // the smallest pivot magnitude a Sturm count lets through
    let pivmin = f64::MIN_POSITIVE * off2.iter().fold(1.0f64, |acc, &x| acc.max(x));
    // widen the interval past the counts' rounding, so no eigenvalue
    // sits on its ends
    let pad = f64::EPSILON * norm * m as f64 + 2.0 * pivmin;
    let (lo, hi) = (lo - pad, hi + pad);
    let tol = f64::EPSILON * norm;
    // invariant: fewer than j + 1 eigenvalues lie below `a`, at least
    // j + 1 below `b`
    let (mut a, mut b) = (lo, hi);
    while b - a > tol {
        let mid = 0.5 * (a + b);
        if mid <= a || mid >= b {
            break;
        }
        if eigenvalues_below(diag, off2, mid, pivmin) > j {
            b = mid;
        } else {
            a = mid;
        }
    }
    0.5 * (a + b)
}

/// Sturm count: how many eigenvalues of the tridiagonal matrix lie
/// below `x` — the number of negative pivots of `T − xI = LDLᵀ`. A
/// pivot smaller than `pivmin` in magnitude counts as `−pivmin`.
fn eigenvalues_below(diag: &[f64], off2: &[f64], x: f64, pivmin: f64) -> usize {
    let mut count = 0;
    let mut q = 1.0;
    for (&d, &e2) in diag.iter().zip(off2) {
        q = (d - x) - e2 / q;
        if q.abs() < pivmin {
            q = -pivmin;
        }
        count += usize::from(q < 0.0);
    }
    count
}

/// Writes into `x` the unit eigenvector of the symmetric tridiagonal
/// matrix with diagonal `diag` and sub-diagonal `off` for the
/// (approximate) eigenvalue `lambda`, by inverse iteration with its
/// factors and trial vectors in `scratch`: allocation-free once both
/// have grown to the dimension. Deterministic: the start vector is the
/// constant vector, and the returned vector's first non-negligible
/// component is positive.
///
/// Cost is `O(n)` per call — the factorisation is a tridiagonal
/// Gaussian elimination with partial pivoting.
pub(crate) fn inverse_iteration(
    diag: &[f64],
    off: &[f64],
    lambda: f64,
    scratch: &mut TridiagScratch,
    x: &mut Vec<f64>,
) {
    let n = diag.len();
    debug_assert!(n == 0 || off.len() + 1 == n);
    // `x` stays zero if every attempt's solve vanishes
    x.clear();
    x.resize(n, 0.0);
    if n == 0 {
        return;
    }
    let scale = diag
        .iter()
        .chain(off)
        .fold(1.0f64, |acc, &x| acc.max(x.abs()));
    let tiny = f64::EPSILON * scale;
    let accept = f64::EPSILON * scale * 64.0;

    let TridiagScratch {
        u, s1, s2, trial, ..
    } = scratch;
    for buf in [&mut *u, &mut *s1, &mut *s2, &mut *trial] {
        buf.clear();
        buf.resize(n, 0.0);
    }
    // the residual of the attempt held in `x`, once there is one
    let mut best: Option<f64> = None;
    // attempt 0 starts from the constant vector; later attempts use
    // deterministic pseudo-random starts, in case the wanted vector is
    // (nearly) orthogonal to the constant one
    'attempts: for attempt in 0u64..4 {
        let t = &mut trial[..];
        if attempt == 0 {
            t.fill(1.0 / (n as f64).sqrt());
        } else {
            let mut state = 0x7421_d1a6u64 ^ (attempt.wrapping_mul(0x9e37_79b9));
            for ti in t.iter_mut() {
                *ti = (crate::lanczos::splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
                    - 0.5;
            }
        }
        normalize(t);
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
                    t.swap(i, i + 1);
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
                t[i + 1] -= mult * t[i];
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
                let mut acc = t[i];
                if i + 1 < n {
                    acc -= s1[i] * t[i + 1];
                }
                if i + 2 < n {
                    acc -= s2[i] * t[i + 2];
                }
                t[i] = acc / u[i];
            }
            if normalize(t) <= f64::MIN_POSITIVE {
                continue 'attempts;
            }
        }
        // score the attempt by its true residual ||T t - lambda t||
        let mut res = 0.0f64;
        for i in 0..n {
            let mut acc = (diag[i] - lambda) * t[i];
            if i > 0 {
                acc += off[i - 1] * t[i - 1];
            }
            if i + 1 < n {
                acc += off[i] * t[i + 1];
            }
            res += acc * acc;
        }
        let res = res.sqrt();
        if best.is_none_or(|b| res < b) {
            best = Some(res);
            std::mem::swap(x, trial);
        }
        if res <= accept {
            break;
        }
    }
    if let Some(first) = x.iter().find(|v| v.abs() > tiny) {
        if *first < 0.0 {
            for v in x.iter_mut() {
                *v = -*v;
            }
        }
    }
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
    fn bisection_matches_the_full_decomposition() {
        // two uncoupled copies of [[2,-1],[-1,2]]: each eigenvalue has
        // multiplicity 2
        let cluster = (vec![2.0; 4], vec![-1.0, 0.0, -1.0]);
        let mut scratch = TridiagScratch::default();
        for (diag, off) in seeded_matrices().into_iter().chain([cluster]) {
            let n = diag.len();
            let full = tridiagonal_eigen(&diag, &off).unwrap().values;
            // ‖T‖₁, the largest column sum; against a 50-digit
            // reference QL's own error reaches 6.5·ε times it on these
            // matrices and bisection's stays below 0.6·ε times it
            let norm1 = (0..n)
                .map(|i| {
                    let above = if i > 0 { off[i - 1].abs() } else { 0.0 };
                    diag[i].abs() + above + off.get(i).map_or(0.0, |b| b.abs())
                })
                .fold(0.0f64, f64::max);
            for (j, &reference) in full.iter().enumerate().take(3) {
                let value = nth_eigenvalue(&diag, &off, j, &mut scratch);
                assert!(
                    (value - reference).abs() <= 8.0 * f64::EPSILON * norm1,
                    "n = {n}: value {j} is {value} by bisection, {reference} by QL"
                );
            }
        }
    }

    /// [`inverse_iteration`] with fresh workspaces.
    fn eigenvector(diag: &[f64], off: &[f64], lambda: f64) -> Vec<f64> {
        let mut x = Vec::new();
        inverse_iteration(diag, off, lambda, &mut TridiagScratch::default(), &mut x);
        x
    }

    #[test]
    fn inverse_iteration_with_a_reused_scratch_matches_a_fresh_one() {
        // the seeded sizes grow and shrink, so the reused buffers are
        // sometimes longer than the matrix
        let mut scratch = TridiagScratch::default();
        let mut x = Vec::new();
        for (diag, off) in seeded_matrices() {
            let lambda = tridiagonal_eigen(&diag, &off).unwrap().values[0];
            inverse_iteration(&diag, &off, lambda, &mut scratch, &mut x);
            assert_eq!(x, eigenvector(&diag, &off, lambda), "n = {}", diag.len());
        }
    }

    #[test]
    fn inverse_iteration_recovers_eigenvectors() {
        let n = 30;
        let diag = vec![2.0; n];
        let off = vec![-1.0; n - 1];
        let vals = tridiagonal_eigen(&diag, &off).unwrap().values;
        let mut found: Vec<Vec<f64>> = vec![];
        for &lam in vals.iter().take(3) {
            let v = eigenvector(&diag, &off, lam);
            assert!(residual(&diag, &off, lam, &v) < 1e-8, "lambda {lam}");
            assert!((norm(&v) - 1.0).abs() < 1e-12);
            for prev in &found {
                assert!(dot(&v, prev).abs() < 1e-8, "not orthogonal");
            }
            found.push(v);
        }
    }

    #[test]
    fn inverse_iteration_is_deterministic_and_sign_canonical() {
        let diag = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let off = vec![0.9, -0.2, 0.6, -0.3];
        let vals = tridiagonal_eigen(&diag, &off).unwrap().values;
        let a = eigenvector(&diag, &off, vals[0]);
        let b = eigenvector(&diag, &off, vals[0]);
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
