//! Sequential-reference ↔ shipped-kernel parity properties.
//!
//! Every kernel in `mec_linalg::kernels` belongs to one of two parity
//! classes (documented on the kernel itself), measured against the
//! plain sequential loops kept in [`reference`] below:
//!
//! * **bit-exact** — the 4-lane kernel keeps each output element's
//!   accumulation order identical to the sequential loop (matvec
//!   interleaves rows but never reassociates within a row; axpy and
//!   scale are elementwise). Compared here via `to_bits`.
//! * **1-ulp-scaled** — reductions split into four independent chains
//!   (dot, norm, the sweep boundary fold, blocked Gram–Schmidt)
//!   reassociate the sum. Compared against a tolerance proportional to
//!   machine epsilon times the magnitude actually accumulated.

use mec_linalg::kernels;
use proptest::prelude::*;

/// The sequential loops the 4-lane kernels are checked against: one
/// accumulator per reduction, folded in index order, and one modified
/// Gram–Schmidt step per basis vector.
mod reference {
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y) {
            acc += a * b;
        }
        acc
    }

    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    pub fn scale(alpha: f64, x: &mut [f64]) {
        for xi in x {
            *xi *= alpha;
        }
    }

    pub fn norm(x: &[f64]) -> f64 {
        dot(x, x).sqrt()
    }

    pub fn normalize(x: &mut [f64]) -> f64 {
        let n = norm(x);
        if n > 0.0 {
            scale(1.0 / n, x);
        }
        n
    }

    pub fn orthogonalize_against(x: &mut [f64], basis: &[Vec<f64>]) {
        for b in basis {
            let c = dot(x, b);
            axpy(-c, b, x);
        }
    }

    fn row_lap(columns: &[u32], weights: &[f64], x: &[f64]) -> (f64, f64) {
        let mut acc = 0.0;
        let mut deg = 0.0;
        for (c, w) in columns.iter().zip(weights) {
            acc += w * x[*c as usize];
            deg += w;
        }
        (acc, deg)
    }

    pub fn csr_laplacian_matvec(
        offsets: &[usize],
        columns: &[u32],
        weights: &[f64],
        x: &[f64],
        x_base: usize,
        y: &mut [f64],
    ) {
        let rows = offsets.len() - 1;
        assert!(y.len() >= rows, "y length mismatch");
        for r in 0..rows {
            let (acc, deg) = row_lap(
                &columns[offsets[r]..offsets[r + 1]],
                &weights[offsets[r]..offsets[r + 1]],
                x,
            );
            y[r] = deg * x[x_base + r] - acc;
        }
    }

    pub fn sweep_boundary_update(
        mut cut: f64,
        columns: &[u32],
        weights: &[f64],
        local: &[bool],
    ) -> f64 {
        for (c, w) in columns.iter().zip(weights) {
            if local[*c as usize] {
                cut -= w;
            } else {
                cut += w;
            }
        }
        cut
    }
}

/// Evaluates the closure body twice: first with `kernels` naming the
/// sequential [`reference`], then with `kernels` naming the shipped
/// `mec_linalg::kernels`.
macro_rules! both_modes {
    (|| $body:expr) => {
        (
            {
                use crate::reference as kernels;
                $body
            },
            $body,
        )
    };
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random CSR matrix in raw SoA form, plus a dense input vector.
/// Columns are `u32` (the adjacency-snapshot index type); rows have
/// uneven lengths so the 4-row lock-step hits its per-row tails.
#[derive(Debug, Clone)]
struct CsrCase {
    offsets: Vec<usize>,
    columns: Vec<u32>,
    values: Vec<f64>,
    x: Vec<f64>,
}

fn arb_csr() -> impl Strategy<Value = CsrCase> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let row_lens = proptest::collection::vec(0usize..8, rows);
        let pool = proptest::collection::vec(((0..cols as u32), -5.0f64..5.0), rows * 8);
        let xs = proptest::collection::vec(-5.0f64..5.0, cols);
        (row_lens, pool, xs).prop_map(|(lens, pool, x)| {
            let mut offsets = vec![0usize];
            let mut columns = Vec::new();
            let mut values = Vec::new();
            let mut cursor = 0;
            for len in lens {
                for _ in 0..len {
                    let (c, v) = pool[cursor % pool.len()];
                    columns.push(c);
                    values.push(v);
                    cursor += 1;
                }
                offsets.push(columns.len());
            }
            CsrCase {
                offsets,
                columns,
                values,
                x,
            }
        })
    })
}

fn arb_vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..200).prop_flat_map(|n| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(-5.0f64..5.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -- bit-exact class ---------------------------------------------------

    #[test]
    fn csr_laplacian_matvec_is_bit_exact_across_modes(case in arb_csr()) {
        // the diagonal term reads x[x_base + r], so x must cover the
        // row range too: extend it when the matrix is tall
        let rows = case.offsets.len() - 1;
        let mut x = case.x.clone();
        x.resize(x.len().max(rows), 1.0);
        let (a, b) = both_modes!(|| {
            let mut y = vec![0.0; rows];
            kernels::csr_laplacian_matvec(
                &case.offsets, &case.columns, &case.values, &x, 0, &mut y,
            );
            y
        });
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn axpy_is_bit_exact_across_modes((x, y) in arb_vec_pair(), alpha in -3.0f64..3.0) {
        let (a, b) = both_modes!(|| {
            let mut out = y.clone();
            kernels::axpy(alpha, &x, &mut out);
            out
        });
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn scale_is_bit_exact_across_modes((x, _) in arb_vec_pair(), alpha in -3.0f64..3.0) {
        let (a, b) = both_modes!(|| {
            let mut out = x.clone();
            kernels::scale(alpha, &mut out);
            out
        });
        prop_assert_eq!(bits(&a), bits(&b));
    }

    // -- reassociated (1-ulp-scaled) class ---------------------------------

    #[test]
    fn dot_parity_within_scaled_tolerance((x, y) in arb_vec_pair()) {
        let (a, b) = both_modes!(|| kernels::dot(&x, &y));
        // reassociating a length-n sum perturbs it by at most O(n·eps)
        // of the accumulated magnitude
        let scale: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
        let tol = 8.0 * f64::EPSILON * (x.len() as f64 + 1.0) * scale;
        prop_assert!((a - b).abs() <= tol, "dot drift {} > tol {}", (a - b).abs(), tol);
    }

    #[test]
    fn norm_parity_within_scaled_tolerance((x, _) in arb_vec_pair()) {
        let (a, b) = both_modes!(|| kernels::norm(&x));
        let tol = 8.0 * f64::EPSILON * (x.len() as f64 + 1.0) * (1.0 + a);
        prop_assert!((a - b).abs() <= tol, "norm drift {} > tol {}", (a - b).abs(), tol);
    }

    #[test]
    fn normalize_parity_within_scaled_tolerance((x, _) in arb_vec_pair()) {
        let (a, b) = both_modes!(|| {
            let mut v = x.clone();
            let n = kernels::normalize(&mut v);
            (n, v)
        });
        let tol = 16.0 * f64::EPSILON * (x.len() as f64 + 1.0) * (1.0 + a.0);
        prop_assert!((a.0 - b.0).abs() <= tol);
        for (s, u) in a.1.iter().zip(&b.1) {
            prop_assert!((s - u).abs() <= 16.0 * f64::EPSILON * (x.len() as f64 + 1.0));
        }
    }

    #[test]
    fn sweep_boundary_update_parity(case in arb_csr(), cut in 0.0f64..1e6) {
        let local: Vec<bool> = case.x.iter().map(|v| *v > 0.0).collect();
        let (a, b) = both_modes!(|| {
            kernels::sweep_boundary_update(cut, &case.columns, &case.values, &local)
        });
        let scale: f64 = case.values.iter().map(|w| w.abs()).sum::<f64>() + cut.abs();
        let tol = 8.0 * f64::EPSILON * (case.values.len() as f64 + 1.0) * scale;
        prop_assert!((a - b).abs() <= tol, "cut drift {} > tol {}", (a - b).abs(), tol);
    }

    #[test]
    fn orthogonalize_parity_against_orthonormal_basis(
        seed in proptest::collection::vec(-1.0f64..1.0, 24..96),
        k in 1usize..7,
    ) {
        // build an orthonormal basis deterministically (with the
        // reference loops) so both sides project against the same
        // vectors; blocked CGS and sequential MGS then agree to
        // rounding because cross terms b_i·b_j are already at
        // machine-epsilon level
        let n = seed.len();
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for j in 0..k {
            let mut v: Vec<f64> = (0..n)
                .map(|i| seed[(i * (j + 2) + j) % n] + if i % (j + 1) == 0 { 0.5 } else { 0.0 })
                .collect();
            reference::orthogonalize_against(&mut v, &basis);
            if reference::normalize(&mut v) > 1e-9 {
                basis.push(v);
            }
        }
        let (scalar, unrolled) = both_modes!(|| {
            let mut x = seed.clone();
            kernels::orthogonalize_against(&mut x, &basis);
            x
        });
        let scale = 1.0 + seed.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for (s, u) in scalar.iter().zip(&unrolled) {
            prop_assert!(
                (s - u).abs() <= 1e-10 * scale,
                "orthogonalize drift {}", (s - u).abs()
            );
        }
    }
}
