//! Power iteration for the largest eigenpair.
//!
//! The paper's formula (11) brackets every cut of a sub-graph between
//! the extreme Laplacian eigenvalues; the small end comes from
//! [`fiedler_pair`](crate::fiedler_pair), this module supplies the
//! large end.

use crate::kernels::{axpy, dot, norm, normalize};
use crate::{Eigenpair, LinalgError, SymOp};

/// Tuning for [`largest_eigenpair`].
#[derive(Debug, Clone)]
pub struct PowerOptions {
    /// Residual tolerance `‖Av − λv‖ ≤ tolerance · |λ|`. Default `1e-9`.
    pub tolerance: f64,
    /// Iteration cap. Default `5000`.
    pub max_iterations: usize,
    /// Seed for the deterministic start vector.
    pub seed: u64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            tolerance: 1e-9,
            max_iterations: 5000,
            seed: 0x9077_e21a,
        }
    }
}

/// Computes the eigenpair with the largest *absolute* eigenvalue by
/// power iteration. For positive semi-definite operators (graph
/// Laplacians) this is the largest eigenvalue itself.
///
/// # Errors
///
/// - [`LinalgError::TooManyEigenpairs`] for an empty operator;
/// - [`LinalgError::NoConvergence`] if the iteration cap is reached
///   (e.g. when the two largest eigenvalues coincide exactly, where
///   any vector in their span is still returned if it satisfies the
///   residual test).
pub fn largest_eigenpair<A: SymOp>(op: &A, opts: &PowerOptions) -> Result<Eigenpair, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::TooManyEigenpairs {
            requested: 1,
            dim: 0,
        });
    }
    // deterministic pseudo-random start (SplitMix64)
    let mut state = opts.seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v: Vec<f64> = (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    normalize(&mut v);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for it in 0..opts.max_iterations {
        op.apply(&v, &mut av);
        lambda = dot(&v, &av);
        // residual ‖Av − λv‖
        let mut r = av.clone();
        axpy(-lambda, &v, &mut r);
        if norm(&r) <= opts.tolerance * lambda.abs().max(1e-30) {
            return Ok(Eigenpair {
                value: lambda,
                vector: v,
            });
        }
        let len = normalize(&mut av);
        if len == 0.0 {
            // operator annihilated the vector: restart elsewhere
            v = (0..n)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
                .collect();
            normalize(&mut v);
            continue;
        }
        std::mem::swap(&mut v, &mut av);
        let _ = it;
    }
    Err(LinalgError::NoConvergence {
        iterations: opts.max_iterations,
        residual: lambda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn finds_dominant_eigenvalue_of_k2() {
        // K_2 Laplacian with weight 3: spectrum {0, 6}
        let l = CsrMatrix::laplacian_from_edges(2, &[(0, 1, 3.0)]).unwrap();
        let pair = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        assert!((pair.value - 6.0).abs() < 1e-7);
    }

    #[test]
    fn complete_graph_lambda_max_is_n() {
        let n = 20;
        let mut edges = vec![];
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, 1.0));
            }
        }
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let pair = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        assert!((pair.value - n as f64).abs() < 1e-6);
    }

    #[test]
    fn path_graph_lambda_max_matches_closed_form() {
        // P_n: lambda_max = 2 - 2 cos((n-1) pi / n)
        let n = 16;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let l = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let pair = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        let expected = 2.0 - 2.0 * ((n - 1) as f64 * std::f64::consts::PI / n as f64).cos();
        assert!((pair.value - expected).abs() < 1e-6);
    }

    #[test]
    fn residual_is_small() {
        let edges: Vec<_> = (0..29).map(|i| (i, i + 1, 1.0 + (i % 3) as f64)).collect();
        let l = CsrMatrix::laplacian_from_edges(30, &edges).unwrap();
        let pair = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        let mut av = vec![0.0; 30];
        l.apply(&pair.vector, &mut av);
        axpy(-pair.value, &pair.vector, &mut av);
        assert!(norm(&av) < 1e-7);
    }

    #[test]
    fn empty_operator_is_rejected() {
        let l = CsrMatrix::from_triplets(0, &[]).unwrap();
        assert!(matches!(
            largest_eigenpair(&l, &PowerOptions::default()),
            Err(LinalgError::TooManyEigenpairs { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let edges: Vec<_> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let l = CsrMatrix::laplacian_from_edges(10, &edges).unwrap();
        let a = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        let b = largest_eigenpair(&l, &PowerOptions::default()).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
}
