//! Power iteration for the largest eigenpair.
//!
//! The paper's formula (11) brackets every cut of a sub-graph between
//! the extreme Laplacian eigenvalues; the small end comes from
//! [`fiedler_pair`](crate::fiedler_pair), this module supplies the
//! large end.

use crate::kernels::{axpy, dot, norm, normalize};
use crate::lanczos::random_unit_vector_into;
use crate::{Eigenpair, LinalgError, SymOp};

/// Residual tolerance `‖Av − λv‖ ≤ TOLERANCE · |λ|`.
const TOLERANCE: f64 = 1e-9;

/// Iteration cap.
const MAX_ITERATIONS: usize = 5000;

/// Seed of the deterministic start vector.
const START_SEED: u64 = 0x9077_e21a;

/// Computes the eigenpair with the largest *absolute* eigenvalue by
/// power iteration. For positive semi-definite operators (graph
/// Laplacians) this is the largest eigenvalue itself.
///
/// # Errors
///
/// - [`LinalgError::TooManyEigenpairs`] for an empty operator;
/// - [`LinalgError::NoConvergence`] after 5 000 iterations (e.g. when
///   the two largest eigenvalues coincide exactly, where any vector in
///   their span is still returned if it satisfies the residual test).
pub fn largest_eigenpair<A: SymOp>(op: &A) -> Result<Eigenpair, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::TooManyEigenpairs {
            requested: 1,
            dim: 0,
        });
    }
    // deterministic pseudo-random start (SplitMix64)
    let mut state = START_SEED;
    let mut v = vec![0.0; n];
    random_unit_vector_into(&mut v, &mut state);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..MAX_ITERATIONS {
        op.apply(&v, &mut av);
        lambda = dot(&v, &av);
        // residual ‖Av − λv‖
        let mut r = av.clone();
        axpy(-lambda, &v, &mut r);
        if norm(&r) <= TOLERANCE * lambda.abs().max(1e-30) {
            return Ok(Eigenpair {
                value: lambda,
                vector: v,
            });
        }
        if normalize(&mut av) == 0.0 {
            // operator annihilated the vector: restart elsewhere
            random_unit_vector_into(&mut v, &mut state);
            continue;
        }
        std::mem::swap(&mut v, &mut av);
    }
    Err(LinalgError::NoConvergence {
        iterations: MAX_ITERATIONS,
        residual: lambda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::EdgeLaplacian;

    #[test]
    fn finds_dominant_eigenvalue_of_k2() {
        // K_2 Laplacian with weight 3: spectrum {0, 6}
        let l = EdgeLaplacian::new(2, &[(0, 1, 3.0)]);
        let pair = largest_eigenpair(&l).unwrap();
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
        let l = EdgeLaplacian::new(n, &edges);
        let pair = largest_eigenpair(&l).unwrap();
        assert!((pair.value - n as f64).abs() < 1e-6);
    }

    #[test]
    fn path_graph_lambda_max_matches_closed_form() {
        // P_n: lambda_max = 2 - 2 cos((n-1) pi / n)
        let n = 16;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let l = EdgeLaplacian::new(n, &edges);
        let pair = largest_eigenpair(&l).unwrap();
        let expected = 2.0 - 2.0 * ((n - 1) as f64 * std::f64::consts::PI / n as f64).cos();
        assert!((pair.value - expected).abs() < 1e-6);
    }

    #[test]
    fn residual_is_small() {
        let edges: Vec<_> = (0..29).map(|i| (i, i + 1, 1.0 + (i % 3) as f64)).collect();
        let l = EdgeLaplacian::new(30, &edges);
        let pair = largest_eigenpair(&l).unwrap();
        let mut av = vec![0.0; 30];
        l.apply(&pair.vector, &mut av);
        axpy(-pair.value, &pair.vector, &mut av);
        assert!(norm(&av) < 1e-7);
    }

    #[test]
    fn empty_operator_is_rejected() {
        let l = EdgeLaplacian::new(0, &[]);
        assert!(matches!(
            largest_eigenpair(&l),
            Err(LinalgError::TooManyEigenpairs { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let edges: Vec<_> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let l = EdgeLaplacian::new(10, &edges);
        let a = largest_eigenpair(&l).unwrap();
        let b = largest_eigenpair(&l).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
}
