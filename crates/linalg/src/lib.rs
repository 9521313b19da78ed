//! Sparse symmetric linear algebra for the spectral offloading stage.
//!
//! The paper (§III-B) reads the minimum cut of each compressed sub-graph
//! off the eigenvector of the graph Laplacian belonging to the second
//! smallest eigenvalue. This crate supplies everything needed to compute
//! that eigenpair from scratch, with no external linear-algebra
//! dependency:
//!
//! - [`SymOp`] — the symmetric-operator contract (`y = A x`) the
//!   solvers multiply through. The graph Laplacian the pipeline cuts
//!   along is `mec_graph::CsrAdjacency`, whose product is
//!   [`kernels::csr_laplacian_matvec`]; `mec-engine`'s
//!   `ParallelLaplacian` applies the same kernel to row blocks of that
//!   snapshot on a cluster;
//! - [`fiedler_pair`] — the Fiedler-pair solver: one Lanczos
//!   recurrence with full re-orthogonalisation on the complement of
//!   the constant vector (one Gram–Schmidt pass per step, repeated
//!   only when it cancels, by the Daniel–Gragg–Kaufman–Stewart test),
//!   checked every 8 steps by Sturm bisection on its tridiagonal
//!   matrix, or a dense solve for small operators;
//! - [`tridiagonal_eigen`] — implicit-QL eigensolver for symmetric
//!   tridiagonal matrices;
//! - [`jacobi_eigen`] — a dense Jacobi reference solver used for
//!   cross-validation and small systems;
//! - [`householder_eigen`] — the classic dense two-stage solver
//!   (Householder reduction + QL), faster than Jacobi at equal
//!   robustness;
//! - [`largest_eigenpair`] — power iteration for `λ_max` (formula (11));
//! - [`kernels`] — the dot/axpy/Gram–Schmidt, CSR Laplacian matvec and
//!   sweep-cut loops every operator and solver above runs on, each
//!   with one 4-lane unrolled body.
//!
//! # Example: Fiedler pair of a path graph
//!
//! ```
//! use mec_graph::{CsrAdjacency, GraphBuilder};
//! use mec_linalg::{fiedler_pair, LanczosOptions, LanczosScratch};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Laplacian of the path 0-1-2 (unit weights).
//! let mut b = GraphBuilder::new();
//! let n: Vec<_> = (0..3).map(|_| b.add_node(1.0)).collect();
//! b.add_edge(n[0], n[1], 1.0)?;
//! b.add_edge(n[1], n[2], 1.0)?;
//! let l = CsrAdjacency::build(&b.build());
//! let opts = LanczosOptions::default();
//! let pair = fiedler_pair(&l, &opts, &mec_obs::NullSink, &mut LanczosScratch::new())?;
//! assert!((pair.value - 1.0).abs() < 1e-8);  // lambda_2 = 1 for P_3
//! assert!(pair.vector[1].abs() < 1e-8);      // the middle node sits on the cut
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// index-based loops over rows/columns are the natural idiom in the
// numeric kernels here; iterator gymnastics would obscure the math
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod dense;
mod error;
mod householder;
pub mod kernels;
mod lanczos;
mod power;
#[cfg(test)]
mod testing;
mod tridiag;

pub use dense::{jacobi_eigen, DenseMatrix};
pub use error::LinalgError;
pub use householder::{householder_eigen, householder_tridiagonalize, HouseholderReduction};
pub use lanczos::{fiedler_pair, Eigenpair, LanczosOptions, LanczosScratch};
pub use power::largest_eigenpair;
pub use tridiag::tridiagonal_eigen;

/// A real symmetric linear operator: everything the iterative solvers
/// need to know about a matrix.
///
/// The pipeline's one Laplacian is `mec_graph::CsrAdjacency`; the
/// cluster backend, `mec_engine::ParallelLaplacian`, applies row blocks
/// of the same snapshot, and [`DenseMatrix`] is the dense form the
/// small-operator solves read. Implementations must be genuinely
/// symmetric (`xᵀ(Ay) = yᵀ(Ax)`); Lanczos silently produces garbage
/// otherwise.
pub trait SymOp {
    /// Dimension `n` of the operator (matrices are `n × n`).
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl<T: SymOp + ?Sized> SymOp for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
}
