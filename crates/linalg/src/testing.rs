//! A test-only graph Laplacian for this crate's unit tests.
//!
//! The shipped operator is `mec_graph::CsrAdjacency`, but mec-graph
//! implements the `SymOp` of the library build of this crate, which a
//! unit-test build does not see as its own. The integration tests and
//! doc examples use `CsrAdjacency`; the unit tests use this.

use crate::SymOp;

/// `L = D − A` of an undirected weighted edge list over `n` nodes;
/// repeated edges add up.
pub(crate) struct EdgeLaplacian {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl EdgeLaplacian {
    pub(crate) fn new(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        EdgeLaplacian {
            n,
            edges: edges.to_vec(),
        }
    }
}

impl SymOp for EdgeLaplacian {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        assert_eq!(y.len(), self.n, "y length mismatch");
        y.fill(0.0);
        for &(a, b, w) in &self.edges {
            let flow = w * (x[a] - x[b]);
            y[a] += flow;
            y[b] -= flow;
        }
    }
}
