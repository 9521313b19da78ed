//! Laplacian operators over graphs.

use mec_graph::{CsrAdjacency, Graph};
use mec_linalg::SymOp;

/// The graph Laplacian `L = D − A` of a [`Graph`], as a serial
/// symmetric operator.
///
/// Holds a CSR snapshot of the adjacency, so later mutations of the
/// graph's weights are not reflected.
#[derive(Debug, Clone)]
pub struct GraphLaplacian {
    csr: CsrAdjacency,
}

impl GraphLaplacian {
    /// Snapshots the Laplacian of `g`.
    pub fn new(g: &Graph) -> Self {
        GraphLaplacian {
            csr: CsrAdjacency::build(g),
        }
    }

    /// The underlying CSR adjacency.
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }
}

impl SymOp for GraphLaplacian {
    fn dim(&self) -> usize {
        self.csr.node_count()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.csr.laplacian_mul(x, y)
    }
}

/// The Laplacian of a *borrowed* CSR snapshot — the scratch-arena
/// variant of [`GraphLaplacian`]: the bisector rebuilds one pooled
/// [`CsrAdjacency`] in place per cut and lends it to the eigensolver
/// through this operator, so no CSR storage is allocated per cut.
#[derive(Debug, Clone, Copy)]
pub struct CsrLaplacian<'a> {
    csr: &'a CsrAdjacency,
}

impl<'a> CsrLaplacian<'a> {
    /// Wraps a CSR snapshot.
    pub fn new(csr: &'a CsrAdjacency) -> Self {
        CsrLaplacian { csr }
    }
}

impl SymOp for CsrLaplacian<'_> {
    fn dim(&self) -> usize {
        self.csr.node_count()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.csr.laplacian_mul(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_linalg::{fiedler_pair, LanczosOptions, LanczosScratch};

    #[test]
    fn laplacian_annihilates_constants() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        for k in 1..5 {
            b.add_edge(n[k - 1], n[k], k as f64).unwrap();
        }
        let l = GraphLaplacian::new(&b.build());
        let mut y = vec![1.0; 5];
        l.apply(&[2.0; 5], &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn eigensolver_accepts_graph_laplacian() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..2).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 4.0).unwrap();
        let l = GraphLaplacian::new(&b.build());
        let opts = LanczosOptions::default();
        let pair = fiedler_pair(&l, &opts, &mec_obs::NullSink, &mut LanczosScratch::new()).unwrap();
        assert!((pair.value - 8.0).abs() < 1e-9);
    }
}
