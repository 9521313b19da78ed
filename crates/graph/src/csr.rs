//! Compressed-sparse-row adjacency snapshot.
//!
//! The spectral stage multiplies Laplacians against vectors thousands of
//! times; a CSR layout gives the eigensolver cache-friendly neighbour
//! scans without chasing per-node `Vec`s.

use crate::Graph;

/// Immutable CSR snapshot of a graph's weighted adjacency.
///
/// Row `i` lists `(neighbor, weight)` pairs for node `i`; each
/// undirected edge appears in both endpoint rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdjacency {
    offsets: Vec<usize>,
    columns: Vec<u32>,
    weights: Vec<f64>,
}

impl CsrAdjacency {
    /// An empty snapshot (zero nodes); useful as the initial state of a
    /// reusable buffer fed to [`rebuild_from`](CsrAdjacency::rebuild_from).
    pub fn empty() -> Self {
        CsrAdjacency {
            offsets: vec![0],
            columns: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Builds the CSR view of `g`.
    pub fn build(g: &Graph) -> Self {
        let mut csr = CsrAdjacency::empty();
        csr.rebuild_from(g);
        csr
    }

    /// Re-snapshots `g` into this CSR, reusing the existing backing
    /// storage. Repeated snapshots of similar-sized graphs stop
    /// allocating once capacity has grown to the high-water mark —
    /// this is what lets the spectral hot path rebuild its operator per
    /// cut without touching the heap.
    pub fn rebuild_from(&mut self, g: &Graph) {
        let n = g.node_count();
        self.offsets.clear();
        self.columns.clear();
        self.weights.clear();
        self.offsets.reserve(n + 1);
        self.columns.reserve(2 * g.edge_count());
        self.weights.reserve(2 * g.edge_count());
        self.offsets.push(0usize);
        for node in g.node_ids() {
            for nb in g.neighbors(node) {
                self.columns
                    .push(u32::try_from(nb.node.index()).expect("node index exceeds u32"));
                self.weights.push(g.edge_weight(nb.edge));
            }
            self.offsets.push(self.columns.len());
        }
    }

    /// Number of rows (nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Multiplies the graph **Laplacian** `L = D − A` against `x`,
    /// writing into `y` (`y = L x`). This is the kernel the paper's
    /// spectral stage spends its time in.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length differs from the node count.
    pub fn laplacian_mul(&self, x: &[f64], y: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(x.len(), n, "x length mismatch");
        assert_eq!(y.len(), n, "y length mismatch");
        mec_linalg::kernels::csr_laplacian_matvec(
            &self.offsets,
            &self.columns,
            &self.weights,
            x,
            0,
            y,
        );
    }

    /// Raw CSR parts `(offsets, columns, weights)`, e.g. for shipping
    /// rows to a parallel backend.
    pub fn as_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.offsets, &self.columns, &self.weights)
    }
}

impl Default for CsrAdjacency {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..3).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[0], 3.0).unwrap();
        b.build()
    }

    #[test]
    fn csr_mirrors_adjacency() {
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), 3);
        let (offsets, columns, weights) = csr.as_parts();
        assert_eq!(columns.len(), 6);
        let row0: Vec<_> = columns[offsets[0]..offsets[1]]
            .iter()
            .zip(&weights[offsets[0]..offsets[1]])
            .map(|(&c, &w)| (c, w))
            .collect();
        assert_eq!(row0.len(), 2);
        assert!(row0.contains(&(1, 1.0)));
        assert!(row0.contains(&(2, 3.0)));
        assert_eq!(row0.iter().map(|&(_, w)| w).sum::<f64>(), 4.0);
    }

    #[test]
    fn laplacian_mul_annihilates_constants() {
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        let x = [5.0; 3];
        let mut y = [1.0; 3];
        csr.laplacian_mul(&x, &mut y);
        for v in y {
            assert!(v.abs() < 1e-12, "L * 1 must be 0, got {v}");
        }
    }

    #[test]
    fn laplacian_quadratic_form_equals_cut_identity() {
        // x^T L x = sum over edges w_uv (x_u - x_v)^2
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        let x = [1.0, -1.0, 2.0];
        let mut y = [0.0; 3];
        csr.laplacian_mul(&x, &mut y);
        let quad: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let direct: f64 = g
            .edges()
            .map(|e| e.weight * (x[e.source.index()] - x[e.target.index()]).powi(2))
            .sum();
        assert!((quad - direct).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_csr() {
        let g = GraphBuilder::new().build();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), 0);
        assert!(csr.as_parts().1.is_empty());
        csr.laplacian_mul(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn mul_validates_dimensions() {
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        let mut y = [0.0; 3];
        csr.laplacian_mul(&[1.0], &mut y);
    }

    #[test]
    fn rebuild_reuses_capacity_and_matches_build() {
        let g = triangle();
        let mut csr = CsrAdjacency::empty();
        csr.rebuild_from(&g);
        assert_eq!(csr, CsrAdjacency::build(&g));
        let cap = (csr.offsets.capacity(), csr.columns.capacity());
        csr.rebuild_from(&g);
        assert_eq!(csr, CsrAdjacency::build(&g));
        assert_eq!((csr.offsets.capacity(), csr.columns.capacity()), cap);
    }
}
