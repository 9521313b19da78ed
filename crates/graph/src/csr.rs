//! Compressed-sparse-row adjacency view.
//!
//! The spectral stage multiplies Laplacians against vectors thousands of
//! times; a CSR layout gives the eigensolver cache-friendly neighbour
//! scans without chasing per-node `Vec`s.

use crate::{Graph, NodeId};

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

    /// Rebuilds this CSR as the **induced** sub-matrix selected by
    /// `view`, reusing the backing storage: once capacities have grown
    /// to the high-water mark, compacting further subsets performs no
    /// heap allocation. Entries keep the parent's row order, so the
    /// result is entry-for-entry identical to
    /// [`build`](CsrAdjacency::build) on the owned induced graph.
    pub fn rebuild_from_view(&mut self, view: &CsrView<'_>) {
        let n = view.node_count();
        self.offsets.clear();
        self.columns.clear();
        self.weights.clear();
        self.offsets.reserve(n + 1);
        self.offsets.push(0usize);
        for i in 0..n {
            for (nb, w) in view.row(i) {
                self.columns.push(nb);
                self.weights.push(w);
            }
            self.offsets.push(self.columns.len());
        }
    }

    /// Number of rows (nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored entries (twice the edge count).
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.columns.len()
    }

    /// Iterates the `(neighbor, weight)` pairs of row `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn row(&self, n: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> + '_ {
        let (lo, hi) = (self.offsets[n.index()], self.offsets[n.index() + 1]);
        self.columns[lo..hi]
            .iter()
            .zip(&self.weights[lo..hi])
            .map(|(&c, &w)| (NodeId::new(c as usize), w))
    }

    /// Sum of weights in row `n` (the weighted degree).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn row_sum(&self, n: NodeId) -> f64 {
        let (lo, hi) = (self.offsets[n.index()], self.offsets[n.index() + 1]);
        self.weights[lo..hi].iter().sum()
    }

    /// Multiplies the weighted adjacency matrix against `x`, writing
    /// into `y` (`y = A x`).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` length differs from the node count.
    pub fn adjacency_mul(&self, x: &[f64], y: &mut [f64]) {
        let n = self.node_count();
        assert_eq!(x.len(), n, "x length mismatch");
        assert_eq!(y.len(), n, "y length mismatch");
        mec_linalg::kernels::csr_matvec(&self.offsets, &self.columns, &self.weights, x, y);
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

    /// Restricts this CSR to the induced sub-matrix on `nodes` without
    /// copying any rows.
    ///
    /// `nodes[i]` is the parent index of local row `i`; `to_local` maps
    /// parent index → local index with [`CsrView::OUTSIDE`] marking
    /// nodes outside the subset. The caller owns both maps (typically
    /// pooled in a scratch arena) so a recursive partitioner descends
    /// the cut tree with **zero** per-level graph materialisation.
    ///
    /// # Panics
    ///
    /// Panics if `to_local` is shorter than the parent node count or an
    /// entry of `nodes` is out of bounds (debug assertions).
    pub fn view<'a>(&'a self, nodes: &'a [u32], to_local: &'a [u32]) -> CsrView<'a> {
        debug_assert!(to_local.len() >= self.node_count());
        debug_assert!(
            nodes
                .iter()
                .all(|&p| (p as usize) < self.node_count()
                    && to_local[p as usize] != CsrView::OUTSIDE)
        );
        CsrView {
            parent: self,
            nodes,
            to_local,
        }
    }
}

impl Default for CsrAdjacency {
    fn default() -> Self {
        Self::empty()
    }
}

/// Index-space restriction of a parent [`CsrAdjacency`] to a node
/// subset — the induced sub-graph's adjacency without building an
/// owned [`Graph`] or copying rows.
///
/// Edges leaving the subset are skipped on the fly, so
/// [`row`](CsrView::row) and [`row_sum`](CsrView::row_sum) see exactly
/// the induced sub-graph's adjacency and weighted degrees. Neighbour
/// order within a row follows the parent row, which itself follows the
/// parent's edge-insertion order — the same order an owned induced
/// graph's CSR would produce, so
/// [`CsrAdjacency::rebuild_from_view`] compacts a view into that CSR
/// entry for entry.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    parent: &'a CsrAdjacency,
    /// Local row → parent row.
    nodes: &'a [u32],
    /// Parent row → local row, [`CsrView::OUTSIDE`] when excluded.
    to_local: &'a [u32],
}

impl<'a> CsrView<'a> {
    /// Sentinel marking a parent node as outside the subset in the
    /// `to_local` map.
    pub const OUTSIDE: u32 = u32::MAX;

    /// Number of rows (subset size).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The parent row backing local row `i`.
    #[inline]
    pub fn parent_of(&self, i: usize) -> u32 {
        self.nodes[i]
    }

    /// Iterates the in-subset `(local_neighbor, weight)` pairs of local
    /// row `i`, in parent-row order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let to_local = self.to_local;
        self.parent
            .row(NodeId::new(self.nodes[i] as usize))
            .filter_map(move |(nb, w)| {
                let l = to_local[nb.index()];
                (l != Self::OUTSIDE).then_some((l, w))
            })
    }

    /// Sum of in-subset weights of local row `i` (the induced weighted
    /// degree).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.row(i).map(|(_, w)| w).sum()
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
        assert_eq!(csr.entry_count(), 6);
        let row0: Vec<_> = csr.row(NodeId::new(0)).collect();
        assert_eq!(row0.len(), 2);
        assert!(row0.contains(&(NodeId::new(1), 1.0)));
        assert!(row0.contains(&(NodeId::new(2), 3.0)));
        assert_eq!(csr.row_sum(NodeId::new(0)), 4.0);
    }

    #[test]
    fn adjacency_mul_matches_manual() {
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        csr.adjacency_mul(&x, &mut y);
        // A = [[0,1,3],[1,0,2],[3,2,0]]
        assert_eq!(y, [1.0 * 2.0 + 3.0 * 3.0, 1.0 + 2.0 * 3.0, 3.0 + 2.0 * 2.0]);
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
        assert_eq!(csr.entry_count(), 0);
        csr.adjacency_mul(&[], &mut []);
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

    /// Path 0-1-2-3 restricted to {1, 2, 3}: the view's rows must be
    /// the induced path 1-2-3's rows.
    #[test]
    fn view_laplacian_matches_induced_graph() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 5.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[3], 3.0).unwrap();
        let g = b.build();
        let csr = CsrAdjacency::build(&g);
        let nodes = [1u32, 2, 3];
        let mut to_local = vec![CsrView::OUTSIDE; 4];
        for (l, &p) in nodes.iter().enumerate() {
            to_local[p as usize] = l as u32;
        }
        let view = csr.view(&nodes, &to_local);
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.parent_of(0), 1);
        // induced degrees: node 1 loses the weight-5 edge to node 0
        assert_eq!(view.row_sum(0), 2.0);
        assert_eq!(view.row_sum(1), 5.0);
    }

    /// Compacting a view must reproduce the CSR of the owned induced
    /// graph entry-for-entry (same order, same floats).
    #[test]
    fn rebuild_from_view_matches_induced_build() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 5.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[3], 3.0).unwrap();
        b.add_edge(n[3], n[4], 1.0).unwrap();
        b.add_edge(n[1], n[4], 4.0).unwrap();
        let g = b.build();
        let csr = CsrAdjacency::build(&g);
        let nodes = [1u32, 2, 4];
        let mut to_local = vec![CsrView::OUTSIDE; 5];
        for (l, &p) in nodes.iter().enumerate() {
            to_local[p as usize] = l as u32;
        }
        let view = csr.view(&nodes, &to_local);
        let mut compact = CsrAdjacency::empty();
        compact.rebuild_from_view(&view);
        let ids: Vec<NodeId> = nodes.iter().map(|&p| NodeId::new(p as usize)).collect();
        let induced = crate::Subgraph::induced(&g, &ids);
        assert_eq!(compact, CsrAdjacency::build(induced.graph()));
        // and a second compaction into warmed storage allocates nothing new
        let cap = (compact.offsets.capacity(), compact.columns.capacity());
        compact.rebuild_from_view(&view);
        assert_eq!(
            (compact.offsets.capacity(), compact.columns.capacity()),
            cap
        );
    }

    #[test]
    fn view_rows_skip_outside_neighbors() {
        let g = triangle();
        let csr = CsrAdjacency::build(&g);
        let nodes = [0u32, 1];
        let mut to_local = vec![CsrView::OUTSIDE; 3];
        to_local[0] = 0;
        to_local[1] = 1;
        let view = csr.view(&nodes, &to_local);
        let row0: Vec<_> = view.row(0).collect();
        assert_eq!(row0, vec![(1, 1.0)]);
    }
}
