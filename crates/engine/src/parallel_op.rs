//! The cluster-backed Laplacian operator.
//!
//! This is the piece that substitutes the paper's "matrix
//! multiplications on Spark" (§IV, Fig. 9): the rows of a graph's CSR
//! snapshot are sharded into row blocks, and every `y = L x` product
//! runs one task per block on the [`Cluster`].

use crate::apply_scratch::{self, ApplyScratch};
use crate::{Cluster, EngineError};
use mec_graph::CsrAdjacency;
use mec_linalg::SymOp;
use std::sync::{Arc, Mutex};

/// A graph-Laplacian [`SymOp`] whose matrix-vector products are
/// distributed over a [`Cluster`].
///
/// Holds one shared copy of a [`CsrAdjacency`] snapshot, whose rows
/// are split into contiguous blocks. Each `apply` broadcasts `x` to the
/// workers (one `Arc` clone per task), runs one task per block and
/// reassembles `y` in block order — the same stage structure Spark
/// would use for a block-partitioned `L·x`. Every block runs the
/// snapshot's own kernel on its own rows, so the product has the same
/// bits as the serial `CsrAdjacency::apply`.
#[derive(Debug, Clone)]
pub struct ParallelLaplacian {
    cluster: Arc<Cluster>,
    csr: Arc<CsrAdjacency>,
    /// Rows per block (the last block may hold fewer).
    rows_per: usize,
    blocks: usize,
    /// Recycled broadcast / gather buffers (see [`apply_scratch`]);
    /// shared by clones, which keeps repeated products allocation-free
    /// no matter which handle runs them.
    scratch: Arc<Mutex<ApplyScratch>>,
}

impl ParallelLaplacian {
    /// Builds the operator for the Laplacian of `csr`, sharded into
    /// `blocks` row blocks of `⌈n / blocks⌉` rows (fewer blocks when
    /// the rows run out; one empty block for an empty graph).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoPartitions`] when `blocks == 0`.
    pub fn from_csr(
        cluster: Arc<Cluster>,
        csr: &CsrAdjacency,
        blocks: usize,
    ) -> Result<Self, EngineError> {
        if blocks == 0 {
            return Err(EngineError::NoPartitions);
        }
        let n = csr.node_count();
        let rows_per = n.div_ceil(blocks.min(n.max(1))).max(1);
        Ok(ParallelLaplacian {
            cluster,
            csr: Arc::new(csr.clone()),
            rows_per,
            blocks: n.div_ceil(rows_per).max(1),
            scratch: ApplyScratch::shared(),
        })
    }

    /// Number of row blocks (= tasks per matrix-vector product).
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// The cluster this operator runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

impl SymOp for ParallelLaplacian {
    fn dim(&self) -> usize {
        self.csr.node_count()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "x length mismatch");
        assert_eq!(y.len(), n, "y length mismatch");
        // broadcast: one shared (pooled) copy of x for the whole
        // stage; each task also carries its pooled output buffer
        let (xs, inputs) = apply_scratch::checkout(&self.scratch, x, self.blocks);
        let csr = Arc::clone(&self.csr);
        let rows_per = self.rows_per;
        let xs_stage = Arc::clone(&xs);
        let pieces = self
            .cluster
            .run_stage(inputs, move |_, (bi, mut out)| {
                let start = bi * rows_per;
                let end = (start + rows_per).min(n);
                let (offsets, columns, weights) = csr.as_parts();
                out.clear();
                out.resize(end - start, 0.0);
                mec_linalg::kernels::csr_laplacian_matvec(
                    &offsets[start..=end],
                    columns,
                    weights,
                    &xs_stage,
                    start,
                    &mut out,
                );
                (start, out)
            })
            .expect("laplacian stage does not panic");
        apply_scratch::retire(&self.scratch, xs, pieces, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::{Graph, GraphBuilder};
    use mec_linalg::{fiedler_pair, LanczosOptions, LanczosScratch};

    fn cluster() -> Arc<Cluster> {
        Arc::new(Cluster::new(4).unwrap())
    }

    fn graph(n: usize, edges: &[(usize, usize, f64)]) -> Graph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
        for &(u, v, w) in edges {
            b.add_edge(ids[u], ids[v], w).unwrap();
        }
        b.build()
    }

    fn ring_edges(n: usize) -> Vec<(usize, usize, f64)> {
        (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64))
            .collect()
    }

    fn ring(n: usize) -> CsrAdjacency {
        CsrAdjacency::build(&graph(n, &ring_edges(n)))
    }

    #[test]
    fn rejects_zero_blocks() {
        assert_eq!(
            ParallelLaplacian::from_csr(cluster(), &ring(4), 0).unwrap_err(),
            EngineError::NoPartitions
        );
    }

    #[test]
    fn products_match_the_serial_snapshot_bit_for_bit() {
        // a weighted ring with chords; a graph whose isolated nodes
        // leave blocks of empty rows; the empty graph
        let mut chords = ring_edges(57);
        chords.extend([(0, 28, 2.5), (10, 40, 0.75), (5, 50, 1.25)]);
        let isolated = [(0, 1, 2.0), (1, 5, 0.25), (5, 0, 3.0), (20, 22, 1.5)];
        let c = cluster();
        for g in [graph(57, &chords), graph(23, &isolated), graph(0, &[])] {
            let csr = CsrAdjacency::build(&g);
            let n = csr.dim();
            let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 / 3.0 - 2.7).collect();
            let mut serial = vec![0.0; n];
            csr.apply(&x, &mut serial);
            // one to nine blocks, then more blocks than rows
            for blocks in (1..=9).chain([n + 1, 4 * n + 3]) {
                let par = ParallelLaplacian::from_csr(Arc::clone(&c), &csr, blocks).unwrap();
                assert_eq!(par.dim(), n);
                assert!(par.block_count() <= blocks.min(n.max(1)));
                let mut y = vec![f64::NAN; n];
                par.apply(&x, &mut y);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&serial), "{n} nodes, {blocks} blocks");
            }
        }
    }

    #[test]
    fn block_count_respects_request() {
        let par = ParallelLaplacian::from_csr(cluster(), &ring(100), 8).unwrap();
        assert_eq!(par.block_count(), 8);
        // more blocks than rows clamps
        let par2 = ParallelLaplacian::from_csr(cluster(), &ring(3), 10).unwrap();
        assert!(par2.block_count() <= 3);
    }

    #[test]
    fn eigensolver_runs_on_parallel_backend() {
        let n = 64;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let csr = CsrAdjacency::build(&graph(n, &edges));
        let par = ParallelLaplacian::from_csr(cluster(), &csr, 6).unwrap();
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let pair =
            fiedler_pair(&par, &opts, &mec_obs::NullSink, &mut LanczosScratch::new()).unwrap();
        let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!((pair.value - expected).abs() < 1e-7);
    }

    #[test]
    fn stage_metrics_grow_with_applications() {
        let c = cluster();
        let par = ParallelLaplacian::from_csr(Arc::clone(&c), &ring(20), 4).unwrap();
        let stages = || {
            c.registry()
                .snapshot()
                .histogram("engine.stage_width")
                .map_or(0, |h| h.count())
        };
        let before = stages();
        let x = vec![1.0; 20];
        let mut y = vec![0.0; 20];
        par.apply(&x, &mut y);
        par.apply(&x, &mut y);
        assert_eq!(stages(), before + 2);
    }
}
