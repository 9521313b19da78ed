//! Cluster-backed general sparse symmetric matrices.
//!
//! [`ParallelLaplacian`](crate::ParallelLaplacian) is specialised to
//! graph Laplacians; [`ParallelCsr`] distributes *any* symmetric CSR
//! matrix the same way — one row-block task per stage — so the engine
//! can accelerate arbitrary `mec-linalg` workloads (CG solves,
//! non-Laplacian spectra).

use crate::apply_scratch::{self, ApplyScratch};
use crate::{Cluster, EngineError};
use mec_linalg::{CsrMatrix, SymOp};
use std::sync::{Arc, Mutex};

/// One contiguous block of matrix rows.
#[derive(Debug)]
struct CsrBlock {
    start: usize,
    offsets: Vec<usize>,
    columns: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBlock {
    fn apply(&self, x: &[f64], out: &mut Vec<f64>) {
        let rows = self.offsets.len() - 1;
        out.clear();
        out.resize(rows, 0.0);
        mec_linalg::kernels::csr_matvec(&self.offsets, &self.columns, &self.values, x, out);
    }
}

/// A symmetric CSR matrix whose matrix-vector products run as one task
/// per row block on a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ParallelCsr {
    cluster: Arc<Cluster>,
    blocks: Arc<Vec<CsrBlock>>,
    dim: usize,
    /// Recycled broadcast / gather buffers, shared by clones.
    scratch: Arc<Mutex<ApplyScratch>>,
}

impl ParallelCsr {
    /// Shards `matrix` into `blocks` row blocks on `cluster`.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoPartitions`] when `blocks == 0`.
    pub fn new(
        cluster: Arc<Cluster>,
        matrix: &CsrMatrix,
        blocks: usize,
    ) -> Result<Self, EngineError> {
        if blocks == 0 {
            return Err(EngineError::NoPartitions);
        }
        let n = matrix.dim();
        let b = blocks.min(n.max(1));
        let rows_per = n.div_ceil(b.max(1)).max(1);
        let mut shards = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + rows_per).min(n);
            let mut offsets = vec![0usize];
            let mut columns = Vec::new();
            let mut values = Vec::new();
            for r in start..end {
                for (c, v) in matrix.row(r) {
                    columns.push(c);
                    values.push(v);
                }
                offsets.push(columns.len());
            }
            shards.push(CsrBlock {
                start,
                offsets,
                columns,
                values,
            });
            start = end;
        }
        if shards.is_empty() {
            shards.push(CsrBlock {
                start: 0,
                offsets: vec![0],
                columns: vec![],
                values: vec![],
            });
        }
        Ok(ParallelCsr {
            cluster,
            blocks: Arc::new(shards),
            dim: n,
            scratch: ApplyScratch::shared(),
        })
    }

    /// Number of row blocks (= tasks per product).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl SymOp for ParallelCsr {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "x length mismatch");
        assert_eq!(y.len(), self.dim, "y length mismatch");
        let (xs, inputs) = apply_scratch::checkout(&self.scratch, x, self.blocks.len());
        let blocks = Arc::clone(&self.blocks);
        let xs_stage = Arc::clone(&xs);
        let pieces = self
            .cluster
            .run_stage(inputs, move |_, (bi, mut out)| {
                blocks[bi].apply(&xs_stage, &mut out);
                (blocks[bi].start, out)
            })
            .expect("csr stage does not panic");
        apply_scratch::retire(&self.scratch, xs, pieces, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_linalg::{smallest_eigenpairs, LanczosOptions};

    fn cluster() -> Arc<Cluster> {
        Arc::new(Cluster::new(3).unwrap())
    }

    fn spd_matrix(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 3.0 + (i % 4) as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, &t).unwrap()
    }

    #[test]
    fn matches_serial_matvec() {
        let m = spd_matrix(41);
        let par = ParallelCsr::new(cluster(), &m, 5).unwrap();
        let x: Vec<f64> = (0..41).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let mut ys = vec![0.0; 41];
        let mut yp = vec![0.0; 41];
        m.apply(&x, &mut ys);
        par.apply(&x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn eigensolver_runs_on_the_parallel_backend() {
        let m = spd_matrix(50);
        let par = ParallelCsr::new(cluster(), &m, 6).unwrap();
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let serial = smallest_eigenpairs(&m, 2, &opts).unwrap();
        let parallel = smallest_eigenpairs(&par, 2, &opts).unwrap();
        assert!((serial[0].value - parallel[0].value).abs() < 1e-9);
        assert!((serial[1].value - parallel[1].value).abs() < 1e-9);
    }

    #[test]
    fn rejects_zero_blocks_and_handles_empty() {
        let m = spd_matrix(4);
        assert_eq!(
            ParallelCsr::new(cluster(), &m, 0).unwrap_err(),
            EngineError::NoPartitions
        );
        let empty = CsrMatrix::from_triplets(0, &[]).unwrap();
        let par = ParallelCsr::new(cluster(), &empty, 2).unwrap();
        assert_eq!(par.dim(), 0);
        let mut y: Vec<f64> = vec![];
        par.apply(&[], &mut y);
    }
}
