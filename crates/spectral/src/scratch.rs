//! The reusable cut arena.
//!
//! The paper's dominant cost is the spectral stage — thousands of
//! Laplacian–vector products per cut — and before this arena existed
//! every cut of every component of every user re-allocated its CSR
//! snapshot, its Krylov basis, and its sweep buffers from a cold heap.
//! [`CutScratch`] owns all of those; threading one instance through
//! [`SpectralBisector::bisect_reusing`](crate::SpectralBisector::bisect_reusing)
//! makes every cut after the first allocation-free in the eigensolver's
//! inner loop (pinned by `tests/alloc_budget.rs`).

use mec_graph::CsrAdjacency;
use mec_linalg::LanczosScratch;

/// Reusable buffers for repeated spectral cuts.
///
/// One arena serves any sequence of graphs: buffers grow to the
/// high-water mark and are recycled from then on. The arena is `Send`,
/// so a cluster task can own one and reuse it across every component
/// it cuts — but it is deliberately not `Sync`-shared: each worker
/// threads its own. In the pipeline the arena's owner is the
/// execution context: `copmecs_core::ExecCtx`'s serial backend embeds
/// one `CutScratch` that survives across solves, and its cluster
/// backend gives each stage task a private arena.
#[derive(Debug, Default)]
pub struct CutScratch {
    /// Krylov-recurrence buffer pool (basis vectors, work vectors).
    pub(crate) lanczos: LanczosScratch,
    /// Reusable CSR snapshot of the graph currently being cut.
    pub(crate) csr: CsrAdjacency,
    /// Sweep / median node orderings; the connectivity check's
    /// breadth-first queue.
    pub(crate) order: Vec<usize>,
    /// Sweep membership flags; the nodes the connectivity check
    /// reached.
    pub(crate) local: Vec<bool>,
}

impl CutScratch {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}
