//! Reusable broadcast / gather buffers for cluster-backed operators.
//!
//! Every `y = A·x` product of [`ParallelLaplacian`](crate::ParallelLaplacian)
//! used to allocate a fresh broadcast copy of `x` plus one output `Vec`
//! per row block — at hundreds of products per Lanczos solve, that
//! dominated the allocator profile of the "with engine" configuration.
//! The scratch here recycles both: the broadcast `Arc<Vec<f64>>` is
//! reclaimed with [`Arc::try_unwrap`] once the stage's tasks have
//! dropped their clones, and the per-block output buffers ride through
//! the stage as task inputs and come back as part of the results.
//!
//! The buffers are behaviourally invisible: contents are fully
//! overwritten per product, so results are bit-identical to the
//! allocating path.

use std::sync::{Arc, Mutex};

/// Pooled buffers shared (behind a mutex) by all clones of one
/// operator. Contention is negligible: the lock is held only while
/// checking buffers in and out, never across the stage itself.
#[derive(Debug, Default)]
pub(crate) struct ApplyScratch {
    /// Last product's broadcast vector, reclaimed when uniquely owned.
    x_buf: Option<Arc<Vec<f64>>>,
    /// Per-block output buffers from previous products.
    out_pool: Vec<Vec<f64>>,
}

impl ApplyScratch {
    /// A fresh shareable pool.
    pub(crate) fn shared() -> Arc<Mutex<ApplyScratch>> {
        Arc::new(Mutex::new(ApplyScratch::default()))
    }
}

/// The broadcast vector plus per-block output buffers tagged with
/// their block index, as shipped through a stage.
pub(crate) type StageBuffers = (Arc<Vec<f64>>, Vec<(usize, Vec<f64>)>);

/// Checks out the broadcast buffer (filled with `x`) and `blocks`
/// output buffers paired with their block index, ready to be shipped
/// through a stage.
pub(crate) fn checkout(scratch: &Mutex<ApplyScratch>, x: &[f64], blocks: usize) -> StageBuffers {
    let mut s = scratch.lock().expect("apply scratch lock");
    let mut xv = s
        .x_buf
        .take()
        .and_then(|a| Arc::try_unwrap(a).ok())
        .unwrap_or_default();
    xv.clear();
    xv.extend_from_slice(x);
    let inputs = (0..blocks)
        .map(|bi| (bi, s.out_pool.pop().unwrap_or_default()))
        .collect();
    (Arc::new(xv), inputs)
}

/// Copies the stage's pieces into `y` and returns every buffer to the
/// pool for the next product.
pub(crate) fn retire(
    scratch: &Mutex<ApplyScratch>,
    xs: Arc<Vec<f64>>,
    pieces: Vec<(usize, Vec<f64>)>,
    y: &mut [f64],
) {
    let mut s = scratch.lock().expect("apply scratch lock");
    for (start, piece) in pieces {
        y[start..start + piece.len()].copy_from_slice(&piece);
        s.out_pool.push(piece);
    }
    s.x_buf = Some(xs);
}
