//! A miniature deterministic data-parallel compute engine — the
//! workspace's stand-in for Apache Spark.
//!
//! The paper evaluates its spectral offloading algorithm twice: once
//! serially ("our algorithm without Spark") and once with the Laplacian
//! matrix products distributed over Spark (Fig. 9). Reproducing that
//! contrast needs a data-parallel engine, not a cloud: this crate
//! provides a persistent worker pool ([`Cluster`]), a partitioned
//! dataset abstraction ([`Dataset`]) with `map` / `reduce` /
//! `collect` stages, and [`ParallelLaplacian`] — a
//! [`SymOp`](mec_linalg::SymOp) whose matrix-vector products are
//! sharded across the cluster exactly the way the paper shards its
//! matrix multiplications.
//!
//! Everything is deterministic: stage results are reassembled in
//! partition order regardless of worker scheduling.
//!
//! # Example
//!
//! ```
//! use mec_engine::{Cluster, Dataset};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), mec_engine::EngineError> {
//! let cluster = Arc::new(Cluster::new(4)?);
//! let squares: i64 = Dataset::from_vec(Arc::clone(&cluster), (1..=100).collect(), 8)
//!     .map(|x| x * x)
//!     .reduce(0, |a, b| a + b);
//! assert_eq!(squares, 338_350);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply_scratch;
mod cluster;
mod dataset;
mod error;
mod metrics;
mod parallel_csr;
mod parallel_op;

pub use cluster::{Cluster, StageError};
pub use dataset::Dataset;
pub use error::EngineError;
pub use parallel_csr::ParallelCsr;
pub use parallel_op::ParallelLaplacian;
