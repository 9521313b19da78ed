//! A miniature deterministic data-parallel compute engine — the
//! workspace's stand-in for Apache Spark.
//!
//! The paper evaluates its spectral offloading algorithm twice: once
//! serially ("our algorithm without Spark") and once with the Laplacian
//! matrix products distributed over Spark (Fig. 9). Reproducing that
//! contrast needs a data-parallel engine, not a cloud: this crate
//! provides a persistent worker pool ([`Cluster`]) that runs *stages*
//! of independent tasks, and [`ParallelLaplacian`] — a
//! [`SymOp`](mec_linalg::SymOp) that shards the rows of a
//! [`mec_graph::CsrAdjacency`] snapshot across the cluster, exactly the
//! way the paper shards its matrix multiplications, and gives the same
//! bits as the snapshot's own serial product.
//!
//! Everything is deterministic: stage results are reassembled in task
//! order regardless of worker scheduling.
//!
//! # Example
//!
//! ```
//! use mec_engine::Cluster;
//!
//! # fn main() -> Result<(), mec_engine::EngineError> {
//! let cluster = Cluster::new(4)?;
//! let squares = cluster.run_stage((1..=100i64).collect(), |_task, x| x * x)?;
//! assert_eq!(squares.iter().sum::<i64>(), 338_350);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply_scratch;
mod cluster;
mod error;
mod metrics;
mod parallel_op;

pub use cluster::{Cluster, StageError};
pub use error::EngineError;
pub use parallel_op::ParallelLaplacian;
