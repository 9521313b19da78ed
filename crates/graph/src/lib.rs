//! Weighted undirected *function data-flow graphs* — the core data
//! structure of the COPMECS pipeline (paper §II, Fig. 1).
//!
//! A [`Graph`] models one mobile application: each node is a function
//! with a computation weight, each edge carries the amount of data the
//! two functions exchange. Nodes flagged *unoffloadable* (sensor / local
//! I/O access) must stay on the device.
//!
//! The crate also hosts the shared partition vocabulary used by every
//! cut algorithm in the workspace ([`Bipartition`], [`Side`]) and the
//! structural helpers the pipeline needs: connected components, induced
//! sub-graphs, quotient (merge) graphs, and CSR adjacency snapshots
//! ([`CsrAdjacency`], which is also the graph Laplacian operator every
//! eigen-solve multiplies by).
//!
//! # Example
//!
//! ```
//! use mec_graph::{GraphBuilder, Side};
//!
//! # fn main() -> Result<(), mec_graph::GraphError> {
//! // Fig. 1 of the paper: f1 calls f2 (|a| = 10) and f3 (|b| = 8);
//! // f2 calls f4 (|c| = 12) and f5 (|d| = 7).
//! let mut b = GraphBuilder::new();
//! let f1 = b.add_node(4.0);
//! let f2 = b.add_node(6.0);
//! let f3 = b.add_node(2.0);
//! let f4 = b.add_node(9.0);
//! let f5 = b.add_node(3.0);
//! b.add_edge(f1, f2, 10.0)?;
//! b.add_edge(f1, f3, 8.0)?;
//! b.add_edge(f2, f4, 12.0)?;
//! b.add_edge(f2, f5, 7.0)?;
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 5);
//! assert!(g.is_connected());
//!
//! // Cut {f1} | {f2..f5} severs the two calls out of f1.
//! let cut = mec_graph::Bipartition::from_fn(g.node_count(), |i| {
//!     if i == f1.index() { Side::Local } else { Side::Remote }
//! });
//! assert_eq!(cut.cut_weight(&g), 18.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// index-based loops over rows/columns are the natural idiom in the
// numeric kernels here; iterator gymnastics would obscure the math
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod builder;
mod components;
mod csr;
mod dot;
mod error;
mod graph;
mod ids;
mod metrics;
mod partition;
mod quotient;
mod subgraph;
mod traversal;

pub use builder::{GraphBuilder, ParallelEdgePolicy};
pub use components::ComponentLabeling;
pub use csr::CsrAdjacency;
pub use error::GraphError;
pub use graph::{EdgeRef, Graph, NeighborRef};
pub use ids::{EdgeId, NodeId};
pub use metrics::DistributionSummary;
pub use partition::{Bipartition, Side};
pub use quotient::{NodeGrouping, QuotientGraph};
pub use subgraph::Subgraph;
