//! Spectral minimum-cut bipartitioning (paper §III-B).
//!
//! The paper transfers the offloading objective to a minimum-cut search
//! on each compressed sub-graph and solves it with spectral graph
//! theory: by Theorems 1–3, the cut is read off the eigenvector of the
//! graph Laplacian `L = D − A` belonging to the second-smallest
//! eigenvalue (the *Fiedler pair*). This crate implements that step:
//!
//! - [`GraphLaplacian`] — a serial [`SymOp`](mec_linalg::SymOp) view of
//!   a graph's Laplacian;
//! - [`SpectralBisector`] — computes the Fiedler pair (serially, or on
//!   a [`mec_engine::Cluster`] the way the paper uses Spark) and splits
//!   the node set by [`SplitRule`];
//! - [`theory`] — executable forms of the paper's Theorem 2 identity,
//!   used by tests and documentation.
//!
//! # Example
//!
//! ```
//! use mec_spectral::{SpectralBisector, SplitRule};
//! use mec_graph::GraphBuilder;
//!
//! # fn main() -> Result<(), mec_spectral::SpectralError> {
//! // two heavy pairs joined by a light bridge
//! let mut b = GraphBuilder::new();
//! let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
//! b.add_edge(n[0], n[1], 10.0).unwrap();
//! b.add_edge(n[2], n[3], 10.0).unwrap();
//! b.add_edge(n[1], n[2], 0.5).unwrap();
//! let g = b.build();
//!
//! let cut = SpectralBisector::new().bisect(&g)?;
//! assert_eq!(cut.partition.cut_weight(&g), 0.5); // the bridge
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod laplacian;
mod scratch;
pub mod theory;

pub use bisect::{SpectralBisector, SpectralCut, SplitRule};
pub use laplacian::{CsrLaplacian, GraphLaplacian};
pub use scratch::CutScratch;

use std::error::Error;
use std::fmt;

/// Errors raised by the spectral bisection stage.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectralError {
    /// The graph has no nodes; there is nothing to bisect.
    EmptyGraph,
    /// The underlying eigensolver failed.
    Eigensolver(mec_linalg::LinalgError),
}

impl fmt::Display for SpectralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralError::EmptyGraph => f.write_str("cannot bisect an empty graph"),
            SpectralError::Eigensolver(e) => write!(f, "eigensolver failed: {e}"),
        }
    }
}

impl Error for SpectralError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpectralError::EmptyGraph => None,
            SpectralError::Eigensolver(e) => Some(e),
        }
    }
}

impl From<mec_linalg::LinalgError> for SpectralError {
    fn from(e: mec_linalg::LinalgError) -> Self {
        SpectralError::Eigensolver(e)
    }
}
