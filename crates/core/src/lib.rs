//! COPMECS — the paper's offloading pipeline, end to end.
//!
//! Given a multi-user [`Scenario`](mec_model::Scenario), the
//! [`Offloader`] executes the three stages of the paper's method:
//!
//! 1. **Compression** (Algorithm 1, [`mec_labelprop`]): each user's
//!    function data-flow graph loses its unoffloadable functions, is
//!    split at component boundaries, and highly coupled functions are
//!    fused by label propagation.
//! 2. **Minimum-cut search** (§III-B): every compressed sub-graph is
//!    bipartitioned by a pluggable [`CutStrategy`] — the paper's
//!    spectral method, or the max-flow / Kernighan–Lin baselines it
//!    compares against.
//! 3. **Scheme generation** (Algorithm 2): all parts start on the edge
//!    server; a greedy loop repeatedly moves the part whose relocation
//!    most decreases the combined objective `E + T`, under the shared
//!    server capacity, until no move helps.
//!
//! The result is an [`OffloadReport`]: one
//! [`Bipartition`](mec_graph::Bipartition) per user plus the priced
//! evaluation and per-stage timings.
//!
//! # Example
//!
//! ```
//! use copmecs_core::{Offloader, StrategyKind};
//! use mec_model::{Scenario, SystemParams, UserWorkload};
//! use mec_netgen::NetgenSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = NetgenSpec::new(120, 400).seed(1).generate()?;
//! let scenario = Scenario::new(SystemParams::default())
//!     .with_user(UserWorkload::new("u0", g));
//!
//! let report = Offloader::builder()
//!     .strategy(StrategyKind::Spectral)
//!     .build()
//!     .solve(&scenario)?;
//! let baseline = scenario.users()[0].all_local_plan();
//! let all_local = scenario.evaluate(&[baseline])?;
//! assert!(report.evaluation.totals.objective() <= all_local.totals.objective());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod exec;
mod frontend;
mod greedy;
mod offloader;
mod parts;
mod service;
mod session;
mod strategy;

pub use config::{PipelineConfig, StrategyChoice};
pub use exec::{force_serial, ExecBackend, ExecCtx, ExecScope};
pub use greedy::{GreedyMode, GreedyOutcome};
pub use offloader::{OffloadReport, Offloader, OffloaderBuilder, StageTimings};
pub use parts::{Part, PartSystem};
pub use service::{OffloadService, ServiceReport};
pub use session::OffloadSession;
pub use strategy::{CutError, CutStrategy, StrategyKind};

use std::error::Error;
use std::fmt;

/// Errors raised by the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The cut stage failed on a compressed sub-graph.
    Cut(CutError),
    /// The final plan failed model validation (internal invariant —
    /// indicates a bug if it ever surfaces).
    Model(mec_model::ModelError),
    /// The engine cluster failed while running a distributed stage
    /// (a task panicked on a worker, or the pool shut down).
    Engine(mec_engine::EngineError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cut(e) => write!(f, "cut stage failed: {e}"),
            PipelineError::Model(e) => write!(f, "plan evaluation failed: {e}"),
            PipelineError::Engine(e) => write!(f, "engine stage failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Cut(e) => Some(e),
            PipelineError::Model(e) => Some(e),
            PipelineError::Engine(e) => Some(e),
        }
    }
}

impl From<mec_engine::EngineError> for PipelineError {
    fn from(e: mec_engine::EngineError) -> Self {
        PipelineError::Engine(e)
    }
}

impl From<CutError> for PipelineError {
    fn from(e: CutError) -> Self {
        PipelineError::Cut(e)
    }
}

impl From<mec_model::ModelError> for PipelineError {
    fn from(e: mec_model::ModelError) -> Self {
        PipelineError::Model(e)
    }
}
