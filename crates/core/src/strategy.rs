//! Pluggable minimum-cut backends.

use mec_baselines::{
    BaselineError, KernighanLin, MaxFlowBisector, MultilevelBisector, TrialSelection,
};
use mec_engine::Cluster;
use mec_graph::{Bipartition, Graph, Side};
use mec_obs::TraceSink;
use mec_spectral::{CutScratch, SpectralBisector, SpectralError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error from a cut backend.
#[derive(Debug)]
pub enum CutError {
    /// The spectral backend failed.
    Spectral(SpectralError),
    /// A combinatorial baseline failed.
    Baseline(BaselineError),
}

impl fmt::Display for CutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutError::Spectral(e) => write!(f, "spectral cut failed: {e}"),
            CutError::Baseline(e) => write!(f, "baseline cut failed: {e}"),
        }
    }
}

impl Error for CutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CutError::Spectral(e) => Some(e),
            CutError::Baseline(e) => Some(e),
        }
    }
}

impl From<SpectralError> for CutError {
    fn from(e: SpectralError) -> Self {
        CutError::Spectral(e)
    }
}

impl From<BaselineError> for CutError {
    fn from(e: BaselineError) -> Self {
        CutError::Baseline(e)
    }
}

/// A minimum-cut backend: bipartitions one (compressed, connected)
/// sub-graph.
///
/// Each cut algorithm implements the trait itself —
/// [`SpectralBisector`], [`MaxFlowBisector`], [`KernighanLin`] and
/// [`MultilevelBisector`] — configured once and then shared read-only.
/// A strategy holds configuration only: where its telemetry goes is
/// decided per call, by the sink handed to
/// [`cut_reusing`](CutStrategy::cut_reusing).
///
/// Single-node graphs must return the trivial all-remote partition so
/// the greedy stage can still decide the node's placement.
pub trait CutStrategy: Send + Sync {
    /// Short identifier used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Bipartitions `g`, recording nothing.
    ///
    /// # Errors
    ///
    /// Backend-specific failures; see [`CutError`].
    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError>;

    /// Bipartitions `g` inside a caller-owned [`CutScratch`] arena,
    /// recording into `sink`.
    ///
    /// This is the entry point the pipeline calls. The front-end threads
    /// one arena through every component of every user it prepares — on
    /// the serial backend that arena lives inside the
    /// [`ExecCtx`](crate::ExecCtx) and survives across solves, on the
    /// cluster backend each stage task owns a private one — so backends
    /// that can recycle buffers (the spectral one) avoid re-allocating
    /// their CSR snapshot, Krylov basis, and sweep buffers per cut. The
    /// sink is the context's, so a cut's records (the eigensolver's
    /// counters and events, `spectral.cut`) land where the rest of the
    /// call's do. The default implementation ignores both and delegates
    /// to [`cut`](CutStrategy::cut): the combinatorial baselines have no
    /// spectral state to reuse and nothing iterative to report.
    ///
    /// Implementations must return exactly what `cut` would: the arena
    /// is a performance channel and the sink an observation channel,
    /// never behavioural ones.
    ///
    /// # Errors
    ///
    /// Same as [`cut`](CutStrategy::cut).
    fn cut_reusing(
        &self,
        g: &Graph,
        scratch: &mut CutScratch,
        sink: &dyn TraceSink,
    ) -> Result<Bipartition, CutError> {
        let _ = (scratch, sink);
        self.cut(g)
    }

    /// An owned copy of this strategy, for handing each worker task of
    /// a cluster stage its own instance. Copies must be behaviourally
    /// identical to the original (same cuts for the same graphs), or
    /// the cluster solve path loses its bit-for-bit parity with the
    /// serial one.
    fn boxed_clone(&self) -> Box<dyn CutStrategy>;
}

/// The three cut algorithms of the paper's evaluation, as a convenient
/// constructor enum (use [`CutStrategy`] directly for custom
/// backends).
#[derive(Debug, Clone, Default)]
pub enum StrategyKind {
    /// The paper's contribution: Fiedler-vector bipartition (serial
    /// eigensolver).
    #[default]
    Spectral,
    /// Spectral with Laplacian products on a cluster — the paper's
    /// "with Spark" configuration.
    SpectralParallel {
        /// Cluster to run on.
        cluster: Arc<Cluster>,
        /// Row blocks per matrix-vector product.
        blocks: usize,
    },
    /// Edmonds–Karp max-flow minimum cut.
    MaxFlow,
    /// The Kernighan–Lin heuristic.
    KernighanLin,
    /// METIS-style multilevel coarsen–partition–refine (this repo's
    /// implementation of the paper's future-work direction: near-linear
    /// runtime at spectral-class quality on modular graphs).
    Multilevel,
}

impl StrategyKind {
    /// Instantiates the strategy.
    pub fn build(&self) -> Box<dyn CutStrategy> {
        match self {
            StrategyKind::Spectral => Box::new(SpectralBisector::new()),
            StrategyKind::SpectralParallel { cluster, blocks } => {
                Box::new(SpectralBisector::new().with_cluster(Arc::clone(cluster), *blocks))
            }
            // ratio-based trial selection: raw min-weight s–t cuts peel
            // single nodes, which makes the offloading split useless
            StrategyKind::MaxFlow => {
                Box::new(MaxFlowBisector::new().selection(TrialSelection::MinRatio))
            }
            StrategyKind::KernighanLin => Box::new(KernighanLin::new()),
            StrategyKind::Multilevel => Box::new(MultilevelBisector::new()),
        }
    }
}

/// The Fiedler-vector cut (the paper's §III-B).
impl CutStrategy for SpectralBisector {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        if self.is_parallel() {
            "spectral+engine"
        } else {
            "spectral"
        }
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        Ok(self.bisect(g)?.partition)
    }

    fn cut_reusing(
        &self,
        g: &Graph,
        scratch: &mut CutScratch,
        sink: &dyn TraceSink,
    ) -> Result<Bipartition, CutError> {
        Ok(self.bisect_reusing(g, scratch, sink)?.partition)
    }
}

/// Edmonds–Karp max-flow minimum cut (a paper baseline).
impl CutStrategy for MaxFlowBisector {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "max-flow-min-cut"
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        if g.node_count() == 1 {
            return Ok(Bipartition::uniform(1, Side::Remote));
        }
        Ok(self.bisect(g)?)
    }
}

/// The Kernighan–Lin heuristic (a paper baseline).
impl CutStrategy for KernighanLin {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "kernighan-lin"
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        if g.node_count() == 1 {
            return Ok(Bipartition::uniform(1, Side::Remote));
        }
        Ok(self.bisect(g)?)
    }
}

/// Multilevel coarsen–partition–refine.
impl CutStrategy for MultilevelBisector {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "multilevel"
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        if g.node_count() == 1 {
            return Ok(Bipartition::uniform(1, Side::Remote));
        }
        Ok(self.bisect(g)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;

    fn bridge() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 9.0).unwrap();
        b.add_edge(n[2], n[3], 9.0).unwrap();
        b.add_edge(n[1], n[2], 1.0).unwrap();
        b.build()
    }

    #[test]
    fn all_strategies_cut_the_bridge_cheaply() {
        let g = bridge();
        for kind in [
            StrategyKind::Spectral,
            StrategyKind::MaxFlow,
            StrategyKind::KernighanLin,
            StrategyKind::Multilevel,
        ] {
            let s = kind.build();
            let cut = s.cut(&g).unwrap();
            assert!(cut.is_proper(), "{}", s.name());
            assert!(
                cut.cut_weight(&g) <= 1.0 + 1e-9,
                "{} found cut {}",
                s.name(),
                cut.cut_weight(&g)
            );
        }
    }

    #[test]
    fn single_node_graphs_yield_trivial_remote() {
        let mut b = GraphBuilder::new();
        b.add_node(3.0);
        let g = b.build();
        for kind in [
            StrategyKind::Spectral,
            StrategyKind::MaxFlow,
            StrategyKind::KernighanLin,
            StrategyKind::Multilevel,
        ] {
            let cut = kind.build().cut(&g).unwrap();
            assert_eq!(cut.len(), 1);
            assert_eq!(cut.side(mec_graph::NodeId::new(0)), Side::Remote);
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<_> = [
            StrategyKind::Spectral,
            StrategyKind::MaxFlow,
            StrategyKind::KernighanLin,
            StrategyKind::Multilevel,
        ]
        .iter()
        .map(|k| k.build().name())
        .collect();
        assert_eq!(
            names,
            vec![
                "spectral",
                "max-flow-min-cut",
                "kernighan-lin",
                "multilevel"
            ]
        );
    }

    #[test]
    fn parallel_spectral_has_engine_name() {
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let s = StrategyKind::SpectralParallel { cluster, blocks: 4 }.build();
        assert_eq!(s.name(), "spectral+engine");
        let cut = s.cut(&bridge()).unwrap();
        assert!(cut.is_proper());
    }

    #[test]
    fn strategies_are_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn CutStrategy>();
    }
}
