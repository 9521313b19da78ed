//! The per-user pipeline front-end: compression (Algorithm 1) plus the
//! per-component minimum cuts — the unit of work the cluster solve
//! path distributes, one stage task per user.
//!
//! The paper's scalability argument (§IV) runs one process per
//! sub-graph; here the same decomposition is expressed as an engine
//! *stage*: every user's front-end is an independent task, results are
//! reassembled in user order, and the greedy stage then sees exactly
//! what the serial loop would have produced.

use crate::exec::{duration_sample, ExecBackend, ExecCtx};
use crate::parts::PartTemplate;
use crate::strategy::CutStrategy;
use crate::PipelineError;
use mec_engine::{Cluster, StageError};
use mec_graph::Graph;
use mec_labelprop::{CompressionStats, Compressor};
use mec_obs::{span, TraceSink};
use mec_spectral::CutScratch;
use std::sync::Arc;
use std::time::Duration;

/// One graph's prepared front-end: the part template every user of the
/// graph shares in the part system, the compression statistics, and
/// the wall-clock time spent producing them.
#[derive(Debug, Clone)]
pub(crate) struct FrontEnd {
    /// Table I's compression statistics.
    pub stats: CompressionStats,
    /// The parts and components the cuts leave, built once here.
    pub template: Arc<PartTemplate>,
    /// Time spent compressing this user's graph.
    pub compression: Duration,
    /// Time spent cutting this user's compressed components.
    pub cutting: Duration,
}

/// Prepares every graph's front-end under `ctx` — the single entry
/// point both the one-shot solver and the session paths call.
///
/// Dispatch is on the context backend: serial walks the batch on the
/// calling thread threading the ctx-owned [`CutScratch`] arena through
/// every cut, cluster fans out one stage task per graph
/// ([`prepare_users_on`]). Both produce bit-identical front-ends in
/// input order.
pub(crate) fn prepare_users(
    ctx: &mut ExecCtx,
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    graphs: Vec<Arc<Graph>>,
) -> Result<Vec<FrontEnd>, PipelineError> {
    let (backend, sink) = ctx.backend_and_sink();
    match backend {
        ExecBackend::Serial { scratch } => graphs
            .iter()
            .map(|g| prepare_user_reusing(compressor, strategy, sink.as_ref(), g, scratch))
            .collect(),
        ExecBackend::Cluster(cluster) => {
            prepare_users_on(cluster, compressor, strategy, sink, graphs)
        }
    }
}

/// Prepares one graph's front-end with a caller-owned [`CutScratch`]:
/// every per-component cut goes through
/// [`CutStrategy::cut_reusing`], so spectral backends recycle their
/// CSR snapshot, Krylov basis, and sweep buffers across components —
/// and, when the caller threads the same arena across users (the
/// serial [`prepare_users`] path), across the whole batch. Plans are
/// identical to a scratch-free cut by the `cut_reusing` contract.
///
/// `sink` is the context's on both backends: compression and every
/// cut record into it, so a call's eigensolver telemetry lands beside
/// its spans.
pub(crate) fn prepare_user_reusing(
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    sink: &dyn TraceSink,
    graph: &Graph,
    scratch: &mut CutScratch,
) -> Result<FrontEnd, PipelineError> {
    let s = span(sink, "stage.compression");
    let outcome = compressor.compress_traced(graph, sink);
    let compression = s.finish();
    sink.histogram_record("stage.compression_nanos", duration_sample(compression));

    let s = span(sink, "stage.cutting");
    let mut cuts = Vec::with_capacity(outcome.components.len());
    for comp in &outcome.components {
        cuts.push(strategy.cut_reusing(comp.quotient.graph(), scratch, sink)?);
    }
    let cutting = s.finish();
    sink.histogram_record("stage.cutting_nanos", duration_sample(cutting));

    Ok(FrontEnd {
        stats: outcome.stats,
        template: Arc::new(PartTemplate::build(graph, &outcome, &cuts)),
        compression,
        cutting,
    })
}

/// Fans [`prepare_user_reusing`] out over `cluster` as one stage task
/// per graph (each task with its own arena), returning the front-ends
/// in input order.
///
/// Each task clones its own strategy instance
/// ([`CutStrategy::boxed_clone`]), so stateful backends never share
/// mutable state across workers; a task's `PipelineError` is
/// propagated (lowest task index first), and a panicking strategy
/// surfaces as [`PipelineError::Engine`] rather than aborting the
/// process.
pub(crate) fn prepare_users_on(
    cluster: &Cluster,
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    sink: &Arc<dyn TraceSink>,
    graphs: Vec<Arc<Graph>>,
) -> Result<Vec<FrontEnd>, PipelineError> {
    let compressor = compressor.clone();
    let master = strategy.boxed_clone();
    let sink = Arc::clone(sink);
    cluster
        .try_run_stage(graphs, move |_, graph| {
            let strategy = master.boxed_clone();
            // one arena per task: recycled across every component of
            // this user's graph (tasks run concurrently, so arenas are
            // per-task rather than shared)
            let mut scratch = CutScratch::new();
            prepare_user_reusing(
                &compressor,
                strategy.as_ref(),
                sink.as_ref(),
                &graph,
                &mut scratch,
            )
        })
        .map_err(|e| match e {
            StageError::Task { error, .. } => error,
            StageError::Engine(e) => PipelineError::Engine(e),
        })
}
