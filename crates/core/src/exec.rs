//! The unified execution context.
//!
//! Before `ExecCtx` existed the pipeline's front door was forked per
//! capability: a serial and a cluster solve, `join` vs `join_many`, a
//! scratch arena threaded by hand in some paths and re-allocated in
//! others, and telemetry epilogues (finish the span, record the
//! `*_nanos` histogram, flush the sink) copy-pasted at every exit —
//! which meant every `?` early-return was a site where one of those
//! copies could (and did) go missing. [`ExecCtx`] collapses the fork:
//! one context carries the backend (serial with a [`CutScratch`] arena,
//! or an engine [`Cluster`]) and the trace sink, and every pipeline
//! stage takes the context instead of picking a path.
//!
//! The telemetry epilogue is RAII: [`ExecCtx::scope`] returns an
//! [`ExecScope`] guard whose drop handler finishes the span, records
//! the histogram, and flushes the sink on **all** exits — ordinary
//! returns, `?` error propagation, and panics alike — so the
//! flush-skipped-on-error bug class cannot recur one call site at a
//! time.

use mec_engine::Cluster;
use mec_obs::{SpanId, TraceSink};
use mec_spectral::CutScratch;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A duration as a histogram sample (nanoseconds, saturating).
pub(crate) fn duration_sample(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `true` when `MEC_FORCE_SERIAL` is set (non-empty, not `"0"`) in the
/// environment: every [`ExecCtx`] then runs its serial backend even
/// when a cluster is configured. This is the CI lever that runs the
/// whole test suite once per backend path, so a divergence between the
/// two can never reland silently. The value is read once per process.
pub fn force_serial() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("MEC_FORCE_SERIAL")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Where the per-user front-end work of a pipeline call runs.
#[derive(Debug)]
pub enum ExecBackend {
    /// Users are prepared on the calling thread, threading one
    /// [`CutScratch`] arena through every cut of every user so the
    /// spectral backends recycle their CSR snapshot, Krylov basis, and
    /// sweep buffers across the whole batch.
    Serial {
        /// The context-owned cut arena (boxed: the arena is ~400 bytes
        /// of pooled-buffer headers, and contexts move by value through
        /// the session builders).
        scratch: Box<CutScratch>,
    },
    /// Users are fanned out over an engine cluster, one stage task per
    /// user (each task owns its own arena — tasks run concurrently).
    Cluster(Arc<Cluster>),
}

/// One execution context for the whole pipeline: backend and trace
/// sink. Construct with [`ExecCtx::serial`] /
/// [`ExecCtx::cluster`], configure with the `with_*` builders, and
/// pass `&mut` to [`Offloader::solve_with`](crate::Offloader::solve_with)
/// (or hold one inside an [`OffloadSession`](crate::OffloadSession)).
///
/// The context can outlive a single call: keeping one `ExecCtx` across
/// repeated serial solves reuses the scratch arena's high-water
/// buffers batch to batch.
#[derive(Debug)]
pub struct ExecCtx {
    backend: ExecBackend,
    sink: Arc<dyn TraceSink>,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::serial()
    }
}

impl ExecCtx {
    /// A serial context with a fresh arena and the
    /// [`mec_obs::NullSink`].
    pub fn serial() -> Self {
        ExecCtx {
            backend: ExecBackend::Serial {
                scratch: Box::default(),
            },
            sink: mec_obs::null_sink(),
        }
    }

    /// A cluster-backed context. Under [`force_serial`] the cluster is
    /// ignored and a serial context is returned instead — same plans,
    /// different wall-clock — so one environment variable flips every
    /// context in the process onto the other backend path.
    pub fn cluster(cluster: Arc<Cluster>) -> Self {
        Self::serial().into_cluster(cluster)
    }

    /// Swaps the backend to `cluster` (respecting [`force_serial`]),
    /// keeping the sink.
    pub fn into_cluster(mut self, cluster: Arc<Cluster>) -> Self {
        if !force_serial() {
            self.backend = ExecBackend::Cluster(cluster);
        }
        self
    }

    /// Routes all pipeline telemetry recorded under this context to
    /// `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// The trace sink every stage under this context records into.
    pub fn sink(&self) -> &Arc<dyn TraceSink> {
        &self.sink
    }

    /// `true` when the front-end fans out over a cluster.
    pub fn is_cluster(&self) -> bool {
        matches!(self.backend, ExecBackend::Cluster(_))
    }

    /// Short backend label for reports and test matrices.
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            ExecBackend::Serial { .. } => "serial",
            ExecBackend::Cluster(_) => "cluster",
        }
    }

    /// Splits the context into its backend and sink — the borrow shape
    /// the front-end dispatch needs (mutable arena + shared sink).
    pub(crate) fn backend_and_sink(&mut self) -> (&mut ExecBackend, &Arc<dyn TraceSink>) {
        (&mut self.backend, &self.sink)
    }

    /// Opens the RAII telemetry scope for one pipeline operation:
    /// enters the span `name`, and on *every* exit — [`finish`]
    /// ([`ExecScope::finish`]), `?` error propagation, or a panic
    /// unwinding through the caller — finishes the span, records the
    /// elapsed time into the histogram `histogram`, and flushes the
    /// sink so buffered (sharded) records become visible. When the
    /// backend is a cluster built with its own telemetry sink
    /// ([`Cluster::with_telemetry`]), that sink is flushed too, so
    /// worker-side shard records drain even when the operation failed
    /// before reassembly.
    ///
    /// Both names are `&'static str` because the sink interface interns
    /// them; pair them as `"op"` / `"op_nanos"` by convention.
    pub fn scope(&self, name: &'static str, histogram: &'static str) -> ExecScope {
        let worker_sink = match &self.backend {
            ExecBackend::Cluster(c) => c
                .telemetry_sink()
                .filter(|s| !Arc::ptr_eq(s, &self.sink))
                .cloned(),
            ExecBackend::Serial { .. } => None,
        };
        ExecScope {
            id: self.sink.span_enter(name),
            sink: Arc::clone(&self.sink),
            worker_sink,
            histogram,
            start: Instant::now(),
            done: false,
        }
    }
}

/// The exit-safe telemetry epilogue of one pipeline operation; see
/// [`ExecCtx::scope`]. Dropping the guard (including during `?` error
/// returns and panics) runs the same epilogue as
/// [`finish`](ExecScope::finish).
#[derive(Debug)]
pub struct ExecScope {
    sink: Arc<dyn TraceSink>,
    /// The cluster's own telemetry sink, when distinct from `sink` —
    /// flushed alongside it so worker shard records always drain.
    worker_sink: Option<Arc<dyn TraceSink>>,
    id: SpanId,
    histogram: &'static str,
    start: Instant,
    done: bool,
}

impl ExecScope {
    fn epilogue(&mut self) -> Duration {
        self.done = true;
        self.sink.span_exit(self.id);
        let elapsed = self.start.elapsed();
        self.sink
            .histogram_record(self.histogram, duration_sample(elapsed));
        self.sink.flush();
        if let Some(ws) = &self.worker_sink {
            ws.flush();
        }
        elapsed
    }

    /// Runs the epilogue now and returns the measured elapsed time
    /// (identical whether the sink records spans or discards them, so
    /// `StageTimings` can be derived from it).
    pub fn finish(mut self) -> Duration {
        self.epilogue()
    }
}

impl Drop for ExecScope {
    fn drop(&mut self) {
        if !self.done {
            self.epilogue();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::{ShardConfig, ShardedRecorder};

    /// A recorder without the background aggregator: the registry sees
    /// only what the scope's own flush drained.
    fn manual_recorder() -> Arc<ShardedRecorder> {
        Arc::new(ShardedRecorder::with_config(ShardConfig {
            drain_interval: None,
            ..ShardConfig::default()
        }))
    }

    #[test]
    fn serial_ctx_defaults() {
        let ctx = ExecCtx::serial();
        assert!(!ctx.is_cluster());
        assert_eq!(ctx.backend_name(), "serial");
    }

    #[test]
    fn cluster_ctx_reports_backend() {
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let ctx = ExecCtx::cluster(cluster);
        if force_serial() {
            assert_eq!(ctx.backend_name(), "serial");
        } else {
            assert!(ctx.is_cluster());
            assert_eq!(ctx.backend_name(), "cluster");
        }
    }

    #[test]
    fn scope_records_span_histogram_and_flush_on_finish() {
        let rec = manual_recorder();
        let ctx = ExecCtx::serial().with_sink(Arc::clone(&rec) as Arc<dyn TraceSink>);
        let scope = ctx.scope("exec.test", "exec.test_nanos");
        let elapsed = scope.finish();
        assert!(elapsed >= Duration::ZERO);
        assert!(rec.spans().iter().any(|s| s.name == "exec.test"));
        let snap = rec.metrics().snapshot();
        assert_eq!(
            snap.histogram("exec.test_nanos")
                .expect("histogram")
                .count(),
            1
        );
    }

    #[test]
    fn scope_epilogue_runs_on_drop_and_panic() {
        let rec = manual_recorder();
        let ctx = ExecCtx::serial().with_sink(Arc::clone(&rec) as Arc<dyn TraceSink>);
        // plain drop (the `?` early-return shape)
        drop(ctx.scope("exec.dropped", "exec.dropped_nanos"));
        // unwind (the panic shape)
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = ctx.scope("exec.panicked", "exec.panicked_nanos");
            panic!("boom");
        }));
        assert!(caught.is_err());
        let snap = rec.metrics().snapshot();
        for (span, hist) in [
            ("exec.dropped", "exec.dropped_nanos"),
            ("exec.panicked", "exec.panicked_nanos"),
        ] {
            assert!(
                rec.spans()
                    .iter()
                    .any(|s| s.name == span && s.end_ns.is_some()),
                "span {span} must be finished"
            );
            assert_eq!(
                snap.histogram(hist).expect("histogram").count(),
                1,
                "histogram {hist} must be recorded"
            );
        }
    }
}
