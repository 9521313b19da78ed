//! The traced run's plumbing: a switchable sink in front of the
//! program's `ShardedRecorder`, and the reduction of recorded spans to
//! per-operation, per-layer self times.
//!
//! Self time is a span's duration minus the durations of its child
//! spans. Every span the program records under one of the benchmark's
//! root spans belongs to exactly one layer, so an operation's layer
//! self times add up to its root span less the benchmark's own
//! bookkeeping.

use crate::stats::{mean, median};
use crate::{ms, Report};
use mec_obs::{FieldValue, ShardConfig, ShardedRecorder, SpanId, SpanRecord, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};

/// Root span around one timed operation (an event with its replan, or
/// one solve).
pub const OP_SPAN: &str = "perfbench.op";
/// Root span around a stream workload's set-up.
pub const SETUP_SPAN: &str = "perfbench.setup";
/// The benchmark's span around `join` / `leave` / `resubmit`.
pub const APPLY_SPAN: &str = "perfbench.apply";
/// The benchmark's span around `OffloadService::replan`.
pub const REPLAN_SPAN: &str = "perfbench.replan";

/// The program layers an operation's time is split into, in report
/// order.
pub const LAYERS: [&str; 6] = [
    "service",
    "session",
    "labelprop",
    "spectral",
    "greedy",
    "offloader",
];

/// The layer a recorded span's self time belongs to; `None` for the
/// benchmark's own spans.
pub fn layer_of(span: &str) -> Option<&'static str> {
    match span {
        "stage.compression" => Some("labelprop"),
        "stage.cutting" => Some("spectral"),
        "stage.greedy" => Some("greedy"),
        "pipeline.solve" => Some("offloader"),
        s if s.starts_with("service.") => Some("service"),
        s if s.starts_with("session.") => Some("session"),
        _ => None,
    }
}

/// A [`TraceSink`] that forwards to a [`ShardedRecorder`] while on and
/// records nothing while off. One traced run alternates blocks of
/// traced and untraced operations on the same program state, which is
/// how it measures the recorder's own overhead.
#[derive(Debug)]
pub struct GateSink {
    recorder: ShardedRecorder,
    on: AtomicBool,
}

impl Default for GateSink {
    fn default() -> Self {
        Self::new()
    }
}

impl GateSink {
    /// A switched-on gate in front of a recorder sized so that a whole
    /// run fits without dropping records. There is no background
    /// aggregator: the program flushes at the end of every session
    /// operation and solve, and the benchmark flushes before reading.
    pub fn new() -> Self {
        GateSink {
            recorder: ShardedRecorder::with_config(ShardConfig {
                shards: 2,
                capacity: 1 << 17,
                event_capacity: 1 << 21,
                drain_interval: None,
            }),
            on: AtomicBool::new(true),
        }
    }

    /// Switches recording on or off. Call only between operations, so
    /// every span that opens also closes while recorded.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// The recorder behind the gate.
    pub fn recorder(&self) -> &ShardedRecorder {
        &self.recorder
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

impl TraceSink for GateSink {
    fn enabled(&self) -> bool {
        self.on()
    }

    fn span_enter(&self, name: &'static str) -> SpanId {
        if self.on() {
            self.recorder.span_enter(name)
        } else {
            SpanId::NULL
        }
    }

    fn span_exit(&self, id: SpanId) {
        self.recorder.span_exit(id);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        if self.on() {
            self.recorder.counter_add(name, delta);
        }
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if self.on() {
            self.recorder.event(name, fields);
        }
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        if self.on() {
            self.recorder.histogram_record(name, value);
        }
    }

    fn register_worker(&self, worker: usize) {
        self.recorder.register_worker(worker);
    }

    fn flush(&self) {
        if self.on() {
            self.recorder.flush();
        }
    }
}

/// Time spent in spans of one name within one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTimes {
    /// Spans of this name.
    pub count: usize,
    /// Their summed durations.
    pub total_ns: u64,
    /// Their summed self times.
    pub self_ns: u64,
}

/// The spans of one operation, reduced by span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpSpans {
    /// Duration of the operation's root span.
    pub total_ns: u64,
    /// Every span under the root (the root included), by name.
    pub names: BTreeMap<&'static str, NameTimes>,
}

impl OpSpans {
    /// Times of spans named `name` (zero when there were none).
    pub fn get(&self, name: &str) -> NameTimes {
        self.names.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span in `layer`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.names
            .iter()
            .filter(|(name, _)| layer_of(name) == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Self time attributed to some program layer: the root span less
    /// the benchmark's own bookkeeping.
    pub fn attributed_ns(&self) -> u64 {
        LAYERS.iter().map(|l| self.layer_self_ns(l)).sum()
    }
}

/// The median over `ops` of a per-operation value, skipping operations
/// without one (0 when none has one).
pub fn median_of(ops: &[OpSpans], f: impl Fn(&OpSpans) -> Option<f64>) -> f64 {
    median(&ops.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Mean duration in ms of one span named `name` within an operation,
/// if the operation has any.
pub fn per_span_ms(op: &OpSpans, name: &str) -> Option<f64> {
    let t = op.get(name);
    (t.count > 0).then(|| ms(t.total_ns) / t.count as f64)
}

/// Front-ends (compressions) computed per operation, on average.
pub fn frontends_per_op(ops: &[OpSpans]) -> f64 {
    let counts: Vec<f64> = ops
        .iter()
        .map(|o| o.get("stage.compression").count as f64)
        .collect();
    mean(&counts).unwrap_or(0.0)
}

/// Notes the mean self time per traced operation of every layer, and
/// reports as `obs.unattributed_frac` the largest share of any
/// operation's root span that no layer accounts for.
pub fn breakdown(report: &mut Report, ops: &[OpSpans]) {
    let worst = ops
        .iter()
        .map(|o| 1.0 - o.attributed_ns() as f64 / o.total_ns.max(1) as f64)
        .fold(0.0, f64::max);
    if !ops.is_empty() {
        let n = ops.len() as f64;
        let total: f64 = ops.iter().map(|o| ms(o.total_ns)).sum::<f64>() / n;
        report.note(format!(
            "layer self time per traced op ({} ops, mean op {total:.4} ms):",
            ops.len()
        ));
        for layer in LAYERS {
            let t: f64 = ops.iter().map(|o| ms(o.layer_self_ns(layer))).sum::<f64>() / n;
            report.note(format!(
                "  {layer:<10} {t:>10.4} ms  {:>5.1} %",
                100.0 * t / total.max(f64::MIN_POSITIVE)
            ));
        }
    }
    report.metric("obs.unattributed_frac", worst, "ratio");
}

/// Reduces the recorded spans to one [`OpSpans`] per root span named
/// `root`, in the order the roots closed.
pub fn ops_rooted_at(spans: &[SpanRecord], root: &str) -> Vec<OpSpans> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let duration = |i: usize| spans[i].duration_ns().unwrap_or(0);
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root)
        .map(|(root_idx, _)| {
            let mut op = OpSpans {
                total_ns: duration(root_idx),
                names: BTreeMap::new(),
            };
            let mut stack = vec![root_idx];
            while let Some(i) = stack.pop() {
                let kids = children.get(&spans[i].id).map_or(&[][..], Vec::as_slice);
                let child_ns: u64 = kids.iter().map(|&k| duration(k)).sum();
                let entry = op.names.entry(spans[i].name).or_default();
                entry.count += 1;
                entry.total_ns += duration(i);
                entry.self_ns += duration(i).saturating_sub(child_ns);
                stack.extend_from_slice(kids);
            }
            op
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_obs::span;

    #[test]
    fn self_times_telescope_to_the_root() {
        let gate = GateSink::new();
        for _ in 0..3 {
            let op = span(&gate, OP_SPAN);
            let outer = span(&gate, "service.replan");
            span(&gate, "session.replan").finish();
            span(&gate, "stage.greedy").finish();
            outer.finish();
            op.finish();
        }
        gate.set(false);
        span(&gate, OP_SPAN).finish();
        let ops = ops_rooted_at(&gate.recorder().spans(), OP_SPAN);
        assert_eq!(ops.len(), 3, "spans opened while off are not recorded");
        for op in &ops {
            let summed: u64 = op.names.values().map(|t| t.self_ns).sum();
            assert_eq!(summed, op.total_ns);
            assert_eq!(op.get("service.replan").count, 1);
            assert!(op.attributed_ns() <= op.total_ns);
            assert_eq!(op.get("stage.greedy").self_ns, op.layer_self_ns("greedy"));
        }
    }
}
