//! A seeded benchmark of the COPMECS offloading pipeline.
//!
//! Three workloads drive the program through its public entry points
//! only — `OffloadService::{join_many, join, leave, resubmit, replan}`
//! and `Offloader::solve` — with the default spectral strategy, the
//! lazy greedy and the serial execution context:
//!
//! - `churn`: a large crowd sharing a small pool of apps, one churn
//!   event plus one replan per operation (replan-bound);
//! - `admit`: a small crowd of large apps, every admitted or
//!   re-submitted app never seen before (admission-bound);
//! - `solve`: the paper's one-shot solve at Fig. 9 size
//!   (eigensolver-bound).
//!
//! An untraced run ([`Mode::EndToEnd`]) reports what a user of the
//! service sees; a traced run ([`Mode::PerLayer`]) reports where the
//! time goes, layer by layer. See `README.md` beside this crate.

pub mod alloc;
pub mod inputs;
pub mod solve;
pub mod stats;
pub mod stream;
pub mod trace;

use inputs::{AppShape, SolveSpec, StreamSpec};
use mec_netgen::NetgenError;
use std::time::Instant;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("objective", "E_plus_T"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("service.apply_ms", "ms"),
    ("service.aggregate_ms", "ms"),
    ("service.shard_skew", "ratio"),
    ("session.replan_ms", "ms"),
    ("session.tail_ms", "ms"),
    ("session.admit_self_ms", "ms"),
    ("session.fallback_frac", "ratio"),
    ("greedy.ms", "ms"),
    ("greedy.evaluations", "count"),
    ("greedy.moves", "count"),
    ("greedy.useful_ratio", "ratio"),
    ("frontend.prepared", "count"),
    ("frontend.prepared_setup", "count"),
    ("labelprop.compress_ms", "ms"),
    ("labelprop.kept_ratio", "ratio"),
    ("spectral.cut_ms", "ms"),
    ("linalg.lanczos_iters", "count"),
    ("offloader.tail_ms", "ms"),
    ("alloc.per_op", "count"),
    ("obs.overhead_frac", "ratio"),
    ("obs.dropped", "count"),
    ("obs.unattributed_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replan-bound churn over a large crowd sharing 64 apps.
    Churn,
    /// Admission-bound churn where every app is new.
    Admit,
    /// The one-shot solve at Fig. 9 size.
    Solve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Churn, Workload::Admit, Workload::Solve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Admit => "admit",
            Workload::Solve => "solve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which half of the benchmark a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    EndToEnd,
    /// Traced: the per-layer metrics.
    PerLayer,
}

/// Set-ups per untraced run of every workload; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

/// Session shards of the service in the stream workloads.
pub const SHARDS: usize = 8;

/// The `churn` workload at full size.
pub fn churn_spec() -> StreamSpec {
    StreamSpec {
        users: 51_200,
        app: AppShape {
            nodes: 24,
            components: None,
        },
        pool: Some(64),
        events: 20_000,
        min_events: 1_000,
    }
}

/// The `admit` workload at full size.
pub fn admit_spec() -> StreamSpec {
    StreamSpec {
        users: 500,
        app: AppShape {
            nodes: 1_000,
            components: None,
        },
        pool: None,
        events: 4_000,
        min_events: 1_000,
    }
}

/// The `solve` workload at full size: Fig. 9's 8 users × 2000
/// functions. Two components per app keep every compressed quotient
/// (~270 nodes) under the eigensolver's 400-dimension Krylov cap; a
/// single 2000-function component compresses to ~530 nodes, past the
/// cap, where the spectral cut fails to converge on about one graph in
/// two hundred.
pub fn solve_spec() -> SolveSpec {
    SolveSpec {
        users: 8,
        app: AppShape {
            nodes: 2_000,
            components: Some(2),
        },
        scenarios: 40,
        min_solves: 30,
    }
}

/// Runs `workload` at its full size.
///
/// # Errors
///
/// A [`NetgenError`] when the workload's inputs cannot be generated.
pub fn run(workload: Workload, seed: u64, seconds: f64, mode: Mode) -> Result<Report, NetgenError> {
    match workload {
        Workload::Churn => run_stream(&churn_spec(), seed, seconds, mode),
        Workload::Admit => run_stream(&admit_spec(), seed, seconds, mode),
        Workload::Solve => run_solve(&solve_spec(), seed, seconds, mode),
    }
}

/// Generates a stream workload's inputs from `seed` and runs it.
///
/// # Errors
///
/// A [`NetgenError`] when the inputs cannot be generated.
pub fn run_stream(
    spec: &StreamSpec,
    seed: u64,
    seconds: f64,
    mode: Mode,
) -> Result<Report, NetgenError> {
    let t0 = Instant::now();
    let inputs = inputs::stream_inputs(spec, seed)?;
    let generated = Generated::now(t0);
    Ok(finish(
        stream::run(spec, &inputs, seconds, mode),
        mode,
        generated,
    ))
}

/// Generates the `solve` workload's scenarios from `seed` and runs it.
///
/// # Errors
///
/// A [`NetgenError`] when the inputs cannot be generated.
pub fn run_solve(
    spec: &SolveSpec,
    seed: u64,
    seconds: f64,
    mode: Mode,
) -> Result<Report, NetgenError> {
    let t0 = Instant::now();
    let scenarios = inputs::solve_scenarios(spec, seed)?;
    let generated = Generated::now(t0);
    Ok(finish(
        solve::run(spec, &scenarios, seconds, mode),
        mode,
        generated,
    ))
}

/// The finished inputs: how long they took to generate and the memory
/// they hold.
struct Generated {
    seconds: f64,
    /// Resident set (`VmRSS`) once the inputs exist, in MiB.
    rss_mib: Option<f64>,
}

impl Generated {
    /// Reads the figures as input generation, begun at `t0`, ends.
    fn now(t0: Instant) -> Self {
        Generated {
            seconds: t0.elapsed().as_secs_f64(),
            rss_mib: proc_status_mib("VmRSS:"),
        }
    }
}

/// Adds the process-wide figures and checks that the run reported
/// exactly the metrics its mode promises, each a finite number.
fn finish(mut report: Report, mode: Mode, generated: Generated) -> Report {
    report.note(format!(
        "inputs generated in {:.3} s (not timed), {:.1} MiB resident",
        generated.seconds,
        generated.rss_mib.unwrap_or(f64::NAN)
    ));
    let expected: &[(&str, &str)] = match mode {
        Mode::EndToEnd => {
            // the program's own peak: the process peak at exit above
            // what the finished inputs already held
            match (proc_status_mib("VmHWM:"), generated.rss_mib) {
                (Some(peak), Some(inputs)) => {
                    report.note(format!("process peak resident set {peak:.1} MiB"));
                    report.metric("peak_rss_mb", peak - inputs, "MiB");
                }
                _ => report
                    .failures
                    .push("the resident set is unreadable".into()),
            }
            &END_TO_END
        }
        Mode::PerLayer => &PER_LAYER,
    };
    let reported: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != expected {
        report.failures.push(format!(
            "reported metrics {reported:?}, expected {expected:?}"
        ));
    }
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.failures.push(format!("{} is {}", m.name, m.value));
            m.value = 0.0;
        }
    }
    if report.failed == 0 && !report.failures.is_empty() {
        report.failed = 1;
    }
    report
}

/// A memory figure of this process from `/proc/self/status` (`field`
/// is the line's label, such as `VmHWM:`), in MiB.
fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run: its metrics, the output checks, and notes
/// for the human-readable report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics for the JSON result line, in order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (set-ups, events, solves).
    pub attempted: usize,
    /// Operations that returned an error or failed an output check.
    pub failed: usize,
    /// What went wrong, one line per failed check.
    pub failures: Vec<String>,
    /// Extra human-readable lines (percentile sample counts, metrics
    /// the result line does not carry, the layer breakdown).
    pub notes: Vec<String>,
    /// A traced run's recorded operations, reduced by span name.
    pub traced_ops: Vec<trace::OpSpans>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one attempted operation and the problems its output
    /// checks found; any problem makes the operation a failure.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reads the value of metric `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Nanoseconds as milliseconds.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Durations in seconds, in the order they were measured, for a note.
pub(crate) fn seconds_list(seconds: &[f64]) -> String {
    let each: Vec<String> = seconds.iter().map(|s| format!("{s:.3} s")).collect();
    each.join(", ")
}

/// The greedy's work per replan or solve over the deterministic prefix:
/// median evaluations and moves, and moves per evaluation overall.
pub(crate) fn greedy_counts(report: &mut Report, evaluations: &[f64], moves: &[f64]) {
    report.metric(
        "greedy.evaluations",
        stats::median(evaluations).unwrap_or(0.0),
        "count",
    );
    report.metric("greedy.moves", stats::median(moves).unwrap_or(0.0), "count");
    let evaluated: f64 = evaluations.iter().sum();
    let moved: f64 = moves.iter().sum();
    report.metric(
        "greedy.useful_ratio",
        if evaluated > 0.0 {
            moved / evaluated
        } else {
            0.0
        },
        "ratio",
    );
}
