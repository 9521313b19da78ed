//! The stream workloads (`churn`, `admit`): one client in a closed loop
//! against an `OffloadService`. Each operation is one churn event
//! (`join`, `leave` or `resubmit`) followed by the `replan` that
//! includes it; the next operation is issued only after the replan
//! returns.

use crate::alloc::allocations;
use crate::inputs::{Event, StreamInputs, StreamSpec};
use crate::stats::{mean, median, percentile};
use crate::trace::{
    breakdown, frontends_per_op, median_of, ops_rooted_at, per_span_ms, GateSink, APPLY_SPAN,
    OP_SPAN, REPLAN_SPAN, SETUP_SPAN,
};
use crate::{greedy_counts, ms, seconds_list, Mode, Report, SETUPS, SHARDS};
use copmecs_core::{GreedyMode, OffloadService, ServiceReport, StrategyKind};
use mec_labelprop::CompressionConfig;
use mec_model::SystemParams;
use mec_obs::{span, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations per block in a traced run; blocks alternate between
/// untraced and traced.
const BLOCK: usize = 16;

/// The service under test: default parameters, the spectral strategy,
/// the lazy greedy and serial sessions, with compression kept on the
/// calling thread so the run never holds more than two threads.
fn new_service() -> OffloadService {
    OffloadService::with_config(
        SystemParams::default(),
        CompressionConfig::default().parallel(false),
        StrategyKind::Spectral,
        GreedyMode::Lazy,
        SHARDS,
    )
}

/// What the loop observed, per operation and at the checkpoint after
/// `min_events` events.
#[derive(Debug, Default)]
struct Observed {
    /// Latency of every timed operation.
    op_ms: Vec<f64>,
    /// Whether each operation was recorded.
    traced: Vec<bool>,
    /// `GreedyOutcome::evaluations` of each replan up to the checkpoint.
    evaluations: Vec<f64>,
    /// `GreedyOutcome::moves` of each replan up to the checkpoint.
    moves: Vec<f64>,
    /// Heap allocations of each untraced operation up to the checkpoint.
    allocs: Vec<f64>,
    /// The service objective at the checkpoint.
    objective: f64,
    /// Largest shard crowd over the mean, at the checkpoint.
    shard_skew: f64,
    /// Compressed over offloadable nodes across the crowd, at the
    /// checkpoint.
    kept_ratio: f64,
}

/// Runs a stream workload for about `seconds` (never fewer than
/// `spec.min_events` events) and reports the metrics of `mode`.
///
/// # Panics
///
/// Panics if the spec pre-draws fewer events than its checkpoint needs.
pub fn run(spec: &StreamSpec, inputs: &StreamInputs, seconds: f64, mode: Mode) -> Report {
    assert!(
        spec.min_events >= 1 && inputs.events.len() >= spec.min_events,
        "the stream must reach its checkpoint"
    );
    let mut report = Report::default();
    let gate = (mode == Mode::PerLayer).then(|| Arc::new(GateSink::new()));

    // set-up: admit the crowd and run the first replan; a traced run
    // sets up once, recorded, an untraced run several times
    let setups = if gate.is_some() { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut service = None;
    for _ in 0..setups {
        drop(service.take());
        let batch = inputs.crowd.clone();
        let t0 = Instant::now();
        let setup_span = gate.as_deref().map(|g| span(g, SETUP_SPAN));
        let mut s = new_service();
        if let Some(g) = &gate {
            s = s.with_trace_sink(Arc::clone(g) as Arc<dyn TraceSink>);
        }
        let first = s.join_many(batch).and_then(|()| s.replan());
        drop(setup_span);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut problems = Vec::new();
        match first {
            Ok(r) => check_report(&mut problems, "set-up", &r, inputs.crowd.len(), SHARDS),
            Err(e) => problems.push(format!("set-up failed: {e}")),
        }
        report.op(problems);
        service = Some(s);
    }
    let mut service = service.expect("at least one set-up ran");

    let counter = |name: &str| {
        gate.as_deref()
            .map_or(0, |g| g.recorder().counter_value(name))
    };
    let replans_before = (counter("session.replans"), counter("session.replans_full"));
    let observed = event_loop(
        spec,
        inputs,
        seconds,
        &mut service,
        gate.as_deref(),
        &mut report,
    );
    let replans = (
        counter("session.replans") - replans_before.0,
        counter("session.replans_full") - replans_before.1,
    );

    match &gate {
        None => end_to_end(&mut report, &observed, &setup_s),
        Some(g) => per_layer(&mut report, &observed, g, replans),
    }
    report
}

/// The output checks every replan's aggregate must pass.
fn check_report(
    problems: &mut Vec<String>,
    what: &str,
    r: &ServiceReport,
    users: usize,
    replanned: usize,
) {
    if r.users != users {
        problems.push(format!(
            "{what}: service reports {} users, expected {users}",
            r.users
        ));
    }
    if r.replanned_shards != replanned {
        problems.push(format!(
            "{what}: {} shards replanned, expected {replanned}",
            r.replanned_shards
        ));
    }
    if !(r.objective.is_finite() && r.objective > 0.0) {
        problems.push(format!(
            "{what}: objective {} is not finite and positive",
            r.objective
        ));
    }
}

fn event_loop(
    spec: &StreamSpec,
    inputs: &StreamInputs,
    seconds: f64,
    service: &mut OffloadService,
    gate: Option<&GateSink>,
    report: &mut Report,
) -> Observed {
    let mut observed = Observed::default();
    let mut users = inputs.crowd.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (i, event) in inputs.events.iter().enumerate() {
        if i >= spec.min_events && Instant::now() >= deadline {
            break;
        }
        let traced = gate.is_some() && (i / BLOCK) % 2 == 1;
        if let Some(g) = gate {
            g.set(traced);
        }
        let sink = gate.filter(|_| traced).map(|g| g as &dyn TraceSink);
        let (user, app) = match event {
            Event::Join(name, app) | Event::Resubmit(name, app) => {
                (name.as_str(), Some(Arc::clone(app)))
            }
            Event::Leave(name) => (name.as_str(), None),
        };
        let owned_name = app.as_ref().map(|_| user.to_owned());

        let allocs_before = allocations();
        let t0 = Instant::now();
        let op_span = sink.map(|s| span(s, OP_SPAN));
        let apply_span = sink.map(|s| span(s, APPLY_SPAN));
        let applied = match (event, owned_name, app) {
            (Event::Join(..), Some(name), Some(app)) => service.join(name, app).map(|()| true),
            (Event::Resubmit(..), Some(name), Some(app)) => service.resubmit(name, app),
            _ => Ok(service.leave(user)),
        };
        drop(apply_span);
        let replan_span = sink.map(|s| span(s, REPLAN_SPAN));
        let replanned = service.replan();
        drop(replan_span);
        drop(op_span);
        let elapsed = t0.elapsed();
        let allocs = allocations() - allocs_before;

        let mut problems = Vec::new();
        let what = format!("event {i} ({user})");
        match applied {
            Ok(true) => {}
            Ok(false) => problems.push(format!("{what}: the service did not find a present user")),
            Err(e) => problems.push(format!("{what}: {e}")),
        }
        match event {
            Event::Join(..) => users += 1,
            Event::Leave(..) => users = users.saturating_sub(1),
            Event::Resubmit(..) => {}
        }
        match &replanned {
            Ok(r) => check_report(&mut problems, &what, r, users, 1),
            Err(e) => problems.push(format!("{what}: replan failed: {e}")),
        }
        report.op(problems);
        observed.op_ms.push(elapsed.as_secs_f64() * 1e3);
        observed.traced.push(traced);

        if i < spec.min_events {
            if let Some(r) = service.shard_report(service.shard_of(user)) {
                observed.evaluations.push(r.greedy.evaluations as f64);
                observed.moves.push(r.greedy.moves as f64);
            }
            if gate.is_some() && !traced {
                observed.allocs.push(allocs as f64);
            }
            if i + 1 == spec.min_events {
                checkpoint(&mut observed, service, replanned.ok());
            }
        }
    }
    observed
}

/// Reads the deterministic outputs after the checkpoint event.
fn checkpoint(observed: &mut Observed, service: &OffloadService, report: Option<ServiceReport>) {
    observed.objective = report.map_or(0.0, |r| r.objective);
    let shards: Vec<_> = (0..service.shard_count())
        .filter_map(|i| service.shard_report(i))
        .collect();
    let crowds: Vec<f64> = shards.iter().map(|r| r.plan.len() as f64).collect();
    let mean_crowd = mean(&crowds).unwrap_or(0.0);
    let max_crowd = crowds.iter().copied().fold(0.0, f64::max);
    observed.shard_skew = if mean_crowd > 0.0 {
        max_crowd / mean_crowd
    } else {
        0.0
    };
    let (kept, offloadable) = shards
        .iter()
        .flat_map(|r| &r.compression)
        .fold((0usize, 0usize), |(k, o), c| {
            (k + c.compressed_nodes, o + c.offloadable_nodes)
        });
    observed.kept_ratio = kept as f64 / offloadable.max(1) as f64;
}

fn end_to_end(report: &mut Report, observed: &Observed, setup_s: &[f64]) {
    let n = observed.op_ms.len();
    let p50 = percentile(&observed.op_ms, 0.50).expect("the loop ran at least one event");
    let p99 = percentile(&observed.op_ms, 0.99).expect("the loop ran at least one event");
    let busy_s: f64 = observed.op_ms.iter().sum::<f64>() / 1e3;
    report.metric("events_per_s", n as f64 / busy_s, "1/s");
    report.metric("setup_s", median(setup_s).unwrap_or(0.0), "s");
    report.metric("objective", observed.objective, "E_plus_T");
    report.note(format!(
        "event_p50_ms  {:.4} ms  (p50 of {} events)",
        p50.value, n
    ));
    let spread: Vec<String> = [0.1, 0.25, 0.75, 0.9]
        .iter()
        .filter_map(|&q| {
            percentile(&observed.op_ms, q).map(|p| format!("p{}={:.4}", q * 100.0, p.value))
        })
        .collect();
    report.note(format!("event latency ms: {}", spread.join(" ")));
    let (first, second) = observed.op_ms.split_at(n / 2);
    report.note(format!(
        "event_p50_ms  by half of the run: {:.4} ms, then {:.4} ms",
        median(first).unwrap_or(0.0),
        median(second).unwrap_or(0.0)
    ));
    if p99.beyond >= 10 {
        report.note(format!(
            "event_p99_ms  {:.4} ms  (p99 of {} events, {} beyond)",
            p99.value, p99.samples, p99.beyond
        ));
    } else {
        report.note(format!(
            "event_p99_ms  not reported: {} events leave {} samples beyond p99, fewer than 10",
            p99.samples, p99.beyond
        ));
    }
    report.note(format!(
        "setup_s       median of {} set-ups: {}",
        setup_s.len(),
        seconds_list(setup_s)
    ));
}

/// Median op latency of traced over untraced operations, minus one.
fn overhead(observed_ms: &[f64], traced: &[bool]) -> f64 {
    let pick = |want: bool| -> Vec<f64> {
        observed_ms
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(&v, _)| v)
            .collect()
    };
    match (median(&pick(true)), median(&pick(false))) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    }
}

fn per_layer(report: &mut Report, observed: &Observed, gate: &GateSink, replans: (u64, u64)) {
    gate.set(true);
    gate.recorder().flush();
    let spans = gate.recorder().spans();
    let ops = ops_rooted_at(&spans, OP_SPAN);
    let setup = ops_rooted_at(&spans, SETUP_SPAN);

    report.metric(
        "service.apply_ms",
        median_of(&ops, |o| Some(ms(o.get(APPLY_SPAN).total_ns))),
        "ms",
    );
    report.metric(
        "service.aggregate_ms",
        median_of(&ops, |o| Some(ms(o.get("service.replan").self_ns))),
        "ms",
    );
    report.metric("service.shard_skew", observed.shard_skew, "ratio");
    report.metric(
        "session.replan_ms",
        median_of(&ops, |o| Some(ms(o.get("session.replan").total_ns))),
        "ms",
    );
    report.metric(
        "session.tail_ms",
        median_of(&ops, |o| Some(ms(o.get("session.replan").self_ns))),
        "ms",
    );
    report.metric(
        "session.admit_self_ms",
        median_of(&ops, |o| {
            let join = o.get("session.join");
            (join.count > 0).then(|| ms(join.self_ns))
        }),
        "ms",
    );
    report.metric(
        "session.fallback_frac",
        replans.1 as f64 / replans.0.max(1) as f64,
        "ratio",
    );
    report.metric(
        "greedy.ms",
        median_of(&ops, |o| Some(ms(o.get("stage.greedy").total_ns))),
        "ms",
    );
    greedy_counts(report, &observed.evaluations, &observed.moves);
    report.metric("frontend.prepared", frontends_per_op(&ops), "count");
    report.metric(
        "frontend.prepared_setup",
        setup
            .first()
            .map_or(0.0, |s| s.get("stage.compression").count as f64),
        "count",
    );
    report.metric(
        "labelprop.compress_ms",
        median_of(&ops, |o| per_span_ms(o, "stage.compression")),
        "ms",
    );
    report.metric("labelprop.kept_ratio", observed.kept_ratio, "ratio");
    report.metric(
        "spectral.cut_ms",
        median_of(&ops, |o| per_span_ms(o, "stage.cutting")),
        "ms",
    );
    // the service builds its strategy without a sink, so the eigensolver
    // is not observable here, and no one-shot solve runs
    report.metric("linalg.lanczos_iters", 0.0, "count");
    report.metric("offloader.tail_ms", 0.0, "ms");
    report.metric(
        "alloc.per_op",
        mean(&observed.allocs).unwrap_or(0.0),
        "count",
    );
    report.metric(
        "obs.overhead_frac",
        overhead(&observed.op_ms, &observed.traced),
        "ratio",
    );
    report.metric(
        "obs.dropped",
        gate.recorder().dropped_records().total() as f64,
        "count",
    );
    breakdown(report, &ops);
    report.traced_ops = ops;
}
