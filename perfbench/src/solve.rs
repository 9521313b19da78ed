//! The `solve` workload: the paper's one-shot `Offloader::solve`, one
//! pre-generated scenario per timed solve.

use crate::alloc::allocations;
use crate::inputs::SolveSpec;
use crate::stats::{mean, median};
use crate::trace::{
    breakdown, frontends_per_op, median_of, ops_rooted_at, per_span_ms, GateSink, OP_SPAN,
    SETUP_SPAN,
};
use crate::{greedy_counts, ms, seconds_list, Mode, Report, PER_LAYER, SETUPS};
use copmecs_core::{OffloadReport, Offloader, PipelineError};
use mec_labelprop::CompressionConfig;
use mec_model::Scenario;
use mec_obs::{span, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The solver under test: default strategy and greedy, serial context,
/// compression on the calling thread.
fn offloader(gate: Option<&Arc<GateSink>>) -> Offloader {
    let builder = Offloader::builder().compression(CompressionConfig::default().parallel(false));
    match gate {
        Some(g) => builder.trace_sink(Arc::clone(g) as Arc<dyn TraceSink>),
        None => builder,
    }
    .build()
}

/// The output checks of one solve.
fn check(
    problems: &mut Vec<String>,
    what: &str,
    scenario: &Scenario,
    result: &Result<OffloadReport, PipelineError>,
) {
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("{what}: {e}"));
            return;
        }
    };
    if let Err(e) = scenario.validate_plan(&r.plan) {
        problems.push(format!("{what}: invalid plan: {e}"));
    }
    let objective = r.evaluation.totals.objective();
    if !(objective.is_finite() && objective > 0.0) {
        problems.push(format!(
            "{what}: objective {objective} is not finite and positive"
        ));
    }
    if (r.greedy.final_objective - objective).abs() > 1e-6 * objective.abs() {
        problems.push(format!(
            "{what}: greedy objective {} disagrees with the model's {objective}",
            r.greedy.final_objective
        ));
    }
    match scenario.evaluate_all_local() {
        Ok(local) if objective <= local.totals.objective() => {}
        Ok(local) => problems.push(format!(
            "{what}: objective {objective} is worse than all-local {}",
            local.totals.objective()
        )),
        Err(e) => problems.push(format!("{what}: all-local pricing failed: {e}")),
    }
}

/// Runs the `solve` workload for about `seconds` (never fewer than
/// `spec.min_solves` timed solves) and reports the metrics of `mode`.
/// `scenarios[0]` is the warm-up scenario.
///
/// # Panics
///
/// Panics if there are fewer timed scenarios than the prefix needs.
pub fn run(spec: &SolveSpec, scenarios: &[Scenario], seconds: f64, mode: Mode) -> Report {
    assert!(
        spec.min_solves >= 1 && scenarios.len() > spec.min_solves,
        "the workload must reach its checkpoint"
    );
    let mut report = Report::default();
    let gate = (mode == Mode::PerLayer).then(|| Arc::new(GateSink::new()));
    let solver = offloader(gate.as_ref());

    // set-up: the untimed warm-up solve; an untraced run repeats it
    let setups = if gate.is_some() { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    for _ in 0..setups {
        let t0 = Instant::now();
        let setup_span = gate.as_deref().map(|g| span(g, SETUP_SPAN));
        let result = solver.solve(&scenarios[0]);
        drop(setup_span);
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut problems = Vec::new();
        check(&mut problems, "warm-up solve", &scenarios[0], &result);
        report.op(problems);
    }

    let counter = |name: &str| {
        gate.as_deref()
            .map_or(0, |g| g.recorder().counter_value(name))
    };
    let lanczos_before = (counter("lanczos.iterations"), counter("lanczos.solves"));

    let mut solve_ms = Vec::new();
    let mut paired_ratio = Vec::new();
    let mut objectives = Vec::new();
    let mut evaluations = Vec::new();
    let mut moves = Vec::new();
    let mut allocs = Vec::new();
    let mut kept = (0usize, 0usize);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (i, scenario) in scenarios[1..].iter().enumerate() {
        if i >= spec.min_solves && Instant::now() >= deadline {
            break;
        }
        // a traced run solves every scenario twice, untraced and traced,
        // alternating which goes first: the traced twin gives the
        // per-layer figures, the pair the tracing overhead
        let order: &[bool] = match (&gate, i % 2) {
            (None, _) => &[false],
            (Some(_), 0) => &[false, true],
            (Some(_), _) => &[true, false],
        };
        let mut pair = [0.0f64; 2];
        for &traced in order {
            if let Some(g) = &gate {
                g.set(traced);
            }
            let allocs_before = allocations();
            let t0 = Instant::now();
            let op_span = gate.as_deref().filter(|_| traced).map(|g| span(g, OP_SPAN));
            let result = solver.solve(scenario);
            drop(op_span);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            let allocs_used = allocations() - allocs_before;
            let mut problems = Vec::new();
            check(&mut problems, &format!("solve {i}"), scenario, &result);
            report.op(problems);
            pair[usize::from(traced)] = elapsed;
            if traced {
                continue;
            }
            solve_ms.push(elapsed);
            if let (true, Ok(r)) = (i < spec.min_solves, &result) {
                objectives.push(r.evaluation.totals.objective());
                evaluations.push(r.greedy.evaluations as f64);
                moves.push(r.greedy.moves as f64);
                allocs.push(allocs_used as f64);
                for c in &r.compression {
                    kept.0 += c.compressed_nodes;
                    kept.1 += c.offloadable_nodes;
                }
            }
        }
        if gate.is_some() {
            paired_ratio.push(pair[1] / pair[0]);
        }
    }
    let objective = mean(&objectives).unwrap_or(0.0);

    match &gate {
        None => {
            let n = solve_ms.len();
            let p50 = median(&solve_ms).expect("at least one timed solve");
            let busy_s: f64 = solve_ms.iter().sum::<f64>() / 1e3;
            report.metric("events_per_s", n as f64 / busy_s, "1/s");
            report.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
            report.metric("objective", objective, "E_plus_T");
            report.note(format!("event_p50_ms  {p50:.4} ms  (median of {n} solves)"));
            report.note(format!(
                "solve_s       {:.6} s  (median of {n} solves)",
                p50 / 1e3
            ));
            report.note(format!(
                "event_p99_ms  not reported: {n} solves leave fewer than 10 samples beyond p99"
            ));
            report.note(format!(
                "setup_s       median of {} warm-up solves: {}",
                setup_s.len(),
                seconds_list(&setup_s)
            ));
        }
        Some(g) => {
            g.set(true);
            g.recorder().flush();
            let spans = g.recorder().spans();
            let ops = ops_rooted_at(&spans, OP_SPAN);
            let setup = ops_rooted_at(&spans, SETUP_SPAN);
            let lanczos = (
                counter("lanczos.iterations") - lanczos_before.0,
                counter("lanczos.solves") - lanczos_before.1,
            );
            // the solve path bypasses the service and its sessions
            for (name, unit) in &PER_LAYER[..7] {
                debug_assert!(name.starts_with("service.") || name.starts_with("session."));
                report.metric(name, 0.0, unit);
            }
            report.metric(
                "greedy.ms",
                median_of(&ops, |o| Some(ms(o.get("stage.greedy").total_ns))),
                "ms",
            );
            greedy_counts(&mut report, &evaluations, &moves);
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
            report.metric(
                "labelprop.kept_ratio",
                kept.0 as f64 / kept.1.max(1) as f64,
                "ratio",
            );
            report.metric(
                "spectral.cut_ms",
                median_of(&ops, |o| per_span_ms(o, "stage.cutting")),
                "ms",
            );
            report.metric(
                "linalg.lanczos_iters",
                lanczos.0 as f64 / lanczos.1.max(1) as f64,
                "count",
            );
            report.metric(
                "offloader.tail_ms",
                median_of(&ops, |o| Some(ms(o.get("pipeline.solve").self_ns))),
                "ms",
            );
            report.metric("alloc.per_op", mean(&allocs).unwrap_or(0.0), "count");
            report.metric(
                "obs.overhead_frac",
                median(&paired_ratio).map_or(0.0, |r| r - 1.0),
                "ratio",
            );
            report.metric(
                "obs.dropped",
                g.recorder().dropped_records().total() as f64,
                "count",
            );
            report.note(format!(
                "{} scenarios solved untraced and traced",
                solve_ms.len()
            ));
            breakdown(&mut report, &ops);
            report.traced_ops = ops;
        }
    }
    report
}
