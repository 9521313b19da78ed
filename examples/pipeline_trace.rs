//! Pipeline telemetry: record a full multi-user solve as a trace.
//!
//! Attaches a [`mec_obs::ShardedRecorder`] to the offloader, solves a
//! small three-user scenario, and prints what the instrumentation saw:
//! stage spans with durations, the label-propagation α trajectory,
//! Lanczos iteration counts, the greedy evaluated/accepted ratio, and
//! the stage-latency histograms from the recorder's metrics registry.
//! Finally exports the whole trace as JSON (the same format the
//! experiments binary writes with `--trace-out`).
//!
//! Run with: `cargo run --example pipeline_trace`
//!
//! Pass `--collapsed-out PATH` to also write the span tree in
//! collapsed-stack format for `scripts/flamegraph.sh` (inferno /
//! flamegraph.pl input), and `--chrome-trace-out PATH` to export the
//! trace in Chrome trace-event format (load via `chrome://tracing` or
//! `ui.perfetto.dev`).

use copmecs::obs::FieldValue;
use copmecs::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. a small multi-user crowd ---------------------------------
    let scenario = Scenario::new(SystemParams::default()).with_users((0..3).map(|i| {
        let g = NetgenSpec::new(300, 900)
            .seed(40 + i)
            .generate()
            .expect("workloads are generable");
        UserWorkload::new(format!("u{i}"), g)
    }));

    // --- 2. solve with a recorder attached ---------------------------
    let recorder = Arc::new(ShardedRecorder::new());
    let report = Offloader::builder()
        .strategy(StrategyKind::Spectral)
        .trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build()
        .solve(&scenario)?;
    println!(
        "solved: {} users, E+T = {:.3}\n",
        report.plan.len(),
        report.evaluation.totals.objective()
    );

    // --- 3. stage spans ----------------------------------------------
    // spans are stored as they close; sort by start time for tree order
    println!("stage spans:");
    let mut spans = recorder.spans();
    spans.sort_by_key(|s| s.start_ns);
    for s in spans {
        let ms = s.duration_ns().unwrap_or(0) as f64 / 1e6;
        let indent = if s.parent == 0 { "" } else { "  " };
        println!("  {indent}{:<20} {ms:>8.3} ms", s.name);
    }

    // --- 4. label propagation: the α trajectory ----------------------
    println!("\nlabel propagation rounds (first component):");
    let mut seen = 0;
    for e in recorder
        .events()
        .iter()
        .filter(|e| e.name == "labelprop.round")
    {
        let field = |k: &str| {
            e.fields
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| match v {
                    FieldValue::U64(u) => *u as f64,
                    FieldValue::I64(i) => *i as f64,
                    FieldValue::F64(x) => *x,
                    FieldValue::Str(_) => f64::NAN,
                })
        };
        println!(
            "  round {:>2}: α = {:.3}, {} updates, {} labels",
            field("round").unwrap_or(0.0),
            field("alpha").unwrap_or(0.0),
            field("updates").unwrap_or(0.0),
            field("labels").unwrap_or(0.0),
        );
        seen += 1;
        if seen >= 6 {
            println!(
                "  … ({} rounds total)",
                recorder.counter_value("labelprop.rounds")
            );
            break;
        }
    }

    // --- 5. eigensolver and greedy counters --------------------------
    println!("\ncounters:");
    for name in [
        "labelprop.rounds",
        "compress.components",
        "lanczos.iterations",
        "lanczos.solves",
        "spectral.bisections",
        "greedy.evaluated",
        "greedy.accepted",
    ] {
        println!("  {name:<22} {}", recorder.counter_value(name));
    }
    let evaluated = recorder.counter_value("greedy.evaluated");
    let accepted = recorder.counter_value("greedy.accepted");
    if evaluated > 0 {
        println!(
            "  greedy acceptance      {:.1}%",
            100.0 * accepted as f64 / evaluated as f64
        );
    }

    // --- 6. live histograms from the metrics registry ----------------
    // histogram samples reach the registry when the recorder drains its
    // rings: flush before reading it
    println!("\nstage latency distributions:");
    recorder.flush();
    let snap = recorder.metrics().snapshot();
    for name in [
        "stage.compression_nanos",
        "stage.cutting_nanos",
        "stage.greedy_nanos",
        "pipeline.solve_nanos",
        "lanczos.iterations",
    ] {
        if let Some(h) = snap.histogram(name) {
            println!(
                "  {name:<26} count {:>3}  p50 {:>10}  p99 {:>10}  max {:>10}",
                h.count(),
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.99),
                h.max(),
            );
        }
    }

    // --- 7. JSON export (what --trace-out writes) --------------------
    let json = recorder.to_json_string();
    println!(
        "\ntrace JSON: {} bytes, {} spans, {} events retained, {} dropped",
        json.len(),
        recorder.spans().len(),
        recorder.events().len(),
        recorder.dropped_records().events
    );

    // --- 8. flamegraph / Chrome-tracing exports ----------------------
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--collapsed-out" {
            let path = args.next().ok_or("--collapsed-out needs a path")?;
            let collapsed = recorder.to_collapsed_stacks();
            std::fs::write(&path, &collapsed)?;
            println!(
                "collapsed stacks written to {path} ({} frames) — render with \
                 scripts/flamegraph.sh {path}",
                collapsed.lines().count()
            );
        } else if a == "--chrome-trace-out" {
            let path = args.next().ok_or("--chrome-trace-out needs a path")?;
            let chrome = recorder.to_chrome_trace_string();
            std::fs::write(&path, &chrome)?;
            println!(
                "chrome trace written to {path} ({} bytes) — load via \
                 chrome://tracing or ui.perfetto.dev",
                chrome.len()
            );
        }
    }
    Ok(())
}
