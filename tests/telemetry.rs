//! Telemetry guarantees: tracing never changes results, the recorder
//! sees the whole pipeline, and the exported JSON is well-formed. The
//! recorder's span, event and JSON accessors flush first, and counters
//! need no flush, so these tests read without flushing by hand.

use copmecs::obs::FieldValue;
use copmecs::prelude::*;
use std::sync::Arc;

fn crowd(seed: u64, users: usize) -> Scenario {
    let mut s = Scenario::new(SystemParams::default());
    for i in 0..users {
        let g = NetgenSpec::new(250, 750)
            .seed(seed + i as u64)
            .generate()
            .unwrap();
        s = s.with_user(UserWorkload::new(format!("u{i}"), g));
    }
    s
}

/// The default (no sink) and explicit-NullSink pipelines must produce
/// bit-identical reports: the no-op sink may not perturb the solve.
#[test]
fn null_sink_report_is_byte_identical() {
    let s = crowd(11, 2);
    let plain = Offloader::builder().build().solve(&s).unwrap();
    let nulled = Offloader::builder()
        .trace_sink(Arc::new(NullSink) as Arc<dyn TraceSink>)
        .build()
        .solve(&s)
        .unwrap();
    assert_eq!(plain.plan, nulled.plan);
    assert_eq!(
        plain.evaluation.totals.objective().to_bits(),
        nulled.evaluation.totals.objective().to_bits()
    );
    assert_eq!(plain.greedy.moves, nulled.greedy.moves);
    assert_eq!(plain.compression, nulled.compression);
}

/// A live recorder must not perturb the solve either — only observe it.
#[test]
fn recording_does_not_change_the_plan() {
    let s = crowd(12, 2);
    let plain = Offloader::builder().build().solve(&s).unwrap();
    let recorder = Arc::new(ShardedRecorder::new());
    let traced = Offloader::builder()
        .trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build()
        .solve(&s)
        .unwrap();
    assert_eq!(plain.plan, traced.plan);
    assert_eq!(
        plain.evaluation.totals.objective().to_bits(),
        traced.evaluation.totals.objective().to_bits()
    );
}

#[test]
fn recorder_sees_every_pipeline_stage() {
    let s = crowd(13, 2);
    let recorder = Arc::new(ShardedRecorder::new());
    Offloader::builder()
        .strategy(StrategyKind::Spectral)
        .trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build()
        .solve(&s)
        .unwrap();

    // spans: one solve root, stages nested under it, all closed
    let spans = recorder.spans();
    let root = spans
        .iter()
        .find(|sp| sp.name == "pipeline.solve")
        .expect("solve span present");
    for stage in ["stage.compression", "stage.cutting", "stage.greedy"] {
        let sp = spans
            .iter()
            .find(|sp| sp.name == stage)
            .unwrap_or_else(|| panic!("missing span {stage}"));
        assert_eq!(sp.parent, root.id, "{stage} must nest under the solve");
    }
    assert!(spans.iter().all(|sp| sp.end_ns.is_some()));

    // counters from every layer of the pipeline
    for counter in [
        "labelprop.rounds",
        "compress.components",
        "lanczos.iterations",
        "spectral.bisections",
        "greedy.evaluated",
    ] {
        assert!(
            recorder.counter_value(counter) > 0,
            "counter {counter} never incremented"
        );
    }
    assert!(
        recorder.counter_value("greedy.accepted") <= recorder.counter_value("greedy.evaluated")
    );

    // per-round α trajectory: starts at 1.0, never rises
    let alphas: Vec<f64> = recorder
        .events()
        .iter()
        .filter(|e| e.name == "labelprop.round")
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k, v) {
                (&"alpha", FieldValue::F64(a)) => Some(*a),
                _ => None,
            })
        })
        .collect();
    assert!(!alphas.is_empty(), "labelprop.round events missing");
    assert_eq!(alphas[0], 1.0, "first sweep updates every node");
}

/// The counters of every spectral and eigensolver record in `rec`.
fn cut_counters(rec: &ShardedRecorder) -> Vec<(&'static str, u64)> {
    rec.metrics()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(k, _)| k.name.starts_with("spectral.") || k.name.starts_with("lanczos."))
        .map(|(k, v)| (k.name, v))
        .collect()
}

/// A caller's context decides where a solve records, on both backends:
/// the `pipeline.solve` span and every cut counter land in the
/// context's sink, and the builder's sink sees nothing of the call.
#[test]
fn solve_with_records_only_into_the_context_sink() {
    let s = crowd(15, 2);
    // what the builder's sink records of a plain `solve`
    let reference = Arc::new(ShardedRecorder::new());
    Offloader::builder()
        .trace_sink(Arc::clone(&reference) as Arc<dyn TraceSink>)
        .build()
        .solve(&s)
        .unwrap();
    let expected = cut_counters(&reference);
    assert!(reference.counter_value("spectral.bisections") > 0);
    assert!(reference.counter_value("lanczos.solves") > 0);

    let cluster = Arc::new(copmecs::engine::Cluster::new(2).unwrap());
    for ctx in [ExecCtx::serial(), ExecCtx::cluster(cluster)] {
        let builder_sink = Arc::new(ShardedRecorder::new());
        let ctx_sink = Arc::new(ShardedRecorder::new());
        let offloader = Offloader::builder()
            .trace_sink(Arc::clone(&builder_sink) as Arc<dyn TraceSink>)
            .build();
        let mut ctx = ctx.with_sink(Arc::clone(&ctx_sink) as Arc<dyn TraceSink>);
        offloader.solve_with(&mut ctx, &s).unwrap();

        assert!(ctx_sink
            .spans()
            .iter()
            .any(|sp| sp.name == "pipeline.solve"));
        assert_eq!(cut_counters(&ctx_sink), expected);
        assert!(builder_sink.spans().is_empty());
        assert!(builder_sink.events().is_empty());
        let untouched = builder_sink.metrics().snapshot();
        assert!(untouched.counters.iter().all(|(_, v)| *v == 0));
        assert!(untouched.histograms.iter().all(|(_, h)| h.count() == 0));
    }
}

/// A traced service's admissions record their cuts: every shard
/// session hands the service's sink to the eigensolver.
#[test]
fn service_admission_records_the_eigensolver() {
    let recorder = Arc::new(ShardedRecorder::new());
    let mut service = OffloadService::new(SystemParams::default(), 2)
        .with_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let users: Vec<_> = (0..6u64)
        .map(|i| {
            let g = NetgenSpec::new(300, 900).seed(20 + i).generate().unwrap();
            (format!("u{i}"), Arc::new(g))
        })
        .collect();
    service.join_many(users).unwrap();
    assert!(recorder.counter_value("labelprop.rounds") > 0);
    assert!(recorder.counter_value("spectral.bisections") > 0);
    assert!(
        recorder.counter_value("lanczos.solves") + recorder.counter_value("lanczos.dense_solves")
            > 0
    );
}

#[test]
fn session_counters_track_churn() {
    let recorder = Arc::new(ShardedRecorder::new());
    let mut session = OffloadSession::new(SystemParams::default())
        .with_trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let g = Arc::new(NetgenSpec::new(120, 360).seed(5).generate().unwrap());
    session.join("a", Arc::clone(&g)).unwrap();
    session.join("b", g).unwrap();
    session.replan().unwrap();
    session.leave("a");
    session.replan().unwrap();
    assert_eq!(recorder.counter_value("session.joins"), 2);
    assert_eq!(recorder.counter_value("session.leaves"), 1);
    assert_eq!(recorder.counter_value("session.replans"), 2);
    assert!(recorder.spans().iter().any(|s| s.name == "session.join"));
    assert!(recorder.spans().iter().any(|s| s.name == "session.replan"));
    // the session's sink covers the cuts of its admissions too
    assert!(recorder.counter_value("spectral.bisections") > 0);
    assert!(
        recorder.counter_value("lanczos.solves") + recorder.counter_value("lanczos.dense_solves")
            > 0
    );
}

/// The exported trace must parse as JSON and survive a parse →
/// serialise → parse round trip unchanged.
#[test]
fn trace_json_round_trips_through_serde() {
    let s = crowd(14, 1);
    let recorder = Arc::new(ShardedRecorder::new());
    Offloader::builder()
        .trace_sink(Arc::clone(&recorder) as Arc<dyn TraceSink>)
        .build()
        .solve(&s)
        .unwrap();
    let json = recorder.to_json_string();

    let value: serde::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let top = value.as_object().expect("trace is a JSON object");
    for key in [
        "version",
        "duration_ns",
        "counters",
        "metrics",
        "spans",
        "events",
        "events_dropped",
    ] {
        assert!(
            serde::find_field(top, key).is_some(),
            "trace lacks top-level key {key}"
        );
    }
    assert_eq!(
        serde::find_field(top, "version"),
        Some(&serde::Value::U64(1))
    );
    let spans = serde::find_field(top, "spans")
        .and_then(|v| v.as_array())
        .expect("spans is an array");
    assert!(!spans.is_empty());
    for sp in spans {
        let fields = sp.as_object().expect("span is an object");
        for key in ["id", "parent", "name", "start_ns", "end_ns", "duration_ns"] {
            assert!(serde::find_field(fields, key).is_some(), "span lacks {key}");
        }
    }

    let reprinted = serde_json::to_string(&value).expect("trace reserialises");
    let reparsed: serde::Value = serde_json::from_str(&reprinted).unwrap();
    assert_eq!(value, reparsed, "round trip must be lossless");
}
