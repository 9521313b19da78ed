//! Property-based tests for the sharded collection pipeline: exact
//! conservation of `recorded + dropped` per class under multi-thread
//! hammering at tiny ring capacities, and a lossless single-thread run
//! reproducing exactly what the workload script emitted.

use mec_obs::{FieldValue, ShardConfig, ShardedRecorder, TraceSink};
use proptest::prelude::*;
use std::sync::Arc;

const HAMMER_THREADS: usize = 8;

/// One thread's workload: `spans` nested spans (each carrying one
/// event and one histogram sample), then `loose_events` bare events.
#[derive(Debug, Clone)]
struct Workload {
    spans: usize,
    loose_events: usize,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (0usize..40, 0usize..40).prop_map(|(spans, loose_events)| Workload {
        spans,
        loose_events,
    })
}

fn run_workload(sink: &dyn TraceSink, w: &Workload) {
    for i in 0..w.spans {
        let guard = mec_obs::span(sink, "work.unit");
        sink.counter_add("work.count", 1);
        sink.event("work.tick", &[("i", FieldValue::U64(i as u64))]);
        sink.histogram_record("work.nanos", (i as u64 + 1) * 100);
        guard.finish();
    }
    for _ in 0..w.loose_events {
        sink.event("work.loose", &[]);
    }
}

proptest! {
    // each case spawns 8 OS threads; keep the case count moderate
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `recorded + dropped == emitted`, exactly, per class, no matter
    /// how small the rings are or how many threads hammer them.
    #[test]
    fn counts_are_conserved_under_hammering(
        workloads in proptest::collection::vec(arb_workload(), HAMMER_THREADS),
        capacity in 8usize..64,
    ) {
        let rec = Arc::new(ShardedRecorder::with_config(ShardConfig {
            shards: HAMMER_THREADS,
            capacity,
            drain_interval: None, // worst case: nothing drains mid-run
            ..ShardConfig::default()
        }));
        let handles: Vec<_> = workloads
            .iter()
            .cloned()
            .map(|w| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || run_workload(rec.as_ref(), &w))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        rec.flush();

        let spans_emitted: usize = workloads.iter().map(|w| w.spans).sum();
        let events_emitted: usize =
            workloads.iter().map(|w| w.spans + w.loose_events).sum();
        let hist_emitted = spans_emitted;

        let dropped = rec.dropped_records();
        let spans_kept = rec.spans().len() as u64;
        let events_kept = rec.events().len() as u64;
        let hist_kept = rec
            .metrics()
            .snapshot()
            .histogram("work.nanos")
            .map_or(0, |h| h.count());

        prop_assert_eq!(spans_kept + dropped.spans, spans_emitted as u64);
        prop_assert_eq!(events_kept + dropped.events, events_emitted as u64);
        prop_assert_eq!(hist_kept + dropped.histogram_samples, hist_emitted as u64);
        // exact counters never drop, even when every ring overflows
        prop_assert_eq!(rec.counter_value("work.count"), spans_emitted as u64);
    }

    /// With ample capacity and a single recording thread, the recorder
    /// reproduces the workload script exactly: the spans it opened (as
    /// sequential roots), the events it emitted in order, the histogram
    /// samples it recorded, the counter it bumped, and zero drops.
    #[test]
    fn lossless_single_thread_matches_reference(w in arb_workload()) {
        let sharded = ShardedRecorder::with_config(ShardConfig {
            capacity: 1 << 12,
            drain_interval: None,
            ..ShardConfig::default()
        });
        run_workload(&sharded, &w);
        sharded.flush();

        prop_assert_eq!(sharded.dropped_records().total(), 0);

        let got_spans = sharded.spans();
        prop_assert_eq!(got_spans.len(), w.spans);
        for (i, s) in got_spans.iter().enumerate() {
            prop_assert_eq!(s.name, "work.unit");
            prop_assert_eq!(s.id, i as u64 + 1);
            prop_assert_eq!(s.parent, 0);
            prop_assert!(s.end_ns.is_some());
        }

        let expected_events: Vec<(&str, Vec<(&str, FieldValue)>)> = (0..w.spans)
            .map(|i| ("work.tick", vec![("i", FieldValue::U64(i as u64))]))
            .chain((0..w.loose_events).map(|_| ("work.loose", Vec::new())))
            .collect();
        let got_events = sharded.events();
        prop_assert_eq!(got_events.len(), expected_events.len());
        for (a, (name, fields)) in got_events.iter().zip(expected_events.iter()) {
            prop_assert_eq!(a.name, *name);
            prop_assert_eq!(&a.fields, fields);
        }

        let got_hist = sharded.metrics().snapshot();
        match got_hist.histogram("work.nanos") {
            Some(h) => {
                let n = w.spans as u64;
                prop_assert_eq!(h.count(), n);
                prop_assert_eq!(h.sum(), 100 * n * (n + 1) / 2);
                prop_assert_eq!(h.max(), 100 * n);
            }
            None => prop_assert_eq!(w.spans, 0, "histogram missing"),
        }
        prop_assert_eq!(sharded.counter_value("work.count"), w.spans as u64);
    }
}
