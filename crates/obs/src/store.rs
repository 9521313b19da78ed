//! The aggregated trace a [`crate::ShardedRecorder`] drains into — the
//! span table, the retained event ring and the per-class drop counts —
//! and every export rendered from it.

use crate::metrics::RegistrySnapshot;
use crate::FieldValue;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Default capacity of the retained event ring.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// The classes of lossy telemetry records whose losses are accounted
/// separately (counters are exact and never dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DropClass {
    /// A completed span record.
    Span = 0,
    /// A structured event.
    Event = 1,
    /// One histogram sample.
    Histogram = 2,
}

/// Per-class counts of telemetry records lost to bounded buffers —
/// full ring shards, shard-pool exhaustion, or eviction from the
/// retained event ring. `recorded + dropped` is exactly conserved per
/// class (see `crates/obs/tests/shard_properties.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DroppedRecords {
    /// Completed spans lost.
    pub spans: u64,
    /// Events lost or evicted.
    pub events: u64,
    /// Histogram samples lost.
    pub histogram_samples: u64,
}

impl DroppedRecords {
    /// Total losses across all three classes.
    pub fn total(&self) -> u64 {
        self.spans + self.events + self.histogram_samples
    }
}

/// A completed span as the recorder stores it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id (1-based, dense).
    pub id: u64,
    /// Enclosing span id on the same thread, 0 for roots.
    pub parent: u64,
    /// Static span name, e.g. `"stage.compression"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End time. A span is stored once it closes, so this is always
    /// `Some`; the JSON export keeps `end_ns` nullable.
    pub end_ns: Option<u64>,
    /// Ring shard the span was recorded on, plus one. Becomes the
    /// `tid` of the Chrome trace-event export.
    pub tid: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// One structured event as the recorder stores it.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Static event name, e.g. `"labelprop.round"`.
    pub name: &'static str,
    /// Typed fields in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

#[derive(Debug)]
struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
}

impl EventRing {
    fn push(&mut self, ev: TraceEvent) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            // overwrite the oldest entry
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }

    fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, first) = self.buf.split_at(self.head);
        first.iter().chain(tail.iter())
    }
}

/// What the aggregator has drained so far: every completed span, the
/// newest `event_capacity` events, and the per-class losses. Memory is
/// bounded for events only; the span table grows with every span.
#[derive(Debug)]
pub(crate) struct Store {
    spans: Vec<SpanRecord>,
    events: EventRing,
    /// Losses indexed by [`DropClass`].
    dropped: [u64; 3],
}

impl Store {
    pub(crate) fn new(event_capacity: usize) -> Self {
        Store {
            spans: Vec::new(),
            events: EventRing {
                buf: Vec::new(),
                capacity: event_capacity.max(1),
                head: 0,
            },
            dropped: [0; 3],
        }
    }

    pub(crate) fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter_in_order()
    }

    pub(crate) fn dropped(&self) -> DroppedRecords {
        DroppedRecords {
            spans: self.dropped[DropClass::Span as usize],
            events: self.dropped[DropClass::Event as usize],
            histogram_samples: self.dropped[DropClass::Histogram as usize],
        }
    }

    /// Counts `n` lost records of `class`, warning on stderr the first
    /// time any loss is observed.
    pub(crate) fn add_dropped(&mut self, class: DropClass, n: u64) {
        if n == 0 {
            return;
        }
        if self.dropped == [0; 3] {
            eprintln!(
                "mec-obs: bounded telemetry buffers overflowed; \
                 span/event/histogram records are being dropped or evicted \
                 (raise ShardConfig::capacity or ShardConfig::event_capacity); \
                 exact counts are in the export's *_dropped fields"
            );
        }
        self.dropped[class as usize] += n;
    }

    pub(crate) fn push_span(&mut self, record: SpanRecord) {
        self.spans.push(record);
    }

    /// Retains `ev`, evicting (and counting) the oldest event once the
    /// ring is full.
    pub(crate) fn push_event(&mut self, ev: TraceEvent) {
        if self.events.push(ev) {
            self.add_dropped(DropClass::Event, 1);
        }
    }

    /// Collapses the spans into folded-stack lines
    /// (`root;child;leaf <self_nanos>`), the input format of
    /// inferno / `flamegraph.pl`. Self time is the span's duration
    /// minus the summed durations of its direct children; frames whose
    /// self time rounds to zero are omitted (they still appear as
    /// prefixes of their children's stacks). See
    /// `scripts/flamegraph.sh` for the rendering step.
    pub(crate) fn to_collapsed_stacks(&self) -> String {
        let spans = &self.spans;
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if let Some(d) = s.duration_ns() {
                if s.parent != 0 {
                    *child_ns.entry(s.parent).or_insert(0) += d;
                }
            }
        }
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for s in spans {
            let Some(d) = s.duration_ns() else { continue };
            let self_ns = d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if self_ns == 0 {
                continue;
            }
            let mut frames = vec![s.name];
            let mut parent = s.parent;
            while parent != 0 {
                match by_id.get(&parent) {
                    Some(p) => {
                        frames.push(p.name);
                        parent = p.parent;
                    }
                    None => break,
                }
            }
            frames.reverse();
            *folded.entry(frames.join(";")).or_insert(0) += self_ns;
        }
        let mut out = String::with_capacity(folded.len() * 48);
        for (stack, ns) in folded {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// Serialises the whole trace as a JSON document. `metrics` is the
    /// registry snapshot: its unlabeled counters are the top-level
    /// `counters`, and the whole snapshot is nested under `metrics`.
    ///
    /// Schema (stable, consumed by `scripts/plot_figures.py`):
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "duration_ns": 12345,
    ///   "counters": { "greedy.moves_evaluated": 42 },
    ///   "spans": [ { "id": 1, "parent": 0, "name": "stage.compression",
    ///                "start_ns": 10, "end_ns": 900, "duration_ns": 890 } ],
    ///   "events": [ { "t_ns": 15, "name": "labelprop.round",
    ///                 "fields": { "round": 1, "alpha": 0.5 } } ],
    ///   "metrics": { "histograms": {}, "counters": {}, "gauges": {} },
    ///   "spans_dropped": 0,
    ///   "hist_samples_dropped": 0,
    ///   "events_dropped": 0
    /// }
    /// ```
    ///
    /// When any bounded buffer has dropped or evicted records, the
    /// export also carries a top-level `"warning"` string listing the
    /// per-class counts so truncation is never silent.
    pub(crate) fn to_json_string(&self, duration_ns: u64, metrics: &RegistrySnapshot) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"duration_ns\": {duration_ns},");

        out.push_str("  \"counters\": {");
        let mut any = false;
        for (key, value) in metrics.counters.iter().filter(|(k, _)| k.label.is_none()) {
            if any {
                out.push(',');
            }
            any = true;
            out.push_str("\n    ");
            write_json_str(&mut out, key.name);
            let _ = write!(out, ": {value}");
        }
        if any {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(
                out,
                "{{ \"id\": {}, \"parent\": {}, \"tid\": {}, ",
                s.id, s.parent, s.tid
            );
            out.push_str("\"name\": ");
            write_json_str(&mut out, s.name);
            let _ = write!(out, ", \"start_ns\": {}", s.start_ns);
            match s.end_ns {
                Some(end) => {
                    let _ = write!(
                        out,
                        ", \"end_ns\": {}, \"duration_ns\": {} }}",
                        end,
                        end.saturating_sub(s.start_ns)
                    );
                }
                None => out.push_str(", \"end_ns\": null, \"duration_ns\": null }"),
            }
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"events\": [");
        for (i, e) in self.events().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(out, "{{ \"t_ns\": {}, \"name\": ", e.t_ns);
            write_json_str(&mut out, e.name);
            out.push_str(", \"fields\": {");
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_str(&mut out, k);
                out.push_str(": ");
                write_field_value(&mut out, v);
            }
            out.push_str("} }");
        }
        if !self.events.buf.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        // the snapshot serialiser already emits a complete JSON
        // document; splice it in as a nested object
        out.push_str("  \"metrics\": ");
        out.push_str(metrics.to_json_string().trim_end());
        out.push_str(",\n");

        let dropped = self.dropped();
        if dropped.total() > 0 {
            out.push_str("  \"warning\": ");
            write_json_str(
                &mut out,
                &format!(
                    "bounded telemetry buffers overflowed: {} span(s), {} event(s), \
                     {} histogram sample(s) dropped or evicted; raise \
                     ShardConfig::capacity or ShardConfig::event_capacity to keep them",
                    dropped.spans, dropped.events, dropped.histogram_samples
                ),
            );
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  \"spans_dropped\": {},", dropped.spans);
        let _ = writeln!(
            out,
            "  \"hist_samples_dropped\": {},",
            dropped.histogram_samples
        );
        let _ = write!(out, "  \"events_dropped\": {}\n}}\n", dropped.events);
        out
    }

    /// Serialises the trace in the Chrome trace-event JSON format
    /// (load the file at `chrome://tracing` or in Perfetto).
    ///
    /// Spans become `"ph": "X"` duration events on track `tid` (ring
    /// shard + 1); trace events become `"ph": "i"` instants with their
    /// fields under `"args"`. Timestamps are microseconds since
    /// recorder creation.
    pub(crate) fn to_chrome_trace_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            let Some(end_ns) = s.end_ns else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            write_json_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                s.start_ns as f64 / 1_000.0,
                end_ns.saturating_sub(s.start_ns) as f64 / 1_000.0,
                s.tid
            );
        }
        for e in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            write_json_str(&mut out, e.name);
            let _ = write!(
                out,
                ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{",
                e.t_ns as f64 / 1_000.0
            );
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                out.push(':');
                write_field_value(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Prometheus text exposition: the registry snapshot (histograms,
    /// counters, gauges) plus the three
    /// `mec_obs_dropped_records{class=…}` series.
    pub(crate) fn to_prometheus_string(&self, metrics: &RegistrySnapshot) -> String {
        let mut out = metrics.to_prometheus_string();
        let d = self.dropped();
        out.push_str("# TYPE mec_obs_dropped_records counter\n");
        for (class, value) in [
            ("span", d.spans),
            ("event", d.events),
            ("histogram", d.histogram_samples),
        ] {
            let _ = writeln!(out, "mec_obs_dropped_records{{class=\"{class}\"}} {value}");
        }
        out
    }
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::I64(i) => {
            let _ = write!(out, "{i}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Str(s) => write_json_str(out, s),
    }
}

#[cfg(test)]
mod tests {
    use crate::{span, FieldValue, ShardConfig, ShardedRecorder, TraceSink};

    /// A recorder without the background aggregator, holding at most
    /// `event_capacity` events.
    fn manual(event_capacity: usize) -> ShardedRecorder {
        ShardedRecorder::with_config(ShardConfig {
            event_capacity,
            drain_interval: None,
            ..ShardConfig::default()
        })
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts_drops() {
        let rec = manual(3);
        for i in 0..5u64 {
            rec.event("e", &[("i", FieldValue::U64(i))]);
        }
        assert_eq!(rec.dropped_records().events, 2);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        let kept: Vec<u64> = events
            .iter()
            .map(|e| match e.fields[0].1 {
                FieldValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn json_export_contains_all_sections() {
        let rec = manual(16);
        let s = span(&rec, "stage.compression");
        rec.counter_add("greedy.moves_evaluated", 7);
        rec.event(
            "labelprop.round",
            &[
                ("round", FieldValue::U64(1)),
                ("alpha", FieldValue::F64(0.5)),
            ],
        );
        s.finish();
        let json = rec.to_json_string();
        for needle in [
            "\"version\": 1",
            "\"stage.compression\"",
            "\"greedy.moves_evaluated\": 7",
            "\"labelprop.round\"",
            "\"alpha\": 0.5",
            "\"events_dropped\": 0",
            "\"metrics\":",
            "\"duration_ns\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(
            !json.contains("\"warning\""),
            "no warning without evictions"
        );
    }

    #[test]
    fn json_export_warns_once_truncation_happened() {
        let rec = manual(1);
        rec.event("e", &[]);
        rec.event("e", &[]);
        let json = rec.to_json_string();
        assert!(json.contains("\"events_dropped\": 1"), "{json}");
        assert!(json.contains("\"warning\""), "{json}");
        assert!(json.contains("evicted"), "{json}");
    }

    /// Every counter view reads the registry's one cell: the direct
    /// lookup, the registry snapshot, the trace JSON's top-level
    /// `counters` and the Prometheus text.
    #[test]
    fn one_counter_store_backs_every_view() {
        let rec = manual(16);
        rec.counter_add("labelprop.rounds", 29);
        rec.counter_add("labelprop.rounds", 1);
        assert_eq!(rec.counter_value("labelprop.rounds"), 30);
        assert_eq!(
            rec.metrics().snapshot().counter("labelprop.rounds"),
            Some(30)
        );
        let json = rec.to_json_string();
        let top = json.split("\"spans\"").next().unwrap();
        assert!(top.contains("\"labelprop.rounds\": 30"), "{json}");
        let prom = rec.to_prometheus_string();
        let samples: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("labelprop_rounds"))
            .collect();
        assert_eq!(samples, ["labelprop_rounds 30"], "{prom}");
    }

    #[test]
    fn collapsed_stacks_fold_self_time_by_path() {
        let rec = manual(16);
        let outer = span(&rec, "pipeline.solve");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = span(&rec, "stage.greedy");
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.finish();
        outer.finish();
        let folded = rec.to_collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pipeline.solve;stage.greedy ")),
            "missing nested frame in:\n{folded}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("pipeline.solve ")),
            "missing root self time in:\n{folded}"
        );
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(!stack.is_empty());
            assert!(weight.parse::<u64>().is_ok(), "bad weight in {line:?}");
        }
        // root self time excludes the child's time
        let root_ns: u64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("pipeline.solve "))
            .unwrap()
            .parse()
            .unwrap();
        let child_ns: u64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("pipeline.solve;stage.greedy "))
            .unwrap()
            .parse()
            .unwrap();
        let total = rec
            .spans()
            .iter()
            .find(|s| s.name == "pipeline.solve")
            .unwrap()
            .duration_ns()
            .unwrap();
        assert_eq!(root_ns + child_ns, total);
    }
}
