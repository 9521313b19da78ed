//! mec-metrics: a lock-light registry of log-bucketed latency
//! histograms, labeled counters, and gauges.
//!
//! The trace sink ([`crate::TraceSink`]) answers "what happened, in
//! order"; this module answers "how is it *distributed*". A
//! [`MetricsRegistry`] hands out cheap handles —
//! [`HistogramHandle`], [`CounterHandle`], [`GaugeHandle`] — whose
//! recording path is a handful of relaxed atomic operations, so worker
//! threads can record every task without contending on a lock. A
//! disabled registry ([`MetricsRegistry::disabled`]) hands out inert
//! handles: recording through them is a branch on a `None`, performs no
//! atomic traffic, and never touches the heap — the property
//! `tests/alloc_budget.rs` pins for the pipeline hot path.
//!
//! Histograms are HdrHistogram-style: base-2 buckets with 32 linear
//! sub-buckets per octave, giving ≤ 3.2 % relative error over the full
//! `u64` range at a fixed 1920-bucket footprint. Snapshots are
//! mergeable (bucket-wise addition) and diffable (bucket-wise
//! subtraction), so long-lived sessions can report per-interval
//! percentiles from two cumulative snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Linear sub-buckets per power of two (2^5 = 32).
const SUB_BUCKET_BITS: u32 = 5;
/// Sub-bucket count per octave.
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Octaves above the linear region: exponents 5 through 63.
const OCTAVES: usize = 64 - SUB_BUCKET_BITS as usize;
/// Total bucket count: one linear region plus 59 sub-bucketed octaves.
pub const BUCKET_COUNT: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // 2^exp <= v, exp >= 5
        let oct = (exp - SUB_BUCKET_BITS) as usize;
        let sub = ((v >> (exp - SUB_BUCKET_BITS)) as usize) & (SUB_BUCKETS - 1);
        SUB_BUCKETS + oct * SUB_BUCKETS + sub
    }
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_BUCKETS {
        (i as u64, i as u64)
    } else {
        let oct = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let low = (SUB_BUCKETS as u64 + sub) << oct;
        let width = 1u64 << oct;
        (low, low.saturating_add(width - 1))
    }
}

/// A concurrent log-bucketed histogram: recording is four relaxed
/// atomic operations, merging and quantiles happen on snapshots.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot: mergeable, diffable, quantile-able.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: the highest value equivalent to
    /// the bucket containing the `ceil(q·count)`-th recorded value,
    /// clamped to the exact observed `[min, max]`. Returns 0 when
    /// empty. Monotone in `q`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bounds(i).1.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Bucket-wise addition of `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        // wrapping: `Histogram::record` accumulates sum with a wrapping
        // atomic add, so merging snapshots mirrors recording into one
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.max = self.max.max(other.max);
            self.min = if self.count == other.count {
                other.min
            } else {
                self.min.min(other.min)
            };
        }
    }

    /// Bucket-wise subtraction: the distribution recorded *between*
    /// `earlier` and `self` (both cumulative snapshots of one
    /// histogram). Interval `min`/`max` are reconstructed from the
    /// surviving buckets, so they are bucket-resolution approximations
    /// rather than exact observations.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let first = counts.iter().position(|&c| c > 0);
        let last = counts.iter().rposition(|&c| c > 0);
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: first.map_or(0, |i| bucket_bounds(i).0),
            max: last.map_or(0, |i| bucket_bounds(i).1.min(self.max)),
            counts,
        }
    }
}

/// A monotonic labeled counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Identity of one metric: a static name plus at most one label pair
/// (e.g. `engine.task_nanos{worker="3"}`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, dot-separated by convention.
    pub name: &'static str,
    /// Optional `(label name, label value)` pair.
    pub label: Option<(&'static str, String)>,
}

impl MetricKey {
    /// An unlabeled key.
    pub fn plain(name: &'static str) -> Self {
        MetricKey { name, label: None }
    }

    /// A labeled key.
    pub fn labeled(name: &'static str, key: &'static str, value: impl Into<String>) -> Self {
        MetricKey {
            name,
            label: Some((key, value.into())),
        }
    }

    /// Renders as `name` or `name{key="value"}`.
    pub fn render(&self) -> String {
        match &self.label {
            None => self.name.to_string(),
            Some((k, v)) => format!("{}{{{k}=\"{v}\"}}", self.name),
        }
    }
}

/// A recording handle for one histogram. Inert (`record` is a no-op
/// branch, no atomics, no allocation) when obtained from a disabled
/// registry.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// A permanently inert handle.
    pub fn disabled() -> Self {
        HistogramHandle(None)
    }

    /// `true` when recording actually lands somewhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if let Some(h) = &self.0 {
            h.record_duration(d);
        }
    }
}

/// A recording handle for one counter (inert when disabled).
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// A permanently inert handle.
    pub fn disabled() -> Self {
        CounterHandle(None)
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.add(delta);
        }
    }
}

/// A recording handle for one gauge (inert when disabled).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// A permanently inert handle.
    pub fn disabled() -> Self {
        GaugeHandle(None)
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.add(delta);
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
}

/// The metric registry: hands out recording handles and takes
/// whole-registry snapshots.
///
/// Handle acquisition takes a write lock once per metric; recording
/// through a handle is lock-free. One-shot helpers
/// ([`record_histogram`](Self::record_histogram),
/// [`add_counter`](Self::add_counter)) take a read lock per call; the
/// recorder's aggregator folds histogram samples in through the first.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    inner: RwLock<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            inner: RwLock::new(RegistryInner::default()),
        }
    }

    /// A registry whose handles are all inert: recording costs a
    /// branch and never allocates.
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            inner: RwLock::new(RegistryInner::default()),
        }
    }

    /// `true` when this registry records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn histogram_arc(&self, key: MetricKey) -> Option<Arc<Histogram>> {
        if !self.enabled {
            return None;
        }
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = inner.histograms.get(&key) {
                return Some(Arc::clone(h));
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(
            inner
                .histograms
                .entry(key)
                .or_insert_with(|| Arc::new(Histogram::new())),
        ))
    }

    /// Handle for the unlabeled histogram `name`.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        HistogramHandle(self.histogram_arc(MetricKey::plain(name)))
    }

    /// Handle for the histogram `name{key="value"}`.
    pub fn histogram_labeled(
        &self,
        name: &'static str,
        key: &'static str,
        value: impl Into<String>,
    ) -> HistogramHandle {
        HistogramHandle(self.histogram_arc(MetricKey::labeled(name, key, value)))
    }

    /// One-shot histogram record by name. No-op on a disabled
    /// registry.
    pub fn record_histogram(&self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = inner.histograms.get(&MetricKey::plain(name)) {
                h.record(value);
                return;
            }
        }
        if let Some(h) = self.histogram_arc(MetricKey::plain(name)) {
            h.record(value);
        }
    }

    pub(crate) fn counter_arc(&self, key: MetricKey) -> Option<Arc<Counter>> {
        if !self.enabled {
            return None;
        }
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = inner.counters.get(&key) {
                return Some(Arc::clone(c));
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(inner.counters.entry(key).or_default()))
    }

    /// Handle for the unlabeled counter `name`.
    pub fn counter(&self, name: &'static str) -> CounterHandle {
        CounterHandle(self.counter_arc(MetricKey::plain(name)))
    }

    /// Handle for the counter `name{key="value"}`.
    pub fn counter_labeled(
        &self,
        name: &'static str,
        key: &'static str,
        value: impl Into<String>,
    ) -> CounterHandle {
        CounterHandle(self.counter_arc(MetricKey::labeled(name, key, value)))
    }

    /// Current value of the unlabeled counter `name`, `None` if it was
    /// never created.
    pub(crate) fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        inner
            .counters
            .iter()
            .find(|(k, _)| k.name == name && k.label.is_none())
            .map(|(_, c)| c.value())
    }

    /// One-shot counter add by name. No-op on a disabled registry.
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = inner.counters.get(&MetricKey::plain(name)) {
                c.add(delta);
                return;
            }
        }
        if let Some(c) = self.counter_arc(MetricKey::plain(name)) {
            c.add(delta);
        }
    }

    fn gauge_arc(&self, key: MetricKey) -> Option<Arc<Gauge>> {
        if !self.enabled {
            return None;
        }
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(g) = inner.gauges.get(&key) {
                return Some(Arc::clone(g));
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        Some(Arc::clone(inner.gauges.entry(key).or_default()))
    }

    /// Handle for the unlabeled gauge `name`.
    pub fn gauge(&self, name: &'static str) -> GaugeHandle {
        GaugeHandle(self.gauge_arc(MetricKey::plain(name)))
    }

    /// Handle for the gauge `name{key="value"}`.
    pub fn gauge_labeled(
        &self,
        name: &'static str,
        key: &'static str,
        value: impl Into<String>,
    ) -> GaugeHandle {
        GaugeHandle(self.gauge_arc(MetricKey::labeled(name, key, value)))
    }

    /// A point-in-time copy of every metric, sorted by key.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.value()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.value()))
                .collect(),
        }
    }
}

/// A whole-registry snapshot: JSON- and Prometheus-exposable, and
/// diffable against an earlier snapshot for per-interval rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Histogram snapshots, sorted by key.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
    /// Counter values, sorted by key.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values, sorted by key.
    pub gauges: Vec<(MetricKey, i64)>,
}

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_` — the
/// Prometheus metric-name alphabet.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl RegistrySnapshot {
    /// Looks up an unlabeled histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k.name == name && k.label.is_none())
            .map(|(_, h)| h)
    }

    /// Looks up a labeled histogram.
    pub fn histogram_labeled(
        &self,
        name: &str,
        key: &str,
        value: &str,
    ) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| {
                k.name == name
                    && k.label
                        .as_ref()
                        .is_some_and(|(lk, lv)| *lk == key && lv == value)
            })
            .map(|(_, h)| h)
    }

    /// Looks up an unlabeled counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && k.label.is_none())
            .map(|(_, v)| *v)
    }

    /// Looks up a labeled counter.
    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| {
                k.name == name
                    && k.label
                        .as_ref()
                        .is_some_and(|(lk, lv)| *lk == key && lv == value)
            })
            .map(|(_, v)| *v)
    }

    /// The per-interval snapshot between `earlier` and `self`:
    /// histograms and counters subtract bucket-/value-wise, gauges keep
    /// their latest value. Metrics absent from `earlier` pass through
    /// unchanged.
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let find_hist = |key: &MetricKey| {
            earlier
                .histograms
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, h)| h)
        };
        let find_counter = |key: &MetricKey| {
            earlier
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
        };
        RegistrySnapshot {
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match find_hist(k) {
                        Some(e) => h.since(e),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - find_counter(k).unwrap_or(0).min(*v)))
                .collect(),
            gauges: self.gauges.clone(),
        }
    }

    /// Serialises the snapshot as a JSON document: histogram summaries
    /// (count/sum/min/max/mean plus p50/p90/p99/p999), counters, and
    /// gauges, all keyed by rendered metric name.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"histograms\": {");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                // mean uses `{}` (shortest representation), matching
                // the serde shim's float printing so exports survive a
                // parse -> serialise -> parse round trip unchanged
                "\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {} }}",
                key.render().replace('"', "'"),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.value_at_quantile(0.50),
                h.value_at_quantile(0.90),
                h.value_at_quantile(0.99),
                h.value_at_quantile(0.999),
            );
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (key, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", key.render().replace('"', "'"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (key, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", key.render().replace('"', "'"));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// histograms as summaries (`{quantile="…"}` series plus `_sum` and
    /// `_count`), counters and gauges as plain samples. Metric names
    /// are sanitised to the Prometheus alphabet (`.` becomes `_`).
    pub fn to_prometheus_string(&self) -> String {
        let mut out = String::with_capacity(2048);
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (key, h) in &self.histograms {
            let name = prom_name(key.name);
            type_line(&mut out, &name, "summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                let mut labels = format!("quantile=\"{label}\"");
                if let Some((lk, lv)) = &key.label {
                    labels = format!("{lk}=\"{lv}\",{labels}");
                }
                let _ = writeln!(out, "{name}{{{labels}}} {}", h.value_at_quantile(q));
            }
            let suffix = key
                .label
                .as_ref()
                .map(|(lk, lv)| format!("{{{lk}=\"{lv}\"}}"))
                .unwrap_or_default();
            let _ = writeln!(out, "{name}_sum{suffix} {}", h.sum());
            let _ = writeln!(out, "{name}_count{suffix} {}", h.count());
        }
        for (key, v) in &self.counters {
            let name = prom_name(key.name);
            type_line(&mut out, &name, "counter");
            let suffix = key
                .label
                .as_ref()
                .map(|(lk, lv)| format!("{{{lk}=\"{lv}\"}}"))
                .unwrap_or_default();
            let _ = writeln!(out, "{name}{suffix} {v}");
        }
        for (key, v) in &self.gauges {
            let name = prom_name(key.name);
            type_line(&mut out, &name, "gauge");
            let suffix = key
                .label
                .as_ref()
                .map(|(lk, lv)| format!("{{{lk}=\"{lv}\"}}"))
                .unwrap_or_default();
            let _ = writeln!(out, "{name}{suffix} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_bounds_contain_the_value() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1023,
            1024,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "v={v} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut prev_hi = None;
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            if hi == u64::MAX {
                break;
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = hi - lo;
            assert!(
                (width as f64) <= (lo.max(1) as f64) / 16.0,
                "bucket too wide at {v}: [{lo}, {hi}]"
            );
            v = v.wrapping_mul(3) + 7;
        }
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        let p50 = s.value_at_quantile(0.5);
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p99 = s.value_at_quantile(0.99);
        assert!((960..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.value_at_quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.value_at_quantile(0.99), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3u64, 77, 1025, 40, 40, 999_999] {
            all.record(v);
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn since_recovers_the_interval() {
        let h = Histogram::new();
        h.record(10);
        h.record(500);
        let early = h.snapshot();
        h.record(2000);
        h.record(2000);
        let late = h.snapshot();
        let interval = late.since(&early);
        assert_eq!(interval.count(), 2);
        assert_eq!(interval.sum(), 4000);
        let (lo, hi) = bucket_bounds(bucket_index(2000));
        assert!(interval.min() >= lo && interval.max() <= hi);
    }

    #[test]
    fn disabled_registry_hands_out_inert_handles() {
        let r = MetricsRegistry::disabled();
        let h = r.histogram("x");
        assert!(!h.is_enabled());
        h.record(5);
        r.record_histogram("x", 5);
        r.counter("c").add(1);
        r.add_counter("c", 1);
        r.gauge("g").set(3);
        let snap = r.snapshot();
        assert!(snap.histograms.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn registry_snapshot_diff_and_lookup() {
        let r = MetricsRegistry::new();
        let h = r.histogram_labeled("task_nanos", "worker", "0");
        let c = r.counter("tasks");
        h.record(100);
        c.add(2);
        let early = r.snapshot();
        h.record(100);
        c.add(3);
        r.gauge("depth").set(7);
        let late = r.snapshot();
        let d = late.since(&early);
        assert_eq!(
            d.histogram_labeled("task_nanos", "worker", "0")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(d.counter("tasks"), Some(3));
        assert_eq!(d.gauges[0].1, 7);
        assert_eq!(late.counter_labeled("tasks", "worker", "0"), None);
    }

    #[test]
    fn prometheus_exposition_line_format() {
        let r = MetricsRegistry::new();
        r.histogram_labeled("engine.task_nanos", "worker", "1")
            .record(123);
        r.counter("engine.tasks").add(4);
        r.gauge("session.users").set(-2);
        let text = r.snapshot().to_prometheus_string();
        assert!(text.contains("# TYPE engine_task_nanos summary"));
        assert!(text.contains("engine_task_nanos{worker=\"1\",quantile=\"0.5\"} 123"));
        assert!(text.contains("engine_task_nanos_count{worker=\"1\"} 1"));
        assert!(text.contains("# TYPE engine_tasks counter"));
        assert!(text.contains("engine_tasks 4"));
        assert!(text.contains("session_users -2"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(!series.is_empty());
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
        }
    }

    #[test]
    fn json_snapshot_parses() {
        let r = MetricsRegistry::new();
        r.histogram("stage.compression_nanos").record(42);
        r.counter("session.joins").add(1);
        let json = r.snapshot().to_json_string();
        assert!(json.contains("\"stage.compression_nanos\""));
        assert!(json.contains("\"p99\": 42"));
        assert!(json.contains("\"session.joins\": 1"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = r.histogram("hammer");
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 100);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.histogram("hammer").unwrap().count(), 80_000);
    }
}
