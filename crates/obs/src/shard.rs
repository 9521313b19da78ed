//! The recorder: sharded, bounded, lock-free trace collection.
//!
//! - each recording thread owns (at most) one fixed-capacity **SPSC
//!   ring shard** and appends complete span/event/histogram records to
//!   it with plain atomic stores — no `Mutex`, no allocation after the
//!   first use of each name (wait-free once warm, pinned by
//!   `tests/alloc_budget.rs`);
//! - a background **aggregator thread** drains every shard on a fixed
//!   interval (or on demand via [`ShardedRecorder::flush`]) into the
//!   recorder's store (span table, event ring, drop counts) and its
//!   [`MetricsRegistry`] (histogram samples), which every export reads;
//! - when a ring is full the record is **dropped, never blocked on**,
//!   and the loss is counted per shard and per class (span, event,
//!   histogram sample) so `recorded + dropped` is exactly conserved
//!   (see `crates/obs/tests/shard_properties.rs`).
//!
//! Counters bypass the rings: tests and the reproduction checks assert
//! *exact* counter values, so [`TraceSink::counter_add`] lands directly
//! on the registry's counter cell, which each thread caches as an
//! `Arc<Counter>` — wait-free and allocation-free after warm-up, and
//! never lossy. The split is: **counters are exact, spans/events/
//! histogram samples are bounded-lossy with accounted drops.**
//!
//! # Record encoding
//!
//! Every record is one ring slot of [`SLOT_WORDS`] `u64` words. Word 0
//! packs `tag | field_count << 8 | name_id << 32`, where `name_id`
//! indexes a process-wide intern table of `&'static str` names (the
//! hot path caches ids per thread keyed on the string's address, so
//! interning locks only on the first sighting of each name). Spans are
//! written **once, on exit**, as a complete record — this is what makes
//! drop accounting exact and keeps in-flight spans off the shared path
//! (consequence: a snapshot only shows completed spans).

use crate::metrics::{Counter, MetricKey, MetricsRegistry};
use crate::store::{
    DropClass, DroppedRecords, SpanRecord, Store, TraceEvent, DEFAULT_EVENT_CAPACITY,
};
use crate::{FieldValue, SpanId, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words per ring slot: header + timestamp(s) + up to
/// [`MAX_EVENT_FIELDS`] key/value pairs at two words each.
const SLOT_WORDS: usize = 10;

/// Event fields beyond this many are silently truncated (the pipeline
/// emits at most three today).
const MAX_EVENT_FIELDS: usize = 4;

const TAG_SPAN: u64 = 1;
const TAG_EVENT: u64 = 2;
const TAG_HIST: u64 = 3;

const VT_U64: u64 = 0;
const VT_I64: u64 = 1;
const VT_F64: u64 = 2;
const VT_STR: u64 = 3;

/// Distinguishes live sharded recorders so the per-thread writer
/// registry of two coexisting instances never interferes.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's writers, one per live [`ShardedRecorder`] it has
    /// recorded into. Dropping a writer returns its shard to the free
    /// list, so thread exit hands the shard to the next thread.
    static WRITERS: RefCell<Vec<ThreadWriter>> = const { RefCell::new(Vec::new()) };
}

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it — telemetry must never take the pipeline down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn header(tag: u64, field_count: u64, name_id: u32) -> u64 {
    tag | (field_count << 8) | (u64::from(name_id) << 32)
}

/// A multiply-rotate hasher for the per-thread caches, whose keys are a
/// `&'static str`'s (address, length). The program's own binary supplies
/// every key, so SipHash's flood resistance buys nothing here, and it
/// would cost a good share of each record.
#[derive(Default, Clone, Copy)]
struct AddrHasher(u64);

impl AddrHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A per-thread cache keyed on a `&'static str`'s (address, length).
type AddrMap<V> = HashMap<(usize, usize), V, BuildHasherDefault<AddrHasher>>;

/// Process-wide `&'static str` → dense id intern table. Locked only on
/// the first sighting of a name per thread; the hot path hits the
/// per-thread cache keyed on the string's (address, length).
#[derive(Default)]
struct NameTable {
    by_name: HashMap<&'static str, u32>,
    list: Vec<&'static str>,
}

impl NameTable {
    fn intern(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.list.len() as u32;
        self.list.push(name);
        self.by_name.insert(name, id);
        id
    }
}

/// A bounded single-producer single-consumer ring of fixed-width
/// slots, built from plain atomics (this crate forbids `unsafe`).
///
/// The producer writes the slot words `Relaxed` and publishes with a
/// `Release` store of `tail`; the consumer observes `tail` with
/// `Acquire`, reads the words `Relaxed`, and retires slots with a
/// `Release` store of `head` which the producer re-acquires before
/// reuse. `head`/`tail` are monotonic counters; the slot index is the
/// counter masked by the (power-of-two) capacity.
struct SpscRing {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next slot the producer will write (producer-owned).
    tail: AtomicU64,
    /// Next slot the consumer will read (consumer-owned).
    head: AtomicU64,
}

struct Slot([AtomicU64; SLOT_WORDS]);

impl SpscRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(8);
        SpscRing {
            slots: (0..capacity)
                .map(|_| Slot(<[AtomicU64; SLOT_WORDS]>::default()))
                .collect(),
            mask: capacity as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
        }
    }

    /// Appends one record of at most [`SLOT_WORDS`] words; `false`
    /// (record lost) when the ring is full. Only the record's own words
    /// are written: the decoder never reads past them, so whatever an
    /// earlier record left in the rest of the slot is harmless.
    fn push(&self, words: &[u64]) -> bool {
        debug_assert!(words.len() <= SLOT_WORDS);
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return false;
        }
        let slot = &self.slots[(tail & self.mask) as usize];
        for (cell, &w) in slot.0.iter().zip(words.iter()) {
            cell.store(w, Ordering::Relaxed);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Drains every published record, retiring each slot as soon as it
    /// has been read so a hammering producer regains space early.
    fn drain(&self, mut f: impl FnMut(&[u64; SLOT_WORDS])) {
        let mut head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let mut buf = [0u64; SLOT_WORDS];
        while head != tail {
            let slot = &self.slots[(head & self.mask) as usize];
            for (dst, cell) in buf.iter_mut().zip(slot.0.iter()) {
                *dst = cell.load(Ordering::Relaxed);
            }
            head = head.wrapping_add(1);
            self.head.store(head, Ordering::Release);
            f(&buf);
        }
    }
}

struct Shard {
    ring: SpscRing,
    /// Records lost to a full ring, indexed by [`DropClass`].
    drops: [AtomicU64; 3],
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            ring: SpscRing::new(capacity),
            drops: Default::default(),
        }
    }
}

const CLASSES: [DropClass; 3] = [DropClass::Span, DropClass::Event, DropClass::Histogram];

/// The aggregator side, all behind one consumer mutex the producers
/// never touch: the drain bookkeeping and the store it drains into.
struct DrainState {
    /// Local copy of the intern table, extended lazily.
    names: Vec<&'static str>,
    /// Per shard: writer-local span seq → dense global span id. An
    /// entry is created on first reference (children exit before their
    /// parents, so a parent is usually referenced before its own
    /// record arrives) and removed once the span's own record lands.
    span_ids: Vec<HashMap<u64, u64>>,
    next_span_id: u64,
    /// Per shard, per class: drop counts already moved into the store,
    /// so each flush moves only the delta.
    transferred: Vec<[u64; 3]>,
    transferred_unassigned: [u64; 3],
    store: Store,
}

impl DrainState {
    fn new(shards: usize, event_capacity: usize) -> Self {
        DrainState {
            names: Vec::new(),
            span_ids: (0..shards).map(|_| HashMap::new()).collect(),
            next_span_id: 1,
            transferred: vec![[0; 3]; shards],
            transferred_unassigned: [0; 3],
            store: Store::new(event_capacity),
        }
    }

    fn global_span_id(&mut self, shard: usize, local: u64) -> u64 {
        if let Some(&g) = self.span_ids[shard].get(&local) {
            return g;
        }
        let g = self.next_span_id;
        self.next_span_id += 1;
        self.span_ids[shard].insert(local, g);
        g
    }
}

struct Shared {
    sink_id: u64,
    /// Zero point of every timestamp.
    start: Instant,
    shards: Box<[Shard]>,
    /// Shard indices not currently owned by a thread. `Mutex` hand-off
    /// is what makes shard reuse safe: the previous owner's writes
    /// happen-before the next owner's (single producer at a time).
    free: Mutex<Vec<usize>>,
    names: Mutex<NameTable>,
    /// Records shed by threads that found the shard pool exhausted,
    /// indexed by [`DropClass`].
    unassigned: [AtomicU64; 3],
    /// Exact counters (written by the producers) and histograms
    /// (folded in by the aggregator).
    registry: Arc<MetricsRegistry>,
    drain: Mutex<DrainState>,
    stop: AtomicBool,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Resolves an intern id against the aggregator's local copy of the
/// name table, refreshing it from the shared table on a miss.
fn resolve(shared: &Shared, names: &mut Vec<&'static str>, id: u32) -> &'static str {
    let idx = id as usize;
    if idx >= names.len() {
        let table = lock(&shared.names);
        names.clear();
        names.extend_from_slice(&table.list);
    }
    names.get(idx).copied().unwrap_or("<unknown>")
}

fn apply_record(shared: &Shared, drain: &mut DrainState, shard_idx: usize, words: &[u64; 10]) {
    let tag = words[0] & 0xff;
    let field_count = ((words[0] >> 8) & 0xff) as usize;
    let name = resolve(shared, &mut drain.names, (words[0] >> 32) as u32);
    match tag {
        TAG_SPAN => {
            let local = words[1];
            let parent_local = words[2];
            let id = drain.global_span_id(shard_idx, local);
            drain.span_ids[shard_idx].remove(&local);
            let parent = if parent_local == 0 {
                0
            } else {
                drain.global_span_id(shard_idx, parent_local)
            };
            drain.store.push_span(SpanRecord {
                id,
                parent,
                name,
                start_ns: words[3],
                end_ns: Some(words[4]),
                tid: shard_idx as u64 + 1,
            });
        }
        TAG_EVENT => {
            let mut fields = Vec::with_capacity(field_count);
            for i in 0..field_count.min(MAX_EVENT_FIELDS) {
                let meta = words[2 + 2 * i];
                let bits = words[3 + 2 * i];
                let key = resolve(shared, &mut drain.names, meta as u32);
                let value = match (meta >> 32) & 0xff {
                    VT_U64 => FieldValue::U64(bits),
                    VT_I64 => FieldValue::I64(bits as i64),
                    VT_F64 => FieldValue::F64(f64::from_bits(bits)),
                    _ => FieldValue::Str(resolve(shared, &mut drain.names, bits as u32)),
                };
                fields.push((key, value));
            }
            drain.store.push_event(TraceEvent {
                t_ns: words[1],
                name,
                fields,
            });
        }
        TAG_HIST => shared.registry.record_histogram(name, words[1]),
        _ => {}
    }
}

/// Drains every shard into the store and moves new drop counts over.
/// Consumer-side only: the caller holds the drain mutex.
fn drain_into(shared: &Shared, drain: &mut DrainState) {
    for (shard_idx, shard) in shared.shards.iter().enumerate() {
        shard
            .ring
            .drain(|words| apply_record(shared, drain, shard_idx, words));
        for (class_idx, class) in CLASSES.iter().enumerate() {
            let seen = shard.drops[class_idx].load(Ordering::Relaxed);
            let delta = seen - drain.transferred[shard_idx][class_idx];
            drain.transferred[shard_idx][class_idx] = seen;
            drain.store.add_dropped(*class, delta);
        }
    }
    for (class_idx, class) in CLASSES.iter().enumerate() {
        let seen = shared.unassigned[class_idx].load(Ordering::Relaxed);
        let delta = seen - drain.transferred_unassigned[class_idx];
        drain.transferred_unassigned[class_idx] = seen;
        drain.store.add_dropped(*class, delta);
    }
}

/// [`drain_into`] under the drain mutex; concurrent calls serialize.
fn flush_shared(shared: &Shared) {
    drain_into(shared, &mut lock(&shared.drain));
}

/// A span this thread has entered but not yet exited.
struct OpenSpan {
    seq: u64,
    name_id: u32,
    start_ns: u64,
    parent: u64,
}

/// The per-thread producer: owns (at most) one shard of one
/// [`ShardedRecorder`], plus the caches that make recording
/// allocation-free once warm.
struct ThreadWriter {
    sink_id: u64,
    shared: Arc<Shared>,
    shard: Option<usize>,
    next_seq: u64,
    stack: Vec<OpenSpan>,
    /// `&'static str` (address, length) → intern id.
    name_ids: AddrMap<u32>,
    /// `&'static str` (address, length) → the registry's counter cell.
    counter_cells: AddrMap<Arc<Counter>>,
}

impl ThreadWriter {
    fn attach(shared: &Arc<Shared>, preferred: Option<usize>) -> Self {
        let shard = {
            let mut free = lock(&shared.free);
            match preferred {
                Some(p) => match free.iter().position(|&i| i == p) {
                    Some(pos) => Some(free.swap_remove(pos)),
                    None => free.pop(),
                },
                None => free.pop(),
            }
        };
        ThreadWriter {
            sink_id: shared.sink_id,
            shared: Arc::clone(shared),
            shard,
            next_seq: 0,
            stack: Vec::new(),
            name_ids: AddrMap::default(),
            counter_cells: AddrMap::default(),
        }
    }

    fn name_id(&mut self, name: &'static str) -> u32 {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(&id) = self.name_ids.get(&key) {
            return id;
        }
        let id = lock(&self.shared.names).intern(name);
        self.name_ids.insert(key, id);
        id
    }

    fn push_record(&self, class: DropClass, words: &[u64]) {
        match self.shard {
            Some(i) => {
                let shard = &self.shared.shards[i];
                if !shard.ring.push(words) {
                    shard.drops[class as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
            // pool exhausted at attach time: shed, but keep counting
            None => {
                self.shared.unassigned[class as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn span_enter(&mut self, name: &'static str) -> SpanId {
        let name_id = self.name_id(name);
        let start_ns = self.shared.now_ns();
        let parent = self.stack.last().map_or(0, |s| s.seq);
        self.next_seq += 1;
        let seq = self.next_seq;
        self.stack.push(OpenSpan {
            seq,
            name_id,
            start_ns,
            parent,
        });
        SpanId(seq)
    }

    fn span_exit(&mut self, id: SpanId) {
        let end_ns = self.shared.now_ns();
        let Some(pos) = self.stack.iter().rposition(|s| s.seq == id.0) else {
            return;
        };
        let open = self.stack.remove(pos);
        let words = [
            header(TAG_SPAN, 0, open.name_id),
            open.seq,
            open.parent,
            open.start_ns,
            end_ns,
        ];
        self.push_record(DropClass::Span, &words);
    }

    fn event(&mut self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let name_id = self.name_id(name);
        let n = fields.len().min(MAX_EVENT_FIELDS);
        let mut words = [0u64; SLOT_WORDS];
        words[0] = header(TAG_EVENT, n as u64, name_id);
        words[1] = self.shared.now_ns();
        for (i, (key, value)) in fields.iter().take(n).enumerate() {
            let key_id = self.name_id(key);
            let (vt, bits) = match value {
                FieldValue::U64(v) => (VT_U64, *v),
                FieldValue::I64(v) => (VT_I64, *v as u64),
                FieldValue::F64(v) => (VT_F64, v.to_bits()),
                FieldValue::Str(s) => (VT_STR, u64::from(self.name_id(s))),
            };
            words[2 + 2 * i] = u64::from(key_id) | (vt << 32);
            words[3 + 2 * i] = bits;
        }
        self.push_record(DropClass::Event, &words[..2 + 2 * n]);
    }

    fn histogram(&mut self, name: &'static str, value: u64) {
        let name_id = self.name_id(name);
        self.push_record(DropClass::Histogram, &[header(TAG_HIST, 0, name_id), value]);
    }

    fn counter_add(&mut self, name: &'static str, delta: u64) {
        let key = (name.as_ptr() as usize, name.len());
        if let Some(cell) = self.counter_cells.get(&key) {
            cell.add(delta);
            return;
        }
        // the recorder's registry is always enabled, so this resolves
        let Some(cell) = self.shared.registry.counter_arc(MetricKey::plain(name)) else {
            return;
        };
        cell.add(delta);
        self.counter_cells.insert(key, cell);
    }
}

impl Drop for ThreadWriter {
    fn drop(&mut self) {
        if let Some(i) = self.shard.take() {
            lock(&self.shared.free).push(i);
        }
    }
}

/// Configuration for a [`ShardedRecorder`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of ring shards (= max threads recording concurrently
    /// without shedding). Default: `2 × available_parallelism + 4`,
    /// clamped to `[8, 64]`.
    pub shards: usize,
    /// Slots per shard, rounded up to a power of two (min 8). One slot
    /// holds one complete span, event, or histogram sample.
    pub capacity: usize,
    /// Capacity of the retained event ring; once it is full, each new
    /// event evicts the oldest, which counts as dropped.
    pub event_capacity: usize,
    /// Aggregator drain period. `None` disables the background thread
    /// entirely: records sit in the shards until an explicit
    /// [`ShardedRecorder::flush`] (used by the allocation-budget test,
    /// since draining is the one side that allocates).
    pub drain_interval: Option<Duration>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        ShardConfig {
            shards: (2 * cores + 4).clamp(8, 64),
            capacity: 16_384,
            event_capacity: DEFAULT_EVENT_CAPACITY,
            drain_interval: Some(Duration::from_millis(5)),
        }
    }
}

/// The recording [`TraceSink`]. Its hot path is wait-free: every
/// recording thread appends to its own bounded SPSC ring shard, and a
/// background aggregator folds the shards into the recorder's span
/// table and event ring and its [`MetricsRegistry`] (histograms).
/// Counters go straight to the registry.
///
/// Snapshot accessors ([`spans`](ShardedRecorder::spans),
/// [`to_json_string`](ShardedRecorder::to_json_string), …) flush
/// pending records first, so they always observe everything recorded
/// *and completed* before the call. In-flight spans are not visible
/// until they exit (spans travel as one complete record). Reading the
/// registry through [`metrics`](ShardedRecorder::metrics) does not
/// flush: call [`flush`](ShardedRecorder::flush) first to see every
/// histogram sample.
///
/// Dropping the recorder stops the aggregator thread.
pub struct ShardedRecorder {
    shared: Arc<Shared>,
    aggregator: Option<JoinHandle<()>>,
}

impl Default for ShardedRecorder {
    fn default() -> Self {
        ShardedRecorder::new()
    }
}

impl ShardedRecorder {
    /// A sharded recorder with [`ShardConfig::default`].
    pub fn new() -> Self {
        ShardedRecorder::with_config(ShardConfig::default())
    }

    /// A sharded recorder with explicit shard count / capacity /
    /// drain policy.
    pub fn with_config(config: ShardConfig) -> Self {
        let count = config.shards.max(1);
        let shards: Box<[Shard]> = (0..count).map(|_| Shard::new(config.capacity)).collect();
        let shared = Arc::new(Shared {
            sink_id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            shards,
            // reversed so `pop()` hands out shard 0 first (the serial
            // path lands on tid 1 in the Chrome export)
            free: Mutex::new((0..count).rev().collect()),
            names: Mutex::new(NameTable::default()),
            unassigned: Default::default(),
            registry: Arc::new(MetricsRegistry::new()),
            drain: Mutex::new(DrainState::new(count, config.event_capacity)),
            stop: AtomicBool::new(false),
        });
        let aggregator = config.drain_interval.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mec-obs-aggregator".into())
                .spawn(move || {
                    while !shared.stop.load(Ordering::Relaxed) {
                        flush_shared(&shared);
                        std::thread::park_timeout(interval);
                    }
                })
                .expect("spawn mec-obs aggregator thread")
        });
        ShardedRecorder { shared, aggregator }
    }

    fn with_writer<R>(
        &self,
        preferred: Option<usize>,
        f: impl FnOnce(&mut ThreadWriter) -> R,
    ) -> R {
        WRITERS.with(|cell| {
            let mut writers = cell.borrow_mut();
            let idx = match writers
                .iter()
                .position(|w| w.sink_id == self.shared.sink_id)
            {
                Some(i) => i,
                None => {
                    // cold path: garbage-collect writers whose sink is
                    // gone (only this thread-local still holds the Arc)
                    writers.retain(|w| Arc::strong_count(&w.shared) > 1);
                    writers.push(ThreadWriter::attach(&self.shared, preferred));
                    writers.len() - 1
                }
            };
            f(&mut writers[idx])
        })
    }

    /// Flushes, then reads the store under the same lock.
    fn read<R>(&self, f: impl FnOnce(&Store) -> R) -> R {
        let mut drain = lock(&self.shared.drain);
        drain_into(&self.shared, &mut drain);
        f(&drain.store)
    }

    /// Number of ring shards.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Drains every shard into the aggregated views right now.
    /// Producers are never blocked by this; concurrent flushes
    /// serialize against each other and the aggregator tick.
    pub fn flush(&self) {
        flush_shared(&self.shared);
    }

    /// The live metrics registry: the exact counters, plus the
    /// histogram samples the aggregator has folded in so far. Share it
    /// with an engine cluster to collect per-worker histograms in the
    /// same place.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Current value of exact counter `name` (0 if never incremented).
    /// Counters never ride the rings, so this needs no flush.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.shared.registry.counter_value(name).unwrap_or(0)
    }

    /// Completed spans aggregated so far (flushes first).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.read(|s| s.spans().to_vec())
    }

    /// Aggregated events, oldest first (flushes first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.read(|s| s.events().cloned().collect())
    }

    /// Per-class counts of records lost to full rings, shed by
    /// unassigned threads, or evicted from the retained event ring
    /// (flushes first so shard-side counts are folded in).
    pub fn dropped_records(&self) -> DroppedRecords {
        self.read(Store::dropped)
    }

    /// The schema-v1 JSON trace (flushes first).
    pub fn to_json_string(&self) -> String {
        self.read(|s| s.to_json_string(self.shared.now_ns(), &self.shared.registry.snapshot()))
    }

    /// Chrome trace-event export (flushes first).
    pub fn to_chrome_trace_string(&self) -> String {
        self.read(Store::to_chrome_trace_string)
    }

    /// Folded-stack lines for `scripts/flamegraph.sh` (flushes first).
    pub fn to_collapsed_stacks(&self) -> String {
        self.read(Store::to_collapsed_stacks)
    }

    /// Prometheus text exposition: the registry snapshot (histograms,
    /// counters, gauges) plus the three
    /// `mec_obs_dropped_records{class=…}` series (flushes first).
    pub fn to_prometheus_string(&self) -> String {
        self.read(|s| s.to_prometheus_string(&self.shared.registry.snapshot()))
    }
}

impl fmt::Debug for ShardedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRecorder")
            .field("shards", &self.shared.shards.len())
            .field("sink_id", &self.shared.sink_id)
            .finish_non_exhaustive()
    }
}

impl Drop for ShardedRecorder {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.aggregator.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl TraceSink for ShardedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, name: &'static str) -> SpanId {
        self.with_writer(None, |w| w.span_enter(name))
    }

    fn span_exit(&self, id: SpanId) {
        if id.is_null() {
            return;
        }
        self.with_writer(None, |w| w.span_exit(id));
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.with_writer(None, |w| w.counter_add(name, delta));
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        self.with_writer(None, |w| w.event(name, fields));
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.with_writer(None, |w| w.histogram(name, value));
    }

    fn register_worker(&self, worker: usize) {
        let preferred = worker % self.shared.shards.len();
        self.with_writer(Some(preferred), |_| {});
    }

    fn flush(&self) {
        flush_shared(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn manual() -> ShardedRecorder {
        ShardedRecorder::with_config(ShardConfig {
            drain_interval: None,
            ..ShardConfig::default()
        })
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let rec = manual();
        let outer = span(&rec, "outer");
        let inner = span(&rec, "inner");
        inner.finish();
        outer.finish();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner_rec = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer_rec.parent, 0);
        assert_eq!(inner_rec.parent, outer_rec.id);
        assert!(outer_rec.duration_ns().unwrap() >= inner_rec.duration_ns().unwrap());
    }

    #[test]
    fn counters_are_exact_and_shared_across_threads() {
        let rec = Arc::new(ShardedRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        rec.counter_add("hits", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter_value("hits"), 4000);
    }

    #[test]
    fn events_round_trip_all_field_types() {
        let rec = manual();
        rec.event(
            "e",
            &[
                ("u", FieldValue::U64(7)),
                ("i", FieldValue::I64(-3)),
                ("x", FieldValue::F64(0.25)),
                ("s", FieldValue::Str("label")),
            ],
        );
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "e");
        assert_eq!(
            events[0].fields,
            vec![
                ("u", FieldValue::U64(7)),
                ("i", FieldValue::I64(-3)),
                ("x", FieldValue::F64(0.25)),
                ("s", FieldValue::Str("label")),
            ]
        );
    }

    #[test]
    fn histogram_samples_land_in_the_registry() {
        let rec = manual();
        rec.histogram_record("stage.nanos", 1_000);
        rec.histogram_record("stage.nanos", 3_000);
        rec.flush();
        let snap = rec.metrics().snapshot();
        let h = snap.histogram("stage.nanos").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 3_000);
        assert!(rec.to_json_string().contains("stage.nanos"));
    }

    #[test]
    fn tiny_ring_drops_are_counted_not_blocked_on() {
        let rec = ShardedRecorder::with_config(ShardConfig {
            shards: 1,
            capacity: 8,
            drain_interval: None,
            ..ShardConfig::default()
        });
        for _ in 0..100 {
            rec.event("e", &[]);
        }
        let dropped = rec.dropped_records();
        assert_eq!(dropped.events, 100 - 8);
        assert_eq!(rec.events().len(), 8);
        assert_eq!(dropped.spans, 0);
        assert_eq!(dropped.histogram_samples, 0);
    }

    #[test]
    fn background_aggregator_drains_without_explicit_flush() {
        let rec = ShardedRecorder::with_config(ShardConfig {
            drain_interval: Some(Duration::from_millis(1)),
            ..ShardConfig::default()
        });
        span(&rec, "bg").finish();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if !self::peek_spans(&rec).is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("aggregator never drained the shard");
    }

    /// Reads the recorder's span table *without* triggering the
    /// flush-on-read path, so the background thread must have done it.
    fn peek_spans(rec: &ShardedRecorder) -> Vec<SpanRecord> {
        lock(&rec.shared.drain).store.spans().to_vec()
    }

    #[test]
    fn shard_is_recycled_after_thread_exit() {
        let rec = Arc::new(ShardedRecorder::with_config(ShardConfig {
            shards: 1,
            drain_interval: None,
            ..ShardConfig::default()
        }));
        for _ in 0..3 {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || span(rec.as_ref(), "t").finish())
                .join()
                .unwrap();
        }
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.dropped_records().total(), 0);
    }

    #[test]
    fn pool_exhaustion_sheds_with_accounting() {
        let rec = Arc::new(ShardedRecorder::with_config(ShardConfig {
            shards: 1,
            drain_interval: None,
            ..ShardConfig::default()
        }));
        // occupy the only shard from this thread…
        span(rec.as_ref(), "owner").finish();
        // …so a second concurrent thread finds the pool empty
        let rec2 = Arc::clone(&rec);
        std::thread::spawn(move || {
            span(rec2.as_ref(), "shed").finish();
            rec2.event("shed_event", &[]);
        })
        .join()
        .unwrap();
        let d = rec.dropped_records();
        assert_eq!((d.spans, d.events), (1, 1));
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn two_sharded_recorders_do_not_interfere() {
        let a = manual();
        let b = manual();
        let sa = span(&a, "a_root");
        let sb = span(&b, "b_root");
        sb.finish();
        sa.finish();
        assert_eq!(a.spans().len(), 1);
        assert_eq!(b.spans().len(), 1);
        assert_eq!(a.spans()[0].name, "a_root");
        assert_eq!(b.spans()[0].name, "b_root");
        assert_eq!(a.spans()[0].parent, 0);
        assert_eq!(b.spans()[0].parent, 0);
    }
}
