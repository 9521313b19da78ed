//! Allocation budget for the spectral hot path.
//!
//! The perf contract this file pins (referenced from
//! `mec_linalg::LanczosScratch` and `mec_spectral::CutScratch` docs):
//!
//! - a warm [`lanczos_with`] re-run at the same dimension performs
//!   **zero** heap allocations — the recurrence inner loop lives
//!   entirely in pooled buffers, which is what makes every cut after
//!   the first through one [`CutScratch`] allocation-free in the
//!   eigensolver;
//! - a warm [`SpectralBisector::bisect_reusing`] run allocates a small
//!   fraction of its cold first run.
//!
//! The counting allocator is process-global, so every test here
//! serialises on a mutex — the ones that only allocate too, since they
//! would otherwise inflate a concurrent measurement — and the measuring
//! tests take the minimum over several attempts: a harness thread can
//! only inflate a sample, never deflate it.

use copmecs::linalg::{lanczos_with, CsrMatrix, LanczosOptions, LanczosScratch};
use copmecs::prelude::*;
use copmecs::spectral::{CutScratch, SpectralBisector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates to `System` verbatim; the counter update has no
// safety obligations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the tests: the counter is process-global.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`MEASURE_LOCK`]; a test that panicked while holding it does
/// not fail the others.
fn measure_lock() -> MutexGuard<'static, ()> {
    MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations performed while `f` runs (on any thread — callers
/// hold [`MEASURE_LOCK`] and take minima to stay robust).
fn alloc_delta(mut f: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn laplacian(nodes: usize, edges: usize, seed: u64) -> CsrMatrix {
    let g = NetgenSpec::new(nodes, edges)
        .components(1)
        .seed(seed)
        .generate()
        .expect("generable workload");
    let triples: Vec<(usize, usize, f64)> = g
        .edges()
        .map(|e| (e.source.index(), e.target.index(), e.weight))
        .collect();
    CsrMatrix::laplacian_from_edges(g.node_count(), &triples).expect("valid laplacian")
}

#[test]
fn warm_lanczos_rerun_is_allocation_free() {
    let _guard = measure_lock();
    let l = laplacian(200, 600, 17);
    let opts = LanczosOptions::default();
    let mut scratch = LanczosScratch::new();
    let run = |scratch: &mut LanczosScratch| {
        let r = lanczos_with(&l, 80, &opts, &copmecs::obs::NullSink, scratch).unwrap();
        assert_eq!(r.alphas.len(), 80);
    };
    // two warm-ups: the first grows the pool, the second grows the
    // pool vector itself to its high-water capacity
    run(&mut scratch);
    run(&mut scratch);
    let min_delta = (0..3)
        .map(|_| alloc_delta(|| run(&mut scratch)))
        .min()
        .unwrap();
    assert_eq!(min_delta, 0, "warm Lanczos re-run must not touch the heap");
}

#[test]
fn warm_cut_rerun_allocates_a_fraction_of_the_cold_run() {
    let _guard = measure_lock();
    let g = NetgenSpec::new(300, 900)
        .components(1)
        .seed(23)
        .generate()
        .expect("generable workload");
    let bisector = SpectralBisector::new();
    let mut scratch = CutScratch::new();
    let cold = alloc_delta(|| {
        bisector
            .bisect_reusing(&g, &mut scratch, &NullSink)
            .unwrap();
    });
    // one extra warm-up so every pool reaches its high-water mark
    bisector
        .bisect_reusing(&g, &mut scratch, &NullSink)
        .unwrap();
    let warm = (0..3)
        .map(|_| {
            alloc_delta(|| {
                bisector
                    .bisect_reusing(&g, &mut scratch, &NullSink)
                    .unwrap();
            })
        })
        .min()
        .unwrap();
    // the recurrence itself is allocation-free once warm (previous
    // test); what remains on a warm cut is result assembly plus the
    // small tridiagonal checkpoint workspaces, so the total must sit
    // well below the cold run but not at zero
    assert!(
        warm * 4 <= cold * 3,
        "warm run should allocate at most three quarters of the cold run, got {warm} vs {cold}"
    );
}

/// The disabled observability hot path — [`NullSink`] histogram
/// records and handles from a disabled [`MetricsRegistry`] — must stay
/// strictly allocation-free: these calls sit inside the Lanczos and
/// stage loops, and a hidden heap touch there would tax every
/// untraced pipeline run.
#[test]
fn disabled_metrics_hot_path_is_allocation_free() {
    use copmecs::obs::metrics::MetricsRegistry;
    use copmecs::obs::TraceSink;
    use std::time::Duration;

    let _guard = measure_lock();
    // the harness can allocate on its own thread while a test starts,
    // so take the minimum over attempts; each attempt records through a
    // fresh registry and fresh handles, so an allocation on first use
    // would show in every one
    let delta = (0..3)
        .map(|_| {
            let disabled = MetricsRegistry::disabled();
            let hist = disabled.histogram("stage.compression_nanos");
            let ctr = disabled.counter("engine.worker_busy_nanos");
            let gauge = disabled.gauge("engine.live_workers");
            alloc_delta(|| {
                for i in 0..10_000u64 {
                    NullSink.histogram_record("lanczos.iterations", i);
                    NullSink.counter_add("lanczos.restarts", 1);
                    hist.record(i);
                    hist.record_duration(Duration::from_nanos(i));
                    ctr.add(i);
                    gauge.set(i as i64);
                }
                // recording through the disabled registry itself is a
                // no-op too
                disabled.record_histogram("stage.cutting_nanos", 7);
                disabled.add_counter("engine.tasks", 1);
            })
        })
        .min()
        .unwrap();
    assert_eq!(delta, 0, "disabled metrics path must not touch the heap");
}

/// An untraced solve and a NullSink-traced solve must produce
/// bit-identical plans, and wiring the NullSink in must not add heap
/// allocations to the solve (the histogram-record call sites compile
/// down to branch-only no-ops).
#[test]
fn null_sink_solve_is_bit_identical_and_allocation_neutral() {
    use copmecs::obs::NullSink;
    use copmecs_core::Offloader;
    use std::sync::Arc;

    let _guard = measure_lock();
    let g = NetgenSpec::new(150, 450)
        .seed(31)
        .generate()
        .expect("generable workload");
    let scenario =
        Scenario::new(SystemParams::default()).with_user(UserWorkload::new("u0", Arc::new(g)));
    let plain = Offloader::new();
    let nulled = Offloader::builder()
        .trace_sink(Arc::new(NullSink) as Arc<dyn TraceSink>)
        .build();

    let plain_report = plain.solve(&scenario).unwrap();
    let nulled_report = nulled.solve(&scenario).unwrap();
    assert_eq!(
        plain_report.plan, nulled_report.plan,
        "NullSink must not perturb the plan"
    );

    // min over repeats: a concurrent harness thread can only inflate a
    // sample, never deflate it
    let measure = |off: &Offloader| {
        (0..3)
            .map(|_| alloc_delta(|| drop(off.solve(&scenario).unwrap())))
            .min()
            .unwrap()
    };
    let plain_allocs = measure(&plain);
    let nulled_allocs = measure(&nulled);
    assert!(
        nulled_allocs <= plain_allocs,
        "NullSink solve allocated more than the untraced solve: {nulled_allocs} vs {plain_allocs}"
    );
}

/// The *enabled* sharded observability hot path must also stay
/// allocation-free once warm: spans, events, histogram samples, and
/// counter increments all land in pre-sized per-thread SPSC rings (or
/// cached counter cells), so after one warm-up round — which interns
/// the names, attaches the thread to a shard, and grows the span stack
/// to its high-water depth — recording never touches the heap. This is
/// the wait-free contract that lets the engine's workers trace without
/// taxing the pipeline.
#[test]
fn warm_sharded_recording_is_allocation_free() {
    use copmecs::obs::{FieldValue, ShardConfig, ShardedRecorder, TraceSink};

    let _guard = measure_lock();
    let rec = ShardedRecorder::with_config(ShardConfig {
        shards: 2,
        capacity: 1 << 15,
        // no aggregator thread: the measurement pins the producer side
        // alone, and manual flushes between rounds keep the rings empty
        drain_interval: None,
        ..ShardConfig::default()
    });
    let round = |rec: &ShardedRecorder| {
        for i in 0..64u64 {
            let guard = copmecs::obs::span(rec, "alloc.unit");
            rec.counter_add("alloc.count", 1);
            rec.event("alloc.tick", &[("i", FieldValue::U64(i))]);
            rec.histogram_record("alloc.nanos", i + 1);
            guard.finish();
        }
    };
    round(&rec);
    rec.flush();
    let min_delta = (0..3)
        .map(|_| {
            let d = alloc_delta(|| round(&rec));
            rec.flush();
            d
        })
        .min()
        .unwrap();
    assert_eq!(
        min_delta, 0,
        "warm sharded recording must not touch the heap"
    );
}

/// A steady-state [`OffloadSession::replan`] evaluates the live crowd
/// directly — it must NOT rebuild a `Scenario` (re-collecting every
/// user's name and graph handle) per call. This pins the allocation
/// count of a warm replan against a calibrated ceiling sized for the
/// greedy pass plus plan/evaluation assembly alone; a regression back
/// to per-call scenario rebuilding blows well past it.
#[test]
fn steady_state_replan_allocations_stay_pinned() {
    let _guard = measure_lock();
    let mut session = OffloadSession::new(SystemParams::default());
    for i in 0..6u64 {
        let g = NetgenSpec::new(60, 180)
            .seed(100 + i)
            .generate()
            .expect("generable workload");
        session
            .join(format!("u{i}"), std::sync::Arc::new(g))
            .unwrap();
    }
    // warm-up: interns strings, grows any lazily-sized buffers
    session.replan().unwrap();
    let warm = (0..5)
        .map(|_| {
            alloc_delta(|| {
                session.replan().unwrap();
            })
        })
        .min()
        .unwrap();
    // calibrated: a 6-user replan measures ~215 allocations (greedy
    // part-system + per-user costs + report assembly); the ceiling
    // leaves ~2.5x headroom while staying low enough that per-call
    // scenario rebuilding (one clone per user per replan on top)
    // cannot creep back in unnoticed
    assert!(
        warm <= 600,
        "steady-state replan allocation count regressed: {warm} > 600"
    );
}

/// Heap allocations of a warm delta replan right after one departure,
/// in a session of `users` users.
fn replan_after_leave_allocations(users: usize) -> u64 {
    let pool: Vec<_> = (0..8u64)
        .map(|i| {
            std::sync::Arc::new(
                NetgenSpec::new(16, 40)
                    .seed(300 + i)
                    .generate()
                    .expect("generable workload"),
            )
        })
        .collect();
    let mut session = OffloadSession::new(SystemParams::default());
    session
        .join_many((0..users).map(|i| (format!("u{i}"), std::sync::Arc::clone(&pool[i % 8]))))
        .unwrap();
    let mut next = 0usize;
    let mut leave_and_replan = |session: &mut OffloadSession| {
        assert!(session.leave(&format!("u{next}")));
        next += 1;
        alloc_delta(|| {
            session.replan().unwrap();
        })
    };
    // the first replan builds the placement; two more grow every
    // reused buffer to its high-water mark
    session.replan().unwrap();
    leave_and_replan(&mut session);
    leave_and_replan(&mut session);
    (0..3)
        .map(|_| leave_and_replan(&mut session))
        .min()
        .unwrap()
}

/// A warm delta replan pays for churn, not for the crowd: after one
/// departure it allocates the same number of times at 500 users as at
/// 2 000 — no per-user plan, cost or stats rebuild, and no per-candidate
/// scratch in the greedy rescan.
#[test]
fn warm_delta_replan_allocations_do_not_grow_with_the_crowd() {
    let _guard = measure_lock();
    let small = replan_after_leave_allocations(500);
    let large = replan_after_leave_allocations(2_000);
    assert_eq!(
        small, large,
        "replan allocations grew with the crowd: {small} at 500 users, {large} at 2000"
    );
}
