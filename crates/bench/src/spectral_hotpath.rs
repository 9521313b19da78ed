//! The spectral hot-path benchmark (`BENCH_spectral.json`).
//!
//! Times the cut stage the pipeline ships on the Fig. 9 multi-user
//! front-end: one [`StrategyKind::Spectral`]
//! [`cut_reusing`](CutStrategy::cut_reusing) call per compressed
//! component (the paper's §III-B Fiedler cut), every call through one
//! [`CutScratch`] arena, as `copmecs_core`'s `prepare_user_reusing`
//! runs it. Scenario generation and compression run once, untimed, so
//! the timed region is the eigensolver and sweep path alone.
//!
//! The same report carries the tracing overhead of the whole
//! front-end (compression plus cuts) under three sinks; `experiments
//! bench` writes it, and `experiments gate` judges a fresh run of its
//! spec against it.

use crate::runtime::runtime_graph;
use copmecs_core::{CutStrategy, PipelineError, StrategyKind};
use mec_graph::Graph;
use mec_labelprop::{CompressionConfig, Compressor};
use mec_obs::{span, NullSink, ShardedRecorder, TraceSink};
use mec_spectral::CutScratch;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cumulative allocator counters, supplied by the measuring *binary*
/// (only a binary can install the counting `#[global_allocator]`; this
/// library just diffs snapshots). All counters are monotone.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct AllocSnapshot {
    /// Heap allocations since process start.
    pub allocations: u64,
    /// Bytes requested since process start.
    pub allocated_bytes: u64,
    /// High-water mark of live heap bytes since process start.
    pub peak_bytes: u64,
}

/// Reads the current allocator counters; `None` when the binary has no
/// counting allocator (the alloc fields are then omitted as `null`).
pub type AllocProbe<'a> = Option<&'a dyn Fn() -> AllocSnapshot>;

/// Workload shape: the Fig. 9 multi-user front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotpathSpec {
    /// Users in the scenario (one single-component graph each).
    pub users: usize,
    /// Functions per user graph.
    pub nodes: usize,
    /// Base RNG seed (user `i` uses `seed + i`).
    pub seed: u64,
    /// Timed passes, after one untimed warm-up: the cut stage reports
    /// their mean, and each pass gives the overhead one sample per
    /// user.
    pub iters: usize,
}

impl Default for HotpathSpec {
    fn default() -> Self {
        // nodes is chosen so compressed components stay well above the
        // eigensolver's dense cutoff: the hot path under test is the
        // sparse Lanczos solve, as in the paper's larger Fig. 9 sizes,
        // not the dense small-graph fallback. Ten passes give the
        // tracing overhead 80 samples: from 24, its estimate spread
        // wider than the budget's warn band on a shared 2-vCPU host
        HotpathSpec {
            users: 8,
            nodes: 2000,
            seed: 9,
            iters: 10,
        }
    }
}

/// The measured cut stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathMeasurement {
    /// What this row measured.
    pub label: String,
    /// Mean wall-clock seconds per pass over every component.
    pub seconds: f64,
    /// Heap allocations per pass (`None` without a counting allocator).
    pub allocations: Option<u64>,
    /// Bytes requested per pass.
    pub allocated_bytes: Option<u64>,
    /// Growth of the live-bytes high-water mark across the timed
    /// window.
    pub peak_growth_bytes: Option<u64>,
    /// Parts the cuts produce: two per proper cut, one per component
    /// left whole (deterministic).
    pub parts: usize,
    /// Total cut weight across all components (deterministic).
    pub cut_weight: f64,
}

/// Tracing overhead on the Fig. 9 front-end, the quantity the gate's
/// tracing budget is enforced against.
///
/// Three variants of the *same* instrumented front-end
/// (compression + per-component cuts, the shape of `copmecs_core`'s
/// `prepare_user_reusing`) take turns per user graph; one turn of the
/// three on one graph is a sample:
///
/// - **off** — no instrumentation calls at all (no spans, no
///   histogram samples, untraced compression): the true floor;
/// - **null** — every call site active but wired to [`NullSink`]:
///   what the default pipeline pays for carrying the seams;
/// - **sharded** — a live [`ShardedRecorder`] with its background
///   aggregator running: what always-on tracing costs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsOverhead {
    /// Mean wall-clock seconds per front-end pass, uninstrumented.
    pub off_seconds: f64,
    /// Mean seconds per pass with call sites wired to the `NullSink`.
    pub null_seconds: f64,
    /// Mean seconds per pass with a live sharded recorder (aggregator
    /// on).
    pub sharded_seconds: f64,
    /// Call-site cost: the median over samples of null over off time,
    /// minus 1.
    pub null_overhead: f64,
    /// Enabled-tracing cost, the gated quantity: the median over
    /// samples of sharded over off time, minus 1.
    pub sharded_overhead: f64,
    /// Spans + events + histogram samples the sharded leg recorded
    /// (evidence the instrumentation was actually live).
    pub sharded_records: u64,
    /// Records the sharded leg dropped (should be 0 at default
    /// capacities).
    pub sharded_dropped: u64,
}

/// The record written to `BENCH_spectral.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathReport {
    /// The workload that produced these numbers.
    pub spec: HotpathSpec,
    /// The shipped cut stage.
    pub optimized: HotpathMeasurement,
    /// Tracing overhead (off / NullSink / sharded-on).
    pub obs_overhead: ObsOverhead,
}

/// Times `spec.iters` passes of the cut stage over `quotients` after
/// one untimed warm-up pass, which faults in code paths and grows the
/// arena to its high-water mark so the timed passes measure the
/// steady state.
fn measure(
    spec: &HotpathSpec,
    probe: AllocProbe<'_>,
    quotients: &[Graph],
) -> Result<HotpathMeasurement, PipelineError> {
    let strategy = StrategyKind::Spectral.build();
    let mut scratch = CutScratch::new();
    let mut cut_stage = || -> Result<(usize, f64), PipelineError> {
        let mut tally = (0usize, 0.0f64);
        for q in quotients {
            let cut = strategy.cut_reusing(q, &mut scratch, &NullSink)?;
            tally.0 += 1 + usize::from(cut.is_proper());
            tally.1 += cut.cut_weight(q);
        }
        Ok(tally)
    };
    let (parts, cut_weight) = cut_stage()?;
    let iters = spec.iters.max(1);
    let before = probe.map(|p| p());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(cut_stage()?);
    }
    let seconds = start.elapsed().as_secs_f64() / iters as f64;
    let deltas = probe.zip(before).map(|(p, b)| (b, p()));
    let per_iter =
        |f: fn(&AllocSnapshot) -> u64| deltas.map(|(b, a)| (f(&a) - f(&b)) / iters as u64);
    Ok(HotpathMeasurement {
        label: "spectral cut_reusing per component, one CutScratch".to_string(),
        seconds,
        allocations: per_iter(|s| s.allocations),
        allocated_bytes: per_iter(|s| s.allocated_bytes),
        // peak growth is not divided: it is a high-water delta over the
        // whole timed window (zero once the arena is warm)
        peak_growth_bytes: deltas.map(|(b, a)| a.peak_bytes - b.peak_bytes),
        parts,
        cut_weight,
    })
}

/// One user's instrumented front-end: compression plus per-component
/// cuts with the same spans and histogram samples `copmecs_core`'s
/// `prepare_user_reusing` emits. The null and sharded overhead legs
/// run this exact shape; only the sink differs.
fn instrumented_front_end(
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    sink: &dyn TraceSink,
    g: &Graph,
    scratch: &mut CutScratch,
) -> Result<(), PipelineError> {
    let s = span(sink, "stage.compression");
    let outcome = compressor.compress_traced(g, sink);
    let compression = s.finish();
    sink.histogram_record(
        "stage.compression_nanos",
        u64::try_from(compression.as_nanos()).unwrap_or(u64::MAX),
    );
    let s = span(sink, "stage.cutting");
    for comp in &outcome.components {
        strategy.cut_reusing(comp.quotient.graph(), scratch, sink)?;
    }
    let cutting = s.finish();
    sink.histogram_record(
        "stage.cutting_nanos",
        u64::try_from(cutting.as_nanos()).unwrap_or(u64::MAX),
    );
    Ok(())
}

/// The same front-end with instrumentation compiled out of the call
/// sites entirely — untraced compression, no spans, no samples.
fn bare_front_end(
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    g: &Graph,
    scratch: &mut CutScratch,
) -> Result<(), PipelineError> {
    let outcome = compressor.compress(g);
    for comp in &outcome.components {
        strategy.cut_reusing(comp.quotient.graph(), scratch, &NullSink)?;
    }
    Ok(())
}

/// Every record a recorder holds: spans, events, and the samples of
/// every histogram in its registry.
fn record_count(recorder: &ShardedRecorder) -> u64 {
    recorder.flush();
    let samples: u64 = recorder
        .metrics()
        .snapshot()
        .histograms
        .iter()
        .map(|(_, h)| h.count())
        .sum();
    recorder.spans().len() as u64 + recorder.events().len() as u64 + samples
}

/// Measures tracing overhead on the Fig. 9 front-end: off vs
/// [`NullSink`] vs live [`ShardedRecorder`].
///
/// # Errors
///
/// [`PipelineError::Cut`] if a component cannot be bipartitioned.
///
/// # Panics
///
/// Panics if `graphs` is empty.
pub fn measure_obs_overhead(
    spec: &HotpathSpec,
    graphs: &[Graph],
) -> Result<ObsOverhead, PipelineError> {
    assert!(!graphs.is_empty(), "need at least one graph");
    let compressor = Compressor::new(CompressionConfig::default());
    let strategy = StrategyKind::Spectral.build();
    let recorder = ShardedRecorder::new();
    let mut scratch = CutScratch::new();
    // One untimed warm-up pass, then `iters` timed passes. Within a
    // pass the three legs take turns per user graph, each user starting
    // from a different leg, so host noise (which dwarfs the deltas
    // being resolved) lands on all three legs alike instead of on
    // whichever leg it overlapped; each turn's legs form one sample.
    let iters = spec.iters.max(1);
    let mut samples: Vec<[f64; 3]> = Vec::with_capacity(iters * graphs.len());
    for pass in 0..=iters {
        for (i, g) in graphs.iter().enumerate() {
            let mut sample = [0.0; 3];
            for k in 0..3 {
                let leg = (pass + i + k) % 3;
                let start = Instant::now();
                match leg {
                    0 => bare_front_end(&compressor, strategy.as_ref(), g, &mut scratch),
                    1 => instrumented_front_end(
                        &compressor,
                        strategy.as_ref(),
                        &NullSink,
                        g,
                        &mut scratch,
                    ),
                    _ => instrumented_front_end(
                        &compressor,
                        strategy.as_ref(),
                        &recorder,
                        g,
                        &mut scratch,
                    ),
                }?;
                sample[leg] = start.elapsed().as_secs_f64();
            }
            if pass > 0 {
                samples.push(sample);
            }
        }
    }
    let per_pass = |leg: usize| samples.iter().map(|s| s[leg]).sum::<f64>() / iters as f64;
    // the median of the per-sample ratios: a burst that hits one turn
    // moves one ratio, not the estimate
    let overhead = |leg: usize| {
        let mut ratios: Vec<f64> = samples.iter().map(|s| s[leg] / s[0]).collect();
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        let median = if ratios.len().is_multiple_of(2) {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        } else {
            ratios[mid]
        };
        median - 1.0
    };

    Ok(ObsOverhead {
        off_seconds: per_pass(0),
        null_seconds: per_pass(1),
        sharded_seconds: per_pass(2),
        null_overhead: overhead(1),
        sharded_overhead: overhead(2),
        sharded_records: record_count(&recorder),
        sharded_dropped: recorder.dropped_records().total(),
    })
}

/// Times the shipped cut stage on the Fig. 9 multi-user front-end
/// workload and measures the front-end's tracing overhead.
///
/// # Errors
///
/// [`PipelineError::Cut`] if a component cannot be bipartitioned
/// (does not happen on generable workloads).
///
/// # Panics
///
/// Panics if `spec.users == 0` or the workload is not generable.
pub fn run(spec: &HotpathSpec, probe: AllocProbe<'_>) -> Result<HotpathReport, PipelineError> {
    assert!(spec.users > 0, "need at least one user");
    let graphs: Vec<Graph> = (0..spec.users)
        .map(|i| runtime_graph(spec.nodes, spec.seed + i as u64))
        .collect();
    let quotients = compressed_components(&graphs);
    let optimized = measure(spec, probe, &quotients)?;
    // the overhead legs run the whole front-end on the original user
    // graphs, since compression is part of the instrumented surface
    let obs_overhead = measure_obs_overhead(spec, &graphs)?;
    Ok(HotpathReport {
        spec: *spec,
        optimized,
        obs_overhead,
    })
}

/// Every compressed component's quotient graph, users in order.
fn compressed_components(graphs: &[Graph]) -> Vec<Graph> {
    let compressor = Compressor::new(CompressionConfig::default());
    graphs
        .iter()
        .flat_map(|g| {
            compressor
                .compress(g)
                .components
                .into_iter()
                .map(|comp| comp.quotient.graph().clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_spectral::SpectralBisector;

    #[test]
    fn report_times_the_shipped_spectral_cut() {
        let spec = HotpathSpec {
            users: 2,
            nodes: 300,
            seed: 4,
            iters: 1,
        };
        let r = run(&spec, None).unwrap();
        assert!(r.optimized.seconds > 0.0);
        // the rows are what the paper's Fiedler cut gives on the same
        // quotients, one bisection each
        let graphs: Vec<Graph> = (0..spec.users)
            .map(|i| runtime_graph(spec.nodes, spec.seed + i as u64))
            .collect();
        let quotients = compressed_components(&graphs);
        let (mut parts, mut cut_weight) = (0, 0.0);
        for q in &quotients {
            let cut = SpectralBisector::new().bisect(q).unwrap();
            parts += 1 + usize::from(cut.partition.is_proper());
            cut_weight += cut.cut_weight;
        }
        assert!(parts > quotients.len(), "no proper cut was measured");
        assert_eq!(r.optimized.parts, parts);
        assert!((r.optimized.cut_weight - cut_weight).abs() <= 1e-9 * cut_weight);
        // no counting allocator in unit tests
        assert!(r.optimized.allocations.is_none());
        // the overhead rows always ride along and carry live evidence
        let obs = &r.obs_overhead;
        assert!(obs.off_seconds > 0.0);
        assert!(obs.null_seconds > 0.0);
        assert!(obs.sharded_seconds > 0.0);
        assert!(obs.sharded_records > 0, "sharded leg recorded nothing");
        assert_eq!(obs.sharded_dropped, 0);
    }

    #[test]
    fn probe_deltas_are_attached_when_supplied() {
        use std::cell::Cell;
        let calls = Cell::new(0u64);
        let probe = || {
            // monotone fake counters: each probe call advances them
            calls.set(calls.get() + 1);
            AllocSnapshot {
                allocations: calls.get() * 100,
                allocated_bytes: calls.get() * 1000,
                peak_bytes: calls.get() * 10,
            }
        };
        let spec = HotpathSpec {
            users: 1,
            nodes: 60,
            seed: 2,
            iters: 1,
        };
        let r = run(&spec, Some(&probe)).unwrap();
        assert_eq!(r.optimized.allocations, Some(100));
        assert_eq!(r.optimized.allocated_bytes, Some(1000));
        assert_eq!(r.optimized.peak_growth_bytes, Some(10));
    }

    #[test]
    fn record_count_sums_every_histogram() {
        let recorder = ShardedRecorder::new();
        drop(span(&recorder, "a"));
        recorder.event("e", &[]);
        recorder.histogram_record("stage.compression_nanos", 5);
        recorder.histogram_record("stage.cutting_nanos", 7);
        recorder.histogram_record("lanczos.iterations", 40);
        recorder.histogram_record("lanczos.iterations", 41);
        assert_eq!(record_count(&recorder), 1 + 1 + 4);
    }
}
