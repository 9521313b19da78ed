//! Ablation benches for the design choices DESIGN.md calls out:
//! threshold rule, traversal policy, split rule, greedy driver, and
//! eigensolver backend.

use copmecs_core::{GreedyMode, Offloader};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_bench::workload::paper_graph;
use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule, TraversalPolicy};
use mec_linalg::{fiedler_pair, LanczosOptions, LanczosScratch};
use mec_model::{Scenario, SystemParams, UserWorkload};
use mec_spectral::{SpectralBisector, SplitRule};

fn bench_threshold_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/threshold_rule");
    group.sample_size(10);
    let g = paper_graph(1000, mec_bench::DEFAULT_SEED);
    for (label, rule) in [
        ("mean1.5", ThresholdRule::MeanFactor(1.5)),
        ("absolute25", ThresholdRule::Absolute(25.0)),
        ("quantile0.7", ThresholdRule::Quantile(0.7)),
    ] {
        let compressor = Compressor::new(CompressionConfig::new().threshold(rule));
        group.bench_with_input(BenchmarkId::from_parameter(label), &g, |b, g| {
            b.iter(|| std::hint::black_box(compressor.compress(g).stats.compressed_nodes))
        });
    }
    group.finish();
}

fn bench_traversal_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/traversal_policy");
    group.sample_size(10);
    let g = paper_graph(1000, mec_bench::DEFAULT_SEED);
    for (label, policy) in [("bfs", TraversalPolicy::Bfs), ("dfs", TraversalPolicy::Dfs)] {
        let compressor = Compressor::new(CompressionConfig::new().policy(policy));
        group.bench_with_input(BenchmarkId::from_parameter(label), &g, |b, g| {
            b.iter(|| std::hint::black_box(compressor.compress(g).stats.compressed_nodes))
        });
    }
    group.finish();
}

fn bench_split_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/split_rule");
    group.sample_size(10);
    let g = mec_netgen::NetgenSpec::new(400, 1600)
        .components(1)
        .seed(mec_bench::DEFAULT_SEED)
        .generate()
        .unwrap();
    for (label, rule) in [
        ("sweep", SplitRule::Sweep),
        ("sign", SplitRule::Sign),
        ("median", SplitRule::Median),
    ] {
        let bisector = SpectralBisector::new().split_rule(rule);
        group.bench_with_input(BenchmarkId::from_parameter(label), &g, |b, g| {
            b.iter(|| std::hint::black_box(bisector.bisect(g).unwrap().cut_weight))
        });
    }
    group.finish();
}

fn bench_greedy_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/greedy_mode");
    group.sample_size(10);
    let pool: Vec<std::sync::Arc<mec_graph::Graph>> = (0..4)
        .map(|i| std::sync::Arc::new(paper_graph(500, mec_bench::DEFAULT_SEED + i)))
        .collect();
    let scenario = Scenario::new(SystemParams::default()).with_users(
        (0..32).map(|i| UserWorkload::new(format!("u{i}"), std::sync::Arc::clone(&pool[i % 4]))),
    );
    for (label, mode) in [
        ("lazy", GreedyMode::Lazy),
        ("exhaustive", GreedyMode::Exhaustive),
    ] {
        let offloader = Offloader::builder().greedy_mode(mode).build();
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            b.iter(|| std::hint::black_box(offloader.solve(s).unwrap().greedy.evaluations))
        });
    }
    group.finish();
}

fn bench_eigensolver_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/eigensolver");
    group.sample_size(10);
    let g = mec_netgen::NetgenSpec::new(300, 1200)
        .components(1)
        .seed(mec_bench::DEFAULT_SEED)
        .generate()
        .unwrap();
    let lap = mec_graph::CsrAdjacency::build(&g);
    for (label, opts) in [
        (
            "lanczos",
            LanczosOptions {
                dense_cutoff: 0,
                ..LanczosOptions::default()
            },
        ),
        (
            "dense-jacobi",
            LanczosOptions {
                dense_cutoff: usize::MAX,
                ..LanczosOptions::default()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &lap, |b, lap| {
            let mut scratch = LanczosScratch::new();
            b.iter(|| {
                let pair = fiedler_pair(lap, &opts, &mec_obs::NullSink, &mut scratch).unwrap();
                std::hint::black_box(pair.value)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_threshold_rules,
    bench_traversal_policy,
    bench_split_rules,
    bench_greedy_modes,
    bench_eigensolver_backends
);
criterion_main!(benches);
