//! Criterion bench for Fig. 9: the four runtime curves at a
//! representative size (the `experiments -- fig9` binary sweeps the
//! full size axis).

use copmecs_core::{Offloader, StrategyKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_bench::runtime::{dense_spectral, lanczos_serial, runtime_graph};
use mec_engine::Cluster;
use mec_model::{Scenario, SystemParams, UserWorkload};
use std::sync::Arc;

fn bench_runtime_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/runtime_variants");
    group.sample_size(10);
    let graph = Arc::new(runtime_graph(1000, mec_bench::DEFAULT_SEED));
    let scenario = Scenario::new(SystemParams::default())
        .with_user(UserWorkload::new("u0", Arc::clone(&graph)));
    let cluster = Arc::new(Cluster::with_default_parallelism().unwrap());

    let variants: Vec<(&str, Offloader)> = vec![
        (
            "spectral-dense",
            Offloader::builder().build_with_strategy(Box::new(dense_spectral())),
        ),
        (
            "spectral-engine",
            Offloader::builder()
                .strategy(StrategyKind::SpectralParallel {
                    cluster: Arc::clone(&cluster),
                    blocks: cluster.worker_count() * 2,
                })
                .build(),
        ),
        (
            "lanczos-serial",
            Offloader::builder().build_with_strategy(Box::new(lanczos_serial())),
        ),
        (
            "max-flow",
            Offloader::builder().strategy(StrategyKind::MaxFlow).build(),
        ),
        (
            "kernighan-lin",
            Offloader::builder()
                .strategy(StrategyKind::KernighanLin)
                .build(),
        ),
    ];
    for (label, offloader) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            b.iter(|| {
                let report = offloader.solve(std::hint::black_box(s)).unwrap();
                std::hint::black_box(report.evaluation.totals.energy)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_variants);
criterion_main!(benches);
