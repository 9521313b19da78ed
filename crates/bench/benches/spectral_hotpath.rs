//! Criterion bench for the spectral hot path: the pipeline's cut stage,
//! one Fiedler cut per compressed component.
//!
//! Two configurations, so a regression in the arena shows up as its
//! own curve:
//!
//! - `cold`: [`SpectralBisector::bisect`], fresh buffers per call;
//! - `scratch`: [`StrategyKind::Spectral`]'s `cut_reusing` through one
//!   [`CutScratch`] arena reused across calls — the stage as the
//!   pipeline ships it, and as `experiments bench` times it into
//!   `BENCH_spectral.json`.

use copmecs_core::StrategyKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_bench::runtime::runtime_graph;
use mec_graph::Graph;
use mec_labelprop::{CompressionConfig, Compressor};
use mec_obs::NullSink;
use mec_spectral::{CutScratch, SpectralBisector};

fn front_end_quotients(users: usize, nodes: usize) -> Vec<Graph> {
    let compressor = Compressor::new(CompressionConfig::default());
    (0..users)
        .flat_map(|i| {
            let g = runtime_graph(nodes, mec_bench::DEFAULT_SEED + i as u64);
            compressor
                .compress(&g)
                .components
                .into_iter()
                .map(|c| c.quotient.graph().clone())
        })
        .collect()
}

fn bench_spectral_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/front_end");
    group.sample_size(10);
    // small enough for a smoke run, large enough that every quotient
    // clears the eigensolver's dense cutoff and Lanczos actually runs
    let quotients = front_end_quotients(2, 600);

    group.bench_with_input(BenchmarkId::from_parameter("cold"), &quotients, |b, qs| {
        let bisector = SpectralBisector::new();
        b.iter(|| {
            let mut weight = 0.0;
            for q in qs {
                weight += bisector.bisect(std::hint::black_box(q)).unwrap().cut_weight;
            }
            std::hint::black_box(weight)
        })
    });

    group.bench_with_input(
        BenchmarkId::from_parameter("scratch"),
        &quotients,
        |b, qs| {
            let strategy = StrategyKind::Spectral.build();
            let mut scratch = CutScratch::new();
            b.iter(|| {
                let mut proper = 0usize;
                for q in qs {
                    let cut = strategy
                        .cut_reusing(std::hint::black_box(q), &mut scratch, &NullSink)
                        .unwrap();
                    proper += usize::from(cut.is_proper());
                }
                std::hint::black_box(proper)
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_spectral_hotpath);
criterion_main!(benches);
