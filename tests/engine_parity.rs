//! The engine-parallel spectral backend must be a pure accelerator:
//! identical plans and costs to the serial backend, end to end.

use copmecs::engine::Cluster;
use copmecs::prelude::*;
use std::sync::Arc;

fn scenario(seed: u64) -> Scenario {
    let g = NetgenSpec::new(300, 1200).seed(seed).generate().unwrap();
    Scenario::new(SystemParams::default()).with_user(UserWorkload::new("u", g))
}

#[test]
fn parallel_and_serial_spectral_produce_identical_plans() {
    let cluster = Arc::new(Cluster::new(4).unwrap());
    for seed in [1u64, 2, 3] {
        let s = scenario(seed);
        let serial = Offloader::builder()
            .strategy(StrategyKind::Spectral)
            .build()
            .solve(&s)
            .unwrap();
        let parallel = Offloader::builder()
            .strategy(StrategyKind::SpectralParallel {
                cluster: Arc::clone(&cluster),
                blocks: 7,
            })
            .build()
            .solve(&s)
            .unwrap();
        assert_eq!(serial.plan, parallel.plan, "seed {seed}");
        assert!(
            (serial.evaluation.totals.objective() - parallel.evaluation.totals.objective()).abs()
                < 1e-9
        );
    }
}

#[test]
fn block_count_does_not_change_results() {
    let cluster = Arc::new(Cluster::new(3).unwrap());
    let s = scenario(9);
    let mut plans = Vec::new();
    for blocks in [1usize, 4, 16] {
        let report = Offloader::builder()
            .strategy(StrategyKind::SpectralParallel {
                cluster: Arc::clone(&cluster),
                blocks,
            })
            .build()
            .solve(&s)
            .unwrap();
        plans.push(report.plan);
    }
    assert_eq!(plans[0], plans[1]);
    assert_eq!(plans[1], plans[2]);
}

#[test]
fn cluster_metrics_show_real_distribution() {
    let cluster = Arc::new(Cluster::new(4).unwrap());
    // (stages, tasks) from the cluster's registry: one stage-width
    // sample per stage, one task-latency sample per task
    let counts = || {
        let snap = cluster.registry().snapshot();
        let stages = snap
            .histogram("engine.stage_width")
            .map_or(0, |h| h.count());
        let tasks: u64 = (0..4)
            .filter_map(|w| snap.histogram_labeled("engine.task_nanos", "worker", &w.to_string()))
            .map(|h| h.count())
            .sum();
        (stages, tasks)
    };
    let before = counts();
    let s = scenario(5);
    Offloader::builder()
        .strategy(StrategyKind::SpectralParallel {
            cluster: Arc::clone(&cluster),
            blocks: 8,
        })
        .build()
        .solve(&s)
        .unwrap();
    let after = counts();
    assert!(
        after.0 > before.0,
        "the eigensolver must have scheduled stages on the cluster"
    );
    assert!(after.1 > before.1);
}
