//! Quality ablations for the design choices DESIGN.md calls out:
//! what each knob does to the *objective*, not just to wall-clock.

use crate::workload::paper_graph;
use copmecs_core::{GreedyMode, Offloader, StrategyKind};
use mec_graph::Graph;
use mec_labelprop::{CompressionConfig, ThresholdRule, TraversalPolicy};
use mec_model::{AllocationPolicy, Scenario, SystemParams, UserWorkload};
use mec_obs::TraceSink;
use mec_spectral::{SpectralBisector, SplitRule};
use serde::Serialize;
use std::sync::Arc;

/// One ablation measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AblationPoint {
    /// Knob family (e.g. `threshold`).
    pub knob: String,
    /// Setting within the family (e.g. `mean x1.5`).
    pub setting: String,
    /// Final objective `E + T` on the reference workload.
    pub objective: f64,
    /// Super-nodes after compression (where compression applies).
    pub compressed_nodes: usize,
    /// Functions offloaded.
    pub offloaded: usize,
}

fn reference_scenario(seed: u64) -> Scenario {
    let pool: Vec<Arc<Graph>> = (0..3)
        .map(|i| Arc::new(paper_graph(500, seed + i)))
        .collect();
    Scenario::new(SystemParams::default())
        .with_users((0..6).map(|i| UserWorkload::new(format!("u{i}"), Arc::clone(&pool[i % 3]))))
}

fn measure(knob: &str, setting: &str, offloader: &Offloader, scenario: &Scenario) -> AblationPoint {
    let report = offloader
        .solve(scenario)
        .expect("reference workload solves");
    AblationPoint {
        knob: knob.to_string(),
        setting: setting.to_string(),
        objective: report.evaluation.totals.objective(),
        compressed_nodes: report.compression.iter().map(|c| c.compressed_nodes).sum(),
        offloaded: report
            .plan
            .iter()
            .map(|p| p.count_on(mec_graph::Side::Remote))
            .sum(),
    }
}

/// Runs every quality ablation and returns the points grouped by knob,
/// wiring `sink` into every pipeline it builds.
pub fn run(seed: u64, sink: &Arc<dyn TraceSink>) -> Vec<AblationPoint> {
    let scenario = reference_scenario(seed);
    let builder = || Offloader::builder().trace_sink(Arc::clone(sink));
    let mut out = Vec::new();

    // 1. compression threshold rule
    for (label, rule) in [
        ("no compression (∞)", ThresholdRule::Absolute(f64::INFINITY)),
        ("mean x1.0", ThresholdRule::MeanFactor(1.0)),
        ("mean x1.5 (default)", ThresholdRule::MeanFactor(1.5)),
        ("mean x3.0", ThresholdRule::MeanFactor(3.0)),
        ("quantile 0.5", ThresholdRule::Quantile(0.5)),
        ("quantile 0.9", ThresholdRule::Quantile(0.9)),
    ] {
        let o = builder()
            .compression(CompressionConfig::new().threshold(rule))
            .build();
        out.push(measure("threshold", label, &o, &scenario));
    }

    // 2. propagation traversal policy
    for (label, policy) in [
        ("bfs (default)", TraversalPolicy::Bfs),
        ("dfs", TraversalPolicy::Dfs),
    ] {
        let o = builder()
            .compression(CompressionConfig::new().policy(policy))
            .build();
        out.push(measure("traversal", label, &o, &scenario));
    }

    // 3. Fiedler split rule
    for (label, rule) in [
        ("sign (default)", SplitRule::Sign),
        ("min-weight sweep", SplitRule::Sweep),
        ("ratio sweep", SplitRule::RatioSweep),
        ("median", SplitRule::Median),
    ] {
        let o = builder().build_with_strategy(Box::new(SpectralBisector::new().split_rule(rule)));
        out.push(measure("split-rule", label, &o, &scenario));
    }

    // 4. greedy driver
    for (label, mode) in [
        ("lazy heap (default)", GreedyMode::Lazy),
        ("exhaustive rescan", GreedyMode::Exhaustive),
    ] {
        let o = builder().greedy_mode(mode).build();
        out.push(measure("greedy", label, &o, &scenario));
    }

    // 5. cut strategy (including the future-work multilevel scheme)
    for (label, kind) in [
        ("spectral (default)", StrategyKind::Spectral),
        ("max-flow", StrategyKind::MaxFlow),
        ("kernighan-lin", StrategyKind::KernighanLin),
        ("multilevel", StrategyKind::Multilevel),
    ] {
        let o = builder().strategy(kind).build();
        out.push(measure("strategy", label, &o, &scenario));
    }

    // 6. server allocation policy (re-priced scenario per policy)
    for (label, policy) in [
        ("equal share (default)", AllocationPolicy::EqualShare),
        ("proportional", AllocationPolicy::ProportionalToLoad),
        ("fifo", AllocationPolicy::Fifo),
    ] {
        let params = SystemParams {
            allocation: policy,
            ..SystemParams::default()
        };
        let pool: Vec<Arc<Graph>> = (0..3)
            .map(|i| Arc::new(paper_graph(500, seed + i)))
            .collect();
        let s = Scenario::new(params).with_users(
            (0..6).map(|i| UserWorkload::new(format!("u{i}"), Arc::clone(&pool[i % 3]))),
        );
        let o = builder().strategy(StrategyKind::Spectral).build();
        out.push(measure("allocation", label, &o, &s));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_all_knobs() {
        let pts = run(3, &mec_obs::null_sink());
        let knobs: std::collections::HashSet<_> = pts.iter().map(|p| p.knob.as_str()).collect();
        for k in [
            "threshold",
            "traversal",
            "split-rule",
            "greedy",
            "strategy",
            "allocation",
        ] {
            assert!(knobs.contains(k), "missing knob {k}");
        }
        for p in &pts {
            assert!(p.objective.is_finite() && p.objective > 0.0);
        }
    }

    #[test]
    fn no_compression_keeps_all_nodes() {
        let pts = run(5, &mec_obs::null_sink());
        let no_comp = pts
            .iter()
            .find(|p| p.setting.starts_with("no compression"))
            .unwrap();
        let default = pts
            .iter()
            .find(|p| p.setting == "mean x1.5 (default)")
            .unwrap();
        assert!(no_comp.compressed_nodes > default.compressed_nodes);
    }
}
