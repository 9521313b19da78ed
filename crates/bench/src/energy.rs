//! Figures 3–5 — single-user energy versus graph size, for the three
//! cut strategies.

use crate::workload::paper_graph;
use copmecs_core::{Offloader, StrategyKind};
use mec_model::{Scenario, SystemParams, UserWorkload};
use mec_obs::TraceSink;
use serde::Serialize;
use std::sync::Arc;

/// The three strategies the paper compares in Figs. 3–8.
pub fn paper_strategies() -> [(&'static str, StrategyKind); 3] {
    [
        ("our algorithm", StrategyKind::Spectral),
        ("maximum flow minimum cut", StrategyKind::MaxFlow),
        ("Kernighan-Lin", StrategyKind::KernighanLin),
    ]
}

/// One measurement: a strategy on a graph size.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyPoint {
    /// Graph size (function count).
    pub size: usize,
    /// Strategy label as used in the paper's legends.
    pub strategy: String,
    /// `Σ e_c` (Fig. 3's metric).
    pub local_energy: f64,
    /// `Σ e_t` (Fig. 4's metric).
    pub tx_energy: f64,
    /// `E` (Fig. 5's metric).
    pub total_energy: f64,
    /// Functions offloaded.
    pub offloaded: usize,
}

/// Runs the single-user sweep: one user, graphs of the given sizes,
/// all three strategies. `sink` is wired into every pipeline it
/// builds, so the trace covers all strategies across the sweep.
pub fn run(sizes: &[usize], seed: u64, sink: &Arc<dyn TraceSink>) -> Vec<EnergyPoint> {
    let mut out = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let graph = Arc::new(paper_graph(size, seed + i as u64));
        let scenario = Scenario::new(SystemParams::default())
            .with_user(UserWorkload::new("u0", Arc::clone(&graph)));
        for (label, kind) in paper_strategies() {
            let report = Offloader::builder()
                .strategy(kind)
                .trace_sink(Arc::clone(sink))
                .build()
                .solve(&scenario)
                .expect("pipeline succeeds on generated workloads");
            let t = &report.evaluation.totals;
            out.push(EnergyPoint {
                size,
                strategy: label.to_string(),
                local_energy: t.local_energy,
                tx_energy: t.tx_energy,
                total_energy: t.energy,
                offloaded: report.plan[0].count_on(mec_graph::Side::Remote),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_strategy_and_size() {
        let pts = run(&[120, 250], 5, &mec_obs::null_sink());
        assert_eq!(pts.len(), 6);
        // energies grow with size for every strategy
        for (label, _) in paper_strategies() {
            let series: Vec<_> = pts.iter().filter(|p| p.strategy == label).collect();
            assert!(series[1].total_energy >= series[0].total_energy);
        }
    }

    #[test]
    fn spectral_total_energy_is_never_worst() {
        let pts = run(&[250], 11, &mec_obs::null_sink());
        let ours = pts.iter().find(|p| p.strategy == "our algorithm").unwrap();
        let worst = pts
            .iter()
            .map(|p| p.total_energy)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(ours.total_energy <= worst + 1e-9);
    }
}
