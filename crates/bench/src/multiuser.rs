//! Figures 6–8 — multi-user energy versus crowd size.
//!
//! The paper fixes the application at 1000 functions and grows the
//! number of users sharing the edge server (250 → 5000). Users draw
//! their workloads from a small pool of distinct graphs (shared via
//! `Arc`, so memory stays flat).

use crate::energy::paper_strategies;
use crate::workload::paper_graph;
use copmecs_core::Offloader;
use mec_graph::Graph;
use mec_model::{Scenario, SystemParams, UserWorkload};
use mec_obs::TraceSink;
use serde::Serialize;
use std::sync::Arc;

/// One measurement: a strategy at a crowd size.
#[derive(Debug, Clone, Serialize)]
pub struct MultiUserPoint {
    /// Number of users sharing the server.
    pub users: usize,
    /// Strategy label.
    pub strategy: String,
    /// `Σ e_c` (Fig. 6's metric).
    pub local_energy: f64,
    /// `Σ e_t` (Fig. 7's metric).
    pub tx_energy: f64,
    /// `E` (Fig. 8's metric).
    pub total_energy: f64,
    /// Fraction of all functions offloaded.
    pub offloaded_fraction: f64,
}

/// Parameters of the multi-user sweep.
#[derive(Debug, Clone)]
pub struct MultiUserConfig {
    /// Function count per application (paper: 1000).
    pub graph_nodes: usize,
    /// Distinct workload graphs in the pool.
    pub pool: usize,
    /// RNG seed.
    pub seed: u64,
    /// Server capacity as a multiple of `local_capacity × max_users`.
    /// `0.5` means the server matches half the crowd's combined device
    /// capacity, so contention bites gradually across the sweep
    /// instead of saturating at its start.
    pub server_scale: f64,
}

impl Default for MultiUserConfig {
    fn default() -> Self {
        MultiUserConfig {
            graph_nodes: 1000,
            pool: 8,
            seed: crate::DEFAULT_SEED,
            server_scale: 0.5,
        }
    }
}

/// Runs the multi-user sweep over `user_counts`, wiring `sink` into
/// every pipeline it builds.
pub fn run(
    user_counts: &[usize],
    config: &MultiUserConfig,
    sink: &Arc<dyn TraceSink>,
) -> Vec<MultiUserPoint> {
    let pool: Vec<Arc<Graph>> = (0..config.pool)
        .map(|i| Arc::new(paper_graph(config.graph_nodes, config.seed + i as u64)))
        .collect();
    let max_users = user_counts.iter().copied().max().unwrap_or(1);
    let base = SystemParams::default();
    let params = SystemParams {
        server_capacity: base.local_capacity * max_users as f64 * config.server_scale,
        ..base
    };
    let mut out = Vec::new();
    for &users in user_counts {
        let scenario =
            Scenario::new(params)
                .with_users((0..users).map(|i| {
                    UserWorkload::new(format!("u{i}"), Arc::clone(&pool[i % pool.len()]))
                }));
        let total_functions: usize = scenario
            .users()
            .iter()
            .map(|u| u.graph().node_count())
            .sum();
        for (label, kind) in paper_strategies() {
            let report = Offloader::builder()
                .strategy(kind)
                .trace_sink(Arc::clone(sink))
                .build()
                .solve(&scenario)
                .expect("pipeline succeeds on generated workloads");
            let t = &report.evaluation.totals;
            let offloaded: usize = report
                .plan
                .iter()
                .map(|p| p.count_on(mec_graph::Side::Remote))
                .sum();
            out.push(MultiUserPoint {
                users,
                strategy: label.to_string(),
                local_energy: t.local_energy,
                tx_energy: t.tx_energy,
                total_energy: t.energy,
                offloaded_fraction: offloaded as f64 / total_functions as f64,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MultiUserConfig {
        MultiUserConfig {
            graph_nodes: 120,
            pool: 2,
            seed: 9,
            server_scale: 0.5,
        }
    }

    #[test]
    fn energies_grow_with_user_count() {
        let pts = run(&[2, 8], &tiny(), &mec_obs::null_sink());
        assert_eq!(pts.len(), 6);
        for (label, _) in paper_strategies() {
            let series: Vec<_> = pts.iter().filter(|p| p.strategy == label).collect();
            assert!(
                series[1].total_energy > series[0].total_energy,
                "{label}: {} vs {}",
                series[1].total_energy,
                series[0].total_energy
            );
        }
    }

    #[test]
    fn contention_reduces_offloaded_fraction() {
        let pts = run(&[1, 16], &tiny(), &mec_obs::null_sink());
        let ours: Vec<_> = pts
            .iter()
            .filter(|p| p.strategy == "our algorithm")
            .collect();
        assert!(ours[1].offloaded_fraction <= ours[0].offloaded_fraction + 1e-9);
    }
}
