//! Table I — graph compression results.

use crate::workload::paper_graph;
use mec_labelprop::{CompressionConfig, Compressor};
use mec_obs::TraceSink;
use serde::Serialize;

/// One row of Table I.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Network label (`Network1` …) as in the paper.
    pub network: String,
    /// Function count before compression.
    pub nodes: usize,
    /// Edge count before compression.
    pub edges: usize,
    /// Function count after compression.
    pub compressed_nodes: usize,
    /// Edge count after compression.
    pub compressed_edges: usize,
    /// Fraction of offloadable nodes eliminated.
    pub node_reduction: f64,
}

/// Runs the compression experiment over the given graph sizes with
/// `seed`, routing compression telemetry (`labelprop.round` events,
/// `compress.stats`) through `sink`.
pub fn run(sizes: &[usize], seed: u64, sink: &dyn TraceSink) -> Vec<Table1Row> {
    let compressor = Compressor::new(CompressionConfig::default());
    sizes
        .iter()
        .enumerate()
        .map(|(i, &nodes)| {
            let g = paper_graph(nodes, seed + i as u64);
            let stats = compressor.compress_traced(&g, sink).stats;
            Table1Row {
                network: format!("Network{}", i + 1),
                nodes: stats.original_nodes,
                edges: stats.original_edges,
                compressed_nodes: stats.compressed_nodes,
                compressed_edges: stats.compressed_edges,
                node_reduction: stats.node_reduction(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_shrink_and_reduction_grows_with_size() {
        let rows = run(&[250, 1000], 7, &mec_obs::NullSink);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.compressed_nodes < r.nodes);
            assert!(r.compressed_edges <= r.edges);
            assert!(r.node_reduction > 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&[250], 3, &mec_obs::NullSink);
        let b = run(&[250], 3, &mec_obs::NullSink);
        assert_eq!(a[0].compressed_nodes, b[0].compressed_nodes);
    }
}
