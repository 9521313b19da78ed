//! Property tests for compression: whatever the input graph, the
//! outcome must preserve weights, respect component boundaries, and
//! merge only what the label rule allows.

use mec_graph::{Graph, QuotientGraph, Subgraph};
use mec_labelprop::{propagate_labels, CompressionConfig, Compressor, ThresholdRule};
use mec_netgen::NetgenSpec;
use proptest::prelude::*;

/// Everything a graph holds, weights as bits: node weights, flags,
/// edges (endpoints and weight) and each node's neighbour order.
type Layout = (
    Vec<u64>,
    Vec<bool>,
    Vec<(usize, usize, u64)>,
    Vec<Vec<(usize, usize)>>,
);

fn layout(g: &Graph) -> Layout {
    let ids = || g.node_ids();
    (
        ids().map(|n| g.node_weight(n).to_bits()).collect(),
        ids().map(|n| g.is_offloadable(n)).collect(),
        g.edges()
            .map(|e| (e.source.index(), e.target.index(), e.weight.to_bits()))
            .collect(),
        ids()
            .map(|n| {
                g.neighbors(n)
                    .map(|nb| (nb.node.index(), nb.edge.index()))
                    .collect()
            })
            .collect(),
    )
}

fn arb_spec() -> impl Strategy<Value = mec_graph::Graph> {
    (30usize..120, 1usize..4, 0.0f64..0.5, 0u64..1000).prop_map(|(nodes, comps, pin_frac, seed)| {
        // stay well inside per-component pair capacity so every
        // sampled spec is feasible
        let edges = nodes * 2;
        NetgenSpec::new(nodes, edges)
            .components(comps)
            .unoffloadable_fraction(pin_frac)
            .seed(seed)
            .generate()
            .expect("spec is feasible")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compression_conserves_node_weight(g in arb_spec()) {
        let outcome = Compressor::new(CompressionConfig::default()).compress(&g);
        let pinned: f64 = outcome.pinned.iter().map(|&n| g.node_weight(n)).sum();
        let compressed: f64 = outcome
            .components
            .iter()
            .map(|c| c.quotient.graph().total_node_weight())
            .sum();
        prop_assert!((pinned + compressed - g.total_node_weight()).abs() < 1e-6);
    }

    #[test]
    fn compressed_nodes_never_exceed_offloadable(g in arb_spec()) {
        let outcome = Compressor::new(CompressionConfig::default()).compress(&g);
        prop_assert!(outcome.stats.compressed_nodes <= outcome.stats.offloadable_nodes);
        prop_assert!(outcome.stats.compressed_edges <= outcome.stats.offloadable_edges);
        prop_assert!((0.0..=1.0).contains(&outcome.stats.node_reduction()));
        prop_assert!((0.0..=1.0).contains(&outcome.stats.edge_reduction()));
    }

    #[test]
    fn higher_threshold_merges_no_more(g in arb_spec()) {
        let low = Compressor::new(
            CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)),
        )
        .compress(&g);
        let high = Compressor::new(
            CompressionConfig::new().threshold(ThresholdRule::Absolute(500.0)),
        )
        .compress(&g);
        // a higher threshold lets fewer edges carry labels, so fewer
        // merges happen and more super-nodes remain
        prop_assert!(high.stats.compressed_nodes >= low.stats.compressed_nodes);
    }

    #[test]
    fn labels_cover_every_node_and_rounds_are_bounded(g in arb_spec()) {
        let config = CompressionConfig::default().max_rounds(7);
        let out = propagate_labels(&g, &config);
        prop_assert_eq!(out.labels.len(), g.node_count());
        prop_assert!(out.rounds <= 7);
        // heavy edges connect same-label nodes after convergence more
        // often than light ones (sanity of the label rule): at minimum,
        // every label id is in range
        let max_label = out.labels.iter().copied().max().unwrap_or(0);
        prop_assert!(max_label < g.node_count() * 2);
    }

    #[test]
    fn quotient_groups_partition_each_component(g in arb_spec()) {
        let outcome = Compressor::new(CompressionConfig::default()).compress(&g);
        for comp in &outcome.components {
            let n = comp.subgraph.node_count();
            let covered: usize = comp
                .quotient
                .grouping()
                .members()
                .iter()
                .map(Vec::len)
                .sum();
            prop_assert_eq!(covered, n);
        }
        // pinned + component nodes = all nodes
        let comp_nodes: usize = outcome.components.iter().map(|c| c.subgraph.node_count()).sum();
        prop_assert_eq!(comp_nodes + outcome.pinned.len(), g.node_count());
    }

    #[test]
    fn components_are_induced_subgraphs_and_their_contractions(g in arb_spec()) {
        for parallel in [false, true] {
            let config = CompressionConfig::default().parallel(parallel);
            let outcome = Compressor::new(config).compress(&g);
            for comp in &outcome.components {
                let sub = comp.subgraph.graph();
                let induced = Subgraph::induced(&g, comp.subgraph.parent_ids());
                prop_assert_eq!(induced.parent_ids(), comp.subgraph.parent_ids());
                prop_assert_eq!(layout(induced.graph()), layout(sub));
                let contracted = QuotientGraph::contract(sub, comp.quotient.grouping().clone());
                prop_assert_eq!(contracted.grouping(), comp.quotient.grouping());
                prop_assert_eq!(layout(contracted.graph()), layout(comp.quotient.graph()));
                prop_assert_eq!(
                    contracted.absorbed_weight().to_bits(),
                    comp.quotient.absorbed_weight().to_bits()
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial(g in arb_spec()) {
        let serial = Compressor::new(CompressionConfig::default().parallel(false)).compress(&g);
        let parallel = Compressor::new(CompressionConfig::default().parallel(true)).compress(&g);
        prop_assert_eq!(serial.stats, parallel.stats);
    }
}
