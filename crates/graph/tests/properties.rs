//! Property-based tests over random graphs: structural invariants that
//! must hold for any input the generators can produce.

use mec_graph::{
    Bipartition, ComponentLabeling, CsrAdjacency, GraphBuilder, NodeGrouping, NodeId,
    QuotientGraph, Side, Subgraph,
};
use mec_linalg::SymOp;
use proptest::prelude::*;

/// A random graph spec: node weights plus a set of candidate edges.
fn arb_graph() -> impl Strategy<Value = mec_graph::Graph> {
    (2usize..40).prop_flat_map(|n| {
        let weights = proptest::collection::vec(0.0f64..100.0, n);
        let edges = proptest::collection::vec(((0..n), (0..n), 0.1f64..50.0), 0..(n * 3).min(120));
        (weights, edges).prop_map(move |(ws, es)| {
            let mut b = GraphBuilder::new();
            let ids: Vec<_> = ws.iter().map(|&w| b.add_node(w)).collect();
            for (a, c, w) in es {
                if a != c {
                    b.add_edge(ids[a], ids[c], w).unwrap();
                }
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn invariants_hold(g in arb_graph()) {
        prop_assert_eq!(g.check_invariants(), Ok(()));
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.node_ids().map(|n| g.degree(n)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        let wdeg_sum: f64 = g.node_ids().map(|n| g.weighted_degree(n)).sum();
        prop_assert!((wdeg_sum - 2.0 * g.total_edge_weight()).abs() < 1e-9);
    }

    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let c = ComponentLabeling::compute(&g);
        let sizes = c.sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), g.node_count());
        prop_assert!(sizes.iter().all(|&s| s > 0));
        for e in g.edges() {
            prop_assert!(c.same_component(e.source, e.target));
        }
    }

    #[test]
    fn component_split_preserves_totals(g in arb_graph()) {
        let parts = Subgraph::split_components_where(&g, |_| true);
        let nodes: usize = parts.iter().map(Subgraph::node_count).sum();
        let edges: usize = parts.iter().map(|p| p.graph().edge_count()).sum();
        let node_w: f64 = parts.iter().map(|p| p.graph().total_node_weight()).sum();
        let edge_w: f64 = parts.iter().map(|p| p.graph().total_edge_weight()).sum();
        prop_assert_eq!(nodes, g.node_count());
        prop_assert_eq!(edges, g.edge_count());
        prop_assert!((node_w - g.total_node_weight()).abs() < 1e-9);
        prop_assert!((edge_w - g.total_edge_weight()).abs() < 1e-9);
        for p in &parts {
            prop_assert!(p.graph().is_connected());
        }
    }

    #[test]
    fn split_of_a_subset_is_its_induced_components(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 40)) {
        let keep = |n: NodeId| mask[n.index() % mask.len()];
        let kept: Vec<NodeId> = g.node_ids().filter(|&n| keep(n)).collect();
        let pieces = Subgraph::split_components_where(&g, keep);
        let mut covered = Vec::new();
        for piece in &pieces {
            // members ascending; each piece is what its members induce,
            // and connected
            let ids = piece.parent_ids();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(piece.graph(), Subgraph::induced(&g, ids).graph());
            prop_assert!(piece.graph().is_connected());
            covered.extend_from_slice(ids);
        }
        // pieces come in order of their smallest member and partition
        // the kept nodes, and no kept edge joins two of them
        let firsts: Vec<NodeId> = pieces.iter().map(|p| p.parent_of(NodeId::new(0))).collect();
        prop_assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        covered.sort();
        prop_assert_eq!(&covered, &kept);
        let edges: usize = pieces.iter().map(|p| p.graph().edge_count()).sum();
        prop_assert_eq!(edges, Subgraph::induced(&g, &kept).graph().edge_count());
    }

    #[test]
    fn cut_weight_plus_uncut_weight_is_total(g in arb_graph(), mask in proptest::collection::vec(any::<bool>(), 40)) {
        let p = Bipartition::from_fn(g.node_count(), |i| {
            if mask[i % mask.len()] { Side::Local } else { Side::Remote }
        });
        let cut = p.cut_weight(&g);
        let uncut: f64 = g
            .edges()
            .filter(|e| p.side(e.source) == p.side(e.target))
            .map(|e| e.weight)
            .sum();
        prop_assert!((cut + uncut - g.total_edge_weight()).abs() < 1e-9);
        // complement partition has the same cut weight
        let comp = Bipartition::from_fn(g.node_count(), |i| p.side(NodeId::new(i)).flipped());
        prop_assert!((comp.cut_weight(&g) - cut).abs() < 1e-12);
    }

    #[test]
    fn quotient_conserves_weight(g in arb_graph(), groups in proptest::collection::vec(0usize..5, 40)) {
        let raw: Vec<usize> = (0..g.node_count()).map(|i| groups[i % groups.len()]).collect();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&raw));
        prop_assert!((q.graph().total_node_weight() - g.total_node_weight()).abs() < 1e-9);
        prop_assert!(
            (q.graph().total_edge_weight() + q.absorbed_weight() - g.total_edge_weight()).abs()
                < 1e-9
        );
        prop_assert_eq!(q.graph().check_invariants(), Ok(()));
    }

    #[test]
    fn quotient_expand_preserves_cut_weight(g in arb_graph(), groups in proptest::collection::vec(0usize..4, 40), mask in proptest::collection::vec(any::<bool>(), 8)) {
        let raw: Vec<usize> = (0..g.node_count()).map(|i| groups[i % groups.len()]).collect();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&raw));
        let qcut = Bipartition::from_fn(q.graph().node_count(), |i| {
            if mask[i % mask.len()] { Side::Local } else { Side::Remote }
        });
        let expanded = q.expand(&qcut);
        prop_assert!((expanded.cut_weight(&g) - qcut.cut_weight(q.graph())).abs() < 1e-9);
    }

    #[test]
    fn csr_laplacian_is_psd_on_samples(g in arb_graph(), xs in proptest::collection::vec(-10.0f64..10.0, 40)) {
        let csr = CsrAdjacency::build(&g);
        let n = g.node_count();
        let x: Vec<f64> = (0..n).map(|i| xs[i % xs.len()]).collect();
        let mut y = vec![0.0; n];
        csr.apply(&x, &mut y);
        let quad: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!(quad >= -1e-9, "Laplacian quadratic form must be non-negative, got {quad}");
    }

    #[test]
    fn induced_on_all_nodes_is_isomorphic(g in arb_graph()) {
        let all: Vec<_> = g.node_ids().collect();
        let s = Subgraph::induced(&g, &all);
        prop_assert_eq!(s.node_count(), g.node_count());
        prop_assert_eq!(s.graph().edge_count(), g.edge_count());
        prop_assert!((s.graph().total_edge_weight() - g.total_edge_weight()).abs() < 1e-9);
    }

    #[test]
    fn bfs_distances_are_consistent(g in arb_graph()) {
        let start = NodeId::new(0);
        let dist = g.bfs_distances(start);
        prop_assert_eq!(dist[0], Some(0));
        // triangle inequality over edges: |d(u) - d(v)| <= 1 when both reachable
        for e in g.edges() {
            if let (Some(du), Some(dv)) = (dist[e.source.index()], dist[e.target.index()]) {
                prop_assert!(du.abs_diff(dv) <= 1, "edge spans distance gap > 1");
            }
            // an edge never connects reachable and unreachable nodes
            prop_assert_eq!(
                dist[e.source.index()].is_some(),
                dist[e.target.index()].is_some()
            );
        }
        // eccentricity equals the max finite distance
        let max_d = dist.iter().flatten().copied().max().unwrap_or(0);
        prop_assert_eq!(g.eccentricity(start), max_d);
        // bfs_order covers every node exactly once
        let order = g.bfs_order(start);
        prop_assert_eq!(order.len(), g.node_count());
        let mut seen = vec![false; g.node_count()];
        for n in order {
            prop_assert!(!seen[n.index()]);
            seen[n.index()] = true;
        }
    }

    #[test]
    fn modularity_is_bounded_and_trivial_grouping_scores_zero(g in arb_graph(), groups in proptest::collection::vec(0usize..4, 40)) {
        if g.edge_count() == 0 {
            return Ok(());
        }
        let raw: Vec<usize> = (0..g.node_count()).map(|i| groups[i % groups.len()]).collect();
        let q = g.modularity(&NodeGrouping::from_raw(&raw));
        prop_assert!((-1.0..=1.0).contains(&q), "modularity {q} out of range");
        let everything = NodeGrouping::from_raw(&vec![0usize; g.node_count()]);
        prop_assert!(g.modularity(&everything).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip(g in arb_graph()) {
        let json = serde_json::to_string(&g).unwrap();
        let back: mec_graph::Graph = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(g, back);
    }
}
