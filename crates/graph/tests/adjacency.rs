//! The flat adjacency lists each node's neighbours in edge-insertion
//! order: node `n`'s entries are exactly the edges touching `n`, in the
//! order [`Graph::edges`] yields them, each paired with its other
//! endpoint.

use mec_graph::{Graph, GraphBuilder, NeighborRef, NodeId};
use mec_netgen::NetgenSpec;

/// Node `n`'s adjacency rebuilt from the edge list.
fn reference(g: &Graph, n: NodeId) -> Vec<NeighborRef> {
    g.edges()
        .filter(|e| e.source == n || e.target == n)
        .map(|e| NeighborRef {
            node: e.other(n),
            edge: e.id,
        })
        .collect()
}

fn assert_insertion_order(g: &Graph) {
    for n in g.node_ids() {
        let expected = reference(g, n);
        let got: Vec<NeighborRef> = g.neighbors(n).collect();
        assert_eq!(got, expected, "neighbours of {n}");
        assert_eq!(g.degree(n), expected.len(), "degree of {n}");
        let weighted: f64 = expected.iter().map(|nb| g.edge_weight(nb.edge)).sum();
        assert_eq!(
            g.weighted_degree(n).to_bits(),
            weighted.to_bits(),
            "weighted degree of {n}"
        );
    }
    assert_eq!(g.check_invariants(), Ok(()));
}

#[test]
fn neighbours_follow_edge_insertion_order_on_seeded_netgen_graphs() {
    for (nodes, edges) in [(24, 116), (250, 1214), (1000, 4912)] {
        for seed in 0..4 {
            let g = NetgenSpec::new(nodes, edges)
                .seed(seed)
                .generate()
                .expect("generable spec");
            assert_insertion_order(&g);
        }
    }
}

#[test]
fn neighbours_follow_edge_insertion_order_around_isolated_nodes() {
    // isolated nodes first, between and last; edges added in an order
    // that is neither sorted by endpoint nor by weight
    let mut b = GraphBuilder::new();
    let n: Vec<_> = (0..9).map(|i| b.add_node(i as f64)).collect();
    for (a, c, w) in [
        (5, 1, 2.0),
        (1, 3, 0.5),
        (7, 5, 1.0),
        (3, 5, 4.0),
        (1, 7, 3.0),
    ] {
        b.add_edge(n[a], n[c], w).unwrap();
    }
    let g = b.build();
    for isolated in [0, 2, 4, 6, 8] {
        assert_eq!(g.degree(n[isolated]), 0);
    }
    assert_insertion_order(&g);
}

#[test]
fn the_empty_graph_has_no_adjacency() {
    let g = GraphBuilder::new().build();
    assert_insertion_order(&g);
    assert_eq!(g.max_degree_node(), None);
}
