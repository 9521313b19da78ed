//! Quotient (merge) graphs — the output of the compression stage.
//!
//! After label propagation, directly-connected nodes sharing a label are
//! merged into one super-node (paper §III-A "Compression"). A
//! [`QuotientGraph`] is the merged graph plus the grouping that produced
//! it, so cut decisions on super-nodes can be expanded back onto the
//! original functions.

use crate::{Bipartition, Graph, GraphBuilder, NodeId, Side};

/// A mapping of original nodes onto merge groups.
///
/// Groups are dense ids `0..group_count`; every original node belongs
/// to exactly one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeGrouping {
    group_of: Vec<u32>,
    group_count: usize,
}

impl NodeGrouping {
    /// Builds a grouping from a per-node group id vector.
    ///
    /// Group ids need not be dense; they are renumbered to
    /// `0..group_count` preserving first-appearance order.
    ///
    /// # Panics
    ///
    /// Panics if group ids overflow `u32`.
    pub fn from_raw(raw: &[usize]) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut group_of = Vec::with_capacity(raw.len());
        for &r in raw {
            let next = remap.len();
            let id = *remap.entry(r).or_insert(next);
            group_of.push(u32::try_from(id).expect("group id exceeds u32"));
        }
        NodeGrouping {
            group_of,
            group_count: remap.len(),
        }
    }

    /// The identity grouping: every node is its own group.
    pub fn identity(node_count: usize) -> Self {
        NodeGrouping {
            group_of: (0..node_count)
                .map(|i| u32::try_from(i).expect("node count exceeds u32"))
                .collect(),
            group_count: node_count,
        }
    }

    /// Number of groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Number of original nodes covered.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.group_of.len()
    }

    /// Group id of original node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn group_of(&self, n: NodeId) -> usize {
        self.group_of[n.index()] as usize
    }

    /// Lists members of each group in ascending node order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.group_count];
        for (i, &g) in self.group_of.iter().enumerate() {
            out[g as usize].push(NodeId::new(i));
        }
        out
    }
}

/// A merged graph: one node per group, node weights summed, edge
/// weights between groups aggregated, intra-group edges dropped.
#[derive(Debug, Clone)]
pub struct QuotientGraph {
    graph: Graph,
    grouping: NodeGrouping,
    /// Communication weight that disappeared inside groups.
    absorbed_weight: f64,
}

impl QuotientGraph {
    /// Contracts `parent` according to `grouping`.
    ///
    /// A merged super-node is offloadable only if *all* its members are
    /// (a pinned function pins the whole merge group to the device).
    ///
    /// # Panics
    ///
    /// Panics if `grouping` does not cover exactly the nodes of
    /// `parent`.
    pub fn contract(parent: &Graph, grouping: NodeGrouping) -> Self {
        assert_eq!(
            grouping.node_count(),
            parent.node_count(),
            "grouping covers {} nodes but graph has {}",
            grouping.node_count(),
            parent.node_count()
        );
        let k = grouping.group_count();
        let mut weights = vec![0.0f64; k];
        let mut offloadable = vec![true; k];
        for n in parent.node_ids() {
            let g = grouping.group_of(n);
            weights[g] += parent.node_weight(n);
            offloadable[g] &= parent.is_offloadable(n);
        }
        let mut b = GraphBuilder::with_capacity(k, parent.edge_count());
        for g in 0..k {
            b.try_add_node(weights[g], offloadable[g])
                .expect("summed weights are finite and non-negative");
        }
        let mut absorbed = 0.0;
        for e in parent.edges() {
            let ga = grouping.group_of(e.source);
            let gb = grouping.group_of(e.target);
            if ga == gb {
                absorbed += e.weight;
            } else {
                // default Sum policy aggregates parallel group edges.
                b.add_edge(NodeId::new(ga), NodeId::new(gb), e.weight)
                    .expect("group edges are validated");
            }
        }
        QuotientGraph {
            graph: b.build(),
            grouping,
            absorbed_weight: absorbed,
        }
    }

    /// The contracted graph (one node per group).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The grouping used for contraction.
    #[inline]
    pub fn grouping(&self) -> &NodeGrouping {
        &self.grouping
    }

    /// Total edge weight that became internal to groups (and therefore
    /// can never be cut — the point of compression).
    #[inline]
    pub fn absorbed_weight(&self) -> f64 {
        self.absorbed_weight
    }

    /// Expands a bipartition of the quotient graph onto the original
    /// node set: every member inherits its group's side.
    ///
    /// # Panics
    ///
    /// Panics if `quotient_cut` does not cover the quotient graph.
    pub fn expand(&self, quotient_cut: &Bipartition) -> Bipartition {
        assert!(quotient_cut.len() >= self.graph.node_count());
        Bipartition::from_fn(self.grouping.node_count(), |i| {
            quotient_cut.side(NodeId::new(self.grouping.group_of(NodeId::new(i))))
        })
    }

    /// Expands per-group sides given as a slice indexed by group id.
    ///
    /// # Panics
    ///
    /// Panics if `sides` is shorter than the group count.
    pub fn expand_sides(&self, sides: &[Side]) -> Bipartition {
        assert!(sides.len() >= self.grouping.group_count());
        Bipartition::from_fn(self.grouping.node_count(), |i| {
            sides[self.grouping.group_of(NodeId::new(i))]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn square() -> Graph {
        // 0-1, 1-2, 2-3, 3-0 cycle with distinct weights
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node((i + 1) as f64)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[3], 3.0).unwrap();
        b.add_edge(n[3], n[0], 4.0).unwrap();
        b.build()
    }

    #[test]
    fn grouping_renumbers_densely() {
        let g = NodeGrouping::from_raw(&[7, 7, 3, 9]);
        assert_eq!(g.group_count(), 3);
        assert_eq!(g.group_of(NodeId::new(0)), 0);
        assert_eq!(g.group_of(NodeId::new(1)), 0);
        assert_eq!(g.group_of(NodeId::new(2)), 1);
        assert_eq!(g.group_of(NodeId::new(3)), 2);
    }

    #[test]
    fn identity_grouping_is_one_to_one() {
        let g = NodeGrouping::identity(3);
        assert_eq!(g.group_count(), 3);
        for i in 0..3 {
            assert_eq!(g.group_of(NodeId::new(i)), i);
        }
    }

    #[test]
    fn contract_merges_weights_and_edges() {
        let g = square();
        // merge {0,1} and {2,3}
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 0, 1, 1]));
        assert_eq!(q.graph().node_count(), 2);
        assert_eq!(q.graph().node_weight(NodeId::new(0)), 3.0);
        assert_eq!(q.graph().node_weight(NodeId::new(1)), 7.0);
        // inter-group edges 1-2 (2.0) and 3-0 (4.0) collapse to one edge 6.0
        assert_eq!(q.graph().edge_count(), 1);
        assert_eq!(q.graph().total_edge_weight(), 6.0);
        // intra-group edges 0-1 (1.0) and 2-3 (3.0) absorbed
        assert_eq!(q.absorbed_weight(), 4.0);
    }

    #[test]
    fn contract_conserves_total_weights() {
        let g = square();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 1, 0, 1]));
        assert_eq!(q.graph().total_node_weight(), g.total_node_weight());
        assert!(
            (q.graph().total_edge_weight() + q.absorbed_weight() - g.total_edge_weight()).abs()
                < 1e-12
        );
    }

    #[test]
    fn pinned_member_pins_group() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let c = b.add_pinned_node(1.0);
        let d = b.add_node(1.0);
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, d, 1.0).unwrap();
        let g = b.build();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 0, 1]));
        assert!(!q.graph().is_offloadable(NodeId::new(0)));
        assert!(q.graph().is_offloadable(NodeId::new(1)));
    }

    #[test]
    fn expand_propagates_sides_to_members() {
        let g = square();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 0, 1, 1]));
        let cut = Bipartition::from_sides(vec![Side::Local, Side::Remote]);
        let full = q.expand(&cut);
        assert_eq!(full.side(NodeId::new(0)), Side::Local);
        assert_eq!(full.side(NodeId::new(1)), Side::Local);
        assert_eq!(full.side(NodeId::new(2)), Side::Remote);
        assert_eq!(full.side(NodeId::new(3)), Side::Remote);
        // the expanded cut weight equals the quotient cut weight
        assert_eq!(full.cut_weight(&g), cut.cut_weight(q.graph()));
    }

    #[test]
    fn expand_sides_slice_variant() {
        let g = square();
        let q = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 1, 1, 0]));
        let full = q.expand_sides(&[Side::Remote, Side::Local]);
        assert_eq!(full.side(NodeId::new(0)), Side::Remote);
        assert_eq!(full.side(NodeId::new(3)), Side::Remote);
        assert_eq!(full.side(NodeId::new(1)), Side::Local);
    }

    #[test]
    #[should_panic(expected = "grouping covers")]
    fn contract_rejects_mismatched_grouping() {
        let g = square();
        let _ = QuotientGraph::contract(&g, NodeGrouping::from_raw(&[0, 0]));
    }
}
