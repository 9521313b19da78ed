//! Connected-component labelling.
//!
//! The paper's compression stage (§III-A "Graph Partition") splits the
//! function data-flow graph at component boundaries before any label
//! propagation runs, so component discovery is a first-class operation.

use crate::{Graph, NodeId};

/// The result of a connected-components pass: a dense component id per
/// labelled node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabeling {
    /// Component of each node; [`OUTSIDE`] for the nodes a filter left
    /// out.
    component_of: Vec<u32>,
    count: usize,
}

/// Marks a node [`ComponentLabeling::compute_where`] left out.
const OUTSIDE: u32 = u32::MAX;

impl ComponentLabeling {
    /// Labels the connected components of `g` with a breadth-first
    /// sweep; component ids are dense in `0..count`, numbered in order
    /// of their smallest node id.
    pub fn compute(g: &Graph) -> Self {
        Self::compute_where(g, |_| true)
    }

    /// Labels the connected components of the sub-graph of `g` induced
    /// on the nodes `keep` accepts, numbered as
    /// [`compute`](Self::compute) numbers them; the other nodes belong
    /// to no component.
    pub fn compute_where(g: &Graph, keep: impl Fn(NodeId) -> bool) -> Self {
        const UNVISITED: u32 = OUTSIDE - 1;
        let mut component_of: Vec<u32> = g
            .node_ids()
            .map(|n| if keep(n) { UNVISITED } else { OUTSIDE })
            .collect();
        let mut count = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for start in g.node_ids() {
            if component_of[start.index()] != UNVISITED {
                continue;
            }
            let id = u32::try_from(count)
                .ok()
                .filter(|&id| id < UNVISITED)
                .expect("component count exceeds u32");
            component_of[start.index()] = id;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for nb in g.neighbors(u) {
                    let slot = &mut component_of[nb.node.index()];
                    if *slot == UNVISITED {
                        *slot = id;
                        queue.push_back(nb.node);
                    }
                }
            }
            count += 1;
        }
        ComponentLabeling {
            component_of,
            count,
        }
    }

    /// Number of connected components.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component id of node `n`, or `None` for a node the labelling
    /// left out.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds for the labelled graph.
    #[inline]
    pub fn component_of(&self, n: NodeId) -> Option<usize> {
        let c = self.component_of[n.index()];
        (c != OUTSIDE).then_some(c as usize)
    }

    /// `true` when `a` and `b` are in the same component.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    #[inline]
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        let c = self.component_of(a);
        c.is_some() && c == self.component_of(b)
    }

    /// Groups node ids by component: `result[c]` lists the members of
    /// component `c` in ascending node order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = self.sizes().into_iter().map(Vec::with_capacity).collect();
        for (i, &c) in self.component_of.iter().enumerate() {
            if c != OUTSIDE {
                out[c as usize].push(NodeId::new(i));
            }
        }
        out
    }

    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component_of {
            if c != OUTSIDE {
                sizes[c as usize] += 1;
            }
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles_and_isolate() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..7).map(|_| b.add_node(1.0)).collect();
        // triangle A: 0-1-2
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 1.0).unwrap();
        b.add_edge(n[2], n[0], 1.0).unwrap();
        // triangle B: 3-4-5
        b.add_edge(n[3], n[4], 1.0).unwrap();
        b.add_edge(n[4], n[5], 1.0).unwrap();
        b.add_edge(n[5], n[3], 1.0).unwrap();
        // node 6 isolated
        b.build()
    }

    #[test]
    fn finds_three_components() {
        let g = two_triangles_and_isolate();
        let c = ComponentLabeling::compute(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.sizes(), vec![3, 3, 1]);
    }

    #[test]
    fn component_ids_follow_smallest_member() {
        let g = two_triangles_and_isolate();
        let c = ComponentLabeling::compute(&g);
        assert_eq!(c.component_of(NodeId::new(0)), Some(0));
        assert_eq!(c.component_of(NodeId::new(4)), Some(1));
        assert_eq!(c.component_of(NodeId::new(6)), Some(2));
    }

    #[test]
    fn same_component_relation() {
        let g = two_triangles_and_isolate();
        let c = ComponentLabeling::compute(&g);
        assert!(c.same_component(NodeId::new(0), NodeId::new(2)));
        assert!(!c.same_component(NodeId::new(0), NodeId::new(3)));
        assert!(!c.same_component(NodeId::new(5), NodeId::new(6)));
    }

    #[test]
    fn members_partition_the_node_set() {
        let g = two_triangles_and_isolate();
        let c = ComponentLabeling::compute(&g);
        let members = c.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
        assert_eq!(members[2], vec![NodeId::new(6)]);
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = GraphBuilder::new().build();
        let c = ComponentLabeling::compute(&g);
        assert_eq!(c.count(), 0);
        assert!(c.members().is_empty());
    }

    #[test]
    fn filtered_nodes_belong_to_no_component() {
        // path 0-1-2-3 without node 1: components {0} and {2, 3}
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 1.0).unwrap();
        }
        let g = b.build();
        let c = ComponentLabeling::compute_where(&g, |v| v != n[1]);
        assert_eq!(c.count(), 2);
        assert_eq!(c.component_of(n[1]), None);
        assert_eq!(c.component_of(n[3]), Some(1));
        assert!(!c.same_component(n[1], n[1]));
        assert!(!c.same_component(n[0], n[2]));
        assert_eq!(c.sizes(), vec![1, 2]);
        assert_eq!(c.members(), vec![vec![n[0]], vec![n[2], n[3]]]);
    }

    #[test]
    fn edges_never_cross_components() {
        let g = two_triangles_and_isolate();
        let c = ComponentLabeling::compute(&g);
        for e in g.edges() {
            assert!(c.same_component(e.source, e.target));
        }
    }
}
