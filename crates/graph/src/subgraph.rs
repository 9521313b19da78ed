//! Induced sub-graphs with bidirectional node mappings.
//!
//! The compression stage processes each connected component as its own
//! graph (paper Algorithm 1, `componentSplit`); [`Subgraph`] carries the
//! extracted graph together with the mapping back into the parent.

use crate::builder::validate_weight;
use crate::graph::EdgeData;
use crate::{ComponentLabeling, EdgeRef, Graph, GraphBuilder, NodeId};

/// Sentinel marking "not in the subset" in dense parent → local maps.
const OUTSIDE: u32 = u32::MAX;

/// A graph induced on a subset of a parent graph's nodes, remembering
/// where every node came from.
#[derive(Debug, Clone)]
pub struct Subgraph {
    graph: Graph,
    /// `to_parent[i]` is the parent node that became local node `i`.
    to_parent: Vec<NodeId>,
}

impl Subgraph {
    /// Extracts the sub-graph of `parent` induced on `nodes`.
    ///
    /// Nodes keep their weights and offloadability; every parent edge
    /// with both endpoints in `nodes` is kept with its weight. Local
    /// node ids follow the order of `nodes`.
    ///
    /// Duplicate entries in `nodes` are ignored after their first
    /// occurrence.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `nodes` is out of bounds for `parent`.
    pub fn induced(parent: &Graph, nodes: &[NodeId]) -> Self {
        // dense parent → local map: O(1) lookups with no hashing in the
        // edge scan
        let mut to_local = vec![OUTSIDE; parent.node_count()];
        let mut to_parent = Vec::with_capacity(nodes.len());
        let mut b = GraphBuilder::with_capacity(nodes.len(), nodes.len());
        for &p in nodes {
            if to_local[p.index()] != OUTSIDE {
                continue;
            }
            let local = b
                .try_add_node(parent.node_weight(p), parent.is_offloadable(p))
                .expect("parent graph holds validated weights");
            to_local[p.index()] = u32::try_from(local.index()).expect("node index exceeds u32");
            to_parent.push(p);
        }
        for e in parent.edges() {
            let (la, lb) = (to_local[e.source.index()], to_local[e.target.index()]);
            if la != OUTSIDE && lb != OUTSIDE {
                b.add_edge(NodeId::new(la as usize), NodeId::new(lb as usize), e.weight)
                    .expect("parent edges are validated and distinct");
            }
        }
        Subgraph {
            graph: b.build(),
            to_parent,
        }
    }

    /// Splits the sub-graph of `parent` induced on the nodes `keep`
    /// accepts into one sub-graph per connected component, with ids
    /// mapped to `parent`, without building that sub-graph first; a
    /// `keep` that accepts every node splits `parent` itself.
    ///
    /// Pieces are ordered by component id
    /// ([`ComponentLabeling::compute_where`] numbers components by
    /// their smallest node id); each lists its members in ascending
    /// parent order and its edges in parent edge order, as
    /// [`Subgraph::induced`] on its members would. `parent` is valid,
    /// so its edges are distinct and are copied into their pieces with
    /// no map to merge them; only the per-node and per-edge weight and
    /// self-loop checks stay. Two passes over the edges count and copy
    /// them (edges never straddle components), so the split costs
    /// `O(V + E)` and one exact allocation per piece and array.
    pub fn split_components_where(parent: &Graph, keep: impl Fn(NodeId) -> bool) -> Vec<Subgraph> {
        let labeling = ComponentLabeling::compute_where(parent, keep);
        let members = labeling.members();
        // local id of each kept node: its rank among its component's
        // members (left-out nodes are never looked up)
        let mut to_local = vec![0usize; parent.node_count()];
        for mem in &members {
            for (local, p) in mem.iter().enumerate() {
                to_local[p.index()] = local;
            }
        }
        // an edge stays when both endpoints do, and then joins their
        // common component
        let component = |e: &EdgeRef| {
            labeling
                .component_of(e.source)
                .filter(|_| labeling.component_of(e.target).is_some())
        };
        let mut edge_counts = vec![0usize; members.len()];
        for e in parent.edges() {
            if let Some(c) = component(&e) {
                edge_counts[c] += 1;
            }
        }
        let mut edges: Vec<Vec<EdgeData>> =
            edge_counts.into_iter().map(Vec::with_capacity).collect();
        for e in parent.edges() {
            if let Some(c) = component(&e) {
                assert!(e.source != e.target, "parent graph holds no self-loop");
                validate_weight(e.weight).expect("parent graph holds validated weights");
                edges[c].push(EdgeData {
                    a: NodeId::new(to_local[e.source.index()]),
                    b: NodeId::new(to_local[e.target.index()]),
                    weight: e.weight,
                });
            }
        }
        members
            .into_iter()
            .zip(edges)
            .map(|(to_parent, edges)| {
                let weights = to_parent
                    .iter()
                    .map(|&p| {
                        let weight = parent.node_weight(p);
                        validate_weight(weight).expect("parent graph holds validated weights");
                        weight
                    })
                    .collect();
                let offloadable = to_parent
                    .iter()
                    .map(|&p| parent.is_offloadable(p))
                    .collect();
                Subgraph {
                    graph: Graph::from_parts(weights, offloadable, edges),
                    to_parent,
                }
            })
            .collect()
    }

    /// The extracted graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the extracted graph (weights / flags only —
    /// the structure is immutable).
    #[inline]
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Number of nodes in the sub-graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Maps a local node id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    #[inline]
    pub fn parent_of(&self, local: NodeId) -> NodeId {
        self.to_parent[local.index()]
    }

    /// The full local → parent mapping, indexed by local id.
    #[inline]
    pub fn parent_ids(&self) -> &[NodeId] {
        &self.to_parent
    }

    /// Consumes the sub-graph, returning the graph and the mapping.
    pub fn into_parts(self) -> (Graph, Vec<NodeId>) {
        (self.graph, self.to_parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // component 0: 0-1-2 path; component 1: 3-4 edge
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|i| b.add_node(i as f64 * 10.0)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[3], n[4], 3.0).unwrap();
        b.build()
    }

    #[test]
    fn induced_keeps_weights_and_inner_edges() {
        let g = sample();
        let s = Subgraph::induced(&g, &[NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        assert_eq!(s.node_count(), 3);
        // only edge 1-2 survives (3 has no partner inside).
        assert_eq!(s.graph().edge_count(), 1);
        assert_eq!(s.graph().total_edge_weight(), 2.0);
        assert_eq!(s.graph().node_weight(NodeId::new(0)), 10.0);
        assert_eq!(s.parent_of(NodeId::new(0)), NodeId::new(1));
        assert_eq!(s.parent_of(NodeId::new(2)), NodeId::new(3));
    }

    #[test]
    fn induced_ignores_duplicates() {
        let g = sample();
        let s = Subgraph::induced(&g, &[NodeId::new(0), NodeId::new(0), NodeId::new(1)]);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.graph().edge_count(), 1);
    }

    #[test]
    fn induced_preserves_offloadability() {
        let mut b = GraphBuilder::new();
        let a = b.add_pinned_node(1.0);
        let c = b.add_node(2.0);
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build();
        let s = Subgraph::induced(&g, &[a, c]);
        assert!(!s.graph().is_offloadable(NodeId::new(0)));
        assert!(s.graph().is_offloadable(NodeId::new(1)));
    }

    #[test]
    fn split_components_covers_everything() {
        let g = sample();
        let parts = Subgraph::split_components_where(&g, |_| true);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].node_count(), 3);
        assert_eq!(parts[1].node_count(), 2);
        let total_nodes: usize = parts.iter().map(Subgraph::node_count).sum();
        assert_eq!(total_nodes, g.node_count());
        let total_edges: usize = parts.iter().map(|s| s.graph().edge_count()).sum();
        assert_eq!(total_edges, g.edge_count());
        for p in &parts {
            assert!(p.graph().is_connected());
        }
    }

    #[test]
    fn into_parts_returns_mapping() {
        let g = sample();
        let s = Subgraph::induced(&g, &[NodeId::new(4), NodeId::new(3)]);
        let (sub, map) = s.into_parts();
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![NodeId::new(4), NodeId::new(3)]);
    }

    #[test]
    fn empty_selection_yields_empty_graph() {
        let g = sample();
        let s = Subgraph::induced(&g, &[]);
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.graph().edge_count(), 0);
    }
}
