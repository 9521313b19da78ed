//! The weighted undirected function data-flow graph.

use crate::builder::validate_weight;
use crate::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// One endpoint-adjacency entry: the neighbouring node together with the
/// edge that connects to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborRef {
    /// The adjacent node.
    pub node: NodeId,
    /// The undirected edge joining the two nodes.
    pub edge: EdgeId,
}

/// A borrowed view of an edge: its id, endpoints and weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Edge id inside the owning graph.
    pub id: EdgeId,
    /// First endpoint (lower insertion order).
    pub source: NodeId,
    /// Second endpoint.
    pub target: NodeId,
    /// Communication amount carried by the edge.
    pub weight: f64,
}

impl EdgeRef {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.source {
            self.target
        } else if n == self.target {
            self.source
        } else {
            panic!("{n} is not an endpoint of edge {}", self.id)
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EdgeData {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) weight: f64,
}

/// A weighted, undirected function data-flow graph (paper §II).
///
/// *Nodes* are functions carrying a non-negative computation weight and
/// an *offloadable* flag (functions reading sensors or local I/O must
/// run on the device — paper §II calls them "unoffloaded functions").
/// *Edges* carry the amount of data exchanged between the two functions.
///
/// Graphs are constructed through [`GraphBuilder`](crate::GraphBuilder),
/// which validates weights and edge endpoints, or deserialized under
/// the same rules; once built, the structure is immutable except for
/// node weights and offloadability flags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "GraphRepr", into = "GraphRepr")]
pub struct Graph {
    node_weights: Vec<f64>,
    offloadable: Vec<bool>,
    edges: Vec<EdgeData>,
    /// Node `n`'s adjacency is `neighbors[offsets[n]..offsets[n + 1]]`,
    /// in edge-insertion order.
    offsets: Vec<usize>,
    neighbors: Vec<NeighborRef>,
}

impl Graph {
    /// Assembles a graph from parts that already obey the builder's
    /// rules (in-range endpoints, no self-loop, no repeated pair, valid
    /// weights), filling the flat adjacency in one counting pass.
    pub(crate) fn from_parts(
        node_weights: Vec<f64>,
        offloadable: Vec<bool>,
        edges: Vec<EdgeData>,
    ) -> Self {
        debug_assert_eq!(node_weights.len(), offloadable.len());
        let n = node_weights.len();
        // offsets[v + 1] counts v's incident edges, then (prefix sums)
        // ends v's run of entries
        let mut offsets = vec![0usize; n + 1];
        for e in &edges {
            offsets[e.a.index() + 1] += 1;
            offsets[e.b.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // fill in edge order, with offsets[v] as v's cursor: each list
        // then holds its edges in insertion order, and every cursor
        // ends where the next run starts
        let placeholder = NeighborRef {
            node: NodeId::default(),
            edge: EdgeId::default(),
        };
        let mut neighbors = vec![placeholder; 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let edge = EdgeId::new(i);
            neighbors[offsets[e.a.index()]] = NeighborRef { node: e.b, edge };
            offsets[e.a.index()] += 1;
            neighbors[offsets[e.b.index()]] = NeighborRef { node: e.a, edge };
            offsets[e.b.index()] += 1;
        }
        // each cursor now sits at its run's end: shift them back to
        // starts
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Graph {
            node_weights,
            offloadable,
            edges,
            offsets,
            neighbors,
        }
    }

    /// Node `n`'s adjacency entries, in edge-insertion order.
    #[inline]
    fn adjacency(&self, n: NodeId) -> &[NeighborRef] {
        &self.neighbors[self.offsets[n.index()]..self.offsets[n.index() + 1]]
    }

    /// Number of nodes (functions).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_weights.is_empty()
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all edges as [`EdgeRef`] views, in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| EdgeRef {
            id: EdgeId::new(i),
            source: e.a,
            target: e.b,
            weight: e.weight,
        })
    }

    /// Returns the computation weight of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn node_weight(&self, n: NodeId) -> f64 {
        self.node_weights[n.index()]
    }

    /// Overwrites the computation weight of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds or `weight` is negative/non-finite.
    pub fn set_node_weight(&mut self, n: NodeId, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "node weight must be finite and non-negative, got {weight}"
        );
        self.node_weights[n.index()] = weight;
    }

    /// `true` if function `n` may be offloaded to the edge server.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn is_offloadable(&self, n: NodeId) -> bool {
        self.offloadable[n.index()]
    }

    /// Marks function `n` as offloadable (`true`) or pinned to the
    /// device (`false`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn set_offloadable(&mut self, n: NodeId, offloadable: bool) {
        self.offloadable[n.index()] = offloadable;
    }

    /// Returns the communication weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight
    }

    /// Returns both endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let d = &self.edges[e.index()];
        (d.a, d.b)
    }

    /// Iterates over the neighbours of node `n` (with the connecting
    /// edge), in edge-insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = NeighborRef> + '_ {
        self.adjacency(n).iter().copied()
    }

    /// Number of edges incident to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.offsets[n.index() + 1] - self.offsets[n.index()]
    }

    /// Sum of weights of the edges incident to `n` (the node's
    /// *coupling volume* — the paper uses edge weight as the coupling
    /// degree between two functions).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    pub fn weighted_degree(&self, n: NodeId) -> f64 {
        self.adjacency(n)
            .iter()
            .map(|nb| self.edge_weight(nb.edge))
            .sum()
    }

    /// Total computation weight over all nodes.
    pub fn total_node_weight(&self) -> f64 {
        self.node_weights.iter().sum()
    }

    /// Total communication weight over all edges.
    pub fn total_edge_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Looks up the edge joining `a` and `b`, if any.
    ///
    /// Scans the shorter of the two adjacency lists, so this is
    /// `O(min(deg(a), deg(b)))`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        let (probe, goal) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency(probe)
            .iter()
            .find(|nb| nb.node == goal)
            .map(|nb| nb.edge)
    }

    /// The node with the largest degree, breaking ties by lowest id;
    /// `None` for an empty graph. The paper's label propagation starts
    /// from this node (§III-A "Label initialization and propagation").
    pub fn max_degree_node(&self) -> Option<NodeId> {
        (0..self.node_count())
            .max_by(|&a, &b| {
                self.degree(NodeId::new(a))
                    .cmp(&self.degree(NodeId::new(b)))
                    .then(b.cmp(&a))
            })
            .map(NodeId::new)
    }

    /// `true` when every node is reachable from every other (or the
    /// graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        let labeling = crate::components::ComponentLabeling::compute(self);
        labeling.count() == 1
    }

    /// Validates internal invariants; used by tests and debug builds.
    ///
    /// Returns a description of the first violated invariant, if any:
    /// a rule the builder enforces (equal node arrays, finite
    /// non-negative weights, in-range endpoints, no self-loop, no
    /// repeated node pair) or an adjacency entry that disagrees with
    /// the edge list.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_parts(&self.node_weights, &self.offloadable, &self.edges)?;
        if self.offsets.len() != self.node_count() + 1
            || self.offsets[self.node_count()] != self.neighbors.len()
            || self.neighbors.len() != 2 * self.edge_count()
        {
            return Err("adjacency length mismatch".into());
        }
        // the reference order: both endpoints of each edge, edges in
        // insertion order
        let mut seen = vec![0usize; self.node_count()];
        for (i, e) in self.edges.iter().enumerate() {
            let edge = EdgeId::new(i);
            for (at, other) in [(e.a, e.b), (e.b, e.a)] {
                let slot = self.offsets[at.index()] + seen[at.index()];
                let expected = NeighborRef { node: other, edge };
                if slot >= self.offsets[at.index() + 1] || self.neighbors[slot] != expected {
                    return Err(format!(
                        "adjacency list of node {} is inconsistent",
                        at.index()
                    ));
                }
                seen[at.index()] += 1;
            }
        }
        Ok(())
    }
}

/// The builder's rules over a graph's raw parts: node arrays of equal
/// length, finite non-negative node and edge weights, in-range
/// endpoints, no self-loop and no repeated node pair. Returns a
/// description of the first violation.
fn check_parts(
    node_weights: &[f64],
    offloadable: &[bool],
    edges: &[EdgeData],
) -> Result<(), String> {
    if node_weights.len() != offloadable.len() {
        return Err("node weight / offloadable length mismatch".into());
    }
    for (n, &w) in node_weights.iter().enumerate() {
        validate_weight(w).map_err(|err| format!("node {n}: {err}"))?;
    }
    let n = node_weights.len();
    let mut pairs = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        if e.a.index() >= n || e.b.index() >= n {
            return Err(format!("edge {i} has out-of-range endpoint"));
        }
        if e.a == e.b {
            return Err(format!("edge {i} is a self-loop"));
        }
        validate_weight(e.weight).map_err(|err| format!("edge {i}: {err}"))?;
        pairs.push((e.a.min(e.b), e.a.max(e.b)));
    }
    pairs.sort_unstable();
    if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("edge {}-{} is repeated", w[0].0, w[0].1));
    }
    Ok(())
}

/// Serialisable mirror of [`Graph`] — node arrays plus the edge list.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GraphRepr {
    node_weights: Vec<f64>,
    offloadable: Vec<bool>,
    edges: Vec<EdgeData>,
}

/// Deserialization holds the parts to the builder's rules, so every
/// `Graph` value is valid: the sub-graph constructors copy a parent's
/// edges without the builder's edge map, which finds no repeated pair
/// in a valid parent.
impl TryFrom<GraphRepr> for Graph {
    type Error = String;

    fn try_from(r: GraphRepr) -> Result<Self, String> {
        check_parts(&r.node_weights, &r.offloadable, &r.edges)?;
        Ok(Graph::from_parts(r.node_weights, r.offloadable, r.edges))
    }
}

impl From<Graph> for GraphRepr {
    fn from(g: Graph) -> Self {
        GraphRepr {
            node_weights: g.node_weights,
            offloadable: g.offloadable,
            edges: g.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, NodeId};

    fn diamond() -> crate::Graph {
        // 0 - 1
        // | X |   (0-1, 0-2, 1-2, 1-3, 2-3)
        // 2 - 3
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node(i as f64 + 1.0)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[0], n[2], 2.0).unwrap();
        b.add_edge(n[1], n[2], 3.0).unwrap();
        b.add_edge(n[1], n[3], 4.0).unwrap();
        b.add_edge(n[2], n[3], 5.0).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_totals() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.total_node_weight(), 10.0);
        assert_eq!(g.total_edge_weight(), 15.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn degrees_and_weighted_degrees() {
        let g = diamond();
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(1)), 3);
        assert_eq!(g.weighted_degree(NodeId::new(3)), 9.0);
        assert_eq!(g.weighted_degree(NodeId::new(0)), 3.0);
    }

    #[test]
    fn edge_between_finds_edges_both_ways() {
        let g = diamond();
        let e = g.edge_between(NodeId::new(1), NodeId::new(3)).unwrap();
        assert_eq!(g.edge_weight(e), 4.0);
        let e2 = g.edge_between(NodeId::new(3), NodeId::new(1)).unwrap();
        assert_eq!(e, e2);
        assert!(g.edge_between(NodeId::new(0), NodeId::new(3)).is_none());
    }

    #[test]
    fn neighbors_cover_all_incident_edges() {
        let g = diamond();
        let nbrs: Vec<_> = g.neighbors(NodeId::new(1)).map(|nb| nb.node).collect();
        assert_eq!(nbrs.len(), 3);
        for n in [0, 2, 3] {
            assert!(nbrs.contains(&NodeId::new(n)));
        }
    }

    #[test]
    fn edge_ref_other_endpoint() {
        let g = diamond();
        let e = g.edges().next().unwrap();
        assert_eq!(e.other(e.source), e.target);
        assert_eq!(e.other(e.target), e.source);
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn edge_ref_other_panics_on_foreign_node() {
        let g = diamond();
        let e = g.edges().next().unwrap();
        let _ = e.other(NodeId::new(3));
    }

    #[test]
    fn max_degree_node_prefers_lowest_id_on_tie() {
        let g = diamond();
        // nodes 1 and 2 both have degree 3; expect node 1.
        assert_eq!(g.max_degree_node(), Some(NodeId::new(1)));
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(1.0);
        let g2 = b.build();
        assert!(!g2.is_connected());
        let empty = GraphBuilder::new().build();
        assert!(empty.is_connected());
    }

    #[test]
    fn mutation_of_node_attributes() {
        let mut g = diamond();
        g.set_node_weight(NodeId::new(0), 7.5);
        assert_eq!(g.node_weight(NodeId::new(0)), 7.5);
        assert!(g.is_offloadable(NodeId::new(0)));
        g.set_offloadable(NodeId::new(0), false);
        assert!(!g.is_offloadable(NodeId::new(0)));
    }

    #[test]
    #[should_panic(expected = "node weight must be finite")]
    fn set_node_weight_rejects_nan() {
        let mut g = diamond();
        g.set_node_weight(NodeId::new(0), f64::NAN);
    }

    #[test]
    fn invariants_hold_for_builder_output() {
        assert_eq!(diamond().check_invariants(), Ok(()));
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: crate::Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        assert_eq!(back.check_invariants(), Ok(()));
    }

    #[test]
    fn deserialization_rejects_what_the_builder_rejects() {
        // each input breaks one builder rule; the first is well formed
        let valid = r#"{"node_weights":[1.0,2.0,3.0],"offloadable":[true,true,false],"edges":[{"a":0,"b":1,"weight":1.5},{"a":2,"b":1,"weight":2.0}]}"#;
        let back: crate::Graph = serde_json::from_str(valid).unwrap();
        assert_eq!(back.check_invariants(), Ok(()));
        let malformed = [
            (
                "negative node weight",
                r#"{"node_weights":[1.0,-2.0],"offloadable":[true,true],"edges":[]}"#,
            ),
            (
                "self-loop",
                r#"{"node_weights":[1.0,2.0],"offloadable":[true,true],"edges":[{"a":1,"b":1,"weight":1.0}]}"#,
            ),
            (
                "repeated pair",
                r#"{"node_weights":[1.0,2.0],"offloadable":[true,true],"edges":[{"a":0,"b":1,"weight":1.0},{"a":1,"b":0,"weight":3.0}]}"#,
            ),
            (
                "node arrays of different lengths",
                r#"{"node_weights":[1.0,2.0,3.0],"offloadable":[true,true],"edges":[]}"#,
            ),
            (
                "out-of-range endpoint",
                r#"{"node_weights":[1.0,2.0],"offloadable":[true,true],"edges":[{"a":0,"b":2,"weight":1.0}]}"#,
            ),
            (
                "negative edge weight",
                r#"{"node_weights":[1.0,2.0],"offloadable":[true,true],"edges":[{"a":0,"b":1,"weight":-1.0}]}"#,
            ),
        ];
        for (case, json) in malformed {
            assert!(
                serde_json::from_str::<crate::Graph>(json).is_err(),
                "{case} deserialized"
            );
        }
    }

    #[test]
    fn invariants_cover_node_weights_and_repeated_pairs() {
        use super::{EdgeData, Graph};
        let edge = |a: usize, b: usize| EdgeData {
            a: NodeId::new(a),
            b: NodeId::new(b),
            weight: 1.0,
        };
        let negative = Graph::from_parts(vec![1.0, -2.0], vec![true; 2], vec![edge(0, 1)]);
        assert!(negative.check_invariants().is_err());
        let repeated = Graph::from_parts(vec![1.0; 3], vec![true; 3], vec![edge(0, 1), edge(1, 0)]);
        assert!(repeated.check_invariants().is_err());
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Graph>();
    }
}
