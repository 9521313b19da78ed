//! Validated construction of [`Graph`]s.

use crate::graph::EdgeData;
use crate::{EdgeId, Graph, GraphError, NodeId};
use std::collections::HashMap;

/// What to do when an edge between an already-connected node pair is
/// added again.
///
/// Function data-flow graphs aggregate *all* data exchanged between two
/// functions onto one edge, so the default policy sums the weights
/// (paper Fig. 1: one edge per calling relationship, weight = data
/// volume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelEdgePolicy {
    /// Add the new weight onto the existing edge (default).
    #[default]
    Sum,
    /// Keep the larger of the two weights.
    Max,
    /// Return [`GraphError::ParallelEdge`].
    Reject,
}

/// Incremental, validating builder for [`Graph`].
///
/// ```
/// use mec_graph::GraphBuilder;
/// # fn main() -> Result<(), mec_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// let sensor_read = b.add_pinned_node(1.5); // touches hardware: unoffloadable
/// let classify = b.add_node(40.0);
/// b.add_edge(sensor_read, classify, 12.0)?;
/// let g = b.build();
/// assert!(!g.is_offloadable(sensor_read));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_weights: Vec<f64>,
    offloadable: Vec<bool>,
    edges: Vec<EdgeData>,
    edge_index: HashMap<(NodeId, NodeId), EdgeId>,
    policy: ParallelEdgePolicy,
}

impl GraphBuilder {
    /// Creates an empty builder with the default
    /// [`ParallelEdgePolicy::Sum`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            node_weights: Vec::with_capacity(nodes),
            offloadable: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_index: HashMap::with_capacity(edges),
            policy: ParallelEdgePolicy::default(),
        }
    }

    /// Sets the policy applied when the same node pair is connected
    /// twice.
    pub fn parallel_edge_policy(&mut self, policy: ParallelEdgePolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_weights.len()
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an offloadable function with computation weight `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite; use
    /// [`try_add_node`](Self::try_add_node) for fallible insertion.
    pub fn add_node(&mut self, weight: f64) -> NodeId {
        self.try_add_node(weight, true)
            .expect("invalid node weight")
    }

    /// Adds an *unoffloadable* function (sensor / local-I/O bound).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite.
    pub fn add_pinned_node(&mut self, weight: f64) -> NodeId {
        self.try_add_node(weight, false)
            .expect("invalid node weight")
    }

    /// Adds a function, specifying offloadability explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NegativeWeight`] or
    /// [`GraphError::NonFiniteWeight`] for invalid weights.
    pub fn try_add_node(&mut self, weight: f64, offloadable: bool) -> Result<NodeId, GraphError> {
        validate_weight(weight)?;
        let id = NodeId::new(self.node_weights.len());
        self.node_weights.push(weight);
        self.offloadable.push(offloadable);
        Ok(id)
    }

    /// Connects `a` and `b` with communication weight `weight`.
    ///
    /// Re-connecting an existing pair follows the configured
    /// [`ParallelEdgePolicy`]; the returned id is the surviving edge.
    ///
    /// # Errors
    ///
    /// - [`GraphError::UnknownNode`] if an endpoint was never added;
    /// - [`GraphError::SelfLoop`] if `a == b`;
    /// - [`GraphError::NegativeWeight`] / [`GraphError::NonFiniteWeight`]
    ///   for invalid weights;
    /// - [`GraphError::ParallelEdge`] under
    ///   [`ParallelEdgePolicy::Reject`].
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<EdgeId, GraphError> {
        validate_weight(weight)?;
        if a.index() >= self.node_weights.len() {
            return Err(GraphError::UnknownNode(a));
        }
        if b.index() >= self.node_weights.len() {
            return Err(GraphError::UnknownNode(b));
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&existing) = self.edge_index.get(&key) {
            match self.policy {
                ParallelEdgePolicy::Sum => {
                    self.edges[existing.index()].weight += weight;
                    Ok(existing)
                }
                ParallelEdgePolicy::Max => {
                    let w = &mut self.edges[existing.index()].weight;
                    *w = w.max(weight);
                    Ok(existing)
                }
                ParallelEdgePolicy::Reject => Err(GraphError::ParallelEdge(a, b)),
            }
        } else {
            let id = EdgeId::new(self.edges.len());
            self.edges.push(EdgeData { a, b, weight });
            self.edge_index.insert(key, id);
            Ok(id)
        }
    }

    /// Finalises the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_parts(self.node_weights, self.offloadable, self.edges)
    }
}

pub(crate) fn validate_weight(weight: f64) -> Result<(), GraphError> {
    if !weight.is_finite() {
        Err(GraphError::NonFiniteWeight(weight))
    } else if weight < 0.0 {
        Err(GraphError::NegativeWeight(weight))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::with_capacity(2, 1);
        let a = b.add_node(1.0);
        let c = b.add_node(2.0);
        assert_eq!(b.node_count(), 2);
        b.add_edge(a, c, 3.0).unwrap();
        assert_eq!(b.edge_count(), 1);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.is_offloadable(a));
    }

    #[test]
    fn pinned_nodes_are_unoffloadable() {
        let mut b = GraphBuilder::new();
        let p = b.add_pinned_node(5.0);
        let g = b.build();
        assert!(!g.is_offloadable(p));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        assert_eq!(b.add_edge(a, a, 1.0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_unknown_endpoints() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let ghost = NodeId::new(9);
        assert_eq!(
            b.add_edge(a, ghost, 1.0),
            Err(GraphError::UnknownNode(ghost))
        );
        assert_eq!(
            b.add_edge(ghost, a, 1.0),
            Err(GraphError::UnknownNode(ghost))
        );
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0);
        let c = b.add_node(0.0);
        assert_eq!(
            b.add_edge(a, c, -1.0),
            Err(GraphError::NegativeWeight(-1.0))
        );
        assert!(matches!(
            b.add_edge(a, c, f64::INFINITY),
            Err(GraphError::NonFiniteWeight(_))
        ));
        assert!(b.try_add_node(-2.0, true).is_err());
        assert!(b.try_add_node(f64::NAN, true).is_err());
    }

    #[test]
    fn parallel_edges_sum_by_default() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0);
        let c = b.add_node(1.0);
        let e1 = b.add_edge(a, c, 2.0).unwrap();
        let e2 = b.add_edge(c, a, 3.0).unwrap();
        assert_eq!(e1, e2);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(e1), 5.0);
    }

    #[test]
    fn parallel_edges_max_policy() {
        let mut b = GraphBuilder::new();
        b.parallel_edge_policy(ParallelEdgePolicy::Max);
        let a = b.add_node(1.0);
        let c = b.add_node(1.0);
        let e = b.add_edge(a, c, 2.0).unwrap();
        b.add_edge(a, c, 7.0).unwrap();
        b.add_edge(a, c, 4.0).unwrap();
        assert_eq!(b.build().edge_weight(e), 7.0);
    }

    #[test]
    fn parallel_edges_reject_policy() {
        let mut b = GraphBuilder::new();
        b.parallel_edge_policy(ParallelEdgePolicy::Reject);
        let a = b.add_node(1.0);
        let c = b.add_node(1.0);
        b.add_edge(a, c, 2.0).unwrap();
        assert_eq!(b.add_edge(a, c, 3.0), Err(GraphError::ParallelEdge(a, c)));
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0);
        let c = b.add_node(0.0);
        b.add_edge(a, c, 0.0).unwrap();
        assert_eq!(b.build().total_edge_weight(), 0.0);
    }
}
