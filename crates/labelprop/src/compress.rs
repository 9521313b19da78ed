//! Algorithm 1 end to end: removal, split, propagation, merge.

use crate::{propagate_labels_traced, CompressionConfig, LabelingOutcome};
use mec_graph::{Graph, NodeGrouping, NodeId, QuotientGraph, Subgraph};
use mec_obs::{FieldValue, TraceSink};

/// One compressed connected piece of the offloadable graph.
#[derive(Debug, Clone)]
pub struct CompressedComponent {
    /// The offloadable sub-graph, with node mapping back to the full
    /// application graph.
    pub subgraph: Subgraph,
    /// Its compressed (quotient) graph; groups are the merge clusters.
    pub quotient: QuotientGraph,
    /// The label-propagation outcome that produced the grouping.
    pub labeling: LabelingOutcome,
}

/// Aggregate numbers in the shape of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Nodes in the input graph (before removing pinned functions).
    pub original_nodes: usize,
    /// Edges in the input graph.
    pub original_edges: usize,
    /// Nodes that survived unoffloadable removal.
    pub offloadable_nodes: usize,
    /// Edges among offloadable nodes.
    pub offloadable_edges: usize,
    /// Super-nodes after compression (sum over components).
    pub compressed_nodes: usize,
    /// Edges after compression (sum over components).
    pub compressed_edges: usize,
    /// Connected components processed.
    pub components: usize,
    /// Total propagation rounds across components.
    pub rounds: usize,
}

impl CompressionStats {
    /// Fraction of offloadable nodes eliminated, in `[0, 1]`.
    pub fn node_reduction(&self) -> f64 {
        if self.offloadable_nodes == 0 {
            0.0
        } else {
            1.0 - self.compressed_nodes as f64 / self.offloadable_nodes as f64
        }
    }

    /// Fraction of offloadable edges eliminated, in `[0, 1]`.
    pub fn edge_reduction(&self) -> f64 {
        if self.offloadable_edges == 0 {
            0.0
        } else {
            1.0 - self.compressed_edges as f64 / self.offloadable_edges as f64
        }
    }
}

/// The full result of compressing one application graph.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// Unoffloadable functions removed up front (ids in the input
    /// graph); they always execute locally.
    pub pinned: Vec<NodeId>,
    /// One compressed piece per connected component of the offloadable
    /// graph.
    pub components: Vec<CompressedComponent>,
    /// Table-I-shaped aggregate statistics.
    pub stats: CompressionStats,
}

/// The compression stage (paper Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    config: CompressionConfig,
}

impl Compressor {
    /// Creates a compressor with the given configuration.
    pub fn new(config: CompressionConfig) -> Self {
        Compressor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }

    /// Runs Algorithm 1 on `g`:
    /// remove unoffloadable nodes → split into connected components →
    /// propagate labels per component (in parallel when configured) →
    /// merge directly-connected same-label nodes.
    pub fn compress(&self, g: &Graph) -> CompressionOutcome {
        self.compress_traced(g, &mec_obs::NullSink)
    }

    /// [`Compressor::compress`] with telemetry: threads `sink` into
    /// every per-component label propagation (so each round emits a
    /// `labelprop.round` event), bumps `compress.components`, and emits
    /// one `compress.stats` event summarising the Table-I numbers.
    pub fn compress_traced(&self, g: &Graph, sink: &dyn TraceSink) -> CompressionOutcome {
        // line 1: remove unoffloadable functions
        let pinned: Vec<NodeId> = g.node_ids().filter(|&n| !g.is_offloadable(n)).collect();

        // lines 2–4: split at component boundaries. Components of the
        // *offloadable* graph — pinned-node removal may split an app
        // component further, which only helps parallelism. Each piece
        // is built once, straight from `g`, and is the component's
        // sub-graph.
        let pieces = Subgraph::split_components_where(g, |n| g.is_offloadable(n));

        // lines 5–16: per-component propagation + merge
        let config = &self.config;
        let process = |subgraph: Subgraph| -> CompressedComponent {
            let labeling = propagate_labels_traced(subgraph.graph(), config, sink);
            let grouping = merge_grouping(subgraph.graph(), &labeling.labels);
            let quotient = QuotientGraph::contract(subgraph.graph(), grouping);
            CompressedComponent {
                subgraph,
                quotient,
                labeling,
            }
        };
        let components: Vec<CompressedComponent> = if config.parallel && pieces.len() > 1 {
            let process = &process;
            std::thread::scope(|scope| {
                // the collect is load-bearing: it spawns every worker
                // before the first join, which is the whole point
                #[allow(clippy::needless_collect)]
                let handles: Vec<_> = pieces
                    .into_iter()
                    .map(|p| scope.spawn(move || process(p)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("compression worker panicked"))
                    .collect()
            })
        } else {
            pieces.into_iter().map(process).collect()
        };

        let stats = CompressionStats {
            original_nodes: g.node_count(),
            original_edges: g.edge_count(),
            // edges never straddle components, so the pieces hold the
            // whole offloadable graph
            offloadable_nodes: components.iter().map(|c| c.subgraph.node_count()).sum(),
            offloadable_edges: components
                .iter()
                .map(|c| c.subgraph.graph().edge_count())
                .sum(),
            compressed_nodes: components
                .iter()
                .map(|c| c.quotient.graph().node_count())
                .sum(),
            compressed_edges: components
                .iter()
                .map(|c| c.quotient.graph().edge_count())
                .sum(),
            components: components.len(),
            rounds: components.iter().map(|c| c.labeling.rounds).sum(),
        };
        sink.counter_add("compress.components", stats.components as u64);
        if sink.enabled() {
            sink.event(
                "compress.stats",
                &[
                    (
                        "offloadable_nodes",
                        FieldValue::from(stats.offloadable_nodes),
                    ),
                    (
                        "offloadable_edges",
                        FieldValue::from(stats.offloadable_edges),
                    ),
                    ("compressed_nodes", FieldValue::from(stats.compressed_nodes)),
                    ("compressed_edges", FieldValue::from(stats.compressed_edges)),
                    ("components", FieldValue::from(stats.components)),
                    ("rounds", FieldValue::from(stats.rounds)),
                ],
            );
        }
        CompressionOutcome {
            pinned,
            components,
            stats,
        }
    }
}

/// Builds the merge grouping: connected components of the sub-graph
/// restricted to edges whose endpoints share a label (the paper's
/// "any two nodes which are in the same cluster and are connected
/// directly will be merged" rule, closed transitively).
fn merge_grouping(g: &Graph, labels: &[usize]) -> NodeGrouping {
    let n = g.node_count();
    let mut group = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if group[start] != usize::MAX {
            continue;
        }
        group[start] = next;
        queue.push_back(NodeId::new(start));
        while let Some(u) = queue.pop_front() {
            for nb in g.neighbors(u) {
                let v = nb.node.index();
                if group[v] == usize::MAX && labels[v] == labels[u.index()] {
                    group[v] = next;
                    queue.push_back(nb.node);
                }
            }
        }
        next += 1;
    }
    NodeGrouping::from_raw(&group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdRule;
    use mec_graph::GraphBuilder;

    /// Two heavy triangles bridged by one light edge, plus a pinned
    /// node hanging off node 0.
    fn app_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_node(i as f64 + 1.0)).collect();
        let pinned = b.add_pinned_node(100.0);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.add_edge(n[0], pinned, 3.0).unwrap();
        b.build()
    }

    fn compressor(w: f64) -> Compressor {
        Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(w)))
    }

    #[test]
    fn pinned_nodes_are_removed_first() {
        let out = compressor(5.0).compress(&app_graph());
        assert_eq!(out.pinned.len(), 1);
        assert_eq!(out.stats.original_nodes, 7);
        assert_eq!(out.stats.offloadable_nodes, 6);
        // the pinned node's edge disappears with it
        assert_eq!(out.stats.offloadable_edges, 7);
    }

    #[test]
    fn triangles_collapse_to_two_supernodes() {
        let out = compressor(5.0).compress(&app_graph());
        assert_eq!(out.stats.components, 1);
        assert_eq!(out.stats.compressed_nodes, 2);
        assert_eq!(out.stats.compressed_edges, 1);
        // the surviving edge is the light bridge
        let q = &out.components[0].quotient;
        assert_eq!(q.graph().total_edge_weight(), 1.0);
        // node weights are conserved: 1+2+3 and 4+5+6
        let mut ws: Vec<f64> = q
            .graph()
            .node_ids()
            .map(|n| q.graph().node_weight(n))
            .collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(ws, vec![6.0, 15.0]);
    }

    #[test]
    fn zero_merge_when_threshold_is_infinite() {
        let out = compressor(f64::INFINITY).compress(&app_graph());
        assert_eq!(out.stats.compressed_nodes, 6);
        assert_eq!(out.stats.compressed_edges, 7);
        assert!(out.stats.node_reduction().abs() < 1e-12);
    }

    #[test]
    fn reduction_ratios() {
        let out = compressor(5.0).compress(&app_graph());
        assert!((out.stats.node_reduction() - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
        assert!((out.stats.edge_reduction() - (1.0 - 1.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // a graph with several components to actually exercise threads
        let mut b = GraphBuilder::new();
        for comp in 0..5 {
            let base: Vec<_> = (0..8).map(|i| b.add_node((comp * 8 + i) as f64)).collect();
            for k in 1..8 {
                b.add_edge(base[k - 1], base[k], if k % 2 == 0 { 20.0 } else { 1.0 })
                    .unwrap();
            }
        }
        let g = b.build();
        let cfg = CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0));
        let serial = Compressor::new(cfg.clone().parallel(false)).compress(&g);
        let parallel = Compressor::new(cfg.parallel(true)).compress(&g);
        assert_eq!(serial.stats, parallel.stats);
        for (a, b) in serial.components.iter().zip(&parallel.components) {
            assert_eq!(a.labeling, b.labeling);
            assert_eq!(a.quotient.graph(), b.quotient.graph());
        }
    }

    #[test]
    fn subgraph_mapping_reaches_original_nodes() {
        let g = app_graph();
        let out = compressor(5.0).compress(&g);
        let comp = &out.components[0];
        // every member maps back to an offloadable node of the original
        for local in comp.subgraph.graph().node_ids() {
            let orig = comp.subgraph.parent_of(local);
            assert!(g.is_offloadable(orig));
        }
        // quotient grouping covers the subgraph exactly
        assert_eq!(
            comp.quotient.grouping().node_count(),
            comp.subgraph.node_count()
        );
    }

    #[test]
    fn fully_pinned_graph_compresses_to_nothing() {
        let mut b = GraphBuilder::new();
        let a = b.add_pinned_node(1.0);
        let c = b.add_pinned_node(2.0);
        b.add_edge(a, c, 1.0).unwrap();
        let out = Compressor::default().compress(&b.build());
        assert_eq!(out.pinned.len(), 2);
        assert_eq!(out.stats.offloadable_nodes, 0);
        assert!(out.components.is_empty());
        assert_eq!(out.stats.node_reduction(), 0.0);
        assert_eq!(out.stats.edge_reduction(), 0.0);
    }

    #[test]
    fn empty_graph() {
        let out = Compressor::default().compress(&GraphBuilder::new().build());
        assert_eq!(out.stats.original_nodes, 0);
        assert!(out.components.is_empty());
        assert!(out.pinned.is_empty());
    }

    #[test]
    fn figure2_style_subgraph_compresses_ten_nodes_to_three() {
        // The paper's Fig. 2 walks one sub-graph through two propagation
        // rounds and ends with 10 nodes merged into 3 super-nodes. This
        // is the same scenario: three tightly-coupled regions (edge
        // weights ≥ 4) joined by weight-1/2 links.
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..10).map(|_| b.add_node(1.0)).collect();
        // region A: 0-1-2 (weights 4, 6)
        b.add_edge(n[0], n[1], 4.0).unwrap();
        b.add_edge(n[1], n[2], 6.0).unwrap();
        // region B: 3-4-5-6 (weights 5, 4, 4)
        b.add_edge(n[3], n[4], 5.0).unwrap();
        b.add_edge(n[4], n[5], 4.0).unwrap();
        b.add_edge(n[5], n[6], 4.0).unwrap();
        // region C: 7-8-9 (weights 4, 5)
        b.add_edge(n[7], n[8], 4.0).unwrap();
        b.add_edge(n[8], n[9], 5.0).unwrap();
        // weak links between regions (weights 1-3, below the threshold)
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.add_edge(n[6], n[7], 2.0).unwrap();
        b.add_edge(n[0], n[9], 3.0).unwrap();
        let g = b.build();

        let out = compressor(3.5).compress(&g);
        assert_eq!(out.stats.offloadable_nodes, 10);
        assert_eq!(out.stats.compressed_nodes, 3, "Fig. 2: 10 nodes -> 3");
        // only the weak links survive between super-nodes
        let q = &out.components[0].quotient;
        assert_eq!(q.graph().total_edge_weight(), 6.0);
        assert_eq!(q.absorbed_weight(), 32.0);
    }

    #[test]
    fn merge_grouping_requires_direct_connection() {
        // same label but in different connected pieces must not merge
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 10.0).unwrap();
        b.add_edge(n[2], n[3], 10.0).unwrap();
        let g = b.build();
        // force identical labels everywhere
        let grouping = super::merge_grouping(&g, &[7, 7, 7, 7]);
        assert_eq!(grouping.group_count(), 2);
    }
}
