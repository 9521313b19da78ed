//! The label-propagation process itself.

use crate::{CompressionConfig, TraversalPolicy};
use mec_graph::{Graph, NodeId};
use mec_obs::{FieldValue, TraceSink};

/// Result of running label propagation on one sub-graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelingOutcome {
    /// Final label of each node (dense node index → label).
    pub labels: Vec<usize>,
    /// Propagation rounds executed (the initial sweep counts as round
    /// 1).
    pub rounds: usize,
    /// The resolved weight threshold `w` used by the label rule.
    pub threshold: f64,
}

impl LabelingOutcome {
    /// Number of distinct labels in the outcome.
    ///
    /// Labels are minted densely (every label is `< labels.len()`), so
    /// a `Vec<bool>` sized by the label universe counts them without
    /// hashing or allocating per element.
    pub fn label_count(&self) -> usize {
        let universe = self.labels.iter().map(|&l| l + 1).max().unwrap_or(0);
        distinct_labels(&self.labels, &mut vec![false; universe])
    }
}

/// Counts the distinct values of `labels`, each below `seen.len()`.
/// `seen` is cleared first, so one buffer serves repeated counts.
fn distinct_labels(labels: &[usize], seen: &mut [bool]) -> usize {
    seen.fill(false);
    labels
        .iter()
        .filter(|&&l| !std::mem::replace(&mut seen[l], true))
        .count()
}

/// Computes the node visiting order: starting from the max-degree node
/// of each unvisited region, BFS or DFS across *all* edges (the
/// traversal carries labels only across heavy edges, but must reach
/// every node).
fn visit_order(g: &Graph, policy: TraversalPolicy) -> Vec<NodeId> {
    let n = g.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    // candidate starters sorted by (degree desc, id asc); degrees are
    // precomputed once so the comparator doesn't recompute them
    // O(n log n) times
    let degrees: Vec<usize> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
    let mut starters: Vec<usize> = (0..n).collect();
    starters.sort_by(|&a, &b| degrees[b].cmp(&degrees[a]).then(a.cmp(&b)));
    for s in starters {
        if seen[s] {
            continue;
        }
        seen[s] = true;
        match policy {
            TraversalPolicy::Bfs => {
                let mut queue = std::collections::VecDeque::from([NodeId::new(s)]);
                while let Some(u) = queue.pop_front() {
                    order.push(u);
                    // deterministic neighbour order: adjacency insertion order
                    for nb in g.neighbors(u) {
                        if !seen[nb.node.index()] {
                            seen[nb.node.index()] = true;
                            queue.push_back(nb.node);
                        }
                    }
                }
            }
            TraversalPolicy::Dfs => {
                let mut stack = vec![NodeId::new(s)];
                while let Some(u) = stack.pop() {
                    order.push(u);
                    for nb in g.neighbors(u) {
                        if !seen[nb.node.index()] {
                            seen[nb.node.index()] = true;
                            stack.push(nb.node);
                        }
                    }
                }
            }
        }
    }
    order
}

/// Runs the paper's label rule on `g`:
///
/// - the max-degree node starts with label 0;
/// - during the initial sweep an edge *at least as heavy as* `w`
///   carries the current label to an unlabelled neighbour, a lighter
///   edge mints a fresh label (§III-A "Label initialization and
///   propagation"; the comparison is inclusive so threshold rules that
///   resolve to a weight present in the graph — every
///   [`ThresholdRule::Quantile`](crate::ThresholdRule::Quantile), or
///   [`ThresholdRule::MeanFactor`](crate::ThresholdRule::MeanFactor)
///   on a uniform-weight graph — still let the selected edges carry);
/// - subsequent rounds re-visit every node and let it adopt the label
///   with the greatest total incident weight over carrying (`≥ w`)
///   edges;
/// - rounds stop when the update rate `α ≤ α_t` or after `β_t` rounds
///   (§III-A "End of propagation").
///
/// Deterministic: ties break toward the smaller label.
pub fn propagate_labels(g: &Graph, config: &CompressionConfig) -> LabelingOutcome {
    propagate_labels_traced(g, config, &mec_obs::NullSink)
}

/// [`propagate_labels`] with telemetry: emits one `labelprop.round`
/// event per propagation round (round number, updates, update rate `α`,
/// distinct label count) and bumps the `labelprop.rounds` counter on
/// `sink`. Behaviour and result are identical to the untraced entry
/// point; event payloads are only assembled when the sink is enabled.
pub fn propagate_labels_traced(
    g: &Graph,
    config: &CompressionConfig,
    sink: &dyn TraceSink,
) -> LabelingOutcome {
    let n = g.node_count();
    let threshold = config.threshold.resolve(g);
    if n == 0 {
        return LabelingOutcome {
            labels: vec![],
            rounds: 0,
            threshold,
        };
    }
    let order = visit_order(g, config.policy);
    debug_assert_eq!(order.len(), n);

    const UNLABELED: usize = usize::MAX;
    let mut labels = vec![UNLABELED; n];
    let mut next_label = 0usize;

    // round 1: initial sweep
    for &u in &order {
        if labels[u.index()] == UNLABELED {
            labels[u.index()] = next_label;
            next_label += 1;
        }
        let lu = labels[u.index()];
        for nb in g.neighbors(u) {
            if labels[nb.node.index()] == UNLABELED {
                if g.edge_weight(nb.edge) >= threshold {
                    labels[nb.node.index()] = lu;
                } else {
                    labels[nb.node.index()] = next_label;
                    next_label += 1;
                }
            }
        }
    }
    let mut rounds = 1usize;
    let traced = sink.enabled();
    // every label is below `next_label`, so one flag per label counts
    // the distinct ones each traced round
    let mut seen = if traced {
        vec![false; next_label]
    } else {
        Vec::new()
    };
    let mut emit_round = |round: usize, updates: usize, alpha: f64, labels: &[usize]| {
        let distinct = distinct_labels(labels, &mut seen);
        sink.event(
            "labelprop.round",
            &[
                ("round", FieldValue::from(round)),
                ("updates", FieldValue::from(updates)),
                ("alpha", FieldValue::from(alpha)),
                ("labels", FieldValue::from(distinct)),
            ],
        );
    };
    if traced {
        // the initial sweep assigns every node, so by convention it
        // reports updates = n and α = 1.0
        emit_round(1, n, 1.0, &labels);
    }

    // refinement rounds: adopt the heaviest-coupled neighbouring label.
    // Labels are minted densely (every value < next_label), so the
    // per-node score accumulation runs over a flat SoA buffer indexed
    // by label — no hashing, no per-node allocation. `mark` carries an
    // epoch per label so the buffer resets in O(touched) per node.
    // Per-label weights still sum in neighbour order and the selection
    // rule is the same total order (heaviest weight, then smallest
    // label), so labels come out identical to the hashed version.
    let mut scores = vec![0.0f64; next_label];
    let mut mark = vec![0u64; next_label];
    let mut touched: Vec<usize> = Vec::new();
    let mut epoch = 0u64;
    while rounds < config.max_rounds {
        let mut updates = 0usize;
        for &u in &order {
            epoch += 1;
            touched.clear();
            for nb in g.neighbors(u) {
                let w = g.edge_weight(nb.edge);
                if w >= threshold {
                    let l = labels[nb.node.index()];
                    if mark[l] != epoch {
                        mark[l] = epoch;
                        scores[l] = 0.0;
                        touched.push(l);
                    }
                    scores[l] += w;
                }
            }
            if touched.is_empty() {
                continue;
            }
            let current = labels[u.index()];
            let mut best = touched[0];
            let mut best_score = scores[best];
            for &l in &touched[1..] {
                let s = scores[l];
                if s > best_score || (s == best_score && l < best) {
                    best = l;
                    best_score = s;
                }
            }
            if best != current {
                labels[u.index()] = best;
                updates += 1;
            }
        }
        rounds += 1;
        let alpha = updates as f64 / n as f64;
        if traced {
            emit_round(rounds, updates, alpha, &labels);
        }
        if alpha <= config.alpha_threshold {
            break;
        }
    }
    sink.counter_add("labelprop.rounds", rounds as u64);

    LabelingOutcome {
        labels,
        rounds,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdRule;
    use mec_graph::GraphBuilder;
    use std::collections::HashMap;

    /// Two heavy triangles joined by one light edge.
    fn dumbbell() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(1.0)).collect();
        for (a, c) in [(0, 1), (1, 2), (2, 0)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        for (a, c) in [(3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.build()
    }

    fn config_abs(w: f64) -> CompressionConfig {
        CompressionConfig::new().threshold(ThresholdRule::Absolute(w))
    }

    #[test]
    fn heavy_clusters_share_labels_across_light_bridge() {
        let g = dumbbell();
        let out = propagate_labels(&g, &config_abs(5.0));
        // each triangle collapses to one label; bridge keeps them apart
        assert_eq!(out.labels[0], out.labels[1]);
        assert_eq!(out.labels[1], out.labels[2]);
        assert_eq!(out.labels[3], out.labels[4]);
        assert_eq!(out.labels[4], out.labels[5]);
        assert_ne!(out.labels[0], out.labels[3]);
        assert_eq!(out.label_count(), 2);
    }

    #[test]
    fn infinite_threshold_gives_every_node_its_own_label() {
        let g = dumbbell();
        let out = propagate_labels(&g, &config_abs(f64::INFINITY));
        assert_eq!(out.label_count(), 6);
    }

    #[test]
    fn zero_threshold_merges_connected_graph() {
        let g = dumbbell();
        let out = propagate_labels(&g, &config_abs(0.0));
        assert_eq!(out.label_count(), 1);
    }

    #[test]
    fn bfs_and_dfs_agree_on_clear_clusters() {
        let g = dumbbell();
        let bfs = propagate_labels(&g, &config_abs(5.0).policy(TraversalPolicy::Bfs));
        let dfs = propagate_labels(&g, &config_abs(5.0).policy(TraversalPolicy::Dfs));
        // same partition, possibly different label names
        let canon = |ls: &[usize]| {
            let mut map = HashMap::new();
            ls.iter()
                .map(|l| {
                    let next = map.len();
                    *map.entry(*l).or_insert(next)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&bfs.labels), canon(&dfs.labels));
    }

    #[test]
    fn rounds_respect_beta_cap() {
        let g = dumbbell();
        let out = propagate_labels(&g, &config_abs(5.0).max_rounds(1));
        assert_eq!(out.rounds, 1);
        let out2 = propagate_labels(&g, &config_abs(5.0).max_rounds(50));
        assert!(out2.rounds <= 50);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let out = propagate_labels(&g, &CompressionConfig::default());
        assert!(out.labels.is_empty());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn isolated_nodes_get_distinct_labels() {
        let mut b = GraphBuilder::new();
        b.add_node(1.0);
        b.add_node(1.0);
        b.add_node(1.0);
        let out = propagate_labels(&b.build(), &CompressionConfig::default());
        assert_eq!(out.label_count(), 3);
    }

    #[test]
    fn deterministic() {
        let g = dumbbell();
        let a = propagate_labels(&g, &CompressionConfig::default());
        let b = propagate_labels(&g, &CompressionConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_weight_graph_merges_under_mean_factor_one() {
        // all edges share one weight → the mean equals every weight;
        // the inclusive carry rule must let them all carry labels
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 4.0).unwrap();
        }
        let g = b.build();
        let cfg = CompressionConfig::new().threshold(ThresholdRule::MeanFactor(1.0));
        let out = propagate_labels(&g, &cfg);
        assert_eq!(out.label_count(), 1, "uniform graph must fully merge");
    }

    #[test]
    fn uniform_weight_graph_merges_under_quantile_rules() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(1.0)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 2.5).unwrap();
        }
        let g = b.build();
        for q in [0.0, 0.5, 1.0] {
            let cfg = CompressionConfig::new().threshold(ThresholdRule::Quantile(q));
            let out = propagate_labels(&g, &cfg);
            assert_eq!(out.label_count(), 1, "Quantile({q}) must merge");
        }
    }

    #[test]
    fn edges_exactly_at_threshold_carry_labels() {
        let g = dumbbell(); // heavy edges weigh exactly 10.0
        let out = propagate_labels(&g, &config_abs(10.0));
        assert_eq!(out.label_count(), 2, "weight == threshold must carry");
    }

    #[test]
    fn last_traced_round_reports_the_outcome_label_count() {
        use mec_obs::{ShardConfig, ShardedRecorder};

        let g = mec_netgen::NetgenSpec::new(120, 360)
            .seed(7)
            .generate()
            .unwrap();
        for w in [0.0, 5.0, f64::INFINITY] {
            let rec = ShardedRecorder::with_config(ShardConfig {
                drain_interval: None,
                ..ShardConfig::default()
            });
            let out = propagate_labels_traced(&g, &config_abs(w), &rec);
            let events = rec.events();
            let last = events
                .iter()
                .rev()
                .find(|e| e.name == "labelprop.round")
                .expect("a traced run emits rounds");
            let labels = last
                .fields
                .iter()
                .find(|(k, _)| *k == "labels")
                .map(|&(_, v)| v);
            assert_eq!(
                labels,
                Some(FieldValue::from(out.label_count())),
                "threshold {w}"
            );
        }
    }

    #[test]
    fn visit_order_starts_at_max_degree() {
        let g = dumbbell(); // node 2 and 3 have degree 3
        let order = visit_order(&g, TraversalPolicy::Bfs);
        assert_eq!(order[0], NodeId::new(2));
        assert_eq!(order.len(), 6);
    }
}
