//! Fiedler-vector bipartitioning.

use crate::{CutScratch, SpectralError};
use mec_engine::{Cluster, ParallelLaplacian};
use mec_graph::{Bipartition, CsrAdjacency, Graph, Side};
use mec_linalg::{fiedler_pair, kernels, Eigenpair, LanczosOptions};
use mec_obs::{FieldValue, NullSink, TraceSink};
use std::sync::Arc;

/// How the Fiedler vector is turned into two node sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitRule {
    /// Nodes with non-negative Fiedler components go remote, the rest
    /// stay local — the paper's `q_i = ±1` indicator (default). On
    /// module-structured workloads the sign boundary tracks the true
    /// cluster boundary and consistently beats the sweep variants in
    /// end-to-end objective (see the `ablate` experiment). Falls back
    /// to [`Median`](SplitRule::Median) if numerics put every node on
    /// one side.
    #[default]
    Sign,
    /// Ratio-cut sweep: sort nodes by Fiedler component and take the
    /// prefix split minimising `cut / (|A| · |B|)` — the classic
    /// spectral-clustering objective. More robust than [`Sign`](SplitRule::Sign) on
    /// graphs without clean module structure.
    RatioSweep,
    /// Minimum-weight sweep: the prefix split with the smallest cut
    /// weight, regardless of balance. Matches the exact minimum cut on
    /// well-separated graphs but tends to peel single nodes.
    Sweep,
    /// Split at the median component: both halves are guaranteed
    /// non-empty (sizes differ by at most one).
    Median,
}

/// The result of a spectral bisection.
#[derive(Debug, Clone)]
pub struct SpectralCut {
    /// Node assignment (Fiedler-positive side is
    /// [`Side::Remote`](mec_graph::Side)).
    pub partition: Bipartition,
    /// The second-smallest Laplacian eigenvalue `λ₂` (the algebraic
    /// connectivity; the paper's Theorem 1 reads the minimum cut off
    /// this eigenvalue's eigenvector).
    pub fiedler_value: f64,
    /// The corresponding unit eigenvector, sign-normalised so its
    /// first non-zero component is positive.
    pub fiedler_vector: Vec<f64>,
    /// Communication weight crossing the partition.
    pub cut_weight: f64,
}

/// Spectral bipartitioner: Laplacian → Fiedler pair → split.
///
/// The eigensolver can run serially or with its matrix-vector products
/// sharded over a [`Cluster`] — the paper's Spark configuration
/// (`with_cluster`). The bisector holds configuration only: telemetry
/// goes to the sink each [`bisect_reusing`](Self::bisect_reusing) call
/// is handed.
#[derive(Debug, Clone, Default)]
pub struct SpectralBisector {
    lanczos: LanczosOptions,
    split: SplitRule,
    cluster: Option<(Arc<Cluster>, usize)>,
}

impl SpectralBisector {
    /// A serial bisector with default eigensolver options and the
    /// [`SplitRule::Sign`] rule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the eigensolver options.
    pub fn lanczos_options(mut self, opts: LanczosOptions) -> Self {
        self.lanczos = opts;
        self
    }

    /// Sets the split rule.
    pub fn split_rule(mut self, rule: SplitRule) -> Self {
        self.split = rule;
        self
    }

    /// Runs the Laplacian products on `cluster`, sharded into `blocks`
    /// row blocks — the "with Spark" configuration of the paper's
    /// Fig. 9. Only graphs above the eigensolver's dense cutoff
    /// ([`LanczosOptions::dense_cutoff`]) go to the cluster: at or
    /// below it no product is iterated, so the serial operator builds
    /// the dense matrix. The cluster operator applies row blocks of the
    /// same [`CsrAdjacency`] snapshot with the same kernel, so its
    /// products are bit-identical to the serial ones and the choice
    /// changes wall-time only, never the cut.
    pub fn with_cluster(mut self, cluster: Arc<Cluster>, blocks: usize) -> Self {
        self.cluster = Some((cluster, blocks.max(1)));
        self
    }

    /// `true` when a cluster backend is configured.
    pub fn is_parallel(&self) -> bool {
        self.cluster.is_some()
    }

    /// Bisects `g` along its Fiedler vector.
    ///
    /// A single-node graph yields the trivial cut (the node on
    /// [`Side::Remote`], zero weight, `λ₂ = 0`). A disconnected graph
    /// is split along its components without an eigen-solve: node 0's
    /// component goes [`Side::Local`] and the rest [`Side::Remote`],
    /// with zero cut weight and `λ₂ = 0`.
    ///
    /// This is a thin shim over
    /// [`bisect_reusing`](SpectralBisector::bisect_reusing) with a
    /// throwaway arena and no sink; pipeline callers never take it —
    /// the offloader's execution context owns one [`CutScratch`] per
    /// serial batch (and one per cluster task) and threads it, with
    /// its sink, through the reusing entry point.
    ///
    /// # Errors
    ///
    /// - [`SpectralError::EmptyGraph`] when `g` has no nodes;
    /// - [`SpectralError::Eigensolver`] if the Fiedler pair cannot be
    ///   computed.
    pub fn bisect(&self, g: &Graph) -> Result<SpectralCut, SpectralError> {
        self.bisect_reusing(g, &mut CutScratch::new(), &NullSink)
    }

    /// [`bisect`](SpectralBisector::bisect) with a caller-owned
    /// [`CutScratch`] arena: the CSR snapshot, Krylov basis, and sweep
    /// buffers are recycled across calls, so every cut after the first
    /// is allocation-free in the eigensolver's inner loop.
    ///
    /// Telemetry goes to `sink`: the eigensolver's counters, events and
    /// histograms, and per bisection the `spectral.bisections` counter
    /// and one `spectral.cut` event (node count, Fiedler value, cut
    /// weight). The sink never changes the cut.
    ///
    /// Connectivity is tested on the CSR snapshot before the
    /// eigen-solve, so the eigensolver ([`fiedler_pair`], on the CSR
    /// or the cluster operator) only ever sees a connected Laplacian.
    /// There the constant vector spans the null space, and the
    /// recurrence on its complement finds `λ₂` as its smallest Ritz
    /// value; on a disconnected one it would find a second zero
    /// eigenvalue instead.
    ///
    /// # Errors
    ///
    /// Same as [`bisect`](SpectralBisector::bisect).
    pub fn bisect_reusing(
        &self,
        g: &Graph,
        scratch: &mut CutScratch,
        sink: &dyn TraceSink,
    ) -> Result<SpectralCut, SpectralError> {
        let n = g.node_count();
        if n == 0 {
            return Err(SpectralError::EmptyGraph);
        }
        if n == 1 {
            let partition = Bipartition::uniform(1, Side::Remote);
            return Ok(SpectralCut {
                partition,
                fiedler_value: 0.0,
                fiedler_vector: vec![1.0],
                cut_weight: 0.0,
            });
        }
        scratch.csr.rebuild_from(g);
        let CutScratch {
            csr, order, local, ..
        } = &mut *scratch;
        let reached = mark_first_component(csr, local, order);
        if reached < n {
            emit_cut(sink, n, 0.0, 0.0);
            return Ok(component_split(local, reached));
        }
        // At or below the dense cutoff the eigensolver densifies the
        // operator instead of iterating it, so only larger graphs can
        // amortise the cluster's stage round-trips; the cluster applies
        // the snapshot's own rows with its own kernel, so this is
        // purely a wall-time decision.
        let cluster = self
            .cluster
            .as_ref()
            .filter(|_| n > self.lanczos.dense_cutoff);
        let Eigenpair {
            value: fiedler_value,
            vector: mut fiedler_vector,
        } = if let Some((cluster, blocks)) = cluster {
            let l = ParallelLaplacian::from_csr(Arc::clone(cluster), &scratch.csr, *blocks)
                .expect("block count is at least 1");
            fiedler_pair(&l, &self.lanczos, sink, &mut scratch.lanczos)?
        } else {
            fiedler_pair(&scratch.csr, &self.lanczos, sink, &mut scratch.lanczos)?
        };
        canonicalize_sign(&mut fiedler_vector);
        let CutScratch {
            csr, order, local, ..
        } = &mut *scratch;
        split_sides(csr, &fiedler_vector, self.split, order, local);
        let partition = local_sides(local);
        let cut_weight = partition.cut_weight(g);
        emit_cut(sink, n, fiedler_value, cut_weight);
        Ok(SpectralCut {
            partition,
            fiedler_value,
            fiedler_vector,
            cut_weight,
        })
    }
}

/// Marks in `reached` the nodes joined to node 0 by positive-weight
/// edges — a breadth-first sweep over `csr`, with `queue` as the pooled
/// frontier — and returns how many there are. The Laplacian is
/// connected exactly when that is every node, so this runs before any
/// eigen-solve.
fn mark_first_component(
    csr: &CsrAdjacency,
    reached: &mut Vec<bool>,
    queue: &mut Vec<usize>,
) -> usize {
    let (offsets, columns, weights) = csr.as_parts();
    reached.clear();
    reached.resize(csr.node_count(), false);
    queue.clear();
    if reached.is_empty() {
        return 0;
    }
    reached[0] = true;
    queue.push(0);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for (&nb, &w) in columns[offsets[u]..offsets[u + 1]]
            .iter()
            .zip(&weights[offsets[u]..offsets[u + 1]])
        {
            let nb = nb as usize;
            if w > 0.0 && !reached[nb] {
                reached[nb] = true;
                queue.push(nb);
            }
        }
    }
    queue.len()
}

/// Flips `v` so its first non-zero component is positive: the
/// canonical sign of a Fiedler vector, which the split reads.
fn canonicalize_sign(v: &mut [f64]) {
    if let Some(first) = v.iter().find(|x| x.abs() > 1e-12) {
        if *first < 0.0 {
            for x in v.iter_mut() {
                *x = -*x;
            }
        }
    }
}

/// Marks in `local` the [`Side::Local`] nodes of a connected graph by
/// `rule` on its Fiedler vector `v`. When the rule gives an improper
/// split (or is [`SplitRule::Median`]), the lower half of the Fiedler
/// ordering goes local instead, so both sides are non-empty.
fn split_sides(
    csr: &CsrAdjacency,
    v: &[f64],
    rule: SplitRule,
    order: &mut Vec<usize>,
    local: &mut Vec<bool>,
) {
    let m = v.len();
    let proper = match rule {
        SplitRule::Sweep | SplitRule::RatioSweep => sweep_sides(csr, v, rule, order, local),
        SplitRule::Sign => {
            local.clear();
            local.extend(v.iter().map(|&x| x < 0.0));
            let lefts = local.iter().filter(|&&s| s).count();
            lefts > 0 && lefts < m
        }
        SplitRule::Median => false,
    };
    if !proper {
        order.clear();
        order.extend(0..m);
        order.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("components are finite"));
        local.clear();
        local.resize(m, false);
        for &l in order.iter().take(m / 2) {
            local[l] = true;
        }
    }
}

/// Sweep cut: nodes sorted by Fiedler component; every prefix split is
/// priced incrementally and the best-scoring one is marked in `local`.
/// Ties in the ordering break by node id, ties in score by the more
/// balanced split. Returns whether the split is proper. The per-vertex
/// boundary update reads the CSR's SoA `columns`/`weights` slices
/// through the shared sweep kernel.
fn sweep_sides(
    csr: &CsrAdjacency,
    v: &[f64],
    rule: SplitRule,
    order: &mut Vec<usize>,
    local: &mut Vec<bool>,
) -> bool {
    let m = v.len();
    debug_assert!(m >= 2);
    debug_assert_eq!(csr.node_count(), m);
    order.clear();
    order.extend(0..m);
    order.sort_by(|&a, &b| {
        v[a].partial_cmp(&v[b])
            .expect("components are finite")
            .then(a.cmp(&b))
    });
    local.clear();
    local.resize(m, false);
    let (offsets, columns, weights) = csr.as_parts();
    let mut cut = 0.0f64;
    let mut best = (f64::INFINITY, 0usize, usize::MAX); // (score, |k - m/2|, k)
    for (k, &node) in order.iter().enumerate().take(m - 1) {
        // moving `node` to the local side: edges into the prefix leave
        // the boundary, edges out of it start crossing
        let (lo, hi) = (offsets[node], offsets[node + 1]);
        cut = kernels::sweep_boundary_update(cut, &columns[lo..hi], &weights[lo..hi], local);
        local[node] = true;
        let prefix = k + 1;
        let balance_dist = prefix.abs_diff(m / 2);
        let score = if rule == SplitRule::RatioSweep {
            cut / (prefix as f64 * (m - prefix) as f64)
        } else {
            cut
        };
        if score < best.0 - 1e-12 || (score <= best.0 + 1e-12 && balance_dist < best.1) {
            best = (score, balance_dist, prefix);
        }
    }
    local.iter_mut().for_each(|s| *s = false);
    let split_at = best.2;
    if split_at == usize::MAX || split_at == 0 || split_at >= m {
        return false;
    }
    for &node in order.iter().take(split_at) {
        local[node] = true;
    }
    true
}

/// The bipartition whose [`Side::Local`] nodes are the ones marked in
/// `local`.
fn local_sides(local: &[bool]) -> Bipartition {
    Bipartition::from_fn(local.len(), |i| {
        if local[i] {
            Side::Local
        } else {
            Side::Remote
        }
    })
}

/// The cut of a disconnected graph along its components: the `reached`
/// nodes (node 0's component, `a` of them) go local, the rest remote.
/// The returned vector is a `λ = 0` eigenvector of the Laplacian: a
/// unit vector constant on each side, orthogonal to the all-ones
/// vector, positive on node 0.
fn component_split(reached: &[bool], a: usize) -> SpectralCut {
    let n = reached.len() as f64;
    let (a, b) = (a as f64, n - a as f64);
    let (local, remote) = ((b / (a * n)).sqrt(), -(a / (b * n)).sqrt());
    SpectralCut {
        partition: local_sides(reached),
        fiedler_value: 0.0,
        fiedler_vector: reached
            .iter()
            .map(|&r| if r { local } else { remote })
            .collect(),
        cut_weight: 0.0,
    }
}

/// Emits one `spectral.cut` event and bumps the `spectral.bisections`
/// counter.
fn emit_cut(sink: &dyn TraceSink, n: usize, fiedler_value: f64, cut_weight: f64) {
    sink.counter_add("spectral.bisections", 1);
    if sink.enabled() {
        sink.event(
            "spectral.cut",
            &[
                ("nodes", FieldValue::from(n)),
                ("fiedler_value", FieldValue::from(fiedler_value)),
                ("cut_weight", FieldValue::from(cut_weight)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_netgen::NetgenSpec;

    /// Two heavy cliques of size `k` joined by a single light edge.
    fn dumbbell(k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..2 * k).map(|_| b.add_node(1.0)).collect();
        for side in 0..2 {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge(n[side * k + i], n[side * k + j], 8.0).unwrap();
                }
            }
        }
        b.add_edge(n[k - 1], n[k], 0.25).unwrap();
        b.build()
    }

    #[test]
    fn finds_the_bridge_cut() {
        for k in [3usize, 6, 20] {
            let g = dumbbell(k);
            let cut = SpectralBisector::new().bisect(&g).unwrap();
            assert_eq!(cut.cut_weight, 0.25, "k={k}");
            assert!(cut.partition.is_proper());
            assert_eq!(cut.partition.count_on(Side::Local), k);
        }
    }

    #[test]
    fn fiedler_value_is_algebraic_connectivity() {
        // P_2 with weight w: lambda2 = 2w
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 3.0).unwrap();
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert!((cut.fiedler_value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_cut_is_zero() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 5.0).unwrap();
        b.add_edge(n[2], n[3], 5.0).unwrap();
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert!(cut.fiedler_value.abs() < 1e-9);
        assert_eq!(cut.cut_weight, 0.0);
        assert!(cut.partition.is_proper());
    }

    #[test]
    fn zero_weight_bridge_counts_as_disconnected() {
        // the Laplacian ignores a zero-weight edge, so the operator has
        // two components although the graph is connected
        let k = 20;
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..2 * k).map(|_| b.add_node(1.0)).collect();
        for side in 0..2 {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge(n[side * k + i], n[side * k + j], 8.0).unwrap();
                }
            }
        }
        b.add_edge(n[k - 1], n[k], 0.0).unwrap();
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert_eq!(cut.fiedler_value, 0.0);
        assert_eq!(cut.cut_weight, 0.0);
        assert_eq!(cut.partition.count_on(Side::Local), k);
    }

    #[test]
    fn single_node_graph_is_trivial() {
        let mut b = GraphBuilder::new();
        b.add_node(5.0);
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert_eq!(cut.cut_weight, 0.0);
        assert_eq!(cut.partition.len(), 1);
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = GraphBuilder::new().build();
        assert_eq!(
            SpectralBisector::new().bisect(&g).unwrap_err(),
            SpectralError::EmptyGraph
        );
    }

    #[test]
    fn median_split_always_balances() {
        let g = dumbbell(4);
        let cut = SpectralBisector::new()
            .split_rule(SplitRule::Median)
            .bisect(&g)
            .unwrap();
        assert_eq!(cut.partition.count_on(Side::Local), 4);
        assert_eq!(cut.partition.count_on(Side::Remote), 4);
    }

    #[test]
    fn parallel_backend_matches_serial() {
        let g = NetgenSpec::new(120, 400)
            .components(1)
            .seed(3)
            .generate()
            .unwrap();
        let serial = SpectralBisector::new().bisect(&g).unwrap();
        let cluster = Arc::new(Cluster::new(4).unwrap());
        let parallel = SpectralBisector::new()
            .with_cluster(cluster, 6)
            .bisect(&g)
            .unwrap();
        assert!((serial.fiedler_value - parallel.fiedler_value).abs() < 1e-7);
        assert_eq!(serial.partition, parallel.partition);
        assert!(parallel.cut_weight <= serial.cut_weight + 1e-9);
    }

    #[test]
    fn is_parallel_reflects_backend() {
        let b = SpectralBisector::new();
        assert!(!b.is_parallel());
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let b2 = b.with_cluster(cluster, 4);
        assert!(b2.is_parallel());
    }

    #[test]
    fn sweep_never_loses_to_sign_or_median() {
        for seed in [1u64, 4, 9, 16] {
            let g = NetgenSpec::new(80, 250)
                .components(1)
                .seed(seed)
                .generate()
                .unwrap();
            let sweep = SpectralBisector::new()
                .split_rule(SplitRule::Sweep)
                .bisect(&g)
                .unwrap();
            for rule in [SplitRule::Sign, SplitRule::Median] {
                let other = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
                assert!(
                    sweep.cut_weight <= other.cut_weight + 1e-9,
                    "seed {seed}: sweep {} vs {:?} {}",
                    sweep.cut_weight,
                    rule,
                    other.cut_weight
                );
            }
        }
    }

    #[test]
    fn sweep_is_proper_and_matches_reported_weight() {
        let g = NetgenSpec::new(60, 150)
            .components(1)
            .seed(2)
            .generate()
            .unwrap();
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        assert!(cut.partition.is_proper());
        assert!((cut.partition.cut_weight(&g) - cut.cut_weight).abs() < 1e-9);
    }

    #[test]
    fn spectral_cut_beats_random_cuts_on_structured_graphs() {
        let g = NetgenSpec::new(150, 500)
            .components(1)
            .seed(11)
            .generate()
            .unwrap();
        let spectral = SpectralBisector::new().bisect(&g).unwrap();
        // compare against 20 random balanced cuts
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut best_random = f64::INFINITY;
        for _ in 0..20 {
            let p = Bipartition::from_fn(g.node_count(), |_| {
                if rng.gen_bool(0.5) {
                    Side::Local
                } else {
                    Side::Remote
                }
            });
            if p.is_proper() {
                best_random = best_random.min(p.cut_weight(&g));
            }
        }
        assert!(
            spectral.cut_weight < best_random,
            "spectral {} vs best random {}",
            spectral.cut_weight,
            best_random
        );
    }

    #[test]
    fn bisect_reusing_is_bit_identical_to_bisect() {
        let mut scratch = CutScratch::new();
        // one arena across many graphs of varying size/rule — results
        // must match the allocating path exactly, not approximately
        for (seed, rule) in [
            (1u64, SplitRule::Sweep),
            (2, SplitRule::Sign),
            (3, SplitRule::Median),
            (4, SplitRule::RatioSweep),
            (5, SplitRule::Sweep),
        ] {
            let g = NetgenSpec::new(70 + seed as usize * 13, 220)
                .components(1)
                .seed(seed)
                .generate()
                .unwrap();
            let b = SpectralBisector::new().split_rule(rule);
            let fresh = b.bisect(&g).unwrap();
            let reused = b.bisect_reusing(&g, &mut scratch, &NullSink).unwrap();
            assert_eq!(fresh.partition, reused.partition, "seed {seed}");
            assert_eq!(
                fresh.fiedler_value.to_bits(),
                reused.fiedler_value.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                fresh.cut_weight.to_bits(),
                reused.cut_weight.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn small_graphs_take_the_serial_path_on_a_cluster() {
        // 30 nodes ≤ the default dense cutoff (32): the
        // cluster-configured bisector must produce the serial result
        // bit-for-bit, because it *is* the serial path at that size
        let g = NetgenSpec::new(30, 80)
            .components(1)
            .seed(6)
            .generate()
            .unwrap();
        let serial = SpectralBisector::new().bisect(&g).unwrap();
        let cluster = Arc::new(Cluster::new(4).unwrap());
        let small = SpectralBisector::new()
            .with_cluster(Arc::clone(&cluster), 4)
            .bisect(&g)
            .unwrap();
        assert_eq!(serial.partition, small.partition);
        assert_eq!(
            serial.fiedler_value.to_bits(),
            small.fiedler_value.to_bits()
        );
        // a dense cutoff of 0 makes even this graph iterate, so the
        // cluster-configured bisector runs the parallel operator, which
        // is numerically identical to the serial one by design
        let iterative = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let serial = SpectralBisector::new()
            .lanczos_options(iterative.clone())
            .bisect(&g)
            .unwrap();
        let forced = SpectralBisector::new()
            .lanczos_options(iterative)
            .with_cluster(cluster, 4)
            .bisect(&g)
            .unwrap();
        assert_eq!(serial.partition, forced.partition);
        assert_eq!(
            serial.fiedler_value.to_bits(),
            forced.fiedler_value.to_bits()
        );
    }
}
