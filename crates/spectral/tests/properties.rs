//! Property tests for the spectral stage: split-rule contracts,
//! Theorem 2 on arbitrary generated graphs, backend parity, the
//! disconnected inputs the bisector splits before any eigen-solve, and
//! every split rule on both sides of the dense cutoff.

use mec_graph::{Graph, NodeId, Side};
use mec_netgen::NetgenSpec;
use mec_obs::{ShardConfig, ShardedRecorder};
use mec_spectral::{theory, CutScratch, SpectralBisector, SplitRule};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = mec_graph::Graph> {
    // node range keeps every sampled spec inside per-component pair
    // capacity (edges = 2·nodes needs components of ≥ 7 nodes)
    (30usize..80, 1usize..3, 0u64..400).prop_map(|(nodes, comps, seed)| {
        NetgenSpec::new(nodes, nodes * 2)
            .components(comps)
            .unoffloadable_fraction(0.0)
            .seed(seed)
            .generate()
            .expect("feasible spec")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_split_rule_returns_a_proper_full_cover(g in arb_graph()) {
        for rule in [SplitRule::Sign, SplitRule::RatioSweep, SplitRule::Sweep, SplitRule::Median] {
            let cut = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
            prop_assert_eq!(cut.partition.len(), g.node_count());
            prop_assert!(cut.partition.is_proper(), "{rule:?} improper");
            prop_assert!((cut.partition.cut_weight(&g) - cut.cut_weight).abs() < 1e-9);
        }
    }

    #[test]
    fn fiedler_value_is_nonnegative_and_vector_is_unit(g in arb_graph()) {
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        prop_assert!(cut.fiedler_value >= -1e-9);
        let norm: f64 = cut.fiedler_vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-6);
        // sign canonicalisation: first non-zero component positive
        if let Some(first) = cut.fiedler_vector.iter().find(|v| v.abs() > 1e-12) {
            prop_assert!(*first > 0.0);
        }
    }

    #[test]
    fn theorem2_holds_for_the_returned_cut(g in arb_graph()) {
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        let via_l = theory::cut_via_laplacian(&g, &cut.partition, 1.0, -1.0);
        prop_assert!((via_l - cut.cut_weight).abs() < 1e-7);
    }

    #[test]
    fn rayleigh_of_indicator_stays_in_the_bracket(g in arb_graph(), flips in proptest::collection::vec(any::<bool>(), 80)) {
        let (lo, hi) = theory::cut_bracket(&g);
        let cut = mec_graph::Bipartition::from_fn(g.node_count(), |i| {
            if flips[i % flips.len()] { Side::Local } else { Side::Remote }
        });
        if !cut.is_proper() { return Ok(()); }
        let q = theory::indicator_vector(&g, &cut, 1.0, -1.0);
        let r = theory::rayleigh_quotient(&g, &q);
        prop_assert!(r >= lo - 1e-7 && r <= hi + 1e-7, "R = {r} outside [{lo}, {hi}]");
    }

    #[test]
    fn min_weight_sweep_never_beaten_by_other_rules(g in arb_graph()) {
        let sweep = SpectralBisector::new().split_rule(SplitRule::Sweep).bisect(&g).unwrap();
        for rule in [SplitRule::Sign, SplitRule::RatioSweep, SplitRule::Median] {
            let other = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
            prop_assert!(
                sweep.cut_weight <= other.cut_weight + 1e-9,
                "{rule:?} cut {} beat sweep {}",
                other.cut_weight,
                sweep.cut_weight
            );
        }
    }

    #[test]
    fn deterministic_per_graph(g in arb_graph()) {
        let a = SpectralBisector::new().bisect(&g).unwrap();
        let b = SpectralBisector::new().bisect(&g).unwrap();
        prop_assert_eq!(a.partition, b.partition);
        prop_assert_eq!(a.fiedler_value.to_bits(), b.fiedler_value.to_bits());
    }

    #[test]
    fn disconnected_inputs_get_zero_cuts(g in arb_graph()) {
        let g2 = with_isolated_node(&g);
        let cut = SpectralBisector::new().bisect(&g2).unwrap();
        prop_assert!(cut.fiedler_value.abs() < 1e-6);
        prop_assert_eq!(cut.cut_weight, 0.0);
    }
}

/// `g` plus one isolated node: disconnected whatever `g` is.
fn with_isolated_node(g: &Graph) -> Graph {
    let mut b = mec_graph::GraphBuilder::new();
    let ids: Vec<NodeId> = g.node_ids().map(|n| b.add_node(g.node_weight(n))).collect();
    for e in g.edges() {
        b.add_edge(ids[e.source.index()], ids[e.target.index()], e.weight)
            .unwrap();
    }
    b.add_node(1.0);
    b.build()
}

/// Two generated components plus an isolated node, well above the
/// eigensolver's dense cutoff: a solve would take the iterative path,
/// where one Krylov sequence sees the repeated zero eigenvalue once.
fn disconnected_above_the_dense_cutoff(seed: u64) -> Graph {
    let g = NetgenSpec::new(50, 100)
        .components(2)
        .unoffloadable_fraction(0.0)
        .seed(seed)
        .generate()
        .expect("feasible spec");
    with_isolated_node(&g)
}

#[test]
fn disconnected_bisection_splits_components_without_a_solve() {
    for seed in 0..6u64 {
        let g = disconnected_above_the_dense_cutoff(seed);
        let n = g.node_count();
        let rec = ShardedRecorder::with_config(ShardConfig {
            drain_interval: None,
            ..ShardConfig::default()
        });
        let cut = SpectralBisector::new()
            .bisect_reusing(&g, &mut CutScratch::new(), &rec)
            .unwrap();
        rec.flush();
        assert_eq!(cut.cut_weight, 0.0, "seed {seed}");
        assert_eq!(cut.fiedler_value, 0.0, "seed {seed}");
        assert_eq!(cut.partition.cut_weight(&g), 0.0, "seed {seed}");
        assert!(cut.partition.is_proper(), "seed {seed}");
        assert_eq!(cut.partition.side(NodeId::new(0)), Side::Local);
        assert_eq!(rec.counter_value("lanczos.iterations"), 0, "seed {seed}");
        assert_eq!(rec.counter_value("lanczos.dense_solves"), 0, "seed {seed}");
        assert_eq!(rec.counter_value("spectral.bisections"), 1, "seed {seed}");
        // a unit λ = 0 eigenvector: constant on each side, orthogonal
        // to the all-ones vector, first component positive
        let v = &cut.fiedler_vector;
        assert_eq!(v.len(), n);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12, "seed {seed}: norm {norm}");
        assert!(v.iter().sum::<f64>().abs() < 1e-12, "seed {seed}");
        assert!(v[0] > 0.0, "seed {seed}");
        for i in 0..n {
            let side = cut.partition.side(NodeId::new(i));
            assert_eq!(v[i] == v[0], side == Side::Local, "seed {seed}, node {i}");
        }
        let rayleigh = theory::rayleigh_quotient(&g, v);
        assert!(rayleigh.abs() < 1e-12, "seed {seed}: vᵀLv/vᵀv = {rayleigh}");
    }
}

#[test]
fn every_split_rule_cuts_properly_on_both_sides_of_the_dense_cutoff() {
    // sizes on both sides of the eigensolver's dense cutoff, so both the
    // dense path and the Lanczos path feed the split routine
    for (nodes, edges) in [(12usize, 30usize), (40, 120), (150, 600), (400, 2000)] {
        for seed in 0..10u64 {
            let g = NetgenSpec::new(nodes, edges)
                .components(1)
                .unoffloadable_fraction(0.0)
                .seed(seed)
                .generate()
                .expect("feasible spec");
            for rule in [
                SplitRule::Sign,
                SplitRule::RatioSweep,
                SplitRule::Sweep,
                SplitRule::Median,
            ] {
                let cut = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
                assert!(
                    cut.partition.is_proper(),
                    "({nodes}, {edges}) seed {seed} {rule:?}: improper cut"
                );
                assert_eq!(
                    cut.cut_weight.to_bits(),
                    cut.partition.cut_weight(&g).to_bits(),
                    "({nodes}, {edges}) seed {seed} {rule:?}"
                );
            }
        }
    }
}
