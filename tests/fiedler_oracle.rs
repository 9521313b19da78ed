//! The Fiedler solver against a dense oracle at the benchmark's sizes.
//!
//! The pipeline cuts each compressed component along the Fiedler
//! vector of its quotient's Laplacian, and above the dense cutoff that
//! vector comes from [`fiedler_pair`]'s deflated Lanczos solve. These
//! tests take the quotients of the two shapes the benchmark solves on
//! and hold the iterative pair to `householder_eigen` on the same
//! Laplacian:
//!
//! - the one-shot `solve` shape: 2 000-function apps of 2 components,
//!   whose quotients mostly have about 280 nodes;
//! - the streaming `admit` shape: 1 000-function apps of 8 components,
//!   whose quotients have 20–40 nodes; the ones above the cutoff of 32
//!   take the iterative solve.

use copmecs::graph::CsrAdjacency;
use copmecs::labelprop::{CompressionConfig, Compressor};
use copmecs::linalg::{
    fiedler_pair, householder_eigen, DenseMatrix, Eigenpair, LanczosOptions, LanczosScratch, SymOp,
};
use copmecs::netgen::NetgenSpec;
use copmecs::obs::NullSink;

/// The Laplacians of the compressed components' quotients of apps of
/// `nodes` functions and `edges` edges, one app per seed.
fn quotient_laplacians(
    nodes: usize,
    edges: usize,
    components: Option<usize>,
    seeds: &[u64],
) -> Vec<CsrAdjacency> {
    let compressor = Compressor::new(CompressionConfig::default());
    let mut out = Vec::new();
    for &seed in seeds {
        let mut spec = NetgenSpec::new(nodes, edges).seed(seed);
        if let Some(c) = components {
            spec = spec.components(c);
        }
        let g = spec.generate().expect("generable workload");
        for comp in compressor.compress(&g).components {
            out.push(CsrAdjacency::build(comp.quotient.graph()));
        }
    }
    out
}

/// `‖L v − λ v‖` of `pair`.
fn residual(l: &CsrAdjacency, pair: &Eigenpair) -> f64 {
    let mut y = vec![0.0; l.dim()];
    l.apply(&pair.vector, &mut y);
    y.iter()
        .zip(&pair.vector)
        .map(|(ly, v)| (ly - pair.value * v).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Checks the iterative Fiedler pair of every Laplacian above the
/// dense cutoff against the dense solve, and returns how many it
/// checked.
fn check_against_dense(laplacians: &[CsrAdjacency]) -> usize {
    let opts = LanczosOptions::default();
    let mut scratch = LanczosScratch::new();
    let mut checked = 0;
    for l in laplacians.iter().filter(|l| l.dim() > opts.dense_cutoff) {
        let n = l.dim();
        let pair = fiedler_pair(l, &opts, &NullSink, &mut scratch).expect("the solve converges");
        let (values, _) = householder_eigen(&DenseMatrix::from_op(l)).expect("dense oracle");
        let lambda2 = values[1];
        assert!(
            lambda2 > 0.0,
            "{n}-node quotient is disconnected: λ₂ = {lambda2}"
        );
        assert!(
            (pair.value - lambda2).abs() <= 1e-9 * lambda2,
            "{n} nodes: λ₂ {} by Lanczos, {lambda2} by Householder",
            pair.value
        );
        let sum: f64 = pair.vector.iter().sum();
        assert!(
            sum.abs() <= 1e-10 * (n as f64).sqrt(),
            "{n} nodes: the Fiedler vector sums to {sum}"
        );
        // the solve accepts a Ritz residual estimate within the
        // tolerance; the true residual adds rounding to it
        let r = residual(l, &pair);
        assert!(
            r <= 2.0 * LanczosOptions::TOLERANCE,
            "{n} nodes: ‖Lv − λv‖ = {r} against a tolerance of {}",
            LanczosOptions::TOLERANCE
        );
        checked += 1;
    }
    checked
}

#[test]
fn solve_shaped_quotients_match_the_dense_fiedler_pair() {
    // `solve`: Table I's 2 000-node row, two components per app
    let laplacians = quotient_laplacians(2_000, 9_578, Some(2), &[1, 2]);
    // a component can compress to a handful of nodes, which the dense
    // path cuts; the rest are the large quotients the solve is for
    let large: Vec<CsrAdjacency> = laplacians.into_iter().filter(|l| l.dim() > 32).collect();
    assert!(large.iter().all(|l| l.dim() > 200), "quotients too small");
    assert_eq!(check_against_dense(&large), large.len());
    assert!(large.len() >= 4, "only {} large quotients", large.len());
}

#[test]
fn admit_shaped_quotients_match_the_dense_fiedler_pair() {
    // `admit`: Table I's 1 000-node row, netgen's default of one
    // component per ~125 functions
    let laplacians = quotient_laplacians(1_000, 4_912, None, &[1, 2, 3, 4, 5, 6]);
    let checked = check_against_dense(&laplacians);
    assert!(
        checked >= 10,
        "only {checked} of {} quotients were above the dense cutoff",
        laplacians.len()
    );
}
