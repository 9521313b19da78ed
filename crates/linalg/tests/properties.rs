//! Property tests: the iterative solvers must agree with the dense
//! Jacobi reference on arbitrary symmetric matrices, and Laplacian
//! spectra must satisfy their structural guarantees.

use mec_graph::{CsrAdjacency, GraphBuilder};
use mec_linalg::{
    fiedler_pair, householder_eigen, jacobi_eigen, tridiagonal_eigen, DenseMatrix, Eigenpair,
    LanczosOptions, LanczosScratch, SymOp,
};
use proptest::prelude::*;

/// The Laplacian of an edge list over `n` nodes, as the pipeline's CSR
/// snapshot.
fn laplacian(n: usize, edges: &[(usize, usize, f64)]) -> CsrAdjacency {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
    for &(u, v, w) in edges {
        b.add_edge(ids[u], ids[v], w).unwrap();
    }
    CsrAdjacency::build(&b.build())
}

/// The Fiedler pair of `l`, with a fresh scratch arena and no telemetry.
fn fiedler(l: &CsrAdjacency, opts: &LanczosOptions) -> Eigenpair {
    fiedler_pair(l, opts, &mec_obs::NullSink, &mut LanczosScratch::new())
        .expect("a connected Laplacian has a Fiedler pair")
}

/// SplitMix64: the seeded draws of the deterministic tests below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A connected Laplacian of `n` nodes drawn from `seed`: a random
/// spanning tree plus about `n` chords, weights spread over three
/// decades like a compressed quotient's.
fn seeded_connected_laplacian(n: usize, seed: u64) -> CsrAdjacency {
    let mut state = seed;
    let weight =
        |state: &mut u64| 0.1 * 1000f64.powf((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64);
    let mut edges = Vec::new();
    for i in 1..n {
        let parent = (splitmix(&mut state) % i as u64) as usize;
        edges.push((parent, i, weight(&mut state)));
    }
    for _ in 0..n {
        let a = (splitmix(&mut state) % n as u64) as usize;
        let b = (splitmix(&mut state) % n as u64) as usize;
        if a != b {
            edges.push((a, b, weight(&mut state)));
        }
    }
    laplacian(n, &edges)
}

/// Above Jacobi's 8 nodes and up to the default cutoff, `fiedler_pair`
/// solves densely and back-transforms only the vector it returns; that
/// pair is bit for bit the second one of the full Householder
/// decomposition.
#[test]
fn dense_fiedler_pair_is_the_second_householder_pair_bit_for_bit() {
    let opts = LanczosOptions::default();
    for seed in 0..240u64 {
        let n = 9 + (seed as usize % 24);
        assert!(n <= opts.dense_cutoff);
        let l = seeded_connected_laplacian(n, seed);
        let pair = fiedler(&l, &opts);
        let (values, vectors) = householder_eigen(&DenseMatrix::from_op(&l)).unwrap();
        assert_eq!(
            pair.value.to_bits(),
            values[1].to_bits(),
            "n = {n}, seed {seed}"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&pair.vector),
            bits(&vectors[1]),
            "n = {n}, seed {seed}"
        );
    }
}

/// Random symmetric dense matrix of dimension 2..12.
fn arb_symmetric() -> impl Strategy<Value = DenseMatrix> {
    (2usize..12).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |raw| {
            let mut m = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in i..n {
                    let v = raw[i * n + j];
                    m.set(i, j, v);
                    m.set(j, i, v);
                }
            }
            m
        })
    })
}

/// Random connected weighted graph edge list (path backbone + extras).
fn arb_graph_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..40).prop_flat_map(|n| {
        let backbone: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let extras = proptest::collection::vec(((0..n), (0..n)), 0..2 * n);
        let weights = proptest::collection::vec(0.1f64..10.0, 3 * n);
        (Just(backbone), extras, weights).prop_map(move |(bb, ex, ws)| {
            let mut edges = vec![];
            let mut wi = 0;
            let mut seen = std::collections::HashSet::new();
            for (a, b) in bb.into_iter().chain(ex) {
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if !seen.insert(key) {
                    continue;
                }
                edges.push((key.0, key.1, ws[wi % ws.len()]));
                wi += 1;
            }
            (n, edges)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_reproduces_trace_and_residuals(m in arb_symmetric()) {
        let n = m.dim();
        let (vals, vecs) = jacobi_eigen(&m).unwrap();
        let trace: f64 = (0..n).map(|i| m.get(i, i)).sum();
        prop_assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-7 * (1.0 + trace.abs()));
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut y = vec![0.0; n];
            m.apply(v, &mut y);
            let res: f64 = y.iter().zip(v).map(|(a, b)| (a - lam * b).powi(2)).sum::<f64>().sqrt();
            prop_assert!(res < 1e-7, "residual {res}");
        }
    }

    #[test]
    fn laplacian_lambda1_is_zero_and_lambda2_nonnegative((n, edges) in arb_graph_edges()) {
        let l = laplacian(n, &edges);
        prop_assert!(DenseMatrix::from_op(&l).is_symmetric(0.0));
        let pair = fiedler(&l, &LanczosOptions::default());
        // connected backbone graph: lambda2 strictly positive
        prop_assert!(pair.value > 1e-9, "lambda2 = {}", pair.value);
        // Fiedler vector is orthogonal to the constant vector
        let s: f64 = pair.vector.iter().sum();
        prop_assert!(s.abs() < 1e-5, "Fiedler not balanced: {s}");
    }

    #[test]
    fn lanczos_agrees_with_jacobi_on_dense((n, edges) in arb_graph_edges()) {
        let l = laplacian(n, &edges);
        let dense = DenseMatrix::from_op(&l);
        let (jvals, _) = jacobi_eigen(&dense).unwrap();
        let iter_opts = LanczosOptions { dense_cutoff: 0, ..LanczosOptions::default() };
        let pair = fiedler(&l, &iter_opts);
        prop_assert!((pair.value - jvals[1]).abs() < 1e-6,
            "lanczos {} vs jacobi {}", pair.value, jvals[1]);
    }

    #[test]
    fn tridiagonal_matches_jacobi(diag in proptest::collection::vec(-3.0f64..3.0, 2..10),
                                  raw_off in proptest::collection::vec(-2.0f64..2.0, 9)) {
        let n = diag.len();
        let off = &raw_off[..n - 1];
        let t = tridiagonal_eigen(&diag, off).unwrap();
        let mut dense = DenseMatrix::zeros(n);
        for i in 0..n {
            dense.set(i, i, diag[i]);
            if i + 1 < n {
                dense.set(i, i + 1, off[i]);
                dense.set(i + 1, i, off[i]);
            }
        }
        let (jvals, _) = jacobi_eigen(&dense).unwrap();
        for (a, b) in t.values.iter().zip(&jvals) {
            prop_assert!((a - b).abs() < 1e-8, "tql2 {a} vs jacobi {b}");
        }
    }
}
