//! Executable statements of the paper's spectral theory.
//!
//! Appendix A proves (Theorem 2) that for the indicator vector `q` with
//! `q_i = d₁` on one side and `q_i = d₂` on the other,
//!
//! ```text
//! CUT(G₁, G₂) = qᵀ L q / (d₁ − d₂)²
//! ```
//!
//! and (Theorem 3, via Lagrange multipliers) that the extreme points of
//! the cut functional are eigenvectors of `L`. These functions compute
//! both sides of the Theorem 2 identity so tests — and downstream users
//! — can check them on any graph.

use mec_graph::{Bipartition, CsrAdjacency, Graph, Side};
use mec_linalg::{largest_eigenpair, SymOp};

/// Builds the paper's indicator vector: `d1` on [`Side::Local`] nodes,
/// `d2` on [`Side::Remote`] nodes.
///
/// # Panics
///
/// Panics if `cut` covers fewer nodes than `g`.
pub fn indicator_vector(g: &Graph, cut: &Bipartition, d1: f64, d2: f64) -> Vec<f64> {
    assert!(cut.len() >= g.node_count());
    (0..g.node_count())
        .map(|i| match cut.side(mec_graph::NodeId::new(i)) {
            Side::Local => d1,
            Side::Remote => d2,
        })
        .collect()
}

/// Evaluates the Laplacian quadratic form `qᵀ L q`.
///
/// # Panics
///
/// Panics if `q.len() != g.node_count()`.
pub fn quadratic_form(g: &Graph, q: &[f64]) -> f64 {
    let l = CsrAdjacency::build(g);
    let mut y = vec![0.0; q.len()];
    l.apply(q, &mut y);
    q.iter().zip(&y).map(|(a, b)| a * b).sum()
}

/// The right-hand side of Theorem 2:
/// `qᵀ L q / (d₁ − d₂)²` for the indicator with levels `d1`, `d2`.
///
/// Equals [`Bipartition::cut_weight`] for every proper choice
/// `d1 ≠ d2` — the identity the whole spectral method rests on.
///
/// # Panics
///
/// Panics if `d1 == d2` (the indicator is constant and the identity
/// degenerates) or if `cut` covers fewer nodes than `g`.
pub fn cut_via_laplacian(g: &Graph, cut: &Bipartition, d1: f64, d2: f64) -> f64 {
    assert!(d1 != d2, "indicator levels must differ");
    let q = indicator_vector(g, cut, d1, d2);
    quadratic_form(g, &q) / (d1 - d2).powi(2)
}

/// The spectral cut bracket of the paper's formula (11): the extreme
/// Laplacian eigenvalues `(λ_min, λ_max)` of `g`. For any proper cut,
/// the *normalised* cut value `qᵀLq/qᵀq` (with `q` the ±1 indicator)
/// lies inside this bracket — the Rayleigh-quotient bound behind
/// Theorem 3.
///
/// `λ_min` is exactly `0` for every graph Laplacian; it is returned
/// for symmetry with the formula.
///
/// # Panics
///
/// Panics if `g` is empty or the power iteration fails to converge
/// (practically impossible on finite Laplacians).
pub fn cut_bracket(g: &Graph) -> (f64, f64) {
    let top =
        largest_eigenpair(&CsrAdjacency::build(g)).expect("Laplacian power iteration converges");
    (0.0, top.value)
}

/// Rayleigh quotient `qᵀLq / qᵀq` — Theorem 3's objective; its
/// stationary points are the eigenpairs of `L`.
///
/// # Panics
///
/// Panics if `q` is the zero vector or of mismatched length.
pub fn rayleigh_quotient(g: &Graph, q: &[f64]) -> f64 {
    let qq: f64 = q.iter().map(|v| v * v).sum();
    assert!(qq > 0.0, "Rayleigh quotient of the zero vector");
    quadratic_form(g, q) / qq
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::{GraphBuilder, NodeId};

    fn sample() -> (Graph, Bipartition) {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 2.0).unwrap();
        b.add_edge(n[1], n[2], 3.0).unwrap();
        b.add_edge(n[2], n[3], 4.0).unwrap();
        b.add_edge(n[3], n[4], 5.0).unwrap();
        b.add_edge(n[0], n[4], 1.0).unwrap();
        let cut = Bipartition::from_fn(5, |i| if i < 2 { Side::Local } else { Side::Remote });
        (b.build(), cut)
    }

    #[test]
    fn theorem2_identity_with_paper_levels() {
        // the paper uses q_i = ±1 (d1 = 1, d2 = -1)
        let (g, cut) = sample();
        let direct = cut.cut_weight(&g);
        let spectral = cut_via_laplacian(&g, &cut, 1.0, -1.0);
        assert!((direct - spectral).abs() < 1e-12);
    }

    #[test]
    fn theorem2_identity_is_level_invariant() {
        let (g, cut) = sample();
        let direct = cut.cut_weight(&g);
        for (d1, d2) in [(2.0, 0.0), (5.0, -3.0), (0.1, 0.9)] {
            let v = cut_via_laplacian(&g, &cut, d1, d2);
            assert!(
                (direct - v).abs() < 1e-9,
                "levels ({d1},{d2}): {v} vs {direct}"
            );
        }
    }

    #[test]
    fn quadratic_form_is_edge_sum_of_squared_differences() {
        let (g, _) = sample();
        let q = [1.0, -2.0, 0.5, 3.0, 0.0];
        let lhs = quadratic_form(&g, &q);
        let rhs: f64 = g
            .edges()
            .map(|e| e.weight * (q[e.source.index()] - q[e.target.index()]).powi(2))
            .sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn rayleigh_quotient_is_bounded_by_extreme_eigenvalues() {
        let (g, _) = sample();
        // lambda_min = 0 for any Laplacian; check 0 <= R(q)
        let q = [0.3, -1.0, 2.0, 0.7, -0.2];
        let r = rayleigh_quotient(&g, &q);
        assert!(r >= 0.0);
        // constant vector attains the minimum
        assert!(rayleigh_quotient(&g, &[1.0; 5]).abs() < 1e-12);
    }

    #[test]
    fn indicator_vector_levels() {
        let (g, cut) = sample();
        let q = indicator_vector(&g, &cut, 7.0, -2.0);
        assert_eq!(q[0], 7.0);
        assert_eq!(q[4], -2.0);
        assert_eq!(cut.side(NodeId::new(0)), Side::Local);
    }

    #[test]
    fn formula_11_brackets_every_cut() {
        // λ_min ≤ R(q) ≤ λ_max for the ±1 indicator of any proper cut
        let (g, _) = sample();
        let (lo, hi) = cut_bracket(&g);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0);
        // every bipartition of 5 nodes (node 0 pinned Local)
        for mask in 1u32..(1 << 4) {
            let cut = Bipartition::from_fn(5, |i| {
                if i == 0 || (i > 0 && mask & (1 << (i - 1)) == 0) {
                    Side::Local
                } else {
                    Side::Remote
                }
            });
            if !cut.is_proper() {
                continue;
            }
            let q = indicator_vector(&g, &cut, 1.0, -1.0);
            let r = rayleigh_quotient(&g, &q);
            assert!(
                r >= lo - 1e-9 && r <= hi + 1e-9,
                "R(q) = {r} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "levels must differ")]
    fn equal_levels_panic() {
        let (g, cut) = sample();
        let _ = cut_via_laplacian(&g, &cut, 1.0, 1.0);
    }
}
