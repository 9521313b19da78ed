//! Workload construction shared by all experiments.

use mec_graph::Graph;
use mec_netgen::NetgenSpec;

/// Edge count for a graph of `nodes` functions, following the density
/// of the paper's Table I rows (interpolating between them; the five
/// published sizes reproduce the published edge counts exactly).
pub fn edges_for(nodes: usize) -> usize {
    let rows = NetgenSpec::table1_rows();
    if nodes <= rows[0].0 {
        return (nodes * rows[0].1) / rows[0].0;
    }
    for w in rows.windows(2) {
        let (n0, e0) = w[0];
        let (n1, e1) = w[1];
        if nodes == n1 {
            return e1;
        }
        if nodes < n1 {
            // linear interpolation
            let t = (nodes - n0) as f64 / (n1 - n0) as f64;
            return (e0 as f64 + t * (e1 - e0) as f64).round() as usize;
        }
    }
    // extrapolate with the top segment's density
    let (n1, e1) = rows[rows.len() - 1];
    (nodes as f64 * e1 as f64 / n1 as f64).round() as usize
}

/// A paper-shaped workload graph of `nodes` functions.
///
/// # Panics
///
/// Panics only if the interpolated spec is internally inconsistent,
/// which would be a bug in [`edges_for`].
pub fn paper_graph(nodes: usize, seed: u64) -> Graph {
    NetgenSpec::paper_network(nodes, edges_for(nodes))
        .seed(seed)
        .generate()
        .expect("paper-shaped specs are generable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_rows_are_exact() {
        assert_eq!(edges_for(250), 1214);
        assert_eq!(edges_for(500), 2643);
        assert_eq!(edges_for(1000), 4912);
        assert_eq!(edges_for(2000), 9578);
        assert_eq!(edges_for(5000), 40243);
    }

    #[test]
    fn interpolation_is_monotone() {
        let mut prev = 0;
        for n in (250..=5000).step_by(250) {
            let e = edges_for(n);
            assert!(e >= prev, "edges_for({n}) = {e} < {prev}");
            prev = e;
        }
    }

    #[test]
    fn graphs_have_requested_shape() {
        let g = paper_graph(300, 1);
        assert_eq!(g.node_count(), 300);
        assert_eq!(g.edge_count(), edges_for(300));
    }
}
