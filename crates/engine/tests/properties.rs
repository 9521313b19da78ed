//! Property tests: every parallel engine result must equal its serial
//! equivalent, for arbitrary data, partitionings and worker counts.

use mec_engine::{Cluster, ParallelLaplacian};
use mec_graph::{CsrAdjacency, GraphBuilder};
use mec_linalg::SymOp;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stage_results_keep_input_order_under_contention(
        n in 1usize..150,
        workers in 1usize..8,
    ) {
        let cluster = Cluster::new(workers).unwrap();
        let out = cluster
            .run_stage((0..n).collect(), |i, x: usize| {
                // jitter to shuffle completion order
                if x.is_multiple_of(3) {
                    std::thread::yield_now();
                }
                (i, x * x)
            })
            .unwrap();
        for (i, (idx, sq)) in out.into_iter().enumerate() {
            prop_assert_eq!(i, idx);
            prop_assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn parallel_laplacian_matches_serial_for_any_blocking(
        n in 2usize..60,
        blocks in 1usize..10,
        seed in 0u64..200,
    ) {
        // ring + chord graph (on two nodes the ring's two edges merge
        // into one)
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(1.0)).collect();
        for i in 0..n {
            let w = 1.0 + ((seed as usize + i) % 5) as f64;
            b.add_edge(ids[i], ids[(i + 1) % n], w).unwrap();
        }
        if n > 4 {
            b.add_edge(ids[0], ids[n / 2], 2.5).unwrap();
        }
        let serial = CsrAdjacency::build(&b.build());
        let cluster = Arc::new(Cluster::new(3).unwrap());
        let par = ParallelLaplacian::from_csr(cluster, &serial, blocks).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + seed as usize) % 11) as f64 / 3.0 - 1.7).collect();
        let mut ys = vec![0.0; n];
        let mut yp = vec![0.0; n];
        serial.apply(&x, &mut ys);
        par.apply(&x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
