//! The benchmark's own checks, on tiny versions of its workloads: seeded
//! determinism, a traced breakdown that adds up, and agreement between
//! the metrics the runs report and the ones `BENCHMARK.json` declares.

use copmecs_perfbench::inputs::{AppShape, SolveSpec, StreamSpec};
use copmecs_perfbench::{run_solve, run_stream, Mode, Report, END_TO_END, PER_LAYER, SHARDS};

/// A tiny stream: 30 users per shard, so an operation still outweighs
/// the benchmark's own spans around it, and 48 events (three 16-event
/// blocks, so a traced run records at least one block), all of them the
/// checkpoint prefix.
fn tiny_stream(pool: Option<usize>, nodes: usize) -> StreamSpec {
    StreamSpec {
        users: 30 * SHARDS,
        app: AppShape {
            nodes,
            components: None,
        },
        pool,
        events: 48,
        min_events: 48,
    }
}

fn tiny_solve() -> SolveSpec {
    SolveSpec {
        users: 2,
        app: AppShape {
            nodes: 200,
            components: Some(1),
        },
        scenarios: 2,
        min_solves: 2,
    }
}

/// Every tiny workload, run for (effectively) only its prefix.
fn run_all(seed: u64, mode: Mode) -> Vec<Report> {
    let seconds = 1e-3;
    let reports = vec![
        run_stream(&tiny_stream(Some(4), 24), seed, seconds, mode).expect("churn inputs"),
        run_stream(&tiny_stream(None, 150), seed, seconds, mode).expect("admit inputs"),
        run_solve(&tiny_solve(), seed, seconds, mode).expect("solve inputs"),
    ];
    for r in &reports {
        assert_eq!(r.failed, 0, "failed checks: {:?}", r.failures);
        assert!(r.attempted > 0);
    }
    reports
}

fn objectives(seed: u64) -> Vec<u64> {
    run_all(seed, Mode::EndToEnd)
        .iter()
        .map(|r| r.value("objective").expect("objective").to_bits())
        .collect()
}

#[test]
fn the_same_seed_reproduces_the_objective_bit_for_bit() {
    let first = objectives(5);
    assert_eq!(first, objectives(5));
    let other = objectives(6);
    for (a, b) in first.iter().zip(&other) {
        assert_ne!(a, b, "another seed must change every workload's objective");
    }
}

#[test]
fn traced_layer_self_times_sum_to_each_op_span() {
    for report in run_all(3, Mode::PerLayer) {
        assert_eq!(report.value("obs.dropped"), Some(0.0));
        assert!(!report.traced_ops.is_empty());
        for op in &report.traced_ops {
            let (attributed, total) = (op.attributed_ns() as f64, op.total_ns as f64);
            assert!(attributed <= total);
            assert!(
                attributed >= 0.95 * total,
                "layers cover {attributed} of the {total} ns op span"
            );
        }
    }
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    let declared = include_str!("../../BENCHMARK.json");
    let section = |key: &str, next: Option<&str>| -> Vec<(String, String)> {
        let start = declared.find(key).expect("section present");
        let end = next.map_or(declared.len(), |n| declared.find(n).expect("next section"));
        declared[start..end]
            .split('{')
            .filter_map(|entry| {
                let field = |name: &str| -> Option<String> {
                    let at = entry.find(&format!("\"{name}\": \""))? + name.len() + 5;
                    Some(entry[at..].split('"').next()?.to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    };
    let listed = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(
        section("\"end_to_end\"", Some("\"per_layer\"")),
        listed(&END_TO_END)
    );
    assert_eq!(section("\"per_layer\"", None), listed(&PER_LAYER));

    // the runs themselves refuse (as a failed check) any other set
    for (mode, expected) in [
        (Mode::EndToEnd, &END_TO_END[..]),
        (Mode::PerLayer, &PER_LAYER[..]),
    ] {
        for report in run_all(9, mode) {
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, wanted);
        }
    }
}
