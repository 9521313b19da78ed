//! The performance-regression gate: compares a fresh spectral
//! hot-path bench run against the committed `BENCH_spectral.json`
//! baseline and classifies each headline metric pass / warn / fail
//! under a configurable noise tolerance.
//!
//! The gate re-runs the *same spec the baseline recorded* (users,
//! nodes, seed, depth, iters are read out of the baseline file), so a
//! `--quick` fresh run can never be compared against a full baseline
//! by accident. Timing metrics are noisy across hosts, hence the
//! tolerance band; structural metrics (`parts`, `cut_weight`) are
//! deterministic and compared exactly.

use crate::churn::{ChurnReport, ChurnSpec};
use crate::spectral_hotpath::{HotpathReport, HotpathSpec};
use serde::{find_field, Value};
use std::fmt;

/// Verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateStatus {
    /// Within half the tolerance band.
    Pass,
    /// Between half and the full tolerance band — noisy but suspicious.
    Warn,
    /// Beyond the tolerance band (or a deterministic metric changed).
    Fail,
}

impl fmt::Display for GateStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GateStatus::Pass => "PASS",
            GateStatus::Warn => "WARN",
            GateStatus::Fail => "FAIL",
        })
    }
}

/// One row of the gate table.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Metric name, e.g. `optimized.seconds`.
    pub metric: &'static str,
    /// Value recorded in the committed baseline.
    pub baseline: f64,
    /// Value from the fresh run.
    pub fresh: f64,
    /// `fresh / baseline` (1.0 when the baseline is zero and fresh is
    /// too).
    pub ratio: f64,
    /// The verdict.
    pub status: GateStatus,
}

/// The whole gate outcome.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-metric rows, headline first.
    pub rows: Vec<GateRow>,
    /// The tolerance the verdicts used (relative, e.g. 0.25 = 25 %).
    pub tolerance: f64,
    /// Informational messages — e.g. a tracing-overhead measurement
    /// present on one side only, which is noted rather than failed so
    /// schema upgrades pass against any baseline.
    pub notes: Vec<String>,
}

impl GateReport {
    /// The most severe verdict across all rows.
    pub fn worst(&self) -> GateStatus {
        self.rows
            .iter()
            .map(|r| r.status)
            .max()
            .unwrap_or(GateStatus::Pass)
    }
}

/// The slice of the committed baseline JSON the gate compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The workload to re-run.
    pub spec: HotpathSpec,
    /// `optimized.seconds` from the baseline.
    pub optimized_seconds: f64,
    /// `speedup` from the baseline.
    pub speedup: f64,
    /// `optimized.allocations`, when the baseline was measured with a
    /// counting allocator.
    pub allocations: Option<u64>,
    /// `optimized.allocated_bytes`, likewise.
    pub allocated_bytes: Option<u64>,
    /// `optimized.parts` (deterministic).
    pub parts: u64,
    /// `optimized.cut_weight` (deterministic).
    pub cut_weight: f64,
    /// `obs_overhead.sharded_overhead` from the baseline, when the
    /// baseline recorded the tracing-overhead measurement. Recorded
    /// for the report; the gate verdict compares the fresh value
    /// against the configured budget, not against this.
    pub obs_overhead: Option<f64>,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(u) => Some(*u),
        Value::I64(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn field_f64(fields: &[(String, Value)], name: &str) -> Result<f64, String> {
    find_field(fields, name)
        .and_then(as_f64)
        .ok_or_else(|| format!("baseline lacks numeric field {name:?}"))
}

fn field_u64(fields: &[(String, Value)], name: &str) -> Result<u64, String> {
    find_field(fields, name)
        .and_then(as_u64)
        .ok_or_else(|| format!("baseline lacks integer field {name:?}"))
}

/// Parses the committed `BENCH_spectral.json` into the slice the gate
/// needs.
///
/// # Errors
///
/// A human-readable message when the file is not valid JSON or lacks a
/// required field.
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    let value: Value = serde_json::from_str(json).map_err(|e| format!("baseline JSON: {e}"))?;
    let top = value.as_object().ok_or("baseline is not a JSON object")?;
    let spec = find_field(top, "spec")
        .and_then(Value::as_object)
        .ok_or("baseline lacks a spec object")?;
    let optimized = find_field(top, "optimized")
        .and_then(Value::as_object)
        .ok_or("baseline lacks an optimized object")?;
    Ok(Baseline {
        spec: HotpathSpec {
            users: field_u64(spec, "users")? as usize,
            nodes: field_u64(spec, "nodes")? as usize,
            seed: field_u64(spec, "seed")?,
            depth: field_u64(spec, "depth")? as usize,
            iters: field_u64(spec, "iters")? as usize,
        },
        optimized_seconds: field_f64(optimized, "seconds")?,
        speedup: field_f64(top, "speedup")?,
        allocations: find_field(optimized, "allocations").and_then(as_u64),
        allocated_bytes: find_field(optimized, "allocated_bytes").and_then(as_u64),
        parts: field_u64(optimized, "parts")?,
        cut_weight: field_f64(optimized, "cut_weight")?,
        obs_overhead: find_field(top, "obs_overhead")
            .and_then(Value::as_object)
            .and_then(|o| find_field(o, "sharded_overhead"))
            .and_then(as_f64),
    })
}

/// Classifies a "lower is better" metric: the regression is
/// `fresh / baseline - 1`, gated against the tolerance band.
fn gate_lower_is_better(
    metric: &'static str,
    baseline: f64,
    fresh: f64,
    tolerance: f64,
) -> GateRow {
    let ratio = if baseline > 0.0 {
        fresh / baseline
    } else {
        1.0
    };
    let status = if ratio > 1.0 + tolerance {
        GateStatus::Fail
    } else if ratio > 1.0 + tolerance / 2.0 {
        GateStatus::Warn
    } else {
        GateStatus::Pass
    };
    GateRow {
        metric,
        baseline,
        fresh,
        ratio,
        status,
    }
}

/// Classifies a "higher is better" metric (the speedup).
fn gate_higher_is_better(
    metric: &'static str,
    baseline: f64,
    fresh: f64,
    tolerance: f64,
) -> GateRow {
    let ratio = if baseline > 0.0 {
        fresh / baseline
    } else {
        1.0
    };
    let status = if ratio < 1.0 - tolerance {
        GateStatus::Fail
    } else if ratio < 1.0 - tolerance / 2.0 {
        GateStatus::Warn
    } else {
        GateStatus::Pass
    };
    GateRow {
        metric,
        baseline,
        fresh,
        ratio,
        status,
    }
}

/// Classifies a deterministic metric: any relative deviation beyond
/// `1e-9` fails regardless of tolerance.
fn gate_exact(metric: &'static str, baseline: f64, fresh: f64) -> GateRow {
    let scale = baseline.abs().max(fresh.abs()).max(1.0);
    let status = if (fresh - baseline).abs() <= 1e-9 * scale {
        GateStatus::Pass
    } else {
        GateStatus::Fail
    };
    GateRow {
        metric,
        baseline,
        fresh,
        ratio: if baseline != 0.0 {
            fresh / baseline
        } else {
            1.0
        },
        status,
    }
}

/// Classifies the tracing-overhead measurement against an absolute
/// budget (not the baseline): enabled sharded tracing may cost at most
/// `budget` relative front-end wall time (fail beyond it, warn beyond
/// half of it). The baseline column of the row shows the budget so the
/// printed table reads as "allowed vs measured".
fn gate_against_budget(metric: &'static str, budget: f64, fresh: f64) -> GateRow {
    let status = if fresh > budget {
        GateStatus::Fail
    } else if fresh > budget / 2.0 {
        GateStatus::Warn
    } else {
        GateStatus::Pass
    };
    GateRow {
        metric,
        baseline: budget,
        fresh,
        ratio: if budget > 0.0 { fresh / budget } else { 1.0 },
        status,
    }
}

/// Compares a fresh hot-path run against the committed baseline.
///
/// Wall-clock and allocation metrics use the tolerance band (fail
/// beyond it, warn beyond half of it); `parts` and `cut_weight` are
/// deterministic and compared exactly. Allocation rows are emitted
/// only when both sides were measured with a counting allocator. The
/// tracing-overhead row is gated against the absolute `obs_budget`
/// rather than the baseline, so the budget holds even if an inflated
/// overhead was ever committed.
pub fn evaluate(
    baseline: &Baseline,
    fresh: &HotpathReport,
    tolerance: f64,
    obs_budget: f64,
) -> GateReport {
    let mut rows = vec![
        gate_lower_is_better(
            "optimized.seconds",
            baseline.optimized_seconds,
            fresh.optimized.seconds,
            tolerance,
        ),
        gate_higher_is_better("speedup", baseline.speedup, fresh.speedup, tolerance),
    ];
    if let (Some(b), Some(f)) = (baseline.allocations, fresh.optimized.allocations) {
        rows.push(gate_lower_is_better(
            "optimized.allocations",
            b as f64,
            f as f64,
            tolerance,
        ));
    }
    if let (Some(b), Some(f)) = (baseline.allocated_bytes, fresh.optimized.allocated_bytes) {
        rows.push(gate_lower_is_better(
            "optimized.allocated_bytes",
            b as f64,
            f as f64,
            tolerance,
        ));
    }
    rows.push(gate_exact(
        "optimized.parts",
        baseline.parts as f64,
        fresh.optimized.parts as f64,
    ));
    rows.push(gate_exact(
        "optimized.cut_weight",
        baseline.cut_weight,
        fresh.optimized.cut_weight,
    ));
    let mut notes = Vec::new();
    // The tracing-overhead budget row: absolute, not baseline-relative.
    // A binary that did not measure overhead is noted and skipped so
    // pre-observability baselines and stripped builds still gate.
    match &fresh.obs_overhead {
        Some(obs) => {
            rows.push(gate_against_budget(
                "obs_overhead.sharded",
                obs_budget,
                obs.sharded_overhead,
            ));
            if baseline.obs_overhead.is_none() {
                notes.push(
                    "fresh run measured tracing overhead the baseline predates; \
                     gated against the budget alone"
                        .to_string(),
                );
            }
        }
        None => {
            if baseline.obs_overhead.is_some() {
                notes.push(
                    "baseline records a tracing-overhead measurement but this run \
                     skipped it; obs_overhead row omitted"
                        .to_string(),
                );
            }
        }
    }
    GateReport {
        rows,
        tolerance,
        notes,
    }
}

/// The slice of the committed `BENCH_churn.json` the churn gate
/// compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBaseline {
    /// The churn workload to re-run.
    pub spec: ChurnSpec,
    /// `replan_p99_nanos` from the baseline.
    pub replan_p99_nanos: u64,
    /// `replan_p50_nanos` from the baseline.
    pub replan_p50_nanos: u64,
    /// `speedup` from the baseline (informational; the verdict uses
    /// the absolute floor).
    pub speedup: f64,
    /// `sustained_users` from the baseline (deterministic).
    pub sustained_users: u64,
}

/// The absolute delta-vs-full speedup floor the churn gate enforces,
/// independent of what the committed baseline achieved.
pub const CHURN_SPEEDUP_FLOOR: f64 = 5.0;

/// Parses the committed `BENCH_churn.json` into the slice the churn
/// gate needs.
///
/// # Errors
///
/// A human-readable message when the file is not valid JSON or lacks a
/// required field.
pub fn parse_churn_baseline(json: &str) -> Result<ChurnBaseline, String> {
    let value: Value = serde_json::from_str(json).map_err(|e| format!("baseline JSON: {e}"))?;
    let top = value.as_object().ok_or("baseline is not a JSON object")?;
    let spec = find_field(top, "spec")
        .and_then(Value::as_object)
        .ok_or("baseline lacks a spec object")?;
    Ok(ChurnBaseline {
        spec: ChurnSpec {
            users: field_u64(spec, "users")? as usize,
            shards: field_u64(spec, "shards")? as usize,
            nodes: field_u64(spec, "nodes")? as usize,
            graph_pool: field_u64(spec, "graph_pool")? as usize,
            events: field_u64(spec, "events")? as usize,
            full_samples: field_u64(spec, "full_samples")? as usize,
            seed: field_u64(spec, "seed")?,
        },
        replan_p99_nanos: field_u64(top, "replan_p99_nanos")?,
        replan_p50_nanos: field_u64(top, "replan_p50_nanos")?,
        speedup: field_f64(top, "speedup")?,
        sustained_users: field_u64(top, "sustained_users")?,
    })
}

/// Compares a fresh churn run against the committed `BENCH_churn.json`
/// baseline.
///
/// Latency rows (p50/p99) use the tolerance band against the baseline;
/// the delta-vs-full speedup is gated against the absolute
/// [`CHURN_SPEEDUP_FLOOR`] (a warn below twice the floor) so the
/// incremental path cannot quietly decay toward the from-scratch one
/// even if a slow baseline were ever committed; the sustained crowd is
/// seeded and deterministic, so it is compared exactly.
pub fn evaluate_churn(baseline: &ChurnBaseline, fresh: &ChurnReport, tolerance: f64) -> GateReport {
    let rows = vec![
        // speedup vs the absolute floor: baseline column shows the
        // floor, so the table reads "required vs measured"
        GateRow {
            metric: "churn.speedup",
            baseline: CHURN_SPEEDUP_FLOOR,
            fresh: fresh.speedup,
            ratio: fresh.speedup / CHURN_SPEEDUP_FLOOR,
            status: if fresh.speedup < CHURN_SPEEDUP_FLOOR {
                GateStatus::Fail
            } else if fresh.speedup < 2.0 * CHURN_SPEEDUP_FLOOR {
                GateStatus::Warn
            } else {
                GateStatus::Pass
            },
        },
        gate_lower_is_better(
            "churn.replan_p99_nanos",
            baseline.replan_p99_nanos as f64,
            fresh.replan_p99_nanos as f64,
            tolerance,
        ),
        gate_lower_is_better(
            "churn.replan_p50_nanos",
            baseline.replan_p50_nanos as f64,
            fresh.replan_p50_nanos as f64,
            tolerance,
        ),
        gate_exact(
            "churn.sustained_users",
            baseline.sustained_users as f64,
            fresh.sustained_users as f64,
        ),
    ];
    GateReport {
        rows,
        tolerance,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral_hotpath::{HotpathMeasurement, ObsOverhead};

    /// The default budget used across the gate tests: 3 % of front-end
    /// wall time, matching the CLI default.
    const BUDGET: f64 = 0.03;

    fn measurement(label: &str, secs: f64, parts: usize, cut_weight: f64) -> HotpathMeasurement {
        HotpathMeasurement {
            label: label.to_string(),
            seconds: secs,
            allocations: Some(100_000),
            allocated_bytes: Some(40_000_000),
            peak_growth_bytes: Some(0),
            parts,
            cut_weight,
        }
    }

    fn fresh_report(seconds: f64, speedup: f64, parts: usize, cut_weight: f64) -> HotpathReport {
        HotpathReport {
            spec: HotpathSpec::default(),
            baseline: measurement("baseline", seconds * speedup, parts, cut_weight),
            optimized: measurement("optimized", seconds, parts, cut_weight),
            speedup,
            alloc_ratio: Some(1.5),
            obs_overhead: None,
        }
    }

    fn overhead(sharded: f64) -> ObsOverhead {
        ObsOverhead {
            off_seconds: 1.0,
            null_seconds: 1.0 * (1.0 + sharded / 4.0),
            sharded_seconds: 1.0 * (1.0 + sharded),
            null_overhead: sharded / 4.0,
            sharded_overhead: sharded,
            sharded_records: 10_000,
            sharded_dropped: 0,
        }
    }

    fn baseline() -> Baseline {
        Baseline {
            spec: HotpathSpec::default(),
            optimized_seconds: 1.0,
            speedup: 3.0,
            allocations: Some(100_000),
            allocated_bytes: Some(40_000_000),
            parts: 64,
            cut_weight: 16576.5,
            obs_overhead: None,
        }
    }

    #[test]
    fn identical_run_passes_everything() {
        let report = evaluate(
            &baseline(),
            &fresh_report(1.0, 3.0, 64, 16576.5),
            0.25,
            BUDGET,
        );
        assert!(report.rows.iter().all(|r| r.status == GateStatus::Pass));
        assert_eq!(report.worst(), GateStatus::Pass);
    }

    #[test]
    fn large_slowdown_fails() {
        let report = evaluate(
            &baseline(),
            &fresh_report(1.5, 3.0, 64, 16576.5),
            0.25,
            BUDGET,
        );
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "optimized.seconds")
            .unwrap();
        assert_eq!(row.status, GateStatus::Fail);
        assert_eq!(report.worst(), GateStatus::Fail);
    }

    #[test]
    fn mild_slowdown_warns() {
        // 20 % over with a 25 % band: between tol/2 and tol
        let report = evaluate(
            &baseline(),
            &fresh_report(1.2, 3.0, 64, 16576.5),
            0.25,
            BUDGET,
        );
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "optimized.seconds")
            .unwrap();
        assert_eq!(row.status, GateStatus::Warn);
        assert_eq!(report.worst(), GateStatus::Warn);
    }

    #[test]
    fn lost_speedup_fails() {
        let report = evaluate(
            &baseline(),
            &fresh_report(1.0, 2.0, 64, 16576.5),
            0.25,
            BUDGET,
        );
        let row = report.rows.iter().find(|r| r.metric == "speedup").unwrap();
        assert_eq!(row.status, GateStatus::Fail);
    }

    #[test]
    fn structural_drift_fails_regardless_of_tolerance() {
        let report = evaluate(
            &baseline(),
            &fresh_report(1.0, 3.0, 65, 16576.5),
            10.0,
            BUDGET,
        );
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "optimized.parts")
            .unwrap();
        assert_eq!(row.status, GateStatus::Fail);
        let report = evaluate(
            &baseline(),
            &fresh_report(1.0, 3.0, 64, 16577.0),
            10.0,
            BUDGET,
        );
        assert_eq!(report.worst(), GateStatus::Fail);
    }

    #[test]
    fn faster_run_passes() {
        let report = evaluate(
            &baseline(),
            &fresh_report(0.5, 6.0, 64, 16576.5),
            0.25,
            BUDGET,
        );
        assert_eq!(report.worst(), GateStatus::Pass);
    }

    #[test]
    fn parse_baseline_reads_the_committed_schema() {
        let json = r#"{
            "spec": { "users": 8, "nodes": 2000, "seed": 20190707, "depth": 3, "iters": 3 },
            "baseline": { "label": "b", "seconds": 3.3, "allocations": 267554,
                          "allocated_bytes": 154201918, "peak_growth_bytes": 0,
                          "parts": 64, "cut_weight": 16576.90456367839 },
            "optimized": { "label": "o", "seconds": 1.07, "allocations": 172040,
                           "allocated_bytes": 41387922, "peak_growth_bytes": 9831,
                           "parts": 64, "cut_weight": 16576.90456367839 },
            "speedup": 3.118,
            "alloc_ratio": 1.555
        }"#;
        let b = parse_baseline(json).expect("parses");
        assert_eq!(b.spec.users, 8);
        assert_eq!(b.spec.nodes, 2000);
        assert_eq!(b.spec.seed, 20190707);
        assert_eq!(b.parts, 64);
        assert_eq!(b.allocations, Some(172040));
        assert!((b.optimized_seconds - 1.07).abs() < 1e-12);
        assert!((b.speedup - 3.118).abs() < 1e-12);
    }

    #[test]
    fn parse_baseline_rejects_garbage() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{ "spec": {} }"#).is_err());
    }

    #[test]
    fn overhead_within_budget_passes() {
        let mut fresh = fresh_report(1.0, 3.0, 64, 16576.5);
        fresh.obs_overhead = Some(overhead(0.01));
        let report = evaluate(&baseline(), &fresh, 0.25, BUDGET);
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "obs_overhead.sharded")
            .unwrap();
        assert_eq!(row.status, GateStatus::Pass);
        // the baseline column of the budget row shows the budget itself
        assert!((row.baseline - BUDGET).abs() < 1e-12);
        assert_eq!(report.worst(), GateStatus::Pass);
        // measured-but-unrecorded-in-baseline is worth a note
        assert_eq!(report.notes.len(), 1);
    }

    #[test]
    fn overhead_above_half_budget_warns() {
        let mut fresh = fresh_report(1.0, 3.0, 64, 16576.5);
        fresh.obs_overhead = Some(overhead(0.02));
        let report = evaluate(&baseline(), &fresh, 0.25, BUDGET);
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "obs_overhead.sharded")
            .unwrap();
        assert_eq!(row.status, GateStatus::Warn);
    }

    #[test]
    fn overhead_beyond_budget_fails_even_if_baseline_was_worse() {
        // a bloated committed overhead must not grandfather a
        // regression past the absolute budget
        let b = Baseline {
            obs_overhead: Some(0.10),
            ..baseline()
        };
        let mut fresh = fresh_report(1.0, 3.0, 64, 16576.5);
        fresh.obs_overhead = Some(overhead(0.05));
        let report = evaluate(&b, &fresh, 0.25, BUDGET);
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "obs_overhead.sharded")
            .unwrap();
        assert_eq!(row.status, GateStatus::Fail);
        assert_eq!(report.worst(), GateStatus::Fail);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn missing_overhead_measurement_is_noted_not_failed() {
        let b = Baseline {
            obs_overhead: Some(0.01),
            ..baseline()
        };
        let report = evaluate(&b, &fresh_report(1.0, 3.0, 64, 16576.5), 0.25, BUDGET);
        assert_eq!(report.worst(), GateStatus::Pass);
        assert_eq!(report.notes.len(), 1);
        assert!(!report.rows.iter().any(|r| r.metric.contains("obs")));
    }

    #[test]
    fn parse_baseline_reads_the_obs_overhead_schema() {
        let json = r#"{
            "spec": { "users": 8, "nodes": 2000, "seed": 20190707, "depth": 3, "iters": 3 },
            "baseline": { "label": "b", "seconds": 3.3, "parts": 64, "cut_weight": 16576.9 },
            "optimized": { "label": "o", "seconds": 1.07, "parts": 64, "cut_weight": 16576.9 },
            "speedup": 3.118,
            "alloc_ratio": null,
            "obs_overhead": { "off_seconds": 0.0021, "null_seconds": 0.00211,
                              "sharded_seconds": 0.00214, "null_overhead": 0.005,
                              "sharded_overhead": 0.019, "sharded_records": 12000,
                              "sharded_dropped": 0 }
        }"#;
        let b = parse_baseline(json).expect("parses");
        assert!((b.obs_overhead.expect("overhead parsed") - 0.019).abs() < 1e-12);
    }

    fn churn_report(speedup: f64, p99: u64, sustained: usize) -> ChurnReport {
        ChurnReport {
            spec: ChurnSpec::quick(),
            sustained_users: sustained,
            peak_users: sustained + 10,
            replan_p50_nanos: 1_000_000,
            replan_p99_nanos: p99,
            replan_mean_nanos: 1_100_000,
            full_mean_nanos: (1_100_000.0 * speedup) as u64,
            full_samples: 6,
            speedup,
            final_objective: 1234.5,
        }
    }

    fn churn_baseline() -> ChurnBaseline {
        ChurnBaseline {
            spec: ChurnSpec::quick(),
            replan_p99_nanos: 2_000_000,
            replan_p50_nanos: 1_000_000,
            speedup: 20.0,
            sustained_users: 1_480,
        }
    }

    #[test]
    fn churn_baseline_roundtrips_through_json() {
        let json = serde_json::to_string(&churn_report(20.0, 2_000_000, 1_480)).unwrap();
        let parsed = parse_churn_baseline(&json).expect("parses");
        assert_eq!(parsed, churn_baseline());
        assert_eq!(parsed.spec, ChurnSpec::quick());
    }

    #[test]
    fn healthy_churn_run_passes() {
        let report = evaluate_churn(
            &churn_baseline(),
            &churn_report(20.0, 2_000_000, 1_480),
            0.25,
        );
        assert_eq!(report.worst(), GateStatus::Pass);
        assert_eq!(report.rows.len(), 4);
    }

    #[test]
    fn churn_speedup_below_floor_fails_regardless_of_baseline() {
        // even against a slow committed baseline the absolute 5x floor
        // holds — the incremental path must stay clearly ahead of full
        let mut slow = churn_baseline();
        slow.speedup = 4.0;
        let report = evaluate_churn(&slow, &churn_report(4.0, 2_000_000, 1_480), 0.25);
        assert_eq!(
            report
                .rows
                .iter()
                .find(|r| r.metric == "churn.speedup")
                .unwrap()
                .status,
            GateStatus::Fail
        );
        let warn = evaluate_churn(
            &churn_baseline(),
            &churn_report(6.0, 2_000_000, 1_480),
            0.25,
        );
        assert_eq!(
            warn.rows
                .iter()
                .find(|r| r.metric == "churn.speedup")
                .unwrap()
                .status,
            GateStatus::Warn
        );
    }

    #[test]
    fn churn_p99_regression_fails() {
        let report = evaluate_churn(
            &churn_baseline(),
            &churn_report(20.0, 3_000_000, 1_480),
            0.25,
        );
        assert_eq!(report.worst(), GateStatus::Fail);
    }

    #[test]
    fn churn_sustained_crowd_is_gated_exactly() {
        let report = evaluate_churn(
            &churn_baseline(),
            &churn_report(20.0, 2_000_000, 1_479),
            0.25,
        );
        assert_eq!(
            report
                .rows
                .iter()
                .find(|r| r.metric == "churn.sustained_users")
                .unwrap()
                .status,
            GateStatus::Fail
        );
    }
}
