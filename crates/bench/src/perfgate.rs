//! The bench gate: re-runs the spec a committed bench file records
//! (`BENCH_spectral.json` or `BENCH_churn.json`) and judges the fresh
//! run against the file, row by row, under one rule table.
//!
//! The file is read back by the type that wrote it, so a `--quick`
//! fresh run can never be compared against a full baseline by
//! accident. Each report lists its gated rows with the [`Rule`] that
//! judges them: deterministic rows must match exactly, timing rows get
//! a tolerance band, and two absolute bounds (the tracing budget and
//! the churn speedup floor) hold whatever the committed file says.
//! Only a deterministic row can [block](GateReport::blocks): host
//! noise cannot move it.

use crate::churn::{self, ChurnReport};
use crate::spectral_hotpath::{self, AllocProbe, HotpathReport};
use copmecs_core::PipelineError;
use std::fmt;

/// The share of front-end wall time enabled sharded tracing may cost.
pub const OBS_BUDGET: f64 = 0.03;

/// The delta-vs-full speedup floor the churn gate enforces,
/// independent of what the committed baseline achieved.
pub const CHURN_SPEEDUP_FLOOR: f64 = 5.0;

/// How one gated row is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Deterministic: any relative deviation beyond `1e-9` fails,
    /// whatever the tolerance.
    Exact,
    /// Fails above `baseline × (1 + tolerance)`, warns above half the
    /// band.
    LowerIsBetter,
    /// An absolute ceiling, not the baseline: fails above it, warns
    /// above half of it.
    Budget(f64),
    /// An absolute floor, not the baseline: fails below it, warns below
    /// twice it.
    Floor(f64),
}

impl Rule {
    /// Judges `fresh` against `baseline`; returns the reference the
    /// verdict used (the baseline, or the rule's own bound) and the
    /// verdict.
    fn judge(self, baseline: f64, fresh: f64, tolerance: f64) -> (f64, GateStatus) {
        let graded = |fail: bool, warn: bool| {
            if fail {
                GateStatus::Fail
            } else if warn {
                GateStatus::Warn
            } else {
                GateStatus::Pass
            }
        };
        match self {
            Rule::Exact => {
                let scale = baseline.abs().max(fresh.abs()).max(1.0);
                let drifted = (fresh - baseline).abs() > 1e-9 * scale;
                (baseline, graded(drifted, false))
            }
            Rule::LowerIsBetter => {
                let ratio = if baseline > 0.0 {
                    fresh / baseline
                } else {
                    1.0
                };
                let status = graded(ratio > 1.0 + tolerance, ratio > 1.0 + tolerance / 2.0);
                (baseline, status)
            }
            Rule::Budget(budget) => (budget, graded(fresh > budget, fresh > budget / 2.0)),
            Rule::Floor(floor) => (floor, graded(fresh < floor, fresh < 2.0 * floor)),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Exact => f.write_str("exact"),
            Rule::LowerIsBetter => f.write_str("lower within tolerance"),
            Rule::Budget(budget) => write!(f, "at most {budget}"),
            Rule::Floor(floor) => write!(f, "at least {floor}"),
        }
    }
}

/// One gated row of a report: its name, its value (`None` when the run
/// did not measure it, e.g. allocations without a counting allocator)
/// and its rule.
pub type Row = (&'static str, Option<f64>, Rule);

/// A committed bench file, read back by the type that wrote it.
#[derive(Debug, Clone)]
pub enum BenchFile {
    /// `BENCH_spectral.json`.
    Spectral(HotpathReport),
    /// `BENCH_churn.json`.
    Churn(ChurnReport),
}

impl BenchFile {
    /// Reads either report.
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not valid JSON or
    /// matches neither report's schema.
    pub fn parse(json: &str) -> Result<Self, String> {
        serde_json::from_str(json)
            .map(BenchFile::Spectral)
            .or_else(|spectral| {
                serde_json::from_str(json)
                    .map(BenchFile::Churn)
                    .map_err(|churn| {
                        format!(
                            "not a bench file (as BENCH_spectral.json: {spectral}; \
                             as BENCH_churn.json: {churn})"
                        )
                    })
            })
    }

    /// The workload the file records.
    pub fn spec(&self) -> &dyn fmt::Debug {
        match self {
            BenchFile::Spectral(r) => &r.spec,
            BenchFile::Churn(r) => &r.spec,
        }
    }

    /// Runs the file's own spec again.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a spectral cut fails.
    pub fn rerun(&self, probe: AllocProbe<'_>) -> Result<Self, PipelineError> {
        Ok(match self {
            BenchFile::Spectral(r) => BenchFile::Spectral(spectral_hotpath::run(&r.spec, probe)?),
            BenchFile::Churn(r) => BenchFile::Churn(churn::run(&r.spec, None)),
        })
    }

    /// The gated rows, in print order.
    pub fn rows(&self) -> Vec<Row> {
        let count = |v: Option<u64>| v.map(|v| v as f64);
        match self {
            BenchFile::Spectral(r) => {
                let m = &r.optimized;
                vec![
                    ("optimized.seconds", Some(m.seconds), Rule::LowerIsBetter),
                    (
                        "optimized.allocations",
                        count(m.allocations),
                        Rule::LowerIsBetter,
                    ),
                    (
                        "optimized.allocated_bytes",
                        count(m.allocated_bytes),
                        Rule::LowerIsBetter,
                    ),
                    ("optimized.parts", Some(m.parts as f64), Rule::Exact),
                    ("optimized.cut_weight", Some(m.cut_weight), Rule::Exact),
                    (
                        "obs_overhead.sharded",
                        Some(r.obs_overhead.sharded_overhead),
                        Rule::Budget(OBS_BUDGET),
                    ),
                ]
            }
            BenchFile::Churn(r) => vec![
                (
                    "churn.speedup",
                    Some(r.speedup),
                    Rule::Floor(CHURN_SPEEDUP_FLOOR),
                ),
                (
                    "churn.replan_p99_nanos",
                    Some(r.replan_p99_nanos as f64),
                    Rule::LowerIsBetter,
                ),
                (
                    "churn.replan_p50_nanos",
                    Some(r.replan_p50_nanos as f64),
                    Rule::LowerIsBetter,
                ),
                (
                    "churn.sustained_users",
                    Some(r.sustained_users as f64),
                    Rule::Exact,
                ),
            ],
        }
    }
}

/// Verdict for one gated metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateStatus {
    /// Within half the band.
    Pass,
    /// Between half and the full band — noisy but suspicious.
    Warn,
    /// Beyond the band, or a deterministic metric changed.
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
    /// The rule that judged it.
    pub rule: Rule,
    /// What the fresh value was held to: the committed value, or the
    /// rule's absolute bound.
    pub reference: f64,
    /// Value from the fresh run.
    pub fresh: f64,
    /// `fresh / reference` (1.0 when the reference is zero).
    pub ratio: f64,
    /// The verdict.
    pub status: GateStatus,
}

/// The whole gate outcome.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-metric rows, in the report's order.
    pub rows: Vec<GateRow>,
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

    /// `true` when a deterministic row failed — the one verdict host
    /// noise cannot explain.
    pub fn blocks(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.rule == Rule::Exact && r.status == GateStatus::Fail)
    }
}

/// Judges every row of a fresh run against the committed file. A row
/// either side did not measure is skipped.
///
/// # Panics
///
/// Panics if the two files are different reports.
pub fn evaluate(baseline: &BenchFile, fresh: &BenchFile, tolerance: f64) -> GateReport {
    let rows = baseline
        .rows()
        .into_iter()
        .zip(fresh.rows())
        .filter_map(|((metric, committed, rule), (fresh_metric, value, _))| {
            assert_eq!(
                metric, fresh_metric,
                "baseline and fresh runs are one report"
            );
            let (committed, value) = committed.zip(value)?;
            let (reference, status) = rule.judge(committed, value, tolerance);
            Some(GateRow {
                metric,
                rule,
                reference,
                fresh: value,
                ratio: if reference != 0.0 {
                    value / reference
                } else {
                    1.0
                },
                status,
            })
        })
        .collect();
    GateReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSpec;
    use crate::spectral_hotpath::{HotpathMeasurement, HotpathSpec, ObsOverhead};

    fn spectral(edit: impl FnOnce(&mut HotpathReport)) -> BenchFile {
        let mut r = HotpathReport {
            spec: HotpathSpec::default(),
            optimized: HotpathMeasurement {
                label: "cut stage".to_string(),
                seconds: 1.0,
                allocations: Some(100_000),
                allocated_bytes: Some(40_000_000),
                peak_growth_bytes: Some(0),
                parts: 20,
                cut_weight: 16576.5,
            },
            obs_overhead: ObsOverhead {
                off_seconds: 1.0,
                null_seconds: 1.0,
                sharded_seconds: 1.0,
                null_overhead: 0.0,
                sharded_overhead: 0.0,
                sharded_records: 10_000,
                sharded_dropped: 0,
            },
        };
        edit(&mut r);
        BenchFile::Spectral(r)
    }

    fn churn(edit: impl FnOnce(&mut ChurnReport)) -> BenchFile {
        let mut r = ChurnReport {
            spec: ChurnSpec::quick(),
            sustained_users: 1_480,
            peak_users: 1_490,
            replan_p50_nanos: 1_000_000,
            replan_p99_nanos: 2_000_000,
            replan_mean_nanos: 1_100_000,
            full_mean_nanos: 22_000_000,
            full_samples: 6,
            speedup: 20.0,
            final_objective: 1234.5,
        };
        edit(&mut r);
        BenchFile::Churn(r)
    }

    /// Each rule at and around its bounds: `(rule, committed, fresh,
    /// verdict)` at a 25 % tolerance.
    #[test]
    fn rules_grade_at_their_bounds() {
        use GateStatus::{Fail, Pass, Warn};
        let cases = [
            (Rule::Exact, 64.0, 64.0, Pass),
            (Rule::Exact, 64.0, 65.0, Fail),
            (Rule::Exact, 16576.5, 16576.5 * (1.0 + 1e-12), Pass),
            (Rule::Exact, 16576.5, 16576.5 * (1.0 + 1e-8), Fail),
            (Rule::LowerIsBetter, 1.0, 0.5, Pass),
            (Rule::LowerIsBetter, 1.0, 1.125, Pass),
            (Rule::LowerIsBetter, 1.0, 1.126, Warn),
            (Rule::LowerIsBetter, 1.0, 1.25, Warn),
            (Rule::LowerIsBetter, 1.0, 1.251, Fail),
            (Rule::Budget(0.03), 0.0, 0.015, Pass),
            (Rule::Budget(0.03), 0.0, 0.016, Warn),
            (Rule::Budget(0.03), 0.0, 0.03, Warn),
            (Rule::Budget(0.03), 0.0, 0.031, Fail),
            // an absolute bound holds against a bad committed value
            (Rule::Budget(0.03), 0.10, 0.05, Fail),
            (Rule::Floor(5.0), 20.0, 10.0, Pass),
            (Rule::Floor(5.0), 20.0, 9.9, Warn),
            (Rule::Floor(5.0), 20.0, 5.0, Warn),
            (Rule::Floor(5.0), 20.0, 4.9, Fail),
            (Rule::Floor(5.0), 4.0, 4.0, Fail),
        ];
        for (rule, committed, fresh, want) in cases {
            let (_, got) = rule.judge(committed, fresh, 0.25);
            assert_eq!(got, want, "{rule} judging {fresh} against {committed}");
        }
    }

    /// The gate's verdicts on whole reports: `(committed, fresh,
    /// tolerance, row, its verdict, the worst verdict)`; a row of
    /// `None` is skipped.
    #[test]
    fn evaluate_judges_whole_reports() {
        use GateStatus::{Fail, Pass, Warn};
        let cases = [
            (
                spectral(|_| {}),
                spectral(|_| {}),
                0.25,
                "optimized.seconds",
                Some(Pass),
                Pass,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.seconds = 0.5),
                0.25,
                "optimized.seconds",
                Some(Pass),
                Pass,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.seconds = 1.2),
                0.25,
                "optimized.seconds",
                Some(Warn),
                Warn,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.seconds = 1.5),
                0.25,
                "optimized.seconds",
                Some(Fail),
                Fail,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.parts = 21),
                10.0,
                "optimized.parts",
                Some(Fail),
                Fail,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.cut_weight = 16577.0),
                10.0,
                "optimized.cut_weight",
                Some(Fail),
                Fail,
            ),
            // allocation rows need a counting allocator on both sides
            (
                spectral(|_| {}),
                spectral(|r| r.optimized.allocations = None),
                0.25,
                "optimized.allocations",
                None,
                Pass,
            ),
            (
                spectral(|r| r.optimized.allocated_bytes = None),
                spectral(|_| {}),
                0.25,
                "optimized.allocated_bytes",
                None,
                Pass,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.obs_overhead.sharded_overhead = 0.01),
                0.25,
                "obs_overhead.sharded",
                Some(Pass),
                Pass,
            ),
            (
                spectral(|_| {}),
                spectral(|r| r.obs_overhead.sharded_overhead = 0.02),
                0.25,
                "obs_overhead.sharded",
                Some(Warn),
                Warn,
            ),
            (
                spectral(|r| r.obs_overhead.sharded_overhead = 0.10),
                spectral(|r| r.obs_overhead.sharded_overhead = 0.05),
                0.25,
                "obs_overhead.sharded",
                Some(Fail),
                Fail,
            ),
            (
                churn(|_| {}),
                churn(|_| {}),
                0.25,
                "churn.speedup",
                Some(Pass),
                Pass,
            ),
            (
                churn(|r| r.speedup = 4.0),
                churn(|r| r.speedup = 4.0),
                0.25,
                "churn.speedup",
                Some(Fail),
                Fail,
            ),
            (
                churn(|_| {}),
                churn(|r| r.speedup = 6.0),
                0.25,
                "churn.speedup",
                Some(Warn),
                Warn,
            ),
            (
                churn(|_| {}),
                churn(|r| r.replan_p99_nanos = 3_000_000),
                0.25,
                "churn.replan_p99_nanos",
                Some(Fail),
                Fail,
            ),
            (
                churn(|_| {}),
                churn(|r| r.sustained_users = 1_479),
                0.25,
                "churn.sustained_users",
                Some(Fail),
                Fail,
            ),
        ];
        for (i, (baseline, fresh, tolerance, metric, row, worst)) in cases.into_iter().enumerate() {
            let report = evaluate(&baseline, &fresh, tolerance);
            let got = report
                .rows
                .iter()
                .find(|r| r.metric == metric)
                .map(|r| r.status);
            assert_eq!(got, row, "case {i}: {metric}");
            assert_eq!(report.worst(), worst, "case {i}");
            // only a failed deterministic row blocks
            let exact = fresh
                .rows()
                .iter()
                .any(|&(m, _, rule)| m == metric && rule == Rule::Exact);
            assert_eq!(report.blocks(), exact && row == Some(Fail), "case {i}");
        }
    }

    #[test]
    fn absolute_rows_show_their_bound() {
        let report = evaluate(&spectral(|_| {}), &spectral(|_| {}), 0.25);
        let row = report
            .rows
            .iter()
            .find(|r| r.metric == "obs_overhead.sharded")
            .unwrap();
        assert_eq!(row.reference, OBS_BUDGET);
        let report = evaluate(&churn(|_| {}), &churn(|_| {}), 0.25);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0].reference, CHURN_SPEEDUP_FLOOR);
    }

    #[test]
    fn reports_round_trip_through_json() {
        for file in [spectral(|_| {}), churn(|_| {})] {
            let json = match &file {
                BenchFile::Spectral(r) => serde_json::to_string(r),
                BenchFile::Churn(r) => serde_json::to_string(r),
            }
            .unwrap();
            let back = BenchFile::parse(&json).expect("parses");
            assert_eq!(format!("{back:?}"), format!("{file:?}"));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchFile::parse("not json").is_err());
        assert!(BenchFile::parse("{}").is_err());
        assert!(BenchFile::parse(r#"{ "spec": {} }"#).is_err());
    }

    /// The committed files parse with their writers' types and pass
    /// their own gate on every row.
    #[test]
    fn committed_bench_files_pass_their_own_gate() {
        for (path, json) in [
            (
                "BENCH_spectral.json",
                include_str!("../../../BENCH_spectral.json"),
            ),
            (
                "BENCH_churn.json",
                include_str!("../../../BENCH_churn.json"),
            ),
        ] {
            let file = BenchFile::parse(json).unwrap_or_else(|e| panic!("{path}: {e}"));
            let spectral = matches!(file, BenchFile::Spectral(_));
            assert_eq!(spectral, path == "BENCH_spectral.json", "{path}");
            let report = evaluate(&file, &file, 0.25);
            assert_eq!(report.rows.len(), file.rows().len(), "{path} skipped a row");
            for row in &report.rows {
                assert_eq!(row.status, GateStatus::Pass, "{path}: {}", row.metric);
            }
        }
    }
}
