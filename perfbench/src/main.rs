//! `perfbench --workload <churn|admit|solve> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, runs it for about the
//! given number of seconds, checks the program's outputs, prints a
//! human-readable report and, as the last line of standard output, one
//! JSON object with the run's metrics. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. Exits 1 when an
//! output check failed, 2 on bad arguments.

use copmecs_perfbench::alloc::CountingAlloc;
use copmecs_perfbench::{Mode, Report, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <churn|admit|solve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut mode = Mode::EndToEnd;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?} (0 < s <= 3600)"))?;
            }
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode,
    })
}

fn json_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match copmecs_perfbench::run(args.workload, args.seed, args.seconds, args.mode) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: cannot generate the inputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::PerLayer)
    );
    for m in &report.metrics {
        println!(
            "  {:<24} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for line in &report.notes {
        println!("  {line}");
    }
    println!(
        "  failed_frac {:.6} ratio  ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for failure in report.failures.iter().take(20) {
        eprintln!("check failed: {failure}");
    }
    if report.failures.len() > 20 {
        eprintln!("… and {} more failed checks", report.failures.len() - 20);
    }
    println!("{}", json_line(&report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
