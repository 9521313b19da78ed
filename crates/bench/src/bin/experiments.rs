//! Regenerates the paper's evaluation artefacts (Table I, Figs. 3–9).
//!
//! ```text
//! cargo run --release -p mec-bench --bin experiments -- all
//! cargo run --release -p mec-bench --bin experiments -- fig5 --quick
//! cargo run --release -p mec-bench --bin experiments -- table1 --seed 7 --out results/
//! ```
//!
//! Each command prints the same normalised rows/series the paper
//! reports and writes raw JSON next to them.
//!
//! Pipeline telemetry (stage spans, label-propagation rounds, Lanczos
//! iterations, greedy counters) is recorded through one
//! [`mec_obs::ShardedRecorder`] whenever something reads it: the fig9
//! tables or one of these flags. `--trace-out <path>` writes it as JSON,
//! `--chrome-trace-out <path>` in Chrome trace-event format,
//! `--metrics-out <path>` writes the metrics registry, and
//! `--serve ADDR` exposes `/metrics`, `/trace`, `/healthz`, and
//! `/stacks` live over HTTP while the commands run (`--serve-for SECS`
//! keeps the endpoint up afterwards).

use mec_bench::ablation;
use mec_bench::churn::{self, ChurnSpec};
use mec_bench::energy::{self, EnergyPoint};
use mec_bench::multiuser::{self, MultiUserConfig, MultiUserPoint};
use mec_bench::perfgate::{self, BenchFile, GateStatus};
use mec_bench::report::{normalize, render_table, write_json};
use mec_bench::runtime::{self, FrontendSpeedup, RuntimePoint, WorkerUtilization};
use mec_bench::spectral_hotpath::{self, AllocSnapshot, HotpathSpec};
use mec_bench::{table1, DEFAULT_SEED, PAPER_SIZES, PAPER_USER_SIZES};
use mec_obs::{MetricsRegistry, ShardedRecorder, TraceSink};
use std::sync::Arc;

/// Counting allocator so the hot-path benchmark can report allocation
/// and peak-heap deltas alongside wall time. Only this binary installs
/// it; the library crates stay `forbid(unsafe_code)`.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    pub static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
                let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed)
                    + layout.size() as u64;
                PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
    }
}

#[global_allocator]
static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

struct Options {
    command: String,
    quick: bool,
    seed: u64,
    out: String,
    extra: bool,
    trace_out: Option<String>,
    workers: usize,
    bench_out: Option<String>,
    metrics_out: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    serve: Option<String>,
    serve_for: Option<u64>,
    chrome_trace_out: Option<String>,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: String::new(),
        quick: false,
        seed: DEFAULT_SEED,
        out: "results".to_string(),
        extra: false,
        trace_out: None,
        workers: 4,
        bench_out: None,
        metrics_out: None,
        baseline: None,
        tolerance: 0.25,
        serve: None,
        serve_for: None,
        chrome_trace_out: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--extra" => opts.extra = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--trace-out" => {
                opts.trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--trace-out needs a path")),
                );
            }
            "--workers" => {
                opts.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w > 0)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--bench-out" => {
                opts.bench_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--bench-out needs a path")),
                );
            }
            "--metrics-out" => {
                opts.metrics_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--metrics-out needs a path")),
                );
            }
            "--baseline" => {
                opts.baseline = Some(
                    args.next()
                        .unwrap_or_else(|| die("--baseline needs a path")),
                );
            }
            "--tolerance" => {
                opts.tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t >= 0.0)
                    .unwrap_or_else(|| die("--tolerance needs a non-negative number"));
            }
            "--serve" => {
                opts.serve = Some(
                    args.next()
                        .unwrap_or_else(|| die("--serve needs an ADDR:PORT (port 0 = ephemeral)")),
                );
            }
            "--serve-for" => {
                opts.serve_for = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--serve-for needs a number of seconds")),
                );
            }
            "--chrome-trace-out" => {
                opts.chrome_trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--chrome-trace-out needs a path")),
                );
            }
            cmd if opts.command.is_empty() && !cmd.starts_with('-') => {
                opts.command = cmd.to_string();
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if opts.command.is_empty() {
        // `--bench-out FILE` alone means "just run the hot-path bench"
        opts.command = if opts.bench_out.is_some() {
            "bench".to_string()
        } else {
            "all".to_string()
        };
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments [table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablate|bench|churn|gate|check|all] \
         [--quick] [--extra] [--seed N] [--out DIR] [--trace-out FILE] [--workers N] \
         [--bench-out FILE] [--metrics-out FILE] [--baseline FILE] [--tolerance FRAC] \
         [--serve ADDR] [--serve-for SECS] [--chrome-trace-out FILE]"
    );
    std::process::exit(2);
}

fn sizes(opts: &Options) -> Vec<usize> {
    if opts.quick {
        vec![100, 250, 500]
    } else {
        PAPER_SIZES.to_vec()
    }
}

fn user_sizes(opts: &Options) -> Vec<usize> {
    if opts.quick {
        vec![10, 25, 50]
    } else {
        PAPER_USER_SIZES.to_vec()
    }
}

fn run_table1(opts: &Options, sink: &Arc<dyn TraceSink>) {
    println!("== Table I: graph compression results ==\n");
    let rows = table1::run_traced(&sizes(opts), opts.seed, sink.as_ref());
    let table = render_table(
        &[
            "Network",
            "function number",
            "edge number",
            "functions after compression",
            "edges after compression",
            "reduction",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.network.clone(),
                    r.nodes.to_string(),
                    r.edges.to_string(),
                    r.compressed_nodes.to_string(),
                    r.compressed_edges.to_string(),
                    format!("{:.1}%", 100.0 * r.node_reduction),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    write_json(format!("{}/table1.json", opts.out), &rows);
}

fn energy_metric(points: &[EnergyPoint], metric: &str) -> Vec<f64> {
    points
        .iter()
        .map(|p| match metric {
            "local" => p.local_energy,
            "tx" => p.tx_energy,
            _ => p.total_energy,
        })
        .collect()
}

fn render_energy_figure(points: &[EnergyPoint], metric: &str, title: &str) {
    println!("== {title} (normalised, lower is better) ==\n");
    let values = normalize(&energy_metric(points, metric));
    let sizes: Vec<usize> = {
        let mut s: Vec<_> = points.iter().map(|p| p.size).collect();
        s.dedup();
        s
    };
    let strategies: Vec<String> = {
        let mut seen = Vec::new();
        for p in points {
            if !seen.contains(&p.strategy) {
                seen.push(p.strategy.clone());
            }
        }
        seen
    };
    let mut headers = vec!["original graph size"];
    let strategy_headers: Vec<&str> = strategies.iter().map(String::as_str).collect();
    headers.extend(strategy_headers);
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&sz| {
            let mut row = vec![sz.to_string()];
            for st in &strategies {
                let idx = points
                    .iter()
                    .position(|p| p.size == sz && &p.strategy == st)
                    .expect("dense sweep");
                row.push(format!("{:.2}", values[idx]));
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
}

fn run_energy(
    opts: &Options,
    figs: &[(&str, &str, &str)],
    sink: &Arc<dyn TraceSink>,
) -> Vec<EnergyPoint> {
    let points = energy::run_traced(&sizes(opts), opts.seed, sink);
    for (fig, metric, title) in figs {
        render_energy_figure(&points, metric, title);
        write_json(format!("{}/{fig}.json", opts.out), &points);
    }
    points
}

fn multi_metric(points: &[MultiUserPoint], metric: &str) -> Vec<f64> {
    points
        .iter()
        .map(|p| match metric {
            "local" => p.local_energy,
            "tx" => p.tx_energy,
            _ => p.total_energy,
        })
        .collect()
}

fn render_multi_figure(points: &[MultiUserPoint], metric: &str, title: &str) {
    println!("== {title} (normalised, lower is better) ==\n");
    let values = normalize(&multi_metric(points, metric));
    let users: Vec<usize> = {
        let mut s: Vec<_> = points.iter().map(|p| p.users).collect();
        s.dedup();
        s
    };
    let strategies: Vec<String> = {
        let mut seen = Vec::new();
        for p in points {
            if !seen.contains(&p.strategy) {
                seen.push(p.strategy.clone());
            }
        }
        seen
    };
    let mut headers = vec!["user size"];
    headers.extend(strategies.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = users
        .iter()
        .map(|&u| {
            let mut row = vec![u.to_string()];
            for st in &strategies {
                let idx = points
                    .iter()
                    .position(|p| p.users == u && &p.strategy == st)
                    .expect("dense sweep");
                row.push(format!("{:.2}", values[idx]));
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
}

fn run_multiuser(
    opts: &Options,
    figs: &[(&str, &str, &str)],
    sink: &Arc<dyn TraceSink>,
) -> Vec<MultiUserPoint> {
    let config = MultiUserConfig {
        graph_nodes: if opts.quick { 200 } else { 1000 },
        pool: if opts.quick { 4 } else { 8 },
        seed: opts.seed,
        ..MultiUserConfig::default()
    };
    let points = multiuser::run_traced(&user_sizes(opts), &config, sink);
    for (fig, metric, title) in figs {
        render_multi_figure(&points, metric, title);
        write_json(format!("{}/{fig}.json", opts.out), &points);
    }
    points
}

/// Quick self-check: asserts the headline *shapes* of the paper hold
/// on a reduced sweep, printing PASS/FAIL per claim. Exits non-zero on
/// any failure, so CI can gate on reproduction health.
fn run_check(opts: &Options) {
    println!("== reproduction self-check (reduced sweep) ==\n");
    let mut failures = 0usize;
    let mut claim = |name: &str, ok: bool| {
        println!("  [{}] {name}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    // Table I shape: compression removes most nodes, more at scale
    let rows = table1::run(&[250, 1000], opts.seed);
    claim(
        "compression removes over half the nodes",
        rows.iter().all(|r| r.node_reduction > 0.5),
    );
    claim(
        "compressed graphs keep fewer edges than originals",
        rows.iter().all(|r| r.compressed_edges < r.edges),
    );

    // Figs 3/5 shape: ours best-or-tied on total energy, energies grow
    let pts = energy::run(&[250, 500], opts.seed);
    let total_of = |size: usize, strat: &str| {
        pts.iter()
            .find(|p| p.size == size && p.strategy == strat)
            .map(|p| p.total_energy)
            .expect("dense sweep")
    };
    claim(
        "single-user total energy grows with graph size (all strategies)",
        ["our algorithm", "maximum flow minimum cut", "Kernighan-Lin"]
            .iter()
            .all(|s| total_of(500, s) > total_of(250, s)),
    );
    claim(
        "our algorithm's total energy is best or tied at every size",
        [250usize, 500].iter().all(|&sz| {
            let ours = total_of(sz, "our algorithm");
            ours <= 1.02 * total_of(sz, "maximum flow minimum cut")
                && ours <= 1.02 * total_of(sz, "Kernighan-Lin")
        }),
    );

    // Fig 6/8 shape: contention raises local energy; ours best
    let mu = multiuser::run(
        &[20, 60],
        &MultiUserConfig {
            graph_nodes: 200,
            pool: 4,
            seed: opts.seed,
            ..MultiUserConfig::default()
        },
    );
    let mu_of = |users: usize, strat: &str| {
        mu.iter()
            .find(|p| p.users == users && p.strategy == strat)
            .expect("dense sweep")
    };
    claim(
        "multi-user local energy grows with crowd size",
        mu_of(60, "our algorithm").local_energy > mu_of(20, "our algorithm").local_energy,
    );
    claim(
        "our algorithm's multi-user total energy is best or tied",
        [20usize, 60].iter().all(|&u| {
            let ours = mu_of(u, "our algorithm").total_energy;
            ours <= 1.02 * mu_of(u, "maximum flow minimum cut").total_energy
                && ours <= 1.02 * mu_of(u, "Kernighan-Lin").total_energy
        }),
    );
    claim(
        "contention reduces the offloaded fraction",
        mu_of(60, "our algorithm").offloaded_fraction
            <= mu_of(20, "our algorithm").offloaded_fraction + 1e-9,
    );

    // Fig 9 shape: dense-serial spectral slowest, engine cuts it back
    // (the dense-eigensolver cost only dominates at scale, so this
    // check uses a mid-size single-component graph)
    let rt = runtime::run(&[1200], opts.seed, false);
    let secs = |variant: &str| {
        rt.iter()
            .find(|p| p.variant == variant)
            .map(|p| p.seconds)
            .expect("dense sweep")
    };
    claim(
        "dense serial spectral is the slowest variant",
        secs("our algorithm without engine") >= secs("max-flow min-cut")
            && secs("our algorithm without engine") >= secs("Kernighan-Lin"),
    );
    claim(
        "the engine accelerates the spectral pipeline",
        secs("our algorithm with engine") <= secs("our algorithm without engine"),
    );

    println!();
    if failures == 0 {
        println!("all claims hold");
    } else {
        println!("{failures} claim(s) FAILED");
        std::process::exit(1);
    }
}

fn run_bench(opts: &Options) {
    println!("== spectral hot path: the shipped cut stage ==\n");
    let spec = HotpathSpec {
        seed: opts.seed,
        ..if opts.quick {
            HotpathSpec {
                users: 3,
                nodes: 1000,
                iters: 2,
                ..HotpathSpec::default()
            }
        } else {
            HotpathSpec::default()
        }
    };
    let probe = alloc_probe;
    let report = spectral_hotpath::run(&spec, Some(&probe)).expect("hot path is benchable");
    let fmt_opt = |v: Option<u64>| v.map_or_else(|| "n/a".to_string(), |v| v.to_string());
    let m = &report.optimized;
    let o = &report.obs_overhead;
    println!(
        "{}",
        render_table(
            &[
                "mean wall",
                "allocs/run",
                "bytes/run",
                "peak growth",
                "parts",
                "cut weight",
            ],
            &[vec![
                format!("{:.4}s", m.seconds),
                fmt_opt(m.allocations),
                fmt_opt(m.allocated_bytes),
                fmt_opt(m.peak_growth_bytes),
                m.parts.to_string(),
                format!("{:.4}", m.cut_weight),
            ]],
        )
    );
    println!(
        "tracing overhead: null {:+.2}%, sharded {:+.2}% ({} records, {} dropped)",
        100.0 * o.null_overhead,
        100.0 * o.sharded_overhead,
        o.sharded_records,
        o.sharded_dropped,
    );
    let path = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_spectral.json".to_string());
    write_json(path, &report);
}

fn run_ablation(opts: &Options, sink: &Arc<dyn TraceSink>) {
    println!("== Ablations: objective E+T per design knob ==\n");
    let points = ablation::run_traced(opts.seed, sink);
    let mut current_knob = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let flush = |knob: &str, rows: &mut Vec<Vec<String>>| {
        if rows.is_empty() {
            return;
        }
        println!("-- {knob} --");
        println!(
            "{}",
            render_table(&["setting", "objective", "super-nodes", "offloaded"], rows)
        );
        rows.clear();
    };
    for p in &points {
        if p.knob != current_knob {
            flush(&current_knob, &mut rows);
            current_knob = p.knob.clone();
        }
        rows.push(vec![
            p.setting.clone(),
            format!("{:.2}", p.objective),
            p.compressed_nodes.to_string(),
            p.offloaded.to_string(),
        ]);
    }
    flush(&current_knob, &mut rows);
    write_json(format!("{}/ablations.json", opts.out), &points);
}

/// The shared allocator probe for bench-style commands.
fn alloc_probe() -> AllocSnapshot {
    AllocSnapshot {
        allocations: counting_alloc::ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed),
        allocated_bytes: counting_alloc::ALLOCATED_BYTES.load(std::sync::atomic::Ordering::Relaxed),
        peak_bytes: counting_alloc::PEAK_BYTES.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Formats one histogram sample: `*_nanos` series render as
/// milliseconds, dimensionless series (Lanczos iterations, checkpoint
/// counts, stage width) as plain integers.
fn fmt_sample(name: &str, v: u64) -> String {
    if name.ends_with("_nanos") {
        format!("{:.3}ms", v as f64 / 1e6)
    } else {
        v.to_string()
    }
}

/// Prints the per-stage latency percentile table from the live
/// registry: one row per recorded histogram of interest.
fn render_stage_percentiles(registry: &MetricsRegistry) {
    const STAGES: [&str; 13] = [
        "stage.compression_nanos",
        "stage.cutting_nanos",
        "stage.greedy_nanos",
        "pipeline.solve_nanos",
        "session.join_nanos",
        "session.join_many_nanos",
        "session.replan_nanos",
        "session.leave_many_nanos",
        "service.replan_nanos",
        "greedy.evaluations",
        "greedy.moves",
        "lanczos.iterations",
        "lanczos.checkpoints",
    ];
    let snap = registry.snapshot();
    let rows: Vec<Vec<String>> = STAGES
        .iter()
        .filter_map(|&name| {
            snap.histogram(name).map(|h| {
                vec![
                    name.to_string(),
                    h.count().to_string(),
                    fmt_sample(name, h.value_at_quantile(0.50)),
                    fmt_sample(name, h.value_at_quantile(0.90)),
                    fmt_sample(name, h.value_at_quantile(0.99)),
                    fmt_sample(name, h.max()),
                ]
            })
        })
        .collect();
    if rows.is_empty() {
        println!("(no stage histograms recorded)");
        return;
    }
    println!(
        "{}",
        render_table(&["stage", "count", "p50", "p90", "p99", "max"], &rows)
    );
}

fn run_fig9(opts: &Options, sink: &Arc<dyn TraceSink>, registry: &Arc<MetricsRegistry>) {
    println!("== Fig. 9: execution time vs graph size ==\n");
    let points: Vec<RuntimePoint> = runtime::run_traced(&sizes(opts), opts.seed, opts.extra, sink);
    let sizes: Vec<usize> = {
        let mut s: Vec<_> = points.iter().map(|p| p.size).collect();
        s.dedup();
        s
    };
    let variants: Vec<String> = {
        let mut seen = Vec::new();
        for p in &points {
            if !seen.contains(&p.variant) {
                seen.push(p.variant.clone());
            }
        }
        seen
    };
    let mut headers = vec!["original graph size"];
    headers.extend(variants.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&sz| {
            let mut row = vec![sz.to_string()];
            for v in &variants {
                let p = points
                    .iter()
                    .find(|p| p.size == sz && &p.variant == v)
                    .expect("dense sweep");
                row.push(format!("{:.3}s", p.seconds));
            }
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    write_json(format!("{}/fig9.json", opts.out), &points);

    println!("== multi-user front-end speedup (cluster vs serial) ==\n");
    let (users, nodes) = if opts.quick { (8, 300) } else { (16, 800) };
    let mut speedups: Vec<FrontendSpeedup> = Vec::new();
    let mut per_worker: Vec<WorkerUtilization> = Vec::new();
    for workers in [1, opts.workers] {
        if speedups.iter().any(|s| s.workers == workers) {
            continue;
        }
        if workers == opts.workers {
            // the headline run records per-worker distributions into
            // the registry; utilization rows come out of that interval
            let (s, w) =
                runtime::frontend_speedup_traced(users, nodes, opts.seed, workers, sink, registry);
            speedups.push(s);
            per_worker = w;
        } else {
            speedups.push(runtime::frontend_speedup(users, nodes, opts.seed, workers));
        }
    }
    let speedup_rows: Vec<Vec<String>> = speedups
        .iter()
        .map(|s| {
            vec![
                s.users.to_string(),
                s.nodes.to_string(),
                s.workers.to_string(),
                format!("{:.3}s", s.serial_seconds),
                format!("{:.3}s", s.cluster_seconds),
                format!("{:.2}x", s.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["users", "nodes", "workers", "serial", "cluster", "speedup"],
            &speedup_rows,
        )
    );
    if let Some(s) = speedups.first() {
        if s.host_parallelism < 2 {
            println!(
                "note: this host reports {} available core(s); wall-clock speedup \
                 is capped by hardware, not by the stage distribution",
                s.host_parallelism
            );
        }
    }
    write_json(format!("{}/fig9_speedup.json", opts.out), &speedups);

    if !per_worker.is_empty() {
        println!(
            "\n== per-worker utilization (cluster leg, {} workers) ==\n",
            per_worker.len()
        );
        let rows: Vec<Vec<String>> = per_worker
            .iter()
            .map(|w| {
                vec![
                    w.worker.to_string(),
                    w.tasks.to_string(),
                    format!("{:.3}s", w.busy_seconds),
                    format!("{:.1}%", 100.0 * w.utilization),
                    fmt_sample("task_nanos", w.p50_task_nanos),
                    fmt_sample("task_nanos", w.p99_task_nanos),
                    fmt_sample("queue_nanos", w.p50_queue_nanos),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "worker",
                    "tasks",
                    "busy",
                    "utilization",
                    "task p50",
                    "task p99",
                    "queue p50",
                ],
                &rows,
            )
        );
        write_json(format!("{}/fig9_workers.json", opts.out), &per_worker);
    }

    println!("\n== pipeline stage latency distributions ==\n");
    sink.flush();
    render_stage_percentiles(registry);
}

fn run_churn(opts: &Options, sink: &Arc<dyn TraceSink>) {
    println!("== streaming churn: delta replans over sharded sessions ==\n");
    let spec = ChurnSpec {
        seed: opts.seed,
        ..if opts.quick {
            ChurnSpec::quick()
        } else {
            ChurnSpec::default()
        }
    };
    println!(
        "crowd {} across {} shards, {} events ({} full-mode samples), seed {}\n",
        spec.users, spec.shards, spec.events, spec.full_samples, spec.seed
    );
    let report = churn::run(&spec, Some(Arc::clone(sink)));
    println!(
        "{}",
        render_table(
            &["metric", "value"],
            &[
                vec![
                    "sustained users".to_string(),
                    report.sustained_users.to_string()
                ],
                vec!["peak users".to_string(), report.peak_users.to_string()],
                vec![
                    "delta replan p50".to_string(),
                    fmt_sample("replan_nanos", report.replan_p50_nanos),
                ],
                vec![
                    "delta replan p99".to_string(),
                    fmt_sample("replan_nanos", report.replan_p99_nanos),
                ],
                vec![
                    "delta replan mean".to_string(),
                    fmt_sample("replan_nanos", report.replan_mean_nanos),
                ],
                vec![
                    "full replan mean".to_string(),
                    fmt_sample("replan_nanos", report.full_mean_nanos),
                ],
                vec![
                    "delta-vs-full speedup".to_string(),
                    format!("{:.2}x", report.speedup),
                ],
            ],
        )
    );
    let path = opts
        .bench_out
        .clone()
        .unwrap_or_else(|| "BENCH_churn.json".to_string());
    write_json(path, &report);
}

/// Re-runs the spec a committed bench file records and gates the fresh
/// run against the file. Exits non-zero only when a deterministic row
/// changed, so CI blocks on what host noise cannot move and reads the
/// timing verdicts from the printed table.
fn run_gate(opts: &Options) {
    let path = opts
        .baseline
        .as_deref()
        .unwrap_or_else(|| die("gate needs --baseline FILE"));
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read baseline {path}: {e}")));
    let baseline = BenchFile::parse(&json).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("== gate: fresh run vs {path} ==\n");
    println!(
        "re-running {:?} at {:.0}% tolerance\n",
        baseline.spec(),
        100.0 * opts.tolerance
    );
    let probe = alloc_probe;
    let fresh = baseline
        .rerun(Some(&probe))
        .expect("the committed spec is runnable");
    let report = perfgate::evaluate(&baseline, &fresh, opts.tolerance);
    let fmt_value = |v: f64| {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.4}")
        }
    };
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.metric.to_string(),
                r.rule.to_string(),
                fmt_value(r.reference),
                fmt_value(r.fresh),
                format!("{:.3}x", r.ratio),
                r.status.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["metric", "rule", "reference", "fresh", "ratio", "verdict"],
            &rows
        )
    );
    match report.worst() {
        GateStatus::Pass => println!("\ngate: PASS"),
        GateStatus::Warn => println!(
            "\ngate: WARN — within tolerance but drifting; re-run on a quiet host \
             or refresh the baseline if the regression is intended"
        ),
        GateStatus::Fail if report.blocks() => {
            println!("\ngate: FAIL — a deterministic row changed");
            std::process::exit(1);
        }
        GateStatus::Fail => println!(
            "\ngate: FAIL — a timing or budget row is past its bound \
             (advisory: every deterministic row holds)"
        ),
    }
}

fn main() {
    let opts = parse_args();
    // One recorder for the whole invocation (per-thread SPSC rings
    // drained by a background aggregator, so worker hot paths never
    // contend on a lock): spans, events, counters and histograms from
    // every pipeline the selected command builds land in one trace and
    // one registry, which every export and the fig9 tables read. When
    // nothing reads them the pipelines get the null sink, so a plain
    // run times untraced code.
    let recorder = Arc::new(ShardedRecorder::new());
    let reads_telemetry = opts.trace_out.is_some()
        || opts.chrome_trace_out.is_some()
        || opts.metrics_out.is_some()
        || opts.serve.is_some()
        || matches!(opts.command.as_str(), "fig9" | "all");
    let sink: Arc<dyn TraceSink> = if reads_telemetry {
        Arc::clone(&recorder) as Arc<dyn TraceSink>
    } else {
        mec_obs::null_sink()
    };
    let registry = recorder.metrics();
    // Bind the exposition endpoint before the command runs so the
    // whole run is observable live. The printed line is parsed by the
    // CI smoke job (port 0 binds an ephemeral port, reported here).
    let server = opts.serve.as_ref().map(|addr| {
        let server = mec_obs::serve(Arc::clone(&recorder), addr.as_str())
            .unwrap_or_else(|e| die(&format!("cannot bind --serve {addr}: {e}")));
        println!("serving telemetry on http://{}", server.local_addr());
        server
    });
    let single_user_figs: Vec<(&str, &str, &str)> = vec![
        ("fig3", "local", "Fig. 3: local energy consumption"),
        ("fig4", "tx", "Fig. 4: transmission energy consumption"),
        ("fig5", "total", "Fig. 5: total energy consumption"),
    ];
    let multi_user_figs: Vec<(&str, &str, &str)> = vec![
        ("fig6", "local", "Fig. 6: local energy, multi-user"),
        ("fig7", "tx", "Fig. 7: transmission energy, multi-user"),
        ("fig8", "total", "Fig. 8: total energy, multi-user"),
    ];
    match opts.command.as_str() {
        "table1" => run_table1(&opts, &sink),
        "fig3" => {
            run_energy(&opts, &single_user_figs[0..1], &sink);
        }
        "fig4" => {
            run_energy(&opts, &single_user_figs[1..2], &sink);
        }
        "fig5" => {
            run_energy(&opts, &single_user_figs[2..3], &sink);
        }
        "fig6" => {
            run_multiuser(&opts, &multi_user_figs[0..1], &sink);
        }
        "fig7" => {
            run_multiuser(&opts, &multi_user_figs[1..2], &sink);
        }
        "fig8" => {
            run_multiuser(&opts, &multi_user_figs[2..3], &sink);
        }
        "fig9" => run_fig9(&opts, &sink, &registry),
        "ablate" => run_ablation(&opts, &sink),
        "bench" => run_bench(&opts),
        "churn" => run_churn(&opts, &sink),
        "gate" => run_gate(&opts),
        "check" => run_check(&opts),
        "all" => {
            run_table1(&opts, &sink);
            run_energy(&opts, &single_user_figs, &sink);
            run_multiuser(&opts, &multi_user_figs, &sink);
            run_fig9(&opts, &sink, &registry);
            run_ablation(&opts, &sink);
        }
        other => die(&format!("unknown command: {other}")),
    }
    if let Some(path) = &opts.trace_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("trace directory is creatable");
            }
        }
        std::fs::write(path, recorder.to_json_string()).expect("trace file is writable");
        println!("trace written to {path}");
    }
    if let Some(path) = &opts.chrome_trace_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("trace directory is creatable");
            }
        }
        std::fs::write(path, recorder.to_chrome_trace_string()).expect("trace file is writable");
        println!("chrome trace written to {path} (load via chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = &opts.metrics_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("metrics directory is creatable");
            }
        }
        recorder.flush();
        let snap = registry.snapshot();
        let body = if path.ends_with(".prom") || path.ends_with(".txt") {
            snap.to_prometheus_string()
        } else {
            snap.to_json_string()
        };
        std::fs::write(path, body).expect("metrics file is writable");
        println!("metrics written to {path}");
    }
    // Keep the exposition endpoint alive after the command finishes so
    // the final snapshot stays scrapeable: for `--serve-for SECS`, or
    // until killed when serving without a deadline.
    if let Some(mut server) = server {
        match opts.serve_for {
            Some(secs) => {
                println!("holding telemetry endpoint open for {secs}s");
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
            None => {
                println!("holding telemetry endpoint open until killed (Ctrl-C to exit)");
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
        }
        server.shutdown();
    }
}
