#!/usr/bin/env python3
"""Render the paper's figures from the JSON the experiment harness
writes into results/.

Usage:
    cargo run --release -p mec-bench --bin experiments -- all --trace-out results/trace.json
    python3 scripts/plot_figures.py [results_dir] [output_dir] [--trace FILE]

Requires matplotlib. Produces fig3.png ... fig9.png mirroring the
paper's bar charts (Figs. 3-8, normalised) and runtime curves (Fig. 9).
When a telemetry trace (the `--trace-out` JSON) is found — either via
--trace or as <results_dir>/trace.json — also renders trace_stages.png
(time per pipeline stage from the recorded spans) and prints the
pipeline counters (label-propagation rounds, Lanczos iterations,
greedy evaluated/accepted, ...).
"""

import json
import sys
from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover
    sys.exit("matplotlib is required: pip install matplotlib")

ARGS = sys.argv[1:]
TRACE = None
if "--trace" in ARGS:
    i = ARGS.index("--trace")
    if i + 1 >= len(ARGS):
        sys.exit("--trace needs a path")
    TRACE = Path(ARGS[i + 1])
    del ARGS[i : i + 2]
RESULTS = Path(ARGS[0] if len(ARGS) > 0 else "results")
OUT = Path(ARGS[1] if len(ARGS) > 1 else "results")
if TRACE is None and (RESULTS / "trace.json").exists():
    TRACE = RESULTS / "trace.json"

ENERGY_FIGS = {
    "fig3": ("local_energy", "size", "original graph size", "local (normalised)"),
    "fig4": ("tx_energy", "size", "original graph size", "transmission (normalised)"),
    "fig5": ("total_energy", "size", "original graph size", "total consumption (normalised)"),
    "fig6": ("local_energy", "users", "user size", "local (normalised)"),
    "fig7": ("tx_energy", "users", "user size", "transmission (normalised)"),
    "fig8": ("total_energy", "users", "user size", "total consumption (normalised)"),
}


def grouped_bars(points, metric, xkey, xlabel, ylabel, path):
    xs = sorted({p[xkey] for p in points})
    strategies = []
    for p in points:
        if p["strategy"] not in strategies:
            strategies.append(p["strategy"])
    peak = max(p[metric] for p in points) or 1.0
    width = 0.8 / len(strategies)
    fig, ax = plt.subplots(figsize=(7, 4))
    for si, strat in enumerate(strategies):
        vals = []
        for x in xs:
            match = [p for p in points if p[xkey] == x and p["strategy"] == strat]
            vals.append(match[0][metric] / peak if match else 0.0)
        offs = [i + (si - (len(strategies) - 1) / 2) * width for i in range(len(xs))]
        bars = ax.bar(offs, vals, width=width, label=strat)
        for rect, v in zip(bars, vals):
            ax.annotate(
                f"{v:.2f}",
                (rect.get_x() + rect.get_width() / 2, rect.get_height()),
                ha="center",
                va="bottom",
                fontsize=7,
            )
    ax.set_xticks(range(len(xs)), [str(x) for x in xs])
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.set_ylim(0, 1.5)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    print(f"wrote {path}")


def runtime_curves(points, path):
    variants = []
    for p in points:
        if p["variant"] not in variants:
            variants.append(p["variant"])
    fig, ax = plt.subplots(figsize=(7, 4))
    for variant in variants:
        series = [(p["size"], p["seconds"]) for p in points if p["variant"] == variant]
        series.sort()
        ax.plot([s for s, _ in series], [t for _, t in series], marker="o", label=variant)
    ax.set_xlabel("original graph size")
    ax.set_ylabel("running time (s)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    print(f"wrote {path}")


def trace_summary(trace, path):
    """Stage-duration chart + counter dump from a telemetry trace
    (the JSON `mec_obs::ShardedRecorder` exports, schema version 1)."""
    if trace.get("version") != 1:
        print(f"skipping trace: unknown schema version {trace.get('version')!r}")
        return
    totals = {}
    for span in trace.get("spans", []):
        if span.get("duration_ns") is not None:
            totals[span["name"]] = totals.get(span["name"], 0) + span["duration_ns"]
    if totals:
        names = sorted(totals, key=totals.get)
        fig, ax = plt.subplots(figsize=(7, 0.5 + 0.4 * len(names)))
        ax.barh(range(len(names)), [totals[n] / 1e6 for n in names])
        ax.set_yticks(range(len(names)), names, fontsize=8)
        ax.set_xlabel("total time (ms)")
        fig.tight_layout()
        fig.savefig(path, dpi=150)
        plt.close(fig)
        print(f"wrote {path}")
    counters = trace.get("counters", {})
    if counters:
        print("trace counters:")
        for name in sorted(counters):
            print(f"  {name:<24} {counters[name]}")
    # "events_dropped" since the mec-metrics PR; older traces said "dropped_events"
    dropped = trace.get("events_dropped", trace.get("dropped_events"))
    if dropped:
        print(f"  (ring buffer dropped {dropped} events)")
    if trace.get("warning"):
        print(f"  warning: {trace['warning']}")


def main():
    for fig, (metric, xkey, xlabel, ylabel) in ENERGY_FIGS.items():
        src = RESULTS / f"{fig}.json"
        if not src.exists():
            print(f"skipping {fig}: {src} not found")
            continue
        points = json.loads(src.read_text())
        grouped_bars(points, metric, xkey, xlabel, ylabel, OUT / f"{fig}.png")
    src = RESULTS / "fig9.json"
    if src.exists():
        runtime_curves(json.loads(src.read_text()), OUT / "fig9.png")
    else:
        print(f"skipping fig9: {src} not found")
    if TRACE is not None and TRACE.exists():
        trace_summary(json.loads(TRACE.read_text()), OUT / "trace_stages.png")


if __name__ == "__main__":
    main()
