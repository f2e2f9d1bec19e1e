#!/usr/bin/env python3
"""Regenerates the reference figures in perfbench/README.md.

Runs the benchmark command from BENCHMARK.json on every workload for each
seed (untraced), then once traced per workload, and prints per metric the
median, first and third quartile (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound. With --write it replaces the
block between the reference markers in perfbench/README.md.

Run from the repository root:

    python3 perfbench/reference.py --seeds 1-10 --write
    python3 perfbench/reference.py --workload paper --seeds 1-5
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "perfbench" / "README.md"
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"
GAP = re.compile(r"largest variance-path vs MAP mean gap (\S+) \((\S+)%, (\S+) predictive sd\)")
SERVING = re.compile(r"serving reference: (.*)")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    gaps = [tuple(float(g) for g in m.groups()) for m in map(GAP.search, lines) if m]
    serving = {}
    for m in filter(None, map(SERVING.search, lines)):
        serving.update((k, float(v)) for k, v in (kv.split("=") for kv in m.group(1).split()))
    return result, gaps, serving, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="workload (default: all)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--write", action="store_true", help="rewrite the README block")
    opts = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = [f"Seeds {opts.seeds[0]}–{opts.seeds[-1]}, {seconds} s of serving per run; "
           f"spread = (q3 − q1) / median.", ""]
    raw = {}
    worst_gap = (0.0, 0.0, 0.0)
    for w in workloads:
        runs, serving = [], []
        for seed in opts.seeds:
            result, gaps, figures, wall = run(bench["command"], w, seed, seconds, 0)
            runs.append(result)
            serving.append(figures)
            worst_gap = max([worst_gap] + gaps, key=lambda g: g[2])
            print(f"{w} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
        traced, gaps, _, wall = run(bench["command"], w, opts.seeds[0], seconds, 1)
        worst_gap = max([worst_gap] + gaps, key=lambda g: g[2])
        raw[w] = {"untraced": runs, "traced": traced}

        out += [f"#### `{w}`", "",
                "| Metric | Unit | Median | Q1 | Q3 | Spread | Bound |",
                "|---|---|---|---|---|---|---|"]
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            out.append(f"| `{metric['name']}` | {metric['unit']} | {fmt(q2)} | {fmt(q1)} | "
                       f"{fmt(q3)} | {spread:.3f} | {metric['bound']} |")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out += ["", f"Operations: {attempted} attempted, {failed} failed over "
                f"{len(runs)} runs.", "",
                "Serving figures kept for reference only (not in BENCHMARK.json):", "",
                "| Figure | Median | Q1 | Q3 | Spread |", "|---|---|---|---|---|"]
        for name in serving[0]:
            q1, q2, q3 = quartiles([s[name] for s in serving])
            out.append(f"| `{name}` | {fmt(q2)} | {fmt(q1)} | {fmt(q3)} | {(q3 - q1) / q2:.3f} |")
        out += ["",
                f"Traced run (seed {opts.seeds[0]}):", "",
                "| Per-layer metric | Unit | Value |", "|---|---|---|"]
        for metric in bench["per_layer"]:
            v = traced["metrics"][metric["name"]]["value"]
            out.append(f"| `{metric['name']}` | {metric['unit']} | {fmt(v)} |")
        out.append("")
    out.append(f"Largest variance-path vs MAP mean gap over these runs: {worst_gap[0]:.3g} "
               f"absolute, {worst_gap[1]:.3g}% relative, {worst_gap[2]:.3g} predictive sd.")
    text = "\n".join(out)
    print(text)

    log = ROOT / "perfbench" / "out"
    log.mkdir(parents=True, exist_ok=True)
    (log / f"reference-{int(time.time())}.json").write_text(json.dumps(raw, indent=1))
    if opts.write:
        readme = README.read_text()
        head, _, rest = readme.partition(BEGIN)
        _, _, tail = rest.partition(END)
        README.write_text(f"{head}{BEGIN}\n{text}\n{END}{tail}")


if __name__ == "__main__":
    main()
