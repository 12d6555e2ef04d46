#!/usr/bin/env python3
"""Steadiness check for the e2ebench workloads.

Runs every workload of BENCHMARK.json repeatedly, one seed per run, at
its run_seconds (the length the bounds apply to), and prints for every
figure its median, first and third quartile (Python's
statistics.quantiles(values, n=4)) and spread, (Q3 - Q1) / median, next
to the bound BENCHMARK.json fixes for the end-to-end metrics. Also prints
the share of failed operations per workload, and with --trace-runs the
per-layer medians and the tracing overhead (untraced throughput against
the traced run's trace.served_per_s).

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 [--first-seed 1] [--trace-runs 2]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Every figure line reads "  name  value unit [(n=N)]".
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            try:
                figures[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result, figures


def spread_row(name, values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    verdict = ""
    if bound is not None:
        verdict = f"bound {bound:.2f}  " + ("ok" if spread <= bound else "OVER")
        if spread > bound / 3:
            verdict += " (above a third)"
    print(f"  {name:<38} median {med:>14.4f}  q1 {q1:>14.4f}  q3 {q3:>14.4f}  "
          f"spread {spread:6.3f}  {verdict}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace-runs", type=int, default=0)
    a = p.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    for w in (w["name"] for w in bench["workloads"]):
        results, figures = [], {}
        for i in range(a.runs):
            seed = a.first_seed + i
            result, figs = run_once(bench["command"], w, seed, seconds, False)
            results.append(result)
            for k, v in figs.items():
                figures.setdefault(k, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"== {w}: {a.runs} runs of {seconds} s, {failed} of {attempted} operations "
              f"failed, failed shares {shares}, all correct: {all(r['correct'] for r in results)}")
        print(" end-to-end:")
        for name in bounds:
            spread_row(name, [r["metrics"][name]["value"] for r in results], bounds[name])
        print(" workload figures:")
        for name, values in figures.items():
            spread_row(name, values, None)
        if a.trace_runs:
            layers = {}
            for i in range(a.trace_runs):
                result, _ = run_once(bench["command"], w, a.first_seed + i, seconds, True)
                for k, v in result["metrics"].items():
                    layers.setdefault(k, []).append(v["value"])
            print(f" per-layer ({a.trace_runs} traced runs):")
            for name, values in layers.items():
                spread_row(name, values, None)
            untraced = statistics.median(r["metrics"]["throughput_per_s"]["value"] for r in results)
            traced = statistics.median(layers["trace.served_per_s"])
            print(f"  tracing overhead: {100 * (untraced - traced) / untraced:+.1f}% of "
                  f"throughput_per_s ({untraced:.4g} untraced, {traced:.4g} traced)")


if __name__ == "__main__":
    main()
