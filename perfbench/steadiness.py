#!/usr/bin/env python3
"""Steadiness report: run every workload with several seeds, one run at
a time, and record each end-to-end metric's run-to-run spread.

    python3 perfbench/steadiness.py                 # 10 seeds, all workloads
    python3 perfbench/steadiness.py --seeds 5 --workloads des_cold

The spread of a metric is the distance between the first and third
quartiles of its per-run values (``statistics.quantiles(values, n=4)``)
as a share of their median; a metric is steady when its spread is below
a third of its bound in ``BENCHMARK.json``.  Seeds run from 1.  With
``--traced`` one traced run per workload (seed 1) adds the per-layer
figures and the tracing overhead (traced minus untraced median
operation time).  Writes
``steadiness.json`` (every run) and ``STEADINESS.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs
    this process right now (it drifts on a shared machine)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    before = host_ms()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  exit=proc.returncode, run_wall_s=wall, stdout=lines[:-1],
                  host_ms=(before + host_ms()) / 2)
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    runs: List[Dict[str, object]] = []
    for workload in args.workloads:
        for seed in range(1, args.seeds + 1):
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['run_wall_s']:.1f} s, "
                  f"correct={run['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in run["metrics"].items()),
                  flush=True)
        if args.traced:
            run = run_once(workload, 1, args.seconds, 1)
            runs.append(run)
            print(f"{workload} traced: {run['run_wall_s']:.1f} s", flush=True)
    (HERE / "steadiness.json").write_text(json.dumps(runs, indent=1) + "\n")
    (HERE / "STEADINESS.md").write_text(render(spec, runs, args))
    return 0


def render(spec, runs, args) -> str:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = [
        "# Steadiness report",
        "",
        f"`python3 perfbench/steadiness.py --seeds {args.seeds} "
        f"--seconds {args.seconds}"
        f"{' --traced' if args.traced else ''}`, one run at a time, "
        f"on a {os.cpu_count()}-CPU {platform.machine()} {platform.system()} "
        f"host, Python {platform.python_version()}.",
        "",
        "Spread = (q3 - q1) / median over the runs' values; steady means "
        "spread < bound / 3.",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound | steady |",
        "|---|---|---|---|---|---|---|---|",
    ]
    untraced_p50 = {}
    for workload in args.workloads:
        rows = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if len(rows) < 2:
            continue
        for name, metric in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in rows])
            if name == "op_p50_ms":
                untraced_p50[workload] = s["median"]
            steady = "yes" if s["spread"] < metric["bound"] / 3 else "NO"
            out.append(
                f"| {workload} | {name} ({metric['unit']}) | {s['median']:.6g} | "
                f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | "
                f"{metric['bound']} | {steady} |")
    out += ["", "| workload | runs | all correct | failed / attempted | run wall (s, max) |",
            "|---|---|---|---|---|"]
    for workload in args.workloads:
        rows = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if rows:
            out.append(
                f"| {workload} | {len(rows)} | {all(r['correct'] for r in rows)} | "
                f"{sum(r['failed'] for r in rows)} / {sum(r['attempted'] for r in rows)} | "
                f"{max(r['run_wall_s'] for r in rows):.1f} |")
    out += ["", "## Host drift", "",
            "`host_ms` times a fixed pure-Python loop just before and after "
            "each run.  Its spread is the host's own drift over the runs; "
            "`op_p50_ms / host_ms` is what is left of the operation's "
            "spread once that drift is divided out (reported here only, "
            "not a metric).", "",
            "| workload | host_ms median | host_ms spread | op_p50_ms spread "
            "| op_p50_ms / host_ms spread |", "|---|---|---|---|---|"]
    for workload in args.workloads:
        rows = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if len(rows) >= 2:
            host = spread([r["host_ms"] for r in rows])
            op = spread([r["metrics"]["op_p50_ms"]["value"] for r in rows])
            ratio = spread([r["metrics"]["op_p50_ms"]["value"] / r["host_ms"]
                            for r in rows])
            out.append(f"| {workload} | {host['median']:.4g} | {host['spread']:.4f} | "
                       f"{op['spread']:.4f} | {ratio['spread']:.4f} |")
    traced = [r for r in runs if r["trace"] == 1]
    if traced:
        out += ["", "## Traced run (seed 1): per-operation self time and counts", ""]
        names = [m["name"] for m in spec["per_layer"]]
        out.append("| metric | " + " | ".join(r["workload"] for r in traced) + " |")
        out.append("|---|" + "---|" * len(traced))
        for name in names:
            out.append(f"| {name} | " + " | ".join(
                f"{r['metrics'][name]['value']:.4g}" for r in traced) + " |")
        out.append("| tracing overhead (traced / untraced op p50 - 1) | " + " | ".join(
            f"{r['metrics']['traced_op_p50_ms']['value'] / untraced_p50[r['workload']] - 1:+.3f}"
            if r["workload"] in untraced_p50 else "n/a" for r in traced) + " |")
        out += ["", "## Operation time with and without `ClusterCache.warm`", "",
                "| workload | untraced op p50 (ms) | traced op p50 (ms) | "
                "share in `ClusterCache.warm` | traced op p50 without it (ms) |",
                "|---|---|---|---|---|"]
        for r in traced:
            op = r["metrics"]["traced_op_p50_ms"]["value"]
            warm = r["metrics"]["cluster_cache.op_share"]["value"]
            out.append(
                f"| {r['workload']} | {untraced_p50.get(r['workload'], float('nan')):.4g} | "
                f"{op:.4g} | {warm:.3f} | {op * (1 - warm):.4g} |")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
