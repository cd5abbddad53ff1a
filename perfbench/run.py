#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des_cold --seed 1 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:
the program is set up three times (``setup_s`` is the median), then
the workload's closed loop runs for ``--seconds`` and every answer is
checked.  ``--trace 1`` is the separate traced run: one set-up, then
the same loop with every layer's entry points timed from this
benchmark's code, reporting the ``per_layer`` metrics (self time and
counts per operation).  Both print readable lines, then one JSON
object as the last line of standard output.  The exit status is 0 when
every answer was correct, 1 when one was not, 2 when the checkout has
no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Consecutive failed operations after which a run gives up.
MAX_CONSECUTIVE_FAILURES = 3


def measure(workload, seconds: float, spec: Dict[str, object]) -> Dict[str, object]:
    """Set up, run the closed loop for ``seconds``, check the answers.

    An untraced run sets up ``SETUP_REPS`` times.  The first set-up is
    the one the loop runs against; each of the others is a spare (a
    second instance of the workload, same seed, its own directory) set
    up and stopped between two slices of the loop.  The measured
    operations are thereby spread over the whole run instead of one
    stretch at its end.
    """
    from workloads import percentile, tail_percentile

    tracer = workload.tracer
    slices = SETUP_REPS if tracer is None else 1
    started = time.perf_counter()
    workload.setup()
    setups: List[float] = [time.perf_counter() - started]
    if tracer is not None:
        tracer.reset()
    walls: List[float] = []
    #: Wall seconds inside operations (less paused bookkeeping, traced).
    busy = 0.0
    errors = 0
    consecutive = 0
    index = 0
    for part in range(slices):
        if part:
            spare = type(workload)(
                workload.root, workload.work / f"spare{part}", workload.seed, None
            )
            started = time.perf_counter()
            try:
                spare.setup()
                setups.append(time.perf_counter() - started)
            finally:
                spare.stop()
        # The workload's minimum operations are spread over the slices
        # in whole units of ``op_multiple``.
        units = workload.min_ops // workload.op_multiple
        forced = workload.op_multiple * -(-units * (part + 1) // slices)
        deadline = time.perf_counter() + seconds / slices
        # No operation starts that would, at the mean pace so far, end
        # after the slice: slow operations come in a fixed number.
        while (
            index < forced
            or index % workload.op_multiple
            or time.perf_counter() + busy / index <= deadline
        ):
            started = time.perf_counter()
            try:
                walls.append(workload.op(index))
                consecutive = 0
            except Exception:  # noqa: BLE001 -- a failed operation is data
                traceback.print_exc(file=sys.stderr)
                errors += 1
                consecutive += 1
            busy += time.perf_counter() - started
            index += 1
            if consecutive >= MAX_CONSECUTIVE_FAILURES:
                break
        if consecutive >= MAX_CONSECUTIVE_FAILURES:
            break
    peak_rss_mb = workload.peak_rss_mb()
    workload.stop()
    if tracer is not None:
        tracer.uninstall()
        busy -= tracer.paused_s
    wrong = workload.check()
    n = len(walls)
    result: Dict[str, object] = {
        "attempted": index,
        "failed": errors + wrong,
        "setups_s": setups,
        "setup_s": median(setups),
        "op_walls": walls,
        "peak_rss_mb": peak_rss_mb,
    }
    # A run with no successful operation is reported (as incorrect)
    # with zero timings.
    result["op_p50_ms"] = 1e3 * median(walls) if n else 0.0
    result["ops_per_s"] = n / sum(walls) if n else 0.0
    tail = tail_percentile(n)
    if tail:
        result[f"op_p{tail}_ms"] = 1e3 * percentile(walls, tail)
    result["facts"] = workload.facts(result) if n else {}
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, index, busy, walls, spec["per_layer"])
    return result


def per_layer(tracer, ops: int, busy: float, walls: List[float], wanted) -> Dict[str, float]:
    """The ``wanted`` per-layer metrics of the traced loop: a layer time
    (unit ``s``) is its self time per operation, a count its total per
    operation; the shares and what the layers leave unattributed are
    derived below."""
    counts = tracer.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    clusters = counts.get("cluster_cache.clusters", 0.0)
    unattributed = busy - sum(tracer.self_s.values())
    derived = {
        "incremental.rebuild_share": share(
            counts.get("incremental.rebuilds", 0.0),
            counts.get("incremental.scale_cells", 0.0),
        ),
        "cluster_cache.hit_rate": share(
            clusters - counts.get("cluster_cache.recomputed", 0.0), clusters
        ),
        "cluster_cache.op_share": share(
            tracer.inclusive_s.get("cluster_cache.warm_s", 0.0), busy
        ),
        "cache.hit_rate": share(
            counts.get("batch.cached", 0.0), counts.get("batch.jobs", 0.0)
        ),
        "unattributed_s": unattributed / ops,
        "unattributed_share": share(unattributed, busy),
        "traced_op_p50_ms": 1e3 * median(walls) if walls else 0.0,
    }
    values = {}
    for metric in wanted:
        name = metric["name"]
        if name in derived:
            values[name] = derived[name]
        elif metric["unit"] == "s":
            values[name] = tracer.self_s.get(name, 0.0) / ops
        else:
            values[name] = counts.get(name, 0.0) / ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer, install
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A terminated run still stops the daemon it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, tracer)
    try:
        result = measure(workload, args.seconds, spec)
    finally:
        workload.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    source = result.get("per_layer", result)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, error_rate={failed / max(attempted, 1):.4g}")
    print("  set-ups (s): " + ", ".join(f"{s:.4f}" for s in result["setups_s"]))
    print(f"  {workload.op_name}: n={len(result['op_walls'])}, "
          f"{result['ops_per_s']:.6g} ops/s")
    for key, value in result.items():
        if key.startswith("op_p") and key not in metrics:
            print(f"  {key} = {value:.6g}")
    for key, value in result["facts"].items():
        print(f"  {key} = {value:.6g}" if isinstance(value, float) else f"  {key} = {value}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
