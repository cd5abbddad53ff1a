"""Per-layer self-time accounting for the traced benchmark run.

The traced run wraps the public entry points of each program layer
from the benchmark's own code (the program's source is untouched) and
charges every call's wall time to a layer metric.  A layer's *self*
time is its calls' duration minus the time of wrapped calls nested
inside them, on the same thread, so the self times of one operation
add up to the part of its wall time the layers account for; what is
left is reported as ``unattributed_s``.

Each wrapped call costs two ``perf_counter`` calls and a lock; the
traced run's median operation time (``traced_op_p50_ms``) against the
untraced run's ``op_p50_ms`` is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Self-time and count accumulators keyed by per-layer metric name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = True
        #: Wall seconds spent inside :meth:`paused` blocks.
        self.paused_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.inclusive_s.clear()
            self.counts.clear()
            self.paused_s = 0.0

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Leave calls made inside the block (untimed bookkeeping
        between operations) out of the accounts."""
        previous, self.enabled = self.enabled, False
        started = time.perf_counter()
        try:
            yield
        finally:
            self.enabled = previous
            if previous:
                self.paused_s += time.perf_counter() - started

    def add(self, metric: str, seconds: float) -> None:
        """Charge time measured by the caller as a leaf of the current
        thread's innermost wrapped call."""
        if not self.enabled:
            return
        stack = self._stack()
        with self._lock:
            self.self_s[metric] += seconds
            self.inclusive_s[metric] += seconds
        if stack:
            stack[-1] += seconds

    def count(self, metric: str, value: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[metric] += value

    def timed(
        self,
        metric: str,
        fn: Callable,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` with its calls charged to ``metric``; ``after(tracer,
        args, result)`` records counts from the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                with tracer._lock:
                    tracer.self_s[metric] += elapsed - children
                    tracer.inclusive_s[metric] += elapsed
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counted(self, metric: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted (its time stays with the
        caller's layer)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(metric)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class _TimedJson:
    """Stand-in for the daemon module's ``json``: ``dumps`` (the
    response encode on the daemon's writer thread) is timed and its
    output size counted; everything else is the real module."""

    def __init__(self, tracer: Tracer) -> None:
        self._dumps = tracer.timed(
            "daemon.encode_s",
            json.dumps,
            after=lambda t, args, out: t.count(
                "daemon.response_bytes", len(out) + 1
            ),
        )

    def dumps(self, *args, **kwargs):
        return self._dumps(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics name.

    Functions imported by name into another module are wrapped at each
    binding the program calls through; functions a module imports inside
    a function body are wrapped on their home module.
    """
    from repro.core.clusters import Cluster
    from repro.core.incremental import IncrementalAnalyzer
    from repro.core.model import AnalysisModel
    from repro.core.slack import SlackEngine
    from repro.service.batch import BatchEngine
    from repro.service.cluster_cache import ClusterCache
    from repro.service.daemon import TimingDaemon

    def bindings(metric, name, modules, after=None):
        for module_name in modules:
            module = importlib.import_module(module_name)
            tracer.patch(
                module, name, tracer.timed(metric, getattr(module, name), after)
            )

    # netlist
    bindings("netlist.load_s", "load_network", ["repro.netlist.persistence"])
    bindings("netlist.validate_s", "validate_network", ["repro.core.model"])
    # delay
    bindings(
        "delay.estimate_s",
        "estimate_delays",
        ["repro.delay.estimator", "repro.core.incremental", "repro.core.analyzer"],
    )
    # core.clusters
    bindings(
        "clusters.extract_s",
        "extract_clusters",
        ["repro.core.clusters", "repro.core.model"],
    )
    tracer.patch(
        Cluster,
        "reachable_captures",
        tracer.timed("clusters.reach_s", Cluster.reachable_captures),
    )
    # One call of the per-source traversal per source a cluster reaches
    # from; the count is the reachability layer's work.
    tracer.patch(
        Cluster,
        "_nets_reachable_from",
        tracer.counted("clusters.reach_sources", Cluster._nets_reachable_from),
    )
    # core.model / core.breakopen
    tracer.patch(
        AnalysisModel,
        "__init__",
        tracer.timed(
            "model.build_s",
            AnalysisModel.__init__,
            after=lambda t, args, _: t.count(
                "model.passes",
                sum(plan.num_passes for plan in args[0].plans.values()),
            ),
        ),
    )
    # core.slack / core.algorithm1
    tracer.patch(
        SlackEngine,
        "__init__",
        tracer.timed("slack.engine_build_s", SlackEngine.__init__),
    )
    tracer.patch(
        SlackEngine,
        "port_slacks",
        tracer.counted("slack.evaluations", SlackEngine.port_slacks),
    )
    bindings(
        "algorithm1.run_s",
        "run_algorithm1",
        ["repro.core.incremental", "repro.core.analyzer"],
        after=lambda t, args, result: t.count(
            "algorithm1.iterations", result.iterations.total
        ),
    )
    # core.report
    bindings(
        "report.slow_paths_s",
        "extract_slow_paths",
        ["repro.core.report", "repro.core.analyzer"],
        after=lambda t, args, result: t.count("report.slow_paths", len(result)),
    )
    # core.incremental
    original_scale = IncrementalAnalyzer.scale_cell
    timed_scale = tracer.timed("incremental.scale_cell_s", original_scale)

    def scale_cell(self, cell_name, factor):
        rebuilds = self.rebuilds
        timed_scale(self, cell_name, factor)
        tracer.count("incremental.scale_cells")
        tracer.count("incremental.rebuilds", self.rebuilds - rebuilds)

    tracer.patch(IncrementalAnalyzer, "scale_cell", scale_cell)
    # report.manifest / service.digest
    bindings("manifest.build_s", "build_manifest", ["repro.report.manifest"])
    for name in ("manifest_digest", "timing_digest"):
        bindings("manifest.digest_s", name, ["repro.report.manifest"])
    for name, modules in (
        ("network_digest", ["repro.service.digest", "repro.service.daemon",
                            "repro.service.batch"]),
        ("schedule_digest", ["repro.service.digest", "repro.service.daemon",
                             "repro.service.batch"]),
        ("source_digest", ["repro.service.digest", "repro.service.batch"]),
    ):
        bindings("digest.content_key_s", name, modules)
    # service.cluster_cache
    def count_warmup(t, args, warmup):
        t.count("cluster_cache.clusters", len(warmup.hits) + len(warmup.recomputed))
        t.count("cluster_cache.recomputed", len(warmup.recomputed))

    tracer.patch(
        ClusterCache,
        "warm",
        tracer.timed("cluster_cache.warm_s", ClusterCache.warm, count_warmup),
    )
    # service.daemon (the client side is timed by the workload itself)
    tracer.patch(
        TimingDaemon,
        "handle_line",
        tracer.timed("daemon.handle_s", TimingDaemon.handle_line),
    )
    tracer.patch(
        importlib.import_module("repro.service.daemon"), "json", _TimedJson(tracer)
    )
    # service.batch / service.cache
    def count_batch(t, args, report):
        t.count("batch.jobs", report.jobs)
        t.count("batch.cached", report.cached)
        t.count("batch.computed", report.computed)

    tracer.patch(BatchEngine, "plan", tracer.timed("batch.plan_s", BatchEngine.plan))
    tracer.patch(
        BatchEngine, "run", tracer.timed("batch.run_s", BatchEngine.run, count_batch)
    )
