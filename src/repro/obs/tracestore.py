"""Persistent trace store with tail-based sampling.

PR 4 gave every daemon request a ``repro.obs.snapshot/1`` span tree,
but it only ever travelled back to the *requesting* client -- once the
response was written the tree was gone.  This module keeps the trees
that matter on disk so an operator can retrieve them **after the
fact**, following the paper's "keep full detail only where it binds"
philosophy:

* :class:`TailSampler` decides *after* the request completes (hence
  "tail-based") whether its trace is worth keeping:

  - **errored** requests are always kept,
  - requests slower than the **dynamic p95** of recent durations are
    always kept (a streaming latency histogram supplies the quantile;
    until it has seen enough samples everything is "slow"),
  - the rest are kept with a deterministic probability derived from
    the trace id, so two daemons sampling the same trace agree;

* :class:`TraceStore` is a size-bounded on-disk ring under
  ``--trace-dir``: one ``<trace_id>.json`` document per kept trace
  (schema ``repro.tracedoc/1``), oldest evicted first once the
  directory exceeds ``max_bytes``.  All failures degrade to counters
  (``service.tracestore.write_errors``) -- the serving path never sees
  an exception from here.

The store's ids are the same 32-hex trace ids the exemplars in
``/metrics`` carry, which is the point: alert -> fat bucket ->
exemplar ``trace_id`` -> ``repro-sta traces show <id>``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import recorder as obs_recorder
from repro.obs.hist import LATENCY_BUCKETS, HistogramStats

__all__ = [
    "TRACE_DOC_SCHEMA",
    "TailSampler",
    "TraceStore",
]

#: Schema identifier stamped on every stored trace document.
TRACE_DOC_SCHEMA = "repro.tracedoc/1"

#: Counter namespace (see docs/observability.md).
COUNTER_PREFIX = "service.tracestore"

_ID_CHARS = frozenset("0123456789abcdef")


def _valid_trace_id(trace_id: object) -> bool:
    return (
        isinstance(trace_id, str)
        and 8 <= len(trace_id) <= 64
        and set(trace_id) <= _ID_CHARS
    )


def _count(name: str, value: float = 1.0) -> None:
    obs_recorder.counter(f"{COUNTER_PREFIX}.{name}", value)


class TailSampler:
    """Tail-based keep/drop decisions for completed request traces.

    ``decide(status, duration_s, trace_id)`` returns the keep *reason*
    (``"error"``, ``"slow"`` or ``"sampled"``) or ``None`` for drop.

    The slow threshold is the p95 of the durations seen so far, tracked
    in a streaming latency histogram.  Below ``min_count`` observations
    the quantile is not trusted yet and no request counts as slow: a
    young daemon keeps only errors and the sampled arm, so its first
    requests do not each cost a trace file.  The probabilistic arm
    hashes the trace id, so the decision is deterministic per trace and
    testable.
    """

    def __init__(
        self,
        sample_rate: float = 0.05,
        slow_quantile: float = 0.95,
        min_count: int = 50,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.sample_rate = float(sample_rate)
        self.slow_quantile = float(slow_quantile)
        self.min_count = int(min_count)
        self._durations = HistogramStats(LATENCY_BUCKETS)
        self._lock = threading.Lock()

    def slow_threshold(self) -> Optional[float]:
        """Current p95 duration, or ``None`` while still warming up."""
        with self._lock:
            if self._durations.count < self.min_count:
                return None
            return self._durations.quantile(self.slow_quantile)

    @staticmethod
    def _hash_unit(trace_id: str) -> float:
        """Map a trace id to [0, 1) deterministically."""
        try:
            return int(trace_id[-8:], 16) / float(0x100000000)
        except (TypeError, ValueError):
            return 1.0  # unparseable id: only error/slow keep it

    def decide(
        self, status: str, duration_s: float, trace_id: str
    ) -> Optional[str]:
        threshold = self.slow_threshold()
        with self._lock:
            self._durations.observe(duration_s)
        if status == "error":
            return "error"
        if threshold is not None and duration_s >= threshold:
            return "slow"
        if self._hash_unit(trace_id) < self.sample_rate:
            return "sampled"
        return None


class TraceStore:
    """Size-bounded on-disk ring of ``repro.tracedoc/1`` documents.

    Thread-safe; every public method swallows I/O errors into counters
    (never-raises, same contract as the access log).  Existing
    documents are re-indexed oldest-first at construction so a
    restarted daemon keeps serving its previous traces.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = 64 * 1024 * 1024,
        sampler: Optional[TailSampler] = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.sampler = sampler if sampler is not None else TailSampler()
        self._lock = threading.Lock()
        #: trace_id -> on-disk size, insertion-ordered oldest first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._total_bytes = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._scan()
        except OSError:
            _count("write_errors")

    def _scan(self) -> None:
        entries = []
        for path in self.root.glob("*.json"):
            if not _valid_trace_id(path.stem):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.stem, stat.st_size))
        for __, trace_id, size in sorted(entries):
            self._index[trace_id] = size
            self._total_bytes += size

    def _path(self, trace_id: str) -> Path:
        return self.root / f"{trace_id}.json"

    # ------------------------------------------------------------------
    # write path (daemon request tail)
    # ------------------------------------------------------------------
    def offer(
        self,
        trace_id: Optional[str],
        *,
        status: str,
        duration_s: float,
        op: Optional[str] = None,
        design: Optional[str] = None,
        error: Optional[Dict[str, object]] = None,
        snapshot: Optional[Dict[str, object]] = None,
    ) -> Optional[str]:
        """Run the tail sampler and persist the trace when it keeps it.

        Returns the keep reason, or ``None`` when dropped (also on an
        invalid id or any I/O failure -- never raises).
        """
        if not _valid_trace_id(trace_id):
            return None
        try:
            reason = self.sampler.decide(status, duration_s, trace_id)
            if reason is None:
                _count("dropped")
                return None
            document = {
                "schema": TRACE_DOC_SCHEMA,
                "trace_id": trace_id,
                "ts": time.time(),
                "pid": os.getpid(),
                "op": op,
                "design": design,
                "status": status,
                "duration_s": duration_s,
                "sampling": reason,
                "error": error,
                "snapshot": snapshot,
            }
            self._write(trace_id, document)
            _count("kept")
            if reason in ("error", "slow"):
                _count(f"kept_{reason}")
            return reason
        except Exception:  # noqa: BLE001 -- telemetry must not raise
            _count("write_errors")
            return None

    def _write(self, trace_id: str, document: Dict[str, object]) -> None:
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        path = self._path(trace_id)
        with self._lock:
            try:
                path.write_bytes(payload)
            except OSError:
                _count("write_errors")
                return
            previous = self._index.pop(trace_id, 0)
            self._total_bytes -= previous
            self._index[trace_id] = len(payload)
            self._total_bytes += len(payload)
            self._evict_locked()

    def _evict_locked(self) -> None:
        while self._total_bytes > self.max_bytes and len(self._index) > 1:
            oldest, size = next(iter(self._index.items()))
            self._index.pop(oldest)
            self._total_bytes -= size
            try:
                self._path(oldest).unlink()
            except OSError:
                pass
            _count("evicted")

    # ------------------------------------------------------------------
    # read path (traces op / CLI)
    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        """The stored document for ``trace_id``, or ``None``."""
        if not _valid_trace_id(trace_id):
            return None
        try:
            raw = self._path(trace_id).read_text()
            document = json.loads(raw)
        except (OSError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None

    def list(self, last: int = 50) -> List[Dict[str, object]]:
        """Newest-first summaries of up to ``last`` stored traces (none
        for ``last <= 0``)."""
        last = int(last)
        with self._lock:
            ids = list(self._index)[-last:] if last > 0 else []
        rows = []
        for trace_id in reversed(ids):
            document = self.get(trace_id)
            if document is None:
                continue
            rows.append(
                {
                    "trace_id": trace_id,
                    "ts": document.get("ts"),
                    "op": document.get("op"),
                    "design": document.get("design"),
                    "status": document.get("status"),
                    "duration_s": document.get("duration_s"),
                    "sampling": document.get("sampling"),
                }
            )
        return rows

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "traces": len(self._index),
                "bytes": self._total_bytes,
                "max_bytes": self.max_bytes,
                "dir": str(self.root),
            }
