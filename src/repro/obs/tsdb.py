"""In-process ring-buffer metrics history (``repro.metrics.history/1``).

The daemon's ``/metrics`` endpoint and ``metrics`` op expose *current*
counter and histogram values; anything trending -- request rate ramping,
cache hit rate decaying after an edit storm, p95 creeping -- is
invisible unless the operator polls and diffs by hand.
:class:`MetricsHistory` closes that gap with the smallest thing that
works: a fixed-capacity :class:`collections.deque` of periodic
snapshots taken from a live :class:`~repro.obs.recorder.Recorder`,
readable as JSON for the ``history`` daemon op, the
``GET /metrics/history`` sidecar endpoint, and the sparkline columns in
``repro-sta top``.

Each snapshot point is flat and small on purpose::

    {"ts": 1754650000.0,
     "counters": {"service.daemon.requests": 41, ...},
     "gauges": {"service.daemon.in_flight": 0, ...},
     "histograms": {"service.daemon.request_seconds":
                    {"count": 41, "p50": 0.004, "p95": 0.021}, ...}}

Full bucket vectors stay out of the ring so a day of 5-second cadence
(17k points) is still only a few MB.  Use :meth:`MetricsHistory.start`
for the self-driving background thread (the daemon does), or call
:meth:`record` from an existing loop.

Every value derived from a list of points -- a counter's increase, its
rate, the per-interval trend -- comes from :func:`increases`,
:func:`increase` and :func:`rate` here, so ``repro-sta top`` and the
alert engine share one counter-reset rule.  They are plain functions
over point lists because ``top`` reads history documents fetched from
another process.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.obs.recorder import Recorder

__all__ = [
    "HISTORY_SCHEMA",
    "MetricsHistory",
    "increase",
    "increases",
    "rate",
    "resolve_metric",
]

#: Schema identifier of a serialised history document.
HISTORY_SCHEMA = "repro.metrics.history/1"


def resolve_metric(point: Dict[str, object], name: str) -> Optional[float]:
    """Resolve a metric name against one snapshot point.

    Counters win over gauges; ``<histogram>.p50`` / ``.p95`` /
    ``.count`` reach into histogram rows.  Returns ``None`` when the
    point has no such metric -- the distinction between "absent" and
    "0.0" matters to absence alert rules, which is why this lives here
    rather than inside :meth:`MetricsHistory.series` (that keeps its
    0.0-fill contract so series always align with points).
    """
    counters = point.get("counters") or {}
    if name in counters:
        return float(counters[name])
    gauges = point.get("gauges") or {}
    if name in gauges:
        return float(gauges[name])
    base, dot, field = name.rpartition(".")
    if dot:
        histograms = point.get("histograms") or {}
        row = histograms.get(base)
        if row is not None and field in row:
            return float(row[field])
    return None


def increases(points: Sequence[Dict[str, object]], name: str) -> List[float]:
    """A counter's rise over each interval between consecutive points.

    The one counter-reset rule: a value lower than the one before means
    the process restarted and the counter began again from zero, so the
    later value counts whole (Prometheus ``increase()`` semantics).  A
    point that lacks the metric reads as zero -- counters are created
    on their first increment -- so it adds nothing itself and the next
    present value counts whole, like a restart.
    """
    values = [resolve_metric(point, name) or 0.0 for point in points]
    return [
        later - earlier if later >= earlier else later
        for earlier, later in zip(values, values[1:])
    ]


def increase(points: Sequence[Dict[str, object]], name: str) -> float:
    """A counter's total rise over ``points`` (see :func:`increases`)."""
    return sum(increases(points, name), 0.0)


def rate(points: Sequence[Dict[str, object]], name: str) -> Optional[float]:
    """:func:`increase` per second of the points' ``ts`` span.

    ``None`` for fewer than two points or a non-positive span.
    """
    if len(points) < 2:
        return None
    span = float(points[-1]["ts"]) - float(points[0]["ts"])
    if span <= 0.0:
        return None
    return increase(points, name) / span


class MetricsHistory:
    """Fixed-capacity ring buffer of periodic metrics snapshots.

    Parameters
    ----------
    capacity:
        Points retained (oldest evicted first, default 720 -- one hour
        at the default 5-second cadence).
    interval_s:
        Snapshot cadence of the background thread (default 5.0); also
        recorded in the exported document so consumers can label the
        x-axis.
    """

    def __init__(self, capacity: int = 720, interval_s: float = 5.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.capacity = int(capacity)
        self.interval_s = float(interval_s)
        self._points: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.snapshots = 0
        # Monotonic-anchored timestamps: wall clock sampled once at
        # construction, advanced by the monotonic clock.  A wall-clock
        # step (NTP slew, operator date change) between two points would
        # corrupt every rate delta computed from ``ts`` -- ``top``
        # sparklines and burn-rate alert rules divide by ts deltas.
        self._epoch_wall = time.time()
        self._epoch_mono = time.monotonic()

    def _now(self) -> float:
        """Wall-clock-looking timestamp immune to wall-clock steps."""
        return self._epoch_wall + (time.monotonic() - self._epoch_mono)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, recorder: Recorder) -> Dict[str, object]:
        """Append one snapshot point taken from ``recorder``.

        Counter/gauge dicts and histogram quantiles are copied under
        the recorder's lock, so a point is internally consistent even
        while worker threads keep writing.
        """
        with recorder._lock:
            counters = dict(recorder.counters)
            gauges = dict(recorder.gauges)
            histograms = {
                name: {
                    "count": stats.count,
                    "p50": round(stats.quantile(0.5), 6),
                    "p95": round(stats.quantile(0.95), 6),
                }
                for name, stats in recorder.histograms.items()
            }
        point: Dict[str, object] = {
            "ts": self._now(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        with self._lock:
            self._points.append(point)
            self.snapshots += 1
        return point

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(
        self,
        recorder: Recorder,
        before_point: Optional[Callable[[], None]] = None,
        on_point: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> "MetricsHistory":
        """Snapshot ``recorder`` every ``interval_s`` until :meth:`stop`.

        One boot point is recorded immediately so readers see a
        non-empty history without waiting out the first interval.
        ``before_point`` runs just before each snapshot (the daemon
        syncs its derived gauges there so every point carries them) and
        ``on_point`` receives each freshly recorded point (the alert
        engine evaluates there, giving alerting the same cadence as the
        history it reads).  Both hooks are best-effort: an exception
        skips the hook, never the snapshot loop.
        """
        if self._thread is not None:
            raise RuntimeError("history thread already started")
        self._stop.clear()

        def _tick() -> None:
            if before_point is not None:
                try:
                    before_point()
                except Exception:  # pragma: no cover -- never kill host
                    pass
            try:
                point = self.record(recorder)
            except Exception:  # pragma: no cover -- never kill host
                return
            if on_point is not None:
                try:
                    on_point(point)
                except Exception:  # pragma: no cover -- never kill host
                    pass

        def _run() -> None:
            _tick()
            while not self._stop.wait(self.interval_s):
                _tick()

        self._thread = threading.Thread(
            target=_run, name="repro-tsdb", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def points(self, last: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent ``last`` points, oldest first (all if None)."""
        with self._lock:
            points = list(self._points)
        if last is not None and last >= 0:
            points = points[-last:] if last else []
        return points

    def series(
        self, name: str, last: Optional[int] = None
    ) -> List[float]:
        """One metric's values over time, oldest first.

        ``name`` resolves against counters first, then gauges; for a
        histogram use ``<name>.p50`` / ``<name>.p95`` / ``<name>.count``.
        Points that lack the metric contribute ``0.0`` so the series
        always aligns with :meth:`points`.
        """
        values: List[float] = []
        for point in self.points(last):
            value = resolve_metric(point, name)
            values.append(0.0 if value is None else value)
        return values

    def to_dict(self, last: Optional[int] = None) -> Dict[str, object]:
        """The ``repro.metrics.history/1`` document."""
        points = self.points(last)
        return {
            "schema": HISTORY_SCHEMA,
            "interval_s": self.interval_s,
            "capacity": self.capacity,
            "snapshots": self.snapshots,
            "points": points,
        }
