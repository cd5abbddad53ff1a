"""Tests for the ring-buffer metrics history (repro.obs.tsdb)."""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.tsdb import (
    HISTORY_SCHEMA,
    MetricsHistory,
    increase,
    increases,
    rate,
    resolve_metric,
)
from repro.service.top import json_frame

_REQUESTS = "service.daemon.requests"


@pytest.fixture(autouse=True)
def _no_leak():
    assert obs.active() is None
    yield
    assert obs.active() is None


class TestRecord:
    def test_point_shape(self):
        history = MetricsHistory(capacity=8)
        with obs.recording() as rec:
            obs.counter("alg1.runs", 3)
            obs.gauge("service.daemon.in_flight", 2)
            obs.histogram("service.daemon.request_seconds", 0.01)
            obs.histogram("service.daemon.request_seconds", 0.03)
            point = history.record(rec)
        assert point["counters"]["alg1.runs"] == 3
        assert point["gauges"]["service.daemon.in_flight"] == 2
        hist = point["histograms"]["service.daemon.request_seconds"]
        assert hist["count"] == 2
        assert hist["p50"] > 0 and hist["p95"] >= hist["p50"]
        # Monotonic-anchored, but still wall-clock-shaped (close to
        # time.time() when nobody steps the wall clock).
        assert abs(point["ts"] - time.time()) < 1.0
        assert len(history) == 1

    def test_timestamps_immune_to_wall_clock_steps(self, monkeypatch):
        """A wall-clock step (NTP) between points must not corrupt the
        ts axis rate-deltas divide by -- the counter-reset analogue for
        time itself."""
        import repro.obs.tsdb as tsdb_mod

        history = MetricsHistory(capacity=8)
        with obs.recording() as rec:
            obs.counter("ticks")
            first = history.record(rec)
            # Step the wall clock an hour *backwards*.  The anchored
            # timestamp keeps advancing off the monotonic clock.
            real_time = time.time
            monkeypatch.setattr(
                tsdb_mod.time, "time", lambda: real_time() - 3600.0
            )
            obs.counter("ticks")
            second = history.record(rec)
        assert second["ts"] >= first["ts"]
        assert second["ts"] - first["ts"] < 10.0  # and by a sane amount

    def test_capacity_evicts_oldest(self):
        history = MetricsHistory(capacity=3)
        with obs.recording() as rec:
            for index in range(5):
                obs.counter("ticks")
                history.record(rec)
        assert len(history) == 3
        assert history.snapshots == 5
        counts = history.series("ticks")
        assert counts == [3.0, 4.0, 5.0]  # oldest evicted first

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MetricsHistory(capacity=0)
        with pytest.raises(ValueError):
            MetricsHistory(interval_s=0)


class TestSeries:
    def _filled(self):
        history = MetricsHistory(capacity=8)
        with obs.recording() as rec:
            obs.counter("c", 1)
            obs.gauge("g", 7.5)
            obs.histogram("lat", 0.02)
            history.record(rec)
            obs.counter("c", 2)
            obs.histogram("lat", 0.04)
            history.record(rec)
        return history

    def test_counter_gauge_and_histogram_lookup(self):
        history = self._filled()
        assert history.series("c") == [1.0, 3.0]
        assert history.series("g") == [7.5, 7.5]
        p50 = history.series("lat.p50")
        assert len(p50) == 2 and all(v > 0 for v in p50)
        assert history.series("lat.count") == [1.0, 2.0]

    def test_missing_metric_fills_zero(self):
        history = self._filled()
        assert history.series("nope") == [0.0, 0.0]
        assert history.series("lat.p99") == [0.0, 0.0]

    def test_last_window(self):
        history = self._filled()
        assert history.series("c", last=1) == [3.0]
        assert history.points(last=0) == []


class TestDocument:
    def test_to_dict_schema(self):
        history = MetricsHistory(capacity=4, interval_s=1.5)
        with obs.recording() as rec:
            obs.counter("c")
            history.record(rec)
        doc = history.to_dict()
        assert doc["schema"] == HISTORY_SCHEMA
        assert doc["interval_s"] == 1.5
        assert doc["capacity"] == 4
        assert doc["snapshots"] == 1
        assert len(doc["points"]) == 1

    def test_to_dict_last(self):
        history = MetricsHistory(capacity=8)
        with obs.recording() as rec:
            for __ in range(4):
                history.record(rec)
        assert len(history.to_dict(last=2)["points"]) == 2


class TestBackgroundThread:
    def test_start_records_boot_point_and_stop_joins(self):
        history = MetricsHistory(capacity=8, interval_s=30.0)
        with obs.recording() as rec:
            obs.counter("boot", 1)
            history.start(rec)
            try:
                deadline = time.time() + 5.0
                while not len(history) and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                history.stop()
        # The boot point lands immediately -- no 30 s wait.
        assert len(history) >= 1
        assert history.series("boot")[0] == 1.0
        assert not history.running

    def test_double_start_rejected(self):
        history = MetricsHistory(capacity=2, interval_s=30.0)
        with obs.recording() as rec:
            history.start(rec)
            try:
                with pytest.raises(RuntimeError):
                    history.start(rec)
            finally:
                history.stop()

    def test_periodic_snapshots(self):
        history = MetricsHistory(capacity=16, interval_s=0.02)
        with obs.recording() as rec:
            history.start(rec)
            try:
                deadline = time.time() + 5.0
                while len(history) < 3 and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                history.stop()
        assert len(history) >= 3


class TestSeriesEdgeCases:
    """PR 7 satellite: the edge cases alerting leans on."""

    def test_empty_window(self):
        history = MetricsHistory(capacity=4)
        # No points at all: every series is empty, not an error.
        assert history.series("anything") == []
        with obs.recording() as rec:
            obs.counter("c", 1)
            history.record(rec)
        # An explicit zero-point window is empty too.
        assert history.series("c", last=0) == []

    def test_counter_reset_keeps_raw_values(self):
        # A daemon restart resets counters; the history stores raw
        # values (consumers derive increases through
        # ``repro.obs.tsdb.increases``, where a drop means a restart
        # and the later value counts whole).
        history = MetricsHistory(capacity=4)
        with obs.recording() as rec:
            obs.counter("requests", 5)
            history.record(rec)
        with obs.recording() as rec:  # fresh recorder = reset counter
            obs.counter("requests", 2)
            history.record(rec)
        assert history.series("requests") == [5.0, 2.0]

    def test_histogram_quantile_never_observed(self):
        history = MetricsHistory(capacity=4)
        with obs.recording() as rec:
            obs.histogram("lat", 0.02)
            history.record(rec)
        # Only p50/p95/count are retained per point; an unexported
        # quantile fills 0.0 in series() but is *absent* (None) to
        # resolve_metric -- the distinction absence rules rely on.
        assert history.series("lat.p99") == [0.0]
        assert resolve_metric(history.points()[0], "lat.p99") is None
        # A histogram that never observed at all behaves the same.
        assert history.series("cold.p95") == [0.0]
        assert resolve_metric(history.points()[0], "cold.p95") is None


class TestResolveMetric:
    def test_counter_wins_then_gauge_then_histogram(self):
        point = {
            "counters": {"x": 1.0},
            "gauges": {"x": 2.0, "g": 7.0},
            "histograms": {"lat": {"p50": 0.01, "p95": 0.02, "count": 3}},
        }
        assert resolve_metric(point, "x") == 1.0
        assert resolve_metric(point, "g") == 7.0
        assert resolve_metric(point, "lat.p95") == 0.02
        assert resolve_metric(point, "lat.count") == 3.0
        assert resolve_metric(point, "lat.p99") is None
        assert resolve_metric(point, "nope") is None
        assert resolve_metric({}, "nope") is None


class TestStartHooks:
    def test_before_and_on_point_hooks_run(self):
        history = MetricsHistory(capacity=8, interval_s=30.0)
        seen = []
        with obs.recording() as rec:

            def before():
                obs.gauge("hooked", 42.0)

            history.start(rec, before_point=before, on_point=seen.append)
            try:
                deadline = time.time() + 5.0
                while not seen and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                history.stop()
        assert seen and seen[0]["gauges"]["hooked"] == 42.0
        # The boot point already carried the before_point gauge.
        assert history.series("hooked")[0] == 42.0

    def test_hook_exceptions_do_not_kill_the_loop(self):
        history = MetricsHistory(capacity=8, interval_s=0.01)
        with obs.recording() as rec:

            def boom():
                raise RuntimeError("hook failure")

            history.start(rec, before_point=boom, on_point=lambda p: 1 / 0)
            try:
                deadline = time.time() + 5.0
                while len(history) < 2 and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                history.stop()
        assert len(history) >= 2


def _counter_points(counts, ts0=1000.0, dt=5.0):
    """History points of one counter, ``dt`` seconds apart; a
    ``seconds`` counter tracks elapsed time as a burn-rate denominator."""
    return [
        {
            "ts": ts0 + dt * index,
            "counters": {_REQUESTS: count, "seconds": dt * index},
            "gauges": {},
            "histograms": {},
        }
        for index, count in enumerate(counts)
    ]


@st.composite
def _restarting_traces(draw):
    """A counter trace with random restarts, plus its true event count.

    Each step either counts some events or restarts the process: the
    counter drops to a fresh count (lower than before, so the restart
    is visible) made of the events since the restart.
    """
    ts = draw(st.floats(min_value=0.0, max_value=1e6))
    value = draw(st.integers(min_value=0, max_value=1000))
    points = [{"ts": ts, "counters": {_REQUESTS: value}}]
    events = 0
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        ts += draw(st.floats(min_value=0.001, max_value=100.0))
        if value and draw(st.booleans()):
            value = draw(st.integers(min_value=0, max_value=value - 1))
            events += value
        else:
            step = draw(st.integers(min_value=0, max_value=1000))
            value += step
            events += step
        points.append({"ts": ts, "counters": {_REQUESTS: value}})
    return points, events


class TestDerivations:
    def test_restart_counts_the_later_value_whole(self):
        points = _counter_points([10, 25, 4, 9])
        assert increases(points, _REQUESTS) == [15.0, 4.0, 5.0]
        assert increase(points, _REQUESTS) == 24.0
        assert rate(points, _REQUESTS) == pytest.approx(24.0 / 15.0)

    def test_absent_counter_reads_as_zero(self):
        points = _counter_points([3, 5])
        del points[0]["counters"][_REQUESTS]
        assert increases(points, _REQUESTS) == [5.0]
        assert increase(points, "never.seen") == 0.0

    def test_rate_needs_two_points_and_a_positive_span(self):
        points = _counter_points([1, 2])
        assert rate(points[:1], _REQUESTS) is None
        assert rate([], _REQUESTS) is None
        assert rate(_counter_points([1, 2], dt=0.0), _REQUESTS) is None
        assert increase([], _REQUESTS) == 0.0

    @given(_restarting_traces())
    def test_increase_counts_every_event_across_restarts(self, trace):
        points, events = trace
        assert increase(points, _REQUESTS) == events
        span = points[-1]["ts"] - points[0]["ts"]
        assert rate(points, _REQUESTS) == events / span


def _top_frame_rates(points):
    frames = [
        {"ts": p["ts"], "health": {"requests": p["counters"][_REQUESTS]}}
        for p in points
    ]
    return [
        json_frame(frame, previous)["derived"]["rate_rps"]
        for previous, frame in zip(frames, frames[1:])
    ]


def _top_trend_rates(points):
    frame = {"ts": 0.0, "history": {"ok": True, "points": points}}
    trend = json_frame(frame)["derived"]["trends"]["rate"]
    return [value / 5.0 for value in trend]


def _burn_rates(points):
    rule = AlertRule(
        name="requests_per_second",
        kind="burn_rate",
        numerator=_REQUESTS,
        denominator="seconds",
        threshold=0.0,
        window_s=1e9,
        min_denominator=1.0,
    )
    values = []
    for start in range(len(points) - 1):
        history = MetricsHistory(capacity=2)
        history._points.extend(points[start:start + 2])
        changed = AlertEngine([rule]).evaluate(history, now=points[-1]["ts"])
        values.append(changed[0]["value"])
    return values


class TestOneCounterRule:
    """``top`` and burn-rate alerts read one rule."""

    @pytest.mark.parametrize(
        "consumer",
        [_top_frame_rates, _top_trend_rates, _burn_rates],
        ids=["top-frames", "top-trend", "burn-rate"],
    )
    def test_restart_trace(self, consumer):
        # 10 -> 25 -> 4 (restart) -> 9, five seconds apart.
        points = _counter_points([10, 25, 4, 9])
        expected = [value / 5.0 for value in increases(points, _REQUESTS)]
        assert expected == [3.0, 0.8, 1.0]
        assert consumer(points) == pytest.approx(expected)

    def test_burn_rate_window_sums_every_interval(self):
        # Over the whole window the first and last counts (10 -> 9)
        # alone would read as no traffic; the rule sums the intervals.
        points = _counter_points([10, 25, 4, 9])
        history = MetricsHistory(capacity=4)
        history._points.extend(points)
        rule = AlertRule(
            name="r", kind="burn_rate", numerator=_REQUESTS,
            denominator="seconds", window_s=1e9,
        )
        changed = AlertEngine([rule]).evaluate(history, now=1015.0)
        assert changed[0]["value"] == round(rate(points, _REQUESTS), 6)
