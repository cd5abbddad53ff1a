"""Tail-sampled trace store + exemplar plumbing (PR 9)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.hist import LATENCY_BUCKETS, HistogramStats
from repro.obs.metrics import render_prometheus
from repro.obs.tracestore import (
    TRACE_DOC_SCHEMA,
    TailSampler,
    TraceStore,
)


def _tid(suffix: str, fill: str = "a") -> str:
    """A 32-hex trace id with a chosen low-order tail (the hash arm
    only looks at the last 8 hex digits)."""
    return (fill * (32 - len(suffix))) + suffix


class TestTailSampler:
    def test_errors_always_kept(self):
        sampler = TailSampler(sample_rate=0.0, min_count=1)
        sampler.decide("ok", 0.001, _tid("ffffffff"))
        assert sampler.decide("error", 0.0, _tid("ffffffff")) == "error"

    def test_warmup_keeps_only_errors_and_sampled(self):
        sampler = TailSampler(sample_rate=0.05, min_count=5)
        assert sampler.slow_threshold() is None
        # Until the p95 is known nothing counts as slow: a non-sampled
        # id is dropped however long it took ...
        assert sampler.decide("ok", 5.0, _tid("ffffffff")) is None
        # ... while the hash-sampled arm and errors still keep.
        assert sampler.decide("ok", 5.0, _tid("00000000")) == "sampled"
        assert sampler.decide("error", 0.0, _tid("ffffffff")) == "error"
        assert sampler.slow_threshold() is None

    def test_slow_threshold_is_dynamic_p95(self):
        sampler = TailSampler(sample_rate=0.0, min_count=10)
        for _ in range(20):
            sampler.decide("ok", 0.001, _tid("ffffffff"))
        assert sampler.slow_threshold() is not None
        # Far above the p95 of the traffic seen so far: kept.
        assert sampler.decide("ok", 5.0, _tid("ffffffff")) == "slow"
        # Far below it: the probabilistic arm (rate 0) drops it.
        assert sampler.decide("ok", 0.0, _tid("ffffffff")) is None

    def test_probabilistic_arm_is_deterministic_per_id(self):
        sampler = TailSampler(sample_rate=0.05, min_count=10)
        for _ in range(20):
            sampler.decide("ok", 0.001, _tid("ffffffff"))
        # last-8 = 00000000 -> hash unit 0.0 < 0.05: always sampled.
        assert sampler.decide("ok", 0.0, _tid("00000000")) == "sampled"
        # last-8 = ffffffff -> hash unit ~1.0: always dropped.
        assert sampler.decide("ok", 0.0, _tid("ffffffff")) is None
        # Same id, same answer (restart-stable, cross-daemon agreement).
        assert sampler.decide("ok", 0.0, _tid("00000000")) == "sampled"

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            TailSampler(sample_rate=1.5)


class TestTraceStore:
    def _store(self, tmp_path, **kw):
        kw.setdefault("sampler", TailSampler(sample_rate=0.0, min_count=1))
        return TraceStore(tmp_path / "traces", **kw)

    def test_error_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        tid = _tid("00000001")
        reason = store.offer(
            tid,
            status="error",
            duration_s=0.5,
            op="analyze",
            design="pipeline",
            error={"error": "boom", "error_type": "ValueError"},
            snapshot={"spans": []},
        )
        assert reason == "error"
        doc = store.get(tid)
        assert doc["schema"] == TRACE_DOC_SCHEMA
        assert doc["trace_id"] == tid
        assert doc["status"] == "error"
        assert doc["sampling"] == "error"
        assert doc["error"]["error_type"] == "ValueError"
        assert store.stats()["traces"] == 1

    def test_dropped_trace_not_written(self, tmp_path):
        sampler = TailSampler(sample_rate=0.0, min_count=1)
        sampler.decide("ok", 0.001, _tid("ffffffff"))  # warm past 1
        store = TraceStore(tmp_path / "traces", sampler=sampler)
        assert store.offer(
            _tid("ffffffff"), status="ok", duration_s=0.0
        ) is None
        assert store.stats()["traces"] == 0
        assert store.list() == []

    def test_invalid_ids_rejected(self, tmp_path):
        store = self._store(tmp_path)
        for bad in (None, "", "xyz", "ABCDEF123456", "../../etc/passwd"):
            assert store.offer(bad, status="error", duration_s=0.0) is None
            assert store.get(bad) is None
        assert store.stats()["traces"] == 0

    def test_eviction_is_oldest_first(self, tmp_path):
        store = self._store(tmp_path, max_bytes=600)
        ids = [_tid(f"{i:08x}") for i in range(6)]
        for tid in ids:
            store.offer(tid, status="error", duration_s=0.1)
        stats = store.stats()
        assert stats["bytes"] <= 600
        assert 1 <= stats["traces"] < 6
        # The newest trace always survives; the oldest went first.
        assert store.get(ids[-1]) is not None
        assert store.get(ids[0]) is None
        kept = {row["trace_id"] for row in store.list()}
        assert kept == set(ids[-stats["traces"]:])

    def test_restart_rescans_existing_documents(self, tmp_path):
        first = self._store(tmp_path)
        ids = [_tid(f"{i:08x}") for i in range(3)]
        for tid in ids:
            first.offer(tid, status="error", duration_s=0.1)
        reborn = self._store(tmp_path)
        assert reborn.stats()["traces"] == 3
        assert [row["trace_id"] for row in reborn.list(2)] == [
            ids[2],
            ids[1],
        ]
        assert reborn.get(ids[0])["trace_id"] == ids[0]

    def test_list_last_zero_lists_nothing(self, tmp_path):
        store = self._store(tmp_path)
        for i in range(3):
            store.offer(_tid(f"{i:08x}"), status="error", duration_s=0.1)
        assert store.list(last=0) == []
        assert store.list(last=-1) == []
        assert len(store.list(last=1)) == 1
        assert len(store.list()) == 3

    def test_list_skips_corrupt_documents(self, tmp_path):
        store = self._store(tmp_path)
        tid = _tid("00000001")
        store.offer(tid, status="error", duration_s=0.1)
        (tmp_path / "traces" / f"{tid}.json").write_text("{broken")
        assert store.get(tid) is None
        assert store.list() == []

    def test_unwritable_root_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        with obs.recording() as rec:
            store = TraceStore(blocker / "traces")
            store.offer(_tid("00000001"), status="error", duration_s=0.1)
            assert store.get(_tid("00000001")) is None
        assert rec.counters.get("service.tracestore.write_errors", 0) >= 1

    def test_keep_counters(self, tmp_path):
        with obs.recording() as rec:
            store = self._store(tmp_path)
            store.offer(_tid("00000001"), status="error", duration_s=0.1)
        assert rec.counters["service.tracestore.kept"] == 1
        assert rec.counters["service.tracestore.kept_error"] == 1


class TestExemplars:
    def test_histogram_keeps_latest_exemplar_per_bucket(self):
        hist = HistogramStats(LATENCY_BUCKETS)
        hist.observe(0.002, exemplar={"trace_id": _tid("01"), "ts": 1.0})
        hist.observe(0.002, exemplar={"trace_id": _tid("02"), "ts": 2.0})
        hist.observe(0.002)  # no exemplar: previous one sticks
        assert len(hist.exemplars) == 1
        ((__, kept),) = hist.exemplars.items()
        assert kept["trace_id"] == _tid("02")

    def test_render_prometheus_emits_openmetrics_exemplar(self):
        with obs.recording() as rec:
            rec.histogram(
                "service.daemon.request_seconds",
                0.002,
                exemplar={"trace_id": _tid("ab"), "ts": 3.0},
            )
            rec.histogram("service.daemon.request_seconds", 0.002)
            text = render_prometheus(rec)
        exemplar_lines = [
            line for line in text.splitlines() if "# {" in line
        ]
        assert len(exemplar_lines) == 1
        line = exemplar_lines[0]
        assert "_bucket" in line
        assert f'# {{trace_id="{_tid("ab")}"}}' in line
        # Suffix shape: ... # {labels} value ts
        tail = line.split("} ", 2)[-1].split()
        assert float(tail[0]) == pytest.approx(0.002)

    def test_exemplar_only_on_its_bucket(self):
        with obs.recording() as rec:
            rec.histogram("h", 0.002, exemplar={"trace_id": _tid("ab")})
            rec.histogram("h", 5.0)
            text = render_prometheus(rec)
        bucket_lines = [
            line
            for line in text.splitlines()
            if "h_bucket" in line and "# {" in line
        ]
        assert len(bucket_lines) == 1

    def test_metrics_json_unaffected_by_exemplars(self):
        with obs.recording() as rec:
            rec.histogram("h", 0.002, exemplar={"trace_id": _tid("ab")})
            doc = obs.metrics_dict(rec)
        assert json.dumps(doc)  # still plain JSON-serialisable
