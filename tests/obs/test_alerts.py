"""Tests for the declarative alert engine (repro.obs.alerts)."""

from __future__ import annotations

import json
import sys

import pytest

from repro import obs
from repro.obs.alerts import (
    ALERTS_SCHEMA,
    AlertEngine,
    AlertRule,
    DEFAULT_RULES,
    load_rules,
)
from repro.obs.tsdb import MetricsHistory


def _history_from(points):
    """Build a MetricsHistory pre-seeded with hand-written points."""
    history = MetricsHistory(capacity=max(1, len(points)))
    history._points.extend(points)
    history.snapshots = len(points)
    return history


def _point(ts, counters=None, gauges=None, histograms=None):
    return {
        "ts": ts,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule(name="", kind="threshold", metric="m", threshold=1.0)
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="nope")
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="threshold", metric="m", op="~")
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="threshold")  # metric required
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="burn_rate", numerator="n")  # no den
        with pytest.raises(ValueError):
            AlertRule(
                name="x", kind="threshold", metric="m", severity="loud"
            )

    def test_from_dict_round_trip_and_unknown_keys(self):
        rule = AlertRule(
            name="r",
            kind="burn_rate",
            numerator="errs",
            denominator=("hits", "misses"),
            threshold=0.5,
            window_s=60.0,
            min_denominator=5.0,
        )
        again = AlertRule.from_dict(rule.to_dict())
        assert again == rule
        with pytest.raises(ValueError):
            AlertRule.from_dict({"name": "r", "kind": "event", "bogus": 1})

    def test_string_series_normalised_to_tuple(self):
        rule = AlertRule(
            name="r", kind="burn_rate", numerator="a", denominator="b"
        )
        assert rule.numerator == ("a",)
        assert rule.denominator == ("b",)

    def test_default_rules_are_valid_and_unique(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(names) == len(set(names))
        assert "daemon.stalled" in names
        # Construction above already validated each rule.
        AlertEngine(DEFAULT_RULES)


class TestThresholdRules:
    RULE = AlertRule(
        name="p95",
        kind="threshold",
        metric="lat.p95",
        op=">",
        threshold=0.5,
    )

    def test_fires_immediately_without_for_s(self):
        engine = AlertEngine([self.RULE])
        history = _history_from(
            [_point(100.0, histograms={"lat": {"p95": 0.9, "count": 1}})]
        )
        changed = engine.evaluate(history, now=100.0)
        assert [c["state"] for c in changed] == ["firing"]
        assert "breached" in changed[0]["message"]
        assert engine.firing_count() == 1

    def test_missing_metric_does_not_fire(self):
        engine = AlertEngine([self.RULE])
        history = _history_from([_point(100.0)])
        assert engine.evaluate(history, now=100.0) == []
        assert engine.firing_count() == 0

    def test_for_s_requires_sustained_breach(self):
        rule = AlertRule(
            name="slow",
            kind="threshold",
            metric="g",
            op=">=",
            threshold=1.0,
            for_s=10.0,
        )
        engine = AlertEngine([rule])
        history = _history_from([_point(0.0, gauges={"g": 2.0})])
        changed = engine.evaluate(history, now=0.0)
        assert [c["state"] for c in changed] == ["pending"]
        # Still inside the for_s window: no new transition.
        assert engine.evaluate(history, now=5.0) == []
        changed = engine.evaluate(history, now=11.0)
        assert [c["state"] for c in changed] == ["firing"]

    def test_pending_that_recovers_goes_back_to_ok(self):
        rule = AlertRule(
            name="slow",
            kind="threshold",
            metric="g",
            op=">",
            threshold=1.0,
            for_s=10.0,
        )
        engine = AlertEngine([rule])
        bad = _history_from([_point(0.0, gauges={"g": 5.0})])
        good = _history_from([_point(1.0, gauges={"g": 0.5})])
        engine.evaluate(bad, now=0.0)
        changed = engine.evaluate(good, now=1.0)
        assert [c["state"] for c in changed] == ["ok"]

    def test_firing_resolves_then_refires(self):
        engine = AlertEngine([self.RULE])
        bad = _history_from(
            [_point(0.0, histograms={"lat": {"p95": 0.9, "count": 1}})]
        )
        good = _history_from(
            [_point(1.0, histograms={"lat": {"p95": 0.1, "count": 2}})]
        )
        engine.evaluate(bad, now=0.0)
        changed = engine.evaluate(good, now=1.0)
        assert [c["state"] for c in changed] == ["resolved"]
        changed = engine.evaluate(bad, now=2.0)
        assert [c["state"] for c in changed] == ["firing"]
        row = changed[0]
        assert row["transitions"] == 3


class TestAbsenceRules:
    RULE = AlertRule(
        name="heartbeat",
        kind="absence",
        metric="uptime",
        for_s=0.0,
    )

    def test_absent_metric_fires_and_zero_does_not(self):
        engine = AlertEngine([self.RULE])
        missing = _history_from([_point(0.0)])
        changed = engine.evaluate(missing, now=0.0)
        assert [c["state"] for c in changed] == ["firing"]
        # 0.0 is *present* -- must resolve (the absence/zero distinction
        # resolve_metric exists for).
        zero = _history_from([_point(1.0, gauges={"uptime": 0.0})])
        changed = engine.evaluate(zero, now=1.0)
        assert [c["state"] for c in changed] == ["resolved"]


class TestBurnRateRules:
    RULE = AlertRule(
        name="errs",
        kind="burn_rate",
        numerator="errors",
        denominator="requests",
        threshold=0.1,
        window_s=60.0,
        min_denominator=5.0,
    )

    def test_fires_on_high_ratio(self):
        engine = AlertEngine([self.RULE])
        history = _history_from(
            [
                _point(0.0, counters={"errors": 0, "requests": 0}),
                _point(30.0, counters={"errors": 5, "requests": 20}),
            ]
        )
        changed = engine.evaluate(history, now=30.0)
        assert [c["state"] for c in changed] == ["firing"]
        assert changed[0]["value"] == 0.25

    def test_min_denominator_suppresses_noise(self):
        engine = AlertEngine([self.RULE])
        history = _history_from(
            [
                _point(0.0, counters={"errors": 0, "requests": 0}),
                _point(30.0, counters={"errors": 2, "requests": 2}),
            ]
        )
        # 100% error rate but only 2 requests: below min_denominator.
        assert engine.evaluate(history, now=30.0) == []

    def test_counter_reset_clamps_to_zero(self):
        engine = AlertEngine([self.RULE])
        # Daemon restarted mid-window: counters went backwards.
        history = _history_from(
            [
                _point(0.0, counters={"errors": 50, "requests": 100}),
                _point(30.0, counters={"errors": 1, "requests": 200}),
            ]
        )
        # The errors drop 50 -> 1 is a restart, so the later value
        # counts whole: errors rise 1 over requests 100 => 0.01, no fire.
        assert engine.evaluate(history, now=30.0) == []

    def test_single_point_window_is_inconclusive(self):
        engine = AlertEngine([self.RULE])
        history = _history_from(
            [_point(100.0, counters={"errors": 99, "requests": 100})]
        )
        assert engine.evaluate(history, now=100.0) == []

    def test_old_points_fall_out_of_window(self):
        engine = AlertEngine([self.RULE])
        history = _history_from(
            [
                # 50% error rate here, but it ages out of the window.
                _point(0.0, counters={"errors": 5, "requests": 10}),
                _point(200.0, counters={"errors": 5, "requests": 20}),
                _point(230.0, counters={"errors": 23, "requests": 110}),
            ]
        )
        # Window [170, 230]: only the last two points count.
        changed = engine.evaluate(history, now=230.0)
        assert [c["state"] for c in changed] == ["firing"]
        assert changed[0]["value"] == 0.2

    def test_multi_series_denominator(self):
        rule = AlertRule(
            name="hit_rate",
            kind="burn_rate",
            numerator="misses",
            denominator=("hits", "misses"),
            threshold=0.5,
            window_s=60.0,
            min_denominator=4.0,
        )
        engine = AlertEngine([rule])
        history = _history_from(
            [
                _point(0.0, counters={"hits": 0, "misses": 0}),
                _point(10.0, counters={"hits": 1, "misses": 9}),
            ]
        )
        changed = engine.evaluate(history, now=10.0)
        assert [c["state"] for c in changed] == ["firing"]
        assert changed[0]["value"] == 0.9


class TestEventRules:
    RULE = AlertRule(name="stalled", kind="event", severity="critical")

    def test_fire_clear_cycle(self):
        engine = AlertEngine([self.RULE])
        row = engine.fire("stalled", message="op=sleep", value=2.0)
        assert row["state"] == "firing"
        assert engine.fire("stalled") is None  # already firing
        row = engine.clear("stalled")
        assert row["state"] == "resolved"
        assert engine.clear("stalled") is None  # not firing
        assert engine.fire("nope") is None  # unknown rule

    def test_evaluate_skips_event_rules(self):
        engine = AlertEngine([self.RULE])
        history = _history_from([_point(0.0)])
        assert engine.evaluate(history, now=0.0) == []

    def test_ack_only_while_firing(self):
        engine = AlertEngine([self.RULE])
        assert engine.ack("stalled") is False
        engine.fire("stalled")
        assert engine.ack("stalled") is True
        assert engine.rows()[0]["acked"] is True
        engine.clear("stalled")
        # Resolving clears the ack.
        assert engine.rows()[0]["acked"] is False
        assert engine.ack("missing") is False


class TestEngineDocument:
    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="dup", kind="event")
        with pytest.raises(ValueError):
            AlertEngine([rule, rule])

    def test_rows_sorted_firing_first(self):
        rules = [
            AlertRule(name="a_info", kind="event", severity="info"),
            AlertRule(name="b_crit", kind="event", severity="critical"),
            AlertRule(name="c_warn", kind="event", severity="warning"),
        ]
        engine = AlertEngine(rules)
        engine.fire("c_warn")
        rows = engine.rows()
        assert rows[0]["name"] == "c_warn"  # firing outranks severity
        assert [r["name"] for r in rows[1:]] == ["b_crit", "a_info"]
        assert engine.active()[0]["name"] == "c_warn"

    def test_to_dict_schema(self):
        engine = AlertEngine([AlertRule(name="e", kind="event")])
        doc = engine.to_dict()
        assert doc["schema"] == ALERTS_SCHEMA
        assert doc["rules"] == 1
        assert doc["firing"] == 0
        assert len(doc["alerts"]) == 1

    def test_on_transition_hook_and_swallowed_errors(self):
        seen = []

        def hook(rule, old, new, row):
            seen.append((rule.name, old, new))
            raise RuntimeError("hook must not break the engine")

        engine = AlertEngine(
            [AlertRule(name="e", kind="event")], on_transition=hook
        )
        engine.fire("e")
        engine.clear("e")
        assert seen == [("e", "ok", "firing"), ("e", "firing", "resolved")]


class TestLoadRules:
    def test_json_extends_and_overrides_defaults(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "schema": "repro.alertrules/1",
                    "rules": [
                        {"name": "custom.event", "kind": "event"},
                        {
                            "name": "daemon.handle_p95_high",
                            "kind": "threshold",
                            "metric": "service.daemon.handle_seconds.p95",
                            "op": ">",
                            "threshold": 9.0,
                        },
                    ],
                }
            )
        )
        rules = load_rules(path)
        by_name = {rule.name: rule for rule in rules}
        assert "custom.event" in by_name
        assert by_name["daemon.handle_p95_high"].threshold == 9.0
        assert len(rules) == len(DEFAULT_RULES) + 1

    def test_replace_defaults(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {
                    "replace_defaults": True,
                    "rules": [{"name": "only", "kind": "event"}],
                }
            )
        )
        rules = load_rules(path)
        assert [rule.name for rule in rules] == ["only"]

    def test_bad_files_rejected(self, tmp_path):
        top_list = tmp_path / "list.json"
        top_list.write_text("[]")
        with pytest.raises(ValueError):
            load_rules(top_list)
        no_rules = tmp_path / "empty.json"
        no_rules.write_text("{}")
        with pytest.raises(ValueError):
            load_rules(no_rules)
        bad_schema = tmp_path / "schema.json"
        bad_schema.write_text(json.dumps({"schema": "x/9", "rules": []}))
        with pytest.raises(ValueError):
            load_rules(bad_schema)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python 3.11"
    )
    def test_toml_rules(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            "replace_defaults = true\n"
            "[[rules]]\n"
            'name = "toml.event"\n'
            'kind = "event"\n'
            'severity = "info"\n'
        )
        rules = load_rules(path)
        assert [rule.name for rule in rules] == ["toml.event"]
        assert rules[0].severity == "info"


class TestAgainstLiveHistory:
    def test_end_to_end_with_recorder(self):
        rule = AlertRule(
            name="runs_high",
            kind="threshold",
            metric="alg1.runs",
            op=">=",
            threshold=3.0,
        )
        engine = AlertEngine([rule])
        history = MetricsHistory(capacity=8)
        with obs.recording() as rec:
            obs.counter("alg1.runs", 2)
            history.record(rec)
            assert engine.evaluate(history) == []
            obs.counter("alg1.runs", 2)
            history.record(rec)
            changed = engine.evaluate(history)
        assert [c["state"] for c in changed] == ["firing"]
        assert changed[0]["value"] == 4.0
