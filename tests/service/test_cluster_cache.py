"""Cluster-granular cache: digests, sub-key map, byte-identity.

* :func:`repro.service.digest.cluster_digest` -- stability across
  re-extraction, locality of a one-cell delay change;
* :class:`repro.service.cluster_cache.ClusterCache` -- cold warm,
  full-hit warm, one-dirty-cluster warm, schema guard;
* the byte-identity property: a cluster-cached re-analysis after a
  single-cell delay mutation produces the *same* manifest digest as a
  from-scratch run, while every cluster outside the mutated cone hits;
* batch wiring (warm-re-run hit rates) and the daemon's lack of
  cluster fields.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Hummingbird
from repro.core.clusters import ARTIFACT_SCHEMA, extract_clusters
from repro.delay.estimator import estimate_delays
from repro.generators import latch_pipeline
from repro.report.manifest import manifest_digest
from repro.service import (
    BatchEngine,
    BatchJob,
    ClusterCache,
    DaemonClient,
    TimingDaemon,
    build_cluster_map,
)
from repro.service.digest import ARTIFACT_SCHEMA_VERSION

CONFIG_SHA = "a" * 64


def _design():
    return latch_pipeline(
        stages=4, stage_lengths=[10, 1, 1, 1], period=12.0
    )


def _owner(clusters, cell_name):
    """The name of the cluster holding a combinational cell."""
    return next(
        cluster.name
        for cluster in clusters
        if any(cell.name == cell_name for cell in cluster.cells)
    )


@pytest.fixture
def design():
    return _design()


@pytest.fixture
def store(tmp_path):
    return ClusterCache(tmp_path / "clusters")


class TestClusterDigest:
    def test_keys_stable_across_reextraction(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        first = build_cluster_map(network, schedule, delays, CONFIG_SHA)
        second = build_cluster_map(network, schedule, delays, CONFIG_SHA)
        assert first.keys == second.keys
        # And across a *fresh* network build of the same circuit.
        network2, schedule2 = _design()
        third = build_cluster_map(
            network2, schedule2, estimate_delays(network2), CONFIG_SHA
        )
        assert first.keys == third.keys

    def test_one_cell_mutation_changes_exactly_one_key(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        before = build_cluster_map(network, schedule, delays, CONFIG_SHA)
        after = build_cluster_map(
            network,
            schedule,
            delays.with_scaled_cell("s1_i0", 1.5),
            CONFIG_SHA,
        )
        changed = [
            name
            for name in before.keys
            if before.keys[name] != after.keys[name]
        ]
        assert changed == [_owner(before.clusters, "s1_i0")]

    def test_config_perturbs_every_key(self, design):
        network, schedule = design
        delays = estimate_delays(network)
        a = build_cluster_map(network, schedule, delays, CONFIG_SHA)
        b = build_cluster_map(network, schedule, delays, "b" * 64)
        assert all(a.keys[name] != b.keys[name] for name in a.keys)

    def test_schedule_perturbs_every_key(self, design):
        """Boundary clock waveforms are part of every digest."""
        network, schedule = design
        delays = estimate_delays(network)
        a = build_cluster_map(network, schedule, delays, CONFIG_SHA)
        b = build_cluster_map(
            network, schedule.scaled(2), delays, CONFIG_SHA
        )
        assert all(a.keys[name] != b.keys[name] for name in a.keys)

    def test_artifact_version_follows_schema_and_keys_are_pinned(
        self, design
    ):
        """The digest's artifact version is read off ``ARTIFACT_SCHEMA``,
        and the cache addresses of a fixed design do not move."""
        assert ARTIFACT_SCHEMA_VERSION == int(ARTIFACT_SCHEMA.split("/")[1])
        network, schedule = design
        keys = build_cluster_map(
            network, schedule, estimate_delays(network), CONFIG_SHA
        ).keys
        assert keys["cluster_0"] == (
            "87b8512ce55427ab0ec0cf5bf0414d94"
            "43c16f9ea0f6ad48204a1f5c5ac59d75"
        )
        assert keys["cluster_net_s3_q"] == (
            "555716febd7dfbef811916154d67e9aa"
            "d6ab97ad4487307b74830ca57ae637a2"
        )


class TestClusterMap:
    def test_to_dict_summary(self, design):
        network, schedule = design
        cmap = build_cluster_map(
            network, schedule, estimate_delays(network), CONFIG_SHA
        )
        summary = cmap.to_dict()
        assert summary["clusters"] == len(cmap.clusters)
        assert set(summary["keys"]) == set(cmap.keys)


class TestWarm:
    def test_cold_warm_recomputes_everything(self, design, store):
        network, schedule = design
        warmup = store.warm(
            network, schedule, estimate_delays(network), CONFIG_SHA
        )
        assert warmup.hits == []
        assert sorted(warmup.recomputed) == sorted(
            c.name for c in warmup.map.clusters
        )
        assert warmup.hit_rate == 0.0
        for artifact in warmup.artifacts.values():
            assert artifact["schema"] == ARTIFACT_SCHEMA

    def test_second_warm_hits_everything(self, design, store):
        network, schedule = design
        delays = estimate_delays(network)
        store.warm(network, schedule, delays, CONFIG_SHA)
        warmup = store.warm(network, schedule, delays, CONFIG_SHA)
        assert warmup.recomputed == []
        assert warmup.hit_rate == 1.0

    def test_warm_seeds_reachability_on_hit(self, design, store):
        network, schedule = design
        delays = estimate_delays(network)
        cold = store.warm(network, schedule, delays, CONFIG_SHA)
        clusters = extract_clusters(network)
        warm = store.warm(
            network, schedule, delays, CONFIG_SHA, clusters=clusters
        )
        assert warm.hit_rate == 1.0
        for cluster in clusters:
            # The seeded map equals what the cold BFS computed.
            seeded = {
                source: sorted(captures)
                for source, captures in cluster.reachable_captures(
                    network
                ).items()
            }
            assert seeded == cold.artifacts[cluster.name]["reach"]

    def test_mutation_recomputes_only_the_dirty_cluster(
        self, design, store
    ):
        network, schedule = design
        delays = estimate_delays(network)
        store.warm(network, schedule, delays, CONFIG_SHA)
        mutated = delays.with_scaled_cell("s1_i0", 1.5)
        warmup = store.warm(network, schedule, mutated, CONFIG_SHA)
        assert warmup.recomputed == [
            _owner(warmup.map.clusters, "s1_i0")
        ]
        assert len(warmup.hits) == len(warmup.map.clusters) - 1

    def test_probe_rejects_foreign_schema(self, store):
        store.store("k" * 64, {"schema": "bogus/9", "reach": {}})
        assert store.probe("k" * 64) is None
        # The corrupt entry was evicted, not just skipped.
        assert store.probe("k" * 64) is None
        assert len(store) == 0


_CELLS = ("s0_i0", "s0_i7", "s1_i0", "s2_i0", "s3_i0")
_FACTORS = (0.5, 1.25, 1.5, 2.0, 3.0)


class TestByteIdentity:
    """Satellite 4: cached re-analysis is byte-identical to scratch."""

    @given(
        cell=st.sampled_from(_CELLS),
        factor=st.sampled_from(_FACTORS),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_rerun_matches_from_scratch(
        self, tmp_path_factory, cell, factor
    ):
        store = ClusterCache(
            tmp_path_factory.mktemp("clusters") / "store"
        )
        network, schedule = _design()
        base = estimate_delays(network)
        store.warm(network, schedule, base, CONFIG_SHA)

        mutated = base.with_scaled_cell(cell, factor)
        clusters = extract_clusters(network)
        warmup = store.warm(
            network, schedule, mutated, CONFIG_SHA, clusters=clusters
        )
        # Every cluster outside the mutated cone hits.
        assert warmup.recomputed == [_owner(clusters, cell)]
        assert len(warmup.hits) == len(warmup.map.clusters) - 1

        cached = Hummingbird(
            network, schedule, delays=mutated, clusters=clusters
        ).analyze()

        scratch_network, scratch_schedule = _design()
        scratch = Hummingbird(
            scratch_network,
            scratch_schedule,
            delays=estimate_delays(scratch_network).with_scaled_cell(
                cell, factor
            ),
        ).analyze()

        assert manifest_digest(cached.manifest()) == manifest_digest(
            scratch.manifest()
        )


class TestDaemonWiring:
    def test_disabled_cache_omits_cluster_fields(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        sock = str(tmp_path / "plain.sock")
        with TimingDaemon(sock) as daemon:  # noqa: F841
            with DaemonClient(sock, timeout=30.0) as client:
                analyzed = client.analyze(netlist, clocks)
                assert "cluster_cache" not in analyzed
                mutated = client.mutate(
                    netlist, clocks, "scale_cell",
                    cell="s1_i0", factor=1.5,
                )
                assert "touched_cluster" not in mutated


class TestBatchWiring:
    def test_warm_rerun_hits_every_cluster(
        self, tmp_path, design_files
    ):
        netlist, clocks = design_files
        jobs = [BatchJob("pipeline", netlist, clocks)]
        root = tmp_path / "clusters"

        cold_engine = BatchEngine(serial=True, cluster_cache=root)
        cold = cold_engine.run(jobs)
        assert cold.cluster_recomputed > 0
        assert cold.cluster_hits == 0

        warm_engine = BatchEngine(serial=True, cluster_cache=root)
        warm = warm_engine.run(jobs)
        assert warm.cluster_hit_rate == 1.0
        assert warm.cluster_recomputed == 0
        summary = warm.to_dict()["cluster_cache"]
        assert summary["hit_rate"] == 1.0
        assert "cluster hit rate" in warm.render_text()

    def test_outcomes_carry_cluster_info(self, tmp_path, design_files):
        netlist, clocks = design_files
        engine = BatchEngine(
            serial=True, cluster_cache=tmp_path / "clusters"
        )
        report = engine.run([BatchJob("pipeline", netlist, clocks)])
        (outcome,) = report.outcomes
        assert outcome.cluster_cache is not None
        assert outcome.cluster_cache["clusters"] > 0
