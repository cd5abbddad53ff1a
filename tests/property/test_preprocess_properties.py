"""Property tests of cold preprocessing against its reference forms.

* The one-sweep bitset reachability of :meth:`Cluster.reachable_captures`
  must equal the map built from the per-source breadth-first search
  :meth:`Cluster._nets_reachable_from` for every source.
* The break-open plans built from the distinct requirement arcs must
  equal those built from one arc per (launch instance, capture instance)
  combination, the expansion the model used before it deduplicated.
"""

from typing import FrozenSet, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.breakopen import RequirementArc, plan_for_cluster
from repro.core.clusters import Cluster, extract_clusters
from repro.core.model import AnalysisModel
from repro.delay import estimate_delays
from repro.generators import (
    clock_gated_design,
    ff_pipeline,
    fig1_circuit,
    generate_alu,
    latch_pipeline,
    loop_of_latches,
    random_design,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def circuits(draw):
    """A small generator circuit and its clock schedule."""
    kind = draw(
        st.sampled_from(
            ("random", "latch_pipeline", "ff_pipeline", "loop", "fig1",
             "gating", "alu")
        )
    )
    if kind == "random":
        return random_design(
            seed=draw(st.integers(min_value=0, max_value=10**6)),
            n_banks=draw(st.integers(min_value=1, max_value=4)),
            gates_per_bank=draw(st.integers(min_value=2, max_value=40)),
            bits=draw(st.integers(min_value=1, max_value=6)),
            style=draw(st.sampled_from(("latch", "ff"))),
        )
    lengths = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4)
    )
    if kind == "latch_pipeline":
        return latch_pipeline(stages=len(lengths), stage_lengths=lengths)
    if kind == "ff_pipeline":
        return ff_pipeline(stages=len(lengths), stage_lengths=lengths)
    if kind == "loop":
        return loop_of_latches(chain_lengths=lengths)
    if kind == "fig1":
        return fig1_circuit(period=draw(st.sampled_from((40.0, 100.0))))
    if kind == "gating":
        return clock_gated_design(
            enable_logic_depth=draw(st.integers(min_value=1, max_value=3)),
            data_chain=draw(st.integers(min_value=1, max_value=4)),
        )
    return generate_alu(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        width=draw(st.integers(min_value=1, max_value=4)),
        target_cells=None,
    )


def _bfs_reach(cluster: Cluster, network) -> dict:
    """The source-to-capture map from one search per source."""
    capture_by_net = {}
    for capture in cluster.captures:
        capture_by_net.setdefault(capture.net.name, []).append(
            capture.full_name
        )
    return {
        source.full_name: frozenset(
            name
            for net in cluster._nets_reachable_from(network, source.net.name)
            for name in capture_by_net.get(net, ())
        )
        for source in cluster.sources
    }


def _per_instance_arcs(
    model: AnalysisModel, cluster: Cluster
) -> List[RequirementArc]:
    """One arc per (launch instance, capture instance) edge-time pair
    connected by a switching path, duplicates included."""
    reach = cluster.reachable_captures(model.network)
    capture_cell_by_terminal = {
        t.full_name: t.cell.name for t in cluster.captures
    }
    arcs: List[RequirementArc] = []
    for source in cluster.sources:
        targets: FrozenSet[str] = reach.get(source.full_name, frozenset())
        if not targets:
            continue
        source_instances = [
            i
            for i in model.instances[source.cell.name]
            if i.has_output and i.assertion_edge is not None
        ]
        for target_name in targets:
            capture_cell = capture_cell_by_terminal[target_name]
            for capture in model.instances[capture_cell]:
                if not capture.has_input or capture.closure_edge is None:
                    continue
                for launch in source_instances:
                    arcs.append(
                        RequirementArc(
                            assertion=launch.assertion_edge,
                            closure=capture.closure_edge,
                        )
                    )
    return arcs


class TestReachabilitySweep:
    @given(circuits())
    @_SETTINGS
    def test_sweep_equals_per_source_search(self, circuit):
        network, __ = circuit
        for cluster in extract_clusters(network):
            expected = _bfs_reach(cluster, network)
            got = cluster.reachable_captures(network)
            assert got == expected
            assert list(got) == list(expected)

    @given(circuits())
    @_SETTINGS
    def test_model_reuses_the_validated_rank_order(self, circuit):
        network, schedule = circuit
        model = AnalysisModel(network, schedule, estimate_delays(network))
        assert model.validation.comb_order == network.comb_topological_cells()
        assert [
            (c.name, c.cells, c.sources, c.captures) for c in model.clusters
        ] == [
            (c.name, c.cells, c.sources, c.captures)
            for c in extract_clusters(network)
        ]


class TestDistinctRequirementArcs:
    @given(circuits(), st.sampled_from(("transparent", "edge")))
    @_SETTINGS
    def test_plans_equal_per_instance_expansion(self, circuit, latch_model):
        network, schedule = circuit
        model = AnalysisModel(
            network, schedule, estimate_delays(network),
            latch_model=latch_model,
        )
        candidates = schedule.edge_times()
        period = schedule.overall_period
        for cluster in model.clusters:
            arcs = _per_instance_arcs(model, cluster)
            distinct = model._requirement_arcs(cluster)
            assert len(distinct) == len(set(distinct))
            assert set(distinct) == set(arcs)
            reference = plan_for_cluster(period, candidates, arcs)
            plan = model.plans[cluster.name]
            assert plan == reference
            for port in model.capture_ports[cluster.name]:
                assert port.pass_index == reference.designated_pass(
                    port.instance.closure_edge
                )
