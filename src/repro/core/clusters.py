"""Cluster extraction (paper, Section 7).

"A cluster is a maximal connected network of combinational logic elements.
All inputs to a cluster are synchronising element outputs and all outputs
from a cluster are synchronising element inputs."

Connectivity is through nets (two gates sharing a net -- as driver or
sink -- are in the same cluster).  Nets that connect a synchroniser output
directly to a synchroniser input with no combinational logic in between
form degenerate single-net clusters carrying a zero-delay path.

Clusters also precompute, per source terminal, the set of capture
terminals reachable through the cluster: the "cluster input-output
combinations between which switching paths exist" that drive the
requirement arcs of the break-open pass selection.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.netlist.cell import Cell
from repro.netlist.kinds import CellRole, Unateness
from repro.netlist.network import Network
from repro.netlist.terminals import Terminal
from repro.rftime import RiseFall

#: Schema identifier of one cached per-cluster timing artifact.
ARTIFACT_SCHEMA = "repro.clusterart/1"


def cell_arc_pairs(cell: Cell) -> Tuple[Tuple[str, str], ...]:
    """The (input pin, output pin) connectivity of a combinational cell.

    Uses the spec's timing arcs when available; otherwise assumes every
    input reaches every output.
    """
    arcs = getattr(cell.spec, "arcs", None)
    if arcs:
        return tuple(arcs.keys())
    return tuple(
        (i, o) for i in cell.spec.inputs for o in cell.spec.outputs
    )


class Cluster:
    """One maximal combinational network with its boundary terminals."""

    def __init__(
        self,
        name: str,
        cells: Sequence[Cell],
        net_names: Iterable[str],
        sources: Sequence[Terminal],
        captures: Sequence[Terminal],
    ) -> None:
        self.name = name
        #: Combinational cells in topological order.
        self.cells: Tuple[Cell, ...] = tuple(cells)
        self.net_names: FrozenSet[str] = frozenset(net_names)
        #: Synchroniser outputs / primary inputs driving cluster nets.
        self.sources: Tuple[Terminal, ...] = tuple(sources)
        #: Synchroniser data inputs / primary outputs fed by cluster nets.
        self.captures: Tuple[Terminal, ...] = tuple(captures)
        self._reach: Optional[Dict[str, FrozenSet[str]]] = None

    @property
    def is_degenerate(self) -> bool:
        """True for direct synchroniser-to-synchroniser nets."""
        return not self.cells

    def reachable_captures(self, network: Network) -> Dict[str, FrozenSet[str]]:
        """Map each source terminal's full name to the full names of the
        capture terminals a switching path can reach.

        One sweep over :attr:`cells` in topological order: every net
        carries a bitset (a Python int) of the source nets that reach it,
        each cell ORs its input nets' bitsets into its output nets, and
        the map is read off the capture nets.  ``network`` is not read
        (the cells carry their own terminals); it stays in the signature
        for existing callers.
        """
        if self._reach is not None:
            return self._reach
        source_nets: List[str] = []
        reach_bits: Dict[str, int] = {}
        for source in self.sources:
            assert source.net is not None
            name = source.net.name
            if name not in reach_bits:
                reach_bits[name] = 1 << len(source_nets)
                source_nets.append(name)
        for cell in self.cells:
            for in_pin, out_pin in cell_arc_pairs(cell):
                in_net = cell.terminal(in_pin).net
                out_net = cell.terminal(out_pin).net
                if in_net is None or out_net is None:
                    continue
                bits = reach_bits.get(in_net.name)
                if bits:
                    reach_bits[out_net.name] = (
                        reach_bits.get(out_net.name, 0) | bits
                    )
        captured: List[List[str]] = [[] for __ in source_nets]
        for capture in self.captures:
            assert capture.net is not None
            name = capture.full_name
            bits = reach_bits.get(capture.net.name, 0)
            while bits:
                low = bits & -bits
                captured[low.bit_length() - 1].append(name)
                bits ^= low
        by_net = {
            name: frozenset(names) for name, names in zip(source_nets, captured)
        }
        self._reach = {
            source.full_name: by_net[source.net.name] for source in self.sources
        }
        return self._reach

    def seed_reachability(
        self, reach: Mapping[str, Iterable[str]]
    ) -> None:
        """Install a precomputed source-to-capture reachability map.

        Used by the cluster-granular result cache: a cached
        ``repro.clusterart/1`` artifact carries the exact map the sweep in
        :meth:`reachable_captures` would compute, so a warm analysis can
        skip the sweep for clean clusters.  The map must come from an
        artifact whose :func:`~repro.service.digest.cluster_digest`
        matches this cluster -- the cache layer guarantees that.
        """
        self._reach = {
            source: frozenset(captures)
            for source, captures in reach.items()
        }

    def _nets_reachable_from(
        self, network: Network, start_net: str
    ) -> FrozenSet[str]:
        """The nets a switching path from ``start_net`` reaches, by a
        breadth-first search of the network (``start_net`` included).

        The per-source reference that :meth:`reachable_captures` must
        agree with; the analysis itself no longer calls it.
        """
        reached = {start_net}
        frontier = [start_net]
        while frontier:
            net = network.net(frontier.pop())
            for sink in net.sinks:
                cell = sink.cell
                if not cell.is_combinational:
                    continue
                for in_pin, out_pin in cell_arc_pairs(cell):
                    if in_pin != sink.pin:
                        continue
                    out_net = cell.terminal(out_pin).net
                    if out_net is not None and out_net.name not in reached:
                        reached.add(out_net.name)
                        frontier.append(out_net.name)
        return frozenset(reached)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.name!r}, cells={len(self.cells)}, "
            f"sources={len(self.sources)}, captures={len(self.captures)})"
        )


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, key: str) -> str:
        parent = self._parent.setdefault(key, key)
        if parent == key:
            return key
        root = self.find(parent)
        self._parent[key] = root
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


def _is_launch_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    return (
        cell.is_synchroniser and terminal.is_driver
    ) or cell.role is CellRole.PRIMARY_INPUT


def _is_capture_terminal(terminal: Terminal) -> bool:
    cell = terminal.cell
    if cell.is_synchroniser:
        return terminal is cell.data_input
    return cell.role is CellRole.PRIMARY_OUTPUT


def extract_clusters(
    network: Network, comb_order: Optional[Sequence[Cell]] = None
) -> Tuple[Cluster, ...]:
    """Partition the combinational logic of ``network`` into clusters.

    ``comb_order`` is the network's combinational cells in topological
    order, when the caller already has it (the acyclic check of
    :func:`~repro.netlist.validate.validate_network` computes it);
    otherwise it is computed here.
    """
    uf = _UnionFind()
    # Union each combinational cell with every net it touches.
    for cell in network.combinational_cells:
        cell_key = f"c:{cell.name}"
        for terminal in cell.terminals():
            if terminal.net is not None:
                uf.union(cell_key, f"n:{terminal.net.name}")

    # Group combinational cells and their nets by component root.
    topo = (
        comb_order if comb_order is not None
        else network.comb_topological_cells()
    )
    cells_by_root: Dict[str, List[Cell]] = {}
    for cell in topo:
        cells_by_root.setdefault(uf.find(f"c:{cell.name}"), []).append(cell)

    nets_by_root: Dict[str, List[str]] = {}
    degenerate_nets: List[str] = []
    for net in network.nets:
        key = f"n:{net.name}"
        root = uf.find(key)
        if root != key or root in cells_by_root:
            nets_by_root.setdefault(root, []).append(net.name)
        else:
            # Net touching no combinational cell: a cluster of its own if
            # it links a launch terminal to a capture terminal.
            has_launch = any(_is_launch_terminal(t) for t in net.drivers)
            has_capture = any(_is_capture_terminal(t) for t in net.sinks)
            if has_launch and has_capture:
                degenerate_nets.append(net.name)

    clusters: List[Cluster] = []
    for index, (root, cells) in enumerate(sorted(cells_by_root.items())):
        net_names = sorted(nets_by_root.get(root, ()))
        sources, captures = _boundary_terminals(network, net_names)
        clusters.append(
            Cluster(f"cluster_{index}", cells, net_names, sources, captures)
        )
    for net_name in sorted(degenerate_nets):
        sources, captures = _boundary_terminals(network, [net_name])
        clusters.append(
            Cluster(f"cluster_net_{net_name}", (), [net_name], sources, captures)
        )
    return tuple(clusters)


def _sweep_path_delays(
    cluster: Cluster, delays, start_net: str, maximum: bool
) -> Dict[str, RiseFall]:
    """Propagate path delay from ``start_net`` through the cluster.

    ``maximum=True`` mirrors the slack engine's Equation-1 forward sweep
    (max propagation with :meth:`DelayMap.arc_delay`); ``maximum=False``
    is the dual shortest-path sweep with :meth:`DelayMap.arc_delay_min`.
    Unateness swaps rise/fall exactly as in
    :meth:`repro.core.slack.SlackEngine._forward`.
    """
    arrival: Dict[str, RiseFall] = {start_net: RiseFall.both(0.0)}
    for cell in cluster.cells:
        for in_pin, out_pin in delays.arcs_of(cell):
            in_net = cell.terminal(in_pin).net
            out_net = cell.terminal(out_pin).net
            if in_net is None or out_net is None:
                continue
            at_input = arrival.get(in_net.name)
            if at_input is None:
                continue
            delay = (
                delays.arc_delay(cell, in_pin, out_pin)
                if maximum
                else delays.arc_delay_min(cell, in_pin, out_pin)
            )
            sense = delays.arc_unateness(cell, in_pin, out_pin)
            if sense is Unateness.POSITIVE:
                pair = RiseFall(
                    at_input.rise + delay.rise, at_input.fall + delay.fall
                )
            elif sense is Unateness.NEGATIVE:
                pair = RiseFall(
                    at_input.fall + delay.rise, at_input.rise + delay.fall
                )
            else:  # non-unate: the binding input transition drives both
                pick = max if maximum else min
                bound = pick(at_input.rise, at_input.fall)
                pair = RiseFall(bound + delay.rise, bound + delay.fall)
            existing = arrival.get(out_net.name)
            if existing is None:
                arrival[out_net.name] = pair
            elif maximum:
                arrival[out_net.name] = existing.max_with(pair)
            else:
                arrival[out_net.name] = existing.min_with(pair)
    return arrival


def cluster_timing_artifact(
    network: Network, cluster: Cluster, delays
) -> Dict[str, object]:
    """One cluster's cacheable timing artifact (``repro.clusterart/1``).

    Per the Li et al. extraction contract, the artifact captures the
    cluster's port-to-port timing view without any window state:

    * ``reach`` -- the exact source-to-capture reachability map the
      break-open pass selection needs (:meth:`Cluster.reachable_captures`),
      reusable via :meth:`Cluster.seed_reachability`;
    * ``dmax_p`` / ``dmin_p`` -- longest / shortest combinational path
      delay from each source terminal to each reachable capture
      terminal (the paper's per-path ``Dmax_p`` / ``Dmin_p`` symbols);
    * ``worst_arcs`` -- for each capture terminal, the source whose
      ``dmax_p`` binds it (the critical through-cluster arc).

    The numbers are derived views for reporting/invalidation checks;
    correctness of warm runs rests on ``reach`` being byte-identical to
    what a cold reachability sweep computes, which it is by construction
    (it *is* the cold sweep's output).
    """
    reach = cluster.reachable_captures(network)
    capture_by_net: Dict[str, List[str]] = {}
    for capture in cluster.captures:
        if capture.net is not None:
            capture_by_net.setdefault(capture.net.name, []).append(
                capture.full_name
            )
    dmax_p: Dict[str, Dict[str, float]] = {}
    dmin_p: Dict[str, Dict[str, float]] = {}
    worst_arcs: Dict[str, Dict[str, object]] = {}
    for source in sorted(cluster.sources, key=lambda t: t.full_name):
        if source.net is None:
            continue
        reached = reach.get(source.full_name, frozenset())
        max_arrival = _sweep_path_delays(
            cluster, delays, source.net.name, maximum=True
        )
        min_arrival = _sweep_path_delays(
            cluster, delays, source.net.name, maximum=False
        )
        max_row: Dict[str, float] = {}
        min_row: Dict[str, float] = {}
        for net_name, names in capture_by_net.items():
            at_max = max_arrival.get(net_name)
            at_min = min_arrival.get(net_name)
            if at_max is None or at_min is None:
                continue
            dmax = max(at_max.rise, at_max.fall)
            dmin = min(at_min.rise, at_min.fall)
            for capture_name in names:
                if capture_name not in reached:
                    continue
                max_row[capture_name] = dmax
                min_row[capture_name] = dmin
                binding = worst_arcs.get(capture_name)
                if binding is None or dmax > binding["dmax"]:
                    worst_arcs[capture_name] = {
                        "source": source.full_name,
                        "dmax": dmax,
                        "dmin": dmin,
                    }
        dmax_p[source.full_name] = max_row
        dmin_p[source.full_name] = min_row
    return {
        "schema": ARTIFACT_SCHEMA,
        "cluster": cluster.name,
        "cells": len(cluster.cells),
        "reach": {
            source: sorted(captures)
            for source, captures in reach.items()
        },
        "dmax_p": dmax_p,
        "dmin_p": dmin_p,
        "worst_arcs": worst_arcs,
    }


def _boundary_terminals(
    network: Network, net_names: Sequence[str]
) -> Tuple[List[Terminal], List[Terminal]]:
    sources: List[Terminal] = []
    captures: List[Terminal] = []
    for net_name in net_names:
        net = network.net(net_name)
        for driver in net.drivers:
            if _is_launch_terminal(driver):
                sources.append(driver)
        for sink in net.sinks:
            if _is_capture_terminal(sink):
                captures.append(sink)
    return sources, captures
