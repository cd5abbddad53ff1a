"""Unit tests for cluster extraction."""

import pytest

from repro.core.clusters import cell_arc_pairs, extract_clusters
from repro.netlist import NetworkBuilder


def _two_cluster_network(lib):
    """Two independent latch-to-latch logic blocks on one clock."""
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("ia", "wa", clock="clk")
    b.input("ib", "wb", clock="clk")
    b.latch("la", "DFF", D="wa", CK="clk", Q="qa")
    b.gate("g1", "INV", A="qa", Z="za")
    b.latch("la2", "DFF", D="za", CK="clk", Q="qa2")
    b.output("oa", "qa2", clock="clk")
    b.latch("lb", "DFF", D="wb", CK="clk", Q="qb")
    b.gate("g2", "INV", A="qb", Z="zb")
    b.latch("lb2", "DFF", D="zb", CK="clk", Q="qb2")
    b.output("ob", "qb2", clock="clk")
    return b.build()


class TestExtraction:
    def test_independent_blocks_separate_clusters(self, lib):
        n = _two_cluster_network(lib)
        clusters = extract_clusters(n)
        with_cells = [c for c in clusters if c.cells]
        assert len(with_cells) == 2
        for cluster in with_cells:
            assert len(cluster.cells) == 1
            assert len(cluster.sources) == 1
            assert len(cluster.captures) == 1

    def test_degenerate_direct_connection(self, lib):
        n = _two_cluster_network(lib)
        clusters = extract_clusters(n)
        degenerate = [c for c in clusters if c.is_degenerate]
        # wa, wb (PI->DFF), qa2, qb2 (DFF->PO) are direct nets.
        assert len(degenerate) == 4
        for cluster in degenerate:
            assert len(cluster.sources) == 1
            assert len(cluster.captures) == 1

    def test_shared_net_merges_components(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.latch("l", "DFF", D="w", CK="clk", Q="q")
        b.gate("g1", "INV", A="q", Z="z1")
        b.gate("g2", "INV", A="q", Z="z2")  # shares input net q with g1
        b.latch("l1", "DFF", D="z1", CK="clk", Q="q1")
        b.latch("l2", "DFF", D="z2", CK="clk", Q="q2")
        b.output("o1", "q1", clock="clk")
        b.output("o2", "q2", clock="clk")
        clusters = [c for c in extract_clusters(b.build()) if c.cells]
        assert len(clusters) == 1
        assert len(clusters[0].cells) == 2
        assert len(clusters[0].captures) == 2

    def test_cells_in_topological_order(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.latch("l", "DFF", D="w", CK="clk", Q="q")
        b.gate("g2", "INV", A="z1", Z="z2")
        b.gate("g1", "INV", A="q", Z="z1")
        b.gate("g3", "INV", A="z2", Z="z3")
        b.latch("lo", "DFF", D="z3", CK="clk", Q="qo")
        b.output("o", "qo", clock="clk")
        (cluster,) = [c for c in extract_clusters(b.build()) if c.cells]
        order = [c.name for c in cluster.cells]
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_clock_buffer_cluster_has_no_captures(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.gate("cb", "BUF", A="clk", Z="bclk")
        b.latch("l", "DLATCH", D="w", G="bclk", Q="q")
        b.output("o", "q", clock="clk")
        clusters = extract_clusters(b.build())
        buffer_cluster = next(
            c for c in clusters if any(cell.name == "cb" for cell in c.cells)
        )
        assert buffer_cluster.sources == ()
        assert buffer_cluster.captures == ()


class TestReachability:
    def test_reachable_captures(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("ia", "wa", clock="clk")
        b.input("ib", "wb", clock="clk")
        b.latch("la", "DFF", D="wa", CK="clk", Q="qa")
        b.latch("lb", "DFF", D="wb", CK="clk", Q="qb")
        b.gate("g1", "INV", A="qa", Z="z1")
        b.gate("g2", "NAND2", A="z1", B="qb", Z="z2")
        b.latch("lx", "DFF", D="z1", CK="clk", Q="qx")
        b.latch("ly", "DFF", D="z2", CK="clk", Q="qy")
        b.output("ox", "qx", clock="clk")
        b.output("oy", "qy", clock="clk")
        n = b.build()
        (cluster,) = [c for c in extract_clusters(n) if c.cells]
        reach = cluster.reachable_captures(n)
        assert reach["la/Q"] == {"lx/D", "ly/D"}
        assert reach["lb/Q"] == {"ly/D"}

    def test_reachability_respects_arc_structure(self, lib):
        pairs = cell_arc_pairs
        b = NetworkBuilder(lib)
        b.gate("m", "MUX2", A="a", B="b", S="s", Z="z")
        n = b.build()
        assert set(pairs(n.cell("m"))) == {("A", "Z"), ("B", "Z"), ("S", "Z")}

    def test_degenerate_reachability(self, lib):
        n = _two_cluster_network(lib)
        degenerate = [c for c in extract_clusters(n) if c.is_degenerate]
        for cluster in degenerate:
            reach = cluster.reachable_captures(n)
            (sources,) = reach.values()
            assert len(sources) == 1

    def test_empty_reachability_map_is_memoised(self, lib, monkeypatch):
        """A cluster with no sources computes its (empty) map once."""
        from repro.core import clusters as clusters_module
        from repro.core.clusters import Cluster

        n = _two_cluster_network(lib)
        (block, __) = [c for c in extract_clusters(n) if c.cells]
        sourceless = Cluster(
            "sourceless", block.cells, block.net_names, (), block.captures
        )
        calls = []
        real = clusters_module.cell_arc_pairs
        monkeypatch.setattr(
            clusters_module,
            "cell_arc_pairs",
            lambda cell: calls.append(cell) or real(cell),
        )
        assert sourceless.reachable_captures(n) == {}
        swept = len(calls)
        assert swept == len(block.cells)
        assert sourceless.reachable_captures(n) == {}
        assert len(calls) == swept

    def test_seeded_map_skips_the_sweep(self, lib, monkeypatch):
        from repro.core import clusters as clusters_module

        n = _two_cluster_network(lib)
        (block, __) = [c for c in extract_clusters(n) if c.cells]
        block.seed_reachability({})
        monkeypatch.setattr(
            clusters_module, "cell_arc_pairs", lambda cell: pytest.fail()
        )
        assert block.reachable_captures(n) == {}
