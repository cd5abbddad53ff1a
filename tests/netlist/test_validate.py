"""Unit tests for Section 3 assumption validation and control tracing."""

import pytest

from repro.netlist import NetworkBuilder, validate_network
from repro.netlist.kinds import Unateness
from repro.netlist.validate import ValidationError, trace_control


def _base(lib):
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("i", "w_in", clock="clk")
    return b


class TestControlTracing:
    def test_direct_clock_positive_sense(self, lib):
        b = _base(lib)
        b.latch("l", "DFF", D="w_in", CK="clk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        trace = trace_control(n, n.cell("l"))
        assert trace.clock == "clk"
        assert trace.sense is Unateness.POSITIVE
        assert trace.comb_cells == ()

    def test_inverted_control_negative_sense(self, lib):
        b = _base(lib)
        b.gate("ci", "INV", A="clk", Z="nclk")
        b.latch("l", "DLATCH", D="w_in", G="nclk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        trace = trace_control(n, n.cell("l"))
        assert trace.sense is Unateness.NEGATIVE
        assert trace.comb_cells == ("ci",)

    def test_double_inversion_positive_sense(self, lib):
        b = _base(lib)
        b.gate("c1", "INV", A="clk", Z="n1")
        b.gate("c2", "INV", A="n1", Z="n2")
        b.latch("l", "DLATCH", D="w_in", G="n2", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        assert trace_control(n, n.cell("l")).sense is Unateness.POSITIVE

    def test_buffered_control(self, lib):
        b = _base(lib)
        b.gate("cb", "BUF", A="clk", Z="bclk")
        b.latch("l", "DLATCH", D="w_in", G="bclk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        assert trace_control(n, n.cell("l")).sense is Unateness.POSITIVE

    def test_gated_clock_two_clocks_rejected(self, lib):
        b = _base(lib)
        b.clock("clk2")
        b.gate("cg", "NAND2", A="clk", B="clk2", Z="gclk")
        b.latch("l", "DLATCH", D="w_in", G="gclk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        with pytest.raises(ValidationError, match="exactly one"):
            trace_control(n, n.cell("l"))

    def test_reconvergent_mixed_sense_rejected(self, lib):
        b = _base(lib)
        b.gate("ci", "INV", A="clk", Z="nclk")
        b.gate("cg", "NAND2", A="clk", B="nclk", Z="gclk")
        b.latch("l", "DLATCH", D="w_in", G="gclk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        with pytest.raises(ValidationError, match="monotonic"):
            trace_control(n, n.cell("l"))

    def test_non_unate_control_arc_rejected(self, lib):
        b = _base(lib)
        b.gate("cx", "XOR2", A="clk", B="clk", Z="xclk")
        b.latch("l", "DLATCH", D="w_in", G="xclk", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        with pytest.raises(ValidationError, match="non-unate"):
            trace_control(n, n.cell("l"))

    def test_control_from_data_rejected(self, lib):
        b = _base(lib)
        b.latch("l1", "DFF", D="w_in", CK="clk", Q="q1")
        b.latch("l2", "DLATCH", D="w_in", G="q1", Q="q2")
        b.output("o", "q2", clock="clk")
        n = b.build()
        with pytest.raises(ValidationError):
            trace_control(n, n.cell("l2"))


class TestValidateNetwork:
    def test_clean_network_passes(self, lib):
        b = _base(lib)
        b.gate("g", "INV", A="w_in", Z="w1")
        b.latch("l", "DFF", D="w1", CK="clk", Q="q")
        b.output("o", "q", clock="clk")
        report = validate_network(b.build(), {"clk"})
        assert report.ok
        assert "l" in report.control_traces

    def test_floating_input_reported(self, lib):
        b = _base(lib)
        b.gate("g", "NAND2", A="w_in", B="floating", Z="w1")
        report = validate_network(b.build())
        assert any("floating" in e for e in report.errors)

    def test_multiple_drivers_rejected(self, lib):
        b = _base(lib)
        b.gate("g1", "INV", A="w_in", Z="w")
        b.gate("g2", "INV", A="w_in", Z="w")
        report = validate_network(b.build())
        assert any("multiple drivers" in e for e in report.errors)

    def test_tristate_bus_allowed(self, lib):
        b = _base(lib)
        b.latch("t1", "TRIBUF", D="w_in", EN="clk", Q="bus")
        b.latch("t2", "TRIBUF", D="w_in", EN="clk", Q="bus")
        b.output("o", "bus", clock="clk")
        report = validate_network(b.build(), {"clk"})
        assert report.ok

    def test_comb_cycle_reported(self, lib):
        b = _base(lib)
        b.gate("g1", "NAND2", A="w_in", B="w2", Z="w1")
        b.gate("g2", "INV", A="w1", Z="w2")
        report = validate_network(b.build())
        assert any("cycle" in e for e in report.errors)
        assert report.comb_order is None

    def test_unknown_clock_reference(self, lib):
        b = _base(lib)
        b.latch("l", "DFF", D="w_in", CK="clk", Q="q")
        b.output("o", "q", clock="clk")
        report = validate_network(b.build(), {"other"})
        assert any("unknown clock" in e for e in report.errors)

    def test_bad_pad_edge(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk", edge="sideways")
        b.gate("g", "INV", A="w", Z="w2")
        report = validate_network(b.build(), {"clk"})
        assert any("invalid edge" in e for e in report.errors)

    def test_raise_if_failed(self, lib):
        b = _base(lib)
        b.gate("g1", "INV", A="nowhere", Z="w1")
        report = validate_network(b.build())
        with pytest.raises(ValidationError):
            report.raise_if_failed()

    def test_unconnected_output_is_warning_not_error(self, lib):
        b = _base(lib)
        b.gate("g", "INV", A="w_in", Z="dangling")
        report = validate_network(b.build())
        assert report.ok
