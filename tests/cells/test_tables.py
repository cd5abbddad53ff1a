"""Tests for the lookup-table delay model."""

import pytest

from repro.cells import GateSpec, TableArc, TableDelay, table_from_linear
from repro.cells.tables import TableDelay as TD
from repro.netlist.kinds import Unateness


class TestTableDelay:
    def test_exact_breakpoints(self):
        table = TableDelay((0.0, 2.0, 4.0), (1.0, 2.0, 4.0))
        assert table.at_load(0.0) == 1.0
        assert table.at_load(2.0) == 2.0
        assert table.at_load(4.0) == 4.0

    def test_interpolation(self):
        table = TableDelay((0.0, 2.0), (1.0, 3.0))
        assert table.at_load(1.0) == pytest.approx(2.0)
        assert table.at_load(0.5) == pytest.approx(1.5)

    def test_extrapolation_above(self):
        table = TableDelay((0.0, 2.0), (1.0, 3.0))
        assert table.at_load(4.0) == pytest.approx(5.0)

    def test_monotone_given_monotone_points(self):
        table = TableDelay((0.0, 1.0, 3.0, 9.0), (0.5, 0.8, 1.6, 4.0))
        samples = [table.at_load(x / 2) for x in range(0, 20)]
        assert samples == sorted(samples)

    def test_flat_segment_over_subnormal_span_stays_finite(self):
        # The span is so small that (load - low) / span overflows to
        # inf; a flat segment must still answer its delay, not NaN.
        table = TableDelay((0.0, 2.2250738585e-313), (0.1, 0.1))
        assert table.at_load(1.0) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            TableDelay((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError, match="increasing"):
            TableDelay((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="two breakpoints"):
            TableDelay((0.0,), (1.0,))
        with pytest.raises(ValueError, match="non-negative"):
            TableDelay((0.0, 1.0), (1.0, 2.0)).at_load(-1)


class TestTableFromLinear:
    def test_matches_linear_without_saturation(self):
        table = table_from_linear(0.5, 0.1)
        for load in (0.0, 1.0, 3.0, 8.0):
            assert table.at_load(load) == pytest.approx(0.5 + 0.1 * load)

    def test_saturation_bends_upward(self):
        linear = table_from_linear(0.5, 0.1)
        bent = table_from_linear(0.5, 0.1, saturation=0.5)
        assert bent.at_load(16.0) > linear.at_load(16.0)
        assert bent.at_load(0.0) == pytest.approx(linear.at_load(0.0))


class TestTableArcIntegration:
    def _table_inv(self):
        rise = table_from_linear(0.4, 0.1, saturation=0.2)
        fall = table_from_linear(0.3, 0.1, saturation=0.2)
        arc = TableArc(unateness=Unateness.NEGATIVE, rise=rise, fall=fall)
        return GateSpec(
            name="TINV",
            inputs=("A",),
            arcs={("A", "Z"): arc},
            input_caps={"A": 1.0},
        )

    def test_delay_at_pair(self):
        spec = self._table_inv()
        pair = spec.arcs[("A", "Z")].delay_at(2.0)
        assert pair.rise > pair.fall

    def test_estimator_accepts_table_arcs(self, lib):
        from repro.cells import CellLibrary
        from repro.clocks import ClockSchedule
        from repro.core import Hummingbird
        from repro.netlist import NetworkBuilder

        library = CellLibrary("mixed", [self._table_inv()])
        for name in ("DFF",):
            library.register(lib.spec(name))
        b = NetworkBuilder(library)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.latch("fa", "DFF", D="w", CK="clk", Q="q")
        b.gate("g", "TINV", A="q", Z="z")
        b.latch("fb", "DFF", D="z", CK="clk", Q="q2")
        b.output("o", "q2", clock="clk")
        result = Hummingbird(b.build(), ClockSchedule.single("clk", 50)).analyze()
        assert result.intended
        assert result.worst_slack < 50.0

    def test_table_and_linear_agree_when_equivalent(self, lib):
        """A table characterised from the linear model gives the same
        analysis results as the linear model itself."""
        from repro.cells import CellLibrary
        from repro.cells.combinational import simple_gate
        from repro.clocks import ClockSchedule
        from repro.core import Hummingbird
        from repro.netlist import NetworkBuilder

        linear_spec = simple_gate(
            "XINV", 1, Unateness.NEGATIVE, 0.4, 0.1, skew=0.0
        )
        (linear_arc,) = linear_spec.arcs.values()
        table_spec = GateSpec(
            name="XINV",
            inputs=("A",),
            arcs={
                ("A", "Z"): TableArc(
                    unateness=Unateness.NEGATIVE,
                    rise=table_from_linear(
                        linear_arc.rise.intrinsic, linear_arc.rise.resistance
                    ),
                    fall=table_from_linear(
                        linear_arc.fall.intrinsic, linear_arc.fall.resistance
                    ),
                )
            },
            input_caps={"A": 1.0},
        )

        def analyse(spec):
            library = CellLibrary("v", [spec, lib.spec("DFF")])
            b = NetworkBuilder(library)
            b.clock("clk")
            b.input("i", "w", clock="clk")
            b.latch("fa", "DFF", D="w", CK="clk", Q="q")
            b.gate("g1", "XINV", A="q", Z="z1")
            b.gate("g2", "XINV", A="z1", Z="z2")
            b.latch("fb", "DFF", D="z2", CK="clk", Q="q2")
            b.output("o", "q2", clock="clk")
            hb = Hummingbird(b.build(), ClockSchedule.single("clk", 30))
            return hb.analyze().worst_slack

        assert analyse(table_spec) == pytest.approx(analyse(linear_spec))
