"""Unit tests for the reporting helpers."""

import pytest

from repro.sim.metrics import BarChart, ComparisonTable, shape_preserved


class TestBarChart:
    def test_add_and_value(self):
        chart = BarChart("Figure 6")
        chart.add("basic RMI", 4.8)
        chart.add("RMI+ssh", 13.0)
        assert chart.value("RMI+ssh") == 13.0
        with pytest.raises(KeyError):
            chart.value("missing")

    def test_render_contains_labels_and_bars(self):
        chart = BarChart("Figure 6")
        chart.add("basic RMI", 4.8)
        chart.add("RMI+Sf", 18.0)
        text = chart.render()
        assert "Figure 6" in text
        assert "basic RMI" in text and "#" in text

    def test_render_empty(self):
        assert "empty" in BarChart("x").render()


class TestComparisonTable:
    def test_relative_error(self):
        table = ComparisonTable("t")
        table.add("a", 100.0, 110.0)
        table.add("b", 50.0, 50.0)
        assert table.max_relative_error() == pytest.approx(0.1)

    def test_render(self):
        table = ComparisonTable("Table 1")
        table.add("MAC costs", 28.0, 28.0)
        text = table.render()
        assert "MAC costs" in text and "+0%" in text


class TestShapePreserved:
    def test_order_preserved(self):
        pairs = [(4.8, 5.0), (13.0, 12.0), (18.0, 19.0)]
        assert shape_preserved(pairs)

    def test_order_violated(self):
        pairs = [(4.8, 20.0), (13.0, 12.0)]
        assert not shape_preserved(pairs)

    def test_tolerance_allows_near_ties(self):
        pairs = [(100.0, 101.0), (102.0, 100.0)]
        assert not shape_preserved(pairs)
        assert shape_preserved(pairs, tolerance=0.05)
