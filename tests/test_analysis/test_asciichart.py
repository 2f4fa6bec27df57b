"""Tests for ASCII chart rendering."""

import pytest

from repro.experiments.asciichart import MARKERS, ascii_chart, panel_chart


class TestAsciiChart:
    def test_basic_render_contains_markers_and_axes(self):
        out = ascii_chart([0, 1, 2], {"a": [1.0, 2.0, 3.0]}, width=30, height=8)
        assert "*" in out
        assert "+-" in out            # x axis
        assert "*=a" in out           # legend

    def test_y_ticks_show_range(self):
        out = ascii_chart([0, 1], {"a": [10.0, 50.0]})
        assert "50" in out and "10" in out

    def test_multiple_series_distinct_markers(self):
        out = ascii_chart([0, 1], {"a": [1.0, 2.0], "b": [2.0, 1.0]})
        assert "*=a" in out and "o=b" in out
        assert "o" in out.splitlines()[0] + out  # marker actually plotted

    def test_rising_series_plots_high_on_right(self):
        out = ascii_chart([0, 1, 2], {"a": [0.0, 5.0, 10.0]}, width=30, height=10)
        rows = [l for l in out.splitlines() if "|" in l]
        top_row = rows[0]
        bottom_row = rows[-1]
        # max value (right end) near the top; min (left end) at bottom.
        assert top_row.rstrip().endswith("*")
        assert "*" in bottom_row[:22]

    def test_explicit_bounds_clamp(self):
        out = ascii_chart([0, 1], {"a": [0.0, 100.0]}, y_min=0.0, y_max=200.0)
        assert "200" in out

    def test_labels_rendered(self):
        out = ascii_chart([0, 1], {"a": [1.0, 2.0]}, y_label="pct", x_label="factor")
        assert "pct" in out and "factor" in out

    def test_non_finite_values_skipped(self):
        out = ascii_chart([0, 1, 2], {"a": [1.0, float("inf"), 2.0]})
        assert "*" in out

    @pytest.mark.parametrize("kwargs,err", [
        ({"x_values": [], "series": {"a": []}}, "x value"),
        ({"x_values": [0], "series": {}}, "series"),
        ({"x_values": [0], "series": {"a": [1.0, 2.0]}}, "length"),
        ({"x_values": [0], "series": {"a": [float("nan")]}}, "finite"),
    ])
    def test_validation(self, kwargs, err):
        with pytest.raises(ValueError, match=err):
            ascii_chart(**kwargs)

    def test_too_many_series(self):
        series = {f"s{i}": [1.0] for i in range(len(MARKERS) + 1)}
        with pytest.raises(ValueError, match="at most"):
            ascii_chart([0], series)


class TestPanelChart:
    def test_charts_a_real_panel(self):
        panel = {"label": "b", "title": "fulfilled — trace", "x_label": "factor",
                 "metric": "pct_deadlines_fulfilled", "x_values": [0.1, 0.5, 1.0],
                 "series": {"edf": [50.0, 55.0, 60.0], "librarisk": [60.0, 75.0, 85.0]}}
        out = panel_chart(panel)
        assert "(b) fulfilled — trace" in out
        assert "*=edf" in out and "o=librarisk" in out
