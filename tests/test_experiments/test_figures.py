"""Tests for the paper's figure sweeps (small-scale).

These build single figures of the paper record at reduced job/node
counts and on shortened axes, and assert structure plus a few robust
qualitative shapes; the full paper-scale shape checks live in
tests/test_integration.py and EXPERIMENTS.md.
"""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import FIGURES, PAPER_POLICIES, as_table, build_record
from repro.experiments.validation import panel

SMALL = ScenarioConfig(num_jobs=120, num_nodes=32, seed=21)
FULFILLED = "pct_deadlines_fulfilled"
SLOWDOWN = "avg_slowdown"


def build_figure(base, fid, x_values):
    """The record of figure ``fid`` alone, swept over ``x_values`` only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(FIGURES, fid, FIGURES[fid]._replace(x_values=tuple(x_values)))
        return build_record(base, only=[fid])


@pytest.fixture(scope="module")
def record1():
    return build_figure(SMALL, "1", (0.3, 1.0))


@pytest.fixture(scope="module")
def fig1(record1):
    return record1["figures"]["1"]


class TestStructure:
    def test_four_panels_with_labels(self, fig1):
        assert [p["label"] for p in fig1["panels"]] == ["a", "b", "c", "d"]

    def test_panel_metrics(self, fig1):
        assert panel(fig1, "a")["metric"] == FULFILLED
        assert panel(fig1, "b")["metric"] == FULFILLED
        assert panel(fig1, "c")["metric"] == SLOWDOWN
        assert panel(fig1, "d")["metric"] == SLOWDOWN

    def test_series_cover_paper_policies(self, fig1):
        for p in fig1["panels"]:
            assert set(p["series"]) == set(PAPER_POLICIES)
            for series in p["series"].values():
                assert len(series) == len(p["x_values"])

    def test_panel_lookup_error(self, fig1):
        with pytest.raises(KeyError):
            panel(fig1, "z")

    def test_render_contains_all_panels(self, record1):
        text = as_table(record1)
        assert "Figure 1" in text
        for label in "abcd":
            assert f"({label})" in text

    def test_percentages_in_range(self, fig1):
        for label in ("a", "b"):
            for series in panel(fig1, label)["series"].values():
                assert all(0.0 <= v <= 100.0 for v in series)

    def test_slowdowns_at_least_zero(self, fig1):
        for label in ("c", "d"):
            for series in panel(fig1, label)["series"].values():
                assert all(v >= 0.0 for v in series)


class TestQualitativeShapes:
    def test_accurate_panel_libra_equals_librarisk(self, fig1):
        """Paper Fig. 1(a)/(c): under accurate estimates LibraRisk
        coincides with Libra."""
        a = panel(fig1, "a")["series"]
        assert a["libra"] == pytest.approx(a["librarisk"])
        c = panel(fig1, "c")["series"]
        assert c["libra"] == pytest.approx(c["librarisk"])

    def test_trace_panel_librarisk_beats_libra(self, fig1):
        b = panel(fig1, "b")["series"]
        assert all(r >= l for r, l in zip(b["librarisk"], b["libra"]))

    def test_edf_slowdown_lowest(self, fig1):
        for label in ("c", "d"):
            s = panel(fig1, label)["series"]
            for policy in ("libra", "librarisk"):
                assert all(e <= o for e, o in zip(s["edf"], s[policy]))


class TestOtherFigures:
    def test_figure2_sweeps_ratio(self):
        rec = build_figure(SMALL, "2", (2.0, 8.0))
        assert list(rec["figures"]) == ["2"]
        assert len(panel(rec["figures"]["2"], "a")["series"]["libra"]) == 2

    def test_figure3_sweeps_urgency(self):
        fig = build_figure(SMALL, "3", (0.0, 100.0))["figures"]["3"]
        assert panel(fig, "b")["x_label"] == "% of high urgency jobs"

    def test_figure4_panels_split_by_urgency(self):
        fig = build_figure(SMALL, "4", (0.0, 100.0))["figures"]["4"]
        assert "20% high urgency" in panel(fig, "a")["title"]
        assert "80% high urgency" in panel(fig, "b")["title"]

    def test_figure4_zero_inaccuracy_matches_accurate_endpoint(self):
        # At 0 % inaccuracy the estimate equals the runtime, so the
        # inaccuracy sweep's first point equals an accurate-mode run.
        from repro.experiments.runner import run_scenario

        fig = build_figure(SMALL, "4", (0.0,))["figures"]["4"]
        direct = run_scenario(
            SMALL.replace(policy="libra", estimate_mode="accurate")
        ).metrics.pct_deadlines_fulfilled
        assert panel(fig, "a")["series"]["libra"][0] == pytest.approx(direct)
