"""Tests for the paper-claims validator.

Runs the validator against (a) synthetic figure data crafted to match
or violate the paper shapes, and (b) small regenerated figures.
"""

import dataclasses

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import as_table, claims_hold
from repro.experiments.validation import figure3_claims, overview_claims, validate_figure
from tests.test_experiments.test_figures import build_figure


def make_figure(a, b, c, d, x=(0.0, 50.0, 100.0)):
    """Craft a record figure from explicit per-policy series."""
    panels = [
        {"label": label, "title": title, "x_label": "x", "metric": metric,
         "x_values": list(x), "series": series}
        for label, title, metric, series in (
            ("a", "fulfilled accurate", "pct_deadlines_fulfilled", a),
            ("b", "fulfilled trace", "pct_deadlines_fulfilled", b),
            ("c", "slowdown accurate", "avg_slowdown", c),
            ("d", "slowdown trace", "avg_slowdown", d),
        )
    ]
    return {"title": "synthetic", "panels": panels}


def paper_like_figure(fid="3"):
    """Series exhibiting exactly the paper's §5 shapes, with their verdicts."""
    a = {"edf": [60, 55, 50], "libra": [95, 92, 88], "librarisk": [95, 92, 88]}
    b = {"edf": [50, 40, 30], "libra": [55, 45, 35], "librarisk": [80, 82, 84]}
    c = {"edf": [1.5, 1.4, 1.3], "libra": [7.0, 6.0, 5.0], "librarisk": [7.0, 6.0, 5.0]}
    d = {"edf": [1.3, 1.2, 1.1], "libra": [3.3, 3.0, 2.8], "librarisk": [2.7, 2.4, 2.2]}
    fig = make_figure(a, b, c, d)
    fig["claims"] = validate_figure(fid, fig)
    return fig


def paper_like_record(*fids):
    """A paper record of paper-like figures at the paper's base scale."""
    return {
        "base": dataclasses.asdict(ScenarioConfig()),
        "stats": {"num_jobs": 3000.0, "mean_runtime_h": 2.7},
        "figures": {fid: paper_like_figure(fid) for fid in fids},
        "sections": {},
    }


def _series(fig, label):
    return next(p["series"] for p in fig["panels"] if p["label"] == label)


class TestOverviewClaims:
    def test_all_pass_on_paper_shapes(self):
        claims = overview_claims("3", paper_like_figure())
        assert all(c["passed"] for c in claims), [c for c in claims if not c["passed"]]

    def test_detects_librarisk_regression(self):
        fig = paper_like_figure()
        # Sabotage: LibraRisk no better than Libra under trace estimates.
        broken = {**_series(fig, "b"), "librarisk": [55, 45, 35]}
        bad = make_figure(_series(fig, "a"), broken, _series(fig, "c"), _series(fig, "d"))
        claims = {c["id"]: c for c in overview_claims("3", bad)}
        assert not claims["F3.librarisk-beats-libra-trace"]["passed"]

    def test_detects_slowdown_divergence_accurate(self):
        fig = paper_like_figure()
        broken_c = {**_series(fig, "c"), "librarisk": [9.0, 8.0, 7.0]}
        bad = make_figure(_series(fig, "a"), _series(fig, "b"), broken_c, _series(fig, "d"))
        claims = {c["id"]: c for c in overview_claims("3", bad)}
        assert not claims["F3.same-slowdown-accurate"]["passed"]

    def test_detects_edf_slowdown_violation(self):
        fig = paper_like_figure()
        broken_c = {**_series(fig, "c"), "edf": [10.0, 10.0, 10.0]}
        bad = make_figure(_series(fig, "a"), _series(fig, "b"), broken_c, _series(fig, "d"))
        claims = {c["id"]: c for c in overview_claims("3", bad)}
        assert not claims["F3.edf-lowest-slowdown"]["passed"]


class TestFigure3Claims:
    def test_pass_on_paper_shapes(self):
        claims = figure3_claims(paper_like_figure())
        assert all(c["passed"] for c in claims)

    def test_detects_librarisk_collapse_with_urgency(self):
        fig = paper_like_figure()
        broken_b = {**_series(fig, "b"), "librarisk": [80, 60, 40]}
        bad = make_figure(_series(fig, "a"), broken_b, _series(fig, "c"), _series(fig, "d"))
        claims = {c["id"]: c for c in figure3_claims(bad)}
        assert not claims["F3.librarisk-holds-up-under-urgency"]["passed"]


class TestValidationReport:
    def test_counts_and_render(self):
        record = paper_like_record("3")
        record["figures"]["3"]["claims"] = [
            {"id": "a", "source": "§5", "description": "x", "passed": True, "detail": "ok"},
            {"id": "b", "source": "§5", "description": "y", "passed": False, "detail": "bad"},
        ]
        assert not claims_hold(record)
        text = as_table(record)
        assert "[PASS] a" in text and "[FAIL] b" in text
        assert "1/2" in text


class TestEndToEndValidation:
    def test_figure3_claims_hold_at_moderate_scale(self):
        base = ScenarioConfig(num_jobs=600, num_nodes=128, seed=42)
        record = build_figure(base, "3", (20.0, 80.0))
        failed = [c for c in record["figures"]["3"]["claims"] if not c["passed"]]
        assert claims_hold(record), failed
