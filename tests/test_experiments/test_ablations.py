"""Tests for the ablations section of the paper record."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import ABLATION_FLOORS, as_table, build_record

SMALL = ScenarioConfig(num_jobs=120, num_nodes=32, seed=13)


@pytest.fixture(scope="module")
def ablated():
    return build_record(SMALL, only=["ablations"])


@pytest.fixture(scope="module")
def section(ablated):
    return ablated["sections"]["ablations"]


def variants(section, ablation):
    """{variant: {column: value}} for one ablation's rows."""
    columns = section["columns"]
    return {row[1]: dict(zip(columns, row)) for row in section["rows"] if row[0] == ablation}


class TestSuitabilityAblation:
    def test_variants_present(self, section):
        assert set(variants(section, "suitability")) == {
            "sigma (paper)", "no-delay (strict)", "libra (reference)"
        }

    def test_sigma_beats_strict_under_trace_estimates(self, section):
        """The empty-node gamble is the advantage; removing it (strict
        mode) must not fulfil more jobs than the paper criterion."""
        s = variants(section, "suitability")
        assert s["sigma (paper)"]["fulfilled %"] >= s["no-delay (strict)"]["fulfilled %"]
        (verdict,) = section["claims"]
        assert verdict["id"] == "ablations.sigma-beats-no-delay"
        assert verdict["passed"] == (
            s["sigma (paper)"]["fulfilled %"] > s["no-delay (strict)"]["fulfilled %"]
        )

    def test_sigma_beats_libra(self, section):
        s = variants(section, "suitability")
        assert s["sigma (paper)"]["fulfilled %"] > s["libra (reference)"]["fulfilled %"]

    def test_render_is_table(self, ablated):
        out = as_table(ablated)
        assert "=== Ablations" in out and "sigma (paper)" in out
        assert "claims hold ---" in out


class TestOtherAblations:
    def test_node_order_variants(self, section):
        assert set(variants(section, "node_order")) == {"worst_fit", "best_fit", "index"}

    def test_overrun_floor_grid(self, section):
        grid = variants(section, "overrun_floor")
        assert len(grid) == 2 * len(ABLATION_FLOORS)  # 2 policies x each floor
        assert "libra floor=0.05" in grid

    def test_redistribute_spare_variants(self, section):
        assert set(variants(section, "redistribute_spare")) == {
            "libra spare=off", "libra spare=on",
            "librarisk spare=off", "librarisk spare=on",
        }

    def test_spare_redistribution_reduces_slowdown(self, section):
        # Giving idle capacity to running jobs finishes them earlier.
        s = variants(section, "redistribute_spare")
        assert s["libra spare=on"]["avg slowdown"] <= s["libra spare=off"]["avg slowdown"]
