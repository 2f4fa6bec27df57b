"""Tests for the sensitivity analysis."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.sensitivity import KnobSensitivity, sensitivity

SMALL = ScenarioConfig(num_jobs=120, num_nodes=32, seed=17)

KNOBS = (
    ("deadline_ratio", 2.0, 8.0),
    ("overrun_floor_share", 0.01, 0.25),
)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity(SMALL, policy="librarisk", knobs=KNOBS)

    def test_one_entry_per_knob_sorted_by_swing(self, result):
        assert len(result.knobs) == 2
        swings = [k.swing for k in result.knobs]
        assert swings == sorted(swings, reverse=True)

    def test_deadline_ratio_moves_the_metric(self, result):
        ratio = next(k for k in result.knobs if k.knob == "deadline_ratio")
        # Looser deadlines must not fulfil fewer jobs.
        assert ratio.high_metric >= ratio.low_metric

    def test_render(self, result):
        text = result.render()
        assert "Sensitivity of librarisk" in text
        assert "deadline_ratio" in text
        assert "swing" in text

    def test_most_sensitive(self, result):
        assert result.most_sensitive() in ("deadline_ratio", "overrun_floor_share")

    def test_swing_computation(self):
        k = KnobSensitivity("x", 0, 1, base_metric=50.0,
                            low_metric=40.0, high_metric=70.0)
        assert k.swing == pytest.approx(30.0)

